"""Correctness gate applied to every benchmark operation.

Each check raises ``CheckFailed`` with a one-line reason.  The reference
values are computed here, independently of the program under test: the
closed form of the built-in backflowing family is
J(N) = -D(D - 1) / ((2D + 1) 4 pi) with D = 2^N.
"""
from __future__ import annotations

import hashlib
import json
import math

FOUR_PI = 4.0 * math.pi

#: Largest |J - closed form| accepted from an exact evaluation.
EXACT_TOL = 1e-9

#: Published hardware data shipped under data/, and the J each reproduces.
DATA_FILES = (
    ("data/backflow_n1_probabilities.json", -0.031453),
    ("data/backflow_n2_expectations.json", -0.102789),
)
DATA_TOL = 1e-5


class CheckFailed(Exception):
    """An operation's output is wrong; it counts as a failed operation."""


def closed_form(n_qubits: int) -> float:
    dim = 1 << n_qubits
    return -(dim * (dim - 1)) / ((dim << 1) + 1) / FOUR_PI


def _reject_constant(token: str):
    raise CheckFailed(f"output is not strict JSON: bare {token}")


def strict_json(text) -> object:
    """Parse JSON that must not contain NaN, Infinity or -Infinity."""
    try:
        return json.loads(text, parse_constant=_reject_constant)
    except (ValueError, UnicodeDecodeError) as exc:
        raise CheckFailed(f"output is not JSON: {exc}") from None


def report_text(report_dict: dict) -> bytes:
    """A report serialized as the CLI writes it, but refusing non-finite values."""
    try:
        text = json.dumps(report_dict, indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise CheckFailed(f"report is not strict JSON: {exc}") from None
    return (text + "\n").encode("utf-8")


def expect_exit_ok(code) -> None:
    if code != 0:
        raise CheckFailed(f"exit status {code}")


def expect_field(report: dict, key: str, value) -> None:
    if report.get(key) != value:
        raise CheckFailed(f"{key} is {report.get(key)!r}, expected {value!r}")


def expect_exact_current(j: float, n_qubits: int) -> None:
    """An exact evaluation must match the closed form within EXACT_TOL."""
    if not isinstance(j, float) or not abs(j - closed_form(n_qubits)) <= EXACT_TOL:
        raise CheckFailed(
            f"J = {j!r} differs from the closed form {closed_form(n_qubits)!r} "
            f"by more than {EXACT_TOL}"
        )


def expect_same_estimate(j: float, reference: float, what: str) -> None:
    if j != reference:
        raise CheckFailed(f"{what}: j_estimate {j!r} != {reference!r}")


def expect_reingest(report: dict, ingest) -> None:
    """Feeding a shots report back to ``ingest`` must give the same j_estimate."""
    try:
        again = ingest(None, report)
    except (ValueError, KeyError, TypeError) as exc:
        raise CheckFailed(f"report does not re-ingest: {exc}") from None
    expect_same_estimate(again.j_estimate, report.get("j_estimate"), "re-ingested report")


class RepeatLog:
    """Byte-identical output for repeated inputs within one run."""

    def __init__(self):
        self._seen: dict = {}

    def expect_repeatable(self, key, output: bytes) -> None:
        digest = hashlib.sha256(output).digest()
        first = self._seen.setdefault(key, digest)
        if first != digest:
            raise CheckFailed(f"output for repeated input {key!r} changed")


def check_data_files(root, ingest) -> list[float]:
    """Analyze the shipped hardware data; the run fails unless both reproduce."""
    values = []
    for rel, expected in DATA_FILES:
        with open(root / rel, "r", encoding="utf-8") as handle:
            j = ingest(None, json.load(handle)).j_estimate
        if not abs(j - expected) <= DATA_TOL:
            raise CheckFailed(f"{rel}: J = {j!r}, expected {expected} +- {DATA_TOL}")
        values.append(j)
    return values
