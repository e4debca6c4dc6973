"""Acceptance gate: one test per release criterion, each printing PASS/FAIL.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and runtime bounds are pinned here; if a criterion
fails, the printed line names it before the assertion detail.
"""
import hashlib
import json
import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest

from ringflow.circuits import (
    group_terms,
    measurement_circuit,
    parity_sign,
    prepare_backflow_circuit,
)
from ringflow.engine import (
    apply_circuit,
    apply_gate,
    cnot,
    cry,
    expectation_pauli,
    h,
    init_amplitudes,
    init_basis,
    ry,
    x,
    z,
    z_probabilities,
)
from ringflow.experiment import (
    backflow_coefficients,
    closed_form_current,
    exact_current,
    ingest_measurements,
    run_simulation,
)
from ringflow.pauli import (
    PauliString,
    WeightedPauliSum,
    current_decomposition,
    dense_current_matrix,
    realize_dense,
)

from conftest import DATA_DIR, PEAK_SCRIPT, child_env, random_state_vector

FOUR_PI = 4.0 * math.pi


def criterion(number, name, budget_s):
    def wrap(fn):
        def run():
            start = time.perf_counter()
            try:
                fn()
                elapsed = time.perf_counter() - start
                assert elapsed < budget_s, f"took {elapsed:.2f}s, budget {budget_s}s"
            except BaseException:
                print(f"ACCEPTANCE {number} ({name}): FAIL", flush=True)
                raise
            print(
                f"ACCEPTANCE {number} ({name}): PASS [{elapsed:.2f}s < {budget_s}s]",
                flush=True,
            )

        run.__name__ = fn.__name__
        return run

    return wrap


@criterion(1, "decomposition correctness", budget_s=5.0)
def test_criterion_1_decomposition():
    for n in range(1, 9):
        dec = current_decomposition(n)
        assert np.array_equal(realize_dense(dec), dense_current_matrix(n))
    one = current_decomposition(1)
    assert one.identity_weight == 1.0
    assert [(t.word, t.coeff) for t in one.terms] == [("X", 1.0), ("Z", -1.0)]
    two = current_decomposition(2)
    assert two.identity_weight == 3.0
    assert {t.word: t.coeff for t in two.terms} == {
        "IX": 3.0, "XI": 3.0, "XX": 3.0, "ZI": -2.0, "ZX": -2.0, "IZ": -1.0, "XZ": -1.0,
    }


@criterion(2, "closed-form reproduction", budget_s=1.0)
def test_criterion_2_closed_form():
    assert abs(closed_form_current(1) - (-1.0 / (10.0 * math.pi))) < 1e-12
    assert abs(closed_form_current(1) - (-0.0318310)) < 1e-6
    assert abs(closed_form_current(2) - (-0.106103)) < 5e-7
    for n in range(1, 15):
        je = exact_current(backflow_coefficients(n).a, 0.0)
        assert abs(je - closed_form_current(n)) < 1e-12, f"N={n}"


@criterion(3, "state preparation", budget_s=1.0)
def test_criterion_3_state_preparation():
    one = apply_circuit(init_basis(1, 0), prepare_backflow_circuit(backflow_coefficients(1)))
    np.testing.assert_allclose(
        one.amplitudes.real, [-0.894427, 0.447214], atol=1e-6
    )
    np.testing.assert_allclose(one.amplitudes.imag, 0.0, atol=1e-12)
    two = apply_circuit(init_basis(2, 0), prepare_backflow_circuit(backflow_coefficients(2)))
    np.testing.assert_allclose(
        z_probabilities(two), [2 / 3, 1 / 6, 0, 1 / 6], atol=1e-10
    )


@criterion(4, "experimental-arithmetic reproduction", budget_s=1.0)
def test_criterion_4_measured_data():
    one = json.loads((DATA_DIR / "backflow_n1_probabilities.json").read_text())
    assert abs(ingest_measurements(None, one).j_estimate - (-0.031453)) < 1e-5
    two = json.loads((DATA_DIR / "backflow_n2_expectations.json").read_text())
    assert abs(ingest_measurements(None, two).j_estimate - (-0.102789)) < 1e-5


@criterion(5, "shot-noise statistical acceptance", budget_s=30.0)
def test_criterion_5_shot_noise():
    for n in (1, 2):
        passes = 0
        for seed in range(20):
            report = run_simulation(n, shots_per_setting=8000, seed=seed)
            if abs(report.j_estimate - report.j_exact) < 5 * report.j_std_error:
                passes += 1
        assert passes >= 19, f"N={n}: only {passes}/20 within 5 sigma"


@criterion(6, "property suite", budget_s=60.0)
def test_criterion_6_properties():
    rng = np.random.default_rng(612)

    # gate-inverse round trips and norm preservation at 1e-12
    for n in (1, 3):
        state = init_amplitudes(n, random_state_vector(rng, n))
        pairs = [
            (ry(0, 1.234), ry(0, -1.234)),
            (h(n - 1), h(n - 1)),
            (x(0), x(0)),
            (z(n - 1), z(n - 1)),
        ]
        if n > 1:
            pairs += [(cnot(0, 1), cnot(0, 1)), (cry(1, 0, 0.77), cry(1, 0, -0.77))]
        for gate, inverse in pairs:
            stepped = apply_gate(state, gate)
            assert abs(np.linalg.norm(stepped.amplitudes) - 1.0) < 1e-12
            back = apply_gate(stepped, inverse)
            np.testing.assert_allclose(back.amplitudes, state.amplitudes, atol=1e-12)

    # Hadamard conjugation: <X> equals the Z parity after one H, at 1e-12
    for n in (1, 2, 4):
        for _ in range(10):
            state = init_amplitudes(n, random_state_vector(rng, n))
            pos = int(rng.integers(n))
            word = "I" * pos + "X" + "I" * (n - pos - 1)
            direct = expectation_pauli(
                state, WeightedPauliSum(n, 0.0, (PauliString(word, 1.0),))
            )
            probs = z_probabilities(apply_gate(state, h(pos)))
            signs = 1 - 2 * ((np.arange(probs.size) >> (n - 1 - pos)) & 1)
            assert abs(direct - float(signs @ probs)) < 1e-12

    # decomposition expectation vs dense oracle on 100 random states, N <= 6
    for n in range(1, 7):
        dec = current_decomposition(n)
        dense = dense_current_matrix(n).astype(np.float64)
        for _ in range(100):
            state = init_amplitudes(n, random_state_vector(rng, n))
            oracle = float(np.real(np.conj(state.amplitudes) @ dense @ state.amplitudes))
            assert abs(expectation_pauli(state, dec) - oracle) < 1e-10

    # momentum eigenstates never backflow, on a 100-point ring-angle grid
    for n in (1, 2, 3):
        for m in range(1 << n):
            one_hot = np.zeros(1 << n)
            one_hot[m] = 1.0
            for theta0 in np.linspace(-math.pi, math.pi, 100):
                assert exact_current(one_hot, theta0) >= -1e-15

    # closed form strictly decreases with the register size
    values = [closed_form_current(n) for n in range(1, 31)]
    assert all(b < a for a, b in zip(values, values[1:]))

    # grouped and per-term estimators agree in the exact-probability limit
    for n in (1, 2, 3, 4):
        grouped = run_simulation(n, shots_per_setting=None, grouped=True)
        per_term = run_simulation(n, shots_per_setting=None, grouped=False)
        assert abs(grouped.j_estimate - per_term.j_estimate) < 1e-12
        assert abs(grouped.j_estimate - grouped.j_exact) < 1e-12


@criterion(7, "sixteen-qubit scale check", budget_s=10.0)
def test_criterion_7_scale():
    n = 16
    dec = current_decomposition(n)
    state = init_amplitudes(n, backflow_coefficients(n).a)
    j = expectation_pauli(state, dec) / FOUR_PI
    assert abs(j - closed_form_current(n)) < 1e-9


# sha256 of the 16-qubit exact report in each format (json md5 4037f447...;
# the csv with its three param lines)
_SIXTEEN_QUBIT_SHA = {
    "json": "8430512578df4e35f1821acf6b186f3ffc4bd81029ae1424777ce3eaf89de3c1",
    "csv": "318825468c0fc606f1d09d2ef7218fd812a5d341f56db172d2228c84c6ce8d34",
    "table": "2d78a59c9845391f3c68e9d6aecb1e2634d963a9bdef27bed85d5afd1785fbe9",
}
# sha256 of analyze's JSON report of the 16-qubit exact JSON report
_SIXTEEN_QUBIT_ANALYSIS_SHA = "6c01a775f60a8fb0cbba7a75accde1468eb495e3e5a9d2e4718603bdf0234c42"


def _sixteen_qubit_report(target, fmt: str, argv=("current", "--mode", "exact", "--n", "16")):
    """The child's peak resident set in kB and the sha256 of the report
    that the CLI run on ``argv`` wrote to ``target`` in ``fmt``."""
    argv = [*argv, "--format", fmt, "--output", str(target)]
    done = subprocess.run(
        [sys.executable, "-c", PEAK_SCRIPT, json.dumps(argv)],
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    code, peak_kb = map(int, done.stdout.split())
    assert code == 0
    digest = hashlib.sha256()
    with open(target, "rb") as handle:  # a MiB at a time
        for chunk in iter(lambda: handle.read(1 << 20), b""):
            digest.update(chunk)
    return peak_kb, digest.hexdigest()


@pytest.fixture(scope="module")
def sixteen_qubit_json(tmp_path_factory):
    """The 16-qubit exact JSON report's path, with its writer's peak in kB
    and its sha256."""
    target = tmp_path_factory.mktemp("sixteen") / "report.json"
    return (target, *_sixteen_qubit_report(target, "json"))


_NEEDS_PROC = pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")


@_NEEDS_PROC
def test_sixteen_qubit_report_peak_memory(tmp_path, sixteen_qubit_json):
    """``current --mode exact --n 16`` writes its 170 MB report, byte for
    byte as pinned, with a peak resident set of at most 300 MB, read by the
    child itself: a parent's ``ru_maxrss`` for the child counts the
    parent's own pages at spawn.  The csv and table reports, written from
    the same term columns, peak no higher than the JSON report."""
    target, peak_kb, digest = sixteen_qubit_json
    assert target.stat().st_size > 150e6
    assert peak_kb <= 300 * 1024, f"peak {peak_kb / 1024:.0f} MB"
    assert digest == _SIXTEEN_QUBIT_SHA["json"]
    for fmt in ("csv", "table"):
        text_kb, digest = _sixteen_qubit_report(tmp_path / f"report.{fmt}", fmt)
        assert text_kb <= peak_kb, f"{fmt} peak {text_kb} kB, json {peak_kb} kB"
        assert digest == _SIXTEEN_QUBIT_SHA[fmt]


@_NEEDS_PROC
def test_sixteen_qubit_analysis_peak_memory(tmp_path, sixteen_qubit_json):
    """``analyze`` of the 16-qubit exact report builds only the keys that
    ingest reads, not the 589 823 rows of its term list, so the child peaks
    at no more than 400 MiB (555 MiB while the whole file was decoded),
    and its report is byte for byte as pinned."""
    argv = ("analyze", "--input", str(sixteen_qubit_json[0]))
    peak_kb, digest = _sixteen_qubit_report(tmp_path / "analysis.json", "json", argv)
    assert peak_kb <= 400 * 1024, f"peak {peak_kb / 1024:.0f} MiB"
    assert digest == _SIXTEEN_QUBIT_ANALYSIS_SHA


def test_measurement_pipeline_identity():
    """Glue check: parity-average readout equals the operator expectation."""
    rng = np.random.default_rng(77)
    for n in (1, 2, 3):
        dec = current_decomposition(n)
        state = init_amplitudes(n, random_state_vector(rng, n))
        total = dec.identity_weight
        for setting, terms in group_terms(dec).items():
            probs = z_probabilities(apply_circuit(state, measurement_circuit(setting)))
            outcomes = [format(i, f"0{n}b") for i in range(probs.size)]
            for term in terms:
                total += term.coeff * sum(
                    parity_sign(term, bits) * p for bits, p in zip(outcomes, probs)
                )
        assert abs(total - expectation_pauli(state, dec)) < 1e-10
