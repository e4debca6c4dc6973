"""Command-line front end.

Three commands: ``decompose`` prints the current operator's word expansion,
``current`` evaluates J exactly or by shot-based simulation (or sweeps a
range of qubit counts into a plot-ready table), and ``analyze`` recombines
externally measured outcome data.  Only the report is written to standard
output; diagnostics go to standard error, so output can be piped.

Exit codes: 2 for bad flags, malformed RINGFLOW_* values or an
``--output`` FILE that cannot be written, 3 for computation failures
(including registers above ``MAX_QUBITS`` and a report that cannot be
written as strict JSON), 4 for unreadable or malformed input data.
Environment variables RINGFLOW_SHOTS, RINGFLOW_SEED and RINGFLOW_FORMAT
override the built-in defaults.

JSON reports have the layout of ``json.dumps(report, indent=2,
sort_keys=True)`` plus a newline.  With ``indent`` set, ``json.dumps``
encodes in pure Python, one generator step per value; ``_json_text``
instead recurses only through containers that hold containers, and hands
each flat container (no list, tuple or dict inside) to the C encoder in
one call, its item separator carrying the newline and indent.  Scalars,
key order, escapes and the refusal of NaN and infinity thus come from the
same C code that ``json.dumps`` uses.

The two bulky parts of a report are written from the report's own
columns, which ``ExperimentReport.to_dict(columns=True)`` leaves in
place: ``_render`` writes a ``TermRecords`` as the term list and an
``Outcomes`` as ``"key": value`` rows in ascending key order.  Every row
follows one template, whose fixed parts are interleaved with the column
texts in an object grid and joined, so no row string is made.  Float
text is ``float.__repr__``, which is what the C encoder writes, called
once per distinct bit pattern of a column (``np.unique`` over its int64
view, so -0.0 and 0.0 stay apart); nothing is kept between renders.  A
column holding NaN or infinity is refused before any of its text is
made.  The whole text is built before anything is written.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .engine import MAX_SHOTS, NormDriftError
from .experiment import (
    DEFAULT_SHOTS,
    ExperimentReport,
    Outcomes,
    TermRecords,
    backflow_coefficients,
    closed_form_current,
    exact_current,
    ingest_measurements,
    run_exact,
    run_simulation,
)
from .pauli import (
    MAX_QUBITS,
    RegisterTooLargeError,
    WeightedPauliSum,
    current_decomposition,
    dense_current_matrix,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3
EXIT_DATA = 4

_FORMATS = ("json", "csv", "table")

_EPILOG = f"""\
register cap:
  registers above {MAX_QUBITS} qubits are refused with exit code 3

environment defaults:
  RINGFLOW_SHOTS    default for --shots (built-in: 8000)
  RINGFLOW_SEED     default for --seed (built-in: fresh entropy)
  RINGFLOW_FORMAT   default for --format (built-in: json)

exit codes:
  0  success
  2  invalid flags or flag combinations, or an unwritable --output FILE
  3  computation failed
  4  input data missing or malformed
"""


class _NonFiniteReport(ValueError):
    """A report holds NaN or infinity, which strict JSON cannot carry."""


def _env_int(name: str, parser: argparse.ArgumentParser) -> int | None:
    raw = os.environ.get(name, "")
    if raw == "":
        return None
    try:
        return int(raw)
    except ValueError:
        parser.error(f"{name} must be an integer, got {raw!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringflow",
        description="Probability-current backflow on a ring: decompose the "
        "current operator, evaluate or simulate J, analyze measured data.",
        epilog=_EPILOG,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--version", action="version", version=f"ringflow {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p):
        p.add_argument(
            "--format",
            choices=_FORMATS,
            default=os.environ.get("RINGFLOW_FORMAT") or "json",
            help="output format (default: %(default)s)",
        )
        p.add_argument("--output", metavar="FILE", help="write to FILE instead of stdout")

    p_dec = sub.add_parser(
        "decompose", help="print the word expansion of the current operator"
    )
    p_dec.add_argument("--n", type=int, required=True, help="qubit count (>= 1)")
    p_dec.add_argument(
        "--dense", action="store_true", help="include the dense matrix (n <= 8)"
    )
    add_io(p_dec)

    p_cur = sub.add_parser(
        "current", help="evaluate J exactly or estimate it from sampled shots"
    )
    p_cur.add_argument("--n", type=int, help="qubit count (>= 1)")
    p_cur.add_argument(
        "--range",
        dest="n_range",
        metavar="A..B",
        help="sweep qubit counts A..B inclusive (exact mode only)",
    )
    p_cur.add_argument(
        "--mode", choices=("exact", "shots"), default="exact", help="evaluation mode"
    )
    p_cur.add_argument("--shots", type=int, help="shots per measurement setting")
    p_cur.add_argument("--seed", type=int, help="base seed for sampling")
    p_cur.add_argument(
        "--grouped",
        dest="grouped",
        action="store_true",
        default=True,
        help="share measurement settings across compatible words (default)",
    )
    p_cur.add_argument(
        "--per-term",
        dest="grouped",
        action="store_false",
        help="one measurement circuit per word",
    )
    p_cur.add_argument(
        "--readout-flip",
        type=float,
        default=0.0,
        metavar="P",
        help="per-bit classical readout flip probability (shots mode)",
    )
    p_cur.add_argument(
        "--theta0",
        type=float,
        default=0.0,
        help="ring angle for the exact current (exact mode only)",
    )
    add_io(p_cur)

    p_ana = sub.add_parser(
        "analyze", help="recombine measured outcome data into a current estimate"
    )
    p_ana.add_argument("--input", required=True, metavar="FILE", help="measured-data JSON")
    p_ana.add_argument("--n", type=int, help="expected qubit count")
    add_io(p_ana)

    return parser


_WRITE_CHUNK = 1 << 20


def _write(stream, text: str) -> None:
    # a slice at a time, so that the encoded copy of a large report stays small
    for start in range(0, len(text), _WRITE_CHUNK):
        stream.write(text[start : start + _WRITE_CHUNK])


def _emit(text: str, path: str | None) -> int:
    """Write the finished text; an unwritable FILE exits 2, as argparse's
    ``FileType`` does, and a failed write removes the regular file it left."""
    if path in (None, "-"):
        _write(sys.stdout, text)
        return EXIT_OK
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        return _unwritable(path, exc)
    try:
        with handle:
            _write(handle, text)
    except OSError as exc:
        if os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        return _unwritable(path, exc)
    return EXIT_OK


def _unwritable(path: str, exc: OSError) -> int:
    print(f"ringflow: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_USAGE


_INDENT = "  "
# by exact type: a payload holds plain containers and the report's columns
_CONTAINERS = frozenset((dict, list, tuple, TermRecords, Outcomes))


def _flat_encoder(depth: int):
    """C-backed ``encode`` for flat containers at ``depth``: its item
    separator carries the newline and the indent of depth + 1."""
    return json.JSONEncoder(
        sort_keys=True,
        allow_nan=False,
        check_circular=False,
        separators=(",\n" + _INDENT * (depth + 1), ": "),
    ).encode


def _texts(strings) -> np.ndarray:
    # an object array that holds the strings themselves, filled from an iterable
    return np.fromiter(strings, dtype=object)


def _float_texts(values: np.ndarray, encode) -> np.ndarray:
    """``float.__repr__`` of each value, as an object array.

    The repr runs once per distinct bit pattern, so -0.0 and 0.0 stay
    apart.  NaN or infinity raises ``encode``'s own error first.
    """
    finite = np.isfinite(values)
    if not finite.all():
        encode(values[~finite][0].item())  # refuses it, as for any other value
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    return _texts(map(float.__repr__, bits.view(np.float64).tolist()))[inverse]


def _rows_text(open_: str, parts: list, columns: list, close: str, depth: int) -> str:
    """A container with one row per line, as json.dumps lays it out.

    Row i is ``parts[0] + columns[0][i] + parts[1] + ... + parts[-1]``: one
    template per row, filled by interleaving its fixed parts with the column
    texts in an object grid that is joined once, so no row string is made.
    A column is an object array of texts or one text for every row.
    """
    if not len(columns[0]):
        return open_ + close
    newline = "\n" + _INDENT * (depth + 1)
    grid = np.empty((len(columns[0]), 2 * len(columns) + 1), dtype=object)
    grid[:, 0] = "," + newline + parts[0]
    grid[0, 0] = open_ + newline + parts[0]
    for k, column in enumerate(columns):
        grid[:, 2 * k + 1] = column
        grid[:, 2 * k + 2] = parts[k + 1]
    return "".join(grid.ravel().tolist()) + "\n" + _INDENT * depth + close


def _terms_text(records: TermRecords, depth: int, encode) -> str:
    """The term list from the term columns, each distinct float formatted
    once."""
    order = records.order
    words = map(records.words.__getitem__, order.tolist())
    std = records.std_error
    # setting -1 picks the appended "null"
    names = _texts([*map(encode_basestring_ascii, records.bases), "null"])
    columns = {
        "word": _texts(map(encode_basestring_ascii, words)),
        "coeff": _float_texts(records.coeffs[order], encode),
        "setting": names[records.setting_index[order]],
        "expectation": _float_texts(records.expectation[order], encode),
        "std_error": "null" if std is None else _float_texts(std[order], encode),
    }
    keys = sorted(columns)
    inner = "\n" + _INDENT * (depth + 2)
    parts = [f"{inner}{json.dumps(key)}: " for key in keys]
    parts = ["{" + parts[0], *("," + part for part in parts[1:])]
    parts.append("\n" + _INDENT * (depth + 1) + "}")
    return _rows_text("[", parts, [columns[key] for key in keys], "]", depth)


def _outcomes_text(outcomes: Outcomes, depth: int, encode) -> str:
    """An outcome map as ``"key": value`` rows in ascending key order, from
    its index and value columns."""
    data = outcomes.data
    if isinstance(data, tuple):
        texts = _texts(map(int.__repr__, data))
    else:
        texts = _float_texts(data, encode)
    # the keys are bitstrings: nothing in them needs escaping
    return _rows_text("{", ['"', '": ', ""], [_texts(outcomes), texts], "}", depth)


def _render(value, depth: int, out: list, encoders: list) -> None:
    # encoders[d] serves depth d; recursion reaches each depth from the one above
    if depth == len(encoders):
        encoders.append(_flat_encoder(depth))
    encode = encoders[depth]
    if type(value) is TermRecords:
        out.append(_terms_text(value, depth, encode))
        return
    if type(value) is Outcomes:
        out.append(_outcomes_text(value, depth, encode))
        return
    if isinstance(value, dict):
        children = value.values()
    elif isinstance(value, (list, tuple)):
        children = value
    else:
        children = ()
    if _CONTAINERS.isdisjoint(map(type, children)):
        text = encode(value)
        if children:  # open and close a non-empty container on lines of their own
            out += (text[0], "\n", _INDENT * (depth + 1), text[1:-1])
            out += ("\n", _INDENT * depth, text[-1])
        else:
            out.append(text)
        return
    newline = "\n" + _INDENT * (depth + 1)
    if isinstance(value, dict):
        out.append("{")
        for i, (key, child) in enumerate(sorted(value.items())):
            # '"key": ' cut from the encoding of {key: null}, so that the key
            # is converted and escaped as json does it
            out.append(("," if i else "") + newline + encode({key: None})[1:-5])
            _render(child, depth + 1, out, encoders)
        out.append("\n" + _INDENT * depth + "}")
    else:
        out.append("[")
        for i, child in enumerate(value):
            out.append(("," if i else "") + newline)
            _render(child, depth + 1, out, encoders)
        out.append("\n" + _INDENT * depth + "]")


def _json_text(payload) -> str:
    out: list = []
    try:
        _render(payload, 0, out, [])
    except ValueError as exc:
        raise _NonFiniteReport(f"cannot write the report as JSON: {exc}") from None
    out.append("\n")
    return "".join(out)


def _sum_text(op_sum: WeightedPauliSum, fmt: str, dense) -> str:
    if fmt == "json":
        payload = op_sum.to_dict()
        if dense is not None:
            payload["dense"] = dense.tolist()
        return _json_text(payload)
    if fmt == "csv":
        lines = ["word,coeff", f"{'I' * op_sum.n_qubits},{op_sum.identity_weight:g}"]
        lines += [f"{w},{c:g}" for w, c in zip(op_sum.words, op_sum.coeffs)]
        return "\n".join(lines) + "\n"
    parts = [f"{op_sum.identity_weight:g}"]
    parts += [f"{c:+g}*{w}" for w, c in zip(op_sum.words, op_sum.coeffs)]
    text = " ".join(parts) + "\n"
    if dense is not None:
        text += "\n".join(" ".join(str(v) for v in row) for row in dense.tolist()) + "\n"
    return text


_SUMMARY = ("j_estimate", "j_std_error", "j_exact", "j_closed_form", "relative_error")


def _report_text(report: ExperimentReport, fmt: str) -> str:
    if fmt == "json":
        return _json_text(report.to_dict(columns=True))
    if fmt == "csv":
        lines = ["record,word,coeff,setting,expectation,std_error"]
        for r in report.term_records:
            std = "" if r.std_error is None else repr(r.std_error)
            setting = "" if r.setting is None else r.setting
            lines.append(f"term,{r.word},{r.coeff:g},{setting},{r.expectation!r},{std}")
        for name in _SUMMARY:
            value = getattr(report, name)
            lines.append(f"summary,{name},,,{'' if value is None else repr(value)},")
        return "\n".join(lines) + "\n"
    head = f"n={report.n_qubits} mode={report.mode} theta0={report.theta0:g}"
    if report.mode == "shots":
        head += (
            f" shots/setting={report.shots_per_setting} seed={report.seed}"
            f" grouped={report.grouped} readout_flip={report.readout_flip:g}"
        )
    lines = [head]
    if report.term_records:
        width = max(4, report.n_qubits)
        lines.append(
            f"{'word':<{width}}  {'coeff':>6}  {'setting':<{width}}  "
            f"{'expectation':>12}  {'std_error':>10}"
        )
        for r in report.term_records:
            std = "" if r.std_error is None else f"{r.std_error:10.6f}"
            setting = "-" if r.setting is None else r.setting
            lines.append(
                f"{r.word:<{width}}  {r.coeff:>+6g}  {setting:<{width}}  "
                f"{r.expectation:>12.8f}  {std:>10}"
            )
    for name in _SUMMARY:
        value = getattr(report, name)
        if value is not None:
            lines.append(f"{name:<15} = {value:.9g}")
    return "\n".join(lines) + "\n"


def _range_rows(lo: int, hi: int) -> list[dict]:
    rows = []
    for n in range(lo, hi + 1):
        rows.append(
            {
                "n": n,
                "j_exact": exact_current(backflow_coefficients(n).a, 0.0),
                "j_closed_form": closed_form_current(n),
            }
        )
    return rows


def _range_text(rows: list[dict], fmt: str) -> str:
    if fmt == "json":
        return _json_text(rows)
    if fmt == "csv":
        lines = ["n,j_exact,j_closed_form"]
        lines += [f"{r['n']},{r['j_exact']!r},{r['j_closed_form']!r}" for r in rows]
        return "\n".join(lines) + "\n"
    lines = [f"{'n':>3}  {'j_exact':>16}  {'j_closed_form':>16}"]
    lines += [
        f"{r['n']:>3}  {r['j_exact']:>16.9f}  {r['j_closed_form']:>16.9f}"
        for r in rows
    ]
    return "\n".join(lines) + "\n"


def _cmd_decompose(args, parser) -> int:
    if args.n is None or args.n < 1:
        parser.error("--n must be a positive integer")
    if args.dense and args.n > 8:
        parser.error("--dense is limited to n <= 8")
    try:
        op_sum = current_decomposition(args.n)
        dense = dense_current_matrix(args.n) if args.dense else None
    except (ValueError, MemoryError) as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return _emit(_sum_text(op_sum, args.format, dense), args.output)


def _cmd_current(args, parser) -> int:
    if (args.n is None) == (args.n_range is None):
        parser.error("exactly one of --n or --range is required")
    if not math.isfinite(args.theta0):
        parser.error(f"--theta0 must be finite, got {args.theta0!r}")
    if args.mode == "exact":
        for flag, name in ((args.shots, "--shots"), (args.seed, "--seed")):
            if flag is not None:
                parser.error(f"{name} requires --mode shots")
        if args.readout_flip != 0.0:
            parser.error("--readout-flip requires --mode shots")
    else:
        if args.theta0 != 0.0:
            parser.error("--theta0 applies to --mode exact only")
        if not 0.0 <= args.readout_flip < 0.5:
            parser.error("--readout-flip must lie in [0, 0.5)")
    if args.n_range is not None:
        if args.mode != "exact" or args.theta0 != 0.0:
            parser.error("--range supports exact mode at theta0=0 only")
        lo, sep, hi = args.n_range.partition("..")
        try:
            lo_n, hi_n = int(lo), int(hi)
        except ValueError:
            lo_n, hi_n = 0, -1
        if not sep or lo_n < 1 or hi_n < lo_n:
            parser.error("--range must look like A..B with 1 <= A <= B")
        try:
            rows = _range_rows(lo_n, hi_n)
        except (ValueError, MemoryError) as exc:
            print(f"ringflow: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        return _emit(_range_text(rows, args.format), args.output)
    if args.n < 1:
        parser.error("--n must be a positive integer")
    if args.shots is not None:
        shots, shots_source = args.shots, "--shots"
    else:
        shots, shots_source = _env_int("RINGFLOW_SHOTS", parser), "RINGFLOW_SHOTS"
    if shots is not None and shots < 1:
        parser.error(f"{shots_source} must be a positive integer, got {shots}")
    if shots is not None and shots > MAX_SHOTS:
        parser.error(f"{shots_source} must be at most {MAX_SHOTS}, got {shots}")
    if args.seed is not None:
        seed, seed_source = args.seed, "--seed"
    else:
        seed, seed_source = _env_int("RINGFLOW_SEED", parser), "RINGFLOW_SEED"
    if seed is not None and seed < 0:
        parser.error(f"{seed_source} must be a non-negative integer, got {seed}")
    try:
        if args.mode == "exact":
            report = run_exact(args.n, theta0=args.theta0, grouped=args.grouped)
        else:
            report = run_simulation(
                args.n,
                shots_per_setting=shots if shots is not None else DEFAULT_SHOTS,
                seed=seed,
                grouped=args.grouped,
                readout_flip=args.readout_flip,
            )
    except (ValueError, NormDriftError, RuntimeError, MemoryError) as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return _emit(_report_text(report, args.format), args.output)


def _cmd_analyze(args, parser) -> int:
    if args.n is not None and args.n < 1:
        parser.error("--n must be a positive integer")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = json.load(handle)
        report = ingest_measurements(args.n, data)
        # rendering needs only the report: free the parsed input first, which
        # keeps it out of the peak memory of writing a large report
        del data
    except RegisterTooLargeError as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print(f"ringflow: cannot read {args.input}: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        print(f"ringflow: malformed measured data: {exc}", file=sys.stderr)
        return EXIT_DATA
    return _emit(_report_text(report, args.format), args.output)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks choices on given flags only, not on the default
    if args.format not in _FORMATS:
        parser.error(
            f"RINGFLOW_FORMAT must be one of {', '.join(_FORMATS)}, got {args.format!r}"
        )
    try:
        if args.command == "decompose":
            return _cmd_decompose(args, parser)
        if args.command == "current":
            return _cmd_current(args, parser)
        return _cmd_analyze(args, parser)
    except _NonFiniteReport as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE


if __name__ == "__main__":
    sys.exit(main())
