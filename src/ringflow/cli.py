"""Command-line front end.

Three commands: ``decompose`` prints the current operator's word expansion,
``current`` evaluates J exactly or by shot-based simulation (or sweeps a
range of qubit counts into a plot-ready table), and ``analyze`` recombines
externally measured outcome data.  Only the report is written to standard
output; diagnostics go to standard error, so output can be piped.

Exit codes: 2 for bad flags, malformed RINGFLOW_* values, or an
``--output`` FILE or standard output that cannot be written (a closed pipe
included), 3 for computation failures (memory exhaustion in every command,
registers above ``MAX_QUBITS`` and a report that cannot be written as
strict JSON included), 4 for unreadable or malformed input data.  Each
command returns its output's chunks or raises; ``main`` alone turns a
failure into exit code 3 or 4 and one ``ringflow: ...`` line on standard
error, and alone writes the output.
Environment variables RINGFLOW_SHOTS, RINGFLOW_SEED and RINGFLOW_FORMAT
override the built-in defaults.

Every launch (the ``ringflow`` console script, ``python -m ringflow`` and
``python -m ringflow.cli``) enters at ``run``, which calls ``gc.freeze()``
and exits with ``main()``'s code.  By then the package and numpy are
imported, and the freeze moves their 22 k objects into the permanent
generation, which neither the run's collections nor those of interpreter
shutdown traverse.  That cuts a launch's exit from about 21 ms to 6 ms
(``os._exit`` takes 2 ms); flushes, ``atexit`` handlers and warnings still
run.  ``main(argv)`` is the in-process API and never freezes.

csv reports write each run parameter of the table header as a
``param,<name>,,,<value>,`` line before the ``summary`` lines, named and
written as in the JSON report.

``analyze`` reads its input with ``experiment.read_measurements``, which
decodes only the top-level values that ingest reads and checks every other
one (a report's term list, most of its bytes) as JSON without building it.
Text that ``json.loads`` refuses, nesting past the recursion limit
included, exits 4 with ``json.loads``' own message, line and column.

JSON reports have the layout of ``json.dumps(report, indent=2,
sort_keys=True)`` plus a newline.  With ``indent`` set, ``json.dumps``
encodes in pure Python, one generator step per value; ``_render``
instead recurses only through containers that hold containers, and hands
each flat container (no list, tuple or dict inside) to the C encoder in
one call, its item separator carrying the newline and indent.  Scalars,
key order, escapes and the refusal of NaN and infinity thus come from the
same C code that ``json.dumps`` uses.

Every bulky part of the output is written by one row writer,
``_row_blocks``, from columns: a report's term list and outcome maps
(``TermRecords`` and ``Outcomes``, which ``to_dict(columns=True)`` leaves
in place), the term list of ``decompose`` (a ``WeightedPauliSum``) and
the term lines of csv and table.  A block of rows is an object grid of
pieces, each one text for every row or one text per row, joined once, so
no row string is made; words over IXYZ and bitstring keys need no
escapes.  The texts come from tables that every block of one render
shares (``_Tables``): a float's text once per bit pattern and format, so
-0.0 and 0.0 stay apart, and an outcome key head once per basis index and
map shape (93 k floats and 65 536 heads, about 13 MB, for the 16-qubit
exact JSON report).  JSON's float text is ``float.__repr__``, as the C
encoder writes it; a csv or table weight is ``g`` text if that reads
back as the same float, else ``repr`` (2^20 - 1 has seven digits).

Writing goes in two passes.  The first encodes every flat container and
checks every JSON column with ``np.isfinite``, so a report holding NaN
or infinity is refused before anything is written.  The second writes
the pieces in order and the rows ``_BLOCK_ROWS`` at a time, so at most
one block's text exists at once.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import json
import math
import os
import sys
from itertools import chain, groupby, islice
from json.encoder import encode_basestring_ascii

import numpy as np

from . import __version__
from .engine import MAX_SHOTS
from .experiment import (
    DEFAULT_SHOTS,
    ExperimentReport,
    Outcomes,
    TermRecords,
    backflow_coefficients,
    closed_form_current,
    exact_current,
    ingest_measurements,
    read_measurements,
    run_exact,
    run_simulation,
)
from .pauli import (
    MAX_QUBITS,
    RegisterTooLargeError,
    WeightedPauliSum,
    check_register,
    current_decomposition,
    dense_current_matrix,
    spell_masks,
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
  2  invalid flags or flag combinations, or an unwritable --output FILE or stdout
  3  computation failed
  4  input data missing or malformed
"""


class _NonFiniteReport(ValueError):
    """A report holds NaN or infinity, which strict JSON cannot carry."""


class _BadInput(Exception):
    """Measured data that cannot be read or is malformed; its text says which."""


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
        help="ring angle at which J is evaluated, a phase on the prepared state",
    )
    add_io(p_cur)

    p_ana = sub.add_parser(
        "analyze", help="recombine measured outcome data into a current estimate"
    )
    p_ana.add_argument("--input", required=True, metavar="FILE", help="measured-data JSON")
    p_ana.add_argument("--n", type=int, help="expected qubit count")
    add_io(p_ana)

    return parser


def _emit(chunks, path: str | None) -> int:
    """Write the text chunks.  Standard output or a FILE that cannot be
    written exits 2, as argparse's ``FileType`` does for a FILE, and a failed
    write removes the regular file it left."""
    if path in (None, "-"):
        try:
            sys.stdout.writelines(chunks)
            sys.stdout.flush()
        except OSError as exc:
            _to_devnull(sys.stdout)
            return _unwritable("<stdout>", exc)
        return EXIT_OK
    try:
        handle = open(path, "w", encoding="utf-8")
    except OSError as exc:
        return _unwritable(path, exc)
    try:
        with handle:
            handle.writelines(chunks)
    except OSError as exc:
        if os.path.isfile(path):
            with contextlib.suppress(OSError):
                os.remove(path)
        return _unwritable(path, exc)
    return EXIT_OK


def _unwritable(path: str, exc: OSError) -> int:
    try:
        print(f"ringflow: cannot write {path}: {exc}", file=sys.stderr)
    except OSError:
        # stderr is the closed pipe that stdout was (``2>&1 | head``): the
        # diagnostic is lost, and the exit code alone tells
        _to_devnull(sys.stderr)
    return EXIT_USAGE


def _to_devnull(stream) -> None:
    """Point a failed standard stream at devnull, as the signal module's docs
    advise for a closed pipe: Python flushes stdout and stderr again at
    exit, and a second failure there would make the exit code 120."""
    with contextlib.suppress(OSError, ValueError):
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())


_INDENT = "  "
#: Rows made into text and written at a time, and the most plain pieces in one chunk
_BLOCK_ROWS = 1 << 13


def _texts(strings) -> np.ndarray:
    # an object array that holds the strings themselves, filled from an iterable
    return np.fromiter(strings, dtype=object)


def _format_floats(bits: np.ndarray, spec) -> list:
    """The text of each float64, given as its int64 bit pattern, by ``spec``:
    a callable, a ``g`` format (by ``_g_text``) or another format string."""
    values = bits.view(np.float64).tolist()
    if callable(spec):
        return list(map(spec, values))
    if spec.endswith("g}"):
        return [_g_text(value, spec) for value in values]
    return list(map(spec.format, values))


def _g_text(value: float, spec: str = "{:g}") -> str:
    """``value`` by ``spec``, a ``g`` format of six digits, or in full where
    that text reads back as another float: ``repr``, signed and padded."""
    text = spec.format(value)
    return text if float(text) == value else (spec[:-2] + "}").format(value)


@functools.cache
def _encoder(depth: int):
    """C-backed ``encode`` for flat containers at ``depth``: its item
    separator carries the newline and the indent of depth + 1."""
    return json.JSONEncoder(
        sort_keys=True,
        allow_nan=False,
        check_circular=False,
        separators=(",\n" + _INDENT * (depth + 1), ": "),
    ).encode


class _Tables:
    """The texts that every block of one render shares, each made when first
    needed and dropped with the render's chunks.

    ``floats[spec]`` maps an int64 bit pattern to its text by ``spec``, so
    -0.0 and 0.0 stay apart; ``heads[(n_qubits, depth)]`` is the key head
    ``,\\n<indent>"<bits>": `` of each basis index, 2^n_qubits long, with
    a flag per index that tells whether it has been made.
    """

    __slots__ = ("floats", "heads")

    def __init__(self):
        self.floats: dict = {}
        self.heads: dict = {}

    def float_texts(self, values: np.ndarray, spec=float.__repr__) -> np.ndarray:
        """The text of each value by ``spec`` (JSON's by default), as an object
        array; only bit patterns new to the render's ``spec`` are made."""
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        keys = bits.tolist()
        table = self.floats.setdefault(spec, {})
        new = [key for key in keys if key not in table]
        if new:
            table.update(zip(new, _format_floats(np.array(new, dtype=np.int64), spec)))
        return _texts(map(table.__getitem__, keys))[inverse]

    def key_heads(self, n_qubits: int, index: np.ndarray, depth: int) -> np.ndarray:
        """The key head of each basis index of a map at ``depth``, as an
        object array; only heads new to the render's map shape are made."""
        shape = (n_qubits, depth)
        if shape not in self.heads:
            size = 1 << n_qubits
            self.heads[shape] = np.empty(size, dtype=object), np.zeros(size, dtype=bool)
        heads, made = self.heads[shape]
        new = index[~made[index]]
        if new.size:
            # the keys are bitstrings, spelled as ``Outcomes`` spells them:
            # nothing in them needs escaping
            lead = ",\n" + _INDENT * (depth + 1) + '"'
            keys = spell_masks((new,), n_qubits, "1", "0")
            heads[new] = _texts(f'{lead}{key}": ' for key in keys)
            made[new] = True
        return heads[index]


def _refuse_non_finite(values: np.ndarray) -> None:
    """Raise the JSON encoder's own error for the first NaN or infinity in ``values``."""
    bad = ~np.isfinite(values)
    if bad.any():
        _encoder(0)(values[bad][0].item())


def _row_blocks(row_pieces, rows: int):
    """Yield the text of ``rows`` rows, ``_BLOCK_ROWS`` rows at a time, from
    ``row_pieces(start, stop)``: the pieces of those rows, each one text for
    every row or an object array of one text per row.  A block's pieces are
    interleaved in an object grid that is joined once."""
    for start in range(0, rows, _BLOCK_ROWS):
        stop = min(start + _BLOCK_ROWS, rows)
        columns: list = []
        for piece in row_pieces(start, stop):
            if type(piece) is str and columns and type(columns[-1]) is str:
                columns[-1] += piece
            else:
                columns.append(piece)
        grid = np.empty((stop - start, len(columns)), dtype=object)
        for k, column in enumerate(columns):
            grid[:, k] = column
        yield "".join(grid.ravel().tolist())


def _json_rows(open_: str, row_pieces, rows: int, close: str, depth: int):
    """Yield a container with one row per line, as json.dumps lays it out:
    each row starts with a ",", which the first row swaps for ``open_``."""
    if not rows:
        yield open_ + close
        return
    blocks = _row_blocks(row_pieces, rows)
    yield open_ + next(blocks)[1:]
    yield from blocks
    yield "\n" + _INDENT * depth + close


def _object_list(fields, rows: int, depth: int):
    """Yield a list of objects, one per row, as json.dumps lays it out.
    ``fields(start, stop)`` gives the keys of rows start to stop - 1 in
    sorted order, none needing escapes, each with its value's pieces."""
    inner = ",\n" + _INDENT * (depth + 2)
    lead = ",\n" + _INDENT * (depth + 1) + "{" + inner[1:]

    def row_pieces(start, stop):
        pieces: list = []
        for key, value in fields(start, stop):
            pieces += (f'{inner if pieces else lead}"{key}": ', *value)
        return [*pieces, "\n" + _INDENT * (depth + 1) + "}"]

    return _json_rows("[", row_pieces, rows, "]", depth)


def _terms_blocks(records: TermRecords, depth: int, tables: _Tables):
    """The term list from the term columns, each checked here in full; its
    text is made a block at a time as it is read."""
    std = records.std_error
    for column in (records.coeffs, records.expectation, std):
        if column is not None:
            _refuse_non_finite(column)
    # setting -1 picks the appended "null"
    names = _texts([*map(encode_basestring_ascii, records.bases), "null"])

    def fields(start, stop):
        rows = slice(start, stop)
        return [
            ("coeff", [tables.float_texts(records.coeffs[rows])]),
            ("expectation", [tables.float_texts(records.expectation[rows])]),
            ("setting", [names[records.setting_index[rows]]]),
            ("std_error", ["null" if std is None else tables.float_texts(std[rows])]),
            ("word", ['"', _texts(records.words[rows]), '"']),
        ]

    return _object_list(fields, len(records), depth)


def _sum_terms_blocks(op_sum: WeightedPauliSum, depth: int, tables: _Tables):
    """A sum's term list, as ``WeightedPauliSum.to_dict`` holds it, from its
    finite coefficients and its words, made a block at a time as read."""
    words, coeffs = op_sum.iter_words(), op_sum.coeff_array

    def fields(start, stop):  # asked for the blocks in order
        return [
            ("coeff", [tables.float_texts(coeffs[start:stop])]),
            ("word", ['"', _texts(islice(words, stop - start)), '"']),
        ]

    return _object_list(fields, len(coeffs), depth)


def _outcomes_blocks(outcomes: Outcomes, depth: int, tables: _Tables):
    """An outcome map as ``"key": value`` rows in ascending key order, from
    its index and value columns, checked here in full; its text is made a
    block at a time as it is read."""
    n_qubits, index, data = outcomes.n_qubits, outcomes.index, outcomes.data
    counts = isinstance(data, tuple)
    if not counts:
        _refuse_non_finite(data)

    def row_pieces(start, stop):
        heads = tables.key_heads(n_qubits, index[start:stop], depth)
        if counts:
            return [heads, _texts(map(int.__repr__, data[start:stop]))]
        return [heads, tables.float_texts(data[start:stop])]

    return _json_rows("{", row_pieces, len(index), "}", depth)


# by exact type: the writers of column containers, and every container a payload holds
_WRITERS = {
    TermRecords: _terms_blocks, Outcomes: _outcomes_blocks, WeightedPauliSum: _sum_terms_blocks
}
_CONTAINERS = frozenset((dict, list, tuple, *_WRITERS))


def _render(value, depth: int, out: list, tables: _Tables) -> None:
    if type(value) in _WRITERS:
        out.append(_WRITERS[type(value)](value, depth, tables))
        return
    encode = _encoder(depth)
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
    if isinstance(value, dict):
        # '"key": ' cut from the encoding of {key: null}, so that the key
        # is converted and escaped as json does it
        items = [(encode({key: None})[1:-5], child) for key, child in sorted(value.items())]
        brackets = "{}"
    else:
        items, brackets = [("", child) for child in value], "[]"
    out.append(brackets[0])
    for i, (key, child) in enumerate(items):
        out.append(("," if i else "") + "\n" + _INDENT * (depth + 1) + key)
        _render(child, depth + 1, out, tables)
    out.append("\n" + _INDENT * depth + brackets[1])


def _json_chunks(payload):
    """The JSON text of ``payload`` as an iterator of chunks.  Every column
    is checked before this returns, so NaN or infinity raises
    ``_NonFiniteReport`` before any text is read."""
    out: list = []
    try:
        _render(payload, 0, out, _Tables())
    except ValueError as exc:
        raise _NonFiniteReport(f"cannot write the report as JSON: {exc}") from None
    out.append("\n")
    return _chunks(out)


def _chunks(pieces: list):
    # plain pieces joined by the row writer as rows of one piece, row blocks as they come
    for plain, group in groupby(pieces, lambda piece: type(piece) is str):
        if plain:
            texts = _texts(group)
            yield from _row_blocks(lambda start, stop: [texts[start:stop]], len(texts))
        else:
            yield from chain.from_iterable(group)


def _sum_chunks(op_sum: WeightedPauliSum, fmt: str, dense):
    if fmt == "json":
        # the sum stands for its term list, written from its columns
        payload = {"n": op_sum.n_qubits, "lambda0": op_sum.identity_weight, "terms": op_sum}
        if dense is not None:
            payload["dense"] = dense.tolist()
        return _json_chunks(payload)
    tables = _Tables()
    words, coeffs = op_sum.iter_words(), op_sum.coeff_array
    identity = tables.float_texts(np.array([op_sum.identity_weight]), "{:g}")[0]
    if fmt == "csv":  # a header, then one line per word
        first, spec = f"word,coeff\n{'I' * op_sum.n_qubits},{identity}", "{:g}"
    else:  # one line of words, then the rows of any dense matrix
        first, spec = identity, "{:+g}"

    def row_pieces(start, stop):  # asked for the blocks in order
        block_words = _texts(islice(words, stop - start))
        weights = tables.float_texts(coeffs[start:stop], spec)
        if fmt == "csv":
            return ["\n", block_words, ",", weights]
        return [" ", weights, "*", block_words]

    rows = () if dense is None else dense.tolist()
    last = "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return chain((first,), _row_blocks(row_pieces, len(coeffs)), (last,))


_SUMMARY = ("j_estimate", "j_std_error", "j_exact", "j_closed_form", "relative_error")
_TABLE_NAMES = {"shots_per_setting": "shots/setting"}


def _report_chunks(report: ExperimentReport, fmt: str):
    """The report's text in ``fmt``; csv and table lines are made from the
    term columns, read and written ``_BLOCK_ROWS`` terms at a time."""
    if fmt == "json":
        return _json_chunks(report.to_dict(columns=True))
    records, tables = report.term_records, _Tables()
    summary = [(name, getattr(report, name)) for name in _SUMMARY]
    # the run parameters, by their JSON names
    params = [("n", report.n_qubits), ("mode", report.mode), ("theta0", report.theta0)]
    if report.mode == "shots":
        params += [
            ("shots_per_setting", report.shots_per_setting), ("seed", report.seed),
            ("grouped", report.grouped), ("readout_flip", report.readout_flip),
        ]
    if fmt == "csv":
        first = "record,word,coeff,setting,expectation,std_error\n"
        lead, pad, sep, no_std = "term,", "", ",", ""
        coeff_spec, expectation_spec, std_spec = "{:g}", float.__repr__, float.__repr__
        names = _texts([*records.bases, ""])
        last = "".join(f"param,{name},,,{_encoder(0)(value)},\n" for name, value in params)
        last += "".join(
            f"summary,{name},,,{'' if value is None else repr(value)},\n"
            for name, value in summary
        )
    else:
        # a header line of name=value, the angle and the flip as weights are written
        first = " ".join(
            f"{_TABLE_NAMES.get(name, name)}="
            f"{_g_text(value) if isinstance(value, float) else value}"
            for name, value in params
        )
        width = max(4, report.n_qubits)
        if records:
            first += (
                f"\n{'word':<{width}}  {'coeff':>6}  {'setting':<{width}}  "
                f"{'expectation':>12}  {'std_error':>10}"
            )
        first += "\n"
        # every word is n_qubits letters long, so one text pads them all
        lead, pad, sep, no_std = "", " " * (width - report.n_qubits), "  ", " " * 10
        coeff_spec, expectation_spec, std_spec = "{:>+6g}", "{:>12.8f}", "{:10.6f}"
        names = _texts(f"{name:<{width}}" for name in (*records.bases, "-"))
        last = "".join(
            f"{name:<15} = {value:.9g}\n" for name, value in summary if value is not None
        )
    std = records.std_error

    def row_pieces(start, stop):  # one block's pieces, from its columns
        rows = slice(start, stop)
        # setting -1 picks the appended name of "no setting"
        return [
            lead, _texts(records.words[rows]), pad + sep,
            tables.float_texts(records.coeffs[rows], coeff_spec), sep,
            names[records.setting_index[rows]], sep,
            tables.float_texts(records.expectation[rows], expectation_spec), sep,
            no_std if std is None else tables.float_texts(std[rows], std_spec), "\n",
        ]

    return chain((first,), _row_blocks(row_pieces, len(records)), (last,))


def _range_rows(lo: int, hi: int) -> list[dict]:
    check_register(hi)  # before the first row
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


def _range_chunks(rows: list[dict], fmt: str):
    if fmt == "json":
        return _json_chunks(rows)
    if fmt == "csv":
        lines = ["n,j_exact,j_closed_form"]
        lines += [f"{r['n']},{r['j_exact']!r},{r['j_closed_form']!r}" for r in rows]
        return ("\n".join(lines) + "\n",)
    lines = [f"{'n':>3}  {'j_exact':>16}  {'j_closed_form':>16}"]
    lines += [
        f"{r['n']:>3}  {r['j_exact']:>16.9f}  {r['j_closed_form']:>16.9f}"
        for r in rows
    ]
    return ("\n".join(lines) + "\n",)


def _cmd_decompose(args, parser):
    if args.n is None or args.n < 1:
        parser.error("--n must be a positive integer")
    if args.dense and args.n > 8:
        parser.error("--dense is limited to n <= 8")
    if args.dense and args.format == "csv":
        parser.error("--dense needs --format json or table")
    op_sum = current_decomposition(args.n)
    dense = dense_current_matrix(args.n) if args.dense else None
    return _sum_chunks(op_sum, args.format, dense)


def _cmd_current(args, parser):
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
    elif not 0.0 <= args.readout_flip < 0.5:
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
        return _range_chunks(_range_rows(lo_n, hi_n), args.format)
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
    if args.mode == "exact":
        report = run_exact(args.n, theta0=args.theta0, grouped=args.grouped)
    else:
        report = run_simulation(
            args.n,
            shots_per_setting=shots if shots is not None else DEFAULT_SHOTS,
            seed=seed,
            grouped=args.grouped,
            readout_flip=args.readout_flip,
            theta0=args.theta0,
        )
    return _report_chunks(report, args.format)


def _cmd_analyze(args, parser):
    if args.n is not None and args.n < 1:
        parser.error("--n must be a positive integer")
    try:
        with open(args.input, "r", encoding="utf-8") as handle:
            data = read_measurements(handle.read())
        report = ingest_measurements(args.n, data)
        # rendering needs only the report: free the parsed input first, which
        # keeps it out of the peak memory of writing a large report
        del data
    except RegisterTooLargeError:
        raise
    except (OSError, json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise _BadInput(f"cannot read {args.input}: {exc}")
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise _BadInput(f"malformed measured data: {exc}")
    return _report_chunks(report, args.format)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # argparse checks choices on given flags only, not on the default
    if args.format not in _FORMATS:
        parser.error(
            f"RINGFLOW_FORMAT must be one of {', '.join(_FORMATS)}, got {args.format!r}"
        )
    command = {"decompose": _cmd_decompose, "current": _cmd_current, "analyze": _cmd_analyze}
    try:
        chunks = command[args.command](args, parser)
    except (_BadInput, ValueError, RuntimeError, MemoryError) as exc:
        # a MemoryError raised by the interpreter has no text
        text = "out of memory" if isinstance(exc, MemoryError) and not str(exc) else exc
        print(f"ringflow: {text}", file=sys.stderr)
        return EXIT_DATA if isinstance(exc, _BadInput) else EXIT_COMPUTE
    return _emit(chunks, args.output)


def run() -> None:
    """The process entry of every launch path: freeze the start-up heap, then
    exit with ``main()``'s code.  ``main`` itself never freezes."""
    gc.freeze()
    sys.exit(main())


if __name__ == "__main__":
    run()
