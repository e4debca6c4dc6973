"""Command-line front end.

Three commands: ``decompose`` prints the current operator's word expansion,
``current`` evaluates J exactly or by shot-based simulation (or sweeps a
range of qubit counts into a plot-ready table), and ``analyze`` recombines
externally measured outcome data.  Only the report is written to standard
output; diagnostics go to standard error, so output can be piped.

Exit codes: 2 for bad flags, malformed RINGFLOW_* values, or an
``--output`` FILE or standard output that cannot be written (a closed pipe
included), 3 for computation failures (including registers above
``MAX_QUBITS`` and a report that cannot be written as strict JSON), 4 for
unreadable or malformed input data.
Environment variables RINGFLOW_SHOTS, RINGFLOW_SEED and RINGFLOW_FORMAT
override the built-in defaults.

JSON reports have the layout of ``json.dumps(report, indent=2,
sort_keys=True)`` plus a newline.  With ``indent`` set, ``json.dumps``
encodes in pure Python, one generator step per value; ``_render``
instead recurses only through containers that hold containers, and hands
each flat container (no list, tuple or dict inside) to the C encoder in
one call, its item separator carrying the newline and indent.  Scalars,
key order, escapes and the refusal of NaN and infinity thus come from the
same C code that ``json.dumps`` uses.

The two bulky parts of a report are written from the report's own
columns, which ``ExperimentReport.to_dict(columns=True)`` leaves in
place: ``_render`` writes a ``TermRecords`` as the term list, from
slices of its columns, and an ``Outcomes`` as ``"key": value`` rows in
ascending key order.  So is the term list of ``decompose``: ``_render``
writes a ``WeightedPauliSum`` as the ``terms`` of its ``to_dict``, from
its word and coefficient columns.
Every row follows one template, whose fixed parts are interleaved with
the column texts in an object grid and joined, so no row string is
made; the word quotes and a column that is one text for every row (the
``std_error`` nulls of an exact report) join the fixed parts.  Term words
are expansion words over IXYZ and keys are bitstrings, so neither is
escaped.  The texts come from tables that one render fills as it needs
them and every block of that render shares (``_Tables``): float text is
``float.__repr__``, which is what the C encoder writes, made once per
distinct bit pattern in the render (``np.unique`` over a block's int64
view, so -0.0 and 0.0 stay apart), and an outcome row's key head, newline
and indent included, once per basis index and map shape.  The tables hold
one text per distinct float of the report and at most 2^N heads per shape
(93 k floats and 65 536 heads, about 13 MB, for the 16-qubit exact
report); nothing is built at import, and they go with the render's chunks.

Writing goes in two passes.  The first encodes every flat container and
checks every column with ``np.isfinite``, so a report holding NaN or
infinity is refused before anything is written.  The second writes the
pieces in order, the term list and outcome maps ``_BLOCK_ROWS`` rows at a
time, so at most one block's text exists at once.  csv and table text
is written ``_BLOCK_ROWS`` words or terms at a time too, each line
formatted from that block's columns, which are read only when it is
written.
"""
from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
from itertools import chain, groupby, islice
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
            # Python flushes stdout again at exit: point it at devnull, as
            # the signal module's docs advise for a closed pipe, so that no
            # second error follows
            with contextlib.suppress(OSError, ValueError):
                fileno = sys.stdout.fileno()
                os.dup2(os.open(os.devnull, os.O_WRONLY), fileno)
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
    print(f"ringflow: cannot write {path}: {exc}", file=sys.stderr)
    return EXIT_USAGE


_INDENT = "  "
#: Rows of a term list or an outcome map made into text and written at a
#: time, and the most plain pieces written in one chunk
_BLOCK_ROWS = 1 << 13
# by exact type: a payload holds plain containers and the report's columns
_CONTAINERS = frozenset((dict, list, tuple, TermRecords, Outcomes, WeightedPauliSum))


def _texts(strings) -> np.ndarray:
    # an object array that holds the strings themselves, filled from an iterable
    return np.fromiter(strings, dtype=object)


def _float_reprs(bits: np.ndarray) -> map:
    """``float.__repr__`` of each float64 given as its int64 bit pattern."""
    return map(float.__repr__, bits.view(np.float64).tolist())


class _Tables:
    """The texts that every block of one render shares, each made when first
    needed and dropped with the render's chunks.

    ``encoders[depth]`` encodes flat containers at ``depth``; ``floats``
    maps an int64 bit pattern to its float text, so -0.0 and 0.0 stay
    apart; ``heads[(n_qubits, depth)]`` is the key head
    ``,\\n<indent>"<bits>": `` of each basis index, 2^n_qubits long, with a
    flag per index that tells whether it has been made.
    """

    __slots__ = ("encoders", "floats", "heads")

    def __init__(self):
        self.encoders: list = []
        self.floats: dict = {}
        self.heads: dict = {}

    def encoder(self, depth: int):
        """C-backed ``encode`` for flat containers at ``depth``: its item
        separator carries the newline and the indent of depth + 1."""
        # recursion reaches each depth from the one above
        if depth == len(self.encoders):
            self.encoders.append(
                json.JSONEncoder(
                    sort_keys=True,
                    allow_nan=False,
                    check_circular=False,
                    separators=(",\n" + _INDENT * (depth + 1), ": "),
                ).encode
            )
        return self.encoders[depth]

    def float_texts(self, values: np.ndarray) -> np.ndarray:
        """The text of each finite value, as an object array; only bit
        patterns that no earlier block of the render had are made."""
        bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
        keys = bits.tolist()
        table = self.floats
        new = [key for key in keys if key not in table]
        if new:
            table.update(zip(new, _float_reprs(np.array(new, dtype=np.int64))))
        return _texts(map(table.__getitem__, keys))[inverse]

    def key_heads(self, n_qubits: int, index: np.ndarray, depth: int) -> np.ndarray:
        """The key head of each basis index of a map at ``depth``, as an
        object array; only heads that no earlier map of this shape had are
        made."""
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


def _refuse_non_finite(values: np.ndarray, encode) -> None:
    """Raise ``encode``'s own error for the first NaN or infinity in ``values``."""
    bad = ~np.isfinite(values)
    if bad.any():
        encode(values[bad][0].item())


def _row_blocks(open_: str, row_pieces, rows: int, close: str, depth: int):
    """Yield a container with one row per line, as json.dumps lays it out,
    ``_BLOCK_ROWS`` rows at a time.

    ``row_pieces(start, stop)`` gives the pieces of rows start to stop - 1,
    in order: each one text for every row or an object array of one text
    per row.  A row starts with the "," that follows the row before it,
    which the first row swaps for ``open_``.  A block's pieces, runs of
    shared texts joined into one, are interleaved in an object grid that
    is joined once, so no row string is made.
    """
    if not rows:
        yield open_ + close
        return
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
        if not start:
            grid[0, 0] = open_ + grid[0, 0][1:]
        yield "".join(grid.ravel().tolist())
    yield "\n" + _INDENT * depth + close


def _object_parts(keys, depth: int) -> list:
    """The fixed parts of a list item that is an object with ``keys`` (in
    sorted order, none needing escapes): the text before each value, then
    the text after the last."""
    inner = ",\n" + _INDENT * (depth + 2)
    parts = [f'{inner}"{key}": ' for key in keys]
    parts[0] = ",\n" + _INDENT * (depth + 1) + "{" + parts[0][1:]
    parts.append("\n" + _INDENT * (depth + 1) + "}")
    return parts


def _terms_blocks(records: TermRecords, depth: int, tables: _Tables):
    """The term list from the term columns, each checked here in full; its
    text is made a block at a time as it is read."""
    std = records.std_error
    for column in (records.coeffs, records.expectation, std):
        if column is not None:
            _refuse_non_finite(column, tables.encoder(depth))
    # setting -1 picks the appended "null"
    names = _texts([*map(encode_basestring_ascii, records.bases), "null"])
    coeff, expectation, setting, std_error, word, end = _object_parts(
        ("coeff", "expectation", "setting", "std_error", "word"), depth
    )

    def row_pieces(start, stop):
        rows = slice(start, stop)
        # the words are expansion words over IXYZ: they need no escaping
        return [
            coeff, tables.float_texts(records.coeffs[rows]),
            expectation, tables.float_texts(records.expectation[rows]),
            setting, names[records.setting_index[rows]],
            std_error, "null" if std is None else tables.float_texts(std[rows]),
            word + '"', _texts(records.words[rows]),
            '"' + end,
        ]

    return _row_blocks("[", row_pieces, len(records), "]", depth)


def _sum_terms_blocks(op_sum: WeightedPauliSum, depth: int, tables: _Tables):
    """A sum's term list, as ``WeightedPauliSum.to_dict`` holds it, from its
    coefficient and word columns (a sum's coefficients are finite, its
    words over IXYZ); its text is made a block at a time as it is read."""
    words, coeffs = op_sum.iter_words(), op_sum.coeff_array
    coeff, word, end = _object_parts(("coeff", "word"), depth)

    def row_pieces(start, stop):  # asked for the blocks in order
        return [
            coeff, tables.float_texts(coeffs[start:stop]),
            word + '"', _texts(islice(words, stop - start)),
            '"' + end,
        ]

    return _row_blocks("[", row_pieces, len(coeffs), "]", depth)


def _outcomes_blocks(outcomes: Outcomes, depth: int, tables: _Tables):
    """An outcome map as ``"key": value`` rows in ascending key order, from
    its index and value columns, checked here in full; its text is made a
    block at a time as it is read."""
    n_qubits, index, data = outcomes.n_qubits, outcomes.index, outcomes.data
    counts = isinstance(data, tuple)
    if not counts:
        _refuse_non_finite(data, tables.encoder(depth))

    def row_pieces(start, stop):
        heads = tables.key_heads(n_qubits, index[start:stop], depth)
        if counts:
            return [heads, _texts(map(int.__repr__, data[start:stop]))]
        return [heads, tables.float_texts(data[start:stop])]

    return _row_blocks("{", row_pieces, len(index), "}", depth)


def _render(value, depth: int, out: list, tables: _Tables) -> None:
    if type(value) is TermRecords:
        out.append(_terms_blocks(value, depth, tables))
        return
    if type(value) is Outcomes:
        out.append(_outcomes_blocks(value, depth, tables))
        return
    if type(value) is WeightedPauliSum:
        out.append(_sum_terms_blocks(value, depth, tables))
        return
    encode = tables.encoder(depth)
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
            _render(child, depth + 1, out, tables)
        out.append("\n" + _INDENT * depth + "}")
    else:
        out.append("[")
        for i, child in enumerate(value):
            out.append(("," if i else "") + newline)
            _render(child, depth + 1, out, tables)
        out.append("\n" + _INDENT * depth + "]")


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
    # plain pieces joined _BLOCK_ROWS at a time, row blocks as they come
    for plain, group in groupby(pieces, lambda piece: type(piece) is str):
        if not plain:
            yield from chain.from_iterable(group)
            continue
        group = list(group)
        for start in range(0, len(group), _BLOCK_ROWS):
            yield "".join(group[start : start + _BLOCK_ROWS])


def _sum_chunks(op_sum: WeightedPauliSum, fmt: str, dense):
    if fmt == "json":
        # the sum stands for its term list, written from its columns
        payload = {"n": op_sum.n_qubits, "lambda0": op_sum.identity_weight, "terms": op_sum}
        if dense is not None:
            payload["dense"] = dense.tolist()
        return _json_chunks(payload)
    identity = f"{op_sum.identity_weight:g}"
    if fmt == "csv":  # a header, then one line per word
        first, line = f"word,coeff\n{'I' * op_sum.n_qubits},{identity}", "\n{},{:g}"
    else:  # one line of words, then the rows of any dense matrix
        first, line = identity, " {1:+g}*{0}"
    lines = map(line.format, op_sum.iter_words(), op_sum.coeff_array)
    # the lines joined _BLOCK_ROWS at a time, as they are read
    blocks = iter(lambda: "".join(islice(lines, _BLOCK_ROWS)), "")
    rows = () if dense is None else dense.tolist()
    last = "\n" + "".join(" ".join(map(str, row)) + "\n" for row in rows)
    return chain((first,), blocks, (last,))


_SUMMARY = ("j_estimate", "j_std_error", "j_exact", "j_closed_form", "relative_error")


def _report_chunks(report: ExperimentReport, fmt: str):
    """The report's text in ``fmt``; csv and table text is made from the
    term columns, read and written ``_BLOCK_ROWS`` terms at a time."""
    if fmt == "json":
        return _json_chunks(report.to_dict(columns=True))
    records = report.term_records
    summary = [(name, getattr(report, name)) for name in _SUMMARY]
    if fmt == "csv":
        first = "record,word,coeff,setting,expectation,std_error\n"
        line, no_setting, std_text = "term,{},{:g},{},{!r},{}\n".format, "", repr
        last = "".join(
            f"summary,{name},,,{'' if value is None else repr(value)},\n"
            for name, value in summary
        )
    else:
        first = f"n={report.n_qubits} mode={report.mode} theta0={report.theta0:g}"
        if report.mode == "shots":
            first += (
                f" shots/setting={report.shots_per_setting} seed={report.seed}"
                f" grouped={report.grouped} readout_flip={report.readout_flip:g}"
            )
        width = max(4, report.n_qubits)
        if records:
            first += (
                f"\n{'word':<{width}}  {'coeff':>6}  {'setting':<{width}}  "
                f"{'expectation':>12}  {'std_error':>10}"
            )
        first += "\n"
        line = f"{{:<{width}}}  {{:>+6g}}  {{:<{width}}}  {{:>12.8f}}  {{:>10}}\n".format
        no_setting, std_text = "-", "{:10.6f}".format
        last = "".join(
            f"{name:<15} = {value:.9g}\n" for name, value in summary if value is not None
        )

    def block(start):  # the lines of one block, from that block's columns
        words, coeffs, settings, expectations, stds = records.columns(
            start, start + _BLOCK_ROWS
        )
        settings = (no_setting if setting is None else setting for setting in settings)
        stds = ("" if std is None else std_text(std) for std in stds)
        return "".join(map(line, words, coeffs, settings, expectations, stds))

    return chain((first,), map(block, range(0, len(records), _BLOCK_ROWS)), (last,))


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


def _cmd_decompose(args, parser) -> int:
    if args.n is None or args.n < 1:
        parser.error("--n must be a positive integer")
    if args.dense and args.n > 8:
        parser.error("--dense is limited to n <= 8")
    if args.dense and args.format == "csv":
        parser.error("--dense needs --format json or table")
    try:
        op_sum = current_decomposition(args.n)
        dense = dense_current_matrix(args.n) if args.dense else None
    except (ValueError, MemoryError) as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return _emit(_sum_chunks(op_sum, args.format, dense), args.output)


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
        try:
            rows = _range_rows(lo_n, hi_n)
        except (ValueError, MemoryError) as exc:
            print(f"ringflow: {exc}", file=sys.stderr)
            return EXIT_COMPUTE
        return _emit(_range_chunks(rows, args.format), args.output)
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
                theta0=args.theta0,
            )
    except (ValueError, NormDriftError, RuntimeError, MemoryError) as exc:
        print(f"ringflow: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    return _emit(_report_chunks(report, args.format), args.output)


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
    return _emit(_report_chunks(report, args.format), args.output)


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
