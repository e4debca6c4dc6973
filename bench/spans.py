"""Span recording around ringflow's layer boundaries, from outside the program.

``Tracer.installed()`` replaces the functions that ``ringflow.experiment``
and ``ringflow.cli`` import from ``pauli``, ``circuits`` and ``engine``, and
the ``experiment`` entry points as ``cli`` calls them, with wrappers that
record one span per call: name, start, end, parent span and operation id.
The ``scale16`` operation calls ``pauli`` and ``engine`` directly, so their
module attributes are wrapped too.  Nothing under ``src/`` changes, and the
originals are restored on exit.  Spans stay in memory; ``dump`` writes them
out when the run ends.

A layer's self time is the duration of its spans minus the durations of
their direct children, so the self times of all layers plus that of the
root ``op`` span add up to the operation's time.  The root's self time is
the part no traced call covers, such as freeing the operation's objects.
Counts are taken from arguments and results at the same boundaries, after
the span's end time is read.
"""
from __future__ import annotations

import functools
import json
import time
from collections import defaultdict
from contextlib import contextmanager

import ringflow.cli as rf_cli
import ringflow.engine as rf_engine
import ringflow.experiment as rf_experiment
import ringflow.pauli as rf_pauli

ROOT_SPAN = "op"

#: Span name -> per-layer self-time metric.
SELF_TIME_METRICS = {
    "pauli.decompose": "pauli.decompose_s",
    "pauli.index_masks": "pauli.index_masks_s",
    "circuits.synth": "circuits.synth_s",
    "circuits.basis": "circuits.basis_s",
    "circuits.group": "circuits.group_s",
    "engine.load": "engine.load_s",
    "engine.rotate": "engine.rotate_s",
    "engine.sample": "engine.sample_s",
    "engine.probabilities": "engine.probabilities_s",
    "engine.expectation": "engine.expectation_s",
    "experiment": "experiment.self_s",
    "experiment.exact_current": "experiment.exact_current_s",
    "cli": "cli.self_s",
    ROOT_SPAN: "trace.unattributed_s",
}

COUNT_METRICS = (
    "pauli.words",
    "circuits.settings",
    "engine.gates",
    "engine.amplitudes",
    "engine.bytes_computed",
    "experiment.parity_evals",
)


def _dim(state) -> int:
    return 1 << state.n_qubits


# engine.bytes_computed is computed, not measured: the bytes of the
# full-array passes each call makes, from array sizes (complex128 state
# 16 B, float64/int64 vectors 8 B, clongdouble 32 B, longdouble 16 B per
# entry).  Caches and temporaries are ignored.
def _load_bytes(args, kwargs, result):
    return 32 * _dim(result)  # write the state, read it for the norm check


def _rotate_bytes(args, kwargs, result):
    d = _dim(result)
    # copy, one read+write pass per gate, norm check
    return 32 * d * (len(_gates(args[1])) + 1) + 16 * d


def _probabilities_bytes(args, kwargs, result):
    return 24 * _dim(args[0])  # read the state, write float64 probabilities


def _sample_bytes(args, kwargs, result):
    state = args[0]
    d = _dim(state)
    flip = kwargs.get("readout_flip", args[3] if len(args) > 3 else 0.0)
    # probabilities, renormalise, multinomial; the flip channel makes a
    # binomial and a gather pass per qubit over int64 counts
    return 56 * d + (32 * d * state.n_qubits if flip > 0.0 else 0)


def _expectation_bytes(args, kwargs, result):
    state = args[0]
    d, n = _dim(state), state.n_qubits
    # grouped path: widen to clongdouble once; per setting (n + 1 of them) a
    # copy, up to n rotation passes, the probabilities and n Walsh passes
    return 48 * d + (n + 1) * (112 * d + 96 * d * n)


def _gates(circuit):
    return getattr(circuit, "gates", circuit)


def _engine(bytes_of):
    def count(counts, args, kwargs, result, parent_name):
        state = result if isinstance(result, rf_engine.Statevector) else args[0]
        counts["engine.amplitudes"] += _dim(state)
        counts["engine.bytes_computed"] += bytes_of(args, kwargs, result)
        if bytes_of is _rotate_bytes:
            counts["engine.gates"] += len(_gates(args[1]))
    return count


def _words(counts, args, kwargs, result, parent_name):
    counts["pauli.words"] += len(result.terms)


def _settings(counts, args, kwargs, result, parent_name):
    counts["circuits.settings"] += len(result)


def _parity_evals(counts, args, kwargs, result, parent_name):
    # run_exact returns run_simulation's report: count it once, at the outer span
    if parent_name == "experiment" or not hasattr(result, "setting_records"):
        return
    counts["experiment.parity_evals"] += sum(
        len(s.terms) * len(s.probabilities) for s in result.setting_records
    )


def _boundaries():
    """(module, attribute, span name, counter) for every traced call site."""
    ex, cli = rf_experiment, rf_cli
    return (
        (ex, "current_decomposition", "pauli.decompose", _words),
        (ex, "index_masks", "pauli.index_masks", None),
        (ex, "prepare_backflow_circuit", "circuits.synth", None),
        (ex, "backflow_prep_angles", "circuits.synth", None),
        (ex, "measurement_circuit", "circuits.basis", None),
        (ex, "group_terms", "circuits.group", _settings),
        (ex, "init_amplitudes", "engine.load", _engine(_load_bytes)),
        (ex, "init_basis", "engine.load", _engine(_load_bytes)),
        (ex, "apply_circuit", "engine.rotate", _engine(_rotate_bytes)),
        (ex, "sample", "engine.sample", _engine(_sample_bytes)),
        (ex, "z_probabilities", "engine.probabilities", _engine(_probabilities_bytes)),
        (ex, "exact_current", "experiment.exact_current", None),
        (ex, "run_simulation", "experiment", _parity_evals),
        (cli, "current_decomposition", "pauli.decompose", _words),
        (cli, "dense_current_matrix", "pauli.decompose", None),
        (cli, "exact_current", "experiment.exact_current", None),
        (cli, "run_exact", "experiment", _parity_evals),
        (cli, "run_simulation", "experiment", _parity_evals),
        (cli, "ingest_measurements", "experiment", _parity_evals),
        (cli, "main", "cli", None),
        (rf_pauli, "current_decomposition", "pauli.decompose", _words),
        (rf_engine, "init_amplitudes", "engine.load", _engine(_load_bytes)),
        (rf_engine, "expectation_pauli", "engine.expectation", _engine(_expectation_bytes)),
    )


class Tracer:
    """In-memory span store plus the counters of the current operation."""

    def __init__(self):
        # finished spans are (name, start, end, parent index, op id); an open
        # span holds its name until it ends
        self.spans: list = []
        self._stack: list[int] = []
        self._counts: dict[str, float] = defaultdict(float)
        self._op_id = -1
        self._op_first = 0

    def wrap(self, name, fn, count=None):
        spans, stack, counts = self.spans, self._stack, self._counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else None
            spans.append(name)
            stack.append(index)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[index] = (name, start, end, parent, self._op_id)
            if count is not None:
                count(counts, args, kwargs, result, None if parent is None else spans[parent])
            return result

        return traced

    @contextmanager
    def operation(self, op_id: int):
        """Open the root span of one benchmark operation."""
        self._op_id = op_id
        self._counts.clear()
        self._op_first = index = len(self.spans)
        self.spans.append(ROOT_SPAN)
        self._stack.append(index)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[index] = (ROOT_SPAN, start, end, None, op_id)

    def op_summary(self) -> dict[str, float]:
        """Per-layer self times and counts of the operation that just ended."""
        first = self._op_first
        spans = self.spans[first:]
        child_time: dict[int, float] = defaultdict(float)
        for _, start, end, parent, _ in spans:
            if parent is not None:
                child_time[parent] += end - start
        out = {metric: 0.0 for metric in SELF_TIME_METRICS.values()}
        for offset, (name, start, end, _, _) in enumerate(spans):
            out[SELF_TIME_METRICS[name]] += (end - start) - child_time[first + offset]
        for metric in COUNT_METRICS:
            out[metric] = float(self._counts.get(metric, 0.0))
        out["op_s"] = spans[0][2] - spans[0][1]
        out["spans"] = float(len(spans))
        return out

    def dump(self, path) -> None:
        """Write every span as one JSON line."""
        with open(path, "w", encoding="utf-8") as handle:
            for index, (name, start, end, parent, op_id) in enumerate(self.spans):
                record = {"id": index, "name": name, "start": start, "end": end,
                          "parent": parent, "op": op_id}
                handle.write(json.dumps(record) + "\n")

    @contextmanager
    def installed(self):
        """Swap traced wrappers into ringflow's namespaces; restore on exit."""
        saved = []
        try:
            for module, attr, name, count in _boundaries():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self.wrap(name, original, count))
            yield
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)
