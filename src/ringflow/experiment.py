"""Backflowing states and probability-current evaluation.

The current J at ring angle theta0 is evaluated four ways: exactly from
the momentum coefficients (phase-weighted double sum), from the closed
form for the built-in backflowing family (at theta0 = 0), by shot-based
simulation of the measurement circuits, and by recombining externally
measured outcome data.  The word expansion is that of theta0 = 0 at every
angle: J(theta0; c) = J(0; c e^(i m theta0)), so a nonzero angle is the
phase e^(i m theta0) on prepared amplitude m, one phase gate per qubit.

Each setting's outcomes (exact probabilities, counts / shots, or supplied
data) become one row of a float64 outcome table, and one loop,
``_expectations``, fills that table a bounded block of settings at a time,
transforms each block in place with ``parity_expectations`` and reads each
word at its setting's row.  Setting records keep their outcomes as columns
(``Outcomes``), from the sampler or the bulk input parser to the JSON
writer; bitstring keys are made only when a map is read.  The estimators
read the expansion's masks and coefficient array, and its words only for
the report.

A simulation reads everything that N and the grouping fix from the
register's layout (``_Layout``): the expansion's columns and parity
masks in record order (setting by setting), the setting plan's Z masks
(``pauli.setting_plan``, or one setting per word) with their basis words
and word tuples, the prepared state, the exact current and,
when the plan's whole table fits one block, the exact outcome rows: the
state rotated into every setting with ``engine.rotated_settings`` and its
parts squared into a settings x 2^N table, norm-checked once.  The layout
at theta0 = 0 is built once and kept for N up to ``LAYOUT_CACHE_QUBITS``.

All estimators assemble J as (identity_weight + sum coeff * <V>) / 4pi
from their own term columns (``TermRecords``), kept in the order they
are written, and every report round-trips: feeding ``report.to_dict()``
back into ``ingest_measurements`` reproduces the same estimate.
"""
from __future__ import annotations

import heapq
import json
import math
import numbers
from bisect import bisect_left
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, compress, islice, repeat
from operator import lt, truediv

import numpy as np

from .circuits import (
    MeasurementSetting,
    backflow_prep_angles,
    prepare_backflow_circuit,
)
from .engine import (
    NORM_TOL,
    Distribution,
    NormDriftError,
    Statevector,
    _ArrayRecord,
    _register_array,
    apply_circuit,
    check_flip,
    check_shots,
    init_amplitudes,
    init_basis,
    l2_norm,
    parity_expectations,
    readout_channel,
    rotated_settings,
    sample,
)
from .pauli import (
    check_qubits,
    check_register,
    current_decomposition,
    setting_groups,
    setting_plan,
    spell_masks,
    word_masks,
)

# unused here, but bench/spans.py times experiment.index_masks,
# experiment.group_terms, experiment.measurement_circuit and
# experiment.z_probabilities as layers
from .circuits import group_terms, measurement_circuit  # noqa: F401
from .engine import z_probabilities  # noqa: F401
from .pauli import index_masks  # noqa: F401

FOUR_PI = 4.0 * math.pi

#: Shots per measurement setting used when nothing else is requested.
DEFAULT_SHOTS = 8000

_RNG_NAME = "numpy-default_rng-PCG64"


@dataclass(frozen=True, slots=True, eq=False)
class BackflowCoefficients(_ArrayRecord):
    """Real momentum coefficients a_m, one per basis index, of unit norm
    (off 1 by at most 1e-9, as ``exact_current`` reads them): the built-in
    backflowing family's, or a state of one's own."""

    n_qubits: int
    a: np.ndarray

    def __post_init__(self):
        a = _register_array(self.a, self.n_qubits, np.float64, "coefficients")
        _check_normalized(a)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True, slots=True)
class TermRecord:
    """One estimated word expectation; ``setting`` is None for supplied values."""

    word: str
    coeff: float
    setting: str | None
    expectation: float
    std_error: float | None


def _term_dict(word, coeff, setting, expectation, std_error) -> dict:
    return {
        "word": word,
        "coeff": coeff,
        "setting": setting,
        "expectation": expectation,
        "std_error": std_error,
    }


class TermRecords(Sequence):
    """Read-only sequence of ``TermRecord``s over a report's term columns.

    The columns run in record order, which for a simulation is setting by
    setting: ``words`` (a tuple of the words), ``coeffs``,
    ``setting_index`` (each term's index into ``bases``, the setting basis
    words, or -1 for a value supplied without a setting), and the float64
    arrays ``expectation`` and ``std_error`` (None when no term has one).
    As with ``PauliTerms``, nothing is built up front: a ``TermRecord`` is
    made only for the item read, a slice gives a tuple of them, and code
    that needs every term reads the columns.
    """

    __slots__ = ("words", "coeffs", "setting_index", "bases", "expectation", "std_error")

    def __init__(self, words, coeffs, setting_index, bases, expectation, std_error=None):
        self.words = words
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.setting_index = np.asarray(setting_index, dtype=np.int64)
        self.bases = tuple(bases)
        self.expectation = expectation
        self.std_error = std_error

    def __len__(self):
        return len(self.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(self.__getitem__, range(len(self))[index]))
        return TermRecord(
            self.words[index],
            self.coeffs[index].item(),
            (*self.bases, None)[self.setting_index[index]],
            self.expectation[index].item(),
            None if self.std_error is None else self.std_error[index].item(),
        )

    def columns(self) -> tuple:
        """The five ``TermRecord`` fields as iterables of Python values."""
        # (*bases, None)[-1] is None, so setting -1 reads as "no setting"
        names = (*self.bases, None)
        std = self.std_error
        return (
            self.words,
            self.coeffs.tolist(),
            map(names.__getitem__, self.setting_index.tolist()),
            self.expectation.tolist(),
            repeat(None) if std is None else std.tolist(),
        )

    def __iter__(self):
        return map(TermRecord, *self.columns())

    def __eq__(self, other):
        if not isinstance(other, (tuple, TermRecords)):
            return NotImplemented
        return tuple(self) == tuple(other)

    __hash__ = None


@dataclass(frozen=True, slots=True, eq=False)
class Outcomes(Mapping):
    """Read-only map from bitstring to outcome value, held as two columns:
    ``index``, the basis indices (int64, ascending), and ``data``, float64
    probabilities or counts as a tuple of Python ints (which may exceed
    int64).  Keys (leftmost letter the most significant bit) are spelled a
    block at a time, only when the map is read."""

    n_qubits: int
    index: np.ndarray
    data: np.ndarray | tuple

    def __len__(self):
        return len(self.index)

    def __iter__(self):
        return spell_masks((self.index,), self.n_qubits, "1", "0")

    def __getitem__(self, key):
        if isinstance(key, str) and len(key) == self.n_qubits and set(key) <= {"0", "1"}:
            i = int(key, 2)
            at = int(np.searchsorted(self.index, i))
            if at < len(self.index) and self.index[at] == i:
                value = self.data[at]
                return value if isinstance(self.data, tuple) else float(value)
        raise KeyError(key)

    def items(self):
        """The (key, value) pairs in ascending key order, as a dict's view."""
        data = self.data
        if not isinstance(data, tuple):
            data = data.tolist()
        return dict(zip(self, data)).items()


@dataclass(frozen=True, slots=True)
class SettingRecord:
    """Outcome data of one measurement setting; its two maps share one ``index``."""

    basis_word: str
    probabilities: Outcomes
    counts: Outcomes | None
    seed_entropy: list[int] | None
    terms: tuple[str, ...]

    def to_dict(self, columns: bool = False) -> dict:
        """The record as plain data; with ``columns`` the outcome maps stay
        ``Outcomes``, for the JSON writer."""
        d: dict = {
            "basis_word": self.basis_word,
            "probabilities": _outcome_data(self.probabilities, columns),
            "terms": list(self.terms),
        }
        if self.counts is not None:
            d["counts"] = _outcome_data(self.counts, columns)
        if self.seed_entropy is not None:
            d["seed_entropy"] = list(self.seed_entropy)
        return d


@dataclass(frozen=True, slots=True, kw_only=True)
class ExperimentReport:
    """Full record of one current evaluation.

    ``j_estimate`` always equals
    (identity_weight + sum of coeff * expectation over term_records) / 4pi.
    The terms are held as columns, in ``term_records``.  ``j_exact`` is J
    at ``theta0``; the closed form is J at theta0 = 0, so at a nonzero
    angle ``j_closed_form`` and ``relative_error`` are None.  The defaults
    are those of a report without sampling.
    """

    n_qubits: int
    mode: str
    shots_per_setting: int | None = None
    seed: int | None = None
    grouped: bool | None = None
    readout_flip: float = 0.0
    rng: str | None = None
    theta0: float = 0.0
    identity_weight: float
    term_records: TermRecords
    setting_records: tuple[SettingRecord, ...]
    prep: dict | None = None
    j_estimate: float
    j_std_error: float | None
    j_exact: float
    j_closed_form: float | None
    relative_error: float | None

    def to_dict(self, columns: bool = False) -> dict:
        """The report as plain data; with ``columns`` the terms and outcome maps
        stay the report's own columns, for the JSON writer."""
        terms = self.term_records
        return {
            "n": self.n_qubits,
            "mode": self.mode,
            "shots_per_setting": self.shots_per_setting,
            "seed": self.seed,
            "grouped": self.grouped,
            "readout_flip": self.readout_flip,
            "rng": self.rng,
            "theta0": self.theta0,
            "identity_weight": self.identity_weight,
            "terms": terms if columns else list(map(_term_dict, *terms.columns())),
            "settings": [s.to_dict(columns) for s in self.setting_records],
            "prep": self.prep,
            "j_estimate": self.j_estimate,
            "j_std_error": self.j_std_error,
            "j_exact": self.j_exact,
            "j_closed_form": self.j_closed_form,
            "relative_error": self.relative_error,
        }


def _outcome_data(outcomes: Outcomes, columns: bool):
    return outcomes if columns else dict(outcomes.items())


def backflow_coefficients(n_qubits: int) -> BackflowCoefficients:
    """Affine-in-m coefficient family with negative current for every N >= 1."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    check_register(n_qubits)
    dim = 1 << n_qubits
    norm_sq = ((dim << 1) + 1) * (dim - 1) * (dim >> 1)
    m = np.arange(dim, dtype=np.float64)
    a = (3.0 * m - 2.0 * (dim - 1)) / math.sqrt(norm_sq)
    return BackflowCoefficients(n_qubits, a)


def _check_normalized(coeffs: np.ndarray) -> None:
    """Refuse coefficients whose norm is off 1 by more than 1e-9, or NaN."""
    nrm = l2_norm(coeffs)
    if not abs(nrm - 1.0) <= 1e-9:
        raise ValueError(f"coefficients not normalized (norm {nrm!r})")


def exact_current(coeffs, theta0: float = 0.0) -> float:
    """Probability current at ring angle theta0 for momentum coefficients.

    Evaluates (1/2pi) Re[ conj(S0) S1 ] with S0 = sum c_m e^(i m theta0)
    and S1 = sum m c_m e^(i m theta0); at theta0 = 0 this is the familiar
    (1/4pi) sum over conj(c_m) (m + n) c_n.  theta0 is a finite real and
    no ``bool``, as ``analyze`` reads it.
    """
    theta0 = _finite_real(theta0, "theta0")
    c = np.asarray(getattr(coeffs, "a", coeffs), dtype=np.complex128)
    if c.ndim != 1 or c.size < 2 or c.size & (c.size - 1):
        raise ValueError("coefficient array length must be 2^N with N >= 1")
    _check_normalized(c)
    # extended precision: the sums cancel heavily for large registers
    b = c.astype(np.clongdouble)
    m = np.arange(c.size, dtype=np.longdouble)
    if theta0 != 0.0:
        b = b * _ring_phases(theta0, c.size)
    s0 = b.sum()
    s1 = (m * b).sum()
    return float((np.conj(s0) * s1).real / (2.0 * np.longdouble(math.pi)))


def _ring_phases(theta0: float, size: int) -> np.ndarray:
    """e^(i m theta0) for m = 0 ... size - 1, in extended precision, where
    m theta0 stays finite for every finite theta0."""
    return np.exp(1j * np.clongdouble(theta0) * np.arange(size, dtype=np.longdouble))


def closed_form_current(n_qubits: int) -> float:
    """Current of the built-in backflowing family; strictly negative."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n_qubits
    return -(dim * (dim - 1)) / ((dim << 1) + 1) / FOUR_PI


def relative_error(j_obs: float, j_theory: float) -> float:
    """|j_obs - j_theory| / |j_theory|."""
    if j_theory == 0.0:
        raise ZeroDivisionError("relative error needs a nonzero reference")
    return abs(j_obs - j_theory) / abs(j_theory)


def _prepared_state(coeffs: BackflowCoefficients, theta0: float = 0.0):
    """The state of ``coeffs`` and how it was prepared, by rotations for one
    or two qubits and by loading amplitudes otherwise; a nonzero theta0
    multiplies amplitude m by e^(i m theta0)."""
    n_qubits = coeffs.n_qubits
    if n_qubits <= 2:
        circ = prepare_backflow_circuit(coeffs)
        state = apply_circuit(init_basis(n_qubits, 0), circ)
        prep = {
            "method": "rotation-synthesis",
            "angles": backflow_prep_angles(coeffs),
            "rotation_rule": "RY(t)=[[cos t/2,-sin t/2],[sin t/2,cos t/2]]; "
            "controlled form applies RY(angle) to the target when the control is 1",
        }
    else:
        state = init_amplitudes(n_qubits, coeffs.a)
        prep = {"method": "amplitude-load"}
    if theta0 != 0.0:
        phases = _ring_phases(theta0, 1 << n_qubits).astype(np.complex128)
        state = Statevector(n_qubits, state.amplitudes * phases)
    return state, prep


def _finish_report(
    mode, identity_weight, term_records, setting_records, n_qubits, j_exact,
    theta0=0.0, **fields
) -> ExperimentReport:
    """The report of an ``n_qubits`` register at ring angle ``theta0``, whose
    state has the exact current ``j_exact`` there; ``fields`` are those that
    differ from the ``ExperimentReport`` defaults."""
    coeffs = term_records.coeffs
    weighted = identity_weight + math.fsum(
        (coeffs * term_records.expectation).tolist()
    )
    j_estimate = weighted / FOUR_PI
    if len(term_records) and term_records.std_error is not None:
        # Python's ** is libm pow, which differs from numpy's x * x in the
        # last bit for about one value in a thousand
        squares = [x**2 for x in (coeffs * term_records.std_error).tolist()]
        j_std = math.sqrt(math.fsum(squares)) / FOUR_PI
    else:
        j_std = None
    j_closed = error = None
    if theta0 == 0.0:  # the closed form is J at theta0 = 0 only
        j_closed = closed_form_current(n_qubits)
        error = relative_error(j_estimate, j_closed)
    return ExperimentReport(
        **fields,
        n_qubits=n_qubits,
        mode=mode,
        theta0=theta0,
        identity_weight=identity_weight,
        term_records=term_records,
        setting_records=tuple(setting_records),
        j_estimate=j_estimate,
        j_std_error=j_std,
        j_exact=j_exact,
        j_closed_form=j_closed,
        relative_error=error,
    )


def _read_only(array: np.ndarray) -> np.ndarray:
    array.flags.writeable = False
    return array


@dataclass(frozen=True, slots=True, eq=False)
class _Layout:
    """What a simulation of one register needs that depends on N and the
    grouping alone, shared read-only by every report made from it.

    The plan is two columns, the settings' Z masks and each word's setting
    index, the same for both plans: ``pauli.setting_plan``'s, or per term
    each word's Z mask 2^N - 1 ^ X mask and the setting index k of word k.
    One stable sort of the setting column (``pauli.setting_groups``) puts
    the expansion's columns in record order, setting by setting
    (``words``, ``coeffs`` float64, each word's parity mask and
    ``term_setting``, its setting's index, both intp as they index the
    outcome table), and per setting, in plan order, there is its Z mask,
    its basis word (one ``spell_masks`` call spells them all) and its
    words, a slice of ``words``.  ``amplitudes`` is the state of the
    family's coefficients, built once per layout, at the ring angle,
    ``prep`` how it was prepared (copied into each report) and ``j_exact``
    its exact current there.
    ``outcomes`` is the plan's settings x 2^N float64 table of exact outcome
    probabilities (``_outcome_rows``), one row per setting in plan order,
    when it fits one block of _BLOCK_ENTRIES entries; a larger plan has
    None, and each run makes its rows block by block.
    """

    words: tuple[str, ...]
    coeffs: np.ndarray
    identity_weight: float
    parity_masks: np.ndarray
    zmasks: tuple[int, ...]
    bases: tuple[str, ...]
    setting_terms: tuple[tuple[str, ...], ...]
    term_setting: np.ndarray
    amplitudes: np.ndarray
    prep: dict
    j_exact: float
    outcomes: np.ndarray | None


#: Outcome-table entries filled and transformed at a time (2 MiB of float64):
#: one block holds a grouped plan up to 14 qubits, a per-term plan (about
#: N * 4^N entries in all) up to 7.
_BLOCK_ENTRIES = 1 << 18

#: Registers up to this size keep their layout at theta0 = 0 for the life of
#: the process (28 671 words and about 3.7 MB at 12 qubits); other layouts are
#: built for each run and go with its report.
LAYOUT_CACHE_QUBITS = 12

_LAYOUTS: dict[tuple[int, bool], _Layout] = {}


def _layout(n_qubits: int, grouped: bool, theta0: float = 0.0) -> _Layout:
    """The register's layout at ring angle theta0, from the cache when
    theta0 = 0 and N <= LAYOUT_CACHE_QUBITS."""
    if theta0 != 0.0:
        return _build_layout(n_qubits, grouped, theta0)
    key = (n_qubits, bool(grouped))
    layout = _LAYOUTS.get(key)
    if layout is None:
        layout = _build_layout(n_qubits, grouped)
        if n_qubits <= LAYOUT_CACHE_QUBITS:
            _LAYOUTS[key] = layout
    return layout


def _outcome_rows(
    amplitudes: np.ndarray, n_qubits: int, zmasks, out: np.ndarray
) -> np.ndarray:
    """Fill row k of ``out`` with the exact outcome probabilities of setting
    ``zmasks[k]``: the squared parts of ``amplitudes`` rotated into it.  A
    row whose norm drifted past NORM_TOL (NaN included) fails the fill."""
    for k, parts in rotated_settings(amplitudes, n_qubits, zmasks):
        np.square(parts[0], out=out[k])
        if len(parts) > 1:
            out[k] += np.square(parts[1])
    drift = np.abs(np.sqrt(out.sum(axis=1)) - 1.0)
    if not (drift <= NORM_TOL).all():
        raise NormDriftError(f"norm drifted by {float(drift.max())!r}")
    return out


def _build_layout(n_qubits: int, grouped: bool, theta0: float = 0.0) -> _Layout:
    decomp = current_decomposition(n_qubits)
    coeffs = backflow_coefficients(n_qubits)
    state, prep = _prepared_state(coeffs, theta0)
    # the expansion has no Y, so a word's parity mask is its X and Z letters
    mx, _, mz = decomp.masks
    if grouped:
        zmasks, setting = setting_plan(mz, n_qubits)
    else:
        # one setting per word: X at its X letters, Z everywhere else
        zmasks, setting = (1 << n_qubits) - 1 ^ mx, np.arange(len(mx))
    # the records run setting by setting: the expansion's columns in that order
    order, slices = setting_groups(setting, len(zmasks))
    mx, mz = mx[order], mz[order]
    words = tuple(spell_masks((mx, mz), n_qubits, "XZ", "I"))
    outcomes = None
    if len(zmasks) << n_qubits <= _BLOCK_ENTRIES:
        outcomes = np.empty((len(zmasks), 1 << n_qubits))
        _read_only(_outcome_rows(state.amplitudes, n_qubits, zmasks.tolist(), outcomes))
    return _Layout(
        words=words,
        coeffs=_read_only(decomp.coeff_array[order]),
        identity_weight=decomp.identity_weight,
        parity_masks=_read_only(np.bitwise_or(mx, mz, dtype=np.intp)),
        zmasks=tuple(zmasks.tolist()),
        bases=tuple(spell_masks((zmasks,), n_qubits, "Z", "X")),
        setting_terms=tuple(map(words.__getitem__, slices)),
        term_setting=_read_only(setting[order]),
        amplitudes=_read_only(state.amplitudes),
        prep=prep,
        j_exact=exact_current(coeffs.a, theta0),
        outcomes=outcomes,
    )


def _expectations(n_qubits: int, parity_masks, term_setting, settings: int, fill):
    """Each word's parity average over the outcome row of its setting, made
    in blocks of at most _BLOCK_ENTRIES table entries: ``fill(start, block)``
    writes the rows of settings start, start + 1, ... into ``block``, which
    is transformed in place; then each word whose setting (``term_setting``)
    lies in the block is read at its ``parity_masks`` entry."""
    step = max(1, _BLOCK_ENTRIES >> n_qubits)
    table = np.empty((min(step, settings), 1 << n_qubits))
    expectation = np.empty(len(term_setting))
    for start in range(0, settings, step):
        block = table[: min(step, settings - start)]
        fill(start, block)
        rows = term_setting - start
        words = ((rows >= 0) & (rows < len(block))).nonzero()[0]
        expectation[words] = parity_expectations(block)[rows[words], parity_masks[words]]
    return expectation


def _copy_prep(prep: dict) -> dict:
    # one level down is enough: the angles are the only nested map
    return {key: dict(value) if isinstance(value, dict) else value
            for key, value in prep.items()}


def run_simulation(
    n_qubits: int,
    shots_per_setting: int | None = DEFAULT_SHOTS,
    seed: int | None = None,
    grouped: bool = True,
    readout_flip: float = 0.0,
    theta0: float = 0.0,
) -> ExperimentReport:
    """Estimate the current at ring angle theta0 from the measurement circuits.

    The backflowing state is synthesized from rotations for one or two
    qubits and loaded as amplitudes otherwise; a nonzero theta0 then puts
    the phase e^(i m theta0) on amplitude m.  Each measurement setting
    samples ``shots_per_setting`` outcomes (an ``int``) with its own
    generator, seeded from [seed, setting_index]; ``shots_per_setting=None``
    replaces the samples with the exact outcome probabilities (the
    infinite-shot limit, reported as mode "exact"), which takes no readout
    flip.  ``seed`` is None or a non-negative ``int``, ``grouped`` a
    ``bool`` and theta0 a finite real, none of them a ``bool`` where a
    number is asked for; anything else is refused with ValueError.

    Everything fixed by N, ``grouped`` and theta0 (the expansion, parity
    masks, setting plan, prepared state, exact current and, when the plan's
    table fits one block, the norm-checked exact outcome rows) comes from
    the register's layout, built on the first run and kept for N up to
    LAYOUT_CACHE_QUBITS at theta0 = 0.  The run fills its outcome table with
    ``_expectations``, a block of at most _BLOCK_ENTRIES entries at a time:
    it copies each block's rows from the layout, or makes them as the layout
    does, with ``_outcome_rows``, puts a readout flip on the whole block
    with ``engine.readout_channel`` (the channel ``sample`` applies,
    element-wise, so each row gets the floats it would get alone), draws
    each row's shots with one multinomial (``sample``, from a
    ``Distribution`` not checked again: the rows are norm-checked) and
    builds the setting records; each block is then transformed in place.
    The term columns are the layout's, setting by setting, as the setting
    records list their terms.
    """
    sampling = shots_per_setting is not None
    if sampling:
        check_shots(shots_per_setting, "shots per setting")
        check_flip(readout_flip)
    elif readout_flip != 0.0:
        raise ValueError("a readout flip needs sampling; exact mode has no shots")
    check_qubits(n_qubits)
    check_register(n_qubits)
    if not isinstance(grouped, bool):
        raise ValueError(f"grouped must be a bool, got {grouped!r}")
    if seed is not None and (
        isinstance(seed, bool) or not isinstance(seed, int) or seed < 0
    ):
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    theta0 = _finite_real(theta0, "theta0")
    layout = _layout(n_qubits, grouped, theta0)
    if sampling and seed is None:
        seed = int(np.random.SeedSequence().entropy) % (1 << 32)
    setting_records = []

    def fill(start, block):
        stop = start + len(block)
        if layout.outcomes is None:
            _outcome_rows(layout.amplitudes, n_qubits, layout.zmasks[start:stop], block)
        else:
            np.copyto(block, layout.outcomes[start:stop])
        if readout_flip:
            readout_channel(block, readout_flip)
        for k, outcomes in enumerate(block, start):
            if sampling:
                entropy = [seed, k]
                counts = sample(
                    Distribution._unchecked(n_qubits, outcomes),
                    shots_per_setting,
                    seed=np.random.SeedSequence(entropy),
                )
                np.divide(counts, shots_per_setting, out=outcomes)
            else:
                entropy = None
            nonzero = outcomes.nonzero()[0]
            setting_records.append(
                SettingRecord(
                    layout.bases[k],
                    Outcomes(n_qubits, nonzero, outcomes[nonzero]),
                    Outcomes(n_qubits, nonzero, tuple(counts[nonzero].tolist()))
                    if sampling
                    else None,
                    entropy,
                    layout.setting_terms[k],
                )
            )

    expectation = _expectations(
        n_qubits, layout.parity_masks, layout.term_setting, len(layout.zmasks), fill
    )
    if sampling:
        # the IEEE steps of sqrt(max(0, 1 - v * v) / shots), over the column
        variance = np.maximum(0.0, 1.0 - expectation * expectation) / shots_per_setting
        std_error = np.sqrt(variance)
    else:
        std_error = None
    term_records = TermRecords(
        layout.words,
        layout.coeffs,
        layout.term_setting,
        layout.bases,
        expectation,
        std_error,
    )
    return _finish_report(
        "shots" if sampling else "exact",
        layout.identity_weight,
        term_records,
        setting_records,
        n_qubits,
        layout.j_exact,
        shots_per_setting=shots_per_setting,
        seed=seed if sampling else None,
        grouped=grouped,
        readout_flip=readout_flip,
        rng=_RNG_NAME if sampling else None,
        theta0=theta0,
        prep=_copy_prep(layout.prep),
    )


def run_exact(
    n_qubits: int, theta0: float = 0.0, grouped: bool = True
) -> ExperimentReport:
    """Exact current report at ring angle theta0: the infinite-shot limit."""
    return run_simulation(n_qubits, None, grouped=grouped, theta0=theta0)


_KIND_NAMES = {
    dict: "an object",
    list: "a list",
    str: "a string",
    numbers.Integral: "an integer",
    numbers.Real: "a number",
}


def _check_types(values, kind, what: str) -> None:
    """Refuse input values that are not of ``kind``; true/false are no numbers.

    Each distinct type is checked once, so a long outcome map costs one pass.
    """
    for found in set(map(type, values)):
        if found is bool or not issubclass(found, kind):
            name = _KIND_NAMES[kind]
            raise ValueError(f"{what} must be {name}, got {found.__name__}")


def _counts(values: list, where: str) -> list[int]:
    """``int`` of each count; the first fractional or negative one is refused."""
    floats = list(map(isinstance, values, repeat(float)))
    whole = list(map(float.is_integer, compress(values, floats)))
    fractional = np.zeros(len(values), dtype=bool)
    fractional[np.flatnonzero(floats)] = np.logical_not(whole)
    negative = np.fromiter(map(lt, values, repeat(0)), bool, len(values))
    failed = np.flatnonzero(fractional | negative)
    if failed.size:
        value = values[failed[0]]
        if fractional[failed[0]]:
            raise ValueError(f"{where}: count {value!r} is not a whole number")
        raise ValueError(f"{where}: negative count {int(value)}")
    return list(map(int, values))


def _parse_setting_entry(entry: dict, n_qubits: int, position: int):
    """The setting, its probabilities and counts (or None) as ``Outcomes``,
    and its ``terms`` list or None.  Each map is checked in bulk; the first
    outcome in map order that fails is reported, with the first of its
    faults: a key that is not a bitstring, a non-finite or a negative
    probability."""
    where = f"settings[{position}]"
    _check_types((entry,), dict, where)
    basis = entry.get("basis_word")
    if not isinstance(basis, str) or len(basis) != n_qubits:
        raise ValueError(f"{where}: basis word must have {n_qubits} letters")
    setting = MeasurementSetting(basis)
    kind = "probabilities" if "probabilities" in entry else "counts"
    if kind not in entry:
        raise ValueError(f"{where}: needs probabilities or counts")
    given = entry[kind]
    _check_types((given,), dict, f"{where} {kind}")
    _check_types(given.values(), numbers.Real, f"{where} {kind}")
    keys = list(map(str, given))
    if kind == "counts":
        counts = _counts(list(given.values()), where)
        total = sum(counts)
        if total <= 0:
            raise ValueError(f"{where}: empty counts")
        probs = np.fromiter(map(truediv, counts, repeat(total)), np.float64, len(keys))
    else:
        counts = None
        probs = np.fromiter(map(float, given.values()), np.float64, len(keys))
    bad = np.fromiter(map(len, keys), np.int64, len(keys)) != n_qubits
    fitting = ~bad
    # one byte per letter; a letter outside ASCII reads as "?"
    text = "".join(compress(keys, fitting.tolist())).encode("ascii", "replace")
    letters = np.frombuffer(text, dtype=np.uint8).reshape(-1, n_qubits)
    ones = letters == ord("1")
    bad[fitting] = (~ones & (letters != ord("0"))).any(axis=1)
    finite = np.isfinite(probs)
    failed = np.flatnonzero(bad | ~finite | (probs < 0.0))
    if failed.size:
        k = failed[0]
        if bad[k]:
            raise ValueError(f"{where}: bad outcome {keys[k]!r}")
        if not finite[k]:
            raise ValueError(f"{where}: non-finite probability {probs[k].item()!r}")
        raise ValueError(f"{where}: negative probability")
    if abs(math.fsum(probs.tolist()) - 1.0) > 1e-6:
        raise ValueError(f"{where}: probabilities do not sum to 1")
    terms = entry.get("terms")
    if terms is not None:
        _check_types((terms,), list, f"{where} terms")
        _check_types(terms, str, f"{where} terms")
    # every key has n_qubits letters now, so ``ones`` has a row per key
    index = ones @ (1 << np.arange(n_qubits - 1, -1, -1))
    order = np.argsort(index)
    index = index[order]
    if counts is not None:
        counts = Outcomes(n_qubits, index, tuple(map(counts.__getitem__, order.tolist())))
    return setting, Outcomes(n_qubits, index, probs[order]), counts, terms


def _covered(masks, bx, bz) -> np.ndarray:
    """True where a setting with X and Z masks ``bx`` and ``bz`` covers a
    word: its X letters on X positions, its Z letters on Z positions, no Y."""
    mx, my, mz = masks
    return ((mx & ~bx) | (mz & ~bz) | my) == 0


def _first_cover(masks, basis_masks) -> np.ndarray:
    """Index of the first setting that covers each word, -1 where none does;
    ``masks`` are the words' ``word_masks``, ``basis_masks`` the settings'."""
    bx, _, bz = basis_masks
    owner = np.full(len(masks[0]), -1)
    # last setting first, so that the first covering setting is written last
    for i in range(len(bx) - 1, -1, -1):
        owner[_covered(masks, bx[i], bz[i])] = i
    return owner


def _listed_owner(words, masks, lists, basis_words, basis_masks) -> np.ndarray:
    """Index of the setting whose ``terms`` list names each word, -1 for none.

    ``masks`` are the ``word_masks`` of ``words``, the expansion, and
    ``basis_masks`` those of ``basis_words``.  Read in file order, the first
    listed word that fails is reported, with the first of its faults: not
    an expansion word, listed before, or not covered by its own setting.
    """
    listed = list(chain.from_iterable(lists))
    setting = np.repeat(np.arange(len(lists)), [len(terms) for terms in lists])
    position = dict(zip(words, range(len(words))))
    index = np.fromiter(map(position.get, listed, repeat(-1)), np.int64, len(listed))
    unknown = index < 0
    again = np.ones(len(listed), dtype=bool)
    again[np.unique(index, return_index=True)[1]] = False
    # an unknown word reads the last word's masks, but fails first anyway
    bx, _, bz = basis_masks
    uncovered = ~_covered([mask[index] for mask in masks], bx[setting], bz[setting])
    failed = np.flatnonzero(unknown | again | uncovered)
    if failed.size:
        k = failed[0]
        word = listed[k]
        if unknown[k]:
            raise ValueError(f"{word!r} is not an expansion term")
        if again[k]:
            raise ValueError(f"term {word} assigned twice")
        raise ValueError(f"term {word} not measurable under {basis_words[setting[k]]}")
    owner = np.full(len(words), -1)
    owner[index] = setting
    return owner


def _finite_real(value, what: str) -> float:
    """``value``, a real that is no ``bool``, as a finite float."""
    _check_types((value,), numbers.Real, what)
    try:
        number = float(value)
    except OverflowError:
        raise ValueError(f"{what} is too large for a float") from None
    if not math.isfinite(number):
        raise ValueError(f"{what} must be finite, got {number!r}")
    return number if number else 0.0  # -0.0 reads as 0.0


def _optional_real(data: dict, key: str) -> float:
    """The input's ``key``, a finite real; 0.0 when it has none."""
    return _finite_real(data[key], f"'{key}'") if key in data else 0.0


#: The top-level keys of measured data that ``ingest_measurements`` reads,
#: and so the only ones that ``read_measurements`` decodes.
INPUT_KEYS = frozenset({"n", "settings", "expectations", "theta0", "readout_flip"})

_space = json.decoder.WHITESPACE.match
_decode = json.JSONDecoder().raw_decode
# the C scanner of ``json.loads``, with its grammar and strictness, but each
# object and float becomes its length, so nothing of a checked value is kept
_check = json.JSONDecoder(object_hook=len, parse_float=len).raw_decode


def read_measurements(text: str) -> dict:
    """Measured data from JSON ``text``, as ``ingest_measurements`` reads it.

    The walk goes through the top-level object key by key.  The values of
    ``INPUT_KEYS`` are decoded as ``json.loads`` decodes them; every other
    value is checked by the same scanner and dropped, so a report's term
    list, most of its bytes, is never built.  Text that the walk cannot
    read (a top level that is no object, a byte-order mark, a syntax error,
    nesting deeper than the recursion limit) goes to ``json.loads``
    itself, so the result or the error, with its type, message, line and
    column, is the one that ``json.loads`` gives.
    """
    try:
        return _read_object(text)
    except (ValueError, RecursionError):
        return json.loads(text)


def _read_object(text: str) -> dict:
    """The top-level object's ``INPUT_KEYS`` entries, the last of a repeated
    key winning; ValueError where the text leaves ``json.loads``' grammar."""
    data = {}
    at = _space(text, 0).end()
    if text[at:at + 1] != "{":
        raise ValueError("no object at the top level")
    at = _space(text, at + 1).end()
    if text[at:at + 1] != "}":
        while True:
            if text[at:at + 1] != '"':
                raise ValueError("no key")
            key, at = json.decoder.scanstring(text, at + 1)
            at = _space(text, at).end()
            if text[at:at + 1] != ":":
                raise ValueError("no ':' after a key")
            at = _space(text, at + 1).end()
            if key in INPUT_KEYS:
                data[key], at = _decode(text, at)
            else:
                at = _check(text, at)[1]
            at = _space(text, at).end()
            if text[at:at + 1] != ",":
                break
            at = _space(text, at + 1).end()
    if text[at:at + 1] != "}" or _space(text, at + 1).end() != len(text):
        raise ValueError("no '}' closing the object, or data after it")
    return data


def ingest_measurements(n_qubits: int | None, data: dict) -> ExperimentReport:
    """Recombine externally measured data into a current estimate.

    ``data`` maps "n" plus either ``settings`` (a list of
    {basis_word, probabilities|counts[, terms]} entries) or
    ``expectations`` (a list of {word, value}), and optionally the ring
    angle ``theta0`` the data were taken at (0 when absent), which sets
    ``j_exact`` and, away from 0, leaves the closed form out, and the
    ``readout_flip`` probability they were read with, a real in [0, 0.5)
    (0 when absent), which the report echoes: nothing mitigates it.  Without
    explicit ``terms`` lists, every expansion term is read from the first
    setting that covers it, in file order.  Each setting record lists the
    words read from it, in expansion order, all grouped by one stable sort
    (``pauli.setting_groups``).  No simulation happens here: the
    output is exact arithmetic on the supplied numbers.  No top-level key
    outside ``INPUT_KEYS`` is read, so ``read_measurements`` leaves the
    others out.
    """
    if not isinstance(data, dict):
        raise ValueError("measured data must be a mapping")
    n_field = data.get("n")
    if n_field is not None:
        _check_types((n_field,), numbers.Integral, "'n'")
    if n_qubits is None:
        if n_field is None:
            raise ValueError("qubit count missing (no 'n' key and none supplied)")
        n_qubits = int(n_field)
    elif n_field is not None and int(n_field) != n_qubits:
        raise ValueError(f"data is for n={n_field}, not n={n_qubits}")
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    theta0 = _optional_real(data, "theta0")
    readout_flip = _optional_real(data, "readout_flip")
    check_flip(readout_flip)
    decomp = current_decomposition(n_qubits)

    if "expectations" in data:
        supplied = {}
        entries = data["expectations"]
        _check_types((entries,), list, "'expectations'")
        for i, entry in enumerate(entries):
            _check_types((entry,), dict, f"expectations[{i}]")
            _check_types((entry["word"],), str, f"expectations[{i}] word")
            _check_types((entry["value"],), numbers.Real, f"expectations[{i}] value")
            value = float(entry["value"])
            if not -1.0 <= value <= 1.0:
                raise ValueError(
                    f"expectation of {entry['word']} must be finite and within "
                    f"[-1, 1], got {value!r}"
                )
            if entry["word"] in supplied:
                raise ValueError(f"expectation of {entry['word']} given twice")
            supplied[entry["word"]] = value
        # the words ascend: the first missing ones are the smallest, and
        # bisection finds whether a supplied word is one of them
        words = decomp.words
        missing = list(islice((word for word in words if word not in supplied), 4))
        if missing or len(supplied) != len(words):
            last = len(words) - 1
            unknown = heapq.nsmallest(
                4, (word for word in supplied if words[bisect_left(words, word, hi=last)] != word)
            )
            raise ValueError(
                "expectations must cover exactly the expansion terms; "
                f"missing {missing}, unknown {unknown}"
            )
        term_records = TermRecords(
            words,
            decomp.coeff_array,
            np.full(len(words), -1),
            (),
            np.array([supplied[word] for word in words], dtype=np.float64),
        )
        setting_records: list[SettingRecord] = []
    elif "settings" in data:
        entries = data["settings"]
        _check_types((entries,), list, "'settings'")
        if not entries:
            raise ValueError("settings list is empty")
        parsed = [
            _parse_setting_entry(entry, n_qubits, i) for i, entry in enumerate(entries)
        ]
        explicit = [p[3] is not None for p in parsed]
        if any(explicit) and not all(explicit):
            raise ValueError("either every setting lists its terms or none does")
        bases = [setting.basis_word for setting, _, _, _ in parsed]
        masks, basis_masks = decomp.masks, word_masks(bases, n_qubits)
        if all(explicit):
            lists = [words for _, _, _, words in parsed]
            owner = _listed_owner(decomp.words, masks, lists, bases, basis_masks)
        else:
            owner = _first_cover(masks, basis_masks)
        uncovered = np.flatnonzero(owner < 0)[:4].tolist()
        if uncovered:
            raise ValueError(
                f"no setting covers terms {[decomp.words[k] for k in uncovered]}"
            )

        def fill(start, block):
            block.fill(0.0)
            for k, row in enumerate(block, start):
                probs = parsed[k][1]
                row[probs.index] = probs.data

        parity_masks = np.bitwise_or(masks[0] | masks[1], masks[2], dtype=np.intp)
        expectation = _expectations(n_qubits, parity_masks, owner, len(parsed), fill)
        order, slices = setting_groups(owner, len(parsed))
        setting_records = []
        for (setting, probs, counts, _), members in zip(parsed, slices):
            words = tuple(map(decomp.words.__getitem__, order[members].tolist()))
            setting_records.append(
                SettingRecord(setting.basis_word, probs, counts, None, words)
            )
        term_records = TermRecords(
            decomp.words, decomp.coeff_array, owner, bases, expectation
        )
    else:
        raise ValueError("data carries neither 'settings' nor 'expectations'")

    return _finish_report(
        "ingest",
        decomp.identity_weight,
        term_records,
        setting_records,
        n_qubits,
        exact_current(backflow_coefficients(n_qubits).a, theta0),
        theta0=theta0,
        readout_flip=readout_flip,
    )
