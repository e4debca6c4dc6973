"""Backflowing states and probability-current evaluation.

The current J at ring angle theta0 is evaluated four ways: exactly from
the momentum coefficients (phase-weighted double sum), from the closed
form for the built-in backflowing family, by shot-based simulation of the
measurement circuits, and by recombining externally measured outcome data.
The word-expansion estimator is specific to theta0 = 0; nonzero angles are
available through the exact path only.

Each setting's outcomes (exact probabilities, counts / shots, or supplied
data) become one dense float64 vector, and one ``parity_expectations``
call writes all of that setting's word expectations into the report's
expectation column.  Setting records keep their outcomes as columns
(``Outcomes``), from the sampler or the bulk input parser to the JSON
writer; bitstring keys are made only when a map is read.  The estimators
read the expansion's word and coefficient columns.  A simulation makes one
``word_masks`` call per run, for the parity masks and for the setting plan
(``pauli.setting_plan``, or one setting per word), and rotates the state
into every setting with ``engine.rotated_settings``, the one sweep that
the exact expectation uses too.

All estimators assemble J as (identity_weight + sum coeff * <V>) / 4pi
from their own term columns (``TermRecords``), and every report
round-trips: feeding ``report.to_dict()`` back into
``ingest_measurements`` reproduces the same estimate.
"""
from __future__ import annotations

import math
import numbers
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain, compress, repeat
from operator import lt, truediv

import numpy as np

from .circuits import (
    MeasurementSetting,
    backflow_prep_angles,
    prepare_backflow_circuit,
)
from .engine import (
    _INV_SQRT2,
    MAX_SHOTS,
    Statevector,
    _check_drift,
    apply_circuit,
    init_amplitudes,
    init_basis,
    parity_expectations,
    rotated_settings,
    sample,
    z_probabilities,
)
from .pauli import (
    check_register,
    current_decomposition,
    setting_plan,
    word_masks,
)

# unused here, but bench/spans.py times experiment.index_masks,
# experiment.group_terms and experiment.measurement_circuit as layers
from .circuits import group_terms, measurement_circuit  # noqa: F401
from .pauli import index_masks  # noqa: F401

FOUR_PI = 4.0 * math.pi

#: Shots per measurement setting used when nothing else is requested.
DEFAULT_SHOTS = 8000

_RNG_NAME = "numpy-default_rng-PCG64"


@dataclass(frozen=True, slots=True)
class BackflowCoefficients:
    """Real momentum coefficients a_m of the built-in backflowing family."""

    n_qubits: int
    a: np.ndarray

    def __post_init__(self):
        arr = np.ascontiguousarray(self.a, dtype=np.float64)
        if arr.shape != (1 << self.n_qubits,):
            raise ValueError("coefficient count must be 2^N")
        object.__setattr__(self, "a", arr)


@dataclass(frozen=True, slots=True)
class TermRecord:
    """One estimated word expectation; ``setting`` is None for supplied values."""

    word: str
    coeff: float
    setting: str | None
    expectation: float
    std_error: float | None

    def to_dict(self) -> dict:
        return _term_dict(
            self.word, self.coeff, self.setting, self.expectation, self.std_error
        )


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

    The columns run in expansion order: ``words`` (the expansion's own
    tuple, not copied), ``coeffs``, ``setting_index`` (each term's index
    into ``bases``, the setting basis words, or -1 for a value supplied
    without a setting), and the float64 arrays ``expectation`` and
    ``std_error`` (None when no term has one).  ``order`` lists the terms
    in record order, which for a simulation is setting by setting.  As
    with ``PauliTerms``, nothing is built up front: a ``TermRecord`` is
    made only for the item read, and code that needs every term reads the
    columns.
    """

    __slots__ = (
        "words", "coeffs", "setting_index", "bases", "expectation", "std_error", "order"
    )

    def __init__(
        self, words, coeffs, setting_index, bases, expectation, std_error=None, order=None
    ):
        self.words = words
        self.coeffs = np.asarray(coeffs, dtype=np.float64)
        self.setting_index = np.asarray(setting_index, dtype=np.int64)
        self.bases = tuple(bases)
        self.expectation = expectation
        self.std_error = std_error
        self.order = np.arange(len(words)) if order is None else order

    def __len__(self):
        return len(self.order)

    def __getitem__(self, index):
        i = self.order[index]
        return TermRecord(
            self.words[i],
            self.coeffs[i].item(),
            (*self.bases, None)[self.setting_index[i]],
            self.expectation[i].item(),
            None if self.std_error is None else self.std_error[i].item(),
        )

    def columns(self) -> tuple:
        """The five ``TermRecord`` fields as iterables of Python values, in
        record order."""
        order = self.order
        # (*bases, None)[-1] is None, so setting -1 reads as "no setting"
        names = (*self.bases, None)
        std = self.std_error
        return (
            map(self.words.__getitem__, order.tolist()),
            self.coeffs[order].tolist(),
            map(names.__getitem__, self.setting_index[order].tolist()),
            self.expectation[order].tolist(),
            repeat(None) if std is None else std[order].tolist(),
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
    int64).  Keys (leftmost letter the most significant bit) are made in
    bulk, only when the map is read."""

    n_qubits: int
    index: np.ndarray
    data: np.ndarray | tuple

    def __len__(self):
        return len(self.index)

    def __iter__(self):
        width = self.n_qubits
        bits = (self.index[:, None] >> np.arange(width - 1, -1, -1)) & 1
        # one UCS-4 code point per letter, read as one string per row
        letters = (bits + ord("0")).astype(np.uint32)
        return iter(letters.view(f"U{width}").ravel().tolist())

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
    (identity_weight + sum of coeff * expectation over term_records) / 4pi;
    reports without estimator records fold the exact value into
    ``identity_weight`` so the identity still holds.  The terms are held
    as columns, in ``term_records``.  The defaults are those of a report
    without sampling.
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
    j_closed_form: float
    relative_error: float

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


def exact_current(coeffs, theta0: float = 0.0) -> float:
    """Probability current at ring angle theta0 for momentum coefficients.

    Evaluates (1/2pi) Re[ conj(S0) S1 ] with S0 = sum c_m e^(i m theta0)
    and S1 = sum m c_m e^(i m theta0); at theta0 = 0 this is the familiar
    (1/4pi) sum over conj(c_m) (m + n) c_n.
    """
    c = np.asarray(getattr(coeffs, "a", coeffs), dtype=np.complex128)
    if c.ndim != 1 or c.size < 2 or c.size & (c.size - 1):
        raise ValueError("coefficient array length must be 2^N with N >= 1")
    nrm = np.linalg.norm(c)
    if abs(nrm - 1.0) > 1e-9:
        raise ValueError(f"coefficients not normalized (norm {nrm!r})")
    # extended precision: the sums cancel heavily for large registers
    b = c.astype(np.clongdouble)
    m = np.arange(c.size, dtype=np.longdouble)
    if theta0 != 0.0:
        b = b * np.exp(1j * np.clongdouble(theta0) * m)
    s0 = b.sum()
    s1 = (m * b).sum()
    return float((np.conj(s0) * s1).real / (2.0 * np.longdouble(math.pi)))


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


def _prepared_state(n_qubits: int, coeffs: BackflowCoefficients):
    if n_qubits <= 2:
        circ = prepare_backflow_circuit(n_qubits)
        state = apply_circuit(init_basis(n_qubits, 0), circ)
        prep = {
            "method": "rotation-synthesis",
            "angles": backflow_prep_angles(n_qubits),
            "rotation_rule": "RY(t)=[[cos t/2,-sin t/2],[sin t/2,cos t/2]]; "
            "controlled form applies RY(angle) to the target when the control is 1",
        }
    else:
        state = init_amplitudes(n_qubits, coeffs.a)
        prep = {"method": "amplitude-load"}
    return state, prep


def _finish_report(
    mode, identity_weight, term_records, setting_records, family, **fields
) -> ExperimentReport:
    """The report on ``family``'s state from its terms and settings; ``fields``
    are those that differ from the ``ExperimentReport`` defaults."""
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
    j_closed = closed_form_current(family.n_qubits)
    return ExperimentReport(
        **fields,
        n_qubits=family.n_qubits,
        mode=mode,
        identity_weight=identity_weight,
        term_records=term_records,
        setting_records=tuple(setting_records),
        j_estimate=j_estimate,
        j_std_error=j_std,
        j_exact=exact_current(family.a, 0.0),
        j_closed_form=j_closed,
        relative_error=relative_error(j_estimate, j_closed),
    )


def run_simulation(
    n_qubits: int,
    shots_per_setting: int | None = DEFAULT_SHOTS,
    seed: int | None = None,
    grouped: bool = True,
    readout_flip: float = 0.0,
) -> ExperimentReport:
    """Estimate the current by simulating the measurement circuits.

    The backflowing state is synthesized from rotations for one or two
    qubits and loaded as amplitudes otherwise.  Each measurement setting
    samples ``shots_per_setting`` outcomes with its own generator, seeded
    from [seed, setting_index]; ``shots_per_setting=None`` replaces the
    samples with the exact outcome probabilities (the infinite-shot limit,
    reported as mode "exact").
    """
    if shots_per_setting is not None and not 1 <= shots_per_setting <= MAX_SHOTS:
        raise ValueError(
            f"shots per setting must be between 1 and {MAX_SHOTS}, got {shots_per_setting}"
        )
    decomp = current_decomposition(n_qubits)
    coeffs = backflow_coefficients(n_qubits)
    state, prep = _prepared_state(n_qubits, coeffs)
    words, term_coeffs = decomp.words, decomp.coeffs
    # the expansion has no Y, so a word's parity mask is its X and Z letters
    mx, _, mz = word_masks(words, n_qubits)
    parity_masks = mx | mz
    if grouped:
        plan = setting_plan(mz, n_qubits)
    else:
        # one setting per word: X at its X letters, Z everywhere else
        full = (1 << n_qubits) - 1
        plan = list(zip((full ^ mx).tolist(), np.arange(len(words))[:, None]))
    sampling = shots_per_setting is not None
    if sampling and seed is None:
        seed = int(np.random.SeedSequence().entropy) % (1 << 32)
    expectation = np.empty(len(words))
    term_setting = np.empty(len(words), dtype=np.int64)
    # filled in the sweep's order, which need not be the plan's
    setting_records: list = [None] * len(plan)
    zmasks = [zmask for zmask, _ in plan]
    sweep = rotated_settings(state.amplitudes, n_qubits, zmasks, np.float64, _INV_SQRT2)
    for k, parts in sweep:
        zmask, members = plan[k]
        amps = parts[0] if len(parts) == 1 else parts[0] + 1j * parts[1]
        _check_drift(amps)
        rotated = Statevector(n_qubits, amps)
        if sampling:
            entropy = [seed, k]
            counts = sample(
                rotated,
                shots_per_setting,
                seed=np.random.SeedSequence(entropy),
                readout_flip=readout_flip,
            )
            outcomes = counts / shots_per_setting
        else:
            entropy = None
            outcomes = z_probabilities(rotated)
        expectation[members] = parity_expectations(outcomes, parity_masks[members])
        term_setting[members] = k
        nonzero = np.flatnonzero(outcomes)
        setting_records[k] = SettingRecord(
            MeasurementSetting.from_z_mask(zmask, n_qubits).basis_word,
            Outcomes(n_qubits, nonzero, outcomes[nonzero]),
            Outcomes(n_qubits, nonzero, tuple(counts[nonzero].tolist()))
            if sampling
            else None,
            entropy,
            tuple(map(words.__getitem__, members.tolist())),
        )
    if sampling:
        # the IEEE steps of sqrt(max(0, 1 - v * v) / shots), over the column
        variance = np.maximum(0.0, 1.0 - expectation * expectation) / shots_per_setting
        std_error = np.sqrt(variance)
    else:
        std_error = None
    term_records = TermRecords(
        words,
        term_coeffs,
        term_setting,
        [s.basis_word for s in setting_records],
        expectation,
        std_error,
        # records run setting by setting
        np.concatenate([members for _, members in plan]),
    )
    return _finish_report(
        "shots" if sampling else "exact",
        decomp.identity_weight,
        term_records,
        setting_records,
        coeffs,
        shots_per_setting=shots_per_setting,
        seed=seed if sampling else None,
        grouped=grouped,
        readout_flip=readout_flip,
        rng=_RNG_NAME if sampling else None,
        prep=prep,
    )


def run_exact(
    n_qubits: int, theta0: float = 0.0, grouped: bool = True
) -> ExperimentReport:
    """Exact current report; nonzero theta0 uses the double sum only."""
    if theta0 == 0.0:
        return run_simulation(n_qubits, shots_per_setting=None, grouped=grouped)
    coeffs = backflow_coefficients(n_qubits)
    j = exact_current(coeffs.a, theta0)
    return _finish_report(
        "exact",
        j * FOUR_PI,
        TermRecords((), (), (), (), np.empty(0)),
        [],
        coeffs,
        theta0=theta0,
    )


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


def _first_cover(masks, basis_words: list[str], n_qubits: int) -> np.ndarray:
    """Index of the first setting that covers each word, -1 where none does.

    ``masks`` are the words' ``word_masks``.  A setting covers a word when
    the word's X letters sit on the setting's X positions, its Z letters on
    Z positions, and it has no Y.
    """
    mx, my, mz = masks
    bx, _, bz = word_masks(basis_words, n_qubits)
    owner = np.full(len(mx), -1)
    # last setting first, so that the first covering setting is written last
    for i in range(len(basis_words) - 1, -1, -1):
        owner[((mx & ~bx[i]) | (mz & ~bz[i]) | my) == 0] = i
    return owner


def _listed_owner(words, masks, lists, basis_words, n_qubits: int) -> np.ndarray:
    """Index of the setting whose ``terms`` list names each word, -1 for none.

    ``masks`` are the ``word_masks`` of ``words``, the expansion.  Read in
    file order, the first listed word that fails is reported, with the
    first of its faults: not an expansion word, listed before, or not
    covered by its own setting (the cover test of ``_first_cover``).
    """
    listed = list(chain.from_iterable(lists))
    setting = np.repeat(np.arange(len(lists)), [len(terms) for terms in lists])
    position = dict(zip(words, range(len(words))))
    index = np.fromiter(map(position.get, listed, repeat(-1)), np.int64, len(listed))
    unknown = index < 0
    again = np.ones(len(listed), dtype=bool)
    again[np.unique(index, return_index=True)[1]] = False
    # an unknown word reads the last word's masks, but fails first anyway
    mx, my, mz = (mask[index] for mask in masks)
    bx, _, bz = word_masks(basis_words, n_qubits)
    uncovered = ((mx & ~bx[setting]) | (mz & ~bz[setting]) | my) != 0
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


def ingest_measurements(n_qubits: int | None, data: dict) -> ExperimentReport:
    """Recombine externally measured data into a current estimate.

    ``data`` maps "n" plus either ``settings`` (a list of
    {basis_word, probabilities|counts[, terms]} entries) or
    ``expectations`` (a list of {word, value}).  Without explicit ``terms``
    lists, every expansion term is read from the first setting that covers
    it, in file order.  No simulation happens here: the output is exact
    arithmetic on the supplied numbers.
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
        expected = set(decomp.words)
        if set(supplied) != expected:
            raise ValueError(
                "expectations must cover exactly the expansion terms; "
                f"missing {sorted(expected - set(supplied))[:4]}, "
                f"unknown {sorted(set(supplied) - expected)[:4]}"
            )
        term_records = TermRecords(
            decomp.words,
            decomp.coeffs,
            np.full(len(decomp.words), -1),
            (),
            np.array([supplied[word] for word in decomp.words], dtype=np.float64),
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
        masks = word_masks(decomp.words, n_qubits)
        if all(explicit):
            lists = [words for _, _, _, words in parsed]
            owner = _listed_owner(decomp.words, masks, lists, bases, n_qubits)
        else:
            owner = _first_cover(masks, bases, n_qubits)
        uncovered = np.flatnonzero(owner < 0)[:4].tolist()
        if uncovered:
            raise ValueError(
                f"no setting covers terms {[decomp.words[k] for k in uncovered]}"
            )
        # each setting's words and parity masks, in expansion order
        parity_masks = masks[0] | masks[1] | masks[2]
        expectation = np.empty(len(decomp.words))
        setting_records = []
        for i, (setting, probs, counts, _) in enumerate(parsed):
            members = np.flatnonzero(owner == i)
            vector = np.zeros(1 << n_qubits)
            vector[probs.index] = probs.data
            expectation[members] = parity_expectations(vector, parity_masks[members])
            words = tuple(map(decomp.words.__getitem__, members.tolist()))
            setting_records.append(
                SettingRecord(setting.basis_word, probs, counts, None, words)
            )
        term_records = TermRecords(
            decomp.words, decomp.coeffs, owner, bases, expectation
        )
    else:
        raise ValueError("data carries neither 'settings' nor 'expectations'")

    return _finish_report(
        "ingest",
        decomp.identity_weight,
        term_records,
        setting_records,
        backflow_coefficients(n_qubits),
    )
