"""Backflowing states and probability-current evaluation.

The current J at ring angle theta0 is evaluated four ways: exactly from
the momentum coefficients (phase-weighted double sum), from the closed
form for the built-in backflowing family, by shot-based simulation of the
measurement circuits, and by recombining externally measured outcome data.
The word-expansion estimator is specific to theta0 = 0; nonzero angles are
available through the exact path only.

Each setting's outcomes (exact probabilities, counts / shots, or supplied
data) become one dense float64 vector, and one ``parity_expectations``
call gives all of that setting's word expectations; bitstring maps exist
only in input data and in the report's setting records.  The estimators
read the expansion's word and coefficient columns.  A simulation makes
one ``word_masks`` call per run, for the parity masks and for the setting
plan (``pauli.setting_plan``, or one setting per word); ``engine.sample``
returns counts per basis index, whose bitstring keys are made once.

All estimators assemble J as (identity_weight + sum coeff * <V>) / 4pi
from their own per-term records, and every report round-trips: feeding
``report.to_dict()`` back into ``ingest_measurements`` reproduces the
same estimate.
"""
from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .circuits import (
    MeasurementSetting,
    backflow_prep_angles,
    measurement_circuit,
    prepare_backflow_circuit,
)
from .engine import (
    apply_circuit,
    init_amplitudes,
    init_basis,
    parity_expectations,
    sample,
    z_probabilities,
)
from .pauli import (
    check_register,
    current_decomposition,
    setting_plan,
    word_masks,
)

# unused here, but bench/spans.py times experiment.index_masks and
# experiment.group_terms as layers
from .circuits import group_terms  # noqa: F401
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
        return {
            "word": self.word,
            "coeff": self.coeff,
            "setting": self.setting,
            "expectation": self.expectation,
            "std_error": self.std_error,
        }


@dataclass(frozen=True, slots=True)
class SettingRecord:
    """Outcome data gathered under one measurement setting."""

    basis_word: str
    probabilities: dict[str, float]
    counts: dict[str, int] | None
    seed_entropy: list[int] | None
    terms: tuple[str, ...]

    def to_dict(self) -> dict:
        d: dict = {
            "basis_word": self.basis_word,
            "probabilities": dict(sorted(self.probabilities.items())),
            "terms": list(self.terms),
        }
        if self.counts is not None:
            d["counts"] = dict(sorted(self.counts.items()))
        if self.seed_entropy is not None:
            d["seed_entropy"] = list(self.seed_entropy)
        return d


@dataclass(frozen=True, slots=True)
class ExperimentReport:
    """Full record of one current evaluation.

    ``j_estimate`` always equals
    (identity_weight + sum of coeff * expectation over term_records) / 4pi;
    reports without estimator records fold the exact value into
    ``identity_weight`` so the identity still holds.
    """

    n_qubits: int
    mode: str
    shots_per_setting: int | None
    seed: int | None
    grouped: bool | None
    readout_flip: float
    rng: str | None
    theta0: float
    identity_weight: float
    term_records: tuple[TermRecord, ...]
    setting_records: tuple[SettingRecord, ...]
    prep: dict | None
    j_estimate: float
    j_std_error: float | None
    j_exact: float
    j_closed_form: float
    relative_error: float

    def to_dict(self) -> dict:
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
            "terms": [r.to_dict() for r in self.term_records],
            "settings": [s.to_dict() for s in self.setting_records],
            "prep": self.prep,
            "j_estimate": self.j_estimate,
            "j_std_error": self.j_std_error,
            "j_exact": self.j_exact,
            "j_closed_form": self.j_closed_form,
            "relative_error": self.relative_error,
        }


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


def _outcome_vector(n_qubits: int, values: dict) -> np.ndarray:
    # bitstring-keyed map -> dense float64 vector indexed by basis index
    vec = np.zeros(1 << n_qubits)
    for bits, v in values.items():
        vec[int(bits, 2)] = v
    return vec


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
    *,
    n_qubits,
    mode,
    shots_per_setting,
    seed,
    grouped,
    readout_flip,
    rng,
    theta0,
    identity_weight,
    term_records,
    setting_records,
    prep,
) -> ExperimentReport:
    weighted = identity_weight + math.fsum(
        r.coeff * r.expectation for r in term_records
    )
    j_estimate = weighted / FOUR_PI
    if term_records and all(r.std_error is not None for r in term_records):
        j_std = (
            math.sqrt(math.fsum((r.coeff * r.std_error) ** 2 for r in term_records))
            / FOUR_PI
        )
    else:
        j_std = None
    j_exact = exact_current(backflow_coefficients(n_qubits).a, 0.0)
    j_closed = closed_form_current(n_qubits)
    return ExperimentReport(
        n_qubits=n_qubits,
        mode=mode,
        shots_per_setting=shots_per_setting,
        seed=seed,
        grouped=grouped,
        readout_flip=readout_flip,
        rng=rng,
        theta0=theta0,
        identity_weight=identity_weight,
        term_records=tuple(term_records),
        setting_records=tuple(setting_records),
        prep=prep,
        j_estimate=j_estimate,
        j_std_error=j_std,
        j_exact=j_exact,
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
    if shots_per_setting is not None and shots_per_setting < 1:
        raise ValueError("need at least one shot per setting")
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
    term_records: list[TermRecord] = []
    setting_records: list[SettingRecord] = []
    for k, (zmask, members) in enumerate(plan):
        setting = MeasurementSetting.from_z_mask(zmask, n_qubits)
        rotated = apply_circuit(state, measurement_circuit(setting))
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
        values = parity_expectations(outcomes, parity_masks[members]).tolist()
        index = members.tolist()
        for i, value in zip(index, values):
            if sampling:
                std = math.sqrt(max(0.0, 1.0 - value * value) / shots_per_setting)
            else:
                std = None
            term_records.append(
                TermRecord(words[i], term_coeffs[i], setting.basis_word, value, std)
            )
        # bitstring keys are made here, once, for both outcome maps
        nonzero = np.flatnonzero(outcomes)
        keys = [format(i, f"0{n_qubits}b") for i in nonzero.tolist()]
        setting_records.append(
            SettingRecord(
                setting.basis_word,
                dict(zip(keys, outcomes[nonzero].tolist())),
                dict(zip(keys, counts[nonzero].tolist())) if sampling else None,
                entropy,
                tuple(words[i] for i in index),
            )
        )
    return _finish_report(
        n_qubits=n_qubits,
        mode="shots" if sampling else "exact",
        shots_per_setting=shots_per_setting,
        seed=seed if sampling else None,
        grouped=grouped,
        readout_flip=readout_flip,
        rng=_RNG_NAME if sampling else None,
        theta0=0.0,
        identity_weight=decomp.identity_weight,
        term_records=term_records,
        setting_records=setting_records,
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
        n_qubits=n_qubits,
        mode="exact",
        shots_per_setting=None,
        seed=None,
        grouped=None,
        readout_flip=0.0,
        rng=None,
        theta0=theta0,
        identity_weight=j * FOUR_PI,
        term_records=[],
        setting_records=[],
        prep=None,
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


def _count(value, position: int) -> int:
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"settings[{position}]: count {value!r} is not a whole number")
    count = int(value)
    if count < 0:
        raise ValueError(f"settings[{position}]: negative count {count}")
    return count


def _parse_setting_entry(entry: dict, n_qubits: int, position: int):
    _check_types((entry,), dict, f"settings[{position}]")
    basis = entry.get("basis_word")
    if not isinstance(basis, str) or len(basis) != n_qubits:
        raise ValueError(f"settings[{position}]: basis word must have {n_qubits} letters")
    setting = MeasurementSetting(basis)
    if "probabilities" in entry:
        probs = _outcome_map(entry, "probabilities", position)
        probs = {str(b): float(p) for b, p in probs.items()}
        counts = None
    elif "counts" in entry:
        counts = _outcome_map(entry, "counts", position)
        counts = {str(b): _count(c, position) for b, c in counts.items()}
        total = sum(counts.values())
        if total <= 0:
            raise ValueError(f"settings[{position}]: empty counts")
        probs = {b: c / total for b, c in counts.items()}
    else:
        raise ValueError(f"settings[{position}]: needs probabilities or counts")
    for bits, p in probs.items():
        if len(bits) != n_qubits or set(bits) - {"0", "1"}:
            raise ValueError(f"settings[{position}]: bad outcome {bits!r}")
        if not math.isfinite(p):
            raise ValueError(f"settings[{position}]: non-finite probability {p!r}")
        if p < 0.0:
            raise ValueError(f"settings[{position}]: negative probability")
    if abs(math.fsum(probs.values()) - 1.0) > 1e-6:
        raise ValueError(f"settings[{position}]: probabilities do not sum to 1")
    terms = entry.get("terms")
    if terms is not None:
        _check_types((terms,), list, f"settings[{position}] terms")
        _check_types(terms, str, f"settings[{position}] terms")
    return setting, probs, counts, terms


def _outcome_map(entry: dict, key: str, position: int) -> dict:
    values = entry[key]
    _check_types((values,), dict, f"settings[{position}] {key}")
    _check_types(values.values(), numbers.Real, f"settings[{position}] {key}")
    return values


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
            supplied[entry["word"]] = value
        expected = set(decomp.words)
        if set(supplied) != expected:
            raise ValueError(
                "expectations must cover exactly the expansion terms; "
                f"missing {sorted(expected - set(supplied))[:4]}, "
                f"unknown {sorted(set(supplied) - expected)[:4]}"
            )
        term_records = [
            TermRecord(word, coeff, None, supplied[word], None)
            for word, coeff in zip(decomp.words, decomp.coeffs)
        ]
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
        owners = owner.tolist()
        assigned: list[list[str]] = [[] for _ in parsed]
        for word, i in zip(decomp.words, owners):
            assigned[i].append(word)
        values = [
            iter(
                parity_expectations(
                    _outcome_vector(n_qubits, probs), parity_masks[owner == i]
                ).tolist()
            )
            for i, (_, probs, _, _) in enumerate(parsed)
        ]
        term_records = [
            TermRecord(word, coeff, bases[i], next(values[i]), None)
            for word, coeff, i in zip(decomp.words, decomp.coeffs, owners)
        ]
        setting_records = [
            SettingRecord(setting.basis_word, probs, counts, None, tuple(words))
            for (setting, probs, counts, _), words in zip(parsed, assigned)
        ]
    else:
        raise ValueError("data carries neither 'settings' nor 'expectations'")

    return _finish_report(
        n_qubits=n_qubits,
        mode="ingest",
        shots_per_setting=None,
        seed=None,
        grouped=None,
        readout_flip=0.0,
        rng=None,
        theta0=0.0,
        identity_weight=decomp.identity_weight,
        term_records=term_records,
        setting_records=setting_records,
        prep=None,
    )
