import json
import math
import numbers

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringflow.circuits import MeasurementSetting, measurement_circuit, parity_sign
from ringflow.engine import apply_circuit, parity_expectations, sample, z_probabilities
from ringflow.experiment import (
    _check_types,
    _finish_report,
    _first_cover,
    _parse_setting_entry,
    _prepared_state,
    _RNG_NAME,
    BackflowCoefficients,
    Outcomes,
    SettingRecord,
    TermRecords,
    backflow_coefficients,
    closed_form_current,
    exact_current,
    ingest_measurements,
    relative_error,
    run_exact,
    run_simulation,
)
from ringflow.pauli import (
    MAX_QUBITS,
    PauliString,
    RegisterTooLargeError,
    current_decomposition,
    dense_current_matrix,
    setting_plan,
    word_masks,
)

from conftest import assert_same_text, random_state_vector

FOUR_PI = 4.0 * math.pi


class TestBackflowCoefficients:
    def test_one_qubit(self):
        np.testing.assert_allclose(
            backflow_coefficients(1).a, np.array([-2.0, 1.0]) / math.sqrt(5.0)
        )

    def test_two_qubit(self):
        np.testing.assert_allclose(
            backflow_coefficients(2).a,
            np.array([-2.0, -1.0, 0.0, 1.0]) / math.sqrt(6.0),
        )

    def test_three_qubit_endpoints(self):
        a = backflow_coefficients(3).a
        assert a[0] == pytest.approx(-14.0 / math.sqrt(476.0), abs=1e-15)
        assert a[7] == pytest.approx(7.0 / math.sqrt(476.0), abs=1e-15)

    @pytest.mark.parametrize("n", range(1, 15))
    def test_normalized_and_affine(self, n):
        a = backflow_coefficients(n).a
        assert abs(np.dot(a, a) - 1.0) < 1e-12
        steps = np.diff(a)
        np.testing.assert_allclose(steps, steps[0], atol=1e-15)

    def test_type_validates_length(self):
        with pytest.raises(ValueError):
            BackflowCoefficients(2, np.array([1.0, 0.0]))

    def test_refused_above_register_cap(self):
        with pytest.raises(RegisterTooLargeError, match="cap"):
            backflow_coefficients(MAX_QUBITS + 1)
        with pytest.raises(RegisterTooLargeError):
            backflow_coefficients(40)
        assert closed_form_current(MAX_QUBITS + 11) < 0.0


class TestExactCurrent:
    def test_momentum_eigenstates_never_backflow(self):
        """One-hot coefficients give current m/2pi at every ring angle."""
        for n in (1, 2, 3):
            for m in range(1 << n):
                one_hot = np.zeros(1 << n)
                one_hot[m] = 1.0
                for theta0 in np.linspace(-math.pi, math.pi, 25):
                    j = exact_current(one_hot, theta0)
                    assert j == pytest.approx(m / (2 * math.pi), abs=1e-12)
                    assert j >= 0.0

    def test_backflow_family_two_qubits(self):
        j = exact_current(backflow_coefficients(2).a)
        assert abs(j - (-1.0 / (3.0 * math.pi))) < 1e-12
        assert abs(j - (-0.106103)) < 5e-7

    def test_uniform_superposition(self):
        j = exact_current(np.full(4, 0.5))
        assert abs(j - 12.0 / FOUR_PI) < 1e-12

    def test_accepts_coefficient_object(self):
        coeffs = backflow_coefficients(3)
        assert exact_current(coeffs) == exact_current(coeffs.a)

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError, match="normalized"):
            exact_current(np.array([1.0, 1.0]))

    def test_rejects_bad_length(self):
        with pytest.raises(ValueError):
            exact_current(np.array([1.0, 0.0, 0.0]))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_quadratic_form(self, n):
        rng = np.random.default_rng(500 + n)
        dense = dense_current_matrix(n).astype(np.float64)
        for _ in range(10):
            v = random_state_vector(rng, n)
            expected = float(np.real(np.conj(v) @ dense @ v)) / FOUR_PI
            assert abs(exact_current(v) - expected) < 1e-12

    def test_theta0_periodicity(self):
        rng = np.random.default_rng(8)
        v = random_state_vector(rng, 2)
        assert exact_current(v, 1.1) == pytest.approx(
            exact_current(v, 1.1 + 2 * math.pi), abs=1e-12
        )


class TestClosedFormCurrent:
    def test_one_qubit_value(self):
        assert abs(closed_form_current(1) - (-1.0 / (10.0 * math.pi))) < 1e-15
        assert abs(closed_form_current(1) - (-0.031831)) < 1e-6

    def test_two_qubit_value(self):
        assert abs(closed_form_current(2) - (-0.106103)) < 5e-7

    def test_ten_qubit_value(self):
        expected = -(1024.0 * 1023.0 / 2049.0) / FOUR_PI
        assert closed_form_current(10) == pytest.approx(expected, abs=1e-15)
        assert closed_form_current(10) == pytest.approx(
            exact_current(backflow_coefficients(10).a), abs=1e-12
        )

    @pytest.mark.parametrize("n", range(1, 15))
    def test_agrees_with_exact_current(self, n):
        je = exact_current(backflow_coefficients(n).a, 0.0)
        assert abs(je - closed_form_current(n)) < 1e-12

    def test_strictly_decreasing_and_unbounded(self):
        values = [closed_form_current(n) for n in range(1, 32)]
        assert all(b < a for a, b in zip(values, values[1:]))
        assert all(v < 0 for v in values)
        assert values[-1] < -1e8 / FOUR_PI


class TestRelativeError:
    def test_published_one_qubit_error(self):
        # formula value; the often-quoted 2.2% uses a different baseline
        err = relative_error(-0.031453, -1.0 / (10.0 * math.pi))
        assert 0.0118 < err < 0.0120

    def test_published_two_qubit_error(self):
        err = relative_error(-0.102789, closed_form_current(2))
        assert abs(err - 0.0312) < 5e-4

    def test_zero_for_equal_values(self):
        assert relative_error(-0.5, -0.5) == 0.0

    def test_zero_reference_signalled(self):
        with pytest.raises(ZeroDivisionError):
            relative_error(1.0, 0.0)


class TestRunSimulation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_estimate_within_five_sigma(self, n):
        report = run_simulation(n, shots_per_setting=8000, seed=2024)
        assert report.mode == "shots"
        assert report.j_std_error > 0
        assert abs(report.j_estimate - report.j_exact) < 5 * report.j_std_error

    def test_bit_reproducible(self):
        a = run_simulation(2, 8000, seed=99)
        b = run_simulation(2, 8000, seed=99)
        assert a.to_dict() == b.to_dict()

    def test_grouped_and_per_term_modes_share_exact_values(self):
        a = run_simulation(2, 500, seed=1, grouped=True)
        b = run_simulation(2, 500, seed=1, grouped=False)
        assert a.j_exact == b.j_exact
        assert a.j_closed_form == b.j_closed_form
        assert len(a.setting_records) == 3
        assert len(b.setting_records) == 7

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_exact_probability_limit_agrees_between_modes(self, n):
        grouped = run_simulation(n, shots_per_setting=None, grouped=True)
        per_term = run_simulation(n, shots_per_setting=None, grouped=False)
        assert grouped.mode == "exact"
        assert abs(grouped.j_estimate - per_term.j_estimate) < 1e-12
        assert abs(grouped.j_estimate - grouped.j_exact) < 1e-12

    def test_estimator_consistency_with_many_shots(self):
        few = run_simulation(1, 1000, seed=3)
        many = run_simulation(1, 10_000_000, seed=3)
        assert abs(many.j_estimate - many.j_exact) < 5 * many.j_std_error
        assert many.j_std_error < few.j_std_error / 50

    def test_amplitude_load_path(self):
        report = run_simulation(3, 4000, seed=5)
        assert report.prep == {"method": "amplitude-load"}
        assert len(report.term_records) == 19
        assert abs(report.j_estimate - report.j_exact) < 5 * report.j_std_error

    def test_readout_noise_biases_estimate(self):
        clean = run_simulation(1, shots_per_setting=None)
        noisy = run_simulation(1, 200_000, seed=11, readout_flip=0.2)
        # a 20% flip rate shrinks every parity average by (1 - 2p)^k
        assert abs(noisy.j_estimate) < abs(clean.j_estimate)

    def test_report_assembles_from_its_own_records(self):
        report = run_simulation(2, 8000, seed=17)
        weighted = report.identity_weight + math.fsum(
            r.coeff * r.expectation for r in report.term_records
        )
        assert report.j_estimate == weighted / FOUR_PI

    def test_seed_recorded_when_drawn_fresh(self):
        report = run_simulation(1, 100)
        assert report.seed is not None
        again = run_simulation(1, 100, seed=report.seed)
        assert again.to_dict() == report.to_dict()

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            run_simulation(1, 0)

    def test_rejects_huge_shot_counts(self):
        """More shots than an int64 count holds is a ValueError naming the
        value, before anything is sampled."""
        with pytest.raises(ValueError, match=f"shots per setting .* got {10**20}"):
            run_simulation(1, 10**20, seed=1)
        with pytest.raises(ValueError, match=f"shots per setting .* got {2**63}"):
            run_simulation(2, 2**63, seed=1)
        assert run_simulation(1, 2**63 - 1, seed=1).shots_per_setting == 2**63 - 1


def run_simulation_per_gate(n_qubits, shots_per_setting, seed, grouped, readout_flip):
    """``run_simulation`` one setting at a time, each setting's basis change
    applied gate by gate with ``apply_circuit``: the reference."""
    decomp = current_decomposition(n_qubits)
    coeffs = backflow_coefficients(n_qubits)
    state, prep = _prepared_state(n_qubits, coeffs)
    words, term_coeffs = decomp.words, decomp.coeffs
    mx, _, mz = word_masks(words, n_qubits)
    parity_masks = mx | mz
    if grouped:
        plan = setting_plan(mz, n_qubits)
    else:
        full = (1 << n_qubits) - 1
        plan = list(zip((full ^ mx).tolist(), np.arange(len(words))[:, None]))
    sampling = shots_per_setting is not None
    expectation = np.empty(len(words))
    term_setting = np.empty(len(words), dtype=np.int64)
    setting_records = []
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
        expectation[members] = parity_expectations(outcomes, parity_masks[members])
        term_setting[members] = k
        nonzero = np.flatnonzero(outcomes)
        setting_records.append(
            SettingRecord(
                setting.basis_word,
                Outcomes(n_qubits, nonzero, outcomes[nonzero]),
                Outcomes(n_qubits, nonzero, tuple(counts[nonzero].tolist()))
                if sampling
                else None,
                entropy,
                tuple(map(words.__getitem__, members.tolist())),
            )
        )
    if sampling:
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


@pytest.mark.parametrize(
    "n, grouped",
    [(n, True) for n in range(1, 11)] + [(n, False) for n in range(1, 7)],
    ids=[f"grouped-{n}" for n in range(1, 11)] + [f"per-term-{n}" for n in range(1, 7)],
)
@pytest.mark.parametrize(
    "shots, flip", [(None, 0.0), (2000, 0.0), (2000, 0.01)], ids=["exact", "shots", "flip"]
)
def test_reports_equal_the_per_gate_loop(n, grouped, shots, flip):
    """The shared rotation sweep gives the report of the per-setting loop,
    byte for byte: the same outcomes, expectations and records in order."""
    seed = 7 * n + 1
    got = run_simulation(n, shots, seed=seed, grouped=grouped, readout_flip=flip)
    want = run_simulation_per_gate(n, shots, seed, grouped, flip)
    assert_same_text(
        json.dumps(got.to_dict(), indent=1, sort_keys=True),
        json.dumps(want.to_dict(), indent=1, sort_keys=True),
    )


def assert_records_match_parity_oracle(report):
    """Each word expectation equals the parity average over its setting's outcomes."""
    owner = {word: s for s in report.setting_records for word in s.terms}
    assert len(owner) == len(report.term_records)
    for record in report.term_records:
        term = PauliString(record.word, 1.0)
        probabilities = owner[record.word].probabilities
        oracle = math.fsum(parity_sign(term, bits) * p for bits, p in probabilities.items())
        assert abs(record.expectation - oracle) < 1e-12


@pytest.mark.parametrize("n", range(1, 6))
@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "per-term"])
@pytest.mark.parametrize("shots", [None, 3000], ids=["exact", "shots"])
def test_term_records_match_parity_oracle(n, grouped, shots):
    report = run_simulation(n, shots, seed=40 + n, grouped=grouped)
    assert_records_match_parity_oracle(report)
    if shots is not None:
        counts_only = {
            "n": n,
            "settings": [
                {"basis_word": s.basis_word, "counts": dict(s.counts)}
                for s in report.setting_records
            ],
        }
        assert_records_match_parity_oracle(ingest_measurements(None, counts_only))


class TestRunExact:
    def test_zero_angle_uses_estimator(self):
        report = run_exact(2)
        assert report.term_records
        assert abs(report.j_estimate - report.j_exact) < 1e-12

    def test_nonzero_angle_skips_estimator(self):
        report = run_exact(2, theta0=0.7)
        assert report.term_records == ()
        assert report.theta0 == 0.7
        assert report.j_estimate == pytest.approx(
            exact_current(backflow_coefficients(2).a, 0.7), abs=1e-15
        )
        # the assembly identity still holds with the value folded into lambda0
        assert report.j_estimate == report.identity_weight / FOUR_PI


class TestIngestMeasurements:
    def test_published_one_qubit_probabilities(self, data_dir):
        data = json.loads((data_dir / "backflow_n1_probabilities.json").read_text())
        report = ingest_measurements(None, data)
        by_word = {r.word: r.expectation for r in report.term_records}
        assert by_word["X"] == pytest.approx(-0.808486, abs=1e-12)
        assert by_word["Z"] == pytest.approx(0.586764, abs=1e-12)
        assert abs(report.j_estimate - (-0.031453)) < 1e-5
        assert report.mode == "ingest"

    def test_published_two_qubit_expectations(self, data_dir):
        data = json.loads((data_dir / "backflow_n2_expectations.json").read_text())
        report = ingest_measurements(2, data)
        assert abs(report.j_estimate - (-0.102789)) < 1e-5
        assert abs(report.relative_error - 0.0312) < 5e-4

    def test_deterministic_outcomes(self):
        data = {
            "n": 1,
            "settings": [
                {"basis_word": "X", "probabilities": {"0": 1.0}},
                {"basis_word": "Z", "probabilities": {"0": 1.0}},
            ],
        }
        report = ingest_measurements(None, data)
        assert [r.expectation for r in report.term_records] == [1.0, 1.0]
        assert report.j_estimate == pytest.approx(1.0 / FOUR_PI, abs=1e-15)

    def test_counts_are_normalized(self):
        data = {
            "n": 1,
            "settings": [
                {"basis_word": "X", "counts": {"0": 25, "1": 75}},
                {"basis_word": "Z", "counts": {"0": 60, "1": 40}},
            ],
        }
        report = ingest_measurements(1, data)
        by_word = {r.word: r.expectation for r in report.term_records}
        assert by_word["X"] == pytest.approx(-0.5, abs=1e-15)
        assert by_word["Z"] == pytest.approx(0.2, abs=1e-15)

    def test_round_trip_reproduces_estimate_exactly(self):
        for grouped in (True, False):
            report = run_simulation(2, 8000, seed=31, grouped=grouped)
            again = ingest_measurements(None, report.to_dict())
            assert abs(again.j_estimate - report.j_estimate) < 1e-15

    def test_round_trip_of_exact_mode_report(self):
        report = run_simulation(2, shots_per_setting=None)
        again = ingest_measurements(None, report.to_dict())
        assert abs(again.j_estimate - report.j_estimate) < 1e-15

    def test_qubit_count_mismatch(self, data_dir):
        data = json.loads((data_dir / "backflow_n1_probabilities.json").read_text())
        with pytest.raises(ValueError):
            ingest_measurements(2, data)

    def test_probability_sum_violation(self):
        data = {
            "n": 1,
            "settings": [
                {"basis_word": "X", "probabilities": {"0": 0.6, "1": 0.6}},
                {"basis_word": "Z", "probabilities": {"0": 1.0}},
            ],
        }
        with pytest.raises(ValueError, match="sum"):
            ingest_measurements(None, data)

    @pytest.mark.parametrize(
        "setting, match",
        [
            ({"basis_word": "X", "probabilities": {"0": math.nan, "1": 0.5}}, "non-finite"),
            ({"basis_word": "X", "probabilities": {"0": math.inf, "1": 0.0}}, "non-finite"),
            ({"basis_word": "X", "counts": {"0": math.nan, "1": 5}}, "whole number"),
            ({"basis_word": "X", "counts": {"0": math.inf, "1": 5}}, "whole number"),
            ({"basis_word": "X", "counts": {"0": -1, "1": 5}}, "negative count"),
        ],
        ids=["nan-probability", "inf-probability", "nan-count", "inf-count",
             "negative-count"],
    )
    def test_invalid_outcome_numbers_rejected(self, setting, match):
        data = {
            "n": 1,
            "settings": [setting, {"basis_word": "Z", "probabilities": {"0": 1.0}}],
        }
        with pytest.raises(ValueError, match=match):
            ingest_measurements(None, data)

    @pytest.mark.parametrize("value", [7.5, -1.5, math.nan, math.inf])
    def test_invalid_expectations_rejected(self, value):
        data = {
            "n": 1,
            "expectations": [{"word": "X", "value": value}, {"word": "Z", "value": 0.5}],
        }
        with pytest.raises(ValueError, match=r"\[-1, 1\]"):
            ingest_measurements(None, data)

    def test_uncovered_terms_rejected(self):
        data = {
            "n": 1,
            "settings": [{"basis_word": "Z", "probabilities": {"0": 1.0}}],
        }
        with pytest.raises(ValueError, match="covers"):
            ingest_measurements(None, data)

    def test_incomplete_expectations_rejected(self):
        data = {"n": 2, "expectations": [{"word": "IX", "value": 0.5}]}
        with pytest.raises(ValueError, match="cover"):
            ingest_measurements(None, data)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            ingest_measurements(None, {"n": 1})
        with pytest.raises(ValueError):
            ingest_measurements(None, [1, 2, 3])


def covers_loop_owner(words, basis_words):
    """First covering setting of each word by ``MeasurementSetting.covers``,
    -1 where none covers it: the assignment as it ran one word at a time."""
    settings_ = [MeasurementSetting(b) for b in basis_words]
    owner = []
    for word in words:
        owner.append(next((i for i, s in enumerate(settings_) if s.covers(word)), -1))
    return owner


@st.composite
def setting_lists(draw, n):
    """Basis words of n letters, with repeats; any may cover nothing.  Half
    the lists hold the N + 1 grouping settings too, so every word is covered
    and random settings drawn before them take some words first."""
    bases = draw(st.lists(st.text("XZ", min_size=n, max_size=n), min_size=1, max_size=5))
    if draw(st.booleans()):
        bases += ["X" * n] + ["X" * p + "Z" + "X" * (n - 1 - p) for p in range(n)]
    repeats = draw(st.lists(st.sampled_from(bases), max_size=2))
    return draw(st.permutations(bases + repeats))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_first_cover_matches_covers_loop(data, n):
    words = data.draw(
        st.lists(st.text("IXYZ", min_size=n, max_size=n), min_size=1, max_size=30)
        | st.just(list(current_decomposition(n).words))
    )
    bases = data.draw(setting_lists(n))
    owner = _first_cover(word_masks(words, n), bases, n)
    assert owner.tolist() == covers_loop_owner(words, bases)


@settings(max_examples=150, deadline=None)
@given(data=st.data(), n=st.integers(1, 4))
def test_counts_only_ingest_reads_each_word_from_its_first_cover(data, n):
    bases = data.draw(setting_lists(n))
    outcome = st.text("01", min_size=n, max_size=n)
    outcomes = data.draw(st.lists(outcome, min_size=len(bases), max_size=len(bases)))
    payload = {
        "n": n,
        "settings": [
            {"basis_word": b, "counts": {bits: 3, "0" * n: 1}}
            for b, bits in zip(bases, outcomes)
        ],
    }
    words = current_decomposition(n).words
    owner = covers_loop_owner(words, bases)
    event("some word uncovered" if -1 in owner else "every word covered")
    if -1 in owner:
        uncovered = [w for w, i in zip(words, owner) if i < 0]
        with pytest.raises(ValueError) as exc:
            ingest_measurements(None, payload)
        assert str(exc.value) == f"no setting covers terms {uncovered[:4]}"
        return
    report = ingest_measurements(None, payload)
    assert [r.setting for r in report.term_records] == [bases[i] for i in owner]
    assert [s.terms for s in report.setting_records] == [
        tuple(w for w, i in zip(words, owner) if i == k) for k in range(len(bases))
    ]
    assert_records_match_parity_oracle(report)


def listed_terms_loop(words, lists, bases):
    """Owner of each word from explicit ``terms`` lists, checked one listed
    word at a time as ``ingest_measurements`` first did it (-1 if unlisted)."""
    assignment = {}
    known = set(words)
    for i, (basis, listed) in enumerate(zip(bases, lists)):
        setting = MeasurementSetting(basis)
        for word in listed:
            if word not in known:
                raise ValueError(f"{word!r} is not an expansion term")
            if word in assignment:
                raise ValueError(f"term {word} assigned twice")
            if not setting.covers(word):
                raise ValueError(f"term {word} not measurable under {basis}")
            assignment[word] = i
    return [assignment.get(w, -1) for w in words]


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_listed_terms_checked_like_the_word_loop(data, n):
    """Explicit terms: same owners, or the same first error in file order."""
    bases = data.draw(setting_lists(n))
    words = current_decomposition(n).words
    owner = covers_loop_owner(words, bases)
    lists = [[w for w, i in zip(words, owner) if i == k] for k in range(len(bases))]
    # a few insertions: expansion words (listed twice, or under a setting that
    # may not cover them) and arbitrary words, an all-I one among them
    extra = st.sampled_from(words) | st.text("IXYZ", min_size=n, max_size=n)
    for _ in range(data.draw(st.integers(0, 3))):
        target = lists[data.draw(st.integers(0, len(lists) - 1))]
        target.insert(data.draw(st.integers(0, len(target))), data.draw(extra))
    payload = {
        "n": n,
        "settings": [
            {"basis_word": b, "counts": {"0" * n: 2, "1" * n: 1}, "terms": listed}
            for b, listed in zip(bases, lists)
        ],
    }
    try:
        expected = listed_terms_loop(words, lists, bases)
    except ValueError as exc:
        event("listed word refused")
        with pytest.raises(ValueError) as refused:
            ingest_measurements(None, payload)
        assert str(refused.value) == str(exc)
        return
    if -1 in expected:
        event("some word unlisted")
        with pytest.raises(ValueError, match="no setting covers terms"):
            ingest_measurements(None, payload)
        return
    event("accepted")
    report = ingest_measurements(None, payload)
    assert [r.setting for r in report.term_records] == [bases[i] for i in expected]
    assert_records_match_parity_oracle(report)


class TestOutcomes:
    def test_keys_ascending_msb_first(self):
        probs = Outcomes(3, np.array([1, 4, 6]), np.array([0.25, 0.5, 0.25]))
        assert list(probs) == ["001", "100", "110"]
        assert list(Outcomes(20, np.array([2**19, 2**20 - 1]), np.ones(2))) == [
            "1" + "0" * 19, "1" * 20
        ]

    def test_items_len_and_lookup(self):
        probs = Outcomes(2, np.array([0, 3]), np.array([-0.0, 1.0]))
        assert len(probs) == 2
        assert list(probs.items()) == [("00", -0.0), ("11", 1.0)]
        assert math.copysign(1.0, probs["00"]) == -1.0
        assert type(probs["11"]) is float
        counts = Outcomes(2, np.array([1, 2]), (10**23, 2**70))
        assert list(counts.items()) == [("01", 10**23), ("10", 2**70)]
        assert counts["10"] == 2**70
        assert type(counts["01"]) is int

    @pytest.mark.parametrize("key", ["10", "111", "1", "", "1x", "١١", "0b1", 3, None])
    def test_missing_keys(self, key):
        probs = Outcomes(2, np.array([0, 3]), np.array([0.5, 0.5]))
        with pytest.raises(KeyError):
            probs[key]
        assert key not in probs
        assert probs.get(key) is None

    def test_equals_dict(self):
        probs = Outcomes(2, np.array([0, 3]), np.array([0.5, 0.5]))
        assert probs == {"11": 0.5, "00": 0.5}
        assert {"00": 0.5, "11": 0.5} == probs
        assert probs != {"00": 0.5, "11": 0.25}
        assert probs != {"00": 0.5, "11": 0.5, "01": 0.0}
        assert Outcomes(1, np.empty(0, dtype=np.int64), ()) == {}

    def test_mapping_protocol(self):
        """``values()`` is the ``Mapping`` method: the column is ``data``."""
        for record in run_simulation(3, 200, seed=1).setting_records:
            assert sum(record.counts.values()) == 200
            probs = record.probabilities
            assert list(probs.values()) == list(dict(probs).values())
            assert list(probs.keys()) == list(probs)

    def test_report_maps_share_one_index(self):
        for record in run_simulation(3, 200, seed=1).setting_records:
            assert record.counts.index is record.probabilities.index
            assert list(record.counts.index) == sorted(record.counts.index)
            assert record.probabilities == {
                bits: count / 200 for bits, count in record.counts.items()
            }


def _count_reference(value, position):
    if isinstance(value, float) and not value.is_integer():
        raise ValueError(f"settings[{position}]: count {value!r} is not a whole number")
    count = int(value)
    if count < 0:
        raise ValueError(f"settings[{position}]: negative count {count}")
    return count


def _outcome_map_reference(entry, key, position):
    values = entry[key]
    _check_types((values,), dict, f"settings[{position}] {key}")
    _check_types(values.values(), numbers.Real, f"settings[{position}] {key}")
    return values


def parse_setting_reference(entry, n_qubits, position):
    """The setting-entry parser as it ran one outcome at a time, returning
    bitstring-keyed dicts in map order."""
    _check_types((entry,), dict, f"settings[{position}]")
    basis = entry.get("basis_word")
    if not isinstance(basis, str) or len(basis) != n_qubits:
        raise ValueError(f"settings[{position}]: basis word must have {n_qubits} letters")
    setting = MeasurementSetting(basis)
    if "probabilities" in entry:
        probs = _outcome_map_reference(entry, "probabilities", position)
        probs = {str(b): float(p) for b, p in probs.items()}
        counts = None
    elif "counts" in entry:
        counts = _outcome_map_reference(entry, "counts", position)
        counts = {str(b): _count_reference(c, position) for b, c in counts.items()}
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


_ODD_KEYS = st.sampled_from(
    ["", "0", "011", "01x", "0 1", " 01", "0é", "١٠", "０1", "0b", "_1", "-1", "+0"]
)
_NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
_ODD_PROBABILITIES = st.floats() | _NON_FINITE | st.sampled_from(
    [0, 1, -1, 2, 10**400, 2**64, -0.0, 0.0, 0.5, -0.5, 1e-300, 5e-324]
)
_ODD_COUNTS = st.integers(-3, 2**70) | st.floats() | _NON_FINITE | st.sampled_from(
    [10**400, 10**23, -0.0, 0.0, 2.0, 2.5, -3.0, 1e20, -1e-300]
)


@st.composite
def setting_entries(draw):
    """A setting entry for 1..4 qubits whose outcome map is valid or broken:
    keys of wrong length or letters, non-ASCII letters, NaN, infinities,
    negatives, fractional counts, huge numbers, empty maps, maps that do not
    sum to 1, zero entries and shuffled key order."""
    n = draw(st.integers(1, 4))
    kind = draw(st.sampled_from(["probabilities", "counts"]))
    keys = draw(st.lists(st.text("01", min_size=n, max_size=n), unique=True, max_size=8))
    weights = draw(st.lists(st.integers(0, 9), min_size=len(keys), max_size=len(keys)))
    total = sum(weights)
    if kind == "counts":
        values = weights
    else:
        values = [w / total for w in weights] if total else [0.0] * len(keys)
    outcomes = dict(zip(keys, values))
    odd_values = _ODD_COUNTS if kind == "counts" else _ODD_PROBABILITIES
    odd_keys = _ODD_KEYS | st.text("01", min_size=n, max_size=n) | st.text(max_size=n + 1)
    for _ in range(draw(st.integers(0, 2))):
        outcomes[draw(odd_keys)] = draw(odd_values)
    entry = {
        "basis_word": "X" * n,
        kind: dict(draw(st.permutations(list(outcomes.items())))),
    }
    terms = draw(st.sampled_from([None, None, ["X" * n], "X", [1]]))
    if terms is not None:
        entry["terms"] = terms
    return n, entry


_FAULTS = (
    "bad outcome", "non-finite", "negative probability", "negative count",
    "whole number", "empty counts", "sum to 1", "terms", "too large",
)


def _raised(parse, entry, n):
    try:
        return parse(entry, n, 3)
    except (ValueError, OverflowError) as exc:
        return exc


@settings(max_examples=1000, deadline=None)
@given(setting_entries())
def test_bulk_setting_parser_matches_outcome_loop(drawn):
    """The bulk parser gives the per-outcome parser's error message, or the
    same outcomes as key-sorted columns that share one index."""
    n, entry = drawn
    expected = _raised(parse_setting_reference, entry, n)
    got = _raised(_parse_setting_entry, entry, n)
    if isinstance(expected, Exception):
        faults = [fault for fault in _FAULTS if fault in str(expected)]
        event(f"refused: {faults[:1]}")
        assert type(got) is type(expected)
        assert str(got) == str(expected)
        return
    event("accepted")
    setting, probs, counts, terms = got
    assert setting == expected[0]
    assert terms == expected[3]
    keys = sorted(expected[1])
    assert list(probs.index) == [int(bits, 2) for bits in keys]
    assert probs.index.dtype == np.int64
    assert list(probs) == keys
    # bit for bit, so that -0.0 stays -0.0
    values = np.array([expected[1][bits] for bits in keys], dtype=np.float64)
    assert probs.data.dtype == np.float64
    assert probs.data.view(np.int64).tolist() == values.view(np.int64).tolist()
    if expected[2] is None:
        assert counts is None
    else:
        assert counts.index is probs.index
        assert counts.data == tuple(expected[2][bits] for bits in keys)
        assert set(map(type, counts.data)) <= {int}
