import json
import math

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from ringflow.circuits import MeasurementSetting, parity_sign
from ringflow.experiment import (
    _first_cover,
    BackflowCoefficients,
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
    word_masks,
)

from conftest import random_state_vector

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
                {"basis_word": s.basis_word, "counts": s.counts}
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
