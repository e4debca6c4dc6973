import dataclasses
import json
import math
import numbers
import os
import re
import subprocess
import sys
import warnings
from itertools import chain

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import ringflow.experiment
from ringflow.cli import main
from ringflow.circuits import (
    MeasurementSetting,
    backflow_prep_angles,
    measurement_circuit,
    parity_sign,
)
from ringflow.engine import (
    NormDriftError,
    apply_circuit,
    parity_expectations,
    rotated_settings,
    sample,
    z_probabilities,
)
from ringflow.experiment import (
    INPUT_KEYS,
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
    read_measurements,
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

from conftest import PEAK_SCRIPT, assert_same_text, child_env, random_state_vector
from oracles import binomial_flip_sample, covers

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
        with pytest.raises(ValueError, match=r"expected 4 coefficients, got shape \(2,\)"):
            BackflowCoefficients(2, np.array([1.0, 0.0]))

    @pytest.mark.parametrize(
        "a",
        [[1.2, 1.6], [0.3, 0.4], [0.5, 0.5, 0.5, 0.6], [1.0] * 8, [math.nan, 1.0],
         [0.0, 0.0, 0.0, 0.0]],
        ids=["long-pair", "short-pair", "two-qubits", "three-qubits", "nan", "zero"],
    )
    def test_type_refuses_a_norm_off_one(self, a):
        """The norm is checked where the coefficients are made, by
        ``exact_current``'s rule, with one answer at every N: no later step
        renormalizes them or refuses them for a low fidelity instead."""
        with pytest.raises(ValueError, match="coefficients not normalized"):
            BackflowCoefficients(len(a).bit_length() - 1, a)

    def test_type_keeps_a_norm_within_1e_9(self):
        a = np.array([0.6, 0.8]) * (1 + 5e-10)
        assert np.array_equal(BackflowCoefficients(1, a).a, a)

    @pytest.mark.parametrize(
        "make", [backflow_coefficients, closed_form_current],
        ids=["coefficients", "closed-form"],
    )
    def test_zero_qubits_refused(self, make):
        with pytest.raises(ValueError, match="need at least one qubit"):
            make(0)

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

    def test_rejects_nan(self):
        with pytest.raises(ValueError, match=r"not normalized \(norm nan\)"):
            exact_current([math.nan, 0.0])

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

    @pytest.mark.parametrize(
        "theta0, message",
        [
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (10**400, "is too large for a float"),
            (True, "must be a number, got bool"),
            ("0.5", "must be a number, got str"),
        ],
        ids=["nan", "inf", "-inf", "10**400", "True", "'0.5'"],
    )
    def test_refuses_an_angle_analyze_refuses(self, theta0, message):
        """The ring angle is read by ``analyze``'s rule: a NaN angle gave a
        NaN current, an infinite one a norm warning, and True or "0.5" ran."""
        with pytest.raises(ValueError, match=f"theta0 {message}"):
            exact_current(backflow_coefficients(2), theta0)

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

    def test_reports_compare_by_value(self):
        """Two runs of one seed are equal reports, field by field, the term
        columns by ``TermRecords``' own equality; a term's value, or the
        seed, tells two reports apart."""
        one, two = (run_simulation(3, 100, seed=4) for _ in range(2))
        assert one.term_records is not two.term_records
        assert one == two
        assert one != run_simulation(3, 100, seed=5)
        terms = one.term_records
        expectation = terms.expectation.copy()
        expectation[-1] = -expectation[-1] or 1.0
        changed = TermRecords(
            terms.words, terms.coeffs, terms.setting_index, terms.bases,
            expectation, terms.std_error,
        )
        assert one != dataclasses.replace(one, term_records=changed)
        assert one == dataclasses.replace(one, term_records=TermRecords(
            terms.words, terms.coeffs, terms.setting_index, terms.bases,
            terms.expectation.copy(), terms.std_error,
        ))

    def test_rejects_zero_shots(self):
        with pytest.raises(ValueError):
            run_simulation(1, 0)

    @pytest.mark.parametrize("shots", [100.5, 100.0, True], ids=repr)
    def test_shot_count_must_be_an_int(self, shots):
        """A float or a bool is refused, naming it: 100.5 drew 100 shots a
        setting but divided by 100.5, and True printed as the shot count."""
        with pytest.raises(ValueError, match=f"must be an integer, got {shots!r}"):
            run_simulation(3, shots, seed=1)

    @pytest.mark.parametrize("shots", [None, 10], ids=["exact", "shots"])
    @pytest.mark.parametrize(
        "theta0, message",
        [
            (math.nan, "must be finite, got nan"),
            (math.inf, "must be finite, got inf"),
            (-math.inf, "must be finite, got -inf"),
            (True, "must be a number, got bool"),
            ("0.5", "must be a number, got str"),
        ],
        ids=["nan", "inf", "-inf", "True", "'0.5'"],
    )
    def test_refuses_an_angle_analyze_refuses(self, shots, theta0, message):
        """theta0=True ran at the angle 1.0, "0.5" at 0.5, and an infinite
        angle failed on a NaN norm after a RuntimeWarning."""
        with pytest.raises(ValueError, match=f"theta0 {message}"):
            run_simulation(2, shots, seed=1, theta0=theta0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"seed": True}, "seed must be a non-negative integer, got True"),
            ({"seed": 1.0}, "seed must be a non-negative integer, got 1.0"),
            ({"seed": "1"}, "seed must be a non-negative integer, got '1'"),
            ({"seed": -1}, "seed must be a non-negative integer, got -1"),
            ({"grouped": "no"}, "grouped must be a bool, got 'no'"),
            ({"grouped": 0}, "grouped must be a bool, got 0"),
            ({"grouped": None}, "grouped must be a bool, got None"),
        ],
        ids=["seed-True", "seed-float", "seed-str", "seed-negative", "grouped-str",
             "grouped-int", "grouped-None"],
    )
    def test_refuses_a_seed_or_grouping_it_would_misreport(self, kwargs, message):
        """seed=True drew with seed 1 and grouped="no" ran grouped, but the
        report wrote both as given."""
        with pytest.raises(ValueError, match=re.escape(message)):
            run_simulation(2, 10, **kwargs)

    def test_exact_mode_refuses_a_readout_flip(self):
        """Exact probabilities take no flip channel; the report would record
        a flip that was never applied."""
        with pytest.raises(ValueError, match="readout flip needs sampling"):
            run_simulation(3, None, readout_flip=0.9)
        with pytest.raises(ValueError, match="readout flip needs sampling"):
            run_simulation(3, None, readout_flip=0.01)
        assert run_simulation(3, None, readout_flip=0.0).readout_flip == 0.0

    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "per-term"])
    @pytest.mark.parametrize("flip", [0.5, 0.7, -0.1, math.nan, math.inf, -math.inf])
    def test_flip_outside_its_range_is_refused_before_any_draw(
        self, monkeypatch, grouped, flip
    ):
        """The flip is checked once per run, before the layout's rows are
        drawn from: 0.7 once returned a J when the channel moved out of
        ``sample``."""
        def no_draw(*args, **kwargs):
            raise AssertionError("drew shots with a flip out of range")

        monkeypatch.setattr(ringflow.experiment, "sample", no_draw)
        with pytest.raises(ValueError, match=r"must lie in \[0, 0\.5\)"):
            run_simulation(2, 100, seed=1, grouped=grouped, readout_flip=flip)

    def test_flip_draws_follow_the_per_shot_law(self, monkeypatch):
        """``j_estimate`` at N = 4, flip 0.01 and 8 000 shots, over 200 seeds,
        with the multinomial draw from A P and with per-shot binomial flips:
        each mean lies within 4.5 standard errors of the (1 - 2p)^weight
        model and of the other's mean, and the two spreads agree within
        [0.75, 1.33] (the standard error of an SD ratio over 200 seeds is
        about 0.07)."""
        n, shots, flip, seeds = 4, 8000, 0.01, 200
        exact = run_exact(n)
        model = exact.identity_weight + math.fsum(
            r.coeff * (1 - 2 * flip) ** (n - r.word.count("I")) * r.expectation
            for r in exact.term_records
        )
        model /= 4 * math.pi
        new = [run_simulation(n, shots, seed=s, readout_flip=flip).j_estimate
               for s in range(seeds)]
        with monkeypatch.context() as patch:
            patch.setattr(ringflow.experiment, "readout_channel", lambda block, p: block)
            patch.setattr(
                ringflow.experiment,
                "sample",
                lambda dist, shots, seed: binomial_flip_sample(
                    dist.probabilities, shots, seed, flip
                ),
            )
            old = [run_simulation(n, shots, seed=s, readout_flip=flip).j_estimate
                   for s in range(seeds)]
        assert old != new
        sd_new, sd_old = np.std(new, ddof=1), np.std(old, ddof=1)
        for estimates, sd in ((new, sd_new), (old, sd_old)):
            assert abs(np.mean(estimates) - model) < 4.5 * sd / math.sqrt(seeds)
        gap = abs(np.mean(new) - np.mean(old))
        assert gap < 4.5 * math.hypot(sd_new, sd_old) / math.sqrt(seeds)
        assert 0.75 < sd_new / sd_old < 1.33

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
    state, prep = _prepared_state(coeffs)
    words, term_coeffs = decomp.words, decomp.coeffs
    mx, _, mz = word_masks(words, n_qubits)
    parity_masks = mx | mz
    if grouped:
        zmasks, setting = setting_plan(mz, n_qubits)
        plan = [(z, np.flatnonzero(setting == k)) for k, z in enumerate(zmasks.tolist())]
    else:
        full = (1 << n_qubits) - 1
        plan = list(zip((full ^ mx).tolist(), np.arange(len(words))[:, None]))
    sampling = shots_per_setting is not None
    # the term columns in record order: setting by setting, in plan order
    record_words, record_coeffs, term_setting, expectation = [], [], [], []
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
        terms = tuple(map(words.__getitem__, members.tolist()))
        record_words += terms
        record_coeffs += [term_coeffs[i] for i in members.tolist()]
        term_setting += [k] * len(members)
        parities = parity_expectations(outcomes.copy())[parity_masks[members]]
        expectation += parities.tolist()
        nonzero = np.flatnonzero(outcomes)
        setting_records.append(
            SettingRecord(
                setting.basis_word,
                Outcomes(n_qubits, nonzero, outcomes[nonzero]),
                Outcomes(n_qubits, nonzero, tuple(counts[nonzero].tolist()))
                if sampling
                else None,
                entropy,
                terms,
            )
        )
    expectation = np.array(expectation)
    if sampling:
        variance = np.maximum(0.0, 1.0 - expectation * expectation) / shots_per_setting
        std_error = np.sqrt(variance)
    else:
        std_error = None
    term_records = TermRecords(
        tuple(record_words),
        record_coeffs,
        term_setting,
        [s.basis_word for s in setting_records],
        expectation,
        std_error,
    )
    return _finish_report(
        "shots" if sampling else "exact",
        decomp.identity_weight,
        term_records,
        setting_records,
        n_qubits,
        exact_current(coeffs.a),
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


class TestPerTermBlocks:
    """A per-term run fills, samples and transforms its outcome table a
    bounded block of settings at a time."""

    @pytest.mark.parametrize("n", [3, 5, 6])
    @pytest.mark.parametrize("rows", [1, 3, 64])
    @pytest.mark.parametrize(
        "shots, flip", [(None, 0.0), (500, 0.0), (500, 0.05)], ids=["exact", "shots", "flip"]
    )
    def test_blocks_give_the_per_gate_report(self, monkeypatch, n, rows, shots, flip):
        calls = counting_transforms(monkeypatch)
        monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", rows << n)
        # a layout built under these blocks, so that each block makes its rows
        monkeypatch.setattr(ringflow.experiment, "_LAYOUTS", {})
        got = run_simulation(n, shots, seed=n, grouped=False, readout_flip=flip)
        want = run_simulation_per_gate(n, shots, n, False, flip)
        assert_same_text(
            json.dumps(got.to_dict(), indent=1, sort_keys=True),
            json.dumps(want.to_dict(), indent=1, sort_keys=True),
        )
        settings_ = len(got.setting_records)
        assert calls == [min(rows, settings_ - start) for start in range(0, settings_, rows)]

    @pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
    def test_ten_qubit_per_term_peak_memory(self, tmp_path):
        """``current --mode exact --n 10 --per-term`` (6 143 settings of 1 024
        outcomes) peaks at no more than 150 MB, read by the child itself."""
        target = tmp_path / "report.json"
        argv = ["current", "--mode", "exact", "--n", "10", "--per-term", "--output", str(target)]
        done = subprocess.run(
            [sys.executable, "-c", PEAK_SCRIPT, json.dumps(argv)],
            env=child_env(), capture_output=True, text=True, timeout=300,
        )
        assert done.returncode == 0, done.stderr
        code, peak_kb = map(int, done.stdout.split())
        assert code == 0
        assert target.stat().st_size > 50e6
        assert peak_kb <= 150 * 1024, f"peak {peak_kb / 1024:.0f} MB"


class TestBlocks:
    """Every plan, and every analysis, is recombined in blocks of at most
    _BLOCK_ENTRIES outcome-table entries by the one loop ``_expectations``."""

    @pytest.mark.parametrize(
        "shots, flip", [(None, 0.0), (500, 0.0), (500, 0.05)], ids=["exact", "shots", "flip"]
    )
    def test_grouped_blocks_give_the_per_gate_report(self, monkeypatch, shots, flip):
        calls = counting_transforms(monkeypatch)
        monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", 3 << 6)
        monkeypatch.setattr(ringflow.experiment, "_LAYOUTS", {})
        got = run_simulation(6, shots, seed=4, readout_flip=flip)
        assert ringflow.experiment._layout(6, True).outcomes is None
        want = run_simulation_per_gate(6, shots, 4, True, flip)
        assert_same_text(
            json.dumps(got.to_dict(), indent=1, sort_keys=True),
            json.dumps(want.to_dict(), indent=1, sort_keys=True),
        )
        assert calls == [3, 3, 1]

    def test_grouped_run_is_blocked(self, monkeypatch):
        """One transform of the whole table while it fits one block, one
        per row with blocks of one row, from the same layout."""
        calls = counting_transforms(monkeypatch)
        report = run_simulation(6, 100, seed=2)
        assert calls == [7]
        monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", 1)
        assert run_simulation(6, 100, seed=2).to_dict() == report.to_dict()
        assert calls == [7] + [1] * 7
        assert report.to_dict() == run_simulation_per_gate(6, 100, 2, True, 0.0).to_dict()

    @pytest.mark.parametrize("rows", [1, 3, 64])
    def test_analyze_blocks_give_the_same_bytes(self, monkeypatch, capsys, tmp_path, rows):
        """``analyze`` of a per-term shots report, full and counts only,
        prints the same bytes with small blocks as with the default ones."""
        data = run_simulation(5, 300, seed=3, grouped=False).to_dict()
        counts = {
            "n": 5,
            "settings": [
                {"basis_word": s["basis_word"], "counts": s["counts"]} for s in data["settings"]
            ],
        }
        paths = [tmp_path / "full.json", tmp_path / "counts.json"]
        for path, payload in zip(paths, (data, counts)):
            path.write_text(json.dumps(payload))

        def analyze():
            texts = []
            for path in paths:
                assert main(["analyze", "--input", str(path)]) == 0
                texts.append(capsys.readouterr().out)
            return texts

        want = analyze()
        calls = counting_transforms(monkeypatch)
        monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", rows << 5)
        assert analyze() == want
        settings_ = len(data["settings"])
        assert calls == 2 * [min(rows, settings_ - start) for start in range(0, settings_, rows)]


def counting_transforms(monkeypatch) -> list:
    """Record the rows of each outcome table that ``experiment`` transforms."""
    calls = []
    transform = ringflow.experiment.parity_expectations

    def counting(table):
        calls.append(len(table))
        return transform(table)

    monkeypatch.setattr(ringflow.experiment, "parity_expectations", counting)
    return calls


_CASES = [(4, 700, 12, 0.01, True), (4, None, None, 0.0, True), (3, 300, 5, 0.1, False)]

_REPORT_TEXTS = """
import json, sys
from ringflow.experiment import run_simulation
texts = [
    json.dumps(run_simulation(n, shots, seed=seed, grouped=grouped, readout_flip=flip)
               .to_dict(), sort_keys=True)
    for n, shots, seed, flip, grouped in json.loads(sys.argv[1])
]
print(json.dumps(texts))
"""


class TestLayout:
    """What depends on N alone is built once per (N, grouping) and shared
    read-only by the reports made from it."""

    def test_reports_equal_those_of_a_fresh_process(self):
        for n, seed, flip in [(5, 3, 0.0), (2, 9, 0.1), (4, 1, 0.3), (3, 2, 0.0)]:
            run_simulation(n, 500, seed=seed, readout_flip=flip)
            run_simulation(n, None, grouped=False)
        here = [
            json.dumps(
                run_simulation(n, shots, seed=seed, grouped=grouped, readout_flip=flip)
                .to_dict(), sort_keys=True,
            )
            for n, shots, seed, flip, grouped in _CASES
        ]
        child = subprocess.run(
            [sys.executable, "-c", _REPORT_TEXTS, json.dumps(_CASES)],
            env=child_env(), capture_output=True, text=True, check=True,
        )
        assert json.loads(child.stdout) == here

    @pytest.mark.parametrize("column", ["setting_index", "coeffs"])
    def test_shared_columns_are_read_only(self, column):
        report = run_simulation(3, 100, seed=1)
        with pytest.raises(ValueError, match="read-only"):
            getattr(report.term_records, column)[0] = 5
        assert report.to_dict() == run_simulation(3, 100, seed=1).to_dict()

    def test_prep_is_each_reports_own(self):
        first = run_simulation(2, 100, seed=1)
        first.prep["angles"]["alpha0"] = 0.0
        first.prep["method"] = "changed"
        second = run_simulation(2, 100, seed=1)
        assert second.prep["angles"] == backflow_prep_angles(backflow_coefficients(2))
        assert second.prep["method"] == "rotation-synthesis"

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_one_coefficient_object_per_layout(self, monkeypatch, n):
        """A layout builds the family's coefficients once and prepares that
        object: the circuits derive no copy of their own, and the layout
        keeps none."""
        calls = []
        family = ringflow.experiment.backflow_coefficients
        monkeypatch.setattr(
            ringflow.experiment,
            "backflow_coefficients",
            lambda n: calls.append(n) or family(n),
        )
        layout = ringflow.experiment._build_layout(n, True)
        assert calls == [n]
        assert not hasattr(layout, "family")

    @pytest.mark.parametrize(
        "n, a",
        [(1, [0.6, 0.8]), (2, [0.6, 0.0, 0.0, 0.8]), (3, np.roll(backflow_coefficients(3).a, 1))],
        ids=["rotation-1", "rotation-2", "amplitude-load"],
    )
    def test_prepared_state_is_its_argument(self, n, a):
        state, _ = _prepared_state(BackflowCoefficients(n, a))
        np.testing.assert_allclose(state.amplitudes, a, rtol=0, atol=1e-12)

    def test_prepared_state_refuses_a_target_the_circuit_cannot_reach(self):
        """A two-qubit vector with a nonzero |10> amplitude is refused, not
        replaced by the family."""
        with pytest.raises(RuntimeError, match="fidelity"):
            _prepared_state(BackflowCoefficients(2, [0.5, 0.5, 0.5, 0.5]))

    def test_built_once_per_register_up_to_the_cache_size(self, monkeypatch):
        calls = []
        decompose = ringflow.experiment.current_decomposition
        monkeypatch.setattr(
            ringflow.experiment,
            "current_decomposition",
            lambda n: calls.append(n) or decompose(n),
        )
        monkeypatch.setattr(ringflow.experiment, "_LAYOUTS", {})
        for seed in range(10):
            run_simulation(4, 200, seed=seed, readout_flip=0.01 * (seed % 2))
        assert calls == [4]
        assert ringflow.experiment.LAYOUT_CACHE_QUBITS < 13
        run_simulation(13, 10, seed=1)
        run_simulation(13, 10, seed=2)
        assert calls == [4, 13, 13]

    def test_rotated_norm_is_checked(self, monkeypatch):
        """A sweep that loses norm fails the run rather than being sampled:
        at the layout's build where the plan's rows fit one block, and in
        each block of the run where they do not."""
        sweep = ringflow.experiment.rotated_settings

        def drifting(*args):
            for k, parts in sweep(*args):
                yield k, [part * (1.0 + 1e-6) for part in parts]

        monkeypatch.setattr(ringflow.experiment, "rotated_settings", drifting)
        for entries in (ringflow.experiment._BLOCK_ENTRIES, 8):
            monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", entries)
            for grouped in (True, False):
                for shots in (100, None):
                    # an empty cache, so that the layout is built anew
                    monkeypatch.setattr(ringflow.experiment, "_LAYOUTS", {})
                    with pytest.raises(NormDriftError, match="norm drifted"):
                        run_simulation(3, shots, seed=1, grouped=grouped)
                    # a layout without rows is built, and the run's block fails
                    assert bool(ringflow.experiment._LAYOUTS) == (entries == 8)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_outcome_rows_are_read_only_fresh_squares(self, n, monkeypatch):
        """A layout has its plan's exact rows if and only if the whole table
        fits one block, and they stay bit-equal to a fresh sweep after
        sampled and exact runs have read them."""
        for grouped in (True, False):
            run_simulation(n, 50, seed=n, grouped=grouped, readout_flip=0.01)
            run_simulation(n, None, grouped=grouped)
            layout = ringflow.experiment._layout(n, grouped)
            fresh = np.empty((len(layout.zmasks), 1 << n))
            if fresh.size > ringflow.experiment._BLOCK_ENTRIES:
                assert layout.outcomes is None
                continue
            rows = layout.outcomes
            with pytest.raises(ValueError, match="read-only"):
                rows[0, 0] = 0.5
            for k, parts in rotated_settings(layout.amplitudes, n, layout.zmasks):
                np.square(parts[0], out=fresh[k])
                if len(parts) > 1:
                    fresh[k] += np.square(parts[1])
            assert rows.tobytes() == fresh.tobytes()
            # one entry fewer in a block, and the layout has no rows
            monkeypatch.setattr(ringflow.experiment, "_BLOCK_ENTRIES", fresh.size - 1)
            assert ringflow.experiment._build_layout(n, grouped).outcomes is None
            monkeypatch.undo()
        assert (ringflow.experiment._layout(n, False).outcomes is None) == (n == 8)

    @pytest.mark.parametrize("flip", [0.0, 0.01])
    def test_a_seed_repeats_its_report_after_another_seed(self, monkeypatch, flip):
        def text(seed):
            report = run_simulation(4, 300, seed=seed, readout_flip=flip)
            return json.dumps(report.to_dict(), sort_keys=True)

        first, second, third = text(1), text(2), text(1)
        assert first == third != second
        monkeypatch.setattr(ringflow.experiment, "_LAYOUTS", {})
        assert text(1) == first

    def test_qubit_count_checked_before_the_lookup(self):
        """2.0 hashes like 2, so it is refused as before any layout is read."""
        run_simulation(2, 10, seed=1)
        for bad in (2.0, True, 0):
            with pytest.raises(ValueError, match=f"positive integer, got {bad!r}"):
                run_simulation(bad, 10, seed=1)


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


@pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "per-term"])
@pytest.mark.parametrize("shots", [None, 500], ids=["exact", "shots"])
@pytest.mark.parametrize("theta0", [0.0, 0.7])
def test_term_records_run_setting_by_setting(grouped, shots, theta0):
    """A run report's term columns are in record order: the setting index
    never decreases, and the words are the settings' terms one after
    another, in the term list as in the columns."""
    for n in range(1, 7):
        report = run_simulation(n, shots, seed=n, grouped=grouped, theta0=theta0)
        records = report.term_records
        assert (np.diff(records.setting_index) >= 0).all()
        terms = tuple(chain.from_iterable(s.terms for s in report.setting_records))
        assert records.words == terms
        assert tuple(term["word"] for term in report.to_dict()["terms"]) == terms


_BOUNDS = st.none() | st.integers(-14, 14)


@given(_BOUNDS, _BOUNDS, st.none() | st.integers(-4, 4).filter(bool))
@example(0, 2, None)
@example(None, None, -1)
@example(-2, 1, -3)
@example(3, 1, None)
def test_term_records_take_slices(start, stop, step):
    """A slice of the records is the tuple of those records, with and
    without errors and settings."""
    supplied = {
        "n": 2,
        "expectations": [
            {"word": r.word, "value": r.expectation} for r in run_exact(2).term_records
        ],
    }
    for report in (
        run_exact(2), run_simulation(2, 100, seed=1), ingest_measurements(None, supplied)
    ):
        records = report.term_records
        assert records[start:stop:step] == tuple(records)[start:stop:step]


class TestRunExact:
    def test_zero_angle_uses_estimator(self):
        report = run_exact(2)
        assert report.term_records
        assert abs(report.j_estimate - report.j_exact) < 1e-12

    def test_nonzero_angle_uses_estimator(self):
        """A nonzero angle is a phase on the prepared state: the report has
        the words and bases of theta0 = 0 and reads J at the angle."""
        zero, report = run_exact(2), run_exact(2, theta0=0.7)
        assert report.theta0 == 0.7
        assert report.term_records.words == zero.term_records.words
        assert report.term_records.bases == zero.term_records.bases
        assert [s.basis_word for s in report.setting_records] == [
            s.basis_word for s in zero.setting_records
        ]
        assert report.identity_weight == 2**2 - 1
        j = exact_current(backflow_coefficients(2).a, 0.7)
        assert abs(report.j_estimate - j) < 1e-12

    @pytest.mark.parametrize("n", range(1, 9))
    def test_j_exact_is_the_current_at_the_angle(self, n):
        """``j_exact`` is J at theta0, which ``j_estimate`` reads to the
        estimator's bound at theta0 = 0."""
        a = backflow_coefficients(n).a
        for theta0 in (0.5, -1.2, 2.0, math.pi):
            report = run_exact(n, theta0=theta0)
            assert report.j_exact == exact_current(a, theta0)
            assert abs(report.j_estimate - report.j_exact) < 1e-12

    @pytest.mark.parametrize("theta0", [0.7, 1e6, 1e300, 1e308])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_prepared_state_and_j_exact_share_one_phase(self, n, theta0):
        """The state takes the phases ``exact_current`` uses, made in
        extended precision, where m * theta0 is finite for every m below
        2^N: at 1e300 a float64 phase read J as 0.0537 against 0.0780, and
        at 1e308 it overflowed to NaN."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = run_exact(n, theta0=theta0)
        assert report.j_exact == exact_current(backflow_coefficients(n).a, theta0)
        assert abs(report.j_estimate - report.j_exact) <= 1e-12 * abs(report.j_exact)

    @pytest.mark.parametrize(
        "grouped, sizes", [(True, range(1, 9)), (False, range(1, 7))],
        ids=["grouped", "per-term"],
    )
    def test_every_angle_is_right(self, grouped, sizes):
        """Over 61 angles in [-pi, pi], where J changes sign more than once,
        the exact report reads J at the angle and has no closed form."""
        for n in sizes:
            a = backflow_coefficients(n).a
            for theta0 in np.linspace(-math.pi, math.pi, 61).tolist():
                report = run_exact(n, theta0=theta0, grouped=grouped)
                assert abs(report.j_estimate - exact_current(a, theta0)) < 1e-12
                if theta0 != 0.0:
                    assert report.j_closed_form is None
                    assert report.relative_error is None

    def test_shots_at_an_angle_are_unbiased(self):
        """The mean over 40 seeds lies within 4 standard errors of J(0.5),
        the errors taken from the spread over seeds."""
        estimates = [
            run_simulation(3, 8000, seed=seed, theta0=0.5).j_estimate
            for seed in range(40)
        ]
        error = np.std(estimates, ddof=1) / math.sqrt(len(estimates))
        j = exact_current(backflow_coefficients(3).a, 0.5)
        assert abs(np.mean(estimates) - j) < 4 * error

    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "per-term"])
    @pytest.mark.parametrize("shots", [None, 500], ids=["exact", "shots"])
    def test_angle_reports_reingest_to_their_estimate(self, grouped, shots):
        for n, theta0 in ((1, 0.5), (3, -2.0), (4, math.pi)):
            report = run_simulation(n, shots, seed=n, grouped=grouped, theta0=theta0)
            again = ingest_measurements(None, report.to_dict())
            assert again.j_estimate == report.j_estimate

    @pytest.mark.parametrize("grouped", [True, False], ids=["grouped", "per-term"])
    @pytest.mark.parametrize("shots", [None, 500], ids=["exact", "shots"])
    def test_angle_reports_reingest_to_their_exact_values(self, grouped, shots):
        """``ingest_measurements`` reads the report's ``theta0``: the same
        angle, ``j_exact``, ``j_closed_form`` and ``relative_error``."""
        fields = ("theta0", "j_estimate", "j_exact", "j_closed_form", "relative_error")
        for n, theta0 in ((1, 0.5), (3, -2.0), (4, 0.0), (2, -0.0)):
            report = run_simulation(n, shots, seed=n, grouped=grouped, theta0=theta0)
            again = ingest_measurements(None, report.to_dict())
            for field in fields:
                assert getattr(again, field) == getattr(report, field), field
            supplied = {
                "n": n,
                "theta0": theta0,
                "expectations": [
                    {"word": r.word, "value": r.expectation} for r in report.term_records
                ],
            }
            assert ingest_measurements(None, supplied).j_exact == report.j_exact

    def test_angle_layout_is_not_kept(self):
        layouts = ringflow.experiment._LAYOUTS
        cached = run_exact(3)
        before = dict(layouts)
        for theta0 in (0.5, -1.0, 0.5):
            run_exact(3, theta0=theta0)
            run_simulation(2, 100, seed=1, theta0=theta0)
        assert layouts.keys() == before.keys()
        assert all(layouts[key] is layout for key, layout in before.items())
        assert run_exact(3).to_dict() == cached.to_dict()


class TestIngestMeasurements:
    @pytest.mark.parametrize(
        "value, message",
        [
            (math.nan, "must be finite"),
            (math.inf, "must be finite"),
            (-math.inf, "must be finite"),
            (10**400, "is too large"),
            (None, "must be a number"),
            ("0.5", "must be a number"),
            (True, "must be a number"),
            ([0.5], "must be a number"),
        ],
        ids=["nan", "inf", "-inf", "10**400", "null", "string", "true", "list"],
    )
    def test_theta0_must_be_a_finite_number(self, value, message):
        data = run_exact(2).to_dict()
        data["theta0"] = value
        with pytest.raises(ValueError, match=f"'theta0' {message}"):
            ingest_measurements(None, data)

    def test_missing_theta0_reads_as_zero(self):
        data = run_exact(2).to_dict()
        del data["theta0"]
        again = ingest_measurements(None, data)
        assert again.theta0 == 0.0
        assert again.j_exact == run_exact(2).j_exact

    @pytest.mark.parametrize(
        "value, message",
        [
            (0.5, "readout flip probability must lie in"),
            (0.7, "readout flip probability must lie in"),
            (-0.1, "readout flip probability must lie in"),
            (math.nan, "'readout_flip' must be finite"),
            (math.inf, "'readout_flip' must be finite"),
            (10**400, "'readout_flip' is too large"),
            (None, "'readout_flip' must be a number"),
            ("0.01", "'readout_flip' must be a number"),
            (True, "'readout_flip' must be a number"),
            (False, "'readout_flip' must be a number"),
        ],
        ids=["0.5", "0.7", "-0.1", "nan", "inf", "10**400", "null", "string", "true", "false"],
    )
    def test_readout_flip_must_be_a_probability_below_one_half(self, value, message):
        data = run_simulation(2, 100, seed=1, readout_flip=0.01).to_dict()
        data["readout_flip"] = value
        with pytest.raises(ValueError, match=re.escape(message)):
            ingest_measurements(None, data)

    @pytest.mark.parametrize("per_term", [False, True], ids=["grouped", "per-term"])
    def test_readout_flip_is_echoed(self, per_term):
        """The report's flip comes back with its estimate; nothing mitigates it."""
        report = run_simulation(3, 500, seed=5, grouped=not per_term, readout_flip=0.01)
        again = ingest_measurements(None, report.to_dict())
        assert again.readout_flip == 0.01
        assert again.j_estimate == report.j_estimate

    @pytest.mark.parametrize("value", ["absent", 0, -0.0, 0.0])
    def test_missing_or_zero_readout_flip_reads_as_zero(self, value):
        data = run_exact(2).to_dict()
        if value == "absent":
            del data["readout_flip"]
        else:
            data["readout_flip"] = value
        again = ingest_measurements(None, data)
        assert again.readout_flip == 0.0 and math.copysign(1.0, again.readout_flip) == 1.0
        assert again.to_dict() == ingest_measurements(None, run_exact(2).to_dict()).to_dict()

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

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_coverage_message_names_the_four_smallest(self, data):
        n = data.draw(st.integers(1, 4), label="n")
        expected = set(current_decomposition(n).words)
        kept = data.draw(st.lists(st.sampled_from(sorted(expected)), unique=True), label="kept")
        near = st.text("IXYZ", max_size=n + 1)
        unknown = data.draw(
            st.lists(
                st.one_of(near, st.text(max_size=3)).filter(lambda word: word not in expected),
                unique=True,
                max_size=6,
            ),
            label="unknown",
        )
        words = data.draw(st.permutations(kept + unknown), label="order")
        supplied = {"n": n, "expectations": [{"word": word, "value": 0.5} for word in words]}
        if set(words) == expected:
            ingest_measurements(None, supplied)
            return
        # both differences sorted in full
        message = (
            "expectations must cover exactly the expansion terms; "
            f"missing {sorted(expected - set(words))[:4]}, "
            f"unknown {sorted(set(words) - expected)[:4]}"
        )
        with pytest.raises(ValueError) as exc:
            ingest_measurements(None, supplied)
        assert str(exc.value) == message

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            ingest_measurements(None, {"n": 1})
        with pytest.raises(ValueError):
            ingest_measurements(None, [1, 2, 3])


def small_report_text() -> str:
    """A one-qubit shots report that also lists expectations, so the text
    holds every key of ``INPUT_KEYS`` among keys that ingest never reads."""
    data = run_simulation(1, 50, seed=3, readout_flip=0.01, theta0=0.5).to_dict()
    data["expectations"] = [
        {"word": t["word"], "value": t["expectation"]} for t in data["terms"]
    ]
    return json.dumps(data, indent=2, sort_keys=True)


def assert_reads_as_loads(text: str) -> None:
    """``read_measurements`` gives ``json.loads``' object restricted to
    ``INPUT_KEYS`` (any other value unchanged), or raises its exception
    type with its message."""
    try:
        want = json.loads(text)
    except (ValueError, RecursionError) as exc:
        with pytest.raises(type(exc)) as raised:
            read_measurements(text)
        assert raised.type is type(exc)
        assert str(raised.value) == str(exc)
        return
    if isinstance(want, dict):
        want = {key: value for key, value in want.items() if key in INPUT_KEYS}
    # repr tells 1 from 1.0 and matches NaN with NaN
    assert repr(read_measurements(text)) == repr(want)


class RecordingMapping(dict):
    """A dict that records every key looked up in it, and refuses to be
    walked, which would read keys unnamed."""

    def __init__(self, data):
        super().__init__(data)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)

    def __contains__(self, key):
        self.read.add(key)
        return super().__contains__(key)

    def get(self, key, default=None):
        self.read.add(key)
        return super().get(key, default)

    def _walked(self, *args):
        raise AssertionError("the mapping was walked")

    __iter__ = keys = values = items = copy = _walked


_JSON_CHARACTERS = st.sampled_from(list('{}[]",:.-+0123456789eEaflnrstuyINi\\/ \t\r\n'))


class TestReadMeasurements:
    def test_every_prefix_reads_as_json_loads(self):
        text = small_report_text()
        for end in range(len(text) + 1):
            assert_reads_as_loads(text[:end])

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_one_character_changes_read_as_json_loads(self, data):
        text = small_report_text()
        at = data.draw(st.integers(0, len(text)))
        character = data.draw(_JSON_CHARACTERS | st.characters())
        if at < len(text) and data.draw(st.booleans()):
            text = text[:at] + character + text[at + 1:]
        else:
            text = text[:at] + character + text[at:]
        assert_reads_as_loads(text)

    @pytest.mark.parametrize(
        "text",
        [
            '{"n": 1, "n": 2}',
            '{"x": 1, "n": 3, "x": {"a": [2.5]}}',
            "{}",
            " { } ",
            "[1, 2]",
            '"n"',
            "3",
            '\ufeff{"n": 1}',
            '{\r\n\t"n"\t:\r\n 2 ,\t"x" : [ ]\r\n}\r\n',
            '{"n": 1} x',
            '{"n": 1}{}',
            '{"n": 1,}',
            '{"n" 1}',
            '{"n": 1 "x": 2}',
            '{"n": 1, "x": [NaN, Infinity, -Infinity]}',
            '{"n": 1, "x": 1' + "0" * 4999 + "}",
            '{"n": 1, "terms": [{"word": "X\\q", "coeff": 1.0}]}',
            '{"n": 1, "x": ' + "[" * 100_000 + "]" * 100_000 + "}",
            '{"settings": ' + "[" * 100_000 + "]" * 100_000 + "}",
        ],
        ids=["duplicate-kept", "duplicate-dropped", "empty", "empty-spaced", "list",
             "string", "number", "bom", "crlf-tab", "trailing-text", "trailing-object",
             "trailing-comma", "no-colon", "no-comma", "non-finite-dropped",
             "5000-digits-dropped", "bad-escape-in-terms", "deep-dropped",
             "deep-settings"],
    )
    def test_named_cases_read_as_json_loads(self, text):
        assert_reads_as_loads(text)

    @pytest.mark.parametrize(
        "source", ["n1-file", "n2-file", "shots", "per-term", "counts", "expectations"]
    )
    def test_ingest_reads_no_key_outside_input_keys(self, data_dir, source):
        if source.endswith("-file"):
            name = {"n1": "backflow_n1_probabilities", "n2": "backflow_n2_expectations"}
            data = json.loads((data_dir / f"{name[source[:2]]}.json").read_text())
        else:
            report = run_simulation(
                3, 200, seed=2, grouped=source != "per-term", readout_flip=0.01, theta0=0.3
            ).to_dict()
            data = {
                "shots": report,
                "per-term": report,
                "counts": {"n": 3, "settings": [
                    {"basis_word": s["basis_word"], "counts": s["counts"]}
                    for s in report["settings"]
                ]},
                "expectations": {"n": 3, "expectations": [
                    {"word": t["word"], "value": t["expectation"]} for t in report["terms"]
                ]},
            }[source]
        recording = RecordingMapping(data)
        report = ingest_measurements(None, recording)
        assert recording.read <= INPUT_KEYS, recording.read - INPUT_KEYS
        again = ingest_measurements(None, read_measurements(json.dumps(data)))
        assert again.to_dict() == report.to_dict()


def covers_loop_owner(words, basis_words):
    """First covering setting of each word by the ``covers`` oracle, -1
    where none covers it: the assignment as it ran one word at a time."""
    settings_ = [MeasurementSetting(b) for b in basis_words]
    owner = []
    for word in words:
        owner.append(next((i for i, s in enumerate(settings_) if covers(s, word)), -1))
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
    owner = _first_cover(word_masks(words, n), word_masks(bases, n))
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
            if not covers(setting, word):
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
