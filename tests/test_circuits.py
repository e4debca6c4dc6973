import math

import numpy as np
import pytest
from hypothesis import example, given, settings

from ringflow.circuits import (
    Circuit,
    MeasurementSetting,
    backflow_prep_angles,
    controlled_ry_gates,
    group_terms,
    measurement_circuit,
    parity_sign,
    prepare_backflow_circuit,
)
from ringflow.engine import (
    apply_circuit,
    apply_gate,
    cry,
    h,
    init_amplitudes,
    init_basis,
    z_probabilities,
)
from ringflow.experiment import backflow_coefficients
from ringflow.pauli import (
    PauliString,
    WeightedPauliSum,
    current_decomposition,
    setting_plan,
    word_masks,
)

from conftest import measurable_sums, random_state_vector


class TestPrepareBackflowCircuit:
    def test_one_qubit_is_single_rotation(self):
        circ = prepare_backflow_circuit(1)
        assert len(circ.gates) == 1
        assert circ.gates[0].kind == "RY"
        assert abs(circ.gates[0].angle - 5.35589) < 2e-4

    def test_one_qubit_prepares_target(self):
        state = apply_circuit(init_basis(1, 0), prepare_backflow_circuit(1))
        np.testing.assert_allclose(
            state.amplitudes.real, [-2, 1] / np.sqrt(5.0), atol=1e-10
        )
        np.testing.assert_allclose(state.amplitudes.imag, 0.0, atol=1e-14)

    def test_two_qubit_angles_match_printed_values(self):
        angles = backflow_prep_angles(2)
        assert abs(angles["alpha0"] - 7.51414) < 2e-4
        # sign of the controlled angle is fixed by fidelity, magnitude is quoted
        assert abs(abs(angles["alpha1"]) - 4.7124) < 2e-4

    def test_two_qubit_gate_sequence(self):
        """RY on S1, CNOT(S1->S2), then the expanded controlled rotation."""
        circ = prepare_backflow_circuit(2)
        kinds = [g.kind for g in circ.gates]
        assert kinds == ["RY", "CNOT", "RY", "CNOT", "RY", "CNOT"]
        assert circ.gates[1].control == 0 and circ.gates[1].target == 1
        assert circ.gates[3].control == 1 and circ.gates[3].target == 0
        half = backflow_prep_angles(2)["alpha1"] / 2.0
        assert circ.gates[2].angle == pytest.approx(half)
        assert circ.gates[4].angle == pytest.approx(-half)

    def test_two_qubit_prepares_target_probabilities(self):
        state = apply_circuit(init_basis(2, 0), prepare_backflow_circuit(2))
        np.testing.assert_allclose(
            z_probabilities(state), [2 / 3, 1 / 6, 0, 1 / 6], atol=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2])
    def test_fidelity_with_coefficients(self, n):
        target = backflow_coefficients(n).a
        state = apply_circuit(init_basis(n, 0), prepare_backflow_circuit(n))
        fidelity = abs(np.vdot(target, state.amplitudes)) ** 2
        assert fidelity > 1 - 1e-10

    def test_larger_registers_unsupported(self):
        with pytest.raises(ValueError):
            prepare_backflow_circuit(3)

    def test_expanded_controlled_rotation_equals_gate(self):
        rng = np.random.default_rng(9)
        state = init_amplitudes(2, random_state_vector(rng, 2))
        direct = apply_gate(state, cry(1, 0, 2.2))
        expanded = apply_circuit(state, controlled_ry_gates(1, 0, 2.2))
        np.testing.assert_allclose(expanded.amplitudes, direct.amplitudes, atol=1e-12)


class TestMeasurementCircuit:
    def test_single_x_basis(self):
        circ = measurement_circuit(MeasurementSetting("X"))
        assert [g.to_dict() for g in circ.gates] == [{"kind": "H", "target": 0}]

    def test_mixed_basis_word(self):
        circ = measurement_circuit(MeasurementSetting("ZX"))
        assert [g.to_dict() for g in circ.gates] == [{"kind": "H", "target": 1}]

    def test_all_z_is_empty(self):
        assert measurement_circuit(MeasurementSetting("ZZZ")).gates == ()


class TestGrouping:
    def test_one_qubit_two_settings(self):
        groups = group_terms(current_decomposition(1))
        words = {s.basis_word: [t.word for t in ts] for s, ts in groups.items()}
        assert words == {"X": ["X"], "Z": ["Z"]}

    def test_two_qubit_three_settings(self):
        groups = group_terms(current_decomposition(2))
        words = {s.basis_word: sorted(t.word for t in ts) for s, ts in groups.items()}
        assert words == {
            "XX": ["IX", "XI", "XX"],
            "ZX": ["ZI", "ZX"],
            "XZ": ["IZ", "XZ"],
        }

    def test_three_qubit_four_settings(self):
        groups = group_terms(current_decomposition(3))
        assert len(groups) == 4
        assert sum(len(ts) for ts in groups.values()) == 19

    @pytest.mark.parametrize("n", range(1, 11))
    def test_cover_is_exact_and_small(self, n):
        dec = current_decomposition(n)
        groups = group_terms(dec)
        assert len(groups) <= n + 1
        assigned = [t.word for ts in groups.values() for t in ts]
        assert sorted(assigned) == sorted(t.word for t in dec.terms)
        for setting, terms in groups.items():
            for t in terms:
                assert setting.covers(t.word)

    def test_rejects_y_words(self):
        bad = WeightedPauliSum(1, 0.0, (PauliString("Y", 1.0),))
        with pytest.raises(ValueError):
            group_terms(bad)

    def test_rejects_double_z(self):
        bad = WeightedPauliSum(2, 0.0, (PauliString("ZZ", 1.0),))
        with pytest.raises(ValueError):
            group_terms(bad)


def group_terms_per_word(op_sum):
    """The grouping one Python step per word, as ``group_terms`` first ran it.

    Basis word -> (words, coeffs); settings in order of Z position, the
    all-X setting (no Z) first, and each setting's words in sum order.
    """
    n = op_sum.n_qubits
    by_z_pos = {}
    for word, coeff in zip(op_sum.words, op_sum.coeffs):
        if "Y" in word or word.count("Z") > 1:
            raise ValueError(f"term {word} not measurable with Z/X settings")
        words, coeffs = by_z_pos.setdefault(word.find("Z"), ([], []))
        words.append(word)
        coeffs.append(coeff)
    out = {}
    for pos in sorted(by_z_pos):
        word = "X" * n if pos < 0 else "X" * pos + "Z" + "X" * (n - 1 - pos)
        out[word] = by_z_pos[pos]
    return out


def unique_grouping(zmasks):
    """Z mask -> member indices, grouped with ``np.unique`` as the grouped
    expectation first did it; the keys come in order of first appearance."""
    zs, first, group = np.unique(zmasks, return_index=True, return_inverse=True)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=zs.size)
    ends = np.cumsum(sizes)
    return {
        zs[g].item(): order[ends[g] - sizes[g] : ends[g]].tolist()
        for g in np.argsort(first).tolist()
    }


def assert_plan_matches_references(op_sum):
    n = op_sum.n_qubits
    _, _, mz = word_masks(op_sum.words, n)
    plan = [(zmask, members.tolist()) for zmask, members in setting_plan(mz, n)]
    old = group_terms_per_word(op_sum)
    # same settings in the same order, each with the same words in sum order
    assert [MeasurementSetting.from_z_mask(z, n).basis_word for z, _ in plan] == list(old)
    assert [[op_sum.words[i] for i in members] for _, members in plan] == [
        words for words, _ in old.values()
    ]
    by_unique = unique_grouping(mz)
    assert dict(plan) == by_unique
    # the engine adds the settings' sums in order of first appearance
    assert [z for z, _ in sorted(plan, key=lambda s: s[1][0])] == list(by_unique)
    groups = group_terms(op_sum)
    assert [s.basis_word for s in groups] == list(old)
    assert [(t.words, t.coeffs) for t in groups.values()] == [
        (tuple(words), tuple(coeffs)) for words, coeffs in old.values()
    ]


class TestSettingPlan:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_expansion_matches_references(self, n):
        dec = current_decomposition(n)
        assert_plan_matches_references(dec)
        perm = np.random.default_rng(n).permutation(len(dec.words)).tolist()
        shuffled = WeightedPauliSum.from_columns(
            n,
            dec.identity_weight,
            [dec.words[i] for i in perm],
            [dec.coeffs[i] for i in perm],
        )
        assert_plan_matches_references(shuffled)

    @settings(max_examples=300, deadline=None)
    @given(measurable_sums())
    @example(WeightedPauliSum(3, 0.5, ()))
    @example(WeightedPauliSum(2, 0.0, (PauliString("XZ", 1.0),)))
    def test_random_sums_match_references(self, op_sum):
        assert_plan_matches_references(op_sum)

    @settings(max_examples=300, deadline=None)
    @given(measurable_sums(letters="IXYZ"))
    @example(WeightedPauliSum.from_columns(2, 0.0, ["XX", "ZZ", "YI"], [1.0, 2.0, 3.0]))
    @example(WeightedPauliSum.from_columns(2, 0.0, ["IX", "YZ", "ZZ"], [1.0, 2.0, 3.0]))
    def test_unmeasurable_words_named_in_sum_order(self, op_sum):
        """A Y or a second Z is refused, naming the first such word in sum order."""
        try:
            group_terms_per_word(op_sum)
        except ValueError as exc:
            with pytest.raises(ValueError) as refused:
                group_terms(op_sum)
            assert str(refused.value) == str(exc)
        else:
            assert_plan_matches_references(op_sum)


class TestParitySign:
    @pytest.mark.parametrize(
        "word, outcome, expected",
        [
            ("XI", "10", -1),
            ("IX", "10", +1),
            ("II", "11", +1),
            ("ZX", "11", +1),
            ("ZX", "01", -1),
            ("X", "1", -1),
        ],
    )
    def test_examples(self, word, outcome, expected):
        assert parity_sign(PauliString(word, 1.0), outcome) == expected

    def test_rejects_mismatched_outcome(self):
        with pytest.raises(ValueError):
            parity_sign(PauliString("XI", 1.0), "101")
        with pytest.raises(ValueError):
            parity_sign(PauliString("XI", 1.0), "1a")


@pytest.mark.parametrize("n", range(1, 7))
def test_parity_average_reproduces_expectations(n):
    """Rotate, read Z probabilities, average parities: equals the exact value.

    This ties the whole measurement pipeline (setting choice, basis
    rotation, parity bookkeeping) to the operator algebra for every term
    of the expansion on random states.
    """
    rng = np.random.default_rng(400 + n)
    dec = current_decomposition(n)
    groups = group_terms(dec)
    from ringflow.engine import expectation_pauli

    for _ in range(4):
        state = init_amplitudes(n, random_state_vector(rng, n))
        for setting, terms in groups.items():
            rotated = apply_circuit(state, measurement_circuit(setting))
            probs = z_probabilities(rotated)
            outcomes = [format(i, f"0{n}b") for i in range(probs.size)]
            for term in terms:
                avg = sum(
                    parity_sign(term, bits) * p for bits, p in zip(outcomes, probs)
                )
                exact = expectation_pauli(
                    state, WeightedPauliSum(n, 0.0, (PauliString(term.word, 1.0),))
                )
                assert abs(avg - exact) < 1e-10


class TestCircuitType:
    def test_rejects_out_of_range_gates(self):
        with pytest.raises(ValueError):
            Circuit(1, (h(1),))

    def test_serialization_round_trip(self):
        circ = prepare_backflow_circuit(2)
        assert Circuit.from_dict(circ.to_dict()) == circ

    def test_setting_validation(self):
        with pytest.raises(ValueError):
            MeasurementSetting("XY")
        with pytest.raises(ValueError):
            MeasurementSetting("")

    def test_setting_covers(self):
        setting = MeasurementSetting("ZX")
        assert setting.covers("IX") and setting.covers("ZI") and setting.covers("ZX")
        assert not setting.covers("XI")
        assert not setting.covers("X")
