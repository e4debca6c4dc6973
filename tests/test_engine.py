import math
import subprocess
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringflow.engine
from ringflow.circuits import MeasurementSetting, group_terms, measurement_circuit
from ringflow.engine import (
    MAX_SHOTS,
    Distribution,
    Gate,
    NormDriftError,
    Statevector,
    apply_circuit,
    apply_gate,
    cnot,
    cry,
    expectation_pauli,
    h,
    init_amplitudes,
    init_basis,
    l2_norm,
    parity_expectations,
    readout_channel,
    rotated_settings,
    ry,
    sample,
    x,
    z,
    z_probabilities,
)
from ringflow.engine import _INV_SQRT2
from ringflow.experiment import BackflowCoefficients, backflow_coefficients, run_simulation
from ringflow.pauli import (
    PauliString,
    WeightedPauliSum,
    current_decomposition,
    index_masks,
    realize_dense,
    term_count,
)

from conftest import child_env, measurable_sums, random_state_vector, small_word_blocks
from oracles import (
    binomial_flip_sample,
    expectation_direct,
    expectation_per_setting,
    parity_layers,
    readout_matrix,
)

INV_SQRT5 = 1.0 / math.sqrt(5.0)

#: amplitude parts whose squares, and sums of a few of them, neither
#: overflow nor underflow
_IN_RANGE = st.floats(-1e100, 1e100).filter(lambda x: x == 0 or abs(x) >= 1e-100)


@pytest.fixture
def psi1():
    return init_amplitudes(1, [-2.0 * INV_SQRT5, INV_SQRT5])


@pytest.fixture
def psi2():
    return init_amplitudes(2, np.array([-2.0, -1.0, 0.0, 1.0]) / math.sqrt(6.0))


class TestInit:
    def test_basis_one_qubit(self):
        np.testing.assert_array_equal(init_basis(1, 0).amplitudes, [1, 0])

    def test_basis_index_is_momentum_index(self):
        # |2> on two qubits is |1 0>, first qubit most significant
        state = init_basis(2, 2)
        np.testing.assert_array_equal(state.amplitudes, [0, 0, 1, 0])

    def test_basis_last_slot(self):
        assert init_basis(3, 7).amplitudes[7] == 1.0

    def test_basis_index_out_of_range(self):
        with pytest.raises(ValueError):
            init_basis(2, 4)
        with pytest.raises(ValueError):
            init_basis(2, -1)

    @pytest.mark.parametrize(
        "make", [lambda: init_basis(0, 0), lambda: init_amplitudes(0, [1.0])],
        ids=["basis", "amplitudes"],
    )
    def test_zero_qubits_refused(self, make):
        with pytest.raises(ValueError, match="need at least one qubit"):
            make()

    def test_amplitudes_backflow_states(self, psi1, psi2):
        np.testing.assert_allclose(
            psi1.amplitudes, [-0.894427, 0.447214], atol=1e-6
        )
        assert abs(np.linalg.norm(psi2.amplitudes) - 1.0) < 1e-12

    def test_amplitudes_renormalized(self):
        state = init_amplitudes(1, [2.0, 0.0])
        np.testing.assert_array_equal(state.amplitudes, [1, 0])

    def test_amplitudes_wrong_length(self):
        with pytest.raises(ValueError):
            init_amplitudes(2, [1.0, 0.0])

    def test_amplitudes_zero_vector(self):
        with pytest.raises(ValueError):
            init_amplitudes(1, [0.0, 0.0])

    def test_amplitudes_non_finite(self):
        with pytest.raises(ValueError, match="non-finite amplitude"):
            init_amplitudes(1, [math.nan, 1.0])

    @pytest.mark.parametrize(
        "amps", [[1e200, 1e200], [1.7e308, -1.7e308j], [1.5e308, 1.5e308, 0.0, -1.5e308]]
    )
    def test_amplitudes_whose_squares_overflow(self, amps):
        """Finite vectors whose squares, or whose norm, overflow float64 load
        normalized and without a warning (the tests turn warnings into errors)."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            state = init_amplitudes(len(amps).bit_length() - 1, amps)
        unit = np.asarray(amps, dtype=np.complex128) / abs(amps[0])
        np.testing.assert_allclose(state.amplitudes, unit / np.linalg.norm(unit), rtol=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.lists(_IN_RANGE, min_size=2 << n, max_size=2 << n)
        )
    )
    def test_scaling_keeps_the_unscaled_bits(self, parts):
        """Where no square overflows or underflows, the result is bit for bit
        the unscaled vector over its norm, and a norm below 1e-12 is refused."""
        amps = np.array(parts).view(np.complex128)
        n = amps.size.bit_length() - 1
        nrm = l2_norm(amps)
        if nrm < 1e-12:
            with pytest.raises(ValueError, match="zero vector"):
                init_amplitudes(n, amps)
        else:
            np.testing.assert_array_equal(init_amplitudes(n, amps).amplitudes, amps / nrm)

    def test_statevector_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            Statevector(1, np.array([1.0, 1.0]))

    def test_statevector_refuses_a_nan_norm(self):
        """A NaN amplitude gives a NaN norm, which no tolerance accepts."""
        with pytest.raises(ValueError, match=r"not normalized \(norm nan\)"):
            Statevector(1, [math.nan, 0.0])


class TestGates:
    def test_hadamard_on_zero(self):
        out = apply_gate(init_basis(1, 0), h(0))
        np.testing.assert_allclose(out.amplitudes, [1, 1] / np.sqrt(2.0))

    def test_printed_rotation_angle(self):
        out = apply_gate(init_basis(1, 0), ry(0, 5.35589))
        np.testing.assert_allclose(out.amplitudes, [-0.894427, 0.447214], atol=1e-5)

    def test_cnot_permutes(self):
        state = init_amplitudes(2, [0.6, 0.0, 0.8, 0.0])
        out = apply_gate(state, cnot(0, 1))
        np.testing.assert_allclose(out.amplitudes, [0.6, 0.0, 0.0, 0.8])

    def test_cry_acts_only_when_control_set(self):
        state = init_amplitudes(2, [0.6, 0.0, 0.8, 0.0])  # control qubit 1 unset
        out = apply_gate(state, cry(1, 0, 2.5))
        np.testing.assert_allclose(out.amplitudes, state.amplitudes)

    def test_bad_target_index(self):
        with pytest.raises(ValueError):
            apply_gate(init_basis(1, 0), h(1))

    def test_control_outside_the_register(self):
        with pytest.raises(ValueError, match="control 1 out of range"):
            apply_gate(init_basis(1, 0), cnot(1, 0))

    @pytest.mark.parametrize(
        "args, message",
        [
            (("T", 0), "unknown gate kind 'T'"),
            (("CNOT", 1), "CNOT control qubit mis-specified"),
            (("H", -1), "negative qubit index"),
            (("CNOT", 0, -1), "negative qubit index"),
            (("RY", 0, None, math.nan), "RY angle must be finite, got nan"),
            (("CRY", 0, 1, -math.inf), "CRY angle must be finite, got -inf"),
        ],
        ids=["unknown-kind", "cnot-without-control", "negative-target",
             "negative-control", "nan-angle", "infinite-angle"],
    )
    def test_gate_refusals(self, args, message):
        with pytest.raises(ValueError, match=message):
            Gate(*args)

    def test_nan_from_a_kernel_is_norm_drift(self, monkeypatch):
        """A kernel that writes NaN leaves a NaN norm, which fails the drift
        check instead of passing as within tolerance."""
        def nan_rotation(pair, angle):
            pair[:] = math.nan

        monkeypatch.setattr(ringflow.engine, "_rotate_pair", nan_rotation)
        with pytest.raises(NormDriftError, match="norm drifted to nan"):
            apply_circuit(init_basis(1, 0), [ry(0, 0.5)])

    def test_gate_validation(self):
        with pytest.raises(ValueError):
            Gate("CNOT", 0, control=0)
        with pytest.raises(ValueError):
            Gate("H", 0, angle=1.0)
        with pytest.raises(ValueError):
            Gate("RY", 0)

    @pytest.mark.parametrize("n", [1, 2, 4])
    def test_norm_preserved(self, n):
        rng = np.random.default_rng(11 + n)
        state = init_amplitudes(n, random_state_vector(rng, n))
        gates = [ry(0, 0.7), h(n - 1), x(0), z(n - 1)]
        if n > 1:
            gates += [cnot(0, n - 1), cry(n - 1, 0, 1.3)]
        out = apply_circuit(state, gates)
        assert abs(np.linalg.norm(out.amplitudes) - 1.0) < 1e-12

    def test_input_state_untouched(self):
        state = init_basis(1, 0)
        before = state.amplitudes.copy()
        apply_gate(state, h(0))
        np.testing.assert_array_equal(state.amplitudes, before)


@settings(deadline=None, max_examples=80)
@given(
    n=st.integers(1, 5),
    target=st.integers(0, 4),
    angle=st.floats(-12.0, 12.0, allow_nan=False),
    seed=st.integers(0, 2**32 - 1),
)
def test_gate_inverse_round_trips(n, target, angle, seed):
    target %= n
    rng = np.random.default_rng(seed)
    state = init_amplitudes(n, random_state_vector(rng, n))
    pairs = [
        (ry(target, angle), ry(target, -angle)),
        (h(target), h(target)),
        (x(target), x(target)),
        (z(target), z(target)),
    ]
    if n > 1:
        control = (target + 1) % n
        pairs += [
            (cnot(control, target), cnot(control, target)),
            (cry(control, target, angle), cry(control, target, -angle)),
        ]
    for gate, inverse in pairs:
        out = apply_circuit(state, [gate, inverse])
        np.testing.assert_allclose(out.amplitudes, state.amplitudes, atol=1e-12)


@settings(deadline=None, max_examples=40)
@given(n=st.integers(1, 5), pos=st.integers(0, 4), seed=st.integers(0, 2**32 - 1))
def test_hadamard_conjugation_turns_z_into_x(n, pos, seed):
    """<X_pos> read out as a Z parity after one Hadamard."""
    pos %= n
    rng = np.random.default_rng(seed)
    state = init_amplitudes(n, random_state_vector(rng, n))
    word = "I" * pos + "X" + "I" * (n - pos - 1)
    direct = expectation_pauli(state, WeightedPauliSum(n, 0.0, (PauliString(word, 1.0),)))
    probs = z_probabilities(apply_gate(state, h(pos)))
    bit = 1 << (n - 1 - pos)
    signs = 1 - 2 * ((np.arange(probs.size) & bit) > 0)
    assert abs(direct - float(signs @ probs)) < 1e-12


class TestExpectation:
    def test_current_operator_on_backflow_state(self, psi1):
        value = expectation_pauli(psi1, current_decomposition(1))
        assert abs(value - (-0.4)) < 1e-12
        assert abs(value / (4 * math.pi) - (-1 / (10 * math.pi))) < 1e-12

    def test_identity_only(self, psi2):
        assert expectation_pauli(psi2, WeightedPauliSum(2, 2.5, ())) == 2.5

    def test_single_z_term(self, psi2):
        # dense oracle: <Z x I> = |a0|^2 + |a1|^2 - |a2|^2 - |a3|^2 = 2/3
        op = WeightedPauliSum(2, 0.0, (PauliString("ZI", 1.0),))
        assert abs(expectation_pauli(psi2, op) - 2.0 / 3.0) < 1e-12

    def test_y_word_against_dense(self):
        """The per-word oracle reads a Y word, which ``expectation_pauli``
        refuses."""
        rng = np.random.default_rng(3)
        state = init_amplitudes(2, random_state_vector(rng, 2))
        op = WeightedPauliSum(2, 0.0, (PauliString("YX", 1.0),))
        y = np.array([[0, -1j], [1j, 0]])
        xm = np.array([[0, 1], [1, 0]])
        dense = np.kron(y, xm)
        expected = np.real(np.conj(state.amplitudes) @ dense @ state.amplitudes)
        assert abs(expectation_direct(state, op) - expected) < 1e-12
        with pytest.raises(ValueError, match="term YX not measurable"):
            expectation_pauli(state, op)

    def test_qubit_count_mismatch(self, psi1):
        with pytest.raises(ValueError, match="mismatch|qubits"):
            expectation_pauli(psi1, current_decomposition(2))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_quadratic_form(self, n):
        rng = np.random.default_rng(100 + n)
        dec = current_decomposition(n)
        from ringflow.pauli import dense_current_matrix

        dense = dense_current_matrix(n).astype(np.float64)
        for _ in range(10):
            state = init_amplitudes(n, random_state_vector(rng, n))
            expected = float(
                np.real(np.conj(state.amplitudes) @ dense @ state.amplitudes)
            )
            assert abs(expectation_pauli(state, dec) - expected) < 1e-10

    @pytest.mark.parametrize("n", [2, 4, 6])
    def test_grouped_path_equals_direct_path(self, n):
        rng = np.random.default_rng(200 + n)
        dec = current_decomposition(n)
        for _ in range(5):
            state = init_amplitudes(n, random_state_vector(rng, n))
            direct = expectation_direct(state, dec)
            grouped = expectation_pauli(state, dec)
            assert abs(direct - grouped) < 1e-10

    def test_path_chosen_by_word_shape(self):
        """A sum over {I,X,Z} with at most one Z per word is read per setting;
        a Y or a second Z anywhere is refused, with the message and the word
        that ``group_terms`` gives, and only the per-word oracle reads it."""
        rng = np.random.default_rng(7)
        state = init_amplitudes(3, random_state_vector(rng, 3))
        dec = current_decomposition(3)
        assert abs(expectation_pauli(state, dec) - expectation_direct(state, dec)) < 1e-12
        for word in ("YXI", "ZZI"):
            op = WeightedPauliSum.from_columns(3, 0.5, [*dec.words, word], [*dec.coeffs, 1.0])
            with pytest.raises(ValueError) as refused:
                expectation_pauli(state, op)
            assert str(refused.value) == f"term {word} not measurable with Z/X settings"
            with pytest.raises(ValueError) as grouped:
                group_terms(op)
            assert str(grouped.value) == str(refused.value)
            assert math.isfinite(expectation_direct(state, op))

    def test_grouped_path_engages_at_scale(self):
        state = init_amplitudes(12, backflow_coefficients(12).a)
        dec = current_decomposition(12)
        from ringflow.experiment import closed_form_current

        value = expectation_pauli(state, dec) / (4 * math.pi)
        assert abs(value - closed_form_current(12)) < 1e-9


def grouped_per_word(state, op_sum):
    """The grouped estimator with one Python step per word, as the reference.

    Settings are keyed by Z position in a dict, so they are visited in order
    of first appearance.  Each setting's coefficients are put one word at a
    time at the word's parity mask with its Z letter taken out, in int64
    when every coefficient is an integer and their exact absolute sum is
    below 2^53, else in longdouble.  The state is rotated once, with the
    per-gate formula on every qubit: Phi.  The all-X setting's outcomes are
    |Phi|^2, the setting with Z on qubit p's outcome differences the
    products of Phi's halves across p; summed against the transform of the
    setting's coefficients, they give its share of the expectation value.
    """
    n = state.n_qubits
    exact = all(c.is_integer() for c in op_sum.coeffs)
    exact = exact and math.fsum(map(abs, op_sum.coeffs)) < 2**53
    groups = {}
    for term in op_sum.terms:
        pos = term.word.find("Z")
        mx, _, _ = index_masks(term.word if pos < 0 else term.word[:pos] + term.word[pos + 1 :])
        size = 1 << (n if pos < 0 else n - 1)
        scores = groups.setdefault(pos, np.zeros(size, np.int64 if exact else np.longdouble))
        scores[mx] = term.coeff
    phi = state.amplitudes.astype(np.clongdouble)
    for pos in range(n):
        v = np.moveaxis(phi.reshape((2,) * n), pos, 0)
        a = v[0].copy()
        b = v[1]
        v[0] = a + b
        v[1] = a - b
    total = np.longdouble(op_sum.identity_weight)
    for pos, scores in groups.items():
        if pos < 0:
            probs = phi.real**2 + phi.imag**2
        else:
            v = np.moveaxis(phi.reshape((2,) * n), pos, 0)
            probs = (v[0].real * v[1].real + v[0].imag * v[1].imag).reshape(-1)
        total += (probs * parity_expectations(scores)).sum() / probs.size
    return float(total)


@pytest.mark.parametrize("n", [1, 3, 5, 8])
def test_grouped_path_bit_identical_to_per_word_grouping(n):
    rng = np.random.default_rng(300 + n)
    state = init_amplitudes(n, random_state_vector(rng, n))
    dec = current_decomposition(n)
    shuffled = WeightedPauliSum(
        n, dec.identity_weight, tuple(dec.terms[i] for i in rng.permutation(len(dec.terms)))
    )
    for op in (dec, shuffled):
        assert expectation_pauli(state, op) == grouped_per_word(state, op)
        assert abs(expectation_direct(state, op) - grouped_per_word(state, op)) < 1e-10


@pytest.mark.parametrize("n", [3, 6])
def test_grouped_path_bit_identical_on_partial_settings(n):
    """Sums that lack some settings: the shared rotation prefix skips them."""
    rng = np.random.default_rng(500 + n)
    state = init_amplitudes(n, random_state_vector(rng, n))
    dec = current_decomposition(n)
    for _ in range(6):
        keep = np.flatnonzero(rng.random(len(dec.words)) < rng.random())
        op = WeightedPauliSum.from_columns(
            n, 0.5, [dec.words[i] for i in keep], [dec.coeffs[i] for i in keep]
        )
        assert expectation_pauli(state, op) == grouped_per_word(state, op)
    z_first = WeightedPauliSum(n, 0.0, (PauliString("Z" + "X" * (n - 1), 1.0),))
    assert expectation_pauli(state, z_first) == grouped_per_word(state, z_first)


@settings(max_examples=2000, deadline=None)
@given(measurable_sums(), st.integers(0, 2**32 - 1))
@example(WeightedPauliSum(3, 0.5, ()), 0)
def test_grouped_path_bit_identical_on_random_sums(op_sum, seed):
    """Shuffled sums, sums that lack settings, and the empty sum.  Enough
    draws that a last-bit difference in one sum of a thousand shows."""
    n = op_sum.n_qubits
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(seed), n))
    assert expectation_pauli(state, op_sum) == grouped_per_word(state, op_sum)


@pytest.mark.parametrize("n", [12, 14, 16])
def test_backflow_current_within_1e_10_of_closed_form(n):
    """Tighter than criterion 7's 1e-9: the one extended-precision rotation
    and the exact integer transforms of the coefficients read J to 7.3e-11
    at N = 16, 2.3e-13 at 14 and 2.8e-14 at 12."""
    from ringflow.experiment import closed_form_current

    state = init_amplitudes(n, backflow_coefficients(n).a)
    value = expectation_pauli(state, current_decomposition(n)) / (4 * math.pi)
    assert abs(value - closed_form_current(n)) < 1e-10


def dense_expectation(state, op_sum):
    psi = state.amplitudes
    return float((psi.conj() @ realize_dense(op_sum) @ psi).real)


@pytest.mark.parametrize("z", [True, False], ids=["single-Z words", "IX words"])
@settings(max_examples=100, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2**32 - 1), real=st.booleans())
def test_each_setting_branch_alone_matches_dense_oracle(z, data, seed, real):
    """Sums read only in Z settings (the bit-halves branch) or only in the
    all-X setting (the full transform), on real and complex states."""
    op_sum = data.draw(measurable_sums(z=z))
    n = op_sum.n_qubits
    assert all(("Z" in word) == z for word in op_sum.words)
    rng = np.random.default_rng(seed)
    state = init_amplitudes(n, rng.normal(size=1 << n) if real else random_state_vector(rng, n))
    assert abs(expectation_pauli(state, op_sum) - dense_expectation(state, op_sum)) < 1e-12


_ALL_WORDS_3 = current_decomposition(3).words  # every 3-letter word over IX with at most one Z
_IX_WORDS_4 = [w for w in current_decomposition(4).words if "Z" not in w]


def _spy_dtypes(monkeypatch) -> list:
    """The dtypes ``expectation_pauli`` transforms its segments in, in order."""
    dtypes = []
    transform = ringflow.engine.parity_expectations
    monkeypatch.setattr(
        ringflow.engine,
        "parity_expectations",
        lambda scores: dtypes.append(scores.dtype) or transform(scores),
    )
    return dtypes


def _segment_dtypes(op_sum) -> list:
    """The width rule, by exact integer sums, per setting in first-word
    order: longdouble unless every coefficient is an integer and their
    absolute sum is below 2^53; else int32 where the setting's own absolute
    sum is below 2^31, and int64 otherwise."""
    if not all(c.is_integer() for c in op_sum.coeffs):
        return [np.dtype(np.longdouble)] * len({w.find("Z") for w in op_sum.words})
    sums = {}
    for word, c in zip(op_sum.words, op_sum.coeffs):
        sums[word.find("Z")] = sums.get(word.find("Z"), 0) + abs(int(c))
    if sum(sums.values()) >= 2**53:
        return [np.dtype(np.longdouble)] * len(sums)
    return [np.dtype(np.int32 if total < 2**31 else np.int64) for total in sums.values()]


@pytest.mark.parametrize(
    "words, coeffs, dtypes",
    [
        (_ALL_WORDS_3, [(-1) ** i * (i + 1) for i in range(19)], [np.int32] * 4),
        (_ALL_WORDS_3[:3], [2.0**51, -(2.0**52), 2.0**51 - 1], [np.int64] * 2),
        (_ALL_WORDS_3[:2], [2.0**52, -(2.0**52)], [np.longdouble] * 2),
        (_ALL_WORDS_3, [(-1) ** i * 2.0**60 for i in range(19)], [np.longdouble] * 4),
        (_IX_WORDS_4, [2.0**60] * 15, [np.longdouble]),
        (_ALL_WORDS_3[:4], [0.5, 1.0, -2.0, 3.0], [np.longdouble] * 2),
    ],
    ids=["small integers", "sum below 2^53", "sum 2^53", "+-2^60", "15 x 2^60", "fraction"],
)
def test_coefficient_transform_dtype_follows_the_coefficients(monkeypatch, words, coeffs, dtypes):
    """Integer coefficients whose absolute sum is below 2^53 are transformed
    exactly, a setting at a time: in int32 where the setting's own absolute
    sum is below 2^31, else in int64.  Past 2^53, or with a fraction, every
    setting is read in longdouble, where 15 x 2^60, whose all-X transform
    at mask 0 would wrap in int64, is read as well."""
    seen = _spy_dtypes(monkeypatch)
    n = len(words[0])
    op_sum = WeightedPauliSum.from_columns(n, 1.0, words, coeffs)
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(4), n))
    value = expectation_pauli(state, op_sum)
    assert seen == list(map(np.dtype, dtypes)) == _segment_dtypes(op_sum)
    expected = dense_expectation(state, op_sum)
    assert abs(value - expected) <= 1e-12 * abs(expected)


@pytest.mark.skipif(
    np.finfo(np.longdouble).max <= np.finfo(np.float64).max,
    reason="the transformed coefficients reach their absolute sum, past float64's range",
)
def test_coefficients_whose_absolute_sum_overflows_float64():
    """Finite coefficients near the float64 limit are read in longdouble,
    without an overflow warning (the tests turn warnings into errors)."""
    state = init_amplitudes(3, random_state_vector(np.random.default_rng(8), 3))
    small = WeightedPauliSum.from_columns(3, 0.0, _ALL_WORDS_3[:3], [1.5, -1.5, 1.0])
    huge = WeightedPauliSum.from_columns(3, 0.0, _ALL_WORDS_3[:3], [1.5e308, -1.5e308, 1e308])
    expected = dense_expectation(state, small) * 1e308
    assert abs(expectation_pauli(state, huge) - expected) <= 1e-12 * abs(expected)


@pytest.mark.parametrize("n", [1, 2, 5, 9])
def test_expectation_rotates_the_state_once(monkeypatch, n):
    """N Hadamard layers per part, whatever the number of settings; a real
    state has one part.  A layer pairs every entry once, whether it runs
    on the part or on the part's transposed tiles, so the rotation's
    butterflies, those made outside the kernel, pair N * 2^N entries per
    part.  The kernel's pair each coefficient vector's entries once per
    position."""
    paired, tables = [], []
    butterfly = ringflow.engine._butterfly
    transform = ringflow.engine.parity_expectations

    def counting_butterfly(v):
        paired.append((bool(tables) and tables[-1] is not None, v.size))
        butterfly(v)

    def counting_transform(table):
        tables.append(table)
        transform(table)
        tables.append(None)  # the kernel call is over
        return table

    monkeypatch.setattr(ringflow.engine, "_butterfly", counting_butterfly)
    monkeypatch.setattr(ringflow.engine, "parity_expectations", counting_transform)
    dec = current_decomposition(n)
    rng = np.random.default_rng(n)
    for amps, parts in ((random_state_vector(rng, n), 2), (backflow_coefficients(n).a, 1)):
        paired.clear()
        tables.clear()
        expectation_pauli(init_amplitudes(n, amps), dec)
        rotation = [size for in_kernel, size in paired if not in_kernel]
        kernel = [size for in_kernel, size in paired if in_kernel]
        assert sum(rotation) == parts * n << n
        transformed = [table for table in tables if table is not None]
        assert len(transformed) == n + 1
        assert sum(kernel) == sum(t.size * (t.size.bit_length() - 1) for t in transformed)


def test_scale_path_builds_no_pauli_strings(monkeypatch):
    """The 16-qubit expectation and a grouped shot run read the word columns."""
    built = []
    check = PauliString.__post_init__

    def counting(self):
        built.append(self.word)
        check(self)

    monkeypatch.setattr(PauliString, "__post_init__", counting)
    dec = current_decomposition(16)
    state = init_amplitudes(16, backflow_coefficients(16).a)
    assert expectation_pauli(state, dec) == -32767.25000572292
    run_simulation(6, shots_per_setting=100, seed=1)
    for n in (1, 5, 16):
        assert len(current_decomposition(n).terms) == term_count(n)
    assert built == []
    last = dec.terms[-1]  # a term is built, and checked, when it is read
    assert built == [dec.words[-1]]
    assert (last.word, last.coeff) == (dec.words[-1], dec.coeffs[-1])


_DIGITS_SCRIPT = """
from ringflow.engine import expectation_pauli, init_amplitudes
from ringflow.experiment import backflow_coefficients, run_exact
from ringflow.pauli import current_decomposition
state = init_amplitudes(16, backflow_coefficients(16).a)
print(repr(expectation_pauli(state, current_decomposition(16))))
print(repr(run_exact(14).j_estimate))
"""


def test_digits_do_not_depend_on_blas_threads():
    """Norms are summed by numpy, not by BLAS, whose summation order
    changes with its thread count."""
    outputs = []
    for threads in ("1", "2"):
        done = subprocess.run(
            [sys.executable, "-c", _DIGITS_SCRIPT],
            env=child_env(OPENBLAS_NUM_THREADS=threads),
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0].split()[0] == "-32767.25000572292"


@pytest.mark.parametrize(
    "make",
    [
        lambda n, i: init_basis(n, i),
        lambda n, i: Distribution(n, np.eye(1 << n)[i]),
        lambda n, i: BackflowCoefficients(n, np.roll(backflow_coefficients(n).a, i)),
    ],
    ids=["Statevector", "Distribution", "BackflowCoefficients"],
)
def test_array_records_compare_by_value(make):
    """Equal qubit counts and equal arrays make equal records, with equal
    hashes; other arrays, other counts and other types are unequal."""
    one, same, other, wider = make(2, 0), make(2, 0), make(2, 1), make(3, 0)
    assert one is not same and one == same and not one != same
    assert hash(one) == hash(same)
    assert one != other and one != wider
    assert one != 1 and one != object() and one != one.n_qubits
    assert same in [other, one] and one not in [other, wider]
    assert {one, same, other} == {one, other}


@pytest.mark.parametrize("dtype", [np.float64, np.complex128])
def test_l2_norm_matches_blas_norm(dtype):
    rng = np.random.default_rng(3)
    values = rng.normal(size=1000).astype(dtype)
    if dtype is np.complex128:
        values += 1j * rng.normal(size=1000)
    assert abs(l2_norm(values) - np.linalg.norm(values)) < 1e-12 * np.linalg.norm(values)
    assert l2_norm(values[::2]) == l2_norm(values[::2].copy())
    assert type(l2_norm(values)) is float


def test_empty_sum_is_its_identity_weight():
    state = init_basis(2, 1)
    assert expectation_pauli(state, WeightedPauliSum(2, 2.5, ())) == 2.5


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_parity_expectations_match_popcount_sum(dtype):
    rng = np.random.default_rng(5)
    probs = rng.random(32).astype(dtype)
    probs /= probs.sum()
    masks = [0, 1, 6, 19, 31]
    out = parity_expectations(probs.copy())[masks]
    assert out.dtype == dtype
    idx = np.arange(32)
    for mask, value in zip(masks, out):
        signs = 1 - 2 * (np.bitwise_count(idx & mask).astype(np.int64) & 1)
        assert abs(value - (signs * probs).sum()) < 1e-15


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble], ids=["float64", "longdouble"])
@pytest.mark.parametrize("n", range(1, 9))
def test_parity_expectations_rows_equal_one_row_at_a_time(n, dtype):
    """A 2-D outcome table is transformed in place, and each row comes out
    bit for bit as a 1-D call on that row transforms it, in place too."""
    rng = np.random.default_rng(60 + n)
    table = rng.random((n + 2, 1 << n)).astype(dtype)
    table /= table.sum(axis=1, keepdims=True)
    rows = [row.copy() for row in table]
    assert all(parity_expectations(row) is row for row in rows)
    batched = table.copy()
    assert parity_expectations(batched) is batched
    assert batched.dtype == dtype
    assert_same_bits(batched, np.stack(rows))
    # entry m is the parity average at mask m
    idx = np.arange(1 << n)
    signs = 1 - 2 * (np.bitwise_count(idx[:, None] & idx).astype(np.int64) & 1)
    np.testing.assert_allclose(batched, table @ signs.astype(dtype), rtol=0, atol=1e-14)


def assert_same_bits(got, want):
    # equal finite values of one dtype have equal bits, but for the sign of
    # zero; longdouble's padding bytes rule out comparing tobytes()
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.isfinite(got).all()
    assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


def test_parity_expectations_refuses_to_overwrite_a_strided_table():
    """A strided view would be transformed in a copy; it is refused, and the
    table it views is left as it was."""
    table = np.full((4, 4), 0.25)
    with pytest.raises(ValueError, match="C-contiguous"):
        parity_expectations(table[:, ::2])
    with pytest.raises(ValueError, match="C-contiguous"):
        parity_expectations(table.T)
    assert (table == 0.25).all()


class TestProbabilitiesAndSampling:
    def test_z_probabilities_backflow_two_qubit(self, psi2):
        np.testing.assert_allclose(
            z_probabilities(psi2), [2 / 3, 1 / 6, 0, 1 / 6], atol=1e-10
        )

    def test_z_probabilities_basis_state(self):
        np.testing.assert_array_equal(z_probabilities(init_basis(1, 0)), [1, 0])

    def test_z_probabilities_plus_state(self):
        probs = z_probabilities(apply_gate(init_basis(1, 0), h(0)))
        np.testing.assert_allclose(probs, [0.5, 0.5], atol=1e-12)

    def test_sample_deterministic_basis_state(self):
        counts = sample(init_basis(2, 1), shots=500, seed=0)
        assert counts.dtype == np.int64
        assert counts.tolist() == [0, 500, 0, 0]

    def test_sample_reproducible(self, psi2):
        a = sample(psi2, 4000, seed=123)
        b = sample(psi2, 4000, seed=123)
        np.testing.assert_array_equal(a, b)
        assert a.sum() == 4000

    def test_sample_frequency_within_three_sigma(self, psi1):
        shots = 1_000_000
        counts = sample(psi1, shots, seed=7)
        sigma = math.sqrt(0.8 * 0.2 / shots)
        assert abs(counts[0] / shots - 0.8) < 3 * sigma

    def test_sample_converges_to_probabilities(self, psi2):
        """Every outcome frequency sits within four binomial sigmas at 1e6 shots."""
        shots = 1_000_000
        counts = sample(psi2, shots, seed=21)
        probs = z_probabilities(psi2)
        assert counts.shape == probs.shape
        for i, p in enumerate(probs):
            freq = counts[i] / shots
            sigma = math.sqrt(max(p * (1 - p), 1e-12) / shots)
            assert abs(freq - p) < 4 * sigma

    def test_readout_flip_channel(self):
        shots = 1_000_000
        counts = sample(init_basis(1, 0), shots, seed=5, readout_flip=0.1)
        sigma = math.sqrt(0.1 * 0.9 / shots)
        assert abs(counts[1] / shots - 0.1) < 3 * sigma

    @pytest.mark.parametrize("flip", [0.0, 0.01, 0.3])
    @pytest.mark.parametrize("n", [1, 3, 5])
    def test_counts_add_up_to_shots(self, n, flip):
        """One non-negative int64 count per basis index, summing to the shots."""
        rng = np.random.default_rng(40 + n)
        state = init_amplitudes(n, random_state_vector(rng, n))
        for shots in (1, 7, 2000):
            counts = sample(state, shots, seed=shots, readout_flip=flip)
            assert counts.dtype == np.int64
            assert counts.shape == (1 << n,)
            assert counts.min() >= 0
            assert counts.sum() == shots

    def test_readout_flip_validation(self):
        with pytest.raises(ValueError):
            sample(init_basis(1, 0), 10, seed=0, readout_flip=0.5)
        with pytest.raises(ValueError):
            sample(init_basis(1, 0), 0, seed=0)

    @pytest.mark.parametrize("flip", [0.5, 0.7, -0.1, math.nan, math.inf, -math.inf])
    def test_flip_outside_its_range_is_refused(self, flip):
        with pytest.raises(ValueError, match=r"must lie in \[0, 0\.5\)"):
            sample(init_basis(1, 0), 10, seed=0, readout_flip=flip)

    @pytest.mark.parametrize("shots", [10.7, 10.0, True, "10"], ids=repr)
    def test_shot_count_must_be_an_int(self, shots):
        """A float, a bool or a string is refused with a ValueError naming
        it, not truncated into a count (10.7 drew 10 shots)."""
        with pytest.raises(ValueError, match=f"must be an integer, got {shots!r}"):
            sample(init_basis(1, 0), shots, seed=0)

    def test_distribution_draws_like_its_state(self, psi2):
        """A ``Distribution`` of a state's probabilities draws the state's counts."""
        for flip in (0.0, 0.2):
            want = sample(psi2, 5000, seed=8, readout_flip=flip)
            got = sample(Distribution(2, z_probabilities(psi2)), 5000, seed=8, readout_flip=flip)
            np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize(
        "probs, message",
        [
            ([0.5, 0.5], r"expected 8 probabilities, got shape \(2,\)"),
            (np.full((2, 4), 0.125), r"expected 8 probabilities, got shape \(2, 4\)"),
            ([0.5, math.nan, 0, 0, 0, 0, 0, 0.5], "non-finite probability"),
            ([0.5, math.inf, 0, 0, 0, 0, 0, 0.5], "non-finite probability"),
            ([0.75, -0.25, 0, 0, 0, 0, 0, 0.5], "negative probability"),
            ([0.0] * 8, "positive, finite sum, got 0.0"),
            ([1e308] * 8, "positive, finite sum, got inf"),
        ],
        ids=["short", "two-rows", "nan", "inf", "negative", "zero-sum", "sum-overflows"],
    )
    def test_distribution_refuses_what_cannot_be_drawn(self, probs, message):
        """A 3-qubit ``Distribution`` needs 8 finite, non-negative entries
        with a positive, finite sum; two entries once drew two counts."""
        with pytest.raises(ValueError, match=message):
            Distribution(3, np.array(probs))

    def test_simulation_draws_without_a_second_check(self, monkeypatch):
        """``run_simulation``'s outcome rows are norm-checked once, so it
        draws from them without ``Distribution``'s checks, whose cost shows
        in a sweep of small registers."""
        def refuse(self):
            raise AssertionError("outcome rows checked again")

        monkeypatch.setattr(Distribution, "__post_init__", refuse)
        for flip in (0.0, 0.01):
            assert run_simulation(3, 100, seed=1, readout_flip=flip).mode == "shots"

    def test_distribution_keeps_unnormalized_weights(self):
        """Weights with a positive sum are kept as float64 and drawn
        scaled to 1, as before."""
        dist = Distribution(1, [1, 3])
        assert dist.probabilities.dtype == np.float64
        np.testing.assert_array_equal(
            sample(dist, 1000, seed=4), sample(Distribution(1, [0.25, 0.75]), 1000, seed=4)
        )

    def test_huge_shot_count_refused(self):
        """Counts are drawn as int64: more shots than that is a ValueError
        that names the value, not an OverflowError from the generator."""
        state = init_amplitudes(2, [1, 2, 3, 4])
        with pytest.raises(ValueError, match=str(10**20)):
            sample(state, 10**20, seed=0)
        with pytest.raises(ValueError, match=str(MAX_SHOTS + 1)):
            sample(state, MAX_SHOTS + 1, seed=0)
        assert sample(state, MAX_SHOTS, seed=0, readout_flip=0.01).sum() == MAX_SHOTS

    def test_counts_serialization(self):
        """A report's setting record holds the sampled counts as a sorted
        bitstring -> count map, next to probabilities with the same keys."""
        report = run_simulation(3, shots_per_setting=50, seed=0, readout_flip=0.05)
        state = init_amplitudes(3, backflow_coefficients(3).a)
        for k, record in enumerate(report.setting_records):
            rotated = apply_circuit(
                state, [h(q) for q, b in enumerate(record.basis_word) if b == "X"]
            )
            counts = sample(
                rotated, 50, seed=np.random.SeedSequence([0, k]), readout_flip=0.05
            )
            expected = {format(i, "03b"): int(c) for i, c in enumerate(counts) if c}
            d = record.to_dict()
            assert d["counts"] == expected
            assert list(d["counts"]) == sorted(expected)
            assert list(d["probabilities"]) == list(d["counts"])
            assert d["probabilities"] == {b: c / 50 for b, c in expected.items()}


def random_distributions(rng, rows, n):
    table = rng.random((rows, 1 << n))
    return table / table.sum(axis=1, keepdims=True)


class TestReadoutChannel:
    """``readout_channel`` is the flip channel A = (x)_q [[1 - p, p], [p, 1 - p]]
    on outcome distributions, and ``sample`` draws its counts from A P."""

    @pytest.mark.parametrize("flip", [0.0, 0.01, 0.3, 0.49])
    @pytest.mark.parametrize("n", range(1, 7))
    def test_equals_the_dense_transition_matrix(self, n, flip):
        table = random_distributions(np.random.default_rng(n), 5, n)
        dense = readout_matrix(n, flip)
        block = readout_channel(table.copy(), flip)
        np.testing.assert_allclose(block, table @ dense.T, rtol=1e-12, atol=1e-16)
        for row, want in zip(table, block):
            alone = readout_channel(row.copy(), flip)
            np.testing.assert_allclose(alone, dense @ row, rtol=1e-12, atol=1e-16)
            # element-wise steps: a row gets the same bits in a block as alone
            assert_same_bits(alone, want)

    @pytest.mark.parametrize("n", range(1, 9))
    def test_parities_shrink_by_one_factor_per_bit(self, n):
        """After the channel, parity average m is (1 - 2p)^popcount(m) times
        the clean one."""
        table = random_distributions(np.random.default_rng(50 + n), 3, n)
        clean = parity_expectations(table.copy())
        weight = np.bitwise_count(np.arange(1 << n)).astype(np.int64)
        for flip in (0.01, 0.2, 0.45):
            noisy = parity_expectations(readout_channel(table.copy(), flip))
            np.testing.assert_allclose(noisy, clean * (1 - 2 * flip) ** weight, rtol=0, atol=1e-12)

    def test_refuses_a_strided_table(self):
        table = np.full((4, 4), 0.25)
        with pytest.raises(ValueError, match="C-contiguous"):
            readout_channel(table[:, ::2], 0.1)
        assert (table == 0.25).all()

    def test_distribution_is_left_as_it_was(self):
        probs = np.array([0.5, 0.25, 0.125, 0.125])
        sample(Distribution(2, probs), 100, seed=1, readout_flip=0.2)
        np.testing.assert_array_equal(probs, [0.5, 0.25, 0.125, 0.125])

    def test_counts_follow_the_per_shot_flip_law(self):
        """Over 600 seeds, the multinomial draw from A P and the per-shot
        binomial flips agree in every outcome's mean and variance: each mean
        within 5 standard errors of shots * (A P)_b and of the other
        sampler's, each variance within [0.7, 1.4] of shots * q (1 - q) and
        of the other's (the relative standard error of a variance over 600
        draws is about 0.06)."""
        n, shots, flip, seeds = 3, 500, 0.1, 600
        probs = random_distributions(np.random.default_rng(9), 1, n)[0]
        q = readout_matrix(n, flip) @ probs
        new = np.array([
            sample(Distribution(n, probs), shots, seed=s, readout_flip=flip)
            for s in range(seeds)
        ])
        old = np.array([binomial_flip_sample(probs, shots, s, flip) for s in range(seeds)])
        law_var = shots * q * (1 - q)
        for counts in (new, old):
            assert (counts.sum(axis=1) == shots).all()
            mean, var = counts.mean(axis=0), counts.var(axis=0, ddof=1)
            assert (abs(mean - shots * q) < 5 * np.sqrt(law_var / seeds)).all()
            assert (0.7 < var / law_var).all() and (var / law_var < 1.4).all()
        var_new, var_old = new.var(axis=0, ddof=1), old.var(axis=0, ddof=1)
        gap = abs(new.mean(axis=0) - old.mean(axis=0))
        assert (gap < 5 * np.sqrt((var_new + var_old) / seeds)).all()
        assert (0.7 < var_new / var_old).all() and (var_new / var_old < 1.4).all()


def per_gate_hadamard(amps, n, pos):
    """A Hadamard on qubit ``pos`` as the gate kernel once applied it, on a
    (2,)*n view: (a + b) / sqrt(2) and (a - b) / sqrt(2), in place."""
    v = np.moveaxis(amps.reshape((2,) * n), pos, 0)
    a = v[0].copy()
    b = v[1]
    v[0] = (a + b) * _INV_SQRT2
    v[1] = (a - b) * _INV_SQRT2


def unitary_rotation(state, zmask):
    """One setting's basis change gate by gate, in complex128: the reference."""
    n = state.n_qubits
    rotated = state.amplitudes.copy()
    for gate in measurement_circuit(MeasurementSetting.from_z_mask(zmask, n)).gates:
        per_gate_hadamard(rotated, n, gate.target)
    return rotated


@settings(max_examples=100, deadline=None)
@given(n=st.integers(1, 6), pos=st.integers(0, 5), seed=st.integers(0, 2**32 - 1))
def test_hadamard_gate_is_the_sweep_layer_bit_for_bit(n, pos, seed):
    """The H gate runs the sweep's layer, times 1/sqrt(2): the same IEEE
    operations as the per-gate formula, so the same bits."""
    pos %= n
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(seed), n))
    want = state.amplitudes.copy()
    per_gate_hadamard(want, n, pos)
    assert np.array_equal(apply_gate(state, h(pos)).amplitudes, want)


@st.composite
def sweep_cases(draw):
    """A state (complex, or real with no imaginary part) and a Z-mask list:
    masks of at most one bit, as grouped plans have, or any masks; both may
    repeat."""
    n = draw(st.integers(1, 6))
    single = st.sampled_from([0] + [1 << pos for pos in range(n)])
    masks = draw(st.sampled_from([single, st.integers(0, (1 << n) - 1)]))
    zmasks = draw(st.lists(masks, max_size=2 * n + 3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    real = draw(st.booleans())
    amps = rng.normal(size=1 << n) if real else random_state_vector(rng, n)
    return init_amplitudes(n, amps), zmasks, real


@settings(max_examples=200, deadline=None)
@given(sweep_cases())
@example((init_amplitudes(3, backflow_coefficients(3).a), [0, 4, 2, 1], True))
@example((init_amplitudes(2, [1, 1j, -1, 0.5]), [1, 1, 0, 3, 2, 0], False))
def test_rotated_settings_match_per_gate_rotations(case):
    """Every setting is yielded once, with the per-gate rotation's bits, in
    float64 with unitary layers."""
    state, zmasks, real = case
    n = state.n_qubits
    seen = []
    for k, parts in rotated_settings(state.amplitudes, n, zmasks):
        seen.append(k)
        want = unitary_rotation(state, zmasks[k])
        assert [part.dtype for part in parts] == [np.dtype(np.float64)] * (2 - real)
        assert np.array_equal(parts[0], want.real)
        if real:
            assert not want.imag.any()
        else:
            assert np.array_equal(parts[1], want.imag)
    assert sorted(seen) == list(range(len(zmasks)))


def shared_layer_count(zmasks, n):
    """Layers per part when settings share the layers before their leftmost
    Z: those up to the last leftmost Z, then each setting's X positions
    after its own."""
    first = [n - zmask.bit_length() for zmask in zmasks]
    after = sum(n - pos - zmask.bit_count() for zmask, pos in zip(zmasks, first) if zmask)
    return max(first, default=0) + after


@pytest.mark.parametrize("n", [1, 2, 4, 7])
def test_rotated_settings_share_the_prefix(monkeypatch, n):
    """The N + 1 grouped settings take N(N + 1)/2 layers per part, not N^2;
    any plan shares the layers before each setting's leftmost Z."""
    layers = []
    layer = ringflow.engine._hadamard_layer
    monkeypatch.setattr(
        ringflow.engine, "_hadamard_layer", lambda *a: layers.append(a[2]) or layer(*a)
    )
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(n), n))
    grouped = [1 << pos for pos in range(n)] + [0]
    assert len(list(rotated_settings(state.amplitudes, n, grouped))) == n + 1
    assert len(layers) == 2 * n * (n + 1) // 2 == 2 * shared_layer_count(grouped, n)
    for per_term in ([(1 << n) - 1, 0, 3 % (1 << n), 0], [1 << (n - 1), 1]):
        layers.clear()
        list(rotated_settings(state.amplitudes, n, per_term))
        assert len(layers) == 2 * shared_layer_count(per_term, n)


def _random_table(rng, shape, dtype):
    if dtype is np.int64:
        return rng.integers(-(1 << 40), 1 << 40, size=shape)
    return rng.normal(size=shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.longdouble],
                         ids=["float64", "int64", "longdouble"])
@pytest.mark.parametrize("n", range(1, 17))
def test_parity_expectations_match_the_layer_oracle(n, dtype):
    """The tiled kernel gives the whole-table layers' table bit for bit, on
    one row and on tables of several rows (13 rows fill one tile and part
    of the next at N = 12)."""
    rng = np.random.default_rng(700 + n)
    for shape in ((1 << n,), (3, 1 << n), (13, 1 << n)):
        if n > 12 and len(shape) > 1 and shape[0] > 3:
            continue
        table = _random_table(rng, shape, dtype)
        want = parity_layers(table.copy())
        got = parity_expectations(table)
        assert got is table
        assert got.dtype == want.dtype
        assert np.array_equal(got, want) and np.array_equal(np.signbit(got), np.signbit(want))


@pytest.mark.parametrize("n", range(1, 17))
def test_expectation_matches_the_per_setting_oracle(n):
    """The expansion's expectation, on the backflowing state and on a seeded
    complex state, is the per-setting reference's float exactly."""
    dec = current_decomposition(n)
    rng = np.random.default_rng(900 + n)
    for amps in (backflow_coefficients(n).a, random_state_vector(rng, n)):
        state = init_amplitudes(n, amps)
        assert expectation_pauli(state, dec) == expectation_per_setting(state, dec)


@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize("n", [3, 6, 9])
def test_expectation_in_small_word_blocks(monkeypatch, n, block):
    """Words read a few at a time give the same float, also for a shuffled
    expansion, whose settings first appear in another order."""
    dec = current_decomposition(n)
    rng = np.random.default_rng(40 + n)
    shuffled = rng.permutation(len(dec.words))
    mixed = WeightedPauliSum.from_columns(
        n, dec.identity_weight, [dec.words[i] for i in shuffled], dec.coeff_array[shuffled]
    )
    state = init_amplitudes(n, random_state_vector(rng, n))
    want = [expectation_per_setting(state, op) for op in (dec, mixed)]
    small_word_blocks(monkeypatch, block)
    assert [expectation_pauli(state, op) for op in (dec, mixed)] == want


@pytest.mark.parametrize(
    "coeffs, dtype",
    [
        ([2.0**52, -(2.0**51), 2.0**50, -(2.0**50 - 1)], np.int64),
        ([2.0**52, -(2.0**51), 2.0**50, -(2.0**50)], np.longdouble),
        ([1.0] * 6 + [2.0**53 - 7], np.int64),
        ([1.0] * 7 + [2.0**53 - 7], np.longdouble),
    ],
    ids=["2^53 - 1", "2^53", "ones then 2^53 - 7", "ones then 2^53 - 6"],
)
def test_coefficient_dtype_over_word_blocks(monkeypatch, coeffs, dtype):
    """The exact/longdouble choice on an absolute sum of 2^53 - 1 and of
    2^53 spread over blocks of one and two words, in every rotation of the
    coefficients: integer partial sums below 2^53 are exact, and once one
    reaches 2^53 no later addition brings it back below.  Below 2^53 each
    setting is read in int64, or in int32 where its own absolute sum is
    below 2^31, as the settings of the ones are."""
    n = 3
    words = current_decomposition(n).words[: len(coeffs)]
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(6), n))
    seen = _spy_dtypes(monkeypatch)
    for block in (1, 2):
        small_word_blocks(monkeypatch, block)
        for shift in range(len(coeffs)):
            seen.clear()
            turned = coeffs[shift:] + coeffs[:shift]
            op_sum = WeightedPauliSum.from_columns(n, 0.0, words, turned)
            assert expectation_pauli(state, op_sum) == expectation_per_setting(state, op_sum)
            assert seen == _segment_dtypes(op_sum)
            assert set(seen) - {np.dtype(np.int32)} == {np.dtype(dtype)}


@pytest.mark.parametrize("block", [1, 2, 5])
def test_int32_boundary_of_a_setting_absolute_sum(monkeypatch, block):
    """A setting whose coefficients' absolute sum is 2^31 - 1 is read in
    int32 and one whose sum is 2^31 in int64; with all coefficients
    positive, the transform at mask 0 is that sum, which int32 would wrap.
    On a real and on a complex state both references float exactly."""
    n = 3
    words = ["ZII", "IZI", "ZIX", "IZX", "ZXI", "XZI"]
    coeffs = [2.0**30, 2.0**30, 2.0**29, 2.0**29, 2.0**29 - 1, 2.0**29]
    op_sum = WeightedPauliSum.from_columns(n, 0.5, words, coeffs)
    seen = _spy_dtypes(monkeypatch)
    small_word_blocks(monkeypatch, block)
    rng = np.random.default_rng(31 + block)
    for amps in (random_state_vector(rng, n), backflow_coefficients(n).a):
        seen.clear()
        state = init_amplitudes(n, amps)
        value = expectation_pauli(state, op_sum)
        assert seen == [np.dtype(np.int32), np.dtype(np.int64)]
        assert value == expectation_per_setting(state, op_sum)
        assert value == grouped_per_word(state, op_sum)


def _traced_peak(call):
    """The value of ``call()`` and the peak of the memory it traced."""
    tracemalloc.start()
    try:
        value = call()
        return value, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def _first_word_order_sum(n, coeffs):
    """The expansion's words with every Z-at-0 word first and every all-X
    word last; between them the other Z settings, last position first,
    except that one word of Z at position 1 waits just before the all-X
    words, the first word of its setting."""
    dec = current_decomposition(n)
    by_setting = {}
    for i, word in enumerate(dec.words):
        by_setting.setdefault(word.find("Z"), []).append(i)
    late = by_setting.pop(1)
    order = by_setting.pop(0) + [i for pos in range(n - 1, 1, -1) for i in by_setting.pop(pos)]
    order += late[1:] + late[:1] + by_setting.pop(-1)
    return WeightedPauliSum.from_columns(
        n, 0.5, [dec.words[i] for i in order], coeffs(dec.coeff_array[order])
    )


@pytest.mark.parametrize("block", [1, 2, 5])
def test_settings_added_in_the_order_of_their_first_words(monkeypatch, block):
    """Settings that first appear in another order than the plan's, one of
    them in a late block, with integer and with fractional coefficients, on
    a complex and on a real state: the reference floats exactly.  On
    |00000> a word of one Z and no X reads its coefficient exactly, so
    0.5 + 2^70 - 2^70 + 1 is 1 in the words' order, and 0 in the plan's or
    by Z bit, where 1 or 0.5 meets 2^70 and is lost."""
    n = 5
    rng = np.random.default_rng(block)
    small_word_blocks(monkeypatch, block)
    words = ["IIIIZ", "ZIIII", "IZIII"]
    cancelling = WeightedPauliSum.from_columns(n, 0.5, words, [2.0**70, -(2.0**70), 1.0])
    for reference in (expectation_pauli, grouped_per_word, expectation_per_setting):
        assert reference(init_basis(n, 0), cancelling) == 1.0
    for coeffs in (lambda c: c, lambda c: c * 0.5 + 0.25):
        op_sum = _first_word_order_sum(n, coeffs)
        assert op_sum.words[0][0] == "Z" and "Z" not in op_sum.words[-1]
        for amps in (random_state_vector(rng, n), backflow_coefficients(n).a):
            state = init_amplitudes(n, amps)
            value = expectation_pauli(state, op_sum)
            assert value == grouped_per_word(state, op_sum)
            assert value == expectation_per_setting(state, op_sum)


@pytest.mark.parametrize("block", [1, 2, 5])
@pytest.mark.parametrize(
    "words",
    [["IIIIIZXXXXXXXXXXXX"], ["IXXIIIIIIIIIIIIIIZ", "XXXXXXXXXXXXXXXXXI", "IIIIIIIIIIIIIIIXIZ"]],
    ids=["one Z setting", "a Z and the all-X setting"],
)
def test_a_sparse_sum_holds_only_the_settings_it_reads(monkeypatch, block, words):
    """At N = 18 the traced peak is two longdouble parts of the rotated
    complex state and two outcome vectors, 64 B per basis index, plus at
    most 16 B per index for each setting read.  A table for every setting
    would add (N + 2) * 2^(N-1) int64 entries, 80 B per index."""
    n = 18
    small_word_blocks(monkeypatch, block)
    op_sum = WeightedPauliSum.from_columns(n, 0.5, words, [3.0, -1.5, 2.0][: len(words)])
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(18), n))
    value, peak = _traced_peak(lambda: expectation_pauli(state, op_sum))
    read = len({word.find("Z") for word in words})
    assert peak <= (64 + 16 * read) << n, f"peak {peak / (1 << n):.1f} B per index"
    assert value == grouped_per_word(state, op_sum)
    assert value == expectation_per_setting(state, op_sum)


def test_sixteen_qubit_expectation_peak_memory():
    """With the sum and the state built, reading the 16-qubit expansion
    traces at most 8.0 MB: 4.7 MB of int64 coefficients in one table of
    the 17 settings, the rotated state, and a buffer of 2^15 int64 entries
    (0.26 MB) that takes an integer setting's absolute values and its
    int32 copy.  It measured 7.61 MB, 7.35 MB before that buffer; with a
    setting column, a mask column and a zeroed vector per setting,
    9.57 MB.  Fractional coefficients are kept in a float64 table and
    widened one setting at a time, with no buffer: 8.92 MB, against
    10.16 MB with a longdouble vector per setting."""
    dec = current_decomposition(16)
    fractional = WeightedPauliSum.from_columns(16, 0.5, dec.words, dec.coeff_array * 0.5 + 0.25)
    state = init_amplitudes(16, backflow_coefficients(16).a)
    value, peak = _traced_peak(lambda: expectation_pauli(state, dec))
    assert value == -32767.25000572292
    assert peak <= 8.0e6, f"peak {peak / 1e6:.2f} MB"
    _, peak = _traced_peak(lambda: expectation_pauli(state, fractional))
    assert peak <= 9.6e6, f"peak {peak / 1e6:.2f} MB"


def test_sixteen_qubit_z_settings_read_in_int32(monkeypatch):
    """Each of the 16-qubit expansion's Z settings has an absolute sum below
    2^31 and is read in int32; the all-X setting's is not, and is read in
    int64.  The float is the pinned one."""
    dec = current_decomposition(16)
    seen = _spy_dtypes(monkeypatch)
    state = init_amplitudes(16, backflow_coefficients(16).a)
    assert expectation_pauli(state, dec) == -32767.25000572292
    assert sorted(map(str, seen)) == ["int32"] * 16 + ["int64"]
    assert seen == _segment_dtypes(dec)


def test_unmeasurable_word_in_a_later_block_is_refused(monkeypatch):
    """The first word no Z/X setting reads is named, whichever block it is in."""
    small_word_blocks(monkeypatch, 2)
    words = ["IX", "XI", "XX", "ZX", "ZZ", "YI"]
    op_sum = WeightedPauliSum.from_columns(2, 0.0, words, [1.0] * 6)
    with pytest.raises(ValueError, match="term ZZ not measurable with Z/X settings"):
        expectation_pauli(init_basis(2, 1), op_sum)
