import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import ringflow.engine
from ringflow.circuits import MeasurementSetting, measurement_circuit
from ringflow.engine import (
    MAX_SHOTS,
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
    parity_expectations,
    rotated_settings,
    ry,
    sample,
    x,
    z,
    z_probabilities,
)
from ringflow.engine import _INV_SQRT2, _expectation_direct, _expectation_grouped
from ringflow.experiment import backflow_coefficients, run_simulation
from ringflow.pauli import (
    PauliString,
    WeightedPauliSum,
    current_decomposition,
    index_masks,
    term_count,
)

from conftest import measurable_sums, random_state_vector

INV_SQRT5 = 1.0 / math.sqrt(5.0)


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

    def test_statevector_requires_normalization(self):
        with pytest.raises(ValueError, match="normalized"):
            Statevector(1, np.array([1.0, 1.0]))


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
        rng = np.random.default_rng(3)
        state = init_amplitudes(2, random_state_vector(rng, 2))
        op = WeightedPauliSum(2, 0.0, (PauliString("YX", 1.0),))
        y = np.array([[0, -1j], [1j, 0]])
        xm = np.array([[0, 1], [1, 0]])
        dense = np.kron(y, xm)
        expected = np.real(np.conj(state.amplitudes) @ dense @ state.amplitudes)
        assert abs(expectation_pauli(state, op) - expected) < 1e-12

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
            direct = _expectation_direct(state, dec, 1e-10)
            grouped = _expectation_grouped(state, dec)
            assert abs(direct - grouped) < 1e-10

    def test_path_chosen_by_word_shape(self):
        """Every {I,X,Z} sum with at most one Z per word takes the grouped path."""
        rng = np.random.default_rng(7)
        state = init_amplitudes(3, random_state_vector(rng, 3))
        dec = current_decomposition(3)
        assert expectation_pauli(state, dec) == _expectation_grouped(state, dec)
        for word in ("YXI", "ZZI"):
            op = WeightedPauliSum(3, 0.5, (PauliString(word, 1.0),))
            assert expectation_pauli(state, op) == _expectation_direct(state, op, 1e-10)

    def test_grouped_path_engages_at_scale(self):
        state = init_amplitudes(12, backflow_coefficients(12).a)
        dec = current_decomposition(12)
        from ringflow.experiment import closed_form_current

        value = expectation_pauli(state, dec) / (4 * math.pi)
        assert abs(value - closed_form_current(12)) < 1e-9


def grouped_per_word(state, op_sum):
    """The grouped estimator with one Python step per word, as the reference.

    Settings are keyed by Z mask in a dict, so they are visited in order of
    first appearance and keep their terms in order; the bulk version must
    give the same bits.
    """
    n = state.n_qubits
    groups = {}
    for term in op_sum.terms:
        mx, _, mz = index_masks(term.word)
        masks, coeffs = groups.setdefault(mz, ([], []))
        masks.append(mx | mz)
        coeffs.append(term.coeff)
    base = state.amplitudes.astype(np.clongdouble)
    total = np.longdouble(op_sum.identity_weight)
    for zmask, (masks, coeffs) in groups.items():
        rotated = base.copy()
        n_rotations = 0
        for pos in range(n):
            if not (1 << (n - 1 - pos)) & zmask:
                v = np.moveaxis(rotated.reshape((2,) * n), pos, 0)
                a = v[0].copy()
                b = v[1]
                v[0] = a + b
                v[1] = a - b
                n_rotations += 1
        probs = (rotated.real**2 + rotated.imag**2) / (1 << n_rotations)
        gathered = parity_expectations(probs, masks)
        total += (np.asarray(coeffs, dtype=np.longdouble) * gathered).sum()
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
        assert abs(_expectation_direct(state, op, 1e-10) - grouped_per_word(state, op)) < 1e-10


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


@settings(max_examples=200, deadline=None)
@given(measurable_sums(), st.integers(0, 2**32 - 1))
@example(WeightedPauliSum(3, 0.5, ()), 0)
def test_grouped_path_bit_identical_on_random_sums(op_sum, seed):
    """Shuffled sums, sums that lack settings, and the empty sum."""
    n = op_sum.n_qubits
    state = init_amplitudes(n, random_state_vector(np.random.default_rng(seed), n))
    assert expectation_pauli(state, op_sum) == grouped_per_word(state, op_sum)


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
    assert expectation_pauli(state, dec) == -32767.25000572094
    run_simulation(6, shots_per_setting=100, seed=1)
    for n in (1, 5, 16):
        assert len(current_decomposition(n).terms) == term_count(n)
    assert built == []
    last = dec.terms[-1]  # a term is built, and checked, when it is read
    assert built == [dec.words[-1]]
    assert (last.word, last.coeff) == (dec.words[-1], dec.coeffs[-1])


def test_empty_sum_is_its_identity_weight():
    state = init_basis(2, 1)
    assert expectation_pauli(state, WeightedPauliSum(2, 2.5, ())) == 2.5


@pytest.mark.parametrize("dtype", [np.float64, np.longdouble])
def test_parity_expectations_match_popcount_sum(dtype):
    rng = np.random.default_rng(5)
    probs = rng.random(32).astype(dtype)
    probs /= probs.sum()
    masks = [0, 1, 6, 19, 31]
    out = parity_expectations(probs, masks)
    assert out.dtype == dtype
    idx = np.arange(32)
    for mask, value in zip(masks, out):
        signs = 1 - 2 * (np.bitwise_count(idx & mask).astype(np.int64) & 1)
        assert abs(value - (signs * probs).sum()) < 1e-15


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


def unitary_rotation(state, zmask):
    """One setting's basis change gate by gate, in complex128: the reference."""
    setting = MeasurementSetting.from_z_mask(zmask, state.n_qubits)
    return apply_circuit(state, measurement_circuit(setting)).amplitudes


def unnormalized_rotation(state, zmask):
    """One setting's unnormalized Hadamards one at a time, in clongdouble."""
    n = state.n_qubits
    rotated = state.amplitudes.astype(np.clongdouble)
    for gate in measurement_circuit(MeasurementSetting.from_z_mask(zmask, n)).gates:
        v = np.moveaxis(rotated.reshape((2,) * n), gate.target, 0)
        a = v[0].copy()
        b = v[1]
        v[0] = a + b
        v[1] = a - b
    return rotated


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
    """Every setting is yielded once, with the per-gate rotation's bits: in
    float64 with unitary layers and in longdouble with unnormalized ones."""
    state, zmasks, real = case
    n = state.n_qubits
    for dtype, scale, reference in (
        (np.float64, _INV_SQRT2, unitary_rotation),
        (np.longdouble, None, unnormalized_rotation),
    ):
        seen = []
        for k, parts in rotated_settings(state.amplitudes, n, zmasks, dtype, scale):
            seen.append(k)
            want = reference(state, zmasks[k])
            assert [part.dtype for part in parts] == [np.dtype(dtype)] * (2 - real)
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
    assert len(list(rotated_settings(state.amplitudes, n, grouped, np.float64))) == n + 1
    assert len(layers) == 2 * n * (n + 1) // 2 == 2 * shared_layer_count(grouped, n)
    for per_term in ([(1 << n) - 1, 0, 3 % (1 << n), 0], [1 << (n - 1), 1]):
        layers.clear()
        list(rotated_settings(state.amplitudes, n, per_term, np.float64))
        assert len(layers) == 2 * shared_layer_count(per_term, n)
