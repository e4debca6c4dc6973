"""Word expansion of the current operator versus the dense entry formula.

The dense matrix (entry = row index + column index) and the tensor-product
realization of the expansion are independent routes; everything here is
integer-exact, so comparisons use strict equality.
"""
import json
import math
from functools import reduce
from itertools import product

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ringflow.pauli import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PauliString,
    RegisterTooLargeError,
    WeightedPauliSum,
    current_decomposition,
    dense_current_matrix,
    index_masks,
    realize_dense,
    term_count,
    word_masks,
)

I2 = np.eye(2, dtype=np.int64)
X2 = np.array([[0, 1], [1, 0]], dtype=np.int64)
Y2 = np.array([[0, -1j], [1j, 0]])
Z2 = np.array([[1, 0], [0, -1]], dtype=np.int64)
MATS = {"I": I2, "X": X2, "Y": Y2, "Z": Z2}


def kron_word(word: str) -> np.ndarray:
    return reduce(np.kron, (MATS[ch] for ch in word))


def brute_expansion(n: int) -> dict[str, int]:
    """Independent expansion oracle: distribute (I+X) factors term by term."""
    weights: dict[str, int] = {}
    top = 2**n - 1
    for letters in product("IX", repeat=n):
        word = "".join(letters)
        weights[word] = weights.get(word, 0) + top
    for slot in range(n):
        for letters in product("IX", repeat=n - 1):
            word = "".join(letters[:slot]) + "Z" + "".join(letters[slot:])
            weights[word] = weights.get(word, 0) - 2 ** (n - 1 - slot)
    return {w: c for w, c in weights.items() if c != 0 and w.strip("I")}


def merged_sorted_expansion(n_qubits: int) -> WeightedPauliSum:
    """The expansion built by merging weights in a dict and sorting the words.

    This was ``current_decomposition`` before it built its words in sorted
    order; it stays here as the reference for words, weights and order.
    """
    top = (1 << n_qubits) - 1
    weights: dict[str, int] = {}
    for letters in product("IX", repeat=n_qubits):
        weights["".join(letters)] = top
    for pos in range(n_qubits):
        w = -(1 << (n_qubits - 1 - pos))
        for letters in product("IX", repeat=n_qubits - 1):
            word = "".join(letters[:pos]) + "Z" + "".join(letters[pos:])
            weights[word] = weights.get(word, 0) + w
    identity = weights.pop("I" * n_qubits)
    terms = tuple(
        PauliString(word, float(c)) for word, c in sorted(weights.items()) if c != 0
    )
    return WeightedPauliSum(n_qubits, float(identity), terms)


class TestDenseCurrentMatrix:
    def test_one_qubit_matrix(self):
        assert dense_current_matrix(1).tolist() == [[0, 1], [1, 2]]

    def test_two_qubit_matrix(self):
        expected = [[0, 1, 2, 3], [1, 2, 3, 4], [2, 3, 4, 5], [3, 4, 5, 6]]
        assert dense_current_matrix(2).tolist() == expected

    def test_corner_entry(self):
        assert dense_current_matrix(3)[7, 7] == 14  # = 2^(N+1) - 2

    @pytest.mark.parametrize("n", range(1, 9))
    def test_symmetric_with_known_trace(self, n):
        mat = dense_current_matrix(n)
        assert np.array_equal(mat, mat.T)
        assert mat.trace() == 2**n * (2**n - 1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_block_recursion(self, n):
        """Quadrants are the smaller operator shifted by constant offsets."""
        mat = dense_current_matrix(n)
        sub = dense_current_matrix(n - 1)
        half = 2 ** (n - 1)
        ones = np.ones_like(sub)
        assert np.array_equal(mat[:half, :half], sub)
        assert np.array_equal(mat[:half, half:], sub + half * ones)
        assert np.array_equal(mat[half:, :half], sub + half * ones)
        assert np.array_equal(mat[half:, half:], sub + 2 * half * ones)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            dense_current_matrix(DENSE_QUBIT_CAP + 1)
        with pytest.raises(ValueError):
            dense_current_matrix(9, cap=8)

    def test_rejects_bad_qubit_count(self):
        with pytest.raises(ValueError):
            dense_current_matrix(0)


class TestCurrentDecomposition:
    def test_one_qubit_terms(self):
        dec = current_decomposition(1)
        assert dec.identity_weight == 1.0
        assert [(t.word, t.coeff) for t in dec.terms] == [("X", 1.0), ("Z", -1.0)]

    def test_two_qubit_terms(self):
        dec = current_decomposition(2)
        assert dec.identity_weight == 3.0
        assert {t.word: t.coeff for t in dec.terms} == {
            "IX": 3.0,
            "XI": 3.0,
            "XX": 3.0,
            "ZI": -2.0,
            "ZX": -2.0,
            "IZ": -1.0,
            "XZ": -1.0,
        }

    def test_three_qubit_count_and_dense_equality(self):
        dec = current_decomposition(3)
        assert len(dec.terms) == 19
        assert np.array_equal(realize_dense(dec), dense_current_matrix(3))

    @pytest.mark.parametrize("n", range(1, 9))
    def test_matches_dense_oracle_exactly(self, n):
        dec = current_decomposition(n)
        assert realize_dense(dec).dtype == np.int64
        assert np.array_equal(realize_dense(dec), dense_current_matrix(n))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_matches_brute_expansion(self, n):
        dec = current_decomposition(n)
        assert {t.word: t.coeff for t in dec.terms} == {
            w: float(c) for w, c in brute_expansion(n).items()
        }
        assert dec.identity_weight == 2**n - 1

    @pytest.mark.parametrize("n", range(1, 9))
    def test_term_structure(self, n):
        dec = current_decomposition(n)
        words = [t.word for t in dec.terms]
        assert len(words) == term_count(n)
        assert words == sorted(words)
        for word in words:
            assert "Y" not in word
            assert word.count("Z") <= 1

    def test_serialization_round_trip(self):
        dec = current_decomposition(3)
        data = json.loads(json.dumps(dec.to_dict()))
        assert WeightedPauliSum.from_dict(data) == dec


class TestTermCount:
    @pytest.mark.parametrize("n, expected", [(1, 2), (2, 7), (4, 47)])
    def test_known_counts(self, n, expected):
        assert term_count(n) == expected

    def test_matches_enumeration_oracle(self):
        assert term_count(4) == len(brute_expansion(4)) == 47


class TestRealizeDense:
    def test_single_qubit_sum(self):
        dec = WeightedPauliSum(1, 1.0, (PauliString("X", 1.0), PauliString("Z", -1.0)))
        assert realize_dense(dec).tolist() == [[0, 1], [1, 2]]

    def test_identity_only(self):
        out = realize_dense(WeightedPauliSum(3, 5.0, ()))
        assert np.array_equal(out, 5 * np.eye(8, dtype=np.int64))

    def test_two_qubit_expanded_form(self):
        """Direct tensor expansion of the seven-term sum gives the 4x4 matrix."""
        dec = current_decomposition(2)
        manual = 3.0 * np.eye(4) + sum(
            t.coeff * kron_word(t.word) for t in dec.terms
        )
        assert np.array_equal(manual, dense_current_matrix(2))
        assert np.array_equal(realize_dense(dec), manual)

    def test_non_integer_coefficients_stay_float(self):
        out = realize_dense(WeightedPauliSum(1, 0.5, (PauliString("X", 1.5),)))
        assert out.dtype == np.float64
        assert out.tolist() == [[0.5, 1.5], [1.5, 0.5]]

    def test_y_words_go_complex(self):
        out = realize_dense(WeightedPauliSum(1, 0.0, (PauliString("Y", 2.0),)))
        np.testing.assert_array_equal(out, 2.0 * Y2)

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            realize_dense(WeightedPauliSum(DENSE_QUBIT_CAP + 1, 0.0, ()))


@settings(deadline=None, max_examples=60)
@given(st.text(alphabet="IXYZ", min_size=1, max_size=5), st.integers(-9, 9))
def test_realize_matches_kron_oracle(word, coeff):
    """Any single weighted word realizes as coeff times the plain kron product."""
    if not word.strip("I") or coeff == 0:
        total = WeightedPauliSum(len(word), float(coeff), ())
        np.testing.assert_array_equal(
            realize_dense(total), coeff * np.eye(2 ** len(word))
        )
        return
    one = WeightedPauliSum(len(word), 0.0, (PauliString(word, float(coeff)),))
    np.testing.assert_array_equal(realize_dense(one), coeff * kron_word(word))


def test_index_masks_follow_msb_convention():
    assert index_masks("XIZ") == (0b100, 0, 0b001)
    assert index_masks("IY") == (0, 0b01, 0)


@st.composite
def words_of_one_length(draw):
    # 7..9 and 16..17 straddle the byte boundaries packbits pads to
    n = draw(st.one_of(st.sampled_from([7, 8, 9, 16, 17]), st.integers(1, 20)))
    word = st.text(alphabet="IXYZ", min_size=n, max_size=n)
    return n, draw(st.lists(word, max_size=30))


@settings(deadline=None, max_examples=150)
@given(words_of_one_length())
def test_word_masks_match_index_masks(case):
    n, words = case
    masks = word_masks(words, n)
    assert all(m.dtype == np.int64 and m.shape == (len(words),) for m in masks)
    assert list(zip(*(m.tolist() for m in masks))) == [index_masks(w) for w in words]


@pytest.mark.parametrize("n", [7, 8, 9, 16, 17])
def test_word_masks_every_letter_at_every_position(n):
    words = [
        "I" * pos + letter + "I" * (n - 1 - pos) for letter in "IXYZ" for pos in range(n)
    ] + [letter * n for letter in "XYZ"]
    masks = word_masks(words, n)
    assert list(zip(*(m.tolist() for m in masks))) == [index_masks(w) for w in words]


def test_word_masks_reject_wrong_length():
    with pytest.raises(ValueError, match="letters"):
        word_masks(["XX", "X", "XXX"], 2)


@pytest.mark.parametrize("n", range(1, 13))
def test_decomposition_equals_merged_sorted_construction(n):
    dec = current_decomposition(n)
    ref = merged_sorted_expansion(n)
    assert [(t.word, t.coeff) for t in dec.terms] == [(t.word, t.coeff) for t in ref.terms]
    assert all(type(t.coeff) is float for t in dec.terms)
    assert dec.identity_weight == ref.identity_weight
    assert type(dec.identity_weight) is float


class TestRegisterCap:
    def test_decomposition_refused_above_cap(self):
        # term_count(MAX_QUBITS + 1) words would take minutes to enumerate
        with pytest.raises(RegisterTooLargeError, match="cap"):
            current_decomposition(MAX_QUBITS + 1)
        with pytest.raises(RegisterTooLargeError):
            current_decomposition(64)

    def test_term_count_stays_uncapped(self):
        assert term_count(40) == 2**40 + 40 * 2**39 - 1


class TestTypeInvariants:
    def test_pauli_string_rejects_bad_letters(self):
        with pytest.raises(ValueError):
            PauliString("XQ", 1.0)
        with pytest.raises(ValueError):
            PauliString("", 1.0)
        with pytest.raises(ValueError):
            PauliString("X", float("nan"))

    def test_sum_rejects_identity_term(self):
        with pytest.raises(ValueError, match="identity"):
            WeightedPauliSum(2, 0.0, (PauliString("II", 1.0),))

    def test_sum_rejects_duplicates(self):
        with pytest.raises(ValueError, match="duplicate"):
            WeightedPauliSum(1, 0.0, (PauliString("X", 1.0), PauliString("X", 2.0)))

    def test_sum_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            WeightedPauliSum(2, 0.0, (PauliString("X", 1.0),))

    def test_sum_names_the_term_of_wrong_length(self):
        terms = (PauliString("XZ", 1.0), PauliString("XZI", 1.0), PauliString("Z", 1.0))
        with pytest.raises(ValueError, match="XZI does not act on 2 qubits"):
            WeightedPauliSum(2, 0.0, terms)


def per_term_checks(n_qubits, identity_weight, words, coeffs):
    """The checks as they ran before the columns: one ``PauliString`` per word
    (letters, empty word, finite coefficient), then the sum's own checks."""
    if n_qubits < 1 or not math.isfinite(identity_weight):
        raise ValueError("bad register or identity weight")
    terms = [PauliString(w, c) for w, c in zip(words, coeffs)]
    if any(len(t.word) != n_qubits for t in terms):
        raise ValueError("length")
    distinct = {t.word for t in terms}
    if "I" * n_qubits in distinct:
        raise ValueError("identity")
    if len(distinct) != len(terms):
        raise ValueError("duplicate")


_WORDS = st.text(alphabet="IXYZ", max_size=4) | st.text(alphabet="IXYZAx -", max_size=4)
_COEFFS = st.floats(-4.0, 4.0) | st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=300, deadline=None)
@given(n=st.integers(1, 3), pairs=st.lists(st.tuples(_WORDS, _COEFFS), max_size=6))
@example(n=3, pairs=[("XXI", 1.0), ("XAX", 1.0)])
@example(n=1, pairs=[("", 1.0)])
@example(n=2, pairs=[("XZ", math.nan)])
@example(n=2, pairs=[("XZ", 1.0), ("XZ", 2.0)])
@example(n=2, pairs=[("II", 1.0)])
@example(n=2, pairs=[("XZ", 1.0), ("IZ", -2.0)])
def test_columnar_checks_match_per_term_checks(n, pairs):
    words = [w for w, _ in pairs]
    coeffs = [c for _, c in pairs]
    try:
        per_term_checks(n, 0.5, words, coeffs)
    except ValueError:
        with pytest.raises(ValueError):
            WeightedPauliSum.from_columns(n, 0.5, words, coeffs)
    else:
        op = WeightedPauliSum.from_columns(n, 0.5, words, coeffs)
        assert op.words == tuple(words)
        assert op == WeightedPauliSum(n, 0.5, (PauliString(w, c) for w, c in pairs))
