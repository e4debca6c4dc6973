"""Word expansion of the current operator versus the dense entry formula.

The dense matrix (entry = row index + column index) and the tensor-product
realization of the expansion are independent routes; everything here is
integer-exact, so comparisons use strict equality.
"""
import math
import os
import subprocess
import sys
import tracemalloc
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
    reading_setting,
    realize_dense,
    setting_groups,
    spell_masks,
    term_count,
    word_masks,
)

from conftest import TESTS_DIR, child_env, small_word_blocks
from oracles import check_expansion_invariants, expansion_words, letter_codes

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


_BOUNDS = st.none() | st.integers(-24, 24)


@given(_BOUNDS, _BOUNDS, st.none() | st.integers(-5, 5).filter(bool))
@example(1, 3, None)
@example(None, None, -1)
@example(-2, 1, -3)
@example(3, 1, None)
def test_terms_take_slices(start, stop, step):
    """A slice of a sum's terms is the tuple of those ``PauliString``s."""
    for op in (
        current_decomposition(3),
        WeightedPauliSum.from_columns(2, 0.5, ["XY", "ZI", "IZ"], [1.0, -2.0, 0.25]),
    ):
        terms = op.terms
        assert terms[start:stop:step] == tuple(terms)[start:stop:step]


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

    def test_integer_path_needs_an_absolute_sum_below_2_63(self):
        """Whole weights whose entries could reach 2^63 take float64: 2^62 on
        the identity and on Z would wrap to -2^63 at (0, 0) in int64."""
        out = realize_dense(WeightedPauliSum.from_columns(1, 2.0**62, ["Z"], [2.0**62]))
        assert out.dtype == np.float64
        assert out.tolist() == [[2.0**63, 0.0], [0.0, 0.0]]
        below = realize_dense(WeightedPauliSum.from_columns(1, 2.0**61, ["Z"], [2.0**61]))
        assert below.dtype == np.int64
        assert below.tolist() == [[2**62, 0], [0, 0]]

    def test_weight_beyond_int64_takes_float64(self):
        out = realize_dense(WeightedPauliSum.from_columns(1, 0.0, ["X"], [1.5e308]))
        assert out.dtype == np.float64
        assert out.tolist() == [[0.0, 1.5e308], [1.5e308, 0.0]]

    def test_cap_enforced(self):
        with pytest.raises(ValueError, match="cap"):
            realize_dense(WeightedPauliSum(DENSE_QUBIT_CAP + 1, 0.0, ()))

    def test_seventeen_qubits_refused_before_allocating(self):
        """The 2^17 x 2^17 matrix (128 GiB) is refused before any of it is
        allocated: the refused call traces less than 1 MiB."""
        op_sum = WeightedPauliSum(DENSE_QUBIT_CAP + 1, 1.0, ())
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="exceeds the cap of 16"):
                realize_dense(op_sum)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


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


def test_masks_hold_at_most_63_qubits():
    """A wider word would lose its leftmost letters from its masks, which
    are a sum's only stored form of its words.  A sum holds fewer still:
    31, the bits of a non-negative int32 mask."""
    assert word_masks(["X" + "I" * 62], 63)[0].tolist() == [1 << 62]
    for n in (64, 70):
        with pytest.raises(ValueError, match="at most 63 qubits"):
            word_masks(["X" + "I" * (n - 1)], n)
        with pytest.raises(ValueError, match=f"a sum holds at most 31 qubits, got {n}"):
            WeightedPauliSum.from_columns(n, 0.0, ["X" + "I" * (n - 1)], [1.0])


def test_sums_hold_at_most_31_qubits():
    """Both constructors refuse a 32-qubit sum with the same message; at 31
    qubits words are kept in their order and a repeat is found."""
    top = ["Z" + "I" * 30, "Y" * 31, "Z" * 31]
    assert WeightedPauliSum.from_columns(31, 0.0, top, [1.0, 2.0, 3.0]).words == tuple(top)
    with pytest.raises(ValueError, match="duplicate"):
        WeightedPauliSum.from_columns(31, 0.0, [top[2], top[0], top[2]], [1.0] * 3)
    for make in (
        lambda: WeightedPauliSum.from_columns(32, 0.0, ["X" * 32], [1.0]),
        lambda: WeightedPauliSum(32, 0.0, (PauliString("X" * 32, 1.0),)),
        lambda: WeightedPauliSum(32, 0.0, ()),
    ):
        with pytest.raises(ValueError) as refused:
            make()
        assert str(refused.value) == "a sum holds at most 31 qubits, got 32"


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


def level_by_level_expansion(n_qubits: int):
    """The expansion's words and weights built as strings: one letter put in
    front per round, for N rounds.  It stays here as the reference for
    words, weights and order.
    """
    words, weights, ix = [""], [float((1 << n_qubits) - 1)], [""]
    for k in range(n_qubits):
        words = ["I" + w for w in words] + ["X" + w for w in words] + ["Z" + w for w in ix]
        weights = weights + weights + [-float(1 << k)] * len(ix)
        ix = ["I" + w for w in ix] + ["X" + w for w in ix]
    return words, weights


@pytest.mark.parametrize("n", range(1, 17))
def test_decomposition_equals_level_by_level_build(n):
    """The masks and coefficient array the sum stores, and the words and
    coefficient tuple it makes when they are read."""
    dec = current_decomposition(n)
    words, weights = level_by_level_expansion(n)
    assert dec.identity_weight == weights[0]
    assert dec.coeff_array.tolist() == weights[1:]
    assert dec.words == tuple(words[1:])
    assert dec.coeffs == tuple(weights[1:])
    assert all(type(c) is float for c in dec.coeffs)
    for got, want in zip(dec.masks, word_masks(dec.words, n)):
        assert got.dtype == np.int32
        assert np.array_equal(got, want)


_SUM_WORDS = ["XYZ", "ZIX", "IIY"]


@pytest.mark.parametrize(
    "make",
    [
        lambda: WeightedPauliSum(3, 0.5, (PauliString(w, 1.0) for w in _SUM_WORDS)),
        lambda: WeightedPauliSum.from_columns(3, 0.5, _SUM_WORDS, [1.0, 2.0, 3.0]),
        lambda: WeightedPauliSum.from_columns(3, 0.5, _SUM_WORDS, [1.0, 2.0, 3.0])._take(
            np.array([2, 0])
        ),
        lambda: current_decomposition(6)._take(np.array([40, 0, 17])),
        lambda: current_decomposition(6),
    ],
    ids=["terms", "from_columns", "take", "take-decomposition", "decomposition"],
)
def test_every_constructor_stores_read_only_int32_masks(make):
    """A sum holds at most 31 qubits, so each constructor stores its masks
    as int32 columns, read-only, equal to the int64 ``word_masks`` of its
    words."""
    op = make()
    for got, want in zip(op.masks, word_masks(op.words, op.n_qubits)):
        assert got.dtype == np.int32
        assert not got.flags.writeable
        assert np.array_equal(got, want)


def test_leftmost_of_31_letters_round_trips():
    """At 31 qubits the leftmost letter is bit 30, the top bit of a
    non-negative int32: words to masks to words again, and through
    ``from_columns`` and ``_take``."""
    words = ["X" + "I" * 30, "Z" + "Y" * 30, "Y" + "Z" * 30, "I" * 30 + "X"]
    op = WeightedPauliSum.from_columns(31, 0.0, words, [1.0, 2.0, 3.0, 4.0])
    assert [m[:3].tolist() for m in op.masks] == [
        [1 << 30, 0, 0], [0, (1 << 30) - 1, 1 << 30], [0, 1 << 30, (1 << 30) - 1]
    ]
    spelled = list(spell_masks(op.masks, 31, "XYZ", "I"))
    assert spelled == words
    assert WeightedPauliSum.from_columns(31, 0.0, spelled, op.coeffs) == op
    assert op._take(np.array([3, 0])).words == (words[3], words[0])


@pytest.mark.parametrize("column", range(3))
@pytest.mark.parametrize("bit", [31, 32])
def test_int64_masks_beyond_31_bits_are_refused_not_wrapped(bit, column):
    """A 31-qubit sum refuses a word whose leftmost X, Y or Z would be bit
    31 or 32 of its int64 masks (a word of 32 or 33 letters), with the
    message of a word too long, before any mask is narrowed to int32: bit
    32 would wrap to nothing and bit 31 to the sign."""
    words = ["X" + "I" * 30, "XYZ"[column] + "I" * bit]
    with pytest.raises(ValueError) as refused:
        WeightedPauliSum.from_columns(31, 0.0, words, [1.0, 1.0])
    assert str(refused.value) == f"term {words[1]} does not act on 31 qubits"


_DECOMPOSITION_PEAK_SCRIPT = """
import re, sys
from ringflow.pauli import current_decomposition
op_sum = current_decomposition(int(sys.argv[1]))
status = open("/proc/self/status").read()
print(len(op_sum.coeff_array), re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1))
"""


def _decomposition_peak_kb(n: int) -> int:
    """The peak resident set in kB of a fresh process that builds
    ``current_decomposition(n)``, read by the child itself."""
    done = subprocess.run(
        [sys.executable, "-c", _DECOMPOSITION_PEAK_SCRIPT, str(n)],
        env=child_env(), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    words, peak_kb = map(int, done.stdout.split())
    assert words == term_count(n)
    return peak_kb


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_eighteen_qubit_decomposition_peak_memory():
    """``current_decomposition(18)`` (2 621 439 words: 40 MiB of int32 X
    and Z masks and float64 weights) peaks at no more than 85 MiB, and at
    72 MiB on a 2-vCPU Xeon host, the same as when the sum's masks were
    checked in blocks after the build; with int64 masks it peaked at
    92 MiB."""
    peak_kb = _decomposition_peak_kb(18)
    assert peak_kb <= 85 * 1024, f"peak {peak_kb / 1024:.0f} MiB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
def test_twenty_qubit_decomposition_peak_memory():
    """``current_decomposition(20)`` (11 534 335 words: 176 MiB of int32 X
    and Z masks and float64 weights) peaks at no more than 250 MiB, and at
    217 MiB on a 2-vCPU Xeon host: the build's own arrays set the peak,
    which checking the masks in blocks after the build did not raise.  With
    int64 masks it was 305 MiB."""
    peak_kb = _decomposition_peak_kb(20)
    assert peak_kb <= 250 * 1024, f"peak {peak_kb / 1024:.0f} MiB"


_INVARIANTS_SCRIPT = """
import sys
from oracles import check_expansion_invariants
check_expansion_invariants(int(sys.argv[1]))
"""


@pytest.mark.parametrize("n", range(1, MAX_QUBITS + 1))
def test_expansion_is_valid_by_construction(n):
    """``current_decomposition`` stores its sum without a check, so what a
    check would hold is held here, over its whole domain
    (``check_expansion_invariants``).  From N = 18 on (2 621 439 words and
    more) a fresh process runs it, so the test process stays small."""
    if n < 18:
        check_expansion_invariants(n)
        return
    done = subprocess.run(
        [sys.executable, "-c", _INVARIANTS_SCRIPT, str(n)],
        env=child_env(PYTHONPATH=str(TESTS_DIR)), capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr


@pytest.mark.parametrize("block", [None, 7], ids=["whole", "small-blocks"])
@pytest.mark.parametrize("n", range(1, 11))
def test_decomposition_equals_enumerated_expansion(monkeypatch, n, block):
    """Masks, weights and words are those of the words over {I, X, Z}
    enumerated with ``itertools.product`` and sorted; with WORD_BLOCK = 7
    the words are spelled a few letters' worth at a time, over many blocks,
    by ``words`` and ``iter_words`` alike."""
    if block:
        small_word_blocks(monkeypatch, block)
    words, coeffs = expansion_words(n)
    dec = current_decomposition(n)
    assert list(dec.iter_words()) == words
    assert dec.words == tuple(words)
    assert dec.coeff_array.tolist() == coeffs
    assert dec.identity_weight == float((1 << n) - 1)
    want = np.array([index_masks(word) for word in words], dtype=np.int64)
    for got, column in zip(dec.masks, want.T):
        assert np.array_equal(got, column)


@pytest.mark.parametrize("block", [None, 5], ids=["whole", "small-blocks"])
def test_spelled_bitstrings_are_binary_numerals(monkeypatch, block):
    """``spell_masks`` of the basis indices with letters 1 over 0 gives each
    index's N-digit binary numeral, in whole blocks and in blocks of five."""
    if block:
        small_word_blocks(monkeypatch, block)
    for n in range(1, 13):
        index = np.arange(1 << n, dtype=np.int64)
        want = [format(i, f"0{n}b") for i in range(1 << n)]
        assert list(spell_masks((index,), n, "1", "0")) == want


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
@example(n=2, pairs=[("XZ", 1.0), ("II", -2.0)])
@example(n=2, pairs=[("ZZ", 1.0), ("IX", 1.0), ("ZZ", -2.0)])
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


class TestMasksFirst:
    """The expansion is stored as masks and a coefficient array; its words
    and coefficient tuple are made only when read."""

    @pytest.mark.parametrize(
        "make",
        [
            lambda: current_decomposition(5),
            lambda: WeightedPauliSum.from_columns(2, 0.5, ["XZ", "YI"], [1.0, 2.0]),
            lambda: WeightedPauliSum(2, 0.5, (PauliString("ZZ", 3.0),)),
        ],
        ids=["decomposition", "from_columns", "terms"],
    )
    def test_arrays_are_read_only(self, make):
        op = make()
        for array in (*op.masks, op.coeff_array):
            assert not array.flags.writeable
            with pytest.raises(ValueError):
                array[0] = 1

    def test_words_are_made_once_and_kept(self, monkeypatch):
        joined = counting_joins(monkeypatch)
        dec = current_decomposition(6)
        assert joined == []
        assert dec.words is dec.words
        assert dec.coeffs is dec.coeffs
        assert len(joined) == 1

    def test_iter_words_keeps_no_words(self, monkeypatch):
        """``iter_words`` makes the words afresh until ``words`` is read, and
        from then on reads the kept tuple; a sum built from words has it."""
        joined = counting_joins(monkeypatch)
        dec = current_decomposition(6)
        assert tuple(dec.iter_words()) == tuple(dec.iter_words())
        assert len(joined) == 2
        kept = dec.words
        assert len(joined) == 3 and tuple(dec.iter_words()) == kept
        assert len(joined) == 3
        op = WeightedPauliSum.from_columns(2, 0.0, ["XI", "IZ"], [1.0, 2.0])
        assert list(op.iter_words()) == ["XI", "IZ"]

    def test_len_of_terms_builds_no_words(self, monkeypatch):
        joined = counting_joins(monkeypatch)
        for n in (1, 7, 16):
            assert len(current_decomposition(n).terms) == term_count(n)
        assert joined == []

    def test_sixteen_qubit_expectation_builds_no_words(self, monkeypatch):
        from ringflow.engine import expectation_pauli, init_amplitudes
        from ringflow.experiment import backflow_coefficients

        joined = counting_joins(monkeypatch)
        state = init_amplitudes(16, backflow_coefficients(16).a)
        assert expectation_pauli(state, current_decomposition(16)) == -32767.25000572292
        assert joined == []

    def test_equality_keeps_its_meaning(self):
        dec = current_decomposition(4)
        words, coeffs = list(dec.words), list(dec.coeffs)
        same = (
            WeightedPauliSum.from_columns(4, dec.identity_weight, words, coeffs),
            WeightedPauliSum(4, dec.identity_weight, dec.terms),
            current_decomposition(4),
        )
        for other in same:
            assert dec == other and other == dec
            assert hash(dec) == hash(other)
        coeffs[3] += 1.0
        swapped = [*words[:2], words[3], words[2], *words[4:]]
        unlike = (
            WeightedPauliSum.from_columns(4, dec.identity_weight, words, coeffs),
            WeightedPauliSum.from_columns(4, dec.identity_weight, swapped, dec.coeffs),
            WeightedPauliSum.from_columns(4, dec.identity_weight, words[1:], dec.coeffs[1:]),
            WeightedPauliSum.from_columns(4, 0.0, words, dec.coeffs),
            current_decomposition(3),
        )
        for other in unlike:
            assert dec != other and other != dec
        assert dec != dec.to_dict()
        # -0.0 and 0.0 are equal coefficients, as they were in the tuples
        plus, minus = (WeightedPauliSum.from_columns(1, 0.0, ["X"], [c]) for c in (0.0, -0.0))
        assert plus == minus


def counting_joins(monkeypatch) -> list:
    """Record each call of the expansion's word builder, ``spell_masks``."""
    import ringflow.pauli

    calls = []
    spell = ringflow.pauli.spell_masks

    def counting(*args):
        calls.append(args)
        return spell(*args)

    monkeypatch.setattr(ringflow.pauli, "spell_masks", counting)
    return calls


_REFUSALS = [
    (0, 0.0, ["X"], [1.0], "need at least one qubit"),
    (2, math.nan, ["XZ"], [1.0], "non-finite identity weight"),
    (2, 0.0, ["XZ", "ZX"], [1.0], "2 words but 1 coefficients"),
    (2, 0.0, ["XZ", "XZI"], [1.0, 1.0], "term XZI does not act on 2 qubits"),
    (2, 0.0, ["XZ", "XQ"], [1.0, 1.0], "invalid Pauli word 'XQ'"),
    (2, 0.0, ["XZ", "ZX"], [1.0, math.inf], "non-finite coefficient for ZX"),
    (2, 0.0, ["ZX", "II"], [1.0, 2.0], "all-identity term belongs in identity_weight"),
    (2, 0.0, ["ZX", "XI", "ZX"], [1.0, 2.0, 3.0],
     "duplicate Pauli words; merge like terms first"),
]


@pytest.mark.parametrize("n, weight, words, coeffs, message", _REFUSALS)
def test_refusals_name_the_same_fault_through_every_constructor(
    n, weight, words, coeffs, message
):
    """``from_columns`` and the ``PauliString`` constructor (whose terms
    check their own letters and coefficients) refuse with the same
    message."""
    with pytest.raises(ValueError) as refused:
        WeightedPauliSum.from_columns(n, weight, words, coeffs)
    assert str(refused.value) == message
    if len(words) == len(coeffs):  # terms cannot hold unequal columns
        with pytest.raises(ValueError) as refused:
            WeightedPauliSum(n, weight, [PauliString(w, c) for w, c in zip(words, coeffs)])
        assert str(refused.value) == message


@pytest.mark.parametrize("block", [1, 3, 64])
@pytest.mark.parametrize("n", range(1, 11))
def test_decomposition_in_small_word_blocks(monkeypatch, n, block):
    """Spelled a few words at a time, the expansion is the sum built from
    its own words, and the one built in whole blocks."""
    whole = current_decomposition(n)
    small_word_blocks(monkeypatch, block)
    dec = current_decomposition(n)
    assert dec == whole
    assert dec == WeightedPauliSum.from_columns(n, dec.identity_weight, dec.words, dec.coeffs)


# the faults a word list can carry in the order a sum refuses them, each put
# on word i of a list: its message names the word
_FAULTS = ("length", "letter", "non-finite", "identity", "duplicate")


def _with_fault(words, coeffs, kind, i, n):
    if kind == "length":
        words[i] += "X"
    elif kind == "letter":
        words[i] = "Q" + words[i][1:]
    elif kind == "non-finite":
        coeffs[i] = math.nan
    elif kind == "identity":
        words[i] = "I" * n
    else:  # word i repeats word i + 1
        words[i] = words[i + 1]


def _fault_message(kind, word, n):
    return {
        "length": f"term {word} does not act on {n} qubits",
        "letter": f"invalid Pauli word {word!r}",
        "non-finite": f"non-finite coefficient for {word}",
        "identity": "all-identity term belongs in identity_weight",
        "duplicate": "duplicate Pauli words; merge like terms first",
    }[kind]


@pytest.mark.parametrize("later", range(len(_FAULTS)))
@pytest.mark.parametrize("earlier", range(len(_FAULTS)))
def test_refusal_order_holds_across_word_blocks(earlier, later):
    """One fault on word 0 and one on word 4 of eight words: the refusal is
    the first kind in ``_FAULTS`` order and names its word, whichever of the
    two words carries it; two faults of one kind name the first word."""
    n = 3
    words = list(current_decomposition(n).words[:8])
    coeffs = list(np.arange(1.0, 9.0))
    _with_fault(words, coeffs, _FAULTS[earlier], 0, n)
    _with_fault(words, coeffs, _FAULTS[later], 4, n)
    first = min(earlier, later)
    word = words[0 if first == earlier else 4]
    with pytest.raises(ValueError) as refused:
        WeightedPauliSum.from_columns(n, 0.0, words, coeffs)
    assert str(refused.value) == _fault_message(_FAULTS[first], word, n)


@pytest.mark.parametrize(
    "words",
    [
        ["ZX", "XI", "XI", "IX"],  # unsorted, the pair adjacent
        ["IX", "XI", "XI", "ZX"],  # sorted, the same pair
        ["XI", "IX", "IZ", "XI"],  # unsorted, first and last
    ],
)
def test_duplicate_across_a_block_boundary_is_refused(words):
    with pytest.raises(ValueError, match="duplicate Pauli words"):
        WeightedPauliSum.from_columns(2, 0.0, words, [1.0] * len(words))


@pytest.mark.parametrize("block", [1, 3, 7])
def test_duplicate_among_unsorted_words_in_the_first_and_last_block(block):
    """Shuffled words, seeded by ``block``: a repeat of the first word as
    the last is found, and the same words without it pass in their order."""
    words = list(np.random.default_rng(block).permutation(current_decomposition(3).words))
    assert words != sorted(words)
    with pytest.raises(ValueError) as refused:
        WeightedPauliSum.from_columns(3, 0.0, [*words, words[0]], [1.0] * (len(words) + 1))
    assert str(refused.value) == "duplicate Pauli words; merge like terms first"
    op_sum = WeightedPauliSum.from_columns(3, 0.0, words, [1.0] * len(words))
    assert op_sum.words == tuple(words)


@pytest.mark.parametrize("at", [2, 4, 5])
def test_identity_word_in_a_later_block_is_refused(at):
    words = ["IX", "XI", "XX", "ZX", "XZ"]
    words.insert(at, "II")
    with pytest.raises(ValueError, match="all-identity term belongs in identity_weight"):
        WeightedPauliSum.from_columns(2, 0.0, words, [1.0] * len(words))


@pytest.mark.parametrize("n", range(1, 32))
def test_letter_code_is_the_base_four_numeral(n):
    """The code ``check_expansion_invariants`` orders words by: one digit
    per letter, I X Y Z = 0 1 2 3, the leftmost most significant, on random
    words with the all-Y and all-Z words, whose digits reach the top, from
    int64 masks as ``word_masks`` gives them and from int32 ones as a sum
    stores them."""
    rows = np.random.default_rng(n).integers(0, 4, size=(64, n))
    rows = np.vstack([rows, np.full((2, n), 2), np.full((1, n), 3)])
    words = ["".join("IXYZ"[letter] for letter in row) for row in rows]
    masks = word_masks(words, n)
    want = [sum(int(letter) << 2 * (n - 1 - i) for i, letter in enumerate(row)) for row in rows]
    assert letter_codes(masks, n).tolist() == want
    assert letter_codes([m.astype(np.int32) for m in masks], n).tolist() == want


def _refusals_and_repeats(n, seed):
    """On words of n letters drawn with ``seed``, every pair of faults on the
    first word and a late one gives the first kind in ``_FAULTS`` order; a
    shuffled sum with its first word repeated last is a duplicate, and
    without the repeat it is kept in its order and returned."""
    rng = np.random.default_rng(seed)
    words = {"".join(rng.choice(list("IXYZ"), n)) for _ in range(12)}
    words = sorted(words | {"Y" * n, "Z" * n} - {"I" * n})
    for earlier, later in product(_FAULTS, repeat=2):
        faulty, coeffs = list(words), [1.0] * len(words)
        _with_fault(faulty, coeffs, earlier, 0, n)
        _with_fault(faulty, coeffs, later, len(words) - 2, n)
        first = min(_FAULTS.index(earlier), _FAULTS.index(later))
        word = faulty[0 if _FAULTS[first] == earlier else len(words) - 2]
        with pytest.raises(ValueError) as refused:
            WeightedPauliSum.from_columns(n, 0.0, faulty, coeffs)
        assert str(refused.value) == _fault_message(_FAULTS[first], word, n)
    shuffled = list(rng.permutation(words))
    assert shuffled != words
    with pytest.raises(ValueError) as refused:
        WeightedPauliSum.from_columns(n, 0.0, [*shuffled, shuffled[0]], [1.0] * (len(words) + 1))
    assert str(refused.value) == "duplicate Pauli words; merge like terms first"
    op_sum = WeightedPauliSum.from_columns(n, 0.0, shuffled, [1.0] * len(words))
    assert op_sum.words == tuple(shuffled)
    return op_sum


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("n", [16, 17])
def test_refusals_on_both_letter_code_paths(n, block):
    """The refusals and repeats on words drawn with seed n + block."""
    _refusals_and_repeats(n, n + block)


@pytest.mark.parametrize("block", [1, 3, 7])
@pytest.mark.parametrize("n", [16, 17, 24, 31])
def test_refusals_on_both_letter_code_lanes_from_int32_columns(n, block):
    """The same refusals and repeats up to the widest sum, whose leftmost
    letter is bit 30 of an int32 mask; the accepted sum stores its words'
    masks as int32 columns."""
    op_sum = _refusals_and_repeats(n, n + block)
    for got, want in zip(op_sum.masks, word_masks(op_sum.words, n)):
        assert got.dtype == np.int32 and np.array_equal(got, want)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 6).flatmap(
    lambda count: st.tuples(
        st.just(count),
        st.lists(st.integers(0, count - 1), max_size=40) if count else st.just([]),
    )
))
@example((3, [2, 0, 2, 2]))
@example((0, []))
def test_setting_groups_match_a_scan_per_setting(case):
    """Setting k's members are ``flatnonzero(setting == k)``, in word order,
    an empty slice where it reads no word; ``order`` lists every word once."""
    settings_count, column = case
    setting = np.array(column, dtype=np.intp)
    order, slices = setting_groups(setting, settings_count)
    assert len(slices) == settings_count
    assert [order[s].tolist() for s in slices] == [
        np.flatnonzero(setting == k).tolist() for k in range(settings_count)
    ]
    assert sorted(order.tolist()) == list(range(len(column)))


def test_reading_setting_follows_the_z_letter():
    """0 for a word without Z, 1 + p for a Z at position p, at every N up
    to the widest sum."""
    for n in (1, 2, 5, 16, 31):
        words = ["X" * n] + ["I" * p + "Z" + "X" * (n - 1 - p) for p in range(n)]
        _, _, mz = word_masks(words, n)
        setting = reading_setting(mz, n)
        assert setting.dtype == np.uint8
        assert setting.tolist() == [word.find("Z") + 1 for word in words]
