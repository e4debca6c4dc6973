"""Pauli-word algebra for the ring probability-current operator.

The current operator on the 2^N-dimensional subspace of non-negative
angular momenta has dense entries ``m + n``.  It expands exactly into words
over {I, X} with a common integer weight plus, per qubit position, words
carrying a single Z with a power-of-two weight.  All coefficients are
integers, so the dense tensor-product realization can be compared against
the entry formula with exact integer equality.

Masks first: a ``WeightedPauliSum`` stores each word as three int32 masks
(its X, Y and Z positions, at most 31) and its coefficients as one float64
array, all read-only, and that is what the engine, the setting plan and the
estimators read.  Word strings and the coefficient tuple are made only
when read, for reports and printing, and then kept.
``current_decomposition`` fills its masks in place, one letter at a time,
reads each weight from its Z mask, and spells its words (``spell_masks``,
which also spells outcome bitstrings) only when they are asked for; its
words are valid by construction, so nothing checks them again.  A sum
built from words is checked where the words come in, and takes its masks
from ``word_masks`` once.

Passes over word columns run in blocks of WORD_BLOCK words, one fixed size:
a chain of element-wise passes over one block stays in a core's cache, where
the same chain over whole columns of 10^5 to 10^7 words streams each column
through memory once per pass.  ``engine.expectation_pauli``'s two passes
over a sum's words are blocked, and ``spell_masks`` spells WORD_BLOCK
letters at a time.
``reading_setting`` names the Z/X setting that reads a word by its Z mask.
A setting plan is two columns: the settings' Z masks and each word's index
into them.  ``setting_plan`` makes the grouped plan, and ``setting_groups``
turns any plan's second column into each setting's words, by one stable
sort.

Letter ordering: the leftmost letter of a word acts on qubit S1, which is
the most significant bit of the momentum index.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import partial, reduce
from operator import attrgetter

import numpy as np

PAULI_LETTERS = "IXYZ"

#: Largest qubit count for which dense 2^N x 2^N storage is permitted.
DENSE_QUBIT_CAP = 16

#: Largest register the word expansion and the backflowing state are built
#: for: 20 qubits is 11 534 335 words and 16 MiB of complex amplitudes.
MAX_QUBITS = 20

_FACTORS = {
    "I": np.eye(2, dtype=np.int64),
    "X": np.array([[0, 1], [1, 0]], dtype=np.int64),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=np.complex128),
    "Z": np.array([[1, 0], [0, -1]], dtype=np.int64),
}


@dataclass(frozen=True, slots=True)
class PauliString:
    """A weighted word over {I, X, Y, Z}, one letter per qubit."""

    word: str
    coeff: float

    def __post_init__(self):
        # strip leaves a letter outside IXYZ, if any; str methods beat sets here
        if not self.word or self.word.strip(PAULI_LETTERS):
            raise ValueError(f"invalid Pauli word {self.word!r}")
        if not math.isfinite(self.coeff):
            raise ValueError(f"non-finite coefficient for {self.word}")


class PauliTerms(Sequence):
    """Read-only sequence of a sum's terms as ``PauliString``s.

    Nothing is built up front: ``len`` is O(1) and makes no word, and a
    ``PauliString`` is made only for the item asked for, from the sum's
    ``words`` and ``coeffs``; a slice gives a tuple of them.
    """

    __slots__ = ("_sum",)

    def __init__(self, op_sum: "WeightedPauliSum"):
        self._sum = op_sum

    def __len__(self):
        return len(self._sum.coeff_array)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(map(PauliString, self._sum.words[index], self._sum.coeffs[index]))
        return PauliString(self._sum.words[index], self._sum.coeffs[index])

    def __iter__(self):
        return map(PauliString, self._sum.words, self._sum.coeffs)


# deletes every Pauli letter, so whatever str.translate leaves is invalid
_DROP_PAULI_LETTERS = str.maketrans("", "", PAULI_LETTERS)

#: Words a pass over the word columns takes at a time: 2^15 int64 entries
#: are 256 KiB, so a chain of passes over one block stays in a core's L2
#: cache instead of streaming whole columns through L3.  ``spell_masks``
#: takes this many letters at a time, 128 KiB of UCS-4 code points.
WORD_BLOCK = 1 << 15


@dataclass(frozen=True, slots=True, init=False, eq=False)
class WeightedPauliSum:
    """identity_weight * I + sum of weighted Pauli words on n_qubits qubits.

    Masks first: the words are stored as ``masks``, three read-only int32
    arrays with each word's X, Y and Z positions (as ``word_masks`` gives
    them), and the coefficients as ``coeff_array``, a read-only float64
    array.  The engine, the setting plan and the estimators read only
    these.  ``words`` and ``coeffs`` are the same columns as tuples of
    ``str`` and ``float``; each is made the first time it is read, and
    kept.  ``iter_words()`` reads the words without keeping them.  A sum
    built from words, by ``WeightedPauliSum(n, identity_weight, terms)``
    (``PauliString`` terms) or ``from_columns`` (parallel word and
    coefficient sequences), keeps its words as given and takes its masks
    from ``word_masks`` once.  ``current_decomposition`` builds its masks
    directly and makes its words only when they are read.  ``terms`` is a
    derived read-only ``PauliTerms`` view.

    Terms are kept merged: no duplicate words, and the all-identity word
    lives exclusively in ``identity_weight``.  Every word must be
    ``n_qubits`` letters over IXYZ and every coefficient finite, the same
    checks ``PauliString`` makes one word at a time; a sum holds at most 31
    qubits, the bits of a non-negative int32 mask.  These are checked on
    the words and coefficients a sum is built from.  The expansion and the
    subsets ``_take`` makes are valid by construction and are not checked
    again.  Two sums are equal when they have the same qubit count and
    identity weight and the same words with the same coefficients in the
    same order.
    """

    n_qubits: int
    identity_weight: float
    masks: tuple[np.ndarray, np.ndarray, np.ndarray]
    coeff_array: np.ndarray
    # the words tuple, or until it is read, a function that makes the words
    _words: object = field(repr=False)
    # the coefficient tuple, or None until it is read
    _coeffs: object = field(repr=False)

    def __init__(self, n_qubits: int, identity_weight: float, terms=()):
        terms = tuple(terms)
        self._set_columns(
            n_qubits,
            identity_weight,
            tuple(map(attrgetter("word"), terms)),
            tuple(map(attrgetter("coeff"), terms)),
        )

    @classmethod
    def from_columns(
        cls, n_qubits: int, identity_weight: float, words, coeffs
    ) -> "WeightedPauliSum":
        """A sum from parallel word and coefficient sequences."""
        out = object.__new__(cls)
        out._set_columns(n_qubits, identity_weight, tuple(words), tuple(coeffs))
        return out

    def _set_columns(self, n_qubits, identity_weight, words, coeffs) -> None:
        _check_sizes(n_qubits, identity_weight, len(words), len(coeffs))
        # each word's length and letters, checked in bulk, in C over a whole
        # column, which matters at 10^6 words
        if set(map(len, words)) - {n_qubits}:
            bad = next(w for w in words if len(w) != n_qubits)
            raise ValueError(f"term {bad} does not act on {n_qubits} qubits")
        if "".join(words).translate(_DROP_PAULI_LETTERS):
            bad = next(w for w in words if w.translate(_DROP_PAULI_LETTERS))
            raise ValueError(f"invalid Pauli word {bad!r}")
        coeff_array = np.array(coeffs, dtype=np.float64)
        finite = np.isfinite(coeff_array)
        if not finite.all():
            raise ValueError(f"non-finite coefficient for {words[finite.argmin()]}")
        distinct = set(words)
        if "I" * n_qubits in distinct:
            raise ValueError("all-identity term belongs in identity_weight")
        if len(distinct) != len(words):
            raise ValueError("duplicate Pauli words; merge like terms first")
        self._set(n_qubits, identity_weight, word_masks(words, n_qubits), coeff_array, words)

    def _set(self, n_qubits, identity_weight, masks, coeff_array, words):
        # only valid masks come here: one beyond 31 bits would wrap
        masks = tuple(mask.astype(np.int32, copy=False) for mask in masks)
        for array in (*masks, coeff_array):
            array.flags.writeable = False
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "identity_weight", identity_weight)
        object.__setattr__(self, "masks", masks)
        object.__setattr__(self, "coeff_array", coeff_array)
        object.__setattr__(self, "_words", words)
        object.__setattr__(self, "_coeffs", None)

    def _take(self, members: np.ndarray) -> "WeightedPauliSum":
        """The terms at ``members``, distinct indices, in that order and
        without the identity weight; its words are read from this sum's."""
        def words():
            return map(self.words.__getitem__, members.tolist())

        out = object.__new__(WeightedPauliSum)
        masks = tuple(mask[members] for mask in self.masks)
        out._set(self.n_qubits, 0.0, masks, self.coeff_array[members], words)
        return out

    @property
    def words(self) -> tuple[str, ...]:
        """The words, leftmost letter on qubit S1; made when first read."""
        words = self._words
        if not isinstance(words, tuple):
            words = tuple(words())
            object.__setattr__(self, "_words", words)
        return words

    def iter_words(self):
        """The words in order, without keeping them: from ``words`` if it is
        made, else each made as it is read."""
        words = self._words
        return iter(words if isinstance(words, tuple) else words())

    @property
    def coeffs(self) -> tuple[float, ...]:
        """The coefficients, in word order; made when first read."""
        if self._coeffs is None:
            object.__setattr__(self, "_coeffs", tuple(self.coeff_array.tolist()))
        return self._coeffs

    @property
    def terms(self) -> PauliTerms:
        """The words as ``PauliString``s, each built only when read."""
        return PauliTerms(self)

    def __eq__(self, other):
        if not isinstance(other, WeightedPauliSum):
            return NotImplemented
        if (self.n_qubits, self.identity_weight) != (other.n_qubits, other.identity_weight):
            return False
        columns = zip((*self.masks, self.coeff_array), (*other.masks, other.coeff_array))
        return all(np.array_equal(ours, theirs) for ours, theirs in columns)

    def __hash__(self):
        return hash((self.n_qubits, self.identity_weight, len(self.coeff_array)))

    def to_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "lambda0": self.identity_weight,
            "terms": [
                {"coeff": c, "word": w} for w, c in zip(self.words, self.coeffs)
            ],
        }


#: Most qubits a sum holds: the bits of a non-negative int32 mask
_SUM_QUBIT_CAP = 31


def _check_sizes(n_qubits, identity_weight, word_count, coeff_count) -> None:
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    if n_qubits > _SUM_QUBIT_CAP:
        raise ValueError(f"a sum holds at most {_SUM_QUBIT_CAP} qubits, got {n_qubits}")
    if not math.isfinite(identity_weight):
        raise ValueError("non-finite identity weight")
    if word_count != coeff_count:
        raise ValueError(f"{word_count} words but {coeff_count} coefficients")


def measurable(my: np.ndarray, mz: np.ndarray) -> np.ndarray:
    """Whether a Z/X setting reads each word, by its Y and Z masks: a word
    with a Y or a second Z is read by none."""
    return (my | (mz & (mz - 1))) == 0


def check_measurable(op_sum: WeightedPauliSum) -> None:
    """Refuse a word with a Y or a second Z, which no Z/X setting reads."""
    _, my, mz = op_sum.masks
    bad = np.flatnonzero(~measurable(my, mz))
    if bad.size:
        raise ValueError(f"term {op_sum.words[bad[0]]} not measurable with Z/X settings")


def index_masks(word: str) -> tuple[int, int, int]:
    """(X, Y, Z) position masks over basis-index bits; leftmost letter = MSB."""
    n = len(word)
    mx = my = mz = 0
    for pos, letter in enumerate(word):
        bit = 1 << (n - 1 - pos)
        if letter == "X":
            mx |= bit
        elif letter == "Y":
            my |= bit
        elif letter == "Z":
            mz |= bit
    return mx, my, mz


def word_masks(words, n_qubits: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``index_masks`` of every word at once, as three int64 arrays.

    ``words`` is a sequence of words over IXYZ, each ``n_qubits`` long; an
    int64 mask holds at most 63 of them.
    """
    if n_qubits > 63:
        raise ValueError(f"word masks hold at most 63 qubits, got {n_qubits}")
    if set(map(len, words)) - {n_qubits}:
        raise ValueError(f"every word must have {n_qubits} letters")
    # left-pad each word to whole bytes, so packbits yields each mask's
    # big-endian bytes directly (leftmost letter = most significant bit)
    width = -(-n_qubits // 8) * 8
    letters = np.zeros((len(words), width), dtype=np.uint8)
    letters[:, width - n_qubits :] = np.frombuffer(
        "".join(words).encode("ascii"), dtype=np.uint8
    ).reshape(len(words), n_qubits)
    out = []
    for letter in b"XYZ":
        packed = np.packbits(letters == letter).reshape(len(words), width // 8)
        mask = np.zeros(len(words), dtype=np.int64)
        for column in packed.T:
            mask = (mask << 8) | column
        out.append(mask)
    return tuple(out)


def spell_masks(masks, n_qubits: int, letters: str, blank: str):
    """The words that ``masks`` spell, the inverse of ``word_masks``: letter
    p of word i is ``letters[k]`` where bit N - 1 - p of ``masks[k][i]`` is
    set, else ``blank``, which comes before every letter in code order.
    Made WORD_BLOCK letters at a time, as the words are read."""
    steps = [np.uint32(ord(letter) - ord(blank)) for letter in letters]
    rows = max(1, WORD_BLOCK // n_qubits)
    for start in range(0, len(masks[0]), rows):
        block = slice(start, start + rows)
        # one UCS-4 code point per letter, read as one string per row
        text = np.full((len(masks[0][block]), n_qubits), ord(blank), dtype=np.uint32)
        for mask, step in zip(masks, steps):
            # big-endian bytes unpack most significant bit first
            octets = mask[block].astype(">i8").view(np.uint8).reshape(-1, 8)
            text += np.unpackbits(octets, axis=1)[:, 64 - n_qubits :] * step
        yield from text.view(f"U{n_qubits}").ravel().tolist()


def reading_setting(zmasks: np.ndarray, n_qubits: int) -> np.ndarray:
    """The setting that reads each word, by its Z mask from ``word_masks``
    (at most one bit set), as uint8: 0 for the all-X setting, which reads
    the words without Z, and 1 + p for the setting that is Z at position p
    and X elsewhere, which reads the words with their Z there."""
    # Z at position p is bit N - 1 - p, and 2^b - 1 has b bits set; a word
    # without Z has all N bits set in (0 - 1) & (2^N - 1)
    return n_qubits - np.bitwise_count((zmasks - 1) & ((1 << n_qubits) - 1))


def setting_plan(zmasks: np.ndarray, n_qubits: int) -> tuple[np.ndarray, np.ndarray]:
    """The qubit-wise settings that read the words, as two columns.

    ``zmasks`` are the words' Z masks from ``word_masks``, each with at most
    one bit set.  Returns the int64 Z masks of the settings that read a word,
    all-X first, then Z at position 0 ... N-1, and each word's index into
    them (intp): how many of them come before its ``reading_setting``.
    """
    setting = reading_setting(zmasks, n_qubits)
    read = np.bincount(setting, minlength=n_qubits + 1) > 0
    # setting 1 + p has the bit of position p, N - 1 - p; setting 0 has none
    masks = np.left_shift(1, np.arange(n_qubits, -1, -1)) & (1 << n_qubits) - 1
    return masks[read], (np.cumsum(read) - 1)[setting]


def setting_groups(setting: np.ndarray, settings: int) -> tuple[np.ndarray, list[slice]]:
    """The word indices setting by setting, in word order within each (one
    stable sort, by radix for 16-bit keys), and a slice of them per setting."""
    ends = np.cumsum(np.bincount(setting, minlength=settings)).tolist()
    keys = setting.astype(np.min_scalar_type(settings))
    return np.argsort(keys, kind="stable"), list(map(slice, [0, *ends[:-1]], ends))


class RegisterTooLargeError(ValueError):
    """A register beyond MAX_QUBITS, refused before anything is built."""


def check_register(n_qubits: int) -> None:
    """Refuse registers larger than MAX_QUBITS."""
    if n_qubits > MAX_QUBITS:
        raise RegisterTooLargeError(
            f"{n_qubits} qubits exceed the register cap of {MAX_QUBITS}"
        )


def check_qubits(n_qubits: int) -> None:
    """Refuse a qubit count that is not a positive ``int`` (a ``bool`` is none)."""
    if isinstance(n_qubits, bool) or not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n_qubits!r}")


def _check_cap(n_qubits: int) -> None:
    if n_qubits > DENSE_QUBIT_CAP:
        raise ValueError(
            f"dense realization of {n_qubits} qubits exceeds the cap of "
            f"{DENSE_QUBIT_CAP} (2^{n_qubits} x 2^{n_qubits} entries)"
        )


def term_count(n_qubits: int) -> int:
    """Number of non-identity words in the current-operator expansion."""
    check_qubits(n_qubits)
    return 2**n_qubits + n_qubits * 2 ** (n_qubits - 1) - 1


def dense_current_matrix(n_qubits: int) -> np.ndarray:
    """Dense current operator: entry (m, n) = m + n, exact int64."""
    check_qubits(n_qubits)
    _check_cap(n_qubits)
    m = np.arange(1 << n_qubits, dtype=np.int64)
    return m[:, None] + m[None, :]


def current_decomposition(n_qubits: int) -> WeightedPauliSum:
    """Fully expanded Pauli-word form of the current operator.

    Every word over {I, X} (except all-I, which becomes the identity
    weight) carries coefficient 2^N - 1; every word with a single Z at
    position p and {I, X} elsewhere carries coefficient -2^(N-1-p).  No
    two of these words coincide and no weight is zero.

    The words come out sorted lexicographically by construction: the sorted
    words of L letters are those of L - 1 letters after I, the same after X,
    then the {I, X} words of L - 1 letters after Z, whose X masks count up
    from 0.  So the masks are filled in place, one pass per letter over one
    pair of int32 arrays of ``term_count(N) + 1`` entries that starts with
    the all-I word, and each weight is read from its Z mask: a Z at
    position p is the mask bit 2^(N-1-p).  The words are spelled from the
    masks only when read.  Words that strictly ascend repeat none, and the
    all-I word is the identity weight, so the sum is stored as built,
    without a check.  Registers beyond MAX_QUBITS are refused before
    anything is built.
    """
    check_qubits(n_qubits)
    check_register(n_qubits)
    ix_weight = float((1 << n_qubits) - 1)
    mx, mz = (np.zeros(term_count(n_qubits) + 1, dtype=np.int32) for _ in range(2))
    filled = 1  # the all-I word of no letters
    for length in range(n_qubits):
        # the new letter goes in front, so its bit is above the others
        bit = 1 << length
        np.bitwise_or(mx[:filled], bit, out=mx[filled : 2 * filled])
        mz[filled : 2 * filled] = mz[:filled]
        mx[2 * filled : 2 * filled + bit] = np.arange(bit, dtype=np.int32)
        mz[2 * filled : 2 * filled + bit] = bit
        filled = 2 * filled + bit
    mx, mz = mx[1:], mz[1:]  # the all-I word is the identity weight
    weights = np.negative(mz, dtype=np.float64)
    weights[mz == 0] = ix_weight
    masks = (mx, np.zeros(len(mx), dtype=np.int32), mz)
    make_words = partial(spell_masks, (mx, mz), n_qubits, "XZ", "I")
    out = object.__new__(WeightedPauliSum)
    out._set(n_qubits, ix_weight, masks, weights, make_words)
    return out


def realize_dense(op_sum: WeightedPauliSum) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum via explicit tensor products.

    Uses exact integer arithmetic whenever no word contains Y, all weights
    (identity included) are integers and their absolute sum, which bounds
    every entry, is below 2^63; this is the oracle the decomposition is
    checked against, so it deliberately stays a plain kron chain.
    """
    _check_cap(op_sum.n_qubits)
    dim = 1 << op_sum.n_qubits
    has_y = any("Y" in word for word in op_sum.words)
    weights = [float(op_sum.identity_weight), *map(float, op_sum.coeffs)]
    exact = (
        not has_y
        and all(map(float.is_integer, weights))
        and sum(abs(int(w)) for w in weights) < 1 << 63
    )
    if has_y:
        dtype = np.complex128
    elif exact:
        dtype = np.int64
    else:
        dtype = np.float64
    out = np.zeros((dim, dim), dtype=dtype)
    lam0 = int(op_sum.identity_weight) if exact else op_sum.identity_weight
    np.fill_diagonal(out, lam0)
    for word, coeff in zip(op_sum.words, op_sum.coeffs):
        mat = reduce(np.kron, (_FACTORS[ch] for ch in word))
        out += (int(coeff) if exact else coeff) * mat
    return out
