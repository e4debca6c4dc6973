"""Pauli-word algebra for the ring probability-current operator.

The current operator on the 2^N-dimensional subspace of non-negative
angular momenta has dense entries ``m + n``.  It expands exactly into words
over {I, X} with a common integer weight plus, per qubit position, words
carrying a single Z with a power-of-two weight.  All coefficients are
integers, so the dense tensor-product realization can be compared against
the entry formula with exact integer equality.

Letter ordering: the leftmost letter of a word acts on qubit S1, which is
the most significant bit of the momentum index.
"""
from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from functools import reduce
from itertools import islice
from operator import attrgetter, eq, lt

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

    def __str__(self):
        return f"{self.coeff:+}*{self.word}"


class PauliTerms(Sequence):
    """Read-only sequence of ``PauliString``s over word and coefficient columns.

    Nothing is built up front: ``len`` is O(1), and a ``PauliString`` is made
    only for the item asked for.  Code that needs every word reads the
    ``words`` and ``coeffs`` columns instead.
    """

    __slots__ = ("words", "coeffs")

    def __init__(self, words, coeffs):
        self.words = tuple(words)
        self.coeffs = tuple(coeffs)

    def __len__(self):
        return len(self.words)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return PauliTerms(self.words[index], self.coeffs[index])
        return PauliString(self.words[index], self.coeffs[index])

    def __iter__(self):
        return map(PauliString, self.words, self.coeffs)


# deletes every Pauli letter, so whatever str.translate leaves is invalid
_DROP_PAULI_LETTERS = str.maketrans("", "", PAULI_LETTERS)


@dataclass(frozen=True, slots=True, init=False)
class WeightedPauliSum:
    """identity_weight * I + sum of weighted Pauli words on n_qubits qubits.

    The words and their coefficients are kept as two parallel columns,
    ``words`` and ``coeffs``, so a sum of 10^6 words is two tuples rather
    than 10^6 objects.  ``WeightedPauliSum(n, identity_weight, terms)``
    splits ``PauliString`` terms into the columns; ``from_columns`` takes
    them directly.  ``terms`` is a derived read-only ``PauliTerms`` view.

    Terms are kept merged: no duplicate words, and the all-identity word
    lives exclusively in ``identity_weight``.  Every word must be
    ``n_qubits`` letters over IXYZ and every coefficient finite, the same
    checks ``PauliString`` makes one word at a time.
    """

    n_qubits: int
    identity_weight: float
    words: tuple[str, ...]
    coeffs: tuple[float, ...]

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
        if n_qubits < 1:
            raise ValueError("need at least one qubit")
        if not math.isfinite(identity_weight):
            raise ValueError("non-finite identity weight")
        if len(words) != len(coeffs):
            raise ValueError(f"{len(words)} words but {len(coeffs)} coefficients")
        # bulk checks: each runs in C over a whole column, which matters at
        # 10^6 words
        if set(map(len, words)) - {n_qubits}:
            bad = next(w for w in words if len(w) != n_qubits)
            raise ValueError(f"term {bad} does not act on {n_qubits} qubits")
        if "".join(words).translate(_DROP_PAULI_LETTERS):
            bad = next(w for w in words if w.translate(_DROP_PAULI_LETTERS))
            raise ValueError(f"invalid Pauli word {bad!r}")
        if not all(map(math.isfinite, coeffs)):
            bad = next(w for w, c in zip(words, coeffs) if not math.isfinite(c))
            raise ValueError(f"non-finite coefficient for {bad}")
        # strictly ascending words (as current_decomposition makes them) are
        # distinct as they stand; otherwise duplicates end up side by side in
        # a sorted copy.  Either way the all-I word, the smallest word of its
        # length over IXYZ, comes first if it is there at all
        ascending = all(map(lt, words, islice(words, 1, None)))
        ordered = words if ascending else sorted(words)
        if ordered and ordered[0] == "I" * n_qubits:
            raise ValueError("all-identity term belongs in identity_weight")
        if not ascending and any(map(eq, ordered, islice(ordered, 1, None))):
            raise ValueError("duplicate Pauli words; merge like terms first")
        object.__setattr__(self, "n_qubits", n_qubits)
        object.__setattr__(self, "identity_weight", identity_weight)
        object.__setattr__(self, "words", words)
        object.__setattr__(self, "coeffs", coeffs)

    @property
    def terms(self) -> PauliTerms:
        """The words as ``PauliString``s, each built only when read."""
        return PauliTerms(self.words, self.coeffs)

    def to_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "lambda0": self.identity_weight,
            "terms": [
                {"coeff": c, "word": w} for w, c in zip(self.words, self.coeffs)
            ],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedPauliSum":
        terms = data["terms"]
        return cls.from_columns(
            int(data["n"]),
            float(data["lambda0"]),
            [t["word"] for t in terms],
            [float(t["coeff"]) for t in terms],
        )


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

    ``words`` is a sequence of words over IXYZ, each ``n_qubits`` long.
    """
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


def setting_plan(zmasks: np.ndarray, n_qubits: int) -> list[tuple[int, np.ndarray]]:
    """Group words into the qubit-wise settings that read them.

    ``zmasks`` are the words' Z masks from ``word_masks``, each with at most
    one bit set.  A word without Z is read in the all-X setting, a word with
    a Z at position p in the setting that is Z at p and X elsewhere.
    Returns (setting Z mask, indices of its words in sum order) for every
    setting that reads a word: all-X first, then Z at position 0 ... N-1.
    """
    plan = []
    for zmask in [0] + [1 << (n_qubits - 1 - pos) for pos in range(n_qubits)]:
        members = np.flatnonzero(zmasks == zmask)
        if members.size:
            plan.append((zmask, members))
    return plan


class RegisterTooLargeError(ValueError):
    """A register beyond MAX_QUBITS, refused before anything is built."""


def check_register(n_qubits: int) -> None:
    """Refuse registers larger than MAX_QUBITS."""
    if n_qubits > MAX_QUBITS:
        raise RegisterTooLargeError(
            f"{n_qubits} qubits exceed the register cap of {MAX_QUBITS}"
        )


def _check_qubits(n_qubits: int) -> None:
    if not isinstance(n_qubits, int) or n_qubits < 1:
        raise ValueError(f"qubit count must be a positive integer, got {n_qubits!r}")


def _check_cap(n_qubits: int, cap: int) -> None:
    if n_qubits > cap:
        raise ValueError(
            f"dense realization of {n_qubits} qubits exceeds the cap of {cap} "
            f"(2^{n_qubits} x 2^{n_qubits} entries)"
        )


def term_count(n_qubits: int) -> int:
    """Number of non-identity words in the current-operator expansion."""
    _check_qubits(n_qubits)
    return 2**n_qubits + n_qubits * 2 ** (n_qubits - 1) - 1


def dense_current_matrix(n_qubits: int, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense current operator: entry (m, n) = m + n, exact int64."""
    _check_qubits(n_qubits)
    _check_cap(n_qubits, cap)
    m = np.arange(1 << n_qubits, dtype=np.int64)
    return m[:, None] + m[None, :]


def current_decomposition(n_qubits: int) -> WeightedPauliSum:
    """Fully expanded Pauli-word form of the current operator.

    Every word over {I, X} (except all-I, which becomes the identity
    weight) carries coefficient 2^N - 1; every word with a single Z at
    position p and {I, X} elsewhere carries coefficient -2^(N-1-p).  No
    two of these words coincide and no weight is zero.

    The words come out sorted lexicographically by construction: suffixes
    grow one letter at a time, with I, then X, then Z put in front (Z only
    before {I, X} suffixes).  A Z's weight depends only on how many
    letters follow it, so the weights grow alongside.  The word and
    weight lists become the sum's columns as they are; no ``PauliString``
    is built.  Registers beyond MAX_QUBITS are refused before anything is
    built.
    """
    _check_qubits(n_qubits)
    check_register(n_qubits)
    # words, their weights and the {I, X} words, all of the same suffix length
    words, weights, ix = [""], [float((1 << n_qubits) - 1)], [""]
    for k in range(n_qubits):
        words = ["I" + w for w in words] + ["X" + w for w in words] + ["Z" + w for w in ix]
        weights = weights + weights + [-float(1 << k)] * len(ix)
        ix = ["I" + w for w in ix] + ["X" + w for w in ix]
    # words[0] is the all-I word; its weight is the identity weight
    return WeightedPauliSum.from_columns(
        n_qubits, weights[0], islice(words, 1, None), islice(weights, 1, None)
    )


def realize_dense(op_sum: WeightedPauliSum, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum via explicit tensor products.

    Uses exact integer arithmetic whenever all coefficients are integers
    and no word contains Y; this is the oracle the decomposition is checked
    against, so it deliberately stays a plain kron chain.
    """
    _check_cap(op_sum.n_qubits, cap)
    dim = 1 << op_sum.n_qubits
    has_y = any("Y" in word for word in op_sum.words)
    exact = not has_y and float(op_sum.identity_weight).is_integer() and all(
        float(coeff).is_integer() for coeff in op_sum.coeffs
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
