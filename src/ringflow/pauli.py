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
from dataclasses import dataclass
from functools import reduce
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

    def __str__(self):
        return f"{self.coeff:+}*{self.word}"


@dataclass(frozen=True, slots=True)
class WeightedPauliSum:
    """identity_weight * I + sum of weighted Pauli words on n_qubits qubits.

    Terms are kept merged: no duplicate words, and the all-identity word
    lives exclusively in ``identity_weight``.
    """

    n_qubits: int
    identity_weight: float
    terms: tuple[PauliString, ...]

    def __post_init__(self):
        if self.n_qubits < 1:
            raise ValueError("need at least one qubit")
        if not math.isfinite(self.identity_weight):
            raise ValueError("non-finite identity weight")
        object.__setattr__(self, "terms", tuple(self.terms))
        # bulk checks: set and map run in C, which matters at 10^6 terms
        words = list(map(attrgetter("word"), self.terms))
        if set(map(len, words)) - {self.n_qubits}:
            bad = next(w for w in words if len(w) != self.n_qubits)
            raise ValueError(f"term {bad} does not act on {self.n_qubits} qubits")
        distinct = set(words)
        if "I" * self.n_qubits in distinct:
            raise ValueError("all-identity term belongs in identity_weight")
        if len(distinct) != len(words):
            raise ValueError("duplicate Pauli words; merge like terms first")

    def to_dict(self) -> dict:
        return {
            "n": self.n_qubits,
            "lambda0": self.identity_weight,
            "terms": [{"coeff": t.coeff, "word": t.word} for t in self.terms],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "WeightedPauliSum":
        terms = tuple(PauliString(t["word"], float(t["coeff"])) for t in data["terms"])
        return cls(int(data["n"]), float(data["lambda0"]), terms)


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
    letters follow it, so the weights grow alongside.  Registers beyond
    MAX_QUBITS are refused before anything is built.
    """
    _check_qubits(n_qubits)
    check_register(n_qubits)
    # words, their weights and the {I, X} words, all of the same suffix length
    words, weights, ix = [""], [float((1 << n_qubits) - 1)], [""]
    for k in range(n_qubits):
        words = ["I" + w for w in words] + ["X" + w for w in words] + ["Z" + w for w in ix]
        weights = weights + weights + [-float(1 << k)] * len(ix)
        ix = ["I" + w for w in ix] + ["X" + w for w in ix]
    terms = tuple(map(PauliString, words[1:], weights[1:]))
    return WeightedPauliSum(n_qubits, weights[0], terms)


def realize_dense(op_sum: WeightedPauliSum, cap: int = DENSE_QUBIT_CAP) -> np.ndarray:
    """Dense matrix of a weighted Pauli sum via explicit tensor products.

    Uses exact integer arithmetic whenever all coefficients are integers
    and no word contains Y; this is the oracle the decomposition is checked
    against, so it deliberately stays a plain kron chain.
    """
    _check_cap(op_sum.n_qubits, cap)
    dim = 1 << op_sum.n_qubits
    has_y = any("Y" in t.word for t in op_sum.terms)
    exact = not has_y and float(op_sum.identity_weight).is_integer() and all(
        float(t.coeff).is_integer() for t in op_sum.terms
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
    for t in op_sum.terms:
        mat = reduce(np.kron, (_FACTORS[ch] for ch in t.word))
        out += (int(t.coeff) if exact else t.coeff) * mat
    return out
