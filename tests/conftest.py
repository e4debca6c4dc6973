from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ringflow.pauli import WeightedPauliSum

DATA_DIR = Path(__file__).resolve().parents[1] / "data"


@pytest.fixture(scope="session")
def data_dir() -> Path:
    return DATA_DIR


def random_state_vector(rng: np.random.Generator, n_qubits: int) -> np.ndarray:
    v = rng.normal(size=1 << n_qubits) + 1j * rng.normal(size=1 << n_qubits)
    return v / np.linalg.norm(v)


def _put_z(word_and_position):
    word, pos = word_and_position
    return word if pos < 0 else word[:pos] + "Z" + word[pos + 1 :]


@st.composite
def measurable_sums(draw, letters="IX"):
    """Sums of words over ``letters`` plus at most one Z, in drawn order, so
    settings may be missing and the words come shuffled; may be empty."""
    n = draw(st.integers(1, 6))
    word = st.tuples(
        st.text(letters, min_size=n, max_size=n), st.integers(-1, n - 1)
    ).map(_put_z)
    words = draw(
        st.lists(word.filter(lambda w: w != "I" * n), unique=True, max_size=3 * n + 6)
    )
    coeffs = draw(st.lists(st.floats(-8, 8), min_size=len(words), max_size=len(words)))
    return WeightedPauliSum.from_columns(n, draw(st.floats(-8, 8)), words, coeffs)


def assert_same_text(got: str, want: str) -> None:
    """Exact equality of two texts, for multi-megabyte reports.

    A mismatch is reported as the two lengths and the first differing
    offset with about 80 characters of context, without the full diff that
    a bare ``assert ==`` would build.
    """
    if got == want:
        return
    # the longest common prefix, by bisection over C-level slice comparisons
    lo, hi = 0, min(len(got), len(want))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if got[:mid] == want[:mid]:
            lo = mid
        else:
            hi = mid - 1
    start = max(0, lo - 40)
    pytest.fail(
        f"texts differ: lengths {len(got)} and {len(want)}, first difference at "
        f"offset {lo}: {got[start:lo + 40]!r} != {want[start:lo + 40]!r}",
        pytrace=False,
    )
