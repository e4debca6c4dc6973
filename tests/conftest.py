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
