import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import strategies as st

from ringflow.pauli import WeightedPauliSum

DATA_DIR = Path(__file__).resolve().parents[1] / "data"
SRC_DIR = Path(__file__).resolve().parents[1] / "src"
TESTS_DIR = Path(__file__).resolve().parent


def child_env(**overrides) -> dict:
    """The environment for a child Python that imports this tree's ringflow,
    with the default buffered standard output."""
    env = {**os.environ, **overrides}
    env.pop("PYTHONUNBUFFERED", None)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return env


#: A child Python's script: run the CLI on the JSON argv list in sys.argv[1],
#: then print its exit code and its own peak resident set (VmHWM, kB)
PEAK_SCRIPT = """
import json, re, sys
from ringflow.cli import main
code = main(json.loads(sys.argv[1]))
status = open("/proc/self/status").read()
print(code, re.search(r"VmHWM:\\s+(\\d+) kB", status).group(1))
"""


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
def measurable_sums(draw, letters="IX", z=None):
    """Sums of words over ``letters`` plus at most one Z, in drawn order, so
    settings may be missing and the words come shuffled; may be empty.
    With ``z`` True every word has one Z, with ``z`` False none.  Each sum
    draws whether every coefficient is an integer or none is."""
    n = draw(st.integers(1, 6))
    positions = st.integers(0 if z else -1, -1 if z is False else n - 1)
    word = st.tuples(st.text(letters, min_size=n, max_size=n), positions).map(_put_z)
    words = draw(
        st.lists(word.filter(lambda w: w != "I" * n), unique=True, max_size=3 * n + 6)
    )
    if draw(st.booleans()):
        coeff = st.integers(-8, 8).map(float)
    else:
        coeff = st.floats(-8, 8).filter(lambda c: not c.is_integer())
    coeffs = draw(st.lists(coeff, min_size=len(words), max_size=len(words)))
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


def small_word_blocks(monkeypatch, words: int) -> None:
    """Make every pass over word columns take ``words`` words at a time: the
    constant lives in ``pauli``, and ``engine`` holds its own name for it."""
    import ringflow.engine
    import ringflow.pauli

    monkeypatch.setattr(ringflow.pauli, "WORD_BLOCK", words)
    monkeypatch.setattr(ringflow.engine, "WORD_BLOCK", words)
