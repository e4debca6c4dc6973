"""Reference implementations that the fast paths in ``src/`` are tested
against: a per-word expectation value that reads any word over IXYZ, the
letter-by-letter cover test of a measurement setting, the per-shot
readout-flip sampler and the dense readout-flip matrix."""
import numpy as np

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def expectation_direct(state, op_sum, imag_tol: float = 1e-10) -> float:
    """<psi|op_sum|psi>, one word at a time, acting on the state directly.

    Each word flips the basis index at its X and Y positions and takes a
    sign from its Z and Y positions; its Y count gives a power of i.  Any
    word over IXYZ is read, Y and multi-Z words included, which
    ``engine.expectation_pauli`` refuses.
    """
    psi = state.amplitudes
    bra = psi.conj()
    idx = np.arange(psi.size)
    total = complex(op_sum.identity_weight)
    columns = (*op_sum.masks, op_sum.coeff_array)
    for mx, my, mz, coeff in zip(*(column.tolist() for column in columns)):
        flip = mx | my
        phase = mz | my
        row = bra if flip == 0 else bra[idx ^ flip]
        if phase:
            # bitwise_count yields uint8; widen before it can wrap
            parity = np.bitwise_count(idx & phase).astype(np.int64) & 1
            val = np.dot(row * (1 - 2 * parity), psi)
        else:
            val = np.dot(row, psi)
        total += coeff * val * _I_POWERS[my.bit_count() & 3]
    if abs(total.imag) > imag_tol:
        raise ValueError(f"imaginary residue {total.imag!r} exceeds {imag_tol}")
    return float(total.real)


def covers(setting, word: str) -> bool:
    """True when every non-identity letter of ``word`` matches the basis of
    ``setting`` (a ``MeasurementSetting``) at its position."""
    if len(word) != len(setting.basis_word):
        return False
    return all(
        letter == "I" or letter == basis for letter, basis in zip(word, setting.basis_word)
    )


def binomial_flip_sample(probs, shots: int, seed, readout_flip: float) -> np.ndarray:
    """Counts drawn from ``probs``, then each bit of each shot flipped with
    probability ``readout_flip``: one binomial per qubit over the whole count
    vector moves that many shots of every outcome to its partner across the
    qubit's bit."""
    rng = np.random.default_rng(seed)
    probs = np.asarray(probs, dtype=np.float64)
    counts = rng.multinomial(shots, probs / probs.sum())
    n = probs.size.bit_length() - 1
    idx = np.arange(counts.size)
    for q in range(n):
        moved = rng.binomial(counts, readout_flip)
        counts = counts - moved + moved[idx ^ (1 << (n - 1 - q))]
    return counts


def readout_matrix(n_qubits: int, flip: float) -> np.ndarray:
    """The dense 2^N x 2^N transition matrix of independent bit flips: the
    Kronecker product of one [[1 - p, p], [p, 1 - p]] per qubit."""
    one = np.array([[1.0 - flip, flip], [flip, 1.0 - flip]])
    dense = np.ones((1, 1))
    for _ in range(n_qubits):
        dense = np.kron(dense, one)
    return dense
