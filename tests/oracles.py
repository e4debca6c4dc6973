"""Reference implementations that the fast paths in ``src/`` are tested
against: a per-word expectation value that reads any word over IXYZ, and
the letter-by-letter cover test of a measurement setting."""
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
