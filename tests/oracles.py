"""Reference implementations that the fast paths in ``src/`` are tested
against: the current operator's word expansion enumerated from every word
over {I, X, Z}, the expansion's invariants read from its masks by base-4
letter codes, a per-word expectation value that reads any word over IXYZ, the
letter-by-letter cover test of a measurement setting, the per-shot
readout-flip sampler, the dense readout-flip matrix, and the plain
layer-by-layer Walsh transform and per-setting expectation value, which
the engine's kernels match bit for bit."""
from itertools import product

import numpy as np

from ringflow.pauli import check_measurable, current_decomposition, term_count

_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


def expansion_words(n_qubits: int):
    """The current operator's words and coefficients, in sorted order: every
    word over {I, X, Z} with at most one Z except all-I, a word without Z
    weighted 2^N - 1 and one with its Z at position p weighted -2^(N-1-p)."""
    words = sorted(
        "".join(letters)
        for letters in product("IXZ", repeat=n_qubits)
        if letters.count("Z") <= 1 and letters.count("I") < n_qubits
    )
    coeffs = [
        -float(1 << (n_qubits - 1 - word.index("Z")))
        if "Z" in word
        else float((1 << n_qubits) - 1)
        for word in words
    ]
    return words, coeffs


def letter_codes(masks, n_qubits: int) -> np.ndarray:
    """Each word's base-4 numeral from its (X, Y, Z) masks, as int64: one
    digit per letter, I X Y Z = 0 1 2 3, the leftmost letter most
    significant, so words of one length order as their codes.  Up to 31
    letters, whose codes stay below 4^31 = 2^62."""
    x, y, z = (np.asarray(mask, dtype=np.int64) for mask in masks)
    codes = np.zeros(len(x), dtype=np.int64)
    for bit in range(n_qubits - 1, -1, -1):
        codes = 4 * codes + (x >> bit & 1) + 2 * (y >> bit & 1) + 3 * (z >> bit & 1)
    return codes


def check_expansion_invariants(n_qubits: int, block: int = 1 << 16) -> None:
    """Assert what makes ``current_decomposition(n_qubits)`` a valid sum
    without a check: ``term_count`` words, no Y, X and Z masks within N bits
    and disjoint, at most one Z, the weight 2^N - 1 without Z and minus the
    Z mask with it, and words that strictly ascend in I < X < Z order from
    above the all-I word, across block boundaries too.  The masks are read
    ``block`` words at a time, so the check adds little to the sum's own
    memory."""
    dec = current_decomposition(n_qubits)
    mx, my, mz = dec.masks
    assert len(mx) == len(dec.coeff_array) == term_count(n_qubits)
    assert not my.any()
    top = (1 << n_qubits) - 1
    last = 0  # the all-I word's code
    for start in range(0, len(mx), block):
        x, z = mx[start : start + block], mz[start : start + block]
        assert ((x & ~top) == 0).all() and ((z & ~top) == 0).all()
        assert not (x & z).any()
        assert not (z & (z - 1)).any()
        want = np.where(z == 0, float(top), -z.astype(np.float64))
        assert np.array_equal(dec.coeff_array[start : start + block], want)
        codes = letter_codes((x, np.zeros_like(x), z), n_qubits)
        assert codes[0] > last and (codes[1:] > codes[:-1]).all()
        last = codes[-1]


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


def _layer(table, n_qubits: int, pos: int) -> None:
    # a + b and a - b across bit N - 1 - pos of every row, in place
    v = table.reshape(-1, 2, 1 << (n_qubits - 1 - pos))
    a = v[:, 0].copy()
    b = v[:, 1]
    np.add(a, b, out=v[:, 0])
    np.subtract(a, b, out=b)


def parity_layers(table):
    """The unnormalized Walsh-Hadamard transform along the last axis of a
    C-contiguous ``table``, in place: one whole-table layer per position,
    the shortest stride first.  ``table`` is returned."""
    n = table.shape[-1].bit_length() - 1
    for pos in range(n - 1, -1, -1):
        _layer(table, n, pos)
    return table


def expectation_per_setting(state, op_sum) -> float:
    """<psi|op_sum|psi> for words over {I, X, Z} with at most one Z, one
    setting at a time, with whole-vector layers: the state rotated by N
    unnormalized longdouble layers, the longest stride first; per setting,
    in order all-X, then Z at position 0 ... N-1, its words' masks
    gathered, the coefficients scattered and transformed by
    ``parity_layers`` (int64 for integers with absolute sum below 2^53,
    else longdouble); the settings' sums added in order of their first
    word."""
    check_measurable(op_sum)
    n = state.n_qubits
    mx, _, mz = op_sum.masks
    coeffs = op_sum.coeff_array
    magnitudes = np.abs(coeffs)
    integral = (
        (magnitudes < 2.0**53).all()
        and magnitudes.sum() < 2.0**53
        and (coeffs == np.trunc(coeffs)).all()
    )
    score_dtype = np.int64 if integral else np.longdouble
    parity_masks = mx | mz
    amps = state.amplitudes
    parts = [amps.real.astype(np.longdouble)]
    if amps.imag.any():
        parts.append(amps.imag.astype(np.longdouble))
    for part in parts:
        for pos in range(n):
            _layer(part, n, pos)
    plan = []
    for zmask in [0] + [1 << (n - 1 - pos) for pos in range(n)]:
        members = np.flatnonzero(mz == zmask)
        if members.size:
            plan.append((zmask, members))
    sums = []
    for zmask, members in plan:
        masks = parity_masks[members]
        if zmask:
            b = zmask.bit_length() - 1
            halves = [part.reshape(-1, 2, 1 << b) for part in parts]
            probs = sum(v[:, 0] * v[:, 1] for v in halves).reshape(-1)
            masks = ((masks >> (b + 1)) << b) | (masks & ((1 << b) - 1))
        else:
            probs = sum(part**2 for part in parts)
        scores = np.zeros(probs.size, dtype=score_dtype)
        scores[masks] = coeffs[members]
        probs *= parity_layers(scores)
        sums.append(probs.sum() / (1 << (n - zmask.bit_count())))
    total = np.longdouble(op_sum.identity_weight)
    for k in sorted(range(len(plan)), key=lambda k: plan[k][1][0]):
        total += sums[k]
    return float(total)
