"""Dense statevector engine.

Gates act through strided amplitude-pair updates on a (2,)*N view of the
amplitude array (stride 2^(N-1-target)); no dense unitary is ever built.
Qubit 0 (S1) is the most significant bit of the basis index, so the basis
index of a momentum eigenstate equals the momentum quantum number.

``rotated_settings`` rotates a state into its measurement settings for
the shot and exact estimators of ``experiment``: strided Hadamard layers
on the real and the imaginary part as separate real float64 arrays (no
imaginary part for a real state).  Visited in order of their leftmost Z,
settings copy the Hadamards already applied before it and add the ones
after it: about N^2/2 layers for the N + 1 grouped settings instead of N^2.

Expectation values of weighted Pauli sums are computed exactly from the
sum's mask and coefficient arrays, with no word string or per-word
object.  Word parities come from one kernel, ``parity_expectations``, which
takes nothing but the table: one in-place Walsh-Hadamard transform, made
of the rotations' own Hadamard layer, turns a dense outcome vector, or
every row of a table of them, into every mask's parity average.  Its
layers of short stride, where numpy would run inner loops of 2 to 16
entries, run on cache-sized transposed tiles, where the same pairs lie
whole rows apart (``_walsh``); every entry meets the same additions in the
same order, so the tiles change no bit of any table.
``expectation_pauli`` reads sums over {I,X,Z} with at most one Z per word
(a Y or a second Z is refused) in extended precision, which keeps the
heavily weighted cancellations accurate at large N.  Two blocked passes
over the sum's words (``_score_table``) scatter its coefficients into one
table, a segment for each setting the sum reads and none for the others.
It rotates the state once, N Hadamard layers per part, tiled like the
kernel's, and reads every setting from that: the all-X setting's outcomes
are the rotated state's squares, and a Z setting's outcome differences a
product of its two halves across the Z bit.  There the kernel transforms
each setting's segment, not its outcomes, and the outcomes are summed
against that transform, exactly for integer coefficients such as the
current operator's: in int32 where a segment's absolute sum is below 2^31,
else in int64.  The settings' sums are added by first word.
``experiment`` calls the kernel in float64, once per bounded block of
outcome rows.  ``sample`` returns an int64
count per basis index, not bitstrings; a readout flip is one element-wise
channel, ``readout_channel``, on the outcome distribution before the draw.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import (
    WORD_BLOCK,
    WeightedPauliSum,
    check_measurable,
    measurable,
)

#: Norm drift beyond this after a kernel indicates an engine bug.
NORM_TOL = 1e-9
#: The most shots one draw takes: the sampler's counts are int64.
MAX_SHOTS = (1 << 63) - 1

GATE_KINDS = ("RY", "H", "X", "Z", "CNOT", "CRY")
_CONTROLLED = ("CNOT", "CRY")
_PARAMETRIC = ("RY", "CRY")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)

#: A Walsh transform's layers of stride below 2^_TILE_BITS run on transposed
#: tiles, where each is one long stride instead of many short inner loops.
_TILE_BITS = 5
#: Entries of one transposed tile (256 KiB of int64), so it stays in cache.
_TILE_ENTRIES = 1 << 15


class NormDriftError(RuntimeError):
    """Statevector norm drifted past NORM_TOL: a kernel bug, not user error."""


class _ArrayRecord:
    """Equal by type and fields, arrays by ``np.array_equal``; hashed by qubit count."""

    __slots__ = ()

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(np.array_equal(getattr(self, f), getattr(other, f)) for f in self.__slots__)

    def __hash__(self):
        return hash(self.n_qubits)


@dataclass(frozen=True, slots=True)
class Gate:
    """One circuit operation; ``control`` and ``angle`` only where meaningful."""

    kind: str
    target: int
    control: int | None = None
    angle: float | None = None

    def __post_init__(self):
        if self.kind not in GATE_KINDS:
            raise ValueError(f"unknown gate kind {self.kind!r}")
        if (self.control is not None) != (self.kind in _CONTROLLED):
            raise ValueError(f"{self.kind} control qubit mis-specified")
        if (self.angle is not None) != (self.kind in _PARAMETRIC):
            raise ValueError(f"{self.kind} angle mis-specified")
        if self.angle is not None and not math.isfinite(self.angle):
            raise ValueError(f"{self.kind} angle must be finite, got {self.angle!r}")
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError("negative qubit index")


def ry(target: int, angle: float) -> Gate:
    return Gate("RY", target, angle=angle)


def h(target: int) -> Gate:
    return Gate("H", target)


def x(target: int) -> Gate:
    return Gate("X", target)


def z(target: int) -> Gate:
    return Gate("Z", target)


def cnot(control: int, target: int) -> Gate:
    return Gate("CNOT", target, control=control)


def cry(control: int, target: int, angle: float) -> Gate:
    return Gate("CRY", target, control=control, angle=angle)


@dataclass(frozen=True, slots=True, eq=False)
class Statevector(_ArrayRecord):
    """2^N complex amplitudes, unit norm, basis index read S1-first."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = _register_array(self.amplitudes, self.n_qubits, np.complex128, "amplitudes")
        nrm = l2_norm(amps)
        if not abs(nrm - 1.0) <= NORM_TOL:
            raise ValueError(f"amplitudes not normalized (norm {nrm!r})")
        object.__setattr__(self, "amplitudes", amps)


def _register_array(values, n_qubits: int, dtype, what: str) -> np.ndarray:
    """``values`` as a contiguous array of ``dtype``, refused unless it holds
    one entry per basis index of N qubits."""
    array = np.ascontiguousarray(values, dtype=dtype)
    if array.shape != (1 << n_qubits,):
        raise ValueError(f"expected {1 << n_qubits} {what}, got shape {array.shape}")
    return array


def init_basis(n_qubits: int, index: int) -> Statevector:
    """Computational basis state |index> (equals momentum eigenstate |index>)."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    dim = 1 << n_qubits
    if not 0 <= index < dim:
        raise ValueError(f"basis index {index} out of range for {n_qubits} qubits")
    amps = np.zeros(dim, dtype=np.complex128)
    amps[index] = 1.0
    return Statevector(n_qubits, amps)


def init_amplitudes(n_qubits: int, amps) -> Statevector:
    """Load an explicit amplitude vector, renormalizing it.

    A vector with a component of magnitude 1 or more is first scaled down
    by the power of two that brings its largest real or imaginary part
    below 1, so that no square overflows.  The scaling is exact: where no
    square overflows or underflows, the result is bit for bit the unscaled
    vector over its norm.
    """
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    arr = _register_array(amps, n_qubits, np.complex128, "amplitudes")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite amplitude")
    _, e = math.frexp(max(np.abs(arr.real).max(), np.abs(arr.imag).max()))
    arr = arr * math.ldexp(1.0, -max(e, 0))
    nrm = l2_norm(arr)
    if nrm < 1e-12:  # never true of a scaled vector, whose norm is at least 1/2
        raise ValueError("cannot normalize a zero vector")
    return Statevector(n_qubits, arr / nrm)


def _rotate_pair(pair: np.ndarray, angle: float) -> None:
    # pair[0], pair[1] -> [[cos a/2, -sin a/2], [sin a/2, cos a/2]] action
    c = math.cos(0.5 * angle)
    s = math.sin(0.5 * angle)
    a = pair[0].copy()
    b = pair[1]
    pair[0] = c * a - s * b
    pair[1] = s * a + c * b


def _apply_inplace(amps: np.ndarray, gate: Gate, n_qubits: int) -> None:
    if not 0 <= gate.target < n_qubits:
        raise ValueError(f"target {gate.target} out of range")
    view = amps.reshape((2,) * n_qubits)
    if gate.kind in _CONTROLLED:
        if not 0 <= gate.control < n_qubits:
            raise ValueError(f"control {gate.control} out of range")
        w = np.moveaxis(view, (gate.control, gate.target), (0, 1))
        if gate.kind == "CNOT":
            tmp = w[1, 0].copy()
            w[1, 0] = w[1, 1]
            w[1, 1] = tmp
        else:
            _rotate_pair(w[1], gate.angle)
        return
    v = np.moveaxis(view, gate.target, 0)
    if gate.kind == "RY":
        _rotate_pair(v, gate.angle)
    elif gate.kind == "H":
        _hadamard_layer(amps, n_qubits, gate.target, _INV_SQRT2)
    elif gate.kind == "X":
        tmp = v[0].copy()
        v[0] = v[1]
        v[1] = tmp
    elif gate.kind == "Z":
        v[1] *= -1.0


def l2_norm(values: np.ndarray) -> float:
    """Euclidean norm of a float64 or complex128 array.

    The squares of its float64 view are added by numpy's own pairwise
    reduction, not by BLAS, whose summation order changes with its thread
    count; so the digits do not depend on how many threads BLAS runs.
    """
    flat = np.ascontiguousarray(values).view(np.float64)
    return math.sqrt(np.square(flat).sum())


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state; the input is untouched."""
    return apply_circuit(state, (gate,))


def apply_circuit(state: Statevector, gates) -> Statevector:
    """Apply a gate sequence (or anything with a .gates attribute) in order."""
    gates = getattr(gates, "gates", gates)
    amps = state.amplitudes.copy()
    for gate in gates:
        _apply_inplace(amps, gate, state.n_qubits)
    nrm = l2_norm(amps)
    if not abs(nrm - 1.0) <= NORM_TOL:
        raise NormDriftError(f"norm drifted to {nrm!r}")
    return Statevector(state.n_qubits, amps)


def z_probabilities(state: Statevector) -> np.ndarray:
    """Outcome probabilities of a full Z-basis measurement."""
    amps = state.amplitudes
    return amps.real**2 + amps.imag**2


@dataclass(frozen=True, slots=True, eq=False)
class Distribution(_ArrayRecord):
    """Z-basis outcome probabilities of an N-qubit register by basis index,
    for ``sample`` to draw from where no ``Statevector`` is at hand: 2^N
    finite, non-negative float64 entries with a positive, finite sum, which
    ``sample`` scales to 1."""

    n_qubits: int
    probabilities: np.ndarray

    def __post_init__(self):
        probs = _register_array(self.probabilities, self.n_qubits, np.float64, "probabilities")
        if not np.isfinite(probs).all():
            raise ValueError("non-finite probability")
        if (probs < 0.0).any():
            raise ValueError("negative probability")
        with np.errstate(over="ignore"):
            total = float(probs.sum())
        if not 0.0 < total < math.inf:
            raise ValueError(f"probabilities must have a positive, finite sum, got {total!r}")
        object.__setattr__(self, "probabilities", probs)

    @classmethod
    def _unchecked(cls, n_qubits: int, probabilities: np.ndarray) -> "Distribution":
        """Norm-checked float64 probabilities, taken without a second check."""
        out = object.__new__(cls)
        object.__setattr__(out, "n_qubits", n_qubits)
        object.__setattr__(out, "probabilities", probabilities)
        return out


def check_shots(shots, what: str) -> None:
    """Refuse a shot count that is not an ``int`` in [1, MAX_SHOTS]; a
    ``bool`` or a whole float is no shot count either."""
    if isinstance(shots, bool) or not isinstance(shots, int):
        raise ValueError(f"{what} must be an integer, got {shots!r}")
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"{what} must be between 1 and {MAX_SHOTS}, got {shots}")


def check_flip(readout_flip) -> None:
    """Refuse a readout flip probability outside [0, 0.5); NaN and the
    infinities lie outside it too."""
    if not 0.0 <= readout_flip < 0.5:
        raise ValueError("readout flip probability must lie in [0, 0.5)")


def sample(
    state: Statevector | Distribution,
    shots: int,
    seed=None,
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Projective Z-basis sampling, deterministic for a given seed.

    Returns the int64 count of every outcome, indexed by basis index; the
    counts add up to ``shots``, an ``int`` (not a ``bool``).  A
    ``Distribution`` is drawn from as it is, a ``Statevector`` through
    ``z_probabilities``.

    ``readout_flip`` is a classical bit-flip channel on the outcomes, each
    bit flipping independently with that probability.  A shot's outcome is
    then one draw from A P, with A the tensor product of one
    [[1 - p, p], [p, 1 - p]] per qubit (``readout_channel``), so the counts
    are one multinomial draw from A P: the law of flipping every bit of
    every shot.  The generator is numpy's default PCG64; ``seed`` may be an
    int or a numpy SeedSequence.
    """
    check_shots(shots, "shots")
    check_flip(readout_flip)
    if isinstance(state, Distribution):
        probs = state.probabilities
    else:
        probs = z_probabilities(state)
    if readout_flip > 0.0:
        probs = readout_channel(np.array(probs, dtype=np.float64), readout_flip)
    return np.random.default_rng(seed).multinomial(shots, probs / probs.sum())


def readout_channel(table: np.ndarray, flip: float) -> np.ndarray:
    """Flip every bit of the outcome distributions in ``table``, in place.

    Each position mixes the outcome pairs that differ in its bit: with d =
    (hi - lo) * flip, lo gains d and hi loses it, the shortest stride first.
    The steps are element-wise, so every row of a 2-D table gets the same
    floats as a 1-D call on that row.  ``table`` is returned.
    """
    if not table.flags.c_contiguous:
        raise ValueError("an outcome table must be C-contiguous")
    n_qubits = table.shape[-1].bit_length() - 1
    for pos in range(n_qubits - 1, -1, -1):
        v = table.reshape(-1, 2, 1 << (n_qubits - 1 - pos))
        lo, hi = v[:, 0], v[:, 1]
        d = hi - lo
        d *= flip
        lo += d
        hi -= d
    return table


def parity_expectations(table: np.ndarray) -> np.ndarray:
    """Every parity average sum_j (-1)^popcount(mask & j) table[..., j], in place.

    One unnormalized Walsh-Hadamard transform along the last axis turns
    each dense outcome vector of ``table`` into its parity averages, entry
    m for mask m, in the table's dtype; ``table`` is overwritten and
    returned.  The transform is a Hadamard layer per position, the shortest
    stride first (``_walsh``), so every row of a 2-D table is transformed
    by the same steps as a 1-D call on that row.  A table that is not
    C-contiguous is refused: its transform would land in a copy.
    """
    if not table.flags.c_contiguous:
        raise ValueError("an outcome table must be C-contiguous")
    return _walsh(table, table.shape[-1].bit_length() - 1, shortest_first=True)


def _walsh(table: np.ndarray, n_qubits: int, shortest_first: bool) -> np.ndarray:
    """An unnormalized Hadamard layer on every position of each row of
    ``table``, a C-contiguous array of rows of 2^n_qubits entries, in place,
    the shortest stride first or last.

    The layers of stride below 2^_TILE_BITS run on transposed tiles, where
    their pairs lie whole rows apart: each tile is the rows of _TILE_BITS
    low bits, at most _TILE_ENTRIES entries of the table, copied in
    transposed, and copied back once its layers are done.  Every entry
    meets the same additions in the same order as with the plain layers,
    which a register of at most _TILE_BITS qubits takes throughout.
    """
    tiled = _TILE_BITS if n_qubits > _TILE_BITS else 0
    wide = range(n_qubits - 1 - tiled, -1, -1)  # stride 2^tiled and up, shortest first
    if shortest_first:
        _tile_layers(table, tiled, shortest_first)
    for pos in wide if shortest_first else reversed(wide):
        _hadamard_layer(table, n_qubits, pos)
    if not shortest_first:
        _tile_layers(table, tiled, shortest_first)
    return table


def _tile_layers(table: np.ndarray, bits: int, shortest_first: bool) -> None:
    # the layers on the ``bits`` low bits: in a tile, the transpose of
    # ``width`` rows of 2^bits entries, the pairs of bit i lie width * 2^i apart
    if not bits:
        return
    rows = table.reshape(-1, 1 << bits)
    order = range(bits) if shortest_first else range(bits - 1, -1, -1)
    for start in range(0, len(rows), _TILE_ENTRIES >> bits):
        block = rows[start : start + (_TILE_ENTRIES >> bits)]
        tile = block.T.copy()
        for bit in order:
            _butterfly(tile.reshape(-1, 2, len(block) << bit))
        block[...] = tile.T


def _hadamard_layer(amps: np.ndarray, n_qubits: int, pos: int, scale=None) -> None:
    # Hadamard on qubit ``pos`` in place: a + b and a - b, times ``scale`` if
    # given; the blocks of 2 * stride entries never straddle a row of a table
    _butterfly(amps.reshape(-1, 2, 1 << (n_qubits - 1 - pos)))
    if scale is not None:
        np.multiply(amps, scale, out=amps)


def _butterfly(v: np.ndarray) -> None:
    # v[:, 0] and v[:, 1] become their sum and difference, in place
    a = v[:, 0].copy()
    b = v[:, 1]
    np.add(a, b, out=v[:, 0])
    np.subtract(a, b, out=b)


def rotated_settings(amps: np.ndarray, n_qubits: int, zmasks):
    """Yield (k, parts): ``amps`` in the basis of setting k, which reads Z
    where the int ``zmasks[k]`` has a bit (leftmost qubit the MSB) and X
    elsewhere.  ``parts`` are the real part and, unless it is zero, the
    imaginary part, as new float64 arrays with a Hadamard layer at each X
    position in ascending order, as ``circuits.measurement_circuit`` emits
    them.  Settings are visited by leftmost Z and share the layers before it.
    """
    parts = [amps.real.astype(np.float64)]
    if amps.imag.any():
        parts.append(amps.imag.astype(np.float64))
    done = 0  # ``parts`` has the layers on every position before ``done``
    for k in sorted(range(len(zmasks)), key=lambda k: -zmasks[k].bit_length()):
        first_z = n_qubits - zmasks[k].bit_length()  # n_qubits for all-X
        for pos in range(done, first_z):
            for part in parts:
                _hadamard_layer(part, n_qubits, pos, _INV_SQRT2)
        done = first_z
        rotated = [part.copy() for part in parts]
        for pos in range(first_z + 1, n_qubits):
            if not zmasks[k] >> (n_qubits - 1 - pos) & 1:
                for part in rotated:
                    _hadamard_layer(part, n_qubits, pos, _INV_SQRT2)
        yield k, rotated


def expectation_pauli(state: Statevector, op_sum: WeightedPauliSum) -> float:
    """Exact expectation value of a weighted Pauli sum over {I, X, Z} with at
    most one Z per word, read per setting; a Y or a second Z is refused.

    The state is rotated once, by unnormalized Hadamards on every position
    in extended precision: Phi.  The all-X setting's outcomes are
    sum(part^2) / 2^N.  A Hadamard on bit b of Phi gives the setting with Z
    there, so that setting's outcome difference across bit b is
    sum(u * v) / 2^(N-1), with u and v the bit-b halves of Phi; every word
    it reads has bit b in its parity mask, so it is read on that
    half-length vector at its mask with bit b deleted.

    A setting's words are read together from the transform of their
    coefficients, not of its outcomes: sum_t c_t (H p)[m_t] equals
    sum_k p[k] (H C)[k], with C the coefficients scattered to their masks.
    C is int64 when every coefficient is an integer and their absolute sum
    is below 2^53, so that every transformed entry is exact, even in
    float64; otherwise it is longdouble.  An integer C whose own absolute
    sum is below 2^31 is transformed in int32: each transformed entry is a
    signed sum of some of its entries.  Each C is a segment of one table,
    filled in two passes over the words (``_score_table``), and transformed
    on its own; a setting that reads no word has none.  The settings' sums
    are added in the order in which each setting's first word appears.
    """
    if op_sum.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {op_sum.n_qubits} qubits, state has {state.n_qubits}"
        )
    segments = _score_table(op_sum)
    parts = [state.amplitudes.real.astype(np.longdouble)]
    if state.amplitudes.imag.any():
        parts.append(state.amplitudes.imag.astype(np.longdouble))
    for part in parts:
        _walsh(part, state.n_qubits, shortest_first=False)
    total = np.longdouble(op_sum.identity_weight)
    # an integer C's absolute values, 2^(N-1) at a time, and its int32 copy
    integral = any(scores.dtype == np.int64 for _, scores in segments)
    spare = np.empty(1 << state.n_qubits - 1 if integral else 0, np.int64)
    for zmask, scores in segments:
        if zmask:
            b = zmask.bit_length() - 1  # the setting's Z bit, counted from the LSB
            factors = [(v[:, 0], v[:, 1]) for v in (p.reshape(-1, 2, 1 << b) for p in parts)]
        else:
            factors = [(part, part) for part in parts]
        probs = np.multiply(*factors[0])
        for u, v in factors[1:]:
            probs += u * v
        probs = probs.reshape(-1)
        if scores.dtype == np.float64:
            scores = scores.astype(np.longdouble)
        elif sum(np.abs(row, out=spare).sum() for row in scores.reshape(-1, spare.size)) < 1 << 31:
            spare.view(np.int32)[: len(scores)] = scores
            scores = spare.view(np.int32)[: len(scores)]
        probs *= parity_expectations(scores)
        # unnormalized Hadamards: divide by 2 per rotated position; a
        # pairwise sum, where dot would reduce sequentially
        total += probs.sum() / probs.size
    return float(total)


def _score_table(op_sum: WeightedPauliSum) -> list[tuple[int, np.ndarray]]:
    """(Z mask, C) for each setting that reads a word, 0 for all-X, by first
    word: C, 2^(N-1) entries for a Z setting and 2^N for all-X, holds the
    setting's coefficients at their masks with the Z bit deleted, and is a
    segment of one zeroed table, the Z settings' by ascending bit first.

    Two passes over blocks of WORD_BLOCK words.  The first refuses a word
    with a Y or a second Z, finds each setting's first word from a block's
    union of Z masks, and picks the table's dtype: int64 for integers whose
    absolute sum is below 2^53, else float64; the caller narrows an int64
    segment to int32 or widens a float64 one to longdouble.  The second
    scatters the coefficients, cast to the table's dtype once per block.
    """
    n = op_sum.n_qubits
    mx, my, mz = op_sum.masks
    coeffs = op_sum.coeff_array
    first = {}  # the Z mask of each setting read: its first word
    integral, magnitude = True, 0.0
    for start in range(0, len(coeffs), WORD_BLOCK):
        block = slice(start, start + WORD_BLOCK)
        z, c = mz[block], coeffs[block]
        if not measurable(my[block], z).all():
            check_measurable(op_sum)  # raises, naming the first such word
        read = int(np.bitwise_or.reduce(z))  # every Z bit the block reads
        for zmask in (0, *(1 << b for b in range(n))):
            if zmask not in first and (read & zmask if zmask else not z.all()):
                first[zmask] = start + int((z == zmask).argmax())
        if integral:
            # each entry below 2^53 keeps the float64 sum from overflowing;
            # a sum of such integers is exact below 2^53 and, once it
            # reaches 2^53, stays there, in any order of addition
            magnitudes = np.abs(c)
            integral = bool((magnitudes < 2.0**53).all() and (c == np.trunc(c)).all())
            magnitude += magnitudes.sum() if integral else 0.0
    zbits = sum(first)  # the Z bits of the settings read
    # a segment starts after those of the Z bits below its own; the all-X
    # setting's, whose mask less one has every bit, after all of them
    offsets = {zmask: (zbits & (zmask - 1)).bit_count() << (n - 1) for zmask in first}
    size = zbits.bit_count() + 2 * (0 in first) << (n - 1)
    table = np.zeros(size, dtype=np.int64 if integral and magnitude < 2.0**53 else np.float64)
    index = np.empty(min(len(coeffs), WORD_BLOCK), dtype=np.int64)
    spare = np.empty_like(index)
    for start in range(0, len(coeffs), WORD_BLOCK):
        block = slice(start, start + WORD_BLOCK)
        x = mx[block]
        at, below = index[: len(x)], np.subtract(mz[block], 1, out=spare[: len(x)])
        # x plus its bits below the Z bit, and twice the offset, halved: the
        # bits above the Z bit move down one, and all stay without a Z
        np.bitwise_and(x, below, out=at)
        at += x
        below &= zbits
        at += np.left_shift(np.bitwise_count(below), n, out=below, dtype=np.int64)
        at >>= 1
        table[at] = coeffs[block].astype(table.dtype, copy=False)
    return [
        (zmask, table[offsets[zmask] :][: 1 << (n - 1 if zmask else n)])
        for zmask in sorted(first, key=first.get)
    ]
