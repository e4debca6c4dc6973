"""Dense statevector engine.

Gates act through strided amplitude-pair updates on a (2,)*N view of the
amplitude array (stride 2^(N-1-target)); no dense unitary is ever built.
Qubit 0 (S1) is the most significant bit of the basis index, so the basis
index of a momentum eigenstate equals the momentum quantum number.

One sweep, ``rotated_settings``, rotates a state into its measurement
settings for both estimators: strided Hadamard layers on the real and the
imaginary part as separate real arrays (no imaginary part for a real
state).  Visited in order of their leftmost Z, settings copy the
Hadamards already applied before it and add the ones after it: about
N^2/2 layers for the N + 1 grouped settings instead of N^2.

Expectation values of weighted Pauli sums are computed exactly from the
sum's word and coefficient columns, with no per-word object.  Word
parities come from one kernel, ``parity_expectations``: one Walsh-Hadamard
transform of a dense outcome vector gives every word's parity average.
Sums over {I,X,Z} with at most one Z per word feed it per setting
(``pauli.setting_plan``) in extended precision, which keeps the heavily
weighted cancellations accurate at large N; other words act on the state
directly.  ``experiment`` calls the sweep and the kernel in float64.
``sample`` returns an int64 count per basis index, not bitstrings.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .pauli import WeightedPauliSum, index_masks, setting_plan, word_masks

#: Norm drift beyond this after a kernel indicates an engine bug.
NORM_TOL = 1e-9
#: The most shots one draw takes: the sampler's counts are int64.
MAX_SHOTS = (1 << 63) - 1

GATE_KINDS = ("RY", "H", "X", "Z", "CNOT", "CRY")
_CONTROLLED = ("CNOT", "CRY")
_PARAMETRIC = ("RY", "CRY")

_INV_SQRT2 = 1.0 / math.sqrt(2.0)
_I_POWERS = (1.0, 1.0j, -1.0, -1.0j)


class NormDriftError(RuntimeError):
    """Statevector norm drifted past NORM_TOL: a kernel bug, not user error."""


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
        if self.control == self.target:
            raise ValueError("control and target must differ")
        if self.target < 0 or (self.control is not None and self.control < 0):
            raise ValueError("negative qubit index")

    def to_dict(self) -> dict:
        d: dict = {"kind": self.kind, "target": self.target}
        if self.control is not None:
            d["control"] = self.control
        if self.angle is not None:
            d["angle"] = self.angle
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "Gate":
        return cls(d["kind"], d["target"], d.get("control"), d.get("angle"))


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


@dataclass(frozen=True, slots=True)
class Statevector:
    """2^N complex amplitudes, unit norm, basis index read S1-first."""

    n_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        amps = np.ascontiguousarray(self.amplitudes, dtype=np.complex128)
        if amps.shape != (1 << self.n_qubits,):
            raise ValueError(
                f"expected {1 << self.n_qubits} amplitudes, got shape {amps.shape}"
            )
        nrm = np.linalg.norm(amps)
        if abs(nrm - 1.0) > NORM_TOL:
            raise ValueError(f"amplitudes not normalized (norm {nrm!r})")
        object.__setattr__(self, "amplitudes", amps)


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
    """Load an explicit amplitude vector, renormalizing it."""
    if n_qubits < 1:
        raise ValueError("need at least one qubit")
    arr = np.asarray(amps, dtype=np.complex128)
    if arr.shape != (1 << n_qubits,):
        raise ValueError(f"expected {1 << n_qubits} amplitudes, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("non-finite amplitude")
    nrm = np.linalg.norm(arr)
    if nrm < 1e-12:
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
        a = v[0].copy()
        b = v[1]
        v[0] = (a + b) * _INV_SQRT2
        v[1] = (a - b) * _INV_SQRT2
    elif gate.kind == "X":
        tmp = v[0].copy()
        v[0] = v[1]
        v[1] = tmp
    elif gate.kind == "Z":
        v[1] *= -1.0


def _check_drift(amps: np.ndarray) -> None:
    nrm = np.linalg.norm(amps)
    if abs(nrm - 1.0) > NORM_TOL:
        raise NormDriftError(f"norm drifted to {nrm!r}")


def apply_gate(state: Statevector, gate: Gate) -> Statevector:
    """Apply one gate, returning a new state; the input is untouched."""
    amps = state.amplitudes.copy()
    _apply_inplace(amps, gate, state.n_qubits)
    _check_drift(amps)
    return Statevector(state.n_qubits, amps)


def apply_circuit(state: Statevector, gates) -> Statevector:
    """Apply a gate sequence (or anything with a .gates attribute) in order."""
    gates = getattr(gates, "gates", gates)
    amps = state.amplitudes.copy()
    for gate in gates:
        _apply_inplace(amps, gate, state.n_qubits)
    _check_drift(amps)
    return Statevector(state.n_qubits, amps)


def z_probabilities(state: Statevector) -> np.ndarray:
    """Outcome probabilities of a full Z-basis measurement."""
    amps = state.amplitudes
    return amps.real**2 + amps.imag**2


def sample(
    state: Statevector,
    shots: int,
    seed=None,
    readout_flip: float = 0.0,
) -> np.ndarray:
    """Projective Z-basis sampling, deterministic for a given seed.

    Returns the int64 count of every outcome, indexed by basis index; the
    counts add up to ``shots``.

    ``readout_flip`` applies a classical bit-flip channel to the sampled
    outcomes: each bit of each shot flips independently with that
    probability.  The generator is numpy's default PCG64; ``seed`` may be
    an int or a numpy SeedSequence.
    """
    if not 1 <= shots <= MAX_SHOTS:
        raise ValueError(f"shots must be between 1 and {MAX_SHOTS}, got {shots}")
    if not 0.0 <= readout_flip < 0.5:
        raise ValueError("readout flip probability must lie in [0, 0.5)")
    rng = np.random.default_rng(seed)
    probs = z_probabilities(state)
    counts = rng.multinomial(shots, probs / probs.sum())
    n = state.n_qubits
    if readout_flip > 0.0:
        idx = np.arange(counts.size)
        for q in range(n):
            moved = rng.binomial(counts, readout_flip)
            counts = counts - moved + moved[idx ^ (1 << (n - 1 - q))]
    return counts


def expectation_pauli(
    state: Statevector, op_sum: WeightedPauliSum, imag_tol: float = 1e-10
) -> float:
    """Exact expectation value of a weighted Pauli sum."""
    if op_sum.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {op_sum.n_qubits} qubits, state has {state.n_qubits}"
        )
    masks = word_masks(op_sum.words, op_sum.n_qubits)
    _, my, mz = masks
    # no Y anywhere, and at most one Z per word
    if not my.any() and not (mz & (mz - 1)).any():
        return _expectation_grouped(state, op_sum, masks)
    return _expectation_direct(state, op_sum, imag_tol)


def _expectation_direct(
    state: Statevector, op_sum: WeightedPauliSum, imag_tol: float
) -> float:
    psi = state.amplitudes
    bra = psi.conj()
    idx = np.arange(psi.size)
    total = complex(op_sum.identity_weight)
    for word, coeff in zip(op_sum.words, op_sum.coeffs):
        mx, my, mz = index_masks(word)
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


def parity_expectations(probs: np.ndarray, masks) -> np.ndarray:
    """Parity averages sum_j (-1)^popcount(mask & j) probs[j], one per mask.

    One unnormalized Walsh-Hadamard transform of the dense outcome vector
    serves every mask; the result keeps the dtype of ``probs``.
    """
    out = probs.copy()
    size = out.size
    half = 1
    while half < size:
        v = out.reshape(-1, 2, half)
        a = v[:, 0, :].copy()
        b = v[:, 1, :]
        v[:, 0, :] = a + b
        v[:, 1, :] = a - b
        half *= 2
    return out[np.asarray(masks, dtype=np.int64)]


def _hadamard_layer(amps: np.ndarray, n_qubits: int, pos: int, scale=None) -> None:
    # Hadamard on qubit ``pos`` in place: a + b and a - b, times ``scale`` if given
    v = amps.reshape(-1, 2, 1 << (n_qubits - 1 - pos))
    a = v[:, 0].copy()
    b = v[:, 1]
    np.add(a, b, out=v[:, 0])
    np.subtract(a, b, out=b)
    if scale is not None:
        np.multiply(amps, scale, out=amps)


def rotated_settings(amps: np.ndarray, n_qubits: int, zmasks, dtype, scale=None):
    """Yield (k, parts): ``amps`` in the basis of setting k, which reads Z
    where the int ``zmasks[k]`` has a bit (leftmost qubit the MSB) and X
    elsewhere.  ``parts`` are the real part and, unless it is zero, the
    imaginary part, as new arrays of ``dtype`` with a Hadamard layer (times
    ``scale``, if given) at each X position in ascending order, as
    ``circuits.measurement_circuit`` emits them.  Settings are visited by
    leftmost Z and share the layers before it.
    """
    parts = [amps.real.astype(dtype)]
    if amps.imag.any():
        parts.append(amps.imag.astype(dtype))
    done = 0  # ``parts`` has the layers on every position before ``done``
    for k in sorted(range(len(zmasks)), key=lambda k: -zmasks[k].bit_length()):
        first_z = n_qubits - zmasks[k].bit_length()  # n_qubits for all-X
        for pos in range(done, first_z):
            for part in parts:
                _hadamard_layer(part, n_qubits, pos, scale)
        done = first_z
        rotated = [part.copy() for part in parts]
        for pos in range(first_z + 1, n_qubits):
            if not zmasks[k] >> (n_qubits - 1 - pos) & 1:
                for part in rotated:
                    _hadamard_layer(part, n_qubits, pos, scale)
        yield k, rotated


def _expectation_grouped(
    state: Statevector, op_sum: WeightedPauliSum, masks=None
) -> float:
    n = state.n_qubits
    if masks is None:
        masks = word_masks(op_sum.words, n)
    mx, _, mz = masks
    # float64 first: a direct longdouble conversion is several times slower
    coeffs = np.array(op_sum.coeffs, dtype=np.float64).astype(np.longdouble)
    parity_masks = mx | mz
    plan = setting_plan(mz, n)
    sums = [None] * len(plan)
    zmasks = [zmask for zmask, _ in plan]
    for k, parts in rotated_settings(state.amplitudes, n, zmasks, np.longdouble):
        zmask, members = plan[k]
        # unnormalized Hadamards: divide by 2 per rotated position at the end
        probs = sum(part**2 for part in parts) / (1 << (n - zmask.bit_count()))
        gathered = parity_expectations(probs, parity_masks[members])
        # elementwise product + pairwise sum; dot would reduce sequentially
        sums[k] = (coeffs[members] * gathered).sum()
    # accumulate in order of first appearance, as one setting at a time did
    total = np.longdouble(op_sum.identity_weight)
    for k in sorted(range(len(plan)), key=lambda k: plan[k][1][0]):
        total += sums[k]
    return float(total)
