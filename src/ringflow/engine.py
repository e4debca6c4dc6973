"""Dense statevector engine.

Gates act through strided amplitude-pair updates on a (2,)*N view of the
amplitude array (stride 2^(N-1-target)); no dense unitary is ever built.
Qubit 0 (S1) is the most significant bit of the basis index, so the basis
index of a momentum eigenstate equals the momentum quantum number.

Expectation values of weighted Pauli sums are computed exactly.  Word
parities come from one kernel, ``parity_expectations``: one Walsh-Hadamard
transform of a dense outcome vector gives every word's parity average.
Sums whose words are over {I,X,Z} with at most one Z feed it per setting
(one basis rotation each) in extended precision, which keeps the heavily
weighted cancellations accurate at large N; other words act on the state
directly.  The estimators in ``experiment`` call it in float64.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .pauli import WeightedPauliSum, index_masks, word_masks

#: Norm drift beyond this after a kernel indicates an engine bug.
NORM_TOL = 1e-9

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


@dataclass(frozen=True, slots=True)
class OutcomeCounts:
    """Measured bitstring histogram; keys are S1-first binary strings."""

    n_qubits: int
    shots: int
    counts: dict[str, int]

    def __post_init__(self):
        if sum(self.counts.values()) != self.shots:
            raise ValueError("counts do not add up to the shot total")

    def to_dict(self) -> dict:
        return {"shots": self.shots, "counts": dict(sorted(self.counts.items()))}


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
) -> OutcomeCounts:
    """Projective Z-basis sampling, deterministic for a given seed.

    ``readout_flip`` applies a classical bit-flip channel to the sampled
    outcomes: each bit of each shot flips independently with that
    probability.  The generator is numpy's default PCG64; ``seed`` may be
    an int or a numpy SeedSequence.
    """
    if shots < 1:
        raise ValueError("need at least one shot")
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
    out = {format(i, f"0{n}b"): int(c) for i, c in enumerate(counts) if c}
    return OutcomeCounts(n, shots, out)


def expectation_pauli(
    state: Statevector, op_sum: WeightedPauliSum, imag_tol: float = 1e-10
) -> float:
    """Exact expectation value of a weighted Pauli sum."""
    if op_sum.n_qubits != state.n_qubits:
        raise ValueError(
            f"operator acts on {op_sum.n_qubits} qubits, state has {state.n_qubits}"
        )
    masks = word_masks(list(map(attrgetter("word"), op_sum.terms)), op_sum.n_qubits)
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
    for term in op_sum.terms:
        mx, my, mz = index_masks(term.word)
        flip = mx | my
        phase = mz | my
        row = bra if flip == 0 else bra[idx ^ flip]
        if phase:
            # bitwise_count yields uint8; widen before it can wrap
            parity = np.bitwise_count(idx & phase).astype(np.int64) & 1
            val = np.dot(row * (1 - 2 * parity), psi)
        else:
            val = np.dot(row, psi)
        total += term.coeff * val * _I_POWERS[my.bit_count() & 3]
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


def _expectation_grouped(
    state: Statevector, op_sum: WeightedPauliSum, masks=None
) -> float:
    n = state.n_qubits
    terms = op_sum.terms
    if masks is None:
        masks = word_masks(list(map(attrgetter("word"), terms)), n)
    mx, _, mz = masks
    # float64 first: a direct longdouble fromiter is several times slower
    coeffs = np.fromiter(map(attrgetter("coeff"), terms), np.float64, len(terms))
    coeffs = coeffs.astype(np.longdouble)
    parity_masks = mx | mz
    # one setting per Z mask, visited in order of first appearance; a stable
    # sort keeps each setting's terms in their original order
    zmasks, first, group = np.unique(mz, return_index=True, return_inverse=True)
    order = np.argsort(group, kind="stable")
    sizes = np.bincount(group, minlength=zmasks.size)
    ends = np.cumsum(sizes)
    base = state.amplitudes.astype(np.clongdouble)
    total = np.longdouble(op_sum.identity_weight)
    for g in np.argsort(first).tolist():
        zmask = int(zmasks[g])
        members = order[ends[g] - sizes[g] : ends[g]]
        rotated = base.copy()
        n_rotations = 0
        for pos in range(n):
            if not (1 << (n - 1 - pos)) & zmask:
                v = np.moveaxis(rotated.reshape((2,) * n), pos, 0)
                a = v[0].copy()
                b = v[1]
                v[0] = a + b
                v[1] = a - b
                n_rotations += 1
        probs = (rotated.real**2 + rotated.imag**2) / (1 << n_rotations)
        gathered = parity_expectations(probs, parity_masks[members])
        # elementwise product + pairwise sum; dot would reduce sequentially
        total += (coeffs[members] * gathered).sum()
    return float(total)
