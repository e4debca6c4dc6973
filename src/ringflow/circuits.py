"""Circuit synthesis and measurement planning.

State preparation uses Y-rotations whose angles are solved analytically
from the target amplitudes.  Rotation convention throughout: RY(t) acts as
[[cos t/2, -sin t/2], [sin t/2, cos t/2]], and a controlled rotation
applies RY(angle) to its target when the control reads 1.  With that
convention the two-qubit preparation needs the controlled angle with the
opposite sign of its conventional printed value; the sign is fixed here by
requiring exact fidelity with the target state, and the preparation
asserts that fidelity after synthesis.

Measurement settings choose Z- or X-basis per qubit (X-basis meaning a
Hadamard before the Z measurement).  A word is measurable under a setting
when its X letters sit at X-basis positions and its Z letters at Z-basis
positions; grouping assigns all Z-free words to the all-X setting and the
words with a Z at position p to the setting that is Z at p and X elsewhere.
``pauli.setting_plan`` makes that plan for ``group_terms``, the engine and
``experiment.run_simulation`` alike.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Gate, apply_circuit, cnot, h, init_basis, ry
from .pauli import PauliString, PauliTerms, WeightedPauliSum, setting_plan, word_masks


@dataclass(frozen=True, slots=True)
class Circuit:
    """Ordered gate list on a fixed register; immutable once built."""

    n_qubits: int
    gates: tuple[Gate, ...]

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        for g in self.gates:
            if g.target >= self.n_qubits or (
                g.control is not None and g.control >= self.n_qubits
            ):
                raise ValueError(f"gate {g} addresses qubits outside the register")

    def to_dict(self) -> dict:
        return {"n": self.n_qubits, "gates": [g.to_dict() for g in self.gates]}

    @classmethod
    def from_dict(cls, data: dict) -> "Circuit":
        return cls(int(data["n"]), tuple(Gate.from_dict(g) for g in data["gates"]))


@dataclass(frozen=True, slots=True)
class MeasurementSetting:
    """Per-qubit basis choice, written S1-first over letters {Z, X}."""

    basis_word: str

    def __post_init__(self):
        if not self.basis_word or set(self.basis_word) - {"Z", "X"}:
            raise ValueError(f"invalid basis word {self.basis_word!r}")

    @classmethod
    def from_z_mask(cls, zmask: int, n_qubits: int) -> "MeasurementSetting":
        """Z where ``zmask`` has a bit (leftmost letter = MSB), X elsewhere."""
        return cls(format(zmask, f"0{n_qubits}b").replace("0", "X").replace("1", "Z"))

    def covers(self, word: str) -> bool:
        """True when every non-identity letter matches this setting's basis."""
        if len(word) != len(self.basis_word):
            return False
        return all(
            letter == "I" or letter == basis
            for letter, basis in zip(word, self.basis_word)
        )


def measurement_circuit(setting: MeasurementSetting) -> Circuit:
    """Basis-change circuit: one Hadamard per X-basis position."""
    gates = tuple(h(p) for p, b in enumerate(setting.basis_word) if b == "X")
    return Circuit(len(setting.basis_word), gates)


def controlled_ry_gates(control: int, target: int, angle: float) -> tuple[Gate, ...]:
    """Controlled-RY expanded as RY(angle/2), CNOT, RY(-angle/2), CNOT."""
    half = 0.5 * angle
    return (
        ry(target, half),
        cnot(control, target),
        ry(target, -half),
        cnot(control, target),
    )


def backflow_prep_angles(n_qubits: int) -> dict[str, float]:
    """Rotation angles that prepare the backflowing state, solved analytically.

    For one qubit: {"alpha"}.  For two: {"alpha0", "alpha1"}, where alpha1
    is the controlled-rotation angle under this module's sign convention
    (its magnitude equals the conventional value).
    """
    from .experiment import backflow_coefficients

    two_pi = 2.0 * math.pi
    a = backflow_coefficients(n_qubits).a
    if n_qubits == 1:
        alpha = (2.0 * math.atan2(a[1], a[0])) % (2.0 * two_pi)
        return {"alpha": alpha}
    if n_qubits == 2:
        # After RY(alpha0) on S1 and CNOT(S1 -> S2) the state is
        # cos(alpha0/2)|00> + sin(alpha0/2)|11>; the controlled rotation on S1
        # then fans |11> into the |01>/|11> pair.  Negative-sine branch for
        # alpha0 keeps the solved angles at their conventional magnitudes.
        s0 = -math.hypot(a[1], a[3])
        alpha0 = (2.0 * math.atan2(s0, a[0])) % (2.0 * two_pi)
        alpha1 = 2.0 * math.atan2(-a[1] / s0, a[3] / s0)
        return {"alpha0": alpha0, "alpha1": alpha1}
    raise ValueError("rotation synthesis covers 1 or 2 qubits only")


def prepare_backflow_circuit(n_qubits: int) -> Circuit:
    """Gate sequence taking |0...0> to the backflowing state (1 or 2 qubits).

    Larger registers load amplitudes directly instead of synthesizing gates.
    The two-qubit controlled rotation is emitted pre-expanded into
    RY(+-alpha1/2) and two CNOTs.
    """
    from .experiment import backflow_coefficients

    angles = backflow_prep_angles(n_qubits)
    if n_qubits == 1:
        circ = Circuit(1, (ry(0, angles["alpha"]),))
    else:
        circ = Circuit(
            2,
            (
                ry(0, angles["alpha0"]),
                cnot(0, 1),
                *controlled_ry_gates(control=1, target=0, angle=angles["alpha1"]),
            ),
        )
    target = backflow_coefficients(n_qubits).a
    prepared = apply_circuit(init_basis(n_qubits, 0), circ).amplitudes
    fidelity = abs(np.vdot(target.astype(np.complex128), prepared)) ** 2
    if fidelity < 1.0 - 1e-10:
        raise RuntimeError(f"synthesized state fidelity {fidelity!r} below target")
    return circ


def group_terms(op_sum: WeightedPauliSum) -> dict[MeasurementSetting, PauliTerms]:
    """Assign every term to exactly one measurement setting (at most N+1).

    Z-free terms share the all-X setting; terms with a Z at position p go
    to the setting that is Z at p and X elsewhere (``pauli.setting_plan``).
    Words with a Y or more than one Z are not measurable under this family
    of settings.  Each setting's terms keep their order in ``op_sum``.
    """
    n = op_sum.n_qubits
    _, my, mz = word_masks(op_sum.words, n)
    bad = np.flatnonzero(my | (mz & (mz - 1)))
    if bad.size:
        word = op_sum.words[bad[0]]
        raise ValueError(f"term {word} not measurable with Z/X settings")
    out: dict[MeasurementSetting, PauliTerms] = {}
    for zmask, members in setting_plan(mz, n):
        members = members.tolist()
        out[MeasurementSetting.from_z_mask(zmask, n)] = PauliTerms(
            [op_sum.words[i] for i in members], [op_sum.coeffs[i] for i in members]
        )
    return out


def parity_sign(term: PauliString, outcome: str) -> int:
    """+-1 parity of the outcome bits at the term's non-identity positions."""
    if len(outcome) != len(term.word):
        raise ValueError("outcome length does not match the term")
    if set(outcome) - {"0", "1"}:
        raise ValueError(f"invalid outcome bitstring {outcome!r}")
    ones = sum(
        1 for letter, bit in zip(term.word, outcome) if letter != "I" and bit == "1"
    )
    return -1 if ones & 1 else 1
