"""Circuit synthesis and measurement planning.

State preparation uses Y-rotations whose angles are solved analytically
from the real coefficients it is handed (``experiment.BackflowCoefficients``
of one or two qubits).  Rotation convention throughout: RY(t) acts as
[[cos t/2, -sin t/2], [sin t/2, cos t/2]], and a controlled rotation
applies RY(angle) to its target when the control reads 1.  With that
convention the two-qubit preparation needs the controlled angle with the
opposite sign of its conventional printed value; the sign is fixed here by
requiring exact fidelity with the target state, and the preparation
asserts that fidelity after synthesis.  One qubit reaches any real pair;
the two-qubit circuit reaches only states whose |10> amplitude is 0, and
any other target fails the fidelity check.

Measurement settings choose Z- or X-basis per qubit (X-basis meaning a
Hadamard before the Z measurement).  A word is measurable under a setting
when its X letters sit at X-basis positions and its Z letters at Z-basis
positions; grouping assigns all Z-free words to the all-X setting and the
words with a Z at position p to the setting that is Z at p and X elsewhere.
``pauli.setting_plan`` makes that plan for ``group_terms`` and
``experiment.run_simulation`` alike; the engine's grouped expectation finds
its settings on its own, as it reads the words.  A setting's basis word is
spelled from its Z mask by ``pauli.spell_masks``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .engine import Gate, apply_circuit, cnot, h, init_basis, ry
from .pauli import PauliString, PauliTerms, WeightedPauliSum, check_measurable
from .pauli import setting_groups, setting_plan, spell_masks


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


@dataclass(frozen=True, slots=True)
class MeasurementSetting:
    """Per-qubit basis choice, written S1-first over letters {Z, X}."""

    basis_word: str

    def __post_init__(self):
        if not self.basis_word or set(self.basis_word) - {"Z", "X"}:
            raise ValueError(f"invalid basis word {self.basis_word!r}")

    @classmethod
    def from_z_mask(cls, zmask: int, n_qubits: int) -> "MeasurementSetting":
        """Z where ``zmask`` has a bit (leftmost letter = MSB), X elsewhere;
        a mask outside the register's N bits is refused."""
        if not 0 <= zmask < 1 << n_qubits:
            raise ValueError(f"Z mask {zmask} outside {n_qubits} qubits")
        return cls(*spell_masks((np.array([zmask]),), n_qubits, "Z", "X"))


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


def backflow_prep_angles(coeffs) -> dict[str, float]:
    """Rotation angles that prepare ``coeffs`` (its ``n_qubits`` and real
    amplitudes ``a``), solved analytically.

    For one qubit: {"alpha"}.  For two: {"alpha0", "alpha1"}, where alpha1
    is the controlled-rotation angle under this module's sign convention
    (its magnitude equals the conventional value).  The two-qubit angles
    ignore the |10> amplitude, which the circuit cannot reach.
    """
    n_qubits, a = coeffs.n_qubits, coeffs.a
    if n_qubits == 1:
        alpha = (2.0 * math.atan2(a[1], a[0])) % (4.0 * math.pi)
        return {"alpha": alpha}
    if n_qubits == 2:
        # After RY(alpha0) on S1 and CNOT(S1 -> S2) the state is
        # cos(alpha0/2)|00> + sin(alpha0/2)|11>; the controlled rotation on S1
        # then fans |11> into the |01>/|11> pair.  Negative-sine branch for
        # alpha0 keeps the solved angles at their conventional magnitudes.
        # alpha1 is 2 atan2(-a1 / s0, a3 / s0) with the negative s0
        # cancelled, which also holds at s0 = 0 (the state |00>).
        s0 = -math.hypot(a[1], a[3])
        alpha0 = (2.0 * math.atan2(s0, a[0])) % (4.0 * math.pi)
        alpha1 = 2.0 * math.atan2(a[1], -a[3])
        return {"alpha0": alpha0, "alpha1": alpha1}
    raise ValueError("rotation synthesis covers 1 or 2 qubits only")


def prepare_backflow_circuit(coeffs) -> Circuit:
    """Gate sequence taking |0...0> to ``coeffs`` (1 or 2 qubits).

    Larger registers load amplitudes directly instead of synthesizing gates.
    The two-qubit controlled rotation is emitted pre-expanded into
    RY(+-alpha1/2) and two CNOTs.  A target the circuit does not reach to
    fidelity 1 - 1e-10 (at two qubits, one with a nonzero |10> amplitude)
    is refused with RuntimeError.
    """
    n_qubits = coeffs.n_qubits
    angles = backflow_prep_angles(coeffs)
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
    prepared = apply_circuit(init_basis(n_qubits, 0), circ).amplitudes
    fidelity = abs(np.vdot(coeffs.a.astype(np.complex128), prepared)) ** 2
    if not fidelity >= 1.0 - 1e-10:  # a NaN fidelity fails too
        raise RuntimeError(f"synthesized state fidelity {float(fidelity)!r} below target")
    return circ


def group_terms(op_sum: WeightedPauliSum) -> dict[MeasurementSetting, PauliTerms]:
    """Assign every term to exactly one measurement setting (at most N+1).

    Z-free terms share the all-X setting; terms with a Z at position p go
    to the setting that is Z at p and X elsewhere (``pauli.setting_plan``).
    Words with a Y or more than one Z are not measurable under this family
    of settings, and ``pauli.check_measurable`` refuses them.  Each
    setting's terms keep their order in ``op_sum``.
    """
    check_measurable(op_sum)
    zmasks, setting = setting_plan(op_sum.masks[2], op_sum.n_qubits)
    order, slices = setting_groups(setting, len(zmasks))
    bases = map(MeasurementSetting, spell_masks((zmasks,), op_sum.n_qubits, "Z", "X"))
    return dict(zip(bases, (op_sum._take(order[members]).terms for members in slices)))


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
