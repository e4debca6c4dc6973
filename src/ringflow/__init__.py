"""ringflow: probability-current backflow on a ring.

A superposition of non-negative angular momentum eigenstates can carry a
negative probability current at a point on the ring.  This package builds
the current operator's exact Pauli-word expansion, prepares backflowing
states on a dense statevector simulator, estimates the current from
projective-measurement shots, and recombines externally measured data.
"""
from .circuits import (
    Circuit,
    MeasurementSetting,
    backflow_prep_angles,
    controlled_ry_gates,
    group_terms,
    measurement_circuit,
    parity_sign,
    prepare_backflow_circuit,
)
from .engine import (
    Gate,
    NormDriftError,
    Statevector,
    apply_circuit,
    apply_gate,
    cnot,
    cry,
    expectation_pauli,
    h,
    init_amplitudes,
    init_basis,
    ry,
    sample,
    x,
    z,
    z_probabilities,
)
from .experiment import (
    BackflowCoefficients,
    ExperimentReport,
    SettingRecord,
    TermRecord,
    backflow_coefficients,
    closed_form_current,
    exact_current,
    ingest_measurements,
    relative_error,
    run_exact,
    run_simulation,
)
from .pauli import (
    DENSE_QUBIT_CAP,
    MAX_QUBITS,
    PauliString,
    RegisterTooLargeError,
    WeightedPauliSum,
    current_decomposition,
    dense_current_matrix,
    realize_dense,
    term_count,
)

__version__ = "0.1.0"

__all__ = [
    "BackflowCoefficients",
    "Circuit",
    "DENSE_QUBIT_CAP",
    "ExperimentReport",
    "Gate",
    "MAX_QUBITS",
    "MeasurementSetting",
    "NormDriftError",
    "PauliString",
    "RegisterTooLargeError",
    "SettingRecord",
    "Statevector",
    "TermRecord",
    "WeightedPauliSum",
    "apply_circuit",
    "apply_gate",
    "backflow_coefficients",
    "backflow_prep_angles",
    "closed_form_current",
    "cnot",
    "controlled_ry_gates",
    "cry",
    "current_decomposition",
    "dense_current_matrix",
    "exact_current",
    "expectation_pauli",
    "group_terms",
    "h",
    "ingest_measurements",
    "init_amplitudes",
    "init_basis",
    "measurement_circuit",
    "parity_sign",
    "prepare_backflow_circuit",
    "realize_dense",
    "relative_error",
    "ry",
    "run_exact",
    "run_simulation",
    "sample",
    "term_count",
    "x",
    "z",
    "z_probabilities",
]
