import types

import telecert

# Every public name telecert exports; its submodules are attributes, not
# exports. An added or removed name shows as a diff of this list.
PUBLIC_NAMES = [
    "Adversary", "Announcement", "BlochAverageReport", "Branch", "BranchFidelity",
    "CertificateDecision", "Criterion", "DensityOperator", "FidelityReport",
    "InputFamily", "MeasurementOutcome", "ProtocolId", "ProtocolParams", "PureState",
    "RngStream", "ThresholdSource", "UnitaryMatrix", "apply_unitary",
    "basis_state", "bloch_average", "build_target", "cnot", "decide",
    "entanglement_gadget", "entanglement_gadget_inverse", "exact_report",
    "expectation", "ghz_rotation", "hadamard", "measure_branches",
    "monte_carlo_threshold", "partial_trace", "pauli_x", "pauli_z",
    "regenerate_zero", "run_exact", "run_sampled", "tensor", "theta_average",
    "theta_sweep", "threshold_fidelity", "threshold_table", "to_density", "trash",
]


def test_public_names_pinned():
    assert sorted(telecert.__all__) == PUBLIC_NAMES


def test_star_import_binds_no_module():
    namespace = {}
    exec("from telecert import *", namespace)
    assert [name for name, value in namespace.items() if isinstance(value, types.ModuleType)] == []
    assert isinstance(telecert.certify, types.ModuleType)
