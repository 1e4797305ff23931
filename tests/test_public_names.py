import telecert

# Every public name telecert exports (its submodules included, since __all__
# is read off dir()). An added or removed name shows as a diff of this list.
PUBLIC_NAMES = [
    "Adversary", "AdversaryModel", "Announcement", "BlochAverageReport", "Branch",
    "BranchFidelity", "CertificateDecision", "Criterion", "DensityOperator", "FidelityReport",
    "InputFamily", "MeasurementOutcome", "ProtocolId", "ProtocolParams", "PureState",
    "RngStream", "TargetState", "ThresholdSource", "UnitaryMatrix", "apply_unitary",
    "basis_state", "bloch_average", "build_target", "certify", "channels", "cnot", "decide",
    "entanglement_gadget", "entanglement_gadget_inverse", "exact_report", "exact_threshold",
    "expectation", "fidelity", "gates", "ghz_rotation", "hadamard", "measure_branches",
    "monte_carlo_threshold", "partial_trace", "pauli_x", "pauli_z", "protocols",
    "regenerate_zero", "run_exact", "run_sampled", "statevec", "tensor", "theta_average",
    "theta_sweep", "threshold_fidelity", "threshold_table", "to_density", "trash",
]


def test_public_names_pinned():
    assert sorted(telecert.__all__) == PUBLIC_NAMES
