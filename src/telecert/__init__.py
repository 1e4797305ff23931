"""Exact simulator and certification toolkit for adversarial quantum teleportation."""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .certify import (
    Adversary,
    AdversaryModel,
    CertificateDecision,
    Criterion,
    ThresholdSource,
    decide,
    threshold_table,
)
from .channels import MeasurementOutcome, RngStream, measure_branches, regenerate_zero, trash
from .fidelity import (
    BlochAverageReport,
    BranchFidelity,
    FidelityReport,
    bloch_average,
    exact_report,
    monte_carlo_threshold,
    theta_average,
    theta_sweep,
    threshold_fidelity,
)
from .gates import (
    UnitaryMatrix,
    cnot,
    entanglement_gadget,
    entanglement_gadget_inverse,
    ghz_rotation,
    hadamard,
    pauli_x,
    pauli_z,
)
from .protocols import (
    Announcement,
    Branch,
    InputFamily,
    ProtocolId,
    ProtocolParams,
    TargetState,
    build_target,
    run_exact,
    run_sampled,
)
from .statevec import (
    DensityOperator,
    PureState,
    apply_unitary,
    basis_state,
    expectation,
    partial_trace,
    tensor,
    to_density,
)

# the submodules are bound here by the imports above, but are not star-exported
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, _ModuleType))
