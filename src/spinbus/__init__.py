"""spinbus: N spin-1/2 probes coupled to a single qubit bus.

Symmetric-sector construction and exact propagation of spin-star models,
quantum Fisher information (global and bus-local), first-moment measurement
uncertainties, weak/strong-coupling perturbation theory, closed forms for
the exactly solvable dephasing model, and N-scaling sweep drivers.
"""

from .dynamics import (
    HamiltonianMatrix,
    ModelKind,
    ModelSpec,
    assemble,
    eigensystem,
    evolve,
    evolve_derivative,
    propagate,
)
from .fisher import (
    BusDensity,
    FirstMomentResult,
    Param,
    QfiResult,
    bures_distance,
    evolve_with_derivative,
    first_moment_uncertainty,
    global_qfi_fd,
    local_qfi_fd,
    qcr_bound,
    qubit_qfi,
    reduce_to_bus,
)
from .perturb import (
    CorrelationKernel,
    PerturbativeUncertainty,
    PtResult,
    appendix_local_uncertainty,
    hl_condition,
    pt1_qfi_omega1,
    pt1_qfi_x,
    pt2_qfi_zeroth,
)
from .states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    SymmetricState,
    ThermalProbeSpec,
    build_product_state,
    collective_jx,
    collective_jz,
    state_from_text,
    state_to_text,
    thermal_equivalent_alpha,
)
from .zzzz_exact import (
    ClosedFormUncertainty,
    XReadoutVariant,
    delta_x_x_readout,
    global_qfi_closed,
    local_qfi_x_closed,
    reduced_rho_closed,
    thermal_global_qfi,
    thermal_local_equivalence_check,
)

__version__ = "0.1.0"
