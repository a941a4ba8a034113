"""spinbus: N spin-1/2 probes coupled to a single qubit bus.

Symmetric-sector construction and exact propagation of spin-star models,
quantum Fisher information (global and bus-local), first-moment measurement
uncertainties, weak/strong-coupling perturbation theory, closed forms for
the exactly solvable dephasing model, and N-scaling sweep drivers.
"""

from .dynamics import ModelKind, ModelSpec, Param
from .fisher import first_moment_uncertainty, global_qfi_fd, local_qfi_fd, qcr_bound
from .perturb import hl_condition, pt1_qfi, pt2_qfi_zeroth
from .states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    ThermalProbeSpec,
    thermal_equivalent_alpha,
)
from .zzzz_exact import (
    global_qfi_closed,
    local_qfi_x_closed,
    thermal_global_qfi,
    thermal_local_equivalence_check,
)

__version__ = "0.1.0"
