"""Two perturbative routes to the QFI and where each one is valid.

Weak coupling: the interaction is the perturbation, and the QFI becomes a
double time integral of interaction-picture correlation functions with an
N and an N^2 part.  Strong coupling: the estimated parameter dominates the
Hamiltonian, and the zeroth-order QFI is 4 t^2 times the variance of its
derivative in the initial state.  The condition integral (the bus-variance
part of the weak-coupling expansion) decides whether N^2 scaling appears.

The residual against the exact solver shrinks with the cube of the small
parameter: the expansions really are second order.
"""

import numpy as np

from spinbus import (
    DEFAULT_ANGLES,
    ModelKind,
    ModelSpec,
    Param,
    global_qfi_fd,
    hl_condition,
    pt1_qfi_omega1,
    pt1_qfi_x,
    pt2_qfi_zeroth,
)

print("Weak coupling (eps = 0.001): correlation-function expansion vs exact")
spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-3)
print(f"{'N':>4s} {'expansion':>12s} {'exact':>12s} {'rel.dev':>9s}  (eps*N)")
for n in (1, 10, 50, 100):
    pt = pt1_qfi_x(spec, n, DEFAULT_ANGLES)
    exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
    print(f"{n:4d} {pt.value:12.5e} {exact:12.5e} "
          f"{abs(pt.value - exact) / exact:9.1e}  ({pt.eps_times_n:.2f})")
print("  -> accurate while eps*N stays small; the N^2 term signals the")
print(f"     Heisenberg component: condition integral = "
      f"{hl_condition(spec, DEFAULT_ANGLES):.4f} (nonzero)\n")

print("Strong coupling (eps = 100): zeroth-order variance formula vs exact")
spec = ModelSpec(ModelKind.ZZXX, epsilon=100.0)
for n in (1, 10, 50):
    pt = pt2_qfi_zeroth(spec, n, DEFAULT_ANGLES, Param.X)
    exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
    print(f"{n:4d} {pt.value:12.5e} {exact:12.5e} "
          f"{abs(pt.value - exact) / exact:9.1e}")
print()

print("Residual scaling: |I_exact - I_expansion| vs the small parameter")
for label, sel, field, fn in (("eps", Param.X, "epsilon", pt1_qfi_x),
                              ("delta", Param.OMEGA1, "delta", pt1_qfi_omega1)):
    grid = np.logspace(-3, -1, 7)
    residuals = []
    for v in grid:
        s = ModelSpec(ModelKind.ZZXX, **{field: float(v)})
        exact = global_qfi_fd(s, 4, DEFAULT_ANGLES, sel).value
        residuals.append(abs(exact - fn(s, 4, DEFAULT_ANGLES).value))
    slope = np.polyfit(np.log(grid), np.log(residuals), 1)[0]
    print(f"  {label:5s} direction: log-log slope {slope:.2f} (cubic residual)")
