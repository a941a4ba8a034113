"""Exactly solvable dephasing model: closed forms against the numeric pipeline.

N probes couple to a single bus qubit through Z.Z interactions, which
dephase the bus without exchanging energy.  Every quantity of interest has
a closed form, so this model is the package's ground truth.  The script
evolves states numerically, differentiates them exactly through the
eigendecomposition, and prints both routes side by side.
"""

import numpy as np

from spinbus import (
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    ModelKind,
    ModelSpec,
    Param,
    StateAngles,
    global_qfi_closed,
    global_qfi_fd,
    local_qfi_fd,
    local_qfi_x_closed,
    qcr_bound,
)

spec = ModelSpec(ModelKind.ZZZZ)  # delta = eps = omega0 = omega1 = x = t = 1

print("Global QFI for the coupling x, most favorable product state")
print("(probes along +z, bus on the equator): I_x = N^2 eps^2 t^2\n")
print(f"{'N':>4s} {'closed':>12s} {'numeric':>14s} {'rel.dev':>10s}")
for n in (1, 4, 16, 64):
    closed = global_qfi_closed(spec, n, FAVORABLE_ANGLES, Param.X)
    numeric = global_qfi_fd(spec, n, FAVORABLE_ANGLES, Param.X).value
    print(f"{n:4d} {closed:12.4f} {numeric:14.6f} "
          f"{abs(numeric - closed) / closed:10.1e}")

print("\nSame coupling, worst product state (everything on the +x equator):")
print("the global QFI drops to SQL, I_x = N eps^2 t^2, and the bus alone")
print("loses the signal exponentially.\n")
print(f"{'N':>4s} {'global':>10s} {'bus-only (closed)':>18s} {'bus-only (num)':>14s}")
for n in (1, 4, 16, 64):
    glob = global_qfi_closed(spec, n, UNFAVORABLE_ANGLES, Param.X)
    loc_closed = local_qfi_x_closed(spec, n, UNFAVORABLE_ANGLES)
    loc_fd = local_qfi_fd(spec, n, UNFAVORABLE_ANGLES, Param.X).value
    print(f"{n:4d} {glob:10.2f} {loc_closed:18.3e} {loc_fd:14.3e}")

print("\nBest-case variance bound from M = 100 repetitions at N = 16:",
      f"{qcr_bound(global_qfi_closed(spec, 16, FAVORABLE_ANGLES, Param.X), 100):.3e}")

print("\nParameters of the free Hamiltonian scale differently:")
tilted = StateAngles(alpha=np.pi / 3, phi=0.0, beta=np.pi / 4, varphi=0.0)
for sel, label in ((Param.OMEGA1, "probe splitting omega1 (SQL, prop. N)"),
                   (Param.OMEGA0, "bus splitting omega0 (independent of N)")):
    values = [global_qfi_closed(spec, n, tilted, sel) for n in (1, 10, 100)]
    print(f"  {label}: N=1,10,100 -> {values[0]:.4f}, {values[1]:.4f}, {values[2]:.4f}")
