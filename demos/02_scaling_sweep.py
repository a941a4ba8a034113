"""Heisenberg versus standard quantum limit in the energy-exchange model.

Sweeps the global QFI for the coupling x and the probe splitting omega1
over N for weak, medium and strong interactions, then fits log-log slopes
over the upper half of the grid.  Slope 2 is Heisenberg scaling (coherent
N^2 gain), slope 1 is the standard quantum limit of classical averaging.

Equivalent CLI runs, with CSV output: `spinbus fig 2` and `spinbus fig 3`.
"""

from spinbus import ModelKind, Param
from spinbus.sweep import Regime, SweepConfig, run_sweep

n_list = (1, 2, 4, 8, 16, 32, 64, 128, 256)

print("Global QFI for the coupling x (ZZXX model):")
config = SweepConfig(
    kind=ModelKind.ZZXX, param=Param.X,
    regimes=(Regime("weak", delta=1.0, epsilon=0.001),
             Regime("medium", delta=1.0, epsilon=1.0),
             Regime("strong", delta=1.0, epsilon=100.0)),
    n_list=n_list, quantities=("global_qfi",))
for fit in run_sweep(config).fits:
    print(f"  {fit.regime:7s} eps-regime: slope {fit.exponent:5.2f} "
          f"+- {fit.stderr:.3f}  (N in [{fit.n_min}, {fit.n_max}])")
print("  -> the N^2 component is present at every coupling; strong coupling"
      "\n     shows it earliest.\n")

print("Global QFI for the probe splitting omega1:")
config = SweepConfig(
    kind=ModelKind.ZZXX, param=Param.OMEGA1,
    regimes=(Regime("weak", delta=100.0, epsilon=1.0),
             Regime("medium", delta=1.0, epsilon=1.0),
             Regime("strong", delta=0.001, epsilon=1.0)),
    n_list=n_list, quantities=("global_qfi",))
for fit in run_sweep(config).fits:
    print(f"  {fit.regime:7s} delta-regime: slope {fit.exponent:5.2f} "
          f"+- {fit.stderr:.3f}")
print("  -> strong interaction (small free part) reaches Heisenberg scaling;"
      "\n     weak interaction stays at the standard quantum limit.")
