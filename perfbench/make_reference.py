"""Record the figure values the `figures` gate compares against.

    python3 perfbench/make_reference.py

Runs `spinbus fig 2..6` with one worker and writes every row to
reference_figures.csv with a relative tolerance taken from the row's own
two-step finite-difference discrepancy d (the 1e-8 and 1e-6 steps):
2d for a QFI, 4d for a first-moment value (it goes as the derivative
squared), never below the package's 1e-6 relative accuracy.  Values that
take no finite-difference derivative get the 1e-6 floor.  Rows the program
flags carry no accuracy claim, so their tolerance is infinite and only
their presence and NaN-ness are checked.

Run it only on the commit whose outputs define the baseline.
"""

from __future__ import annotations

import csv
import importlib.resources
import math
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads  # noqa: E402

RTOL_FLOOR = 1e-6


def tolerance(config, regime, row) -> float:
    from spinbus import fisher, paulis
    from spinbus.dynamics import ModelSpec

    if row.flag:
        return math.inf
    spec = ModelSpec(kind=config.kind, delta=regime.delta, epsilon=regime.epsilon,
                     omega0=config.omega0, omega1=config.omega1, x=config.x, t=config.t)
    angles = (config.angles if regime.alpha is None
              else replace(config.angles, alpha=regime.alpha))
    sel = config.param
    if row.quantity == "global_qfi":
        d = 2.0 * fisher.global_qfi_fd(spec, row.n, angles, sel).relative_discrepancy
    elif row.quantity == "local_qfi":
        d = 2.0 * fisher.local_qfi_fd(spec, row.n, angles, sel).relative_discrepancy
    elif row.quantity == "first_moment":
        d = 4.0 * fisher.first_moment_uncertainty(
            spec, row.n, angles, sel, paulis.NAMED_OBSERVABLES[config.observable],
            config.m_measurements).relative_discrepancy
    else:
        d = 0.0
    return max(RTOL_FLOOR, d)


def main() -> int:
    workloads.use_checkout_source()
    from spinbus import sweep

    configs = importlib.resources.files("spinbus").joinpath("configs")
    out_rows = []
    with tempfile.TemporaryDirectory(dir=workloads.ROOT) as tmp:
        for fig in workloads.FIGURES:
            config = sweep.parse_config(
                configs.joinpath(f"fig{fig}.cfg").read_text(encoding="utf-8"))
            regimes = {r.name: r for r in config.regimes}
            path = str(Path(tmp) / f"fig{fig}.csv")
            workloads.run_cli(["fig", fig, "--workers", "1", "--out", path])
            for row in sweep.parse_csv(path):
                out_rows.append((fig, row.n, row.quantity, row.regime,
                                 f"{row.value:.17g}", row.flag,
                                 f"{tolerance(config, regimes[row.regime], row):.3g}"))
    with open(workloads.REFERENCE, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("figure", "N", "quantity", "regime", "value", "flag", "rtol"))
        writer.writerows(out_rows)
    print(f"wrote {len(out_rows)} rows to {workloads.REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
