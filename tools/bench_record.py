"""Record and compare checkouts' benchmark numbers in BENCH_<label>.json.

    python3 tools/bench_record.py LABEL CHECKOUT [CHECKOUT ...]

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds X --trace 0`
inside every CHECKOUT, with X the first checkout's BENCHMARK.json
run_seconds, for every workload that file declares, for ROUNDS (10)
rounds.  Each round runs every checkout on every workload, one after the
other; the checkout that goes first rotates from round to round, so with
two checkouts each side goes first in every other round.  Runs of
different checkouts in one round form a pair: on a shared host, where two
recordings made one after the other drift by up to 50 %, a pair sees the
same load.  Each run's `.perfbench_out/report-*.json` is read as soon as
the run ends (the next run of the workload overwrites it).  Writes
BENCH_<label>.json at the root of the repository holding this script,
with:

- "checkouts": per checkout, in the order given, its directory's name,
  commit and the files that differ from it (untracked files aside), and
  for each workload the median and quartiles over the runs of the four
  end-to-end metrics, each run's value (in round order) and every run's
  `correct`;
- "pairs": for every checkout after the first, per workload and metric,
  the rounds in which it did better than the first checkout (lower, or
  higher for a metric BENCHMARK.json marks so), the relative change of the
  median, and the first checkout's interquartile range over its median;
- the machine record of the first run, the run order of every round, and
  the load averages before and after the whole recording and every run;
- "stage_seconds": null, until the package records per-stage times.

Per-layer metrics (--trace 1) are left out.  Uses the standard library
only.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
ROUNDS = 10  # the fewest pairs that can back a claim
SEED = 1


def _git(checkout: Path, *args: str) -> str | None:
    try:
        out = subprocess.run(["git", "-C", str(checkout), *args], capture_output=True,
                             text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None
    return out.stdout.strip()


def _summary(values: list) -> dict:
    """Median and quartiles (the inclusive method, so one run gives its own
    value three times) of the runs' values."""
    q1, median, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                      if len(values) > 1 else values * 3)
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def run_once(checkout: Path, workload: str, seconds: float) -> dict:
    """One perfbench invocation in the checkout; its report file's contents."""
    command = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(SEED),
               "--seconds", str(seconds), "--trace", "0"]
    subprocess.run(command, cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    report = checkout / ".perfbench_out" / f"report-{workload}-seed{SEED}-trace0.json"
    return json.loads(report.read_text(encoding="utf-8"))


def _pairs(base: dict, other: dict, better: dict) -> dict:
    """Per workload and metric: the rounds `other` won against `base`, the
    relative change of its median and base's relative interquartile range."""
    out = {}
    for workload, metrics in base.items():
        out[workload] = {}
        for name, b in metrics["metrics"].items():
            o = other[workload]["metrics"][name]
            sign = 1.0 if better[name] == "lower" else -1.0
            wins = sum(sign * (y - x) < 0 for x, y in zip(b["runs"], o["runs"]))
            out[workload][name] = {
                "wins": wins, "pairs": len(b["runs"]),
                "median_change": o["median"] / b["median"] - 1.0 if b["median"] else None,
                "base_iqr_share": (b["q3"] - b["q1"]) / b["median"] if b["median"] else None}
    return out


def record(checkouts: list, label: str) -> dict:
    spec = json.loads((checkouts[0] / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    better = {m["name"]: m["better"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    load_start = list(os.getloadavg())
    reports = [{w: [] for w in workloads} for _ in checkouts]
    orders = []
    for round_ in range(ROUNDS):
        order = [(round_ + i) % len(checkouts) for i in range(len(checkouts))]
        orders.append(order)
        for workload in workloads:
            for i in order:
                reports[i][workload].append(run_once(checkouts[i], workload, seconds))
    blocks = []
    for checkout, runs_by_workload in zip(checkouts, reports):
        modified = _git(checkout, "diff", "--name-only", "HEAD")
        blocks.append({
            "name": checkout.name,
            "commit": _git(checkout, "rev-parse", "HEAD"),
            "modified": None if modified is None else modified.splitlines(),
            "workloads": {
                w: {"correct": [r["result"]["correct"] for r in runs],
                    "metrics": {m: {"unit": runs[0]["report"][m]["unit"],
                                    **_summary([r["report"][m]["value"] for r in runs])}
                                for m in better}}
                for w, runs in runs_by_workload.items()},
            "loadavg_runs": {w: [[r["machine"]["loadavg_before"], r["machine"]["loadavg_after"]]
                                 for r in runs] for w, runs in runs_by_workload.items()},
        })
    first = reports[0][workloads[0]][0]["machine"]
    return {
        "label": label,
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} "
                   "--trace 0",
        "rounds": ROUNDS,
        "round_orders": orders,
        "checkouts": blocks,
        "pairs": {f"{i} vs 0": _pairs(blocks[0]["workloads"], block["workloads"], better)
                  for i, block in enumerate(blocks) if i},
        "machine": {k: v for k, v in first.items() if not k.startswith("loadavg")},
        "loadavg": {"start": load_start, "end": list(os.getloadavg())},
        "stage_seconds": None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    parser.add_argument("checkouts", type=Path, nargs="+",
                        help="full checkouts of the repository; the first is the baseline")
    args = parser.parse_args(argv)
    bench = record([c.resolve() for c in args.checkouts], args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
