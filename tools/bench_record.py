"""Record a checkout's benchmark numbers in BENCH_<label>.json.

    python3 tools/bench_record.py CHECKOUT LABEL

Runs `python3 perfbench/run.py --workload W --seed 1 --seconds X --trace 0`
inside CHECKOUT, with X its BENCHMARK.json's run_seconds, for every workload
that file declares, round-robin for ROUNDS (5) rounds, and reads each run's
`.perfbench_out/report-*.json` as soon as the run ends (the next run of the
workload overwrites it).  Writes BENCH_<label>.json at the root of the
repository holding this script, with:

- the checkout's commit and the files that differ from it (untracked
  files aside);
- for each workload, the median and quartiles over the runs of the four
  end-to-end metrics, each run's value and every run's `correct`;
- the machine record of the first run, and the load averages before and
  after the whole recording and every run;
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
ROUNDS = 5
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


def record(checkout: Path, label: str) -> dict:
    spec = json.loads((checkout / "BENCHMARK.json").read_text(encoding="utf-8"))
    workloads = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"]]
    seconds = spec["run_seconds"]
    load_start = list(os.getloadavg())
    reports = {w: [] for w in workloads}
    for _ in range(ROUNDS):
        for workload in workloads:
            reports[workload].append(run_once(checkout, workload, seconds))
    modified = _git(checkout, "diff", "--name-only", "HEAD")
    first = reports[workloads[0]][0]["machine"]
    return {
        "label": label,
        "commit": _git(checkout, "rev-parse", "HEAD"),
        "modified": None if modified is None else modified.splitlines(),
        "command": f"python3 perfbench/run.py --workload W --seed {SEED} --seconds {seconds:g} "
                   "--trace 0",
        "rounds": ROUNDS,
        "workloads": {
            w: {"correct": [r["result"]["correct"] for r in runs],
                "metrics": {m: {"unit": runs[0]["report"][m]["unit"],
                                **_summary([r["report"][m]["value"] for r in runs])}
                            for m in metrics}}
            for w, runs in reports.items()},
        "machine": {k: v for k, v in first.items() if not k.startswith("loadavg")},
        "loadavg": {"start": load_start, "end": list(os.getloadavg()),
                    "runs": {w: [[r["machine"]["loadavg_before"], r["machine"]["loadavg_after"]]
                                 for r in runs] for w, runs in reports.items()}},
        "stage_seconds": None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkout", type=Path, help="a full checkout of the repository")
    parser.add_argument("label", help="names the output, BENCH_<label>.json")
    args = parser.parse_args(argv)
    bench = record(args.checkout.resolve(), args.label)
    out = ROOT / f"BENCH_{args.label}.json"
    out.write_text(json.dumps(bench, indent=1) + "\n", encoding="utf-8")
    print(out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
