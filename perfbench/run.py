"""The spinbus benchmark: one workload per invocation.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Workloads are defined, with the reason each exists, in workloads.py.  The
command prints a report (machine record, every metric with its unit and
sample count, the correctness checks) and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones, measured with tracing off; with --trace 1
they are the per-layer ones from one traced pass (see tracing.py), with
trace.overhead_s = traced pass wall time minus the untraced median.

Each invocation runs every piece of work in a fresh process of its own:
SETUP_SAMPLES set-up-only processes, then one measuring process that sets
up, runs timed passes until --seconds is spent (at least one), checks every
pass's outputs and reports its own peak memory.  Thread variables are
recorded as found and never set.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 4  # set-up-only processes; the measuring one adds a fifth sample
RUN_LIMIT_S = 170.0
SETUP_LIMIT_S = 60.0

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB"}
# Reported with the end-to-end metrics but not gated by the benchmark's
# bounds: each is zero, or does not exist, on some workload.
REPORT_UNITS = {"failed_share": "share", "flagged_share": "share",
                "oracle_dev_over_bound": "ratio"}
THREAD_PREFIXES = ("OPENBLAS_", "OMP_", "MKL_")


def _cpu_s() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def _timed(fn):
    cpu0, wall0 = _cpu_s(), time.perf_counter()
    out = fn()
    return time.perf_counter() - wall0, _cpu_s() - cpu0, out


def _libraries() -> dict:
    import numpy
    import scipy

    blas = {}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (KeyError, TypeError, ValueError):
        pass
    return {"numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}"}


# -- roles run in child processes ---------------------------------------------

def role_setup(args) -> dict:
    start = time.perf_counter()
    import workloads

    workdir = OUT / f"{args.workload}-setup-{os.getpid()}"
    try:
        workloads.WORKLOADS[args.workload](args.seed, workdir)
        return {"setup_s": time.perf_counter() - start}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def role_measure(args) -> dict:
    start = time.perf_counter()
    import workloads

    workdir = OUT / f"{args.workload}-{os.getpid()}"
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        setup_s = time.perf_counter() - start

        gate = workloads.Gate()
        walls, cpus = [], []
        begin = time.perf_counter()
        while True:
            wall, cpu, out = _timed(wl.run_pass)
            walls.append(wall)
            cpus.append(cpu)
            gate.merge(wl.check(out))
            if time.perf_counter() - begin + statistics.median(walls) > args.seconds:
                break

        per_layer = None
        traced_wall = None
        if args.trace:
            import tracing

            tracer = tracing.Tracer()
            tracer.install()
            try:
                traced_wall, _, out = _timed(wl.run_pass)
            finally:
                tracer.uninstall()
            gate.merge(wl.check(out))
            per_layer = tracer.per_layer(traced_wall - statistics.median(walls))
            tracer.write_spans(OUT / f"spans-{args.workload}-seed{args.seed}.json")
        gate.merge(wl.final_checks(out))

        own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return {
            "setup_s": setup_s, "walls": walls, "cpus": cpus,
            "peak_rss_mb": max(own, kids) / 1024.0,
            "traced_wall": traced_wall, "per_layer": per_layer,
            "attempted": gate.attempted, "failed": gate.failed,
            "rows": gate.rows, "flagged": gate.flagged,
            "checks": [[c.name, c.deviation, c.bound, c.passed] for c in gate.checks],
            "workers": wl.workers, "libraries": _libraries(),
        }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# -- the orchestrating process ------------------------------------------------

class Children:
    """Runs one child process at a time in its own process group, so that a
    timeout or a termination signal stops it together with any pool
    workers it started."""

    def __init__(self):
        self.proc = None

    def run(self, argv, timeout: float) -> dict:
        self.proc = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv],
                                     stdout=subprocess.PIPE, start_new_session=True)
        try:
            stdout, _ = self.proc.communicate(timeout=max(timeout, 1.0))
        except subprocess.TimeoutExpired:
            self.kill()
            raise RuntimeError(f"child {argv} did not finish within {timeout:.0f} s")
        finally:
            code, self.proc = self.proc.returncode, None
        if code != 0:
            raise RuntimeError(f"child {argv} exited with {code}")
        return json.loads(stdout.decode().strip().splitlines()[-1])

    def kill(self):
        if self.proc is not None and self.proc.poll() is None:
            try:
                os.killpg(self.proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            self.proc.communicate()


def machine_record(load_before, load_after, libraries, workers) -> dict:
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        **libraries,
        "thread_env": {k: v for k, v in sorted(os.environ.items())
                       if k.startswith(THREAD_PREFIXES)},
        "loadavg_before": list(load_before), "loadavg_after": list(load_after),
        "workers": workers,
    }


def declared_metrics(kind: str) -> list:
    """Names BENCHMARK.json declares under `kind`, in its order."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [m["name"] for m in spec[kind]]


def summarize(args, setups, m) -> tuple:
    """(report, result line) from the children's results.  The report holds
    every metric measured; the result line the ones BENCHMARK.json declares
    for this mode."""
    import tracing
    import workloads

    checks = m["checks"]
    worst = max((dev / bound for _, dev, bound, _ in checks), default=None)
    is_oracle = issubclass(workloads.WORKLOADS[args.workload], workloads.FullspaceOracle)
    measured = {
        "setup_s": (statistics.median(setups), f"median of {len(setups)} set-ups"),
        "wall_s": (statistics.median(m["walls"]), f"median of {len(m['walls'])} passes"),
        "cpu_s": (statistics.median(m["cpus"]),
                  f"median of {len(m['cpus'])} passes, user+system incl. workers"),
        "peak_rss_mb": (m["peak_rss_mb"], "largest single process"),
        "failed_share": (m["failed"] / m["attempted"],
                         f"{m['failed']}/{m['attempted']} points and checks"),
        "flagged_share": ((m["flagged"] / m["rows"], f"{m['flagged']}/{m['rows']} rows")
                          if m["rows"] else None),
        "oracle_dev_over_bound": ((worst, f"worst of {len(checks)} checks")
                                  if is_oracle else None),
    }
    units = {**END_TO_END_UNITS, **REPORT_UNITS}
    report = {name: {"value": v[0], "unit": units[name], "samples": v[1]}
              for name, v in measured.items() if v is not None}
    if args.trace:
        report.update({name: {"value": m["per_layer"][name], "unit": unit,
                              "samples": "one traced pass"}
                       for name, unit in tracing.PER_LAYER_UNITS.items()})
    names = declared_metrics("per_layer" if args.trace else "end_to_end")
    result = {"correct": m["failed"] == 0, "attempted": m["attempted"],
              "failed": m["failed"],
              "metrics": {name: {"value": report[name]["value"],
                                 "unit": report[name]["unit"]} for name in names}}
    return report, result


def orchestrate(args) -> int:
    import workloads

    if not (ROOT / "src" / "spinbus" / "__init__.py").is_file():
        print(f"perfbench: no spinbus source under {ROOT / 'src'}; run from a "
              "full checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    load_before = os.getloadavg()
    begin = time.monotonic()
    children = Children()
    signal.signal(signal.SIGTERM, lambda *_: (children.kill(), sys.exit(143)))
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        setups = [children.run(["--role", "setup", *common], SETUP_LIMIT_S)["setup_s"]
                  for _ in range(SETUP_SAMPLES)]
        m = children.run(["--role", "measure", *common],
                         RUN_LIMIT_S - (time.monotonic() - begin))
    except RuntimeError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 1
    setups.append(m["setup_s"])
    report, result = summarize(args, setups, m)
    machine = machine_record(load_before, os.getloadavg(), m["libraries"], m["workers"])

    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print(f"why: {workloads.WHY[args.workload]}")
    print(f"predicts: {workloads.PREDICTIONS[args.workload]}")
    print("machine: " + json.dumps(machine, sort_keys=True))
    if args.trace:
        print(f"traced pass {m['traced_wall']:.3f} s; eigensolve_gflop and *_mb are "
              "computed from matrix sizes, not measured")
        if m["workers"] > 1:
            print("spans cover the parent process only; pool workers are not traced")
    for name, r in report.items():
        print(f"  {name:<34} {r['value']:<14.6g} {r['unit']:<6} ({r['samples']})")
    worst_by_check = {}
    for name, dev, bound, passed in m["checks"]:
        seen = worst_by_check.get(name, (dev, bound, passed))
        worst_by_check[name] = (max(dev, seen[0]), bound, passed and seen[2])
    for name, (dev, bound, passed) in worst_by_check.items():
        print(f"  check {'PASS' if passed else 'FAIL'} {name}: worst "
              f"{dev:.3g} vs bound {bound:.3g}")
    print(f"verdict: {'correct' if result['correct'] else 'INCORRECT'} "
          f"({result['failed']} of {result['attempted']} points and checks failed)")
    with open(OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w", encoding="utf-8") as fh:
        json.dump({"args": vars(args), "machine": machine, "report": report,
                   "result": result, "checks": m["checks"], "setups": setups,
                   "walls": m["walls"], "cpus": m["cpus"]}, fh, indent=1)
    print(json.dumps(result))
    return 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED,
                        help="seeds the random inputs of fullspace_oracle and "
                             "oracle; the other workloads are deterministic")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="time budget of the timed passes (at least one runs)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--role", choices=("setup", "measure"), default=None,
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.role is None:
        return orchestrate(args)
    result = role_setup(args) if args.role == "setup" else role_measure(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
