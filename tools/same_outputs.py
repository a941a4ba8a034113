"""Check that two checkouts give the same outputs, byte for byte.

    python3 tools/same_outputs.py PARENT [CHANGE]

CHANGE defaults to the current directory.  In each checkout, in a fresh
temporary directory and with that checkout's `src` as the import path, it
runs `spinbus fig 2` .. `fig 6`, the `large_n` sweep (its config is
`LARGE_N_CONFIG` in that checkout's `perfbench/workloads.py`), `validate`,
`validate --suite d --seed 3`, four `spinbus exact` queries and every script
in `demos/`.  It compares every file the runs write and every run's stdout,
stderr and exit code.  The checkout's and the temporary directory's own
paths differ by construction, so both are replaced by placeholders first.
Prints each difference and exits 1 if there is one, else exits 0.  Uses the
standard library only.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
from pathlib import Path

CLI_RUNS = [*(["fig", str(n), "--out", f"fig{n}.csv"] for n in range(2, 7)),
            ["sweep", "large_n.cfg", "--out", "large_n.csv"],
            ["validate"],
            ["validate", "--suite", "d", "--seed", "3"],
            ["exact", "zzzz", "x"],
            ["exact", "zzzz", "x", "--local"],
            ["exact", "zzzz", "omega1", "--local"],
            ["exact", "zzzz", "omega1", "--thermal", "0.5"]]


def large_n_config(checkout: Path) -> str:
    """The `LARGE_N_CONFIG` string literal of the checkout's perfbench workloads."""
    tree = ast.parse((checkout / "perfbench" / "workloads.py").read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(target, "id", None) == "LARGE_N_CONFIG"
                                                for target in node.targets):
            return ast.literal_eval(node.value)
    raise SystemExit(f"{checkout}: perfbench/workloads.py defines no LARGE_N_CONFIG")


def outputs(checkout: Path) -> dict:
    """Name -> bytes of every output file and every run's stdout, stderr and
    exit code, with the checkout's and the output directory's paths replaced."""
    checkout = checkout.resolve()
    env = dict(os.environ, PYTHONPATH=str(checkout / "src"))
    runs = {"spinbus " + " ".join(args): [sys.executable, "-m", "spinbus.cli", *args]
            for args in CLI_RUNS}
    runs.update({f"demos/{demo.name}": [sys.executable, str(demo)]
                 for demo in sorted((checkout / "demos").glob("*.py"))})
    found = {}
    with tempfile.TemporaryDirectory(prefix="same_outputs-") as tmp:
        out = Path(tmp).resolve()
        (out / "large_n.cfg").write_text(large_n_config(checkout), encoding="utf-8")
        for name, command in runs.items():
            done = subprocess.run(command, cwd=out, env=env, capture_output=True, check=False)
            found[f"{name} (stdout)"] = done.stdout
            found[f"{name} (stderr)"] = done.stderr
            found[f"{name} (exit code)"] = str(done.returncode).encode()
        for path in sorted(out.iterdir()):
            found[f"file {path.name}"] = path.read_bytes()
    for place, placeholder in ((str(out), b"<out>"), (str(checkout), b"<checkout>")):
        found = {name: data.replace(place.encode(), placeholder) for name, data in found.items()}
    return found


def first_difference(a: bytes | None, b: bytes | None) -> str:
    if a is None or b is None:
        return "missing in " + ("PARENT" if a is None else "CHANGE")
    for number, (line_a, line_b) in enumerate(zip(a.splitlines(), b.splitlines()), 1):
        if line_a != line_b:
            return f"line {number}: {line_a!r} != {line_b!r}"
    return f"{len(a)} bytes != {len(b)} bytes"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path, nargs="?", default=Path("."))
    args = parser.parse_args(argv)
    parent, change = outputs(args.parent), outputs(args.change)
    differing = [name for name in sorted(parent.keys() | change.keys())
                 if parent.get(name) != change.get(name)]
    for name in differing:
        print(f"differs: {name}: {first_difference(parent.get(name), change.get(name))}")
    print(f"{len(parent.keys() | change.keys()) - len(differing)} outputs identical, "
          f"{len(differing)} differ")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
