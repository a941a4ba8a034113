"""Span tracing of spinbus from outside the package.

`Tracer.install()` replaces every public module-level function of each layer
(each module of ``src/spinbus`` except ``paulis``, which holds only
constants) with a wrapper, wherever a spinbus module binds that function.
So ``spinbus.fisher.propagate`` is wrapped as well as
``spinbus.dynamics.propagate`` and nested calls form parent/child spans.
Spans stay in memory; `per_layer()` folds them into the per-layer metrics
and `write_spans()` dumps them at the end of a run.

Only the calling process is traced: pool workers run the wrapped functions
too, but their spans die with them.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time

LAYERS = ("cli", "sweep", "fisher", "perturb", "zzzz_exact", "dynamics",
          "states", "fullspace")

# Quantity functions of the fisher layer: each propagates the state at the
# parameter and at the finite-difference offsets.
FISHER_QUANTITIES = ("global_qfi_fd", "local_qfi_fd", "first_moment_uncertainty")

# Flops of a dense real symmetric eigendecomposition with eigenvectors
# (tridiagonal reduction, divide and conquer, back-transformation), the
# usual ~9 n^3 estimate.
EIGH_FLOPS_PER_DIM_CUBED = 9.0

MIB = 2.0 ** 20

# Per-layer metric names with their units, in report order.  BENCHMARK.json
# declares all but zzzz_exact.self_s, fullspace.self_s and sweep.pool_wait_s:
# each of those is exactly zero on a declared workload (the layer is never
# called there, and no declared workload runs the pool), so it would be a
# constant rather than a measurement there.
PER_LAYER_UNITS = {}
for _layer in LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "dynamics.eigensolves": "count",
    "dynamics.eigensolve_dim_max": "count",
    "dynamics.eigensolve_gflop": "GFLOP",
    "dynamics.matrix_mb": "MiB",
    "fisher.propagations_per_quantity": "count",
    "fisher.propagations_per_point": "count",
    "fullspace.dim_max": "count",
    "fullspace.matrix_mb": "MiB",
    "sweep.points": "count",
    "sweep.pool_wait_s": "s",
    "trace.overhead_s": "s",
})


class Tracer:
    """Records one span per call of a wrapped function: layer, function
    name, start, end and the index of the enclosing span (-1 at the top)."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self._originals = {}  # (module name, attribute) -> original function
        self._fisher_root = None  # index of the outermost open fisher quantity span
        self._propagations = {}  # fisher root span index -> propagate calls under it
        self._root_keys = {}  # fisher root span index -> (spec, n, angles)
        self._pool_spans = []
        self.eigensolves = 0
        self.eigensolve_dim_max = 0
        self.eigensolve_flops = 0.0
        self.matrix_bytes_max = 0
        self.fullspace_dim_max = 0
        self.fullspace_bytes_max = 0
        self.points = 0

    # -- installation -----------------------------------------------------

    def install(self):
        """Wrap the public functions of every layer in every spinbus module."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"spinbus.{layer}")
            for name, fn in vars(module).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == module.__name__):
                    wrappers[id(fn)] = (fn, self._wrap(fn, layer, name))
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "spinbus" and not mod_name.startswith("spinbus."):
                continue
            for attr, value in list(vars(module).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._originals[(mod_name, attr)] = value
                    setattr(module, attr, hit[1])

    def uninstall(self):
        for (mod_name, attr), fn in self._originals.items():
            setattr(sys.modules[mod_name], attr, fn)
        self._originals.clear()

    def _wrap(self, fn, layer, name):
        spans, stack = self.spans, self._stack
        observe = self._observe
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            record = [layer, name, 0.0, 0.0, stack[-1] if stack else -1]
            spans.append(record)
            stack.append(index)
            opened = self._open(layer, name, index, args)
            record[2] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
                if opened:
                    self._fisher_root = None
            observe(layer, name, index, args, result)
            return result

        return traced

    # -- counters ---------------------------------------------------------

    def _open(self, layer, name, index, args) -> bool:
        if (layer == "fisher" and name in FISHER_QUANTITIES
                and self._fisher_root is None):
            self._fisher_root = index
            self._propagations[index] = 0
            self._root_keys[index] = tuple(args[:3])
            return True
        if layer == "dynamics" and name == "propagate" and self._fisher_root is not None:
            self._propagations[self._fisher_root] += 1
        return False

    def _observe(self, layer, name, index, args, result):
        if layer == "dynamics":
            if name == "eigensystem":
                dim = int(args[0].dim)
                self.eigensolves += 1
                self.eigensolve_dim_max = max(self.eigensolve_dim_max, dim)
                self.eigensolve_flops += EIGH_FLOPS_PER_DIM_CUBED * dim ** 3
            elif name == "assemble":
                self.matrix_bytes_max = max(self.matrix_bytes_max, result.matrix.nbytes)
        elif layer == "fullspace" and name == "hamiltonian_full":
            self.fullspace_dim_max = max(self.fullspace_dim_max, result.shape[0])
            self.fullspace_bytes_max = max(self.fullspace_bytes_max, result.nbytes)
        elif layer == "sweep" and name == "run_sweep":
            self.points += len(result.rows)
            if args[0].workers > 1:
                self._pool_spans.append(index)

    # -- results ----------------------------------------------------------

    def self_times(self) -> list:
        """Each span's duration minus the time its child spans cover.

        Children of a span run one after another in the same thread, so the
        time they cover is the sum of their durations."""
        child = [0.0] * len(self.spans)
        for _, _, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        return [end - start - child[i]
                for i, (_, _, start, end, _) in enumerate(self.spans)]

    def per_layer(self, overhead_s: float) -> dict:
        """Every per-layer metric as {name: value}."""
        own = self.self_times()
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = sum(1 for s in self.spans if s[0] == layer)
            out[f"{layer}.self_s"] = sum(t for s, t in zip(self.spans, own)
                                         if s[0] == layer)
        roots = [i for i, count in self._propagations.items() if count]
        total = sum(self._propagations[i] for i in roots)
        points = len({self._root_keys[i] for i in roots})
        out.update({
            "dynamics.eigensolves": self.eigensolves,
            "dynamics.eigensolve_dim_max": self.eigensolve_dim_max,
            "dynamics.eigensolve_gflop": self.eigensolve_flops / 1e9,
            "dynamics.matrix_mb": self.matrix_bytes_max / MIB,
            "fisher.propagations_per_quantity": total / len(roots) if roots else 0.0,
            "fisher.propagations_per_point": total / points if points else 0.0,
            "fullspace.dim_max": self.fullspace_dim_max,
            "fullspace.matrix_mb": self.fullspace_bytes_max / MIB,
            "sweep.points": self.points,
            "sweep.pool_wait_s": sum(own[i] for i in self._pool_spans),
            "trace.overhead_s": overhead_s,
        })
        return out

    def write_spans(self, path: str):
        """Write the spans as JSON: [layer, function, start_s, end_s, parent]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["layer", "function", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh)
