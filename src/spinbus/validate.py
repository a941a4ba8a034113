"""Validation suites: the package against perturbation theory, finite
differences, the dense full-space oracle and the dephasing model's closed
forms.  The acceptance tests run these same checks.  Tools parse the
`PASS|FAIL [suite] name: details` lines of `spinbus validate`: check names,
their order and the number after `slope=`, `discrepancy=` or `deviation=`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fisher, fullspace, paulis, perturb, zzzz_exact
from .dynamics import ModelKind, ModelSpec, Param, assemble, propagate
from .fisher import global_qfi_fd, reduce_to_bus
from .states import DEFAULT_ANGLES, StateAngles
from .sweep import fit_loglog


@dataclass(frozen=True)
class CheckResult:
    suite: str
    name: str
    passed: bool
    details: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)


def random_angles(rng) -> StateAngles:
    """Probe and bus angles drawn from `rng`, the polar ones kept 0.05 away
    from the poles."""
    return StateAngles(alpha=rng.uniform(0.05, math.pi / 2 - 0.05),
                       phi=rng.uniform(0.0, 2 * math.pi),
                       beta=rng.uniform(0.05, math.pi / 2 - 0.05),
                       varphi=rng.uniform(0.0, 2 * math.pi))


def _suite_cubic_residual(_seed: int) -> list:
    """Residual |I_exact - I_pt| must scale as the cube of the small parameter."""
    checks = []
    grid = np.logspace(-3, -1, 7)
    for label, sel, fld in (("eps", Param.X, "epsilon"), ("delta", Param.OMEGA1, "delta")):
        residuals = []
        for v in grid:
            spec = ModelSpec(ModelKind.ZZXX, **{fld: float(v)})
            exact = global_qfi_fd(spec, 4, DEFAULT_ANGLES, sel).value
            residuals.append(abs(exact - perturb.pt1_qfi(spec, 4, DEFAULT_ANGLES, sel).value))
        slope, _ = fit_loglog(grid, residuals)
        checks.append(CheckResult("a", f"cubic-residual-{label}",
                                  abs(slope - 3.0) <= 0.2, f"slope={slope:.3f}"))
    return checks


def _discrepancy(a: float, b: float) -> float:
    ref = max(abs(a), abs(b))
    return 0.0 if ref == 0.0 else abs(a - b) / ref


def _fd_global_qfi(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> tuple:
    """(exact `QfiResult`, central-difference QFI, step h) at one point.

    The states at theta +- h are each their own eigensolve, and the QFI of
    their difference is the oracle's `fullspace.pure_qfi`, so the check is
    independent of the exact derivative, its certificate and its QFI.  h = 1e-6
    max(1, |theta|) / sqrt(max(1, |t| ||G||)), ||G|| the Gershgorin bound of
    dH/d theta: the truncation error grows like (h t ||G||)^2.
    """
    point = fisher.evolve_point(spec, n, angles, sel)
    theta = getattr(spec, sel.value)
    h = (1e-6 * max(1.0, abs(theta))
         / math.sqrt(max(1.0, abs(spec.t) * assemble(spec, n, wrt=sel).norm_bound)))
    plus, minus = (propagate(replace(spec, **{sel.value: theta + s}), n, angles).amplitudes
                   for s in (h, -h))
    check = fullspace.pure_qfi(point.psi.amplitudes, (plus - minus) / (2.0 * h))
    return fisher.read_global_qfi(point), check, h


def _suite_fd_two_step(_seed: int) -> list:
    """Exact against finite-difference derivative across the sweep regimes,
    the one finite-difference check of the sector outside the tests.

    Configurations whose QFI has effectively vanished (below 1e-6) cannot be
    finite-differenced to three digits in double precision; those must carry
    the certificate's ill-conditioned flag instead of being silently
    reported.  All resolvable configurations must agree to 1e-3.
    """
    worst = 0.0
    flagged_vanishing = 0
    silent_violations = []
    configs = [(sel, delta, eps, n) for sel, regimes in (
                   (Param.X, ((1.0, 0.001), (1.0, 1.0), (1.0, 100.0))),
                   (Param.OMEGA1, ((100.0, 1.0), (1.0, 1.0), (0.001, 1.0))),
                   (Param.OMEGA0, ((100.0, 1.0), (1.0, 1.0), (0.001, 1.0))))
               for delta, eps in regimes for n in (4, 32, 128)]
    for sel, delta, eps, n in configs:
        spec = ModelSpec(ModelKind.ZZXX, delta=delta, epsilon=eps)
        res, check, _ = _fd_global_qfi(spec, n, DEFAULT_ANGLES, sel)
        disc = _discrepancy(res.value, check)
        if disc < 1e-3:
            worst = max(worst, disc)
        elif res.flag and max(res.value, check) < 1e-6:
            flagged_vanishing += 1
        else:
            silent_violations.append((sel.value, delta, eps, n, disc))
    return [CheckResult("b", "fd-two-step-agreement", not silent_violations,
                        f"worst resolvable discrepancy={worst:.2e} over "
                        f"{len(configs)} configs; {flagged_vanishing} "
                        f"vanishing-QFI configs flagged; "
                        f"unflagged violations: {silent_violations or 'none'}")]


# Suite c's oracle checks, each with its absolute floor and its bound on the
# relative deviation.  The oracle's d psi is exact to rounding, so a vanishing
# d<A>/d theta comes out near 1e-15 and a vanishing bus QFI near 1e-28; with
# these floors they read 2.2e-12 and 2.5e-16.  Each bound is the smallest
# power of ten at least 10x the worst deviation measured (2.3e-14, 3.6e-14,
# 2.2e-12 on numpy 2.4's OpenBLAS).
_ORACLE_CHECKS = (("full-hilbert-qfi", 1e-30, 1e-12),
                  ("full-hilbert-bus-qfi", 1e-12, 1e-12),
                  ("full-hilbert-first-moment", 1e-3, 1e-10))


def _suite_full_hilbert(_seed: int) -> list:
    """Symmetric-sector pipeline against full-space computations.

    States and bus densities: every model at N = 3, 6, 8 in the default
    state, and at N = 2, 5, 8 in a random state at a random time (a fixed
    seed, 42).  At N = 6, for every model and parameter, each quantity a
    sweep reads from a solved point against the oracle's exact derivative.
    """
    rng = np.random.default_rng(42)  # drawn in the order written: angles, t
    inputs = ([(n, DEFAULT_ANGLES, ModelSpec(kind)) for kind in ModelKind for n in (3, 6, 8)]
              + [(n, random_angles(rng), ModelSpec(kind, t=rng.uniform(0.5, 1.5)))
                 for kind in ModelKind for n in (2, 5, 8)])
    state_dev = 0.0
    rho_dev = 0.0
    for n, a, spec in inputs:
        psi = propagate(spec, n, a)
        psi_full, _ = fullspace.evolved_with_derivative_full(
            str(spec.kind), n, vars(spec), None, a.alpha, a.phi, a.beta, a.varphi)
        state_dev = max(state_dev, float(np.max(np.abs(
            fullspace.project_symmetric(psi_full, n) - psi.amplitudes))))
        rho_dev = max(rho_dev, float(np.max(np.abs(
            fullspace.bus_density(psi_full) - reduce_to_bus(psi).rho))))

    a = DEFAULT_ANGLES
    observable = paulis.NAMED_OBSERVABLES["xz"]
    oracle_dev = [0.0] * len(_ORACLE_CHECKS)
    for kind in ModelKind:
        spec = ModelSpec(kind)
        for sel in Param:
            point = fisher.evolve_point(spec, 6, a, sel)
            full, dfull = fullspace.evolved_with_derivative_full(
                str(kind), 6, vars(spec), sel.value, a.alpha, a.phi, a.beta, a.varphi)
            drho = fullspace.bus_density_derivative(full, dfull)
            pairs = ((fisher.read_global_qfi(point).value,
                      fullspace.pure_qfi(full, dfull)),
                     (fisher.read_local_qfi(point).value,
                      fullspace.mixed_qfi(fullspace.bus_density(full), drho)),
                     (fisher.read_first_moment(point, observable).mean_derivative,
                      float(np.trace(drho @ observable).real)))
            for i, ((mine, ref), (_, floor, _)) in enumerate(zip(pairs, _ORACLE_CHECKS)):
                oracle_dev[i] = max(oracle_dev[i], abs(mine - ref) / max(abs(ref), floor))

    checks = [CheckResult("c", "full-hilbert-states", state_dev < 1e-8,
                          f"max amplitude deviation={state_dev:.2e}"),
              CheckResult("c", "full-hilbert-bus-density", rho_dev < 1e-10,
                          f"max element deviation={rho_dev:.2e}")]
    for (name, floor, bound), dev in zip(_ORACLE_CHECKS, oracle_dev):
        below = f" (absolute below {floor:g})" if floor > 1e-30 else ""
        checks.append(CheckResult("c", name, dev < bound,
                                  f"max relative deviation={dev:.2e}{below}"))
    return checks


def closed_form_checks(configs) -> list:
    """ZZZZ numerical pipeline against the closed forms at each (n, angles,
    spec) of `configs`: the global QFI of every parameter (relative, 1e-6)
    and the reduced bus density (elementwise, 1e-10)."""
    worst_global = 0.0
    worst_rho = 0.0
    for n, angles, spec in configs:
        for sel in Param:
            closed = zzzz_exact.global_qfi_closed(spec, n, angles, sel)
            numeric = global_qfi_fd(spec, n, angles, sel).value
            worst_global = max(worst_global,
                               abs(numeric - closed) / max(abs(closed), 1e-12))
        rho_c = zzzz_exact.reduced_rho_closed(spec, n, angles).rho
        rho_n = reduce_to_bus(propagate(spec, n, angles)).rho
        worst_rho = max(worst_rho, float(np.max(np.abs(rho_c - rho_n))))
    return [
        CheckResult("d", "zzzz-global-closed-forms", worst_global < 1e-6,
                    f"worst relative deviation={worst_global:.2e} ({len(configs)} configs)"),
        CheckResult("d", "zzzz-reduced-density", worst_rho < 1e-10,
                    f"worst element deviation={worst_rho:.2e}"),
    ]


def _suite_closed_forms(seed: int) -> list:
    """`closed_form_checks` at 20 random (N, angles, spec) drawn from `seed`."""
    rng = np.random.default_rng(seed)  # drawn in the order written: N, angles, spec
    return closed_form_checks([
        (int(rng.integers(1, 65)), random_angles(rng),
         ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.5, 2.0), epsilon=rng.uniform(0.5, 2.0),
                   x=rng.uniform(0.5, 2.0), t=rng.uniform(0.5, 2.0)))
        for _ in range(20)])


# suite letter -> its checks, in the order `validate("all")` runs them; each
# suite takes validate's seed, and only suite d draws from it
SUITES = {"a": _suite_cubic_residual, "b": _suite_fd_two_step,
          "c": _suite_full_hilbert, "d": _suite_closed_forms}


def validate(suites: str = "all", seed: int = 20260808) -> ValidationReport:
    """Run one validation suite, or all of them:

    a: cubic scaling of the perturbation-theory residual,
    b: exact vs finite-difference derivative agreement scan,
    c: full-Hilbert oracle comparison (N <= 8),
    d: ZZZZ closed forms vs the numerical pipeline.
    """
    if suites != "all" and suites not in SUITES:
        raise ValueError(f"unknown suite {suites!r}; use {', '.join(SUITES)} or all")
    names = SUITES if suites == "all" else (suites,)
    return ValidationReport(checks=tuple(c for name in names for c in SUITES[name](seed)))
