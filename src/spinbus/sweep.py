"""Regime sweeps over N, scaling-exponent fits, validation suites, CSV output.

A sweep evaluates a set of quantities (global/local QFI, first-moment
uncertainties, perturbative values, closed forms) on a grid of probe numbers
N for one or more named (delta, epsilon) regimes, then fits log-log slopes
over the upper half of the N grid.  Per-point failures become row flags,
never crashes: regimes that legitimately destroy sensitivity (e.g. full
dephasing at eps*t*x = pi/2) are data.

Each (regime, N) point solves the dynamics at most once for all of its
fisher quantities; with workers, each point is one pool task.

Output ordering is deterministic (sorted by quantity, regime, N) regardless
of how many workers computed the points, so identical configs give
byte-identical CSV files.
"""

from __future__ import annotations

import concurrent.futures
import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import fisher, fullspace, paulis, perturb, zzzz_exact
from .dynamics import ModelKind, ModelSpec, propagate
from .fisher import Param, global_qfi_fd, reduce_to_bus
from .states import DEFAULT_ANGLES, StateAngles


class FitDomainError(ValueError):
    """Raised when a log-log fit window has too few or nonpositive values."""


@dataclass(frozen=True)
class Regime:
    """Named (delta, epsilon) pair; alpha optionally overrides the probe angle."""

    name: str
    delta: float
    epsilon: float
    alpha: float | None = None


@dataclass(frozen=True)
class SweepConfig:
    kind: ModelKind
    param: Param
    regimes: tuple
    n_list: tuple
    angles: StateAngles = DEFAULT_ANGLES
    quantities: tuple = ()
    observable: str = "xz"
    omega0: float = 1.0
    omega1: float = 1.0
    x: float = 1.0
    t: float = 1.0
    m_measurements: int = 1
    out: str | None = None
    workers: int = 1

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_list)
        if any(n < 1 for n in ns):
            raise ValueError("N values must be positive integers")
        if any(b <= a for a, b in zip(ns, ns[1:])):
            raise ValueError("N list must be strictly increasing")
        object.__setattr__(self, "n_list", ns)
        for q in self.quantities:
            if q not in KNOWN_QUANTITIES:
                raise ValueError(f"unknown quantity {q!r}; known: {KNOWN_QUANTITIES}")
        if self.observable not in paulis.NAMED_OBSERVABLES:
            raise ValueError(f"unknown observable {self.observable!r}")


@dataclass(frozen=True)
class Row:
    n: int
    quantity: str
    regime: str
    value: float
    flag: str = ""


@dataclass(frozen=True)
class FitRow:
    quantity: str
    regime: str
    n_min: int
    n_max: int
    exponent: float
    stderr: float


@dataclass(frozen=True)
class ScanResult:
    rows: tuple
    fits: tuple


class _Point:
    """One (regime, N) grid point.  The fisher solve runs on the first
    `evolved()` call only; a failed solve re-raises its error for every
    fisher quantity of the point."""

    def __init__(self, config: SweepConfig, regime: Regime, n: int):
        self.config, self.regime, self.n, self.sel = config, regime, n, config.param
        self.spec = ModelSpec(kind=config.kind, delta=regime.delta, epsilon=regime.epsilon,
                              omega0=config.omega0, omega1=config.omega1, x=config.x, t=config.t)
        self.angles = (config.angles if regime.alpha is None
                       else replace(config.angles, alpha=regime.alpha))
        self.observable = paulis.NAMED_OBSERVABLES[config.observable]
        self._solved = None

    def evolved(self):
        if self._solved is None:
            try:
                self._solved = fisher.evolve_point(self.spec, self.n, self.angles, self.sel)
            except Exception as err:
                self._solved = err
        if isinstance(self._solved, Exception):
            raise self._solved
        return self._solved

    def row(self, quantity: str) -> Row:
        try:
            value, flag = _READERS[quantity](self)
        except Exception as err:  # per-point failures are data, not crashes
            value, flag = math.nan, f"error:{type(err).__name__}"
        return Row(self.n, quantity, self.regime.name, value, flag)

    def rows(self) -> list:
        """One row per requested quantity: the task a pool worker runs."""
        return [self.row(quantity) for quantity in self.config.quantities]


def _qfi(result) -> tuple:
    return result.value, "ill_conditioned" if result.ill_conditioned else ""


def _first_moment(p: _Point) -> tuple:
    r = fisher.read_first_moment(p.evolved(), p.observable, p.config.m_measurements)
    return r.inv_squared, "insensitive" if r.insensitive else ""


def _pt1(p: _Point) -> tuple:
    if p.sel is Param.X:
        return perturb.pt1_qfi_x(p.spec, p.n, p.angles).value, ""
    if p.sel is Param.OMEGA1:
        return perturb.pt1_qfi_omega1(p.spec, p.n, p.angles).value, ""
    return math.nan, "unsupported"


def _pt2(p: _Point) -> tuple:
    if p.sel is Param.OMEGA0:
        return math.nan, "unsupported"
    return perturb.pt2_qfi_zeroth(p.spec, p.n, p.angles, p.sel).value, ""


def _appendix_fm(p: _Point) -> tuple:
    r = perturb.appendix_local_uncertainty(p.spec, p.n, p.angles, p.observable, p.sel,
                                           m_measurements=p.config.m_measurements)
    return r.inv_squared, r.flag or ("insensitive" if r.insensitive else "")


# quantity -> reader of a point, returning (value, flag).  Readers look up what
# they call at call time, so wrapping a module function also wraps its use here.
_READERS = {
    "global_qfi": lambda p: _qfi(fisher.read_global_qfi(p.evolved())),
    "local_qfi": lambda p: _qfi(fisher.read_local_qfi(p.evolved())),
    "first_moment": _first_moment,
    "pt1": _pt1,
    "pt2": _pt2,
    "closed_form": lambda p: (zzzz_exact.global_qfi_closed(p.spec, p.n, p.angles, p.sel), ""),
    "hl_condition": lambda p: (perturb.hl_condition(p.spec, p.angles), ""),
    "appendix_fm": _appendix_fm,
    "local_qfi_closed": lambda p: (zzzz_exact.local_qfi_x_closed(p.spec, p.n, p.angles), ""),
}

KNOWN_QUANTITIES = tuple(_READERS)


def run_sweep(config: SweepConfig) -> ScanResult:
    """Evaluate every requested quantity at every (regime, N) grid point and
    fit log-log exponents over the upper half of the N grid."""
    points = [_Point(config, regime, n) for regime in config.regimes for n in config.n_list]
    if config.workers > 1 and len(points) > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=config.workers) as pool:
            rows = [row for batch in pool.map(_Point.rows, points) for row in batch]
    else:
        # quantity by quantity, so the solves run back to back: point by point
        # interleaves them with the quadratures and took ~10% more CPU on `figures`
        rows = [point.row(quantity) for quantity in config.quantities for point in points]
    rows.sort(key=lambda r: (r.quantity, r.regime, r.n))

    fits = []
    window = default_fit_window(config.n_list)
    if window is not None:
        for quantity in config.quantities:
            for regime in config.regimes:
                try:
                    exponent, stderr = fit_scaling(rows, quantity, regime.name, window)
                except FitDomainError:
                    continue
                fits.append(FitRow(quantity, regime.name, window[0], window[1],
                                   exponent, stderr))
    fits.sort(key=lambda f: (f.quantity, f.regime))
    return ScanResult(rows=tuple(rows), fits=tuple(fits))


def default_fit_window(n_list) -> tuple | None:
    """Upper half of the (log-spaced) N grid; asymptotic slopes should not be
    contaminated by small-N points."""
    if len(n_list) < 3:
        return None
    upper = n_list[len(n_list) // 2:]
    if len(upper) < 3:
        upper = n_list[-3:]
    return (upper[0], upper[-1])


def fit_scaling(rows, quantity: str, regime: str, window) -> tuple:
    """Least-squares slope of log(value) vs log(N) with its standard error.

    Rows carrying a flag are excluded; remaining values must be finite and
    positive and at least three, otherwise FitDomainError is raised.
    """
    n_min, n_max = window
    pts = [(r.n, r.value) for r in rows
           if r.quantity == quantity and r.regime == regime
           and n_min <= r.n <= n_max and not r.flag]
    if any(not math.isfinite(v) or v <= 0.0 for _, v in pts):
        raise FitDomainError(
            f"nonpositive or non-finite values in fit window for {quantity}/{regime}")
    if len(pts) < 3:
        raise FitDomainError(
            f"need >= 3 usable points in window for {quantity}/{regime}, got {len(pts)}")
    return _fit_loglog([p[0] for p in pts], [p[1] for p in pts])


def _fit_loglog(xs, ys) -> tuple:
    """Least-squares slope of log(ys) vs log(xs) and its standard error
    (inf with fewer than three points)."""
    log_x, log_y = np.log(xs), np.log(ys)
    design = np.vstack([log_x, np.ones_like(log_x)]).T
    coef, *_ = np.linalg.lstsq(design, log_y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    residuals = log_y - (slope * log_x + intercept)
    dof = len(log_x) - 2
    if dof > 0:
        s_sq = float(residuals @ residuals) / dof
        denom = float(np.sum((log_x - log_x.mean()) ** 2))
        stderr = math.sqrt(s_sq / denom) if denom > 0 else math.inf
    else:
        stderr = math.inf
    return slope, stderr


def emit_csv(result: ScanResult, path: str) -> None:
    """Write rows to `path` and fits to `path`.fits.csv, floats at 17
    significant digits (lossless round-trip for doubles)."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("N,quantity,regime,value,flag\n")
        for r in result.rows:
            fh.write(f"{r.n},{r.quantity},{r.regime},{r.value:.17g},{r.flag}\n")
    with open(f"{path}.fits.csv", "w", encoding="utf-8") as fh:
        fh.write("quantity,regime,n_min,n_max,exponent,stderr\n")
        for f in result.fits:
            fh.write(f"{f.quantity},{f.regime},{f.n_min},{f.n_max},"
                     f"{f.exponent:.17g},{f.stderr:.17g}\n")


def parse_csv(path: str) -> list:
    """Read back an emitted CSV as Row objects (bit-identical values)."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().strip()
        if header != "N,quantity,regime,value,flag":
            raise ValueError(f"unexpected CSV header {header!r}")
        for line in fh:
            n, quantity, regime, value, flag = line.rstrip("\n").split(",")
            rows.append(Row(int(n), quantity, regime, float(value), flag))
    return rows


# --------------------------------------------------------------------------
# config file parsing: plain declarative key = value lines
# --------------------------------------------------------------------------

_PI_PATTERN = re.compile(r"^(-?[\d.]*)\s*\*?\s*pi\s*(?:/\s*([\d.]+))?$")


def parse_number(text: str) -> float:
    """Float literal or simple pi expression: 'pi', '3pi/8', '-pi/4', '0.5'."""
    text = text.strip().lower()
    match = _PI_PATTERN.match(text)
    if match:
        coef = match.group(1)
        value = math.pi * (float(coef) if coef not in ("", "-") else
                           (-1.0 if coef == "-" else 1.0))
        if match.group(2):
            value /= float(match.group(2))
        return value
    return float(text)


def _parse_n_list(text: str):
    parts = text.split()
    if parts and parts[0] == "log":
        lo, hi, count = int(parts[1]), int(parts[2]), int(parts[3])
        grid = np.unique(np.round(np.logspace(math.log10(lo), math.log10(hi),
                                              count)).astype(int))
        return tuple(int(n) for n in grid if n >= 1)
    return tuple(int(p) for p in parts)


def _parse_regime(text: str) -> Regime:
    name, _, body = text.partition(":")
    fields = {}
    for item in body.split(","):
        key, _, val = item.partition("=")
        fields[key.strip()] = parse_number(val)
    return Regime(name=name.strip(), delta=fields.get("delta", 1.0),
                  epsilon=fields.get("epsilon", 1.0),
                  alpha=fields.get("alpha"))


def parse_config(text: str) -> SweepConfig:
    """Parse the plain key = value sweep-config format; '#' starts a comment.

    Recognized keys: model, param, regime (repeatable), alphas
    (``linspace lo hi count``, expands into one regime per probe angle),
    nlist (explicit integers or ``log lo hi count``), alpha/phi/beta/varphi,
    omega0/omega1/x/t, quantities, observable, measurements, out, workers.
    Unknown keys are ignored.
    """
    values: dict = {"regimes": []}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not _:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        if key == "regime":
            values["regimes"].append(_parse_regime(val))
        else:
            values[key] = val

    kind = ModelKind(values.get("model", "zzxx").upper())
    param = Param[values.get("param", "x").upper()]
    angles = StateAngles(
        alpha=parse_number(values.get("alpha", "pi/3")),
        phi=parse_number(values.get("phi", "3pi/8")),
        beta=parse_number(values.get("beta", "pi/6")),
        varphi=parse_number(values.get("varphi", "5pi/8")),
    )
    regimes = list(values["regimes"])
    if "alphas" in values:
        parts = values["alphas"].split()
        if parts[0] != "linspace":
            raise ValueError("alphas supports: linspace <lo> <hi> <count>")
        lo, hi, count = parse_number(parts[1]), parse_number(parts[2]), int(parts[3])
        base = regimes[0] if regimes else Regime("grid", 1.0, 1.0)
        regimes = [replace(base, name=f"alpha={a:.10g}", alpha=float(a))
                   for a in np.linspace(lo, hi, count)]
    if not regimes:
        regimes = [Regime("default", 1.0, 1.0)]

    return SweepConfig(
        kind=kind, param=param, regimes=tuple(regimes),
        n_list=_parse_n_list(values.get("nlist", "log 1 100 10")),
        angles=angles,
        quantities=tuple(values.get("quantities", "global_qfi").split()),
        observable=values.get("observable", "xz"),
        omega0=parse_number(values.get("omega0", "1")),
        omega1=parse_number(values.get("omega1", "1")),
        x=parse_number(values.get("x", "1")),
        t=parse_number(values.get("t", "1")),
        m_measurements=int(values.get("measurements", "1")),
        out=values.get("out"),
        workers=int(values.get("workers", "1")),
    )


# --------------------------------------------------------------------------
# validation suites
# --------------------------------------------------------------------------

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


def _suite_cubic_residual() -> list:
    """Residual |I_exact - I_pt| must scale as the cube of the small parameter."""
    checks = []
    grid = np.logspace(-3, -1, 7)
    for label, sel, fld, pt_fn in (
            ("eps", Param.X, "epsilon", perturb.pt1_qfi_x),
            ("delta", Param.OMEGA1, "delta", perturb.pt1_qfi_omega1)):
        residuals = []
        for v in grid:
            spec = ModelSpec(ModelKind.ZZXX, **{fld: float(v)})
            exact = global_qfi_fd(spec, 4, DEFAULT_ANGLES, sel).value
            residuals.append(abs(exact - pt_fn(spec, 4, DEFAULT_ANGLES).value))
        slope, _ = _fit_loglog(grid, residuals)
        checks.append(CheckResult("a", f"cubic-residual-{label}",
                                  abs(slope - 3.0) <= 0.2, f"slope={slope:.3f}"))
    return checks


def _suite_fd_two_step() -> list:
    """Exact against finite-difference derivative across the sweep regimes.

    Configurations whose QFI has effectively vanished (below 1e-6) cannot be
    finite-differenced to three digits in double precision; those must carry
    the ill-conditioned flag instead of being silently reported.  All
    resolvable configurations must agree to 1e-3.
    """
    worst = 0.0
    flagged_vanishing = 0
    silent_violations = []
    configs = []
    for sel, regimes in ((Param.X, ((1.0, 0.001), (1.0, 1.0), (1.0, 100.0))),
                         (Param.OMEGA1, ((100.0, 1.0), (1.0, 1.0), (0.001, 1.0))),
                         (Param.OMEGA0, ((100.0, 1.0), (1.0, 1.0), (0.001, 1.0)))):
        for delta, eps in regimes:
            for n in (4, 32, 128):
                configs.append((sel, delta, eps, n))
    for sel, delta, eps, n in configs:
        spec = ModelSpec(ModelKind.ZZXX, delta=delta, epsilon=eps)
        res = global_qfi_fd(spec, n, DEFAULT_ANGLES, sel)
        if res.relative_discrepancy < 1e-3:
            worst = max(worst, res.relative_discrepancy)
        elif res.ill_conditioned and max(res.value, res.value_check) < 1e-6:
            flagged_vanishing += 1
        else:
            silent_violations.append((sel.field, delta, eps, n,
                                      res.relative_discrepancy))
    return [CheckResult("b", "fd-two-step-agreement", not silent_violations,
                        f"worst resolvable discrepancy={worst:.2e} over "
                        f"{len(configs)} configs; {flagged_vanishing} "
                        f"vanishing-QFI configs flagged; "
                        f"unflagged violations: {silent_violations or 'none'}")]


def _suite_full_hilbert() -> list:
    """Symmetric-sector pipeline against dense full-space computations."""
    checks = []
    angles = DEFAULT_ANGLES
    state_dev = 0.0
    rho_dev = 0.0
    qfi_dev = 0.0
    for kind in (ModelKind.ZZZZ, ModelKind.ZZXX, ModelKind.ZZZX):
        for n in (3, 6, 8):
            spec = ModelSpec(kind)
            psi = propagate(spec, n, angles)
            full0 = fullspace.product_state_full(n, angles.alpha, angles.phi,
                                                 angles.beta, angles.varphi)
            hfull = fullspace.hamiltonian_full(str(kind), n, spec.delta,
                                               spec.epsilon, spec.omega0,
                                               spec.omega1, spec.x)
            psi_full = fullspace.propagate_full(hfull, spec.t, full0)
            proj = fullspace.project_symmetric(psi_full, n)
            state_dev = max(state_dev, float(np.max(np.abs(proj - psi.amplitudes))))
            rho_dev = max(rho_dev, float(np.max(np.abs(
                fullspace.bus_density(psi_full) - reduce_to_bus(psi).rho))))
            if n == 6:
                params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0,
                              x=1.0, t=1.0)
                for sel in (Param.X, Param.OMEGA1):
                    mine = global_qfi_fd(spec, n, angles, sel).value
                    ref = fullspace.global_qfi_full(str(kind), n, params,
                                                    sel.field, angles.alpha,
                                                    angles.phi, angles.beta,
                                                    angles.varphi)
                    qfi_dev = max(qfi_dev, abs(mine - ref) / max(abs(ref), 1e-30))
    checks.append(CheckResult("c", "full-hilbert-states", state_dev < 1e-8,
                              f"max amplitude deviation={state_dev:.2e}"))
    checks.append(CheckResult("c", "full-hilbert-bus-density", rho_dev < 1e-10,
                              f"max element deviation={rho_dev:.2e}"))
    checks.append(CheckResult("c", "full-hilbert-qfi", qfi_dev < 1e-6,
                              f"max relative deviation={qfi_dev:.2e}"))
    return checks


def _suite_closed_forms(seed: int) -> list:
    """ZZZZ numerical pipeline against the closed forms, random angles."""
    rng = np.random.default_rng(seed)
    worst_global = 0.0
    worst_rho = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 65))
        angles = StateAngles(alpha=rng.uniform(0.05, math.pi / 2 - 0.05),
                             phi=rng.uniform(0, 2 * math.pi),
                             beta=rng.uniform(0.05, math.pi / 2 - 0.05),
                             varphi=rng.uniform(0, 2 * math.pi))
        spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.5, 2.0),
                         epsilon=rng.uniform(0.5, 2.0), x=rng.uniform(0.5, 2.0),
                         t=rng.uniform(0.5, 2.0))
        for sel in (Param.X, Param.OMEGA1, Param.OMEGA0):
            closed = zzzz_exact.global_qfi_closed(spec, n, angles, sel)
            numeric = global_qfi_fd(spec, n, angles, sel).value
            worst_global = max(worst_global,
                               abs(numeric - closed) / max(abs(closed), 1e-12))
        rho_c = zzzz_exact.reduced_rho_closed(spec, n, angles).rho
        rho_n = reduce_to_bus(propagate(spec, n, angles)).rho
        worst_rho = max(worst_rho, float(np.max(np.abs(rho_c - rho_n))))
    return [
        CheckResult("d", "zzzz-global-closed-forms", worst_global < 1e-6,
                    f"worst relative deviation={worst_global:.2e} (20 configs)"),
        CheckResult("d", "zzzz-reduced-density", worst_rho < 1e-10,
                    f"worst element deviation={worst_rho:.2e}"),
    ]


def validate(suites: str = "all", seed: int = 20260808) -> ValidationReport:
    """Run the requested validation suites:

    a: cubic scaling of the perturbation-theory residual,
    b: exact vs finite-difference derivative agreement scan,
    c: full-Hilbert oracle comparison (N <= 8),
    d: ZZZZ closed forms vs the numerical pipeline.
    """
    checks = []
    if suites in ("a", "all"):
        checks += _suite_cubic_residual()
    if suites in ("b", "all"):
        checks += _suite_fd_two_step()
    if suites in ("c", "all"):
        checks += _suite_full_hilbert()
    if suites in ("d", "all"):
        checks += _suite_closed_forms(seed)
    if not checks:
        raise ValueError(f"unknown suite {suites!r}; use a, b, c, d or all")
    return ValidationReport(checks=tuple(checks))
