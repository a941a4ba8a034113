"""Regime sweeps over N, scaling-exponent fits, CSV output, config parsing.

A sweep evaluates a set of quantities (global/local QFI, first-moment
uncertainties, perturbative values, closed forms) on a grid of probe numbers
N for one or more named (delta, epsilon) regimes, then fits log-log slopes
over the upper half of the N grid.  Per-point failures become row flags,
never crashes: regimes that legitimately destroy sensitivity (e.g. full
dephasing at eps*t*x = pi/2) are data.

The points run one after another in one process, and each (regime, N) point
solves the dynamics at most once for all of its fisher quantities.

Output ordering is deterministic (sorted by quantity, regime, N), so
identical configs give byte-identical CSV files.  `parse_config` reads the
`key = value` config format and rejects unknown keys; the validation suites
are `spinbus.validate`.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, replace

import numpy as np

from . import fisher, paulis, perturb, zzzz_exact
from .dynamics import ModelKind, ModelSpec, Param
from .states import DEFAULT_ANGLES, StateAngles


class FitDomainError(ValueError):
    """Raised when a log-log fit window has too few or nonpositive values."""


@dataclass(frozen=True)
class Regime:
    """Named (delta, epsilon) pair; alpha optionally overrides the probe angle."""

    name: str
    delta: float = ModelSpec.delta
    epsilon: float = ModelSpec.epsilon
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
    omega0: float = ModelSpec.omega0
    omega1: float = ModelSpec.omega1
    x: float = ModelSpec.x
    t: float = ModelSpec.t
    m_measurements: int = 1
    out: str | None = None
    # Not a field, so nothing sets it: perfbench's tracer reads it under
    # `--trace 1`.  ROADMAP direction 1's benchmark change deletes it.
    workers = 1

    def __post_init__(self):
        ns = tuple(int(n) for n in self.n_list)
        if not ns:
            raise ValueError("N list must not be empty")
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
        if self.m_measurements < 1:
            raise ValueError("measurements must be a positive integer")
        names = [regime.name for regime in self.regimes]  # each names its CSV rows
        if any(not name or "," in name for name in names) or len(set(names)) < len(names):
            raise ValueError(f"regime names must be nonempty, comma-free and distinct: {names}")
        _settings(self)  # a bad parameter fails here, not mid-sweep


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


def _settings(config: SweepConfig) -> list:
    """(regime, spec, angles) of every regime; a bad parameter raises ValueError."""
    return [(regime, ModelSpec(kind=config.kind, delta=regime.delta, epsilon=regime.epsilon,
                               omega0=config.omega0, omega1=config.omega1, x=config.x,
                               t=config.t),
             config.angles if regime.alpha is None else replace(config.angles, alpha=regime.alpha))
            for regime in config.regimes]


class _Point:
    """One (regime, N) grid point.  The fisher solve runs on the first
    `evolved()` call only; a failed solve re-raises its error for every
    fisher quantity of the point."""

    def __init__(self, config: SweepConfig, n: int, regime: Regime, spec: ModelSpec,
                 angles: StateAngles):
        self.config, self.n, self.regime, self.spec, self.angles = config, n, regime, spec, angles
        self.sel, self.observable = config.param, paulis.NAMED_OBSERVABLES[config.observable]
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

    def rows(self) -> list:
        """One row per requested quantity, in the config's order."""
        rows = []
        for quantity in self.config.quantities:
            params, reader = _READERS[quantity]
            try:
                value, flag = reader(self) if self.sel in params else (math.nan, "unsupported")
            except Exception as err:  # per-point failures are data, not crashes
                value, flag = math.nan, f"error:{type(err).__name__}"
            rows.append(Row(self.n, quantity, self.regime.name, value, flag))
        return rows


def _qfi(result) -> tuple:
    return result.value, result.flag


def _first_moment(r) -> tuple:
    return r.inv_squared, r.flag


# quantity -> (the parameters it is defined for, reader of a point returning
# (value, flag)).  Outside its parameters a quantity's row reads nan,
# "unsupported", and its reader is not called.  Readers look up what they call
# at call time, so wrapping a module function also wraps its use here.
_ALL, _X_OMEGA1, _X = tuple(Param), (Param.X, Param.OMEGA1), (Param.X,)
_READERS = {
    "global_qfi": (_ALL, lambda p: _qfi(fisher.read_global_qfi(p.evolved()))),
    "local_qfi": (_ALL, lambda p: _qfi(fisher.read_local_qfi(p.evolved()))),
    "first_moment": (_ALL, lambda p: _first_moment(fisher.read_first_moment(
        p.evolved(), p.observable, p.config.m_measurements))),
    "pt1": (_X_OMEGA1, lambda p: (perturb.pt1_qfi(p.spec, p.n, p.angles, p.sel).value, "")),
    "pt2": (_X_OMEGA1, lambda p: (perturb.pt2_qfi_zeroth(p.spec, p.n, p.angles, p.sel).value, "")),
    "closed_form": (_ALL, lambda p: (zzzz_exact.global_qfi_closed(p.spec, p.n, p.angles, p.sel),
                                     "")),
    "hl_condition": (_X, lambda p: (perturb.hl_condition(p.spec, p.angles), "")),
    "appendix_fm": (_X_OMEGA1, lambda p: _first_moment(perturb.appendix_local_uncertainty(
        p.spec, p.n, p.angles, p.observable, p.sel, p.config.m_measurements))),
    "local_qfi_closed": (_X, lambda p: (zzzz_exact.local_qfi_x_closed(p.spec, p.n, p.angles),
                                        "")),
}

KNOWN_QUANTITIES = tuple(_READERS)


def run_sweep(config: SweepConfig) -> ScanResult:
    """Evaluate every requested quantity at every (regime, N) grid point and
    fit log-log exponents over the upper half of the N grid."""
    # N outer: the points of one N, which share its layout and product state, run in a row
    settings = _settings(config)
    points = (_Point(config, n, *setting) for n in config.n_list for setting in settings)
    rows = sorted((row for point in points for row in point.rows()),
                  key=lambda r: (r.quantity, r.regime, r.n))

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
    return fit_loglog([p[0] for p in pts], [p[1] for p in pts])


def fit_loglog(xs, ys) -> tuple:
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
    """Float literal or simple pi expression: 'pi', '3pi/4', '-pi/4', '0.5'."""
    text = text.strip().lower()
    match = _PI_PATTERN.match(text)
    if match:
        coef = match.group(1)
        value = math.pi * (float(coef) if coef not in ("", "-") else
                           (-1.0 if coef == "-" else 1.0))
        if match.group(2):
            divisor = float(match.group(2))
            if divisor == 0.0:
                raise ValueError(f"division by zero in {text!r}")
            value /= divisor
        return value
    return float(text)


def _parse_n_list(text: str):
    parts = text.split()
    if parts and parts[0] == "log":
        if len(parts) != 4:
            raise ValueError("nlist supports: log <lo> <hi> <count>")
        lo, hi, count = int(parts[1]), int(parts[2]), int(parts[3])
        if lo < 1 or hi < 1:
            raise ValueError("nlist log bounds must be positive integers")
        # sorted(set()), not np.unique, whose first call imports numpy.ma (~10 ms)
        grid = np.round(np.logspace(math.log10(lo), math.log10(hi), count)).astype(int)
        return tuple(sorted(set(grid.tolist())))
    return tuple(int(p) for p in parts)


# every config key but the repeatable `regime`, with its default value
_CONFIG_DEFAULTS = {"model": "zzxx", "param": "x", "alphas": None, "nlist": "log 1 100 10",
                    **{k: str(v) for k, v in vars(DEFAULT_ANGLES).items()},
                    **{k: str(getattr(ModelSpec, k)) for k in ("omega0", "omega1", "x", "t")},
                    "quantities": "global_qfi", "observable": "xz", "measurements": "1",
                    "out": None}
_REGIME_FIELDS = ("delta", "epsilon", "alpha")
WORKERS_REMOVED = "workers was removed: every sweep runs its points in one process"


def _parse_regime(text: str) -> Regime:
    name, _, body = text.partition(":")
    fields = {}
    for item in body.split(","):
        if not item.strip():
            continue
        key, _, val = (part.strip() for part in item.partition("="))
        if key not in _REGIME_FIELDS:
            raise ValueError(f"unknown regime field {key!r}; known: {_REGIME_FIELDS}")
        fields[key] = parse_number(val)
    return Regime(name.strip(), **fields)


def parse_config(text: str) -> SweepConfig:
    """Parse the plain key = value sweep-config format; '#' starts a comment.

    Recognized keys: model, param, regime (repeatable), alphas
    (``linspace lo hi count``, expands into one regime per probe angle),
    nlist (explicit integers or ``log lo hi count``), alpha/phi/beta/varphi,
    omega0/omega1/x/t, quantities, observable, measurements, out.
    A regime is ``name: field=value, ...`` with fields delta, epsilon and
    alpha (delta and epsilon default to 1); ``alphas`` takes at most one
    regime.  An unknown key or regime field, a malformed value, or the
    removed ``workers`` key raises ValueError.
    """
    values, regimes = dict(_CONFIG_DEFAULTS), []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not _:
            raise ValueError(f"expected 'key = value', got {raw!r}")
        if key == "regime":
            regimes.append(_parse_regime(val))
        elif key in values:
            values[key] = val
        elif key == "workers":
            raise ValueError(WORKERS_REMOVED)
        else:
            raise ValueError(f"unknown config key {key!r}")

    angles = StateAngles(*(parse_number(values[k]) for k in ("alpha", "phi", "beta", "varphi")))
    if values["alphas"] is not None:
        parts = values["alphas"].split()
        if len(parts) != 4 or parts[0] != "linspace":
            raise ValueError("alphas supports: linspace <lo> <hi> <count>")
        lo, hi, count = parse_number(parts[1]), parse_number(parts[2]), int(parts[3])
        if count < 1 or not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValueError("alphas needs finite bounds and a positive count")
        if len(regimes) > 1:
            raise ValueError(f"alphas expands one regime, got {len(regimes)}")
        base = regimes[0] if regimes else Regime("grid")
        regimes = [replace(base, name=f"alpha={a:.10g}", alpha=float(a))
                   for a in np.linspace(lo, hi, count)]
    if not regimes:
        regimes = [Regime("default")]

    return SweepConfig(
        kind=ModelKind(values["model"].upper()), param=Param(values["param"].lower()),
        regimes=tuple(regimes), n_list=_parse_n_list(values["nlist"]), angles=angles,
        quantities=tuple(values["quantities"].split()), observable=values["observable"],
        **{k: parse_number(values[k]) for k in ("omega0", "omega1", "x", "t")},
        m_measurements=int(values["measurements"]), out=values["out"],
    )
