"""Collective states and operators for N identical spin-1/2 probes plus a
single bus qubit, restricted to the exchange-symmetric sector.

The joint basis is |m, s> with m the total z projection of the probes
(j = N/2, m = N/2, N/2-1, ..., -N/2) and s in {0, 1} the bus level.
Amplitude vectors are laid out row-major over (m descending, s inner):

    index(m, s) = 2 * (N/2 - m) + s

so index 0 is (m = N/2, s = 0).  This layout keeps J_z diagonal and makes
the bus partial trace a stride-2 reduction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

NORM_TOL = 1e-12


@dataclass(frozen=True)
class StateAngles:
    """Bloch angles (alpha, phi) of every probe and (beta, varphi) of the bus.

    Probe state: cos(alpha)|0> + sin(alpha) e^{i phi} |1>.
    Bus state:   cos(beta)|0> + sin(beta) e^{i varphi} |1>.
    Any finite real values are accepted; no canonical range is enforced.
    """

    alpha: float
    phi: float
    beta: float
    varphi: float

    def __post_init__(self):
        for name in ("alpha", "phi", "beta", "varphi"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"angle {name!r} must be a finite real number")


# Angle set used by the bundled sweep configurations (all probes tilted,
# complex phases on both probe and bus).
DEFAULT_ANGLES = StateAngles(alpha=math.pi / 3, phi=3 * math.pi / 8,
                             beta=math.pi / 6, varphi=5 * math.pi / 8)

# Probes polarized along +z, bus on the equator: the most favorable product
# state for estimating the probe-bus coupling.
FAVORABLE_ANGLES = StateAngles(alpha=0.0, phi=0.0, beta=math.pi / 4, varphi=0.0)

# Every spin on the +x equator: the worst pure product state for estimating
# the coupling.
UNFAVORABLE_ANGLES = StateAngles(alpha=math.pi / 4, phi=0.0,
                                 beta=math.pi / 4, varphi=0.0)


@dataclass(frozen=True)
class ThermalProbeSpec:
    """Thermal probe populations exp(-+ beta_th * omega1)/Z on the z levels."""

    beta_th: float
    omega1: float

    def __post_init__(self):
        if not (math.isfinite(self.beta_th) and math.isfinite(self.omega1)):
            raise ValueError("thermal spec requires finite beta_th and omega1")
        if self.beta_th < 0:
            raise ValueError("beta_th must be >= 0 (0 is the fully mixed case)")


@dataclass(frozen=True)
class SymmetricState:
    """Normalized amplitude vector over the |m, s> basis for N probes."""

    n_probes: int
    amplitudes: np.ndarray

    def __post_init__(self):
        n = self.n_probes
        if n < 1:
            raise ValueError("n_probes must be >= 1")
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (2 * (n + 1),):
            raise ValueError(
                f"amplitude vector must have length {2 * (n + 1)}, got {amps.shape}")
        norm = np.linalg.norm(amps)
        if abs(norm - 1.0) > NORM_TOL:
            raise ValueError(f"state norm {norm!r} deviates from 1 beyond {NORM_TOL}")
        amps.flags.writeable = False
        object.__setattr__(self, "amplitudes", amps)

    @property
    def dim(self) -> int:
        return 2 * (self.n_probes + 1)


def m_values(n: int) -> np.ndarray:
    """Probe z projections in index order: N/2, N/2-1, ..., -N/2."""
    return n / 2 - np.arange(n + 1)


def _log_binomial(n: int, k: np.ndarray) -> np.ndarray:
    """log C(n, k) for integer k in 0..n (k may be stored as floats)."""
    log_factorial = np.array([math.lgamma(i + 1.0) for i in range(n + 1)])
    k = np.asarray(k).astype(int)
    return log_factorial[n] - log_factorial[k] - log_factorial[n - k]


def _powered_amplitude(base: float, phase: float, exponents: np.ndarray) -> np.ndarray:
    """base^k * e^{i k phase} for integer k, stable for k up to thousands.

    Magnitudes go through log space so that e.g. cos(alpha)^2000 underflows
    to zero gracefully instead of corrupting intermediate products.  Negative
    bases contribute a pi phase per power.
    """
    out = np.zeros(len(exponents), dtype=complex)
    if base == 0.0:
        out[exponents == 0] = 1.0
        return out
    log_mag = exponents * math.log(abs(base))
    total_phase = exponents * (phase + (math.pi if base < 0 else 0.0))
    np.exp(log_mag + 1j * total_phase, out=out)
    return out


def build_product_state(n: int, angles: StateAngles) -> SymmetricState:
    """Symmetric-sector amplitudes of |probe>^(x)N (x) |bus>.

    The (m, s=0) amplitude is
        sqrt(C(N, m+N/2)) cos(alpha)^(N/2+m) (sin(alpha) e^{i phi})^(N/2-m) cos(beta)
    and (m, s=1) carries sin(beta) e^{i varphi} instead of cos(beta).  The
    result is renormalized to absorb floating-point rounding.  The last two
    states are kept, read-only, so a sweep's regimes of one N share one.
    """
    return _product_state(n, angles)


@lru_cache(maxsize=2)
def _product_state(n: int, angles: StateAngles) -> SymmetricState:
    if n < 1:
        raise ValueError("n must be >= 1")
    k = np.arange(n + 1)            # k = N/2 - m, i.e. number of probe flips
    half_log_binom = 0.5 * _log_binomial(n, k)
    cos_part = _powered_amplitude(math.cos(angles.alpha), 0.0, n - k)
    sin_part = _powered_amplitude(math.sin(angles.alpha), angles.phi, k)
    probe = np.exp(half_log_binom) * cos_part * sin_part

    amps = np.empty(2 * (n + 1), dtype=complex)
    amps[0::2] = probe * math.cos(angles.beta)
    amps[1::2] = probe * math.sin(angles.beta) * np.exp(1j * angles.varphi)

    norm = np.linalg.norm(amps)
    if norm == 0.0 or not np.isfinite(norm):
        raise ValueError("degenerate product state: zero or non-finite norm")
    return SymmetricState(n_probes=n, amplitudes=amps / norm)


def _jx_ladder(n: int) -> np.ndarray:
    """The N off-diagonal elements <m - 1|J_x|m>, m = N/2 .. -N/2 + 1."""
    j = n / 2
    m = m_values(n)[:-1]            # upper m of each neighbouring pair
    return 0.5 * np.sqrt(j * (j + 1) - m * (m - 1))


def thermal_equivalent_alpha(spec: ThermalProbeSpec) -> float:
    """Probe angle alpha whose pure state reproduces the thermal populations:
    cos^2(alpha) = e^{-beta_th omega1}/Z with Z = e^{-beta_th omega1} + e^{+beta_th omega1}.

    Returned value lies in [0, pi/2]; beta_th = 0 maps to pi/4.
    """
    u = spec.beta_th * spec.omega1
    # cos^2(alpha) = e^{-u}/(e^{-u} + e^{u}) = 1/(1 + e^{2u}), stable for large u
    cos_sq = 1.0 / (1.0 + math.exp(2.0 * u)) if u < 350 else 0.0
    return math.acos(math.sqrt(cos_sq))

