"""Closed-form ground truth for the exactly solvable ZZZZ dephasing model.

Global QFIs for x, omega1, omega0, the reduced bus density matrix, the local
QFI for x, exact and perturbative uncertainties of the X-readout estimator,
thermal-probe results, and the thermal-to-pure mapping of the reduced state.

These formulas are the package's primary regression oracles: the numerical
pipeline is never adjusted to match them, discrepancies fail tests loudly.
All N-th powers of quantities like cos(eps x t) go through log space so that
large N degrades to an explicit loss-of-sensitivity zero instead of
overflowing.
"""

from __future__ import annotations

import math
from dataclasses import astuple
from enum import Enum

import numpy as np

from .dynamics import ModelKind, ModelSpec, Param
from .fisher import BusDensity, FirstMomentResult, first_moment_result
from .states import (UNFAVORABLE_ANGLES, StateAngles, ThermalProbeSpec, _log_binomial,
                     m_values, thermal_equivalent_alpha)

PURE_DOME_TOL = 1e-12
THERMAL_EQUIVALENCE_TOL = 1e-10  # max elementwise bus-density deviation


class XReadoutVariant(Enum):
    """Which printed formula to evaluate for the X-readout uncertainty."""

    EXACT_WORST = "exact_worst"      # exact result at the worst product state
    PT_WORST = "pt_worst"            # lowest-order result at the worst state
    PT_GENERAL = "pt_general"        # exact binomial sums for any angles


def _require_zzzz(spec: ModelSpec, n: int):
    if spec.kind is not ModelKind.ZZZZ:
        raise ValueError(f"closed forms exist only for the ZZZZ model, got {spec.kind}")
    if n < 1:
        raise ValueError("n must be >= 1")


def global_qfi_closed(spec: ModelSpec, n: int, angles: StateAngles,
                      sel: Param) -> float:
    """Exact global QFIs:

        I_x      = N^2 t^2 eps^2 cos^2(2a) sin^2(2b) + N t^2 eps^2 sin^2(2a)
        I_omega1 = N delta^2 t^2 sin^2(2a)
        I_omega0 = delta^2 t^2 sin^2(2b)
    """
    _require_zzzz(spec, n)
    sin2a = math.sin(2 * angles.alpha)
    cos2a = math.cos(2 * angles.alpha)
    sin2b = math.sin(2 * angles.beta)
    t2 = spec.t ** 2
    if sel is Param.X:
        return (n ** 2 * t2 * spec.epsilon ** 2 * cos2a ** 2 * sin2b ** 2
                + n * t2 * spec.epsilon ** 2 * sin2a ** 2)
    if sel is Param.OMEGA1:
        return n * spec.delta ** 2 * t2 * sin2a ** 2
    if sel is Param.OMEGA0:
        return spec.delta ** 2 * t2 * sin2b ** 2
    raise ValueError(f"unknown parameter selector {sel!r}")


def _coherence_factor(spec: ModelSpec, alpha: float) -> complex:
    """w = cos^2(alpha) e^{-i eps x t} + sin^2(alpha) e^{+i eps x t}."""
    phase = spec.epsilon * spec.x * spec.t
    c2, s2 = math.cos(alpha) ** 2, math.sin(alpha) ** 2
    return c2 * np.exp(-1j * phase) + s2 * np.exp(1j * phase)


def reduced_rho_closed(spec: ModelSpec, n: int, angles: StateAngles) -> BusDensity:
    """Reduced bus state after dephasing evolution:

        rho_00 = cos^2(b),  rho_11 = sin^2(b),
        rho_01 = sin(2b)/2 e^{-i(varphi + delta w0 t)} w^N.
    """
    _require_zzzz(spec, n)
    w = _coherence_factor(spec, angles.alpha)
    mag = abs(w)
    if mag == 0.0:
        w_pow = 0.0
    else:
        w_pow = np.exp(n * (math.log(mag) + 1j * np.angle(w)))
    return BusDensity(_bus_matrix(spec, angles.beta, angles.varphi, w_pow))


def _bus_matrix(spec: ModelSpec, beta: float, varphi: float, coherence) -> np.ndarray:
    """Bus density with rho_01 = sin(2b)/2 e^{-i(varphi + delta w0 t)} coherence."""
    off = (0.5 * math.sin(2 * beta)
           * np.exp(-1j * (varphi + spec.delta * spec.omega0 * spec.t))
           * coherence)
    return np.array([[math.cos(beta) ** 2, off],
                     [np.conj(off), math.sin(beta) ** 2]])


@np.errstate(over="raise")  # an overflow raises FloatingPointError, not inf
def local_qfi_x_closed(spec: ModelSpec, n: int, angles: StateAngles) -> float:
    """Bus-qubit QFI for x from the analytic derivative of rho_01.

    For the favorable state this equals N^2 eps^2 t^2; for the worst state it
    reduces to N^2 t^2 eps^2 tan^2(eps t x) / (cos(eps t x)^{-2N} - 1).
    """
    _require_zzzz(spec, n)
    phase = spec.epsilon * spec.x * spec.t
    c2, s2 = math.cos(angles.alpha) ** 2, math.sin(angles.alpha) ** 2
    w = _coherence_factor(spec, angles.alpha)
    dw = 1j * spec.epsilon * spec.t * (s2 * np.exp(1j * phase) - c2 * np.exp(-1j * phase))
    sin2b = math.sin(2 * angles.beta)

    mag = abs(w)
    if mag == 0.0:
        return 0.0  # coherence fully destroyed at any N >= 1; no x signal left
    # zeta = 2 rho_01 up to the constant bus phase, which drops out of |.|
    w_pow_minus1 = np.exp((n - 1) * (math.log(mag) + 1j * np.angle(w)))
    zeta = sin2b * w_pow_minus1 * w
    dzeta = sin2b * n * w_pow_minus1 * dw

    tangential = float(abs(dzeta)) ** 2  # float ** raises OverflowError
    radial_num = float(np.real(np.conj(zeta) * dzeta))
    # 1 - |w|^(2N) computed stably; |w|^2 = 1 - sin^2(2a) sin^2(eps x t)
    depol = -math.expm1(n * math.log(mag ** 2)) if mag < 1.0 else 0.0
    dome = sin2b ** 2 * depol  # = sin^2(2b) - |zeta|^2
    if dome > PURE_DOME_TOL * max(sin2b ** 2, 1e-300):
        return tangential + radial_num ** 2 / dome
    # pure boundary: keep the term only if the motion has a radial component
    if tangential == 0.0:
        return 0.0
    if abs(radial_num) < 1e-9 * math.sqrt(tangential):
        return tangential
    raise ArithmeticError(
        "pure-boundary local QFI with non-tangent derivative; "
        "evaluate slightly away from |w| = 1")


def _binomial_weights(n: int, p: float) -> np.ndarray:
    """Binomial pmf C(N,k) p^k (1-p)^(N-k), k = 0..N, in log space."""
    k = np.arange(n + 1, dtype=float)
    if p <= 0.0:
        out = np.zeros(n + 1)
        out[0] = 1.0
        return out
    if p >= 1.0:
        out = np.zeros(n + 1)
        out[-1] = 1.0
        return out
    log_w = (_log_binomial(n, k) + k * math.log(p) + (n - k) * math.log1p(-p))
    return np.exp(log_w)


def delta_x_x_readout(spec: ModelSpec, n: int, angles: StateAngles,
                      variant: XReadoutVariant,
                      m_measurements: int = 1) -> FirstMomentResult:
    """Uncertainty of x estimated from the bus X readout, per the selected
    closed form.  The worst-state variants require angles (pi/4, 0, pi/4, 0).

    The general variant evaluates the binomial sums

        <X>   =  sin(2b) sum_m C(N, m+N/2) cos(a)^(N+2m) sin(a)^(N-2m) cos(Phi_m)
        d<X>  = -2 eps t sin(2b) sum_m C(...) m (...) sin(Phi_m)

    with Phi_m = delta w0 t + varphi + 2 eps x t m, and returns
    `fisher.first_moment_result` of Var X = 1 - <X>^2 and the exact d<X>
    (error 0), delta = sqrt(1 - <X>^2) / (sqrt(M) |d<X>|), with its flags.
    """
    _require_zzzz(spec, n)
    if m_measurements < 1:
        raise ValueError("M must be a positive integer")
    eps, t, x = spec.epsilon, spec.t, spec.x
    dw0t = spec.delta * spec.omega0 * t

    if variant in (XReadoutVariant.EXACT_WORST, XReadoutVariant.PT_WORST):
        worst = astuple(UNFAVORABLE_ANGLES)
        if any(abs(g - w) > 1e-12 for g, w in zip(astuple(angles), worst)):
            raise ValueError(f"variant {variant.value} is defined at angles {worst}")

    if variant is XReadoutVariant.PT_WORST:
        inv_sq = (n ** 2 * t ** 4 * eps ** 4 * x ** 2
                  / (n * t ** 2 * x ** 2 * eps ** 2 + math.tan(dw0t) ** 2))
        return _uncertainty_from_inv_sq(m_measurements * inv_sq)

    if variant is XReadoutVariant.EXACT_WORST:
        arg = eps * t * x
        cos_a, sin_a = math.cos(arg), math.sin(arg)
        if cos_a == 0.0 or math.cos(dw0t) == 0.0:
            return _uncertainty_from_inv_sq(0.0, flag="insensitive")
        # denominator cos^{-2N} cos(d w0 t)^{-2} - 1 in log space
        log_growth = -2.0 * n * math.log(abs(cos_a)) - 2.0 * math.log(abs(math.cos(dw0t)))
        numer = n ** 2 * t ** 2 * eps ** 2 * (sin_a / cos_a) ** 2
        if log_growth > 700.0:
            inv_sq = numer * math.exp(-log_growth)  # underflows gracefully
            flag = "underflow" if inv_sq == 0.0 else ""
            return _uncertainty_from_inv_sq(m_measurements * inv_sq, flag=flag)
        denom = math.expm1(log_growth)
        if denom <= 0.0:
            return _uncertainty_from_inv_sq(0.0, flag="insensitive")
        return _uncertainty_from_inv_sq(m_measurements * numer / denom)

    # general binomial-sum formula; the binomial index is read as C(N, m+N/2)
    weights = _binomial_weights(n, math.cos(angles.alpha) ** 2)
    m = m_values(n)[::-1]  # ascending m to match k = m + N/2 = 0..N ordering
    phis = dw0t + angles.varphi + 2.0 * eps * x * t * m
    sin2b = math.sin(2 * angles.beta)
    mean_x = sin2b * float(weights @ np.cos(phis))
    dmean = -2.0 * eps * t * sin2b * float(weights @ (m * np.sin(phis)))
    return first_moment_result(1.0 - mean_x ** 2, dmean, 0.0, m_measurements)


def _uncertainty_from_inv_sq(inv_sq: float, flag: str = "") -> FirstMomentResult:
    """A worst-state closed form gives 1/delta^2 only: `variance` and
    `mean_derivative` are nan, and nothing is certified."""
    if inv_sq <= 0.0:
        inv_sq, flag = 0.0, flag or "underflow"
    return FirstMomentResult(inv_sq, flag=flag,
                             delta=1.0 / math.sqrt(inv_sq) if inv_sq else math.inf,
                             variance=math.nan, mean_derivative=math.nan)


def thermal_global_qfi(spec: ModelSpec, n: int, beta_th: float,
                       beta_angle: float, sel: Param) -> float:
    """Global QFIs for thermal probes and a pure bus at angle beta:

        I_x      = sin^2(2b) eps^2 t^2 (N^2 tanh^2(u) + N sech^2(u))
        I_omega1 = N beta_th^2 sech^2(u)
        I_omega0 = delta^2 t^2 sin^2(2b)

    with u = beta_th * omega1.  I_omega1 carries no explicit t: the level
    spacing enters only through the initial populations here.  sech^2(u) =
    4 e^{-2|u|} / (1 + e^{-2|u|})^2 neither overflows nor cancels.
    """
    _require_zzzz(spec, n)
    ThermalProbeSpec(beta_th, spec.omega1)  # beta_th finite and >= 0
    u = beta_th * spec.omega1
    decay = math.exp(-2.0 * abs(u))
    sech_sq = 4.0 * decay / (1.0 + decay) ** 2
    sin2b_sq = math.sin(2 * beta_angle) ** 2
    if sel is Param.X:
        return (sin2b_sq * spec.epsilon ** 2 * spec.t ** 2
                * (n ** 2 * math.tanh(u) ** 2 + n * sech_sq))
    if sel is Param.OMEGA1:
        return n * beta_th ** 2 * sech_sq
    if sel is Param.OMEGA0:
        return spec.delta ** 2 * spec.t ** 2 * sin2b_sq
    raise ValueError(f"unknown parameter selector {sel!r}")


def thermal_local_equivalence_check(spec: ModelSpec, n: int, beta_th: float,
                                    bus_beta: float, bus_varphi: float = 0.0):
    """Check that thermal probes reduce the bus exactly like the equivalent
    pure state with cos^2(alpha) = e^{-beta_th omega1}/Z.

    The thermal side is built from first principles as the binomial mixture
    over probe configurations, each contributing its dephasing factor to the
    coherence.  Returns (passed, max elementwise deviation).
    """
    _require_zzzz(spec, n)
    alpha = thermal_equivalent_alpha(ThermalProbeSpec(beta_th, spec.omega1))
    pure = reduced_rho_closed(
        spec, n, StateAngles(alpha, 0.0, bus_beta, bus_varphi)).rho

    u = beta_th * spec.omega1
    # p0 = 1 / (1 + e^{2u}), which is e^{-2u} to rounding before e^{2u} overflows
    p0 = 1.0 / (1.0 + math.exp(2.0 * u)) if u < 350.0 else math.exp(-2.0 * u)
    weights = _binomial_weights(n, p0)
    # k probes in |0> (population p0 each) leave sum_i z_i = 2k - N, so the
    # configuration contributes e^{-i eps x t (2k - N)} to the coherence
    k = np.arange(n + 1)
    phase = spec.epsilon * spec.x * spec.t * (2 * k - n)
    thermal = _bus_matrix(spec, bus_beta, bus_varphi, complex(weights @ np.exp(-1j * phase)))

    deviation = float(np.max(np.abs(thermal - pure)))
    return deviation < THERMAL_EQUIVALENCE_TOL, deviation
