"""Quantum Fisher information and first-moment measurement uncertainties.

`evolve_point` solves a point once: the evolved state, its exact derivative
d|psi>/d theta and their certified error bounds, all from one
eigendecomposition.  From that record `read_global_qfi` gives the QFI of the
pure evolved state, `read_local_qfi` the QFI of the reduced bus qubit via its
Bloch vector, and `read_first_moment` the uncertainty of estimating a
parameter from the sample mean of a fixed bus observable.  Each returns a
`Reading`, the one type every sweep quantity is read into: its value, the
relative-error bound the certificate implies and a flag, so that
ill-conditioned configurations are flagged instead of silently reported.
Also the Cramer-Rao bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynamics import ModelSpec, Param, assemble, evolve_derivative
from .paulis import check_hermitian_2x2
from .states import StateAngles, SymmetricState, build_product_state

RELATIVE_ERROR_TOL = 1e-3
NEGATIVE_CLAMP = 1e-10
PURE_BOUNDARY_TOL = 1e-9
INSENSITIVE_TOL = 1e-14


@dataclass(frozen=True)
class BusDensity:
    """2x2 reduced density matrix of the bus qubit."""

    rho: np.ndarray

    def __post_init__(self):
        rho = np.asarray(self.rho, dtype=complex)
        if rho.shape != (2, 2):
            raise ValueError("bus density matrix must be 2x2")
        if abs(np.trace(rho).real - 1.0) > 1e-12 or abs(np.trace(rho).imag) > 1e-12:
            raise ValueError("bus density matrix must have unit trace")
        if np.max(np.abs(rho - rho.conj().T)) > 1e-12:
            raise ValueError("bus density matrix must be Hermitian")
        if np.min(np.linalg.eigvalsh(rho)) < -1e-12:
            raise ValueError("bus density matrix must be positive semidefinite")
        rho.flags.writeable = False
        object.__setattr__(self, "rho", rho)


def _bloch_vector(a: np.ndarray) -> np.ndarray:
    """(tr(a X), tr(a Y), tr(a Z)) of a 2x2 Hermitian matrix a: of a density
    matrix rho, its Bloch vector r, rho = (I + r . sigma)/2."""
    return np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real])


@dataclass(frozen=True)
class Reading:
    """One value of a sweep quantity.  `relative_discrepancy` bounds the
    relative error of `value`, nan where nothing is certified; `flag` is "" or
    why the value cannot be trusted: "ill_conditioned" where a certified bound
    exceeds 1e-3 or comes out nan (a small remainder of a large derivative, or
    an inaccurate solve)."""

    value: float
    relative_discrepancy: float = math.nan
    flag: str = ""


@dataclass(frozen=True, kw_only=True)
class FirstMomentResult(Reading):
    """Uncertainty of theta estimated from the sample mean of a bus observable:
    `value` is 1/delta^2, `relative_discrepancy` bounds the relative error of
    `mean_derivative`, and `flag` is "" or the reason the value cannot be
    trusted (see `first_moment_result`)."""

    delta: float
    variance: float
    mean_derivative: float

    @property
    def inv_squared(self) -> float:
        return self.value


def _relative(error: float, value: float) -> float:
    """error / |value|, 0 without error and inf for a vanishing value."""
    if error == 0.0:
        return 0.0
    return math.inf if value == 0.0 else error / abs(value)


def _qfi_result(value: float, error: float) -> Reading:
    bound = _relative(error, value)
    return Reading(value, bound, "" if bound <= RELATIVE_ERROR_TOL else "ill_conditioned")


@dataclass(frozen=True)
class EvolvedPoint:
    """One solved point: the evolved state `psi`, its exact derivative `dpsi`
    (d|psi>/d theta in the |m, s> layout), and the bounds on their errors
    certified by `dynamics.evolve_derivative`; no finite difference."""

    psi: SymmetricState
    dpsi: np.ndarray
    psi_error: float
    dpsi_error: float

    @cached_property
    def bus_density(self) -> "BusDensity":
        """Reduced bus density of `psi`, built once."""
        return reduce_to_bus(self.psi)

    @cached_property
    def bus_derivative(self) -> tuple:
        """(d rho_bus / d theta = Tr_probes(|d psi><psi| + |psi><d psi|), a bound
        on its trace-norm error): the errors of psi and dpsi each enter twice."""
        half = _bus_block(self.dpsi, self.psi.amplitudes)
        error = 2.0 * (self.dpsi_error + float(np.linalg.norm(self.dpsi)) * self.psi_error)
        return half + half.conj().T, error


def evolve_point(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> EvolvedPoint:
    """Evolve the product state under `spec` and differentiate it exactly in
    `sel`, both from one eigendecomposition of H that certifies itself."""
    return EvolvedPoint(*evolve_derivative(assemble(spec, n), assemble(spec, n, wrt=sel),
                                           spec.t, build_product_state(n, angles)))


def _pure_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)


def read_global_qfi(point: EvolvedPoint) -> Reading:
    """QFI of the evolved pure state, I = 4(<d psi|d psi> - |<psi|d psi>|^2)
    = 4 ||y||^2 with y = (1 - |psi><psi|) |d psi>, from the exact |d psi>.
    ||delta y|| <= e = dpsi_error + 2 ||d psi|| psi_error (first order), so
    |delta I| <= 4 e (sqrt(I) + e)."""
    value = _pure_qfi(point.psi.amplitudes, point.dpsi)
    if value < 0.0:
        if value < -NEGATIVE_CLAMP:
            raise ArithmeticError(f"QFI came out negative beyond round-off: {value}")
        value = 0.0
    e = point.dpsi_error + 2.0 * float(np.linalg.norm(point.dpsi)) * point.psi_error
    return _qfi_result(value, 4.0 * e * (math.sqrt(value) + e))


def global_qfi_fd(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> Reading:
    """`read_global_qfi` of `evolve_point(spec, n, angles, sel)`."""
    return read_global_qfi(evolve_point(spec, n, angles, sel))


def reduce_to_bus(state: SymmetricState) -> BusDensity:
    """Trace out the probes: rho_{s s'} = sum_m c_{m,s} conj(c_{m,s'})."""
    rho = _bus_block(state.amplitudes, state.amplitudes)
    # symmetrize away the last bit of rounding so BusDensity validation holds
    rho = 0.5 * (rho + rho.conj().T)
    return BusDensity(rho / np.trace(rho).real)


def _bus_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr_probes |a><b|: sum_m a_{m,s} conj(b_{m,s'})."""
    return np.einsum("ms,mt->st", a.reshape(-1, 2), b.reshape(-1, 2).conj())


def _bloch_qfi(r: np.ndarray, dr: np.ndarray, radial_error: float) -> float:
    """Single-qubit QFI |dr|^2 + (r.dr)^2/(1 - |r|^2).  At the pure boundary
    the second term is dropped for tangent motion, |r.dr| <= `radial_error`
    (a bound on the error of r.dr); a non-tangent derivative there pushes rho
    off the state space and raises."""
    r_sq = float(r @ r)
    if r_sq > 1.0 + PURE_BOUNDARY_TOL:
        raise ValueError(f"|r| = {math.sqrt(r_sq)} exceeds 1: invalid density")
    dr_sq = float(dr @ dr)
    radial = float(r @ dr)
    if r_sq < 1.0 - PURE_BOUNDARY_TOL:
        return dr_sq + radial ** 2 / (1.0 - r_sq)
    if abs(radial) <= radial_error:
        return dr_sq
    raise ArithmeticError(
        "derivative is not tangent at the pure-state boundary "
        f"(|r.dr| = {abs(radial)} > {radial_error}): QFI is singular here")


def read_local_qfi(point: EvolvedPoint) -> Reading:
    """QFI of the reduced bus state from its Bloch vector and the exact
    derivative d rho = Tr_probes(|d psi><psi| + |psi><d psi|).

    As |delta r| <= sqrt(2) ||delta rho||_F, r and dr err by at most
    e_r = 2 sqrt(2) psi_error and e_dr = sqrt(2) times d rho's error, so r.dr
    errs by at most |dr| e_r + e_dr (|r| <= 1): at a pure bus state a
    derivative whose |r.dr| lies within that is tangent.  The value is dr^T M
    dr, M = I + r r^T / (1 - |r|^2) (I on the tangent branch), so it errs by
    at most (|g| + e_dr ||M||) e_dr + |r.dr| |g| e_r / (1 - |r|^2), g = 2 M dr,
    exactly in dr and to first order in r.
    """
    r = _bloch_vector(point.bus_density.rho)
    drho, drho_error = point.bus_derivative
    dr = _bloch_vector(drho)
    e_r, e_dr = 2.0 * math.sqrt(2.0) * point.psi_error, math.sqrt(2.0) * drho_error
    value = _bloch_qfi(r, dr, float(np.linalg.norm(dr)) * e_r + e_dr)
    scale = 1.0 - float(r @ r)
    scale, radial = (scale, float(r @ dr) / scale) if scale > PURE_BOUNDARY_TOL else (1.0, 0.0)
    grad = 2.0 * float(np.linalg.norm(dr + radial * r))
    return _qfi_result(value, (grad + e_dr / scale) * e_dr + abs(radial) * grad * e_r)


def local_qfi_fd(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> Reading:
    """`read_local_qfi` of `evolve_point(spec, n, angles, sel)`."""
    return read_local_qfi(evolve_point(spec, n, angles, sel))


def qcr_bound(i_theta: float, m_measurements: int) -> float:
    """Cramer-Rao variance bound 1/(M I); returns inf when I = 0 (the
    parameter is not encoded, so the variance is unbounded)."""
    if i_theta < 0:
        raise ValueError("QFI must be non-negative")
    if m_measurements < 1:
        raise ValueError("M must be a positive integer")
    if i_theta == 0.0:
        return math.inf
    return 1.0 / (m_measurements * i_theta)


def first_moment_result(variance: float, mean_derivative: float, error: float,
                        m_measurements: int) -> FirstMomentResult:
    """The one rule from (Var A, d<A>/d theta) to the uncertainty

        delta = sqrt(Var A) / (sqrt(M) |d<A>/d theta|)

    given a bound `error` on the error of d<A>/d theta.  Flags, first match:
    `insensitive` (delta = inf, 1/delta^2 = 0) when the derivative lies within
    its error or 1e-14 sqrt(Var A), as it cannot be told from an exactly
    vanishing one; `nonpositive_variance` (delta = nan, 1/delta^2 = M d^2 / Var,
    inf at Var = 0) when Var A <= 0, which an expanded variance can reach; and
    `ill_conditioned` when error / |d<A>/d theta| exceeds RELATIVE_ERROR_TOL.
    """
    if m_measurements < 1:
        raise ValueError("M must be a positive integer")
    deriv = mean_derivative
    disc = _relative(error, deriv)
    moments = {"variance": variance, "mean_derivative": deriv}
    if abs(deriv) <= max(INSENSITIVE_TOL * math.sqrt(max(variance, 0.0)), error):
        return FirstMomentResult(0.0, disc, "insensitive", delta=math.inf, **moments)
    inv_sq = m_measurements * deriv ** 2 / variance if variance != 0.0 else math.inf
    if variance <= 0.0:
        return FirstMomentResult(inv_sq, disc, "nonpositive_variance", delta=math.nan,
                                 **moments)
    return FirstMomentResult(inv_sq, disc, "" if disc <= RELATIVE_ERROR_TOL else "ill_conditioned",
                             delta=1.0 / math.sqrt(inv_sq), **moments)


def read_first_moment(point: EvolvedPoint, observable: np.ndarray,
                      m_measurements: int = 1) -> FirstMomentResult:
    """`first_moment_result` of a bus observable A: <A> and Var(A) on the
    reduced bus state and the exact derivative d<A>/d theta = Tr(d rho A),
    whose error is at most ||A||_2 times the trace-norm error of d rho."""
    a = check_hermitian_2x2(observable)
    rho0 = point.bus_density.rho
    drho, drho_error = point.bus_derivative
    mean = float(np.trace(rho0 @ a).real)
    return first_moment_result(float(np.trace(rho0 @ a @ a).real) - mean ** 2,
                               float(np.trace(drho @ a).real),
                               float(np.linalg.norm(a, 2)) * drho_error, m_measurements)


def first_moment_uncertainty(spec: ModelSpec, n: int, angles: StateAngles, sel: Param,
                             observable: np.ndarray, m_measurements: int = 1) -> FirstMomentResult:
    """`read_first_moment` of `evolve_point(spec, n, angles, sel)`."""
    return read_first_moment(evolve_point(spec, n, angles, sel), observable, m_measurements)
