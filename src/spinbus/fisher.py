"""Quantum Fisher information and first-moment measurement uncertainties.

`evolve_point` solves a point once: the evolved state, its exact derivative
d|psi>/d theta from the same eigendecomposition, and the states at theta +- h
for a central finite-difference check.  From that record `read_global_qfi`
gives the QFI of the pure evolved state, `read_local_qfi` the QFI of the
reduced bus qubit via its Bloch vector, and `read_first_moment` the
uncertainty of estimating a parameter from the sample mean of a fixed bus
observable.  Each result carries the relative discrepancy of its check value,
so that ill-conditioned configurations are flagged instead of silently
reported.  Also the Bures distance and the Cramer-Rao bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

import numpy as np

from .dynamics import ModelSpec, assemble, evolve, evolve_derivative
from .paulis import check_hermitian_2x2
from .states import StateAngles, SymmetricState, build_product_state

FD_STEP_CHECK = 1e-6
FD_DISCREPANCY_TOL = 1e-3
NEGATIVE_CLAMP = 1e-10
PURE_BOUNDARY_TOL = 1e-9
INSENSITIVE_TOL = 1e-14


class Param(Enum):
    """Which Hamiltonian parameter is being estimated."""

    X = "x"
    OMEGA0 = "omega0"
    OMEGA1 = "omega1"

    @property
    def field(self) -> str:
        return self.value


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

    def bloch(self) -> np.ndarray:
        """(r_x, r_y, r_z) with rho = (I + r . sigma)/2."""
        return _bloch_vector(self.rho)


def _bloch_vector(a: np.ndarray) -> np.ndarray:
    """(tr(a X), tr(a Y), tr(a Z)) of a 2x2 Hermitian matrix a."""
    return np.array([2.0 * a[0, 1].real, -2.0 * a[0, 1].imag, (a[0, 0] - a[1, 1]).real])


@dataclass(frozen=True)
class QfiResult:
    """QFI value plus the finite-difference cross-check.

    `value` uses the exact state derivative, `value_check` the central
    difference at `fd_step_check`, and `relative_discrepancy` compares the
    two; above 1e-3 the result is flagged `ill_conditioned`.  That happens
    when the QFI itself is tiny (round-off in the state difference scales
    like 1/step) or the check step no longer resolves the dynamics.
    """

    value: float
    value_check: float
    fd_step_check: float
    relative_discrepancy: float
    ill_conditioned: bool = False
    clamped: bool = False


@dataclass(frozen=True)
class FirstMomentResult:
    """Uncertainty of theta estimated from the sample mean of a bus observable."""

    delta: float
    inv_squared: float
    variance: float
    mean_derivative: float
    relative_discrepancy: float
    insensitive: bool = False


def _discrepancy(a: float, b: float) -> float:
    ref = max(abs(a), abs(b))
    return 0.0 if ref == 0.0 else abs(a - b) / ref


@dataclass(frozen=True)
class EvolvedPoint:
    """One solved point: the evolved state `psi`, its exact derivative `dpsi`
    (d|psi>/d theta in the |m, s> layout), and the states `plus` and `minus`
    at theta +- `check_step` for the finite-difference check."""

    psi: SymmetricState
    dpsi: np.ndarray
    plus: SymmetricState
    minus: SymmetricState
    check_step: float

    @cached_property
    def bus_densities(self) -> tuple:
        """Reduced bus densities of `psi`, `plus` and `minus`, built once."""
        return tuple(reduce_to_bus(s) for s in (self.psi, self.plus, self.minus))


def evolve_point(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> EvolvedPoint:
    """Evolve the product state under `spec` and differentiate it exactly in
    `sel` from one eigendecomposition of H, then evolve the same product
    state under H(theta +- h) for the check states, each its own
    eigensolve, so the check stays independent of the exact derivative.

    The check step is h = 1e-6 * max(1, |theta|) / sqrt(max(1, |t| ||G||)),
    with ||G|| the Gershgorin bound of G = dH/d theta: the truncation error
    of the central difference grows like (h t ||G||)^2, so a fixed step
    falls short once the generator imprints a large phase.
    """
    g = assemble(spec, n, wrt=sel.field)
    psi0 = build_product_state(n, angles)
    psi, dpsi = evolve_derivative(assemble(spec, n), g, spec.t, psi0)
    theta = getattr(spec, sel.field)
    h = (FD_STEP_CHECK * max(1.0, abs(theta))
         / math.sqrt(max(1.0, abs(spec.t) * g.norm_bound)))
    plus = evolve(assemble(spec.replaced(**{sel.field: theta + h}), n), spec.t, psi0)
    minus = evolve(assemble(spec.replaced(**{sel.field: theta - h}), n), spec.t, psi0)
    return EvolvedPoint(psi, dpsi, plus, minus, h)


def _pure_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)


def read_global_qfi(point: EvolvedPoint) -> QfiResult:
    """QFI of the evolved pure state, I = 4(<d psi|d psi> - |<psi|d psi>|^2),
    with the exact |d psi>; the check value uses central differences."""
    psi, h = point.psi.amplitudes, point.check_step
    value = _pure_qfi(psi, point.dpsi)
    value_check = _pure_qfi(psi, (point.plus.amplitudes - point.minus.amplitudes) / (2.0 * h))

    disc = _discrepancy(value, value_check)
    clamped = False
    if value < 0.0 or value_check < 0.0:
        if min(value, value_check) < -NEGATIVE_CLAMP:
            raise ArithmeticError(
                f"QFI came out negative beyond round-off: {value}, {value_check}")
        value, value_check = max(value, 0.0), max(value_check, 0.0)
        clamped = True
    return QfiResult(value=value, value_check=value_check, fd_step_check=h,
                     relative_discrepancy=disc,
                     ill_conditioned=disc > FD_DISCREPANCY_TOL, clamped=clamped)


def global_qfi_fd(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> QfiResult:
    """`read_global_qfi` of `evolve_point(spec, n, angles, sel)`."""
    return read_global_qfi(evolve_point(spec, n, angles, sel))


def bures_distance(state_a: SymmetricState, state_b: SymmetricState) -> float:
    """Pure-state Bures distance sqrt(2) * sqrt(1 - |<a|b>|)."""
    for s in (state_a, state_b):
        norm = np.linalg.norm(s.amplitudes)
        if abs(norm - 1.0) > 1e-6:
            raise ValueError(f"state norm {norm} is off unity by more than 1e-6")
    if state_a.dim != state_b.dim:
        raise ValueError("states must share a dimension")
    fidelity = abs(np.vdot(state_a.amplitudes, state_b.amplitudes))
    return math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - fidelity))


def reduce_to_bus(state: SymmetricState) -> BusDensity:
    """Trace out the probes: rho_{s s'} = sum_m c_{m,s} conj(c_{m,s'})."""
    rho = _bus_block(state.amplitudes, state.amplitudes)
    # symmetrize away the last bit of rounding so BusDensity validation holds
    rho = 0.5 * (rho + rho.conj().T)
    return BusDensity(rho / np.trace(rho).real)


def _bus_block(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Tr_probes |a><b|: sum_m a_{m,s} conj(b_{m,s'})."""
    return np.einsum("ms,mt->st", a.reshape(-1, 2), b.reshape(-1, 2).conj())


def _bus_derivative(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """d rho_bus = Tr_probes(|d psi><psi| + |psi><d psi|)."""
    half = _bus_block(dpsi, psi)
    return half + half.conj().T


def qubit_qfi(rho0: BusDensity, rho_plus: BusDensity, rho_minus: BusDensity,
              step: float) -> float:
    """Single-qubit QFI from the Bloch vector: |dr|^2 + (r.dr)^2/(1 - |r|^2).

    The derivative dr comes from central differences of the densities at
    theta +- step.  At the pure boundary |r| -> 1 the second term is dropped
    when the motion is tangent (|r.dr| < 1e-9 |dr|); a non-tangent derivative
    there means the parameter pushes rho off the state space and raises.
    """
    if step <= 0:
        raise ValueError("step must be positive")
    return _bloch_qfi(rho0.bloch(), (rho_plus.bloch() - rho_minus.bloch()) / (2.0 * step))


def _bloch_qfi(r: np.ndarray, dr: np.ndarray) -> float:
    """|dr|^2 + (r.dr)^2/(1 - |r|^2), with qubit_qfi's pure-boundary rules."""
    r_sq = float(r @ r)
    if r_sq > 1.0 + PURE_BOUNDARY_TOL:
        raise ValueError(f"|r| = {math.sqrt(r_sq)} exceeds 1: invalid density")
    dr_sq = float(dr @ dr)
    radial = float(r @ dr)
    if r_sq < 1.0 - PURE_BOUNDARY_TOL:
        return dr_sq + radial ** 2 / (1.0 - r_sq)
    if dr_sq == 0.0:
        return 0.0
    if abs(radial) < PURE_BOUNDARY_TOL * math.sqrt(dr_sq):
        return dr_sq
    raise ArithmeticError(
        "derivative is not tangent at the pure-state boundary "
        f"(|r.dr| = {abs(radial)}): QFI is singular here")


def read_local_qfi(point: EvolvedPoint) -> QfiResult:
    """QFI of the reduced bus state from its Bloch vector and the exact
    derivative d rho = Tr_probes(|d psi><psi| + |psi><d psi|); the check
    value uses central differences of the Bloch vector."""
    psi, h = point.psi, point.check_step
    rho0, rho_plus, rho_minus = point.bus_densities
    value = _bloch_qfi(rho0.bloch(), _bloch_vector(_bus_derivative(psi.amplitudes, point.dpsi)))
    value_check = qubit_qfi(rho0, rho_plus, rho_minus, h)

    disc = _discrepancy(value, value_check)
    return QfiResult(value=value, value_check=value_check, fd_step_check=h,
                     relative_discrepancy=disc,
                     ill_conditioned=disc > FD_DISCREPANCY_TOL)


def local_qfi_fd(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> QfiResult:
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


def read_first_moment(point: EvolvedPoint, observable: np.ndarray,
                      m_measurements: int = 1) -> FirstMomentResult:
    """Uncertainty of theta from the sample mean of I^(x)N (x) A:

        delta = sqrt(Var(A)) / (sqrt(M) |d<A>/d theta|)

    with <A> and Var(A) evaluated on the reduced bus state and the exact
    derivative d<A>/d theta = Tr(d rho A); the discrepancy is against the
    central difference at the check step.
    """
    a = check_hermitian_2x2(observable)
    if m_measurements < 1:
        raise ValueError("M must be a positive integer")

    def mean_of(rho: np.ndarray) -> float:
        return float(np.trace(rho @ a).real)

    rho0, rho_plus, rho_minus = (density.rho for density in point.bus_densities)
    mean = mean_of(rho0)
    variance = max(0.0, float(np.trace(rho0 @ a @ a).real) - mean ** 2)
    deriv = mean_of(_bus_derivative(point.psi.amplitudes, point.dpsi))
    deriv_check = (mean_of(rho_plus) - mean_of(rho_minus)) / (2.0 * point.check_step)
    disc = _discrepancy(deriv, deriv_check)

    # an exact derivative below the round-off floor of Tr(d rho A) cannot be
    # distinguished from an exactly vanishing one
    noise_floor = (64.0 * np.finfo(float).eps * float(np.linalg.norm(a, 2))
                   * float(np.linalg.norm(point.dpsi)))
    if abs(deriv) <= max(INSENSITIVE_TOL * math.sqrt(variance), noise_floor):
        return FirstMomentResult(delta=math.inf, inv_squared=0.0,
                                 variance=variance, mean_derivative=deriv,
                                 relative_discrepancy=disc, insensitive=True)
    if variance == 0.0:
        # zero-variance observable with a residual derivative: delta -> 0
        return FirstMomentResult(delta=0.0, inv_squared=math.inf,
                                 variance=variance, mean_derivative=deriv,
                                 relative_discrepancy=disc)
    inv_sq = m_measurements * deriv ** 2 / variance
    return FirstMomentResult(delta=1.0 / math.sqrt(inv_sq), inv_squared=inv_sq,
                             variance=variance, mean_derivative=deriv,
                             relative_discrepancy=disc)


def first_moment_uncertainty(spec: ModelSpec, n: int, angles: StateAngles, sel: Param,
                             observable: np.ndarray, m_measurements: int = 1) -> FirstMomentResult:
    """`read_first_moment` of `evolve_point(spec, n, angles, sel)`."""
    return read_first_moment(evolve_point(spec, n, angles, sel), observable, m_measurements)
