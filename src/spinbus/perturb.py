"""Perturbative quantum Fisher information and observable uncertainties.

Two expansions are implemented:

* Interaction in the perturbation (weak coupling): the QFI is a double time
  integral of a connected correlation function of the interaction-picture
  derivative of the perturbing term, with an N (single-probe) and an N^2
  (bus-variance) contribution.
* Parameter in the dominant term (strong coupling): the zeroth-order QFI is
  4 t^2 times the variance of the derivative of the dominant Hamiltonian in
  the initial state, computed generically from the collective matrices.

Also provided: the condition integral whose non-vanishing predicts N^2
scaling, and the second-order expansion of the variance and mean derivative
of a local bus observable (single- and double-time-ordered integrals).

All time integrals use tensor-product Gauss-Legendre quadrature; the
trigonometric integrands are analytic, so convergence is spectral.  Results
carry regime metadata (eps*N, delta*N, N*lambda_max*t*delta) but are never
suppressed out of regime: probing the breakdown is a supported use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import paulis
from .dynamics import ModelKind, ModelSpec, assemble
from .fisher import INSENSITIVE_TOL, Param
from .states import StateAngles, build_product_state

# (probe operator P with S = x/2 P, bus operator R) per model
_COUPLING = {
    ModelKind.ZZZZ: (paulis.Z, paulis.Z),
    ModelKind.ZZXX: (paulis.X, paulis.X),
    ModelKind.ZZZX: (paulis.Z, paulis.X),
}

# Gauss-Legendre nodes per time axis of every quadrature; read at call time
QUADRATURE_ORDER = 64


@dataclass(frozen=True)
class PtResult:
    """Perturbative QFI with its per-N decomposition and regime metadata.

    value = linear_coefficient * N + quadratic_coefficient * N^2 where the
    coefficients include the square of the small parameter.  The zeroth-order
    strong-coupling result has no such decomposition (coefficients None).
    """

    value: float
    linear_coefficient: float | None
    quadratic_coefficient: float | None
    eps_times_n: float
    delta_times_n: float
    free_norm_t: float


@dataclass(frozen=True)
class PerturbativeUncertainty:
    delta: float
    inv_squared: float
    variance: float
    mean_derivative: float
    insensitive: bool = False
    flag: str | None = None


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _nodes_on(a: float, b: float):
    nodes, weights = _gauss_nodes(QUADRATURE_ORDER)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def _qubit_state(theta: float, phase: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phase)])


_Z_DIFF = np.array([[0.0, 2.0], [-2.0, 0.0]])  # z_j - z_k for z = (1, -1)


def _free_conjugate(op: np.ndarray, splitting: float, times: np.ndarray) -> np.ndarray:
    """exp(i w t Z/2) op exp(-i w t Z/2) for every t, shape (..., 2, 2)."""
    phases = np.exp(0.5j * splitting * times[..., None, None] * _Z_DIFF)
    return phases * op


def _sandwich(vec: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """<vec| op |vec> over the trailing 2x2 axes."""
    return np.einsum("p,...pq,q->...", vec.conj(), ops, vec)


def _pair_products(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """All products a[i] @ b[j], shape (len(a), len(b), 2, 2)."""
    return np.einsum("ipq,jqr->ijpr", a, b)


def _regime(spec: ModelSpec, n: int) -> dict:
    return dict(
        eps_times_n=abs(spec.epsilon) * n,
        delta_times_n=abs(spec.delta) * n,
        free_norm_t=n * 0.5 * abs(spec.omega1) * spec.t * abs(spec.delta),
    )


def _pt1_x_integrals(spec: ModelSpec, angles: StateAngles):
    """Double integrals of the single-probe and bus correlation pieces for
    the coupling parameter; returns (linear_integral, quadratic_integral)."""
    probe = _qubit_state(angles.alpha, angles.phi)
    bus = _qubit_state(angles.beta, angles.varphi)
    taus, weights = _nodes_on(0.0, spec.t)
    probe_op, bus_op = _COUPLING[spec.kind]
    s_prime = _free_conjugate(0.5 * probe_op, spec.delta * spec.omega1, taus)
    r_op = _free_conjugate(bus_op, spec.delta * spec.omega0, taus)

    s_mean = _sandwich(probe, s_prime)
    ss = _sandwich(probe, _pair_products(s_prime, s_prime))
    rr = _sandwich(bus, _pair_products(r_op, r_op))
    r_mean = _sandwich(bus, r_op)

    k_probe = ss - np.outer(s_mean, s_mean)
    k_bus = rr - np.outer(r_mean, r_mean)

    linear = weights @ (k_probe * rr) @ weights
    quadratic = weights @ (np.outer(s_mean, s_mean) * k_bus) @ weights
    return linear, quadratic


def pt1_qfi_x(spec: ModelSpec, n: int, angles: StateAngles) -> PtResult:
    """Lowest-order QFI for the coupling x in the weak-interaction expansion:

        I_x = 4 eps^2 integral[ N K_probe(S'(t1), S'(t2)) <R(t1) R(t2)>
                               + N^2 <S'(t1)><S'(t2)> K_bus(R(t1), R(t2)) ]

    with interaction-picture operators built by exact 2x2 conjugation and
    the double integral over [0, t]^2 by Gauss-Legendre quadrature.
    """
    lin_int, quad_int = _pt1_x_integrals(spec, angles)
    scale = 4.0 * spec.epsilon ** 2
    linear = scale * float(lin_int.real)
    quadratic = scale * float(quad_int.real)
    return PtResult(value=linear * n + quadratic * n ** 2,
                    linear_coefficient=linear, quadratic_coefficient=quadratic,
                    **_regime(spec, n))


def hl_condition(spec: ModelSpec, angles: StateAngles) -> float:
    """Value of the condition integral

        integral <S'(t1)><S'(t2)> K_bus(R(t1), R(t2))

    whose magnitude exceeding ~1e-10 predicts N^2 scaling of I_x.  With
    eps = 1 the quadratic PT coefficient equals 4 times this value.
    """
    _, quad_int = _pt1_x_integrals(spec, angles)
    return float(quad_int.real)


def pt1_qfi_omega1(spec: ModelSpec, n: int, angles: StateAngles) -> PtResult:
    """Lowest-order QFI for the probe splitting omega1 in the
    strong-interaction expansion.

    The interaction-picture derivative of a single probe term, Z_i/2
    conjugated with exp(i eps t H_int), closes in the (probe_i x bus)
    algebra: the factors for the other probes commute through because their
    bus parts match the transformed operator's bus dependence.  Sandwiching
    the probe index with |probe> leaves 2x2 bus operators whose connected
    correlations give the N and N^2 terms.
    """
    probe_op, bus_op = _COUPLING[spec.kind]

    probe = _qubit_state(angles.alpha, angles.phi)
    bus = _qubit_state(angles.beta, angles.varphi)
    taus, weights = _nodes_on(0.0, spec.t)

    # V(tau) = exp(i eps x tau/2 (P x R)) = cos(a) I + i sin(a) (P x R)
    generator = np.kron(probe_op, bus_op)
    a = 0.5 * spec.epsilon * spec.x * taus
    eye = np.eye(4)
    v = (np.cos(a)[:, None, None] * eye
         + 1j * np.sin(a)[:, None, None] * generator)
    z_half = np.kron(0.5 * paulis.Z, np.eye(2))
    m_ops = np.einsum("ipq,qr,isr->ips", v, z_half, v.conj())

    # sandwich the probe index: 2x2 bus operators B(tau)
    m_blocks = m_ops.reshape(-1, 2, 2, 2, 2)  # (tau, p, s, p', s')
    b_ops = np.einsum("p,ipsqt,q->ist", probe.conj(), m_blocks, probe)

    # <probe| M(t1) M(t2) |probe>, still a bus operator
    prod = np.einsum("ipq,jqr->ijpr", m_ops, m_ops).reshape(-1, len(taus), 2, 2, 2, 2)
    c_ops = np.einsum("p,ijpsqt,q->ijst", probe.conj(), prod, probe)

    bb = np.einsum("ipq,jqr->ijpr", b_ops, b_ops)
    xi_c = _sandwich(bus, c_ops)
    xi_bb = _sandwich(bus, bb)
    b_mean = _sandwich(bus, b_ops)

    lin_int = weights @ (xi_c - xi_bb) @ weights
    quad_int = weights @ (xi_bb - np.outer(b_mean, b_mean)) @ weights
    scale = 4.0 * spec.delta ** 2
    linear = scale * float(lin_int.real)
    quadratic = scale * float(quad_int.real)
    return PtResult(value=linear * n + quadratic * n ** 2,
                    linear_coefficient=linear, quadratic_coefficient=quadratic,
                    **_regime(spec, n))


def pt2_qfi_zeroth(spec: ModelSpec, n: int, angles: StateAngles,
                   sel: Param) -> PtResult:
    """Zeroth-order QFI when the estimated parameter sits in the dominant
    Hamiltonian: I = 4 t^2 Var_psi0(d_theta H_dominant), evaluated from the
    tridiagonal generator `assemble` gives rather than any specialized
    formula."""
    if sel is Param.OMEGA0:
        raise ValueError("no zeroth-order expansion is provided for omega0")
    # d/dx of eps*x*(K (x) B), or d/d omega1 of delta*omega1*J_z (x) I
    generator = assemble(spec, n, wrt=sel.field)
    psi = generator.to_blocks(build_product_state(n, angles).amplitudes)
    g_psi = generator.block_mul(psi)
    mean = np.vdot(psi, g_psi).real
    variance = np.vdot(g_psi, g_psi).real - mean ** 2
    return PtResult(value=4.0 * spec.t ** 2 * float(variance),
                    linear_coefficient=None, quadratic_coefficient=None,
                    **_regime(spec, n))


def appendix_local_uncertainty(spec: ModelSpec, n: int, angles: StateAngles,
                               observable: np.ndarray, sel: Param,
                               m_measurements: int = 1) -> PerturbativeUncertainty:
    """Second-order expansion of the first-moment uncertainty of a bus
    observable A, combining the expanded variance and mean derivative.

    The observable enters in the free picture at the final time,
    A~ = exp(i delta H_R t) A exp(-i delta H_R t); with a static A the
    free bus precession term (tan(delta w0 t) in the pure-dephasing
    benchmark) would be lost.  B = A~^2 - 2<A~>A~ appears in the variance
    integrands.  Time-ordered double integrals run over the triangle
    t2 < t1 (mapped to a square by t2 = u t1); the final variance term is
    the full square [0,t]^2, which factorizes into a single integral
    squared.  Only the probe operators S(t) depend on x or omega1, and the
    expanded mean is linear in S(t1) and separately in S(t2), so its
    derivative is the same quadrature with dS/dtheta in place of S
    (product rule): exact, with no step size.
    """
    if sel is Param.OMEGA0:
        raise ValueError("the expansion targets x or omega1, not omega0")
    if m_measurements < 1:
        raise ValueError("M must be a positive integer")
    a_op = paulis.check_hermitian_2x2(observable)
    probe = _qubit_state(angles.alpha, angles.phi)
    bus = _qubit_state(angles.beta, angles.varphi)

    a_tilde = _free_conjugate(a_op, spec.delta * spec.omega0,
                              np.array(spec.t))  # final-time free picture
    a_mean = complex(_sandwich(bus, a_tilde))
    b_tilde = a_tilde @ a_tilde - 2.0 * a_mean * a_tilde
    var0 = float((_sandwich(bus, a_tilde @ a_tilde) - a_mean ** 2).real)

    taus, w1 = _nodes_on(0.0, spec.t)
    unit, wu = _nodes_on(0.0, 1.0)
    t2_grid = taus[:, None] * unit[None, :]
    w2 = (w1 * taus)[:, None] * wu[None, :]

    probe_op, bus_op = _COUPLING[spec.kind]
    probe_splitting = spec.delta * spec.omega1

    def s_and_derivative(times):
        """S(t) = x/2 P in the free picture, and dS/dtheta."""
        s = _free_conjugate(0.5 * spec.x * probe_op, probe_splitting, times)
        if sel is Param.X:
            return s, _free_conjugate(0.5 * probe_op, probe_splitting, times)
        return s, 0.5j * spec.delta * times[..., None, None] * _Z_DIFF * s

    s_1, ds_1 = s_and_derivative(taus)
    s_2, ds_2 = s_and_derivative(t2_grid)
    r_1 = _free_conjugate(bus_op, spec.delta * spec.omega0, taus)
    r_2 = _free_conjugate(bus_op, spec.delta * spec.omega0, t2_grid)

    def bus_factors(op):
        """<[R(t1), op]>, <[R(t1), op] R(t2)> and <R(t2) [op, R(t1)]>."""
        comm_1 = np.einsum("ipq,qr->ipr", r_1, op) - np.einsum("pq,iqr->ipr", op, r_1)
        g1 = _sandwich(bus, np.einsum("ipq,ijqr->ijpr", comm_1, r_2))
        g2 = _sandwich(bus, np.einsum("ijpq,iqr->ijpr", r_2, -comm_1))
        return _sandwich(bus, comm_1), g1, g2

    def first(u_1, factors):
        """First-order integral, linear in the probe operator u(t1)."""
        return n * np.sum(w1 * _sandwich(probe, u_1) * factors[0])

    def triangle(u_1, v_2, factors):
        """Time-ordered second-order integral, linear in u(t1) and in v(t2)."""
        _, g1, g2 = factors
        pair = n * (n - 1) * _sandwich(probe, u_1)[:, None] * _sandwich(probe, v_2)
        fwd = _sandwich(probe, np.einsum("ipq,ijqr->ijpr", u_1, v_2))
        rev = _sandwich(probe, np.einsum("ijpq,iqr->ijpr", v_2, u_1))
        return np.sum(w2 * ((pair + n * fwd) * g1 + (pair + n * rev) * g2))

    a_factors = bus_factors(a_tilde)
    b_factors = bus_factors(b_tilde)
    eps = spec.epsilon
    variance = float((var0 + 1j * eps * first(s_1, b_factors)
                      + eps ** 2 * triangle(s_1, s_2, b_factors)
                      + eps ** 2 * first(s_1, a_factors) ** 2).real)
    # d/dtheta of the expanded mean Re(i eps first_A + eps^2 triangle_A)
    deriv = float((1j * eps * first(ds_1, a_factors)
                   + eps ** 2 * (triangle(ds_1, s_2, a_factors)
                                 + triangle(s_1, ds_2, a_factors))).real)

    if abs(deriv) <= INSENSITIVE_TOL * math.sqrt(max(variance, 0.0)):
        return PerturbativeUncertainty(delta=math.inf, inv_squared=0.0,
                                       variance=variance, mean_derivative=deriv,
                                       insensitive=True)
    if variance <= 0.0:
        return PerturbativeUncertainty(delta=math.nan,
                                       inv_squared=m_measurements * deriv ** 2 / variance
                                       if variance != 0.0 else math.inf,
                                       variance=variance, mean_derivative=deriv,
                                       flag="nonpositive_variance")
    inv_sq = m_measurements * deriv ** 2 / variance
    return PerturbativeUncertainty(delta=1.0 / math.sqrt(inv_sq),
                                   inv_squared=inv_sq, variance=variance,
                                   mean_derivative=deriv)
