"""Perturbative quantum Fisher information and observable uncertainties.

Both QFI expansions read one kernel, `_connected_integrals`: the QFI of N
product-state probes sharing the bus is an N term (one probe's connected
correlation) plus an N^2 term (the correlation the bus carries) of one
probe's term of dH/dtheta:

* interaction in the perturbation (weak coupling): that term in the
  interaction picture, double-integrated over [0, t]^2;
* parameter in the dominant term (strong coupling): 4 t^2 times its
  variance in the initial state, the kernel at a single time.

Also provided: the condition integral whose non-vanishing predicts N^2
scaling, and the second-order expansion of the variance and mean derivative
of a local bus observable (single- and double-time-ordered integrals).

All time integrals use tensor-product Gauss-Legendre quadrature; the
trigonometric integrands are analytic, so convergence is spectral.  Results
are never suppressed out of regime: probing the breakdown is a supported use.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import paulis
from .dynamics import ModelKind, ModelSpec, Param
from .fisher import FirstMomentResult, Reading, first_moment_result
from .states import StateAngles

# (probe operator P with S = x/2 P, bus operator R) per model
_COUPLING = {
    ModelKind.ZZZZ: (paulis.Z, paulis.Z),
    ModelKind.ZZXX: (paulis.X, paulis.X),
    ModelKind.ZZZX: (paulis.Z, paulis.X),
}

# Gauss-Legendre nodes per time axis of every quadrature; read at call time
QUADRATURE_ORDER = 64


@dataclass(frozen=True, kw_only=True)
class PtResult(Reading):
    """Perturbative QFI with its per-N decomposition; nothing is certified
    (`relative_discrepancy` is nan).

    value = linear_coefficient * N + quadratic_coefficient * N^2 for every
    expansion; the coefficients include the square of the expansion's
    parameter (and t^2 at zeroth order).
    """

    linear_coefficient: float
    quadratic_coefficient: float


@lru_cache(maxsize=32)
def _gauss_nodes(order: int):
    nodes, weights = np.polynomial.legendre.leggauss(order)
    return nodes, weights


def _nodes_on(a: float, b: float, order: int):
    nodes, weights = _gauss_nodes(order)
    half = 0.5 * (b - a)
    return a + half * (nodes + 1.0), half * weights


def _qubit_state(theta: float, phase: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phase)])


_Z_DIFF = np.array([[0.0, 2.0], [-2.0, 0.0]])  # z_j - z_k for z = (1, -1)
_Z_HALF_PROBE = np.kron(0.5 * paulis.Z, np.eye(2))  # Z/2 (x) I on probe (x) bus


def _free_conjugate(op: np.ndarray, splitting: float, times: np.ndarray) -> np.ndarray:
    """exp(i w t Z/2) op exp(-i w t Z/2) for every t, shape (..., 2, 2)."""
    phases = np.exp(0.5j * splitting * times[..., None, None] * _Z_DIFF)
    return phases * op


def _sandwich(vec: np.ndarray, ops: np.ndarray) -> np.ndarray:
    """<vec| op |vec> over the trailing 2x2 axes."""
    return np.einsum("p,...pq,q->...", vec.conj(), ops, vec)


def _coupling(spec: ModelSpec, sel: Param) -> float:
    """theta's coupling in H = delta H_free + eps x H_int: eps for x, delta
    for omega1.  No expansion is provided for omega0."""
    if sel is Param.OMEGA0:
        raise ValueError("the expansions target x or omega1, not omega0")
    return spec.epsilon if sel is Param.X else spec.delta


def _expansion(n: int, scale: float, integrals: tuple) -> PtResult:
    """a N + b N^2 with (a, b) = scale * (linear, quadratic integral)."""
    a, b = (scale * part for part in integrals)
    return PtResult(a * n + b * n ** 2, linear_coefficient=a, quadratic_coefficient=b)


def _connected_integrals(m_ops: np.ndarray, weights: np.ndarray,
                         angles: StateAngles) -> tuple:
    """(linear, quadratic) integrals over the nodes of one probe's term M(tau),
    a (probe x bus) 4x4 operator, in the product state.  Sandwiching the probe
    index leaves the bus operator B(tau) = <M(tau)>; with both factors centred,
    dM = M - I x B and dB = B - <B> I, linear = <dM(t1) dM(t2)> and quadratic
    = <dB(t1) dB(t2)>, so a sum of N such terms at one time has the variance
    linear N + quadratic N^2 without a difference of large moments."""
    probe = _qubit_state(angles.alpha, angles.phi)
    bus = _qubit_state(angles.beta, angles.varphi)
    m_blocks = m_ops.reshape(-1, 2, 2, 2, 2)  # (tau, p, s, p', s')
    b_ops = np.einsum("p,ipsqt,q->ist", probe.conj(), m_blocks, probe)
    dm = (m_blocks - np.einsum("pq,ist->ipsqt", np.eye(2), b_ops)).reshape(-1, 4, 4)
    prod = np.einsum("ipq,jqr->ijpr", dm, dm).reshape(-1, len(weights), 2, 2, 2, 2)
    linear = _sandwich(bus, np.einsum("p,ijpsqt,q->ijst", probe.conj(), prod, probe))
    db = b_ops - _sandwich(bus, b_ops)[:, None, None] * np.eye(2)
    quadratic = _sandwich(bus, np.einsum("ipq,jqr->ijpr", db, db))
    return (float((weights @ linear @ weights).real),
            float((weights @ quadratic @ weights).real))


@lru_cache(maxsize=256)
def _pt1_integrals(spec: ModelSpec, angles: StateAngles, sel: Param, order: int) -> tuple:
    """`_connected_integrals` of one probe's term of dH/d theta (x or omega1)
    in the interaction picture, over [0, t]^2."""
    probe_op, bus_op = _COUPLING[spec.kind]
    taus, weights = _nodes_on(0.0, spec.t, order)
    if sel is Param.X:
        # S'(tau) (x) R(tau), each factor conjugated with the free evolution
        s_prime = _free_conjugate(0.5 * probe_op, spec.delta * spec.omega1, taus)
        r_op = _free_conjugate(bus_op, spec.delta * spec.omega0, taus)
        m_ops = np.einsum("ipq,irs->iprqs", s_prime, r_op).reshape(-1, 4, 4)
    else:
        # V(tau) = exp(i eps x tau/2 (P x R)) = cos(a) I + i sin(a) (P x R)
        a = 0.5 * spec.epsilon * spec.x * taus
        v = (np.cos(a)[:, None, None] * np.eye(4)
             + 1j * np.sin(a)[:, None, None] * np.kron(probe_op, bus_op))
        m_ops = np.einsum("ipq,qr,isr->ips", v, _Z_HALF_PROBE, v.conj())
    return _connected_integrals(m_ops, weights, angles)


def pt1_qfi(spec: ModelSpec, n: int, angles: StateAngles, sel: Param) -> PtResult:
    """Lowest-order QFI with the estimated parameter in the perturbation.

    For the coupling x, the weak-interaction expansion:

        I_x = 4 eps^2 integral[ N K_probe(S'(t1), S'(t2)) <R(t1) R(t2)>
                               + N^2 <S'(t1)><S'(t2)> K_bus(R(t1), R(t2)) ]

    the connected correlations of S'(tau) (x) R(tau), with the double
    integral over [0, t]^2 by Gauss-Legendre quadrature.

    For the probe splitting omega1, the strong-interaction expansion, with
    4 delta^2 in place of 4 eps^2: the interaction-picture derivative of a
    single probe term, Z_i/2 conjugated with exp(i eps t H_int), closes in the
    (probe_i x bus) algebra, as the factors for the other probes commute
    through because their bus parts match the transformed operator's bus
    dependence.
    """
    return _expansion(n, 4.0 * _coupling(spec, sel) ** 2,
                      _pt1_integrals(spec, angles, sel, QUADRATURE_ORDER))


def hl_condition(spec: ModelSpec, angles: StateAngles) -> float:
    """Value of the condition integral

        integral <S'(t1)><S'(t2)> K_bus(R(t1), R(t2))

    whose magnitude exceeding ~1e-10 predicts N^2 scaling of I_x.  With
    eps = 1 the quadratic PT coefficient equals 4 times this value.
    """
    return _pt1_integrals(spec, angles, Param.X, QUADRATURE_ORDER)[1]


def pt2_qfi_zeroth(spec: ModelSpec, n: int, angles: StateAngles,
                   sel: Param) -> PtResult:
    """Zeroth-order QFI when the estimated parameter sits in the dominant
    Hamiltonian: I = 4 t^2 Var_psi0(d_theta H_dominant), where d_theta H sums
    eps (P/2 x R) (for x) or delta (Z/2 x I) (for omega1) over the probes:
    `_connected_integrals` at a single time."""
    return _expansion(n, 4.0 * (_coupling(spec, sel) * spec.t) ** 2,
                      _pt2_integrals(spec.kind, angles, sel))


@lru_cache(maxsize=8)
def _pt2_integrals(kind: ModelKind, angles: StateAngles, sel: Param) -> tuple:
    """`_connected_integrals` of P/2 x R (x) or Z/2 x I (omega1) at a single
    time: free of N and of the regime, so a sweep evaluates it once."""
    probe_op, bus_op = _COUPLING[kind]
    term = np.kron(0.5 * probe_op, bus_op) if sel is Param.X else _Z_HALF_PROBE
    return _connected_integrals(term[None], np.ones(1), angles)


@lru_cache(maxsize=256)
def _appendix_coefficients(spec: ModelSpec, angles: StateAngles, observable: tuple,
                           sel: Param, order: int) -> tuple:
    """N-free coefficients (var0, c1, c2, d1, d2) of the appendix expansion:
    variance = var0 + c1 N + c2 N^2 and d<A>/dtheta = d1 N + d2 N^2.  The
    observable is the tuple of its four complex entries (row-major)."""
    a_op = np.array(observable).reshape(2, 2)
    probe = _qubit_state(angles.alpha, angles.phi)
    bus = _qubit_state(angles.beta, angles.varphi)

    a_tilde = _free_conjugate(a_op, spec.delta * spec.omega0,
                              np.array(spec.t))  # final-time free picture
    a_mean = complex(_sandwich(bus, a_tilde))
    b_tilde = a_tilde @ a_tilde - 2.0 * a_mean * a_tilde
    var0 = float((_sandwich(bus, a_tilde @ a_tilde) - a_mean ** 2).real)

    taus, w1 = _nodes_on(0.0, spec.t, order)
    unit, wu = _nodes_on(0.0, 1.0, order)
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
        """First-order integral per probe, linear in the probe operator u(t1)."""
        return np.sum(w1 * _sandwich(probe, u_1) * factors[0])

    def triangle(u_1, v_2, factors):
        """Time-ordered second-order integral, linear in u(t1) and in v(t2):
        its probe-pair part (weight N(N - 1)) and single-probe part (weight N)."""
        _, g1, g2 = factors
        pair = _sandwich(probe, u_1)[:, None] * _sandwich(probe, v_2)
        fwd = _sandwich(probe, np.einsum("ipq,ijqr->ijpr", u_1, v_2))
        rev = _sandwich(probe, np.einsum("ijpq,iqr->ijpr", v_2, u_1))
        return np.sum(w2 * pair * (g1 + g2)), np.sum(w2 * (fwd * g1 + rev * g2))

    a_factors = bus_factors(a_tilde)
    b_factors = bus_factors(b_tilde)
    eps = spec.epsilon
    # N(N - 1) = N^2 - N moves each pair part into both coefficients
    b_pair, b_single = triangle(s_1, s_2, b_factors)
    c1 = (1j * eps * first(s_1, b_factors) + eps ** 2 * (b_single - b_pair)).real
    c2 = (eps ** 2 * (b_pair + first(s_1, a_factors) ** 2)).real
    # d/dtheta of the expanded mean Re(i eps first_A + eps^2 triangle_A)
    (pair_1, single_1), (pair_2, single_2) = (triangle(ds_1, s_2, a_factors),
                                              triangle(s_1, ds_2, a_factors))
    d1 = (1j * eps * first(ds_1, a_factors)
          + eps ** 2 * (single_1 + single_2 - pair_1 - pair_2)).real
    d2 = (eps ** 2 * (pair_1 + pair_2)).real
    return var0, float(c1), float(c2), float(d1), float(d2)


def appendix_local_uncertainty(spec: ModelSpec, n: int, angles: StateAngles,
                               observable: np.ndarray, sel: Param,
                               m_measurements: int = 1) -> FirstMomentResult:
    """Second-order expansion of the first-moment uncertainty of a bus
    observable A: `fisher.first_moment_result` of the expanded variance and
    mean derivative, exact polynomials in N (error 0).

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

    Only the prefactors N, N(N - 1) and N^2 depend on N, so the integrals
    are cached per (spec, angles, observable, sel, order) and each call
    evaluates the two quadratics in N.
    """
    _coupling(spec, sel)  # refuses omega0
    key = tuple(paulis.check_hermitian_2x2(observable).ravel().tolist())
    var0, c1, c2, d1, d2 = _appendix_coefficients(spec, angles, key, sel,
                                                  QUADRATURE_ORDER)
    return first_moment_result(var0 + c1 * n + c2 * n ** 2, d1 * n + d2 * n ** 2, 0.0,
                               m_measurements)
