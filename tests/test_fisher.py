import math

import numpy as np
import pytest
import scipy.linalg

from spinbus import fullspace, paulis
from spinbus.dynamics import ModelKind, ModelSpec, assemble, propagate
from spinbus.fisher import (
    BusDensity,
    Param,
    bures_distance,
    evolve_point,
    first_moment_uncertainty,
    global_qfi_fd,
    local_qfi_fd,
    qcr_bound,
    qubit_qfi,
    reduce_to_bus,
)
from spinbus.states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    build_product_state,
    collective_jx,
    collective_jz,
)
from spinbus.zzzz_exact import global_qfi_closed

ZZZZ = ModelSpec(ModelKind.ZZZZ)


def test_global_qfi_favorable_state():
    res = global_qfi_fd(ZZZZ, 5, FAVORABLE_ANGLES, Param.X)
    assert res.value == pytest.approx(25.0, rel=1e-6)
    assert not res.ill_conditioned


def test_global_qfi_zero_at_t0():
    spec = ModelSpec(ModelKind.ZZXX, t=0.0)
    for sel in Param:
        assert global_qfi_fd(spec, 3, DEFAULT_ANGLES, sel).value == pytest.approx(0.0, abs=1e-12)


def test_global_qfi_matches_full_hilbert():
    spec = ModelSpec(ModelKind.ZZXX)
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0, x=1.0, t=1.0)
    mine = global_qfi_fd(spec, 6, DEFAULT_ANGLES, Param.X).value_check
    reference = fullspace.global_qfi_full("ZZXX", 6, params, "x",
                                          DEFAULT_ANGLES.alpha, DEFAULT_ANGLES.phi,
                                          DEFAULT_ANGLES.beta, DEFAULT_ANGLES.varphi)
    assert mine == pytest.approx(reference, rel=1e-6)


def test_bures_distance_basics():
    a = build_product_state(3, FAVORABLE_ANGLES)
    assert bures_distance(a, a) == 0.0
    b = build_product_state(3, StateAngles(0.0, 0.0, 0.0, 0.0))
    c = build_product_state(3, StateAngles(math.pi / 2, 0.0, 0.0, 0.0))
    assert bures_distance(b, c) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_bures_distance_qfi_cross_check():
    dtheta = 1e-5
    psi = propagate(ZZZZ, 4, FAVORABLE_ANGLES)
    psi_shift = propagate(ZZZZ.replaced(x=1.0 + dtheta), 4, FAVORABLE_ANGLES)
    from_bures = 4.0 * bures_distance(psi, psi_shift) ** 2 / dtheta ** 2
    exact = global_qfi_fd(ZZZZ, 4, FAVORABLE_ANGLES, Param.X).value
    assert from_bures == pytest.approx(exact, rel=1e-3)


def test_reduce_to_bus_product_state():
    angles = StateAngles(0.7, 0.3, 0.9, 1.4)
    rho = reduce_to_bus(build_product_state(4, angles)).rho
    xi = np.array([math.cos(angles.beta),
                   math.sin(angles.beta) * np.exp(1j * angles.varphi)])
    np.testing.assert_allclose(rho, np.outer(xi, xi.conj()), atol=1e-12)


def test_reduce_to_bus_full_dephasing_point():
    # eps*t*x = pi/2 with equal-weight probes kills the off-diagonal entirely
    spec = ZZZZ.replaced(x=math.pi / 2)
    rho = reduce_to_bus(propagate(spec, 5, UNFAVORABLE_ANGLES)).rho
    assert abs(rho[0, 1]) < 1e-12


@pytest.mark.parametrize("n", [2, 5, 8])
def test_reduce_to_bus_matches_full_partial_trace(n):
    rng = np.random.default_rng(n)
    angles = StateAngles(*rng.uniform(0, math.pi, 4))
    spec = ModelSpec(ModelKind.ZZXX, t=rng.uniform(0.5, 1.5))
    mine = reduce_to_bus(propagate(spec, n, angles)).rho
    full0 = fullspace.product_state_full(n, angles.alpha, angles.phi,
                                         angles.beta, angles.varphi)
    hfull = fullspace.hamiltonian_full("ZZXX", n, spec.delta, spec.epsilon,
                                       spec.omega0, spec.omega1, spec.x)
    reference = fullspace.bus_density(fullspace.propagate_full(hfull, spec.t, full0))
    np.testing.assert_allclose(mine, reference, atol=1e-10)


def test_qubit_qfi_classical_populations():
    # rho(theta) = diag((1+theta)/2, (1-theta)/2) at theta=0: eigenvalue
    # formula gives sum (dp)^2/p = 1
    h = 1e-6
    rho = lambda th: BusDensity(np.diag([(1 + th) / 2, (1 - th) / 2]))
    assert qubit_qfi(rho(0.0), rho(h), rho(-h), h) == pytest.approx(1.0, rel=1e-9)


def test_qubit_qfi_parameter_independent():
    rho = BusDensity(np.array([[0.75, 0.1], [0.1, 0.25]]))
    assert qubit_qfi(rho, rho, rho, 1e-6) == 0.0


def test_qubit_qfi_worst_state_closed_value():
    res = local_qfi_fd(ZZZZ, 3, UNFAVORABLE_ANGLES, Param.X)
    expected = 9 * math.tan(1.0) ** 2 / (math.cos(1.0) ** -6 - 1.0)
    assert res.value == pytest.approx(expected, rel=1e-6)


def test_qcr_bound():
    assert qcr_bound(4.0, 1) == 0.25
    assert qcr_bound(25.0, 100) == pytest.approx(4e-4)
    assert qcr_bound(0.0, 5) == math.inf
    with pytest.raises(ValueError):
        qcr_bound(-1.0, 1)


def test_first_moment_worst_state_exact_form():
    # X readout of the bus: (delta_x)^-2 = N^2 t^2 e^2 tan^2(etx) /
    # (cos(etx)^{-2N} cos(d w0 t)^{-2} - 1)
    for n in (1, 3, 6):
        res = first_moment_uncertainty(ZZZZ, n, UNFAVORABLE_ANGLES, Param.X,
                                       paulis.X)
        expected = (n ** 2 * math.tan(1.0) ** 2
                    / (math.cos(1.0) ** (-2 * n) * math.cos(1.0) ** -2 - 1.0))
        assert res.inv_squared == pytest.approx(expected, rel=1e-6)


def test_first_moment_identity_insensitive():
    res = first_moment_uncertainty(ZZZZ, 3, DEFAULT_ANGLES, Param.X, paulis.IDENTITY)
    assert res.insensitive and res.delta == math.inf and res.inv_squared == 0.0


def test_sensitivity_inequality_chain():
    # (delta)^-2 <= local QFI <= global QFI, all computed independently
    spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-3)
    for n in (2, 10, 30, 50):
        fm = first_moment_uncertainty(spec, n, DEFAULT_ANGLES, Param.X, paulis.XZ_HALF)
        local = local_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        global_ = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        slack = 1e-6 * max(1.0, global_)
        assert fm.inv_squared <= local + slack
        assert local <= global_ + slack


def test_first_moment_bound_random_observables():
    rng = np.random.default_rng(42)
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.5)
    local = local_qfi_fd(spec, 4, DEFAULT_ANGLES, Param.X).value
    for _ in range(100):
        coef = rng.standard_normal(4)
        obs = (coef[0] * paulis.IDENTITY + coef[1] * paulis.X
               + coef[2] * paulis.Y + coef[3] * paulis.Z)
        res = first_moment_uncertainty(spec, 4, DEFAULT_ANGLES, Param.X, obs, 3)
        assert res.inv_squared <= 3 * local * (1.0 + 1e-6) + 1e-12


def test_partial_trace_monotonicity():
    for kind in ModelKind:
        for n in (2, 6):
            spec = ModelSpec(kind, epsilon=0.7, delta=1.3)
            local = local_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
            global_ = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
            assert local <= global_ + 1e-6 * max(1.0, global_)


def test_time_squared_scaling_dephasing_model():
    for sel in (Param.X, Param.OMEGA1, Param.OMEGA0):
        one = global_qfi_fd(ZZZZ, 4, DEFAULT_ANGLES, sel).value
        two = global_qfi_fd(ZZZZ.replaced(t=2.0), 4, DEFAULT_ANGLES, sel).value
        assert two == pytest.approx(4.0 * one, rel=1e-6)


def test_two_step_protocol_recorded():
    res = global_qfi_fd(ZZZZ, 8, DEFAULT_ANGLES, Param.X)
    # 1e-6 * max(1, |x|) / sqrt(max(1, |t| ||G||)) with G = dH/dx = eps K (x) Z,
    # whose Gershgorin bound at N = 8 is eps * N/2 = 4
    assert assemble(ZZZZ, 8, wrt="x").norm_bound == 4.0
    assert res.fd_step_check == 1e-6 / math.sqrt(4.0)
    assert res.relative_discrepancy < 1e-3


def test_check_step_scales_with_the_generator():
    """A large generator (|t| ||dH/d omega1|| ~ 2.5e4 at N = 500) still gets a
    check value that agrees with the exact one to far better than 1e-3."""
    res = global_qfi_fd(ModelSpec(ModelKind.ZZXX, delta=100.0), 500,
                        DEFAULT_ANGLES, Param.OMEGA1)
    assert res.relative_discrepancy < 1e-6
    assert not res.ill_conditioned


def test_closed_form_agreement_spot_check():
    rng = np.random.default_rng(3)
    for _ in range(5):
        n = int(rng.integers(1, 33))
        angles = StateAngles(*rng.uniform(0.1, 1.4, 4))
        spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.5, 2),
                         epsilon=rng.uniform(0.5, 2), t=rng.uniform(0.5, 2))
        for sel in Param:
            closed = global_qfi_closed(spec, n, angles, sel)
            numeric = global_qfi_fd(spec, n, angles, sel).value
            assert numeric == pytest.approx(closed, rel=1e-6, abs=1e-9)


def _expm_derivative(spec, n, angles, sel):
    """d psi / d theta from the augmented exponential
    exp(-i t [[H, G], [0, H]]) = [[U, dU/d theta], [0, U]]."""
    h = assemble(spec, n).matrix
    g = assemble(spec, n, wrt=sel.field).matrix
    dim = h.shape[0]
    aug = np.block([[h, g], [np.zeros_like(h), h]])
    prop = scipy.linalg.expm(-1j * spec.t * aug)
    return prop[:dim, dim:] @ build_product_state(n, angles).amplitudes


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("n", [1, 2, 5, 12])
def test_exact_derivative_matches_augmented_expm(kind, n):
    rng = np.random.default_rng(n)
    spec = ModelSpec(kind, *(rng.uniform(0.3, 1.5, 6)))
    for sel in Param:
        dpsi = evolve_point(spec, n, DEFAULT_ANGLES, sel).dpsi
        np.testing.assert_allclose(dpsi, _expm_derivative(spec, n, DEFAULT_ANGLES, sel),
                                   rtol=0, atol=1e-12)


def test_exact_derivative_vanishes_at_t0():
    for kind in ModelKind:
        for sel in Param:
            point = evolve_point(ModelSpec(kind, t=0.0), 4, DEFAULT_ANGLES, sel)
            np.testing.assert_array_equal(point.dpsi, 0.0)
            np.testing.assert_array_equal(point.psi.amplitudes,
                                          build_product_state(4, DEFAULT_ANGLES).amplitudes)


def test_exact_derivative_closed_form_n64():
    # 4 t^2 eps^2 Var(J_z Z) = 4 (<J_z^2> - <J_z>^2 <Z>^2) = 4 (268 - 64)
    value = global_qfi_fd(ZZZZ, 64, DEFAULT_ANGLES, Param.X).value
    assert value == pytest.approx(816.0, rel=1e-12)
    assert value == pytest.approx(global_qfi_closed(ZZZZ, 64, DEFAULT_ANGLES, Param.X),
                                  rel=1e-12)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_exact_derivative_degenerate_spectrum(kind):
    # delta = 0 leaves only eps*x*(K (x) B), whose spectrum is degenerate
    # (+-m pairs), so F takes its sinc limit -i t e^{-i w t} on every pair
    spec = ModelSpec(kind, delta=0.0, t=1.3)
    for sel in (Param.X, Param.OMEGA0, Param.OMEGA1):
        dpsi = evolve_point(spec, 6, DEFAULT_ANGLES, sel).dpsi
        np.testing.assert_allclose(dpsi, _expm_derivative(spec, 6, DEFAULT_ANGLES, sel),
                                   rtol=0, atol=1e-12)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_tridiagonal_pieces_permute_back_to_dense(kind):
    n = 5
    spec = ModelSpec(kind, delta=1.3, epsilon=0.7, omega0=0.4, omega1=1.1, x=0.9)
    bus_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    bus_z = np.diag([1.0, -1.0])
    jz, jx = collective_jz(n), collective_jx(n)
    coupling = {ModelKind.ZZZZ: np.kron(jz, bus_z), ModelKind.ZZXX: np.kron(jx, bus_x),
                ModelKind.ZZZX: np.kron(jz, bus_x)}[kind]
    dense = {None: spec.delta * (spec.omega1 * np.kron(jz, np.eye(2))
                                 + spec.omega0 / 2 * np.kron(np.eye(n + 1), bus_z))
                   + spec.epsilon * spec.x * coupling,
             "x": spec.epsilon * coupling,
             "omega1": spec.delta * np.kron(jz, np.eye(2)),
             "omega0": spec.delta / 2 * np.kron(np.eye(n + 1), bus_z)}
    for wrt, expected in dense.items():
        h = assemble(spec, n, wrt=wrt)
        tri = np.zeros((h.dim, h.dim))
        start = 0
        for diag, off in zip(h.block_diag, h.block_off):
            block = slice(start, start + len(diag))
            tri[block, block] = np.diag(diag) + np.diag(off, 1) + np.diag(off, -1)
            start += len(diag)
        back = np.empty_like(tri)
        back[np.ix_(h.perm, h.perm)] = tri
        np.testing.assert_allclose(back, expected, rtol=0, atol=1e-14)
        np.testing.assert_array_equal(h.matrix, back)
