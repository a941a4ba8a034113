import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg

from spinbus import dynamics, fisher, fullspace, paulis
from spinbus.dynamics import ModelKind, ModelSpec, assemble, eigensystem, propagate
from spinbus.fisher import (
    Param,
    _bloch_qfi,
    _bloch_vector,
    evolve_point,
    first_moment_result,
    first_moment_uncertainty,
    global_qfi_fd,
    local_qfi_fd,
    qcr_bound,
    reduce_to_bus,
)
from spinbus.states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    _jx_ladder,
    build_product_state,
    m_values,
)
from spinbus.sweep import Regime, SweepConfig, run_sweep
from spinbus.validate import _discrepancy, _fd_global_qfi
from spinbus.zzzz_exact import global_qfi_closed

ZZZZ = ModelSpec(ModelKind.ZZZZ)


def test_global_qfi_favorable_state():
    res = global_qfi_fd(ZZZZ, 5, FAVORABLE_ANGLES, Param.X)
    assert res.value == pytest.approx(25.0, rel=1e-6)
    assert res.flag == ""


def test_global_qfi_zero_at_t0():
    spec = ModelSpec(ModelKind.ZZXX, t=0.0)
    for sel in Param:
        assert global_qfi_fd(spec, 3, DEFAULT_ANGLES, sel).value == pytest.approx(0.0, abs=1e-12)


def test_global_qfi_matches_full_hilbert():
    spec = ModelSpec(ModelKind.ZZXX)
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0, x=1.0, t=1.0)
    mine = global_qfi_fd(spec, 6, DEFAULT_ANGLES, Param.X).value
    reference = fullspace.pure_qfi(*fullspace.evolved_with_derivative_full(
        "ZZXX", 6, params, "x", DEFAULT_ANGLES.alpha, DEFAULT_ANGLES.phi,
        DEFAULT_ANGLES.beta, DEFAULT_ANGLES.varphi))
    assert mine == pytest.approx(reference, rel=1e-14)  # measured 8.1e-16


def bures_distance(state_a, state_b) -> float:
    """Pure-state Bures distance sqrt(2) * sqrt(1 - |<a|b>|)."""
    fidelity = abs(np.vdot(state_a.amplitudes, state_b.amplitudes))
    return math.sqrt(2.0) * math.sqrt(max(0.0, 1.0 - fidelity))


def test_bures_distance_basics():
    a = build_product_state(3, FAVORABLE_ANGLES)
    assert bures_distance(a, a) == 0.0
    b = build_product_state(3, StateAngles(0.0, 0.0, 0.0, 0.0))
    c = build_product_state(3, StateAngles(math.pi / 2, 0.0, 0.0, 0.0))
    assert bures_distance(b, c) == pytest.approx(math.sqrt(2), abs=1e-12)


def test_bures_distance_qfi_cross_check():
    dtheta = 1e-5
    psi = propagate(ZZZZ, 4, FAVORABLE_ANGLES)
    psi_shift = propagate(dataclasses.replace(ZZZZ, x=1.0 + dtheta), 4, FAVORABLE_ANGLES)
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
    spec = dataclasses.replace(ZZZZ, x=math.pi / 2)
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
    r = _bloch_vector(np.diag([0.5, 0.5]))
    dr = np.array([0.0, 0.0, 1.0])  # d r_z / d theta of the populations above
    assert _bloch_qfi(r, dr, 0.0) == pytest.approx(1.0, rel=1e-9)


def test_qubit_qfi_parameter_independent():
    rho = np.array([[0.75, 0.1], [0.1, 0.25]])
    assert _bloch_qfi(_bloch_vector(rho), np.zeros(3), 0.0) == 0.0


def test_local_qfi_raises_for_a_radial_derivative_at_a_pure_bus():
    # the tangent case, round-off within its certified error, is
    # test_sweep.py's pure-bus sweep
    psi = build_product_state(4, DEFAULT_ANGLES)  # a product state: the bus is pure
    radial = fisher.EvolvedPoint(psi, psi.amplitudes.copy(), 1e-15, 1e-15)  # d rho = 2 rho
    with pytest.raises(ArithmeticError):
        fisher.read_local_qfi(radial)


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
    assert res.flag == "insensitive" and res.delta == math.inf and res.inv_squared == 0.0


@pytest.mark.parametrize("spec, angles", [(ZZZZ, DEFAULT_ANGLES),
                                           (dataclasses.replace(ZZZZ, epsilon=100.0),
                                            UNFAVORABLE_ANGLES)])
def test_first_moment_within_its_certificate_is_insensitive(spec, angles):
    # at N = 200 the X readout's d<X>/dx (~1e-12 and ~1e-9) lies inside its
    # certified error (relative bounds 22 and 60), so it cannot be told from
    # zero; at DEFAULT_ANGLES the closed form's (delta x)^-2 is 4.2e-25
    res = first_moment_uncertainty(spec, 200, angles, Param.X, paulis.X)
    assert res.relative_discrepancy > 1.0
    assert res.flag == "insensitive" and res.delta == math.inf and res.inv_squared == 0.0


@pytest.mark.parametrize("variance, deriv, error, flag, inv_squared", [
    (0.5, 1.0, 1e-3, "", 2.0),
    (0.5, 1.0, 2e-3, "ill_conditioned", 2.0),
    (0.5, 1e-3, 1e-3, "insensitive", 0.0),
    (0.0, 1.0, 0.0, "nonpositive_variance", math.inf),
    (-0.5, 1.0, 0.0, "nonpositive_variance", -2.0),
    (-0.5, 1e-3, 1e-3, "insensitive", 0.0),
])
def test_first_moment_rule_on_direct_inputs(variance, deriv, error, flag, inv_squared):
    res = first_moment_result(variance, deriv, error, 1)
    assert res.flag == flag and res.inv_squared == inv_squared
    assert res.variance == variance and res.mean_derivative == deriv
    if flag == "nonpositive_variance":
        assert math.isnan(res.delta)
    assert first_moment_result(variance, deriv, error, 3).inv_squared == 3 * inv_squared
    with pytest.raises(ValueError):
        first_moment_result(variance, deriv, error, 0)


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
        two = global_qfi_fd(dataclasses.replace(ZZZZ, t=2.0), 4, DEFAULT_ANGLES, sel).value
        assert two == pytest.approx(4.0 * one, rel=1e-6)


def test_two_step_protocol_recorded():
    # validate suite b's finite-difference check
    res, check, step = _fd_global_qfi(ZZZZ, 8, DEFAULT_ANGLES, Param.X)
    # 1e-6 * max(1, |x|) / sqrt(max(1, |t| ||G||)) with G = dH/dx = eps K (x) Z,
    # whose Gershgorin bound at N = 8 is eps * N/2 = 4
    assert assemble(ZZZZ, 8, wrt=Param.X).norm_bound == 4.0
    assert step == 1e-6 / math.sqrt(4.0)
    assert _discrepancy(res.value, check) < 1e-3
    assert res.flag == ""


def test_check_step_scales_with_the_generator():
    """A large generator (|t| ||dH/d omega1|| ~ 2.5e4 at N = 500) still gets a
    suite b check value that agrees with the exact one to far better than
    1e-3, and the certificate does not flag the point."""
    res, check, _ = _fd_global_qfi(ModelSpec(ModelKind.ZZXX, delta=100.0), 500,
                                   DEFAULT_ANGLES, Param.OMEGA1)
    assert _discrepancy(res.value, check) < 1e-6
    assert res.flag == ""


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
    g = assemble(spec, n, wrt=sel).matrix
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
    jz = np.diag(m_values(n).astype(float))
    jx = np.diag(_jx_ladder(n), 1) + np.diag(_jx_ladder(n), -1)
    coupling = {ModelKind.ZZZZ: np.kron(jz, bus_z), ModelKind.ZZXX: np.kron(jx, bus_x),
                ModelKind.ZZZX: np.kron(jz, bus_x)}[kind]
    dense = {None: spec.delta * (spec.omega1 * np.kron(jz, np.eye(2))
                                 + spec.omega0 / 2 * np.kron(np.eye(n + 1), bus_z))
                   + spec.epsilon * spec.x * coupling,
             Param.X: spec.epsilon * coupling,
             Param.OMEGA1: spec.delta * np.kron(jz, np.eye(2)),
             Param.OMEGA0: spec.delta / 2 * np.kron(np.eye(n + 1), bus_z)}
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


@pytest.mark.parametrize("n, chains", [(10, 1), (11, 2), (1, 2)])
def test_even_n_zzxx_point_solves_one_chain(monkeypatch, dense, n, chains):
    # a point is one solve of H: one chain at even N, where chain 1 is chain
    # 0's signed mirror, two at odd N (N = 1's are 2x2), on either eigensolver
    solved = []
    solve = dynamics.eigensystem

    def recording(h):
        w, v = solve(h)
        solved.append(v.shape[:2])
        return w, v

    monkeypatch.setattr(dynamics, "eigensystem", recording)
    evolve_point(ModelSpec(ModelKind.ZZXX), n, DEFAULT_ANGLES, Param.X)
    assert solved == [(chains, n + 1)]


def test_zzxx_derivative_peak_memory_in_size_squared_matrices():
    # the post-solve path holds the solved chains' eigenvectors plus two
    # size^2 buffers, one chain's kernel at a time: 3.2 size^2 matrices of
    # doubles at even N (one chain solved) and 4.2 at odd N, measured;
    # forming the mirrored chain, or both chains' kernels, costs one more
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    for n, bound in ((400, 4.0), (401, 5.0)):
        tracemalloc.start()
        try:
            global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.OMEGA1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound * (n + 1) ** 2 * 8, (n, peak / ((n + 1) ** 2 * 8))


def test_eigenpairs_and_exact_derivative_on_random_specs(every_block):
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    value = st.floats(-1.5, 1.5, allow_subnormal=False)

    @hypothesis.settings(max_examples=40, deadline=None, database=None)
    # t ||dH/dx|| at the underflow threshold: the certificate's absolute floor
    @hypothesis.example(ModelKind.ZZZZ, 0.0, 1.149e-307, 0.0, 0.0, 0.0, 2.0 ** -8, 2)
    # omega0 = 0: at odd N the two ZZXX chains of H agree, those of dH/domega0 do not
    @hypothesis.example(ModelKind.ZZXX, 1.0, 1.0, 0.0, 0.7, 0.9, 1.1, 2)
    @hypothesis.given(st.sampled_from(list(ModelKind)), value, value, value, value,
                      value, st.floats(0.0, 1.5, allow_subnormal=False),
                      st.integers(2, 39))
    def check(kind, delta, epsilon, omega0, omega1, x, t, m):
        spec = ModelSpec(kind, delta, epsilon, omega0, omega1, x, t)
        for n in (m, m + 1):  # both parities
            h = assemble(spec, n)
            w, v = eigensystem(h)
            v = every_block(w, v)
            assert len(w) == len(v) == len(h.block_diag)
            for d, e, wb, vb in zip(h.block_diag, h.block_off, w, v):
                tri = np.diag(d) + np.diag(e, 1) + np.diag(e, -1)
                norm = np.abs(tri).sum(axis=1).max()
                np.testing.assert_allclose(vb.T @ vb, np.eye(len(d)), rtol=0, atol=1e-10)
                np.testing.assert_allclose((vb * wb) @ vb.T, tri, rtol=0,
                                           atol=1e-10 * (1.0 + norm))
            if n <= 8:
                for sel in Param:
                    point = evolve_point(spec, n, DEFAULT_ANGLES, sel)
                    reference = _expm_derivative(spec, n, DEFAULT_ANGLES, sel)
                    np.testing.assert_allclose(point.dpsi, reference, rtol=0, atol=1e-12)
                    _assert_bound_covers(point, dataclasses.replace(point, dpsi=reference))

    check()


_READERS = (("global", fisher.read_global_qfi), ("local", fisher.read_local_qfi),
            ("first moment", lambda p: fisher.read_first_moment(p, paulis.XZ_HALF)))


def _reading(result) -> float:
    return getattr(result, "value", getattr(result, "mean_derivative", None))


def _assert_bound_covers(point, reference_point):
    """Each reader's value at `point` is within its own certified relative
    bound of the same reader's value at `reference_point`."""
    for name, read in _READERS:
        try:
            mine, other = read(point), read(reference_point)
        except ArithmeticError:  # the bus QFI is singular at a pure bus state
            continue
        value = _reading(mine)
        bound = mine.relative_discrepancy
        allowed = math.inf if bound == math.inf else bound * abs(value)
        assert abs(value - _reading(other)) <= allowed, (name, value, _reading(other), bound)


def _tilt_eigenvector(monkeypatch, size):
    """Make every eigensolve tilt eigenvector 1 of the first block towards
    eigenvector 0 by `size`.  The tilt follows the signs of both columns, so
    the corrupted solve stays smooth in theta and a central difference of it
    sees the corruption rather than an arbitrary eigenvector sign."""
    solve = dynamics.eigensystem

    def corrupted(h):
        w, v = solve(h)
        v = v.copy()
        tilted, towards = v[0, :, 1], v[0, :, 0]
        v[0, :, 1] = tilted + size * np.sign(tilted[0] * towards[0]) * towards
        return w, v

    monkeypatch.setattr(dynamics, "eigensystem", corrupted)


@pytest.mark.parametrize("n, sel", [(10, Param.X), (11, Param.OMEGA1)])
def test_certificate_covers_a_corrupted_eigenvector(monkeypatch, n, sel):
    spec = ModelSpec(ModelKind.ZZXX)
    clean = evolve_point(spec, n, DEFAULT_ANGLES, sel)
    _tilt_eigenvector(monkeypatch, 1e-8)
    corrupted = evolve_point(spec, n, DEFAULT_ANGLES, sel)
    assert np.max(np.abs(corrupted.dpsi - clean.dpsi)) > 0.0
    _assert_bound_covers(corrupted, clean)
    assert fisher.read_global_qfi(corrupted).flag == ""
    assert fisher.read_local_qfi(corrupted).flag == ""


def test_certificate_flags_a_first_moment_inside_a_few_percent(monkeypatch):
    # a tilt of 1e-5 leaves the global QFI's bound below 1e-3, but d<A>/dx
    # carries a certified error of 4.5e-2 of itself
    spec = ModelSpec(ModelKind.ZZXX)
    clean = evolve_point(spec, 10, DEFAULT_ANGLES, Param.X)
    _tilt_eigenvector(monkeypatch, 1e-5)
    corrupted = evolve_point(spec, 10, DEFAULT_ANGLES, Param.X)
    _assert_bound_covers(corrupted, clean)
    assert fisher.read_global_qfi(corrupted).flag == ""
    assert fisher.read_first_moment(corrupted, paulis.XZ_HALF).flag == "ill_conditioned"
    assert fisher.read_first_moment(clean, paulis.XZ_HALF).flag == ""


@pytest.mark.parametrize("n, sel", [(10, Param.X), (11, Param.OMEGA1)])
def test_certificate_and_suite_b_flag_a_badly_corrupted_eigenvector(monkeypatch, n, sel):
    spec = ModelSpec(ModelKind.ZZXX)
    _tilt_eigenvector(monkeypatch, 1e-2)
    point = evolve_point(spec, n, DEFAULT_ANGLES, sel)
    flags = {"global_qfi": fisher.read_global_qfi(point).flag,
             "local_qfi": fisher.read_local_qfi(point).flag}
    assert set(flags.values()) == {"ill_conditioned"}
    # a sweep row carries its reader's flag through unchanged
    config = SweepConfig(kind=spec.kind, param=sel, regimes=(Regime("default"),),
                         n_list=(n,), quantities=tuple(flags))
    assert {row.quantity: row.flag for row in run_sweep(config).rows} == flags
    res, check, _ = _fd_global_qfi(spec, n, DEFAULT_ANGLES, sel)
    assert res.flag == "ill_conditioned"
    assert _discrepancy(res.value, check) > 1e-3
