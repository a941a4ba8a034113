import math
from dataclasses import replace

import numpy as np
import pytest

from spinbus import paulis, perturb
from spinbus.dynamics import ModelKind, ModelSpec, assemble
from spinbus.fisher import Param, first_moment_uncertainty, global_qfi_fd
from spinbus.perturb import (
    appendix_local_uncertainty,
    hl_condition,
    pt1_qfi,
    pt2_qfi_zeroth,
)
from spinbus.states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    build_product_state,
)
from spinbus.zzzz_exact import global_qfi_closed


def test_pt1_x_exact_for_commuting_model():
    rng = np.random.default_rng(8)
    for _ in range(5):
        spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.2, 2),
                         epsilon=rng.uniform(0.2, 2), t=rng.uniform(0.3, 2))
        angles = StateAngles(*rng.uniform(0, math.pi, 4))
        n = int(rng.integers(1, 40))
        got = pt1_qfi(spec, n, angles, Param.X).value
        assert got == pytest.approx(global_qfi_closed(spec, n, angles, Param.X),
                                    rel=1e-12, abs=1e-12)


def test_pt1_x_quadratic_in_coupling_prefactor():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.02)
    half = replace(spec, epsilon=0.01)
    assert pt1_qfi(half, 6, DEFAULT_ANGLES, Param.X).value * 4.0 == pytest.approx(
        pt1_qfi(spec, 6, DEFAULT_ANGLES, Param.X).value, rel=1e-12)


def test_pt1_x_tracks_exact_solver_weak_coupling():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-3)
    for n in (1, 5, 20, 50):
        exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        assert pt1_qfi(spec, n, DEFAULT_ANGLES, Param.X).value == pytest.approx(exact, rel=1e-3)
    # deviations grow with eps*N; at N=100 (eps*N = 0.1) they reach a few 1e-3
    exact = global_qfi_fd(spec, 100, DEFAULT_ANGLES, Param.X).value
    assert pt1_qfi(spec, 100, DEFAULT_ANGLES, Param.X).value == pytest.approx(exact, rel=5e-3)


def test_pt1_omega1_tracks_exact_solver_strong_coupling():
    spec = ModelSpec(ModelKind.ZZXX, delta=1e-3)
    for n in (1, 5, 20, 50, 100):
        exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.OMEGA1).value
        got = pt1_qfi(spec, n, DEFAULT_ANGLES, Param.OMEGA1).value
        assert got == pytest.approx(exact, rel=1e-3)


def test_pt1_omega1_quadratic_term_vanishes_when_probe_term_commutes():
    # Z-probe coupling commutes with the probe splitting, so the transformed
    # operator is trivial on the bus and only linear-in-N scaling survives
    res = pt1_qfi(ModelSpec(ModelKind.ZZZX), 5, DEFAULT_ANGLES, Param.OMEGA1)
    assert abs(res.quadratic_coefficient) < 1e-12
    assert res.linear_coefficient > 0.0


def test_pt1_omega1_exact_for_commuting_model():
    res = pt1_qfi(ModelSpec(ModelKind.ZZZZ), 7, DEFAULT_ANGLES, Param.OMEGA1)
    assert res.value == pytest.approx(
        global_qfi_closed(ModelSpec(ModelKind.ZZZZ), 7, DEFAULT_ANGLES, Param.OMEGA1),
        rel=1e-12)


def test_pt1_omega1_x0_reduces_to_free_evolution():
    res = pt1_qfi(ModelSpec(ModelKind.ZZXX, x=0.0), 6, DEFAULT_ANGLES, Param.OMEGA1)
    assert res.value == pytest.approx(6 * math.sin(2 * DEFAULT_ANGLES.alpha) ** 2,
                                      rel=1e-12)


def test_pt2_x_polarized_probes():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=2.0)
    angles = StateAngles(0.0, 0.4, 1.1, 0.9)
    assert pt2_qfi_zeroth(spec, 9, angles, Param.X).value == pytest.approx(36.0, rel=1e-12)


def test_pt2_x_vanishes_at_equatorial_zero_phase_state():
    got = pt2_qfi_zeroth(ModelSpec(ModelKind.ZZXX), 5, UNFAVORABLE_ANGLES, Param.X)
    assert abs(got.value) < 1e-12


def test_pt2_matches_exact_strong_coupling():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=100.0)
    for n in (1, 5, 20, 50):
        exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        assert pt2_qfi_zeroth(spec, n, DEFAULT_ANGLES, Param.X).value == pytest.approx(
            exact, rel=1e-2)


def test_pt2_equals_closed_form_for_dephasing_model():
    rng = np.random.default_rng(31)
    for _ in range(5):
        spec = ModelSpec(ModelKind.ZZZZ, epsilon=rng.uniform(0.3, 3),
                         t=rng.uniform(0.3, 2))
        angles = StateAngles(*rng.uniform(0, math.pi, 4))
        got = pt2_qfi_zeroth(spec, 8, angles, Param.X).value
        assert got == pytest.approx(global_qfi_closed(spec, 8, angles, Param.X),
                                    rel=1e-10, abs=1e-12)


@pytest.mark.parametrize("expansion", [
    pt1_qfi,
    pt2_qfi_zeroth,
    lambda spec, n, angles, sel: appendix_local_uncertainty(spec, n, angles,
                                                            paulis.XZ_HALF, sel),
], ids=["pt1", "pt2", "appendix"])
def test_pt2_omega0_unsupported(expansion):
    with pytest.raises(ValueError, match="omega0"):
        expansion(ModelSpec(ModelKind.ZZXX), 4, DEFAULT_ANGLES, Param.OMEGA0)


def test_pt2_omega1_equals_closed_form_at_large_n():
    # Var(J_z) = N sin^2(2 alpha)/4 without the O(N eps) cancellation of
    # <J_z^2> - <J_z>^2
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    expected = (spec.t * spec.delta) ** 2 * 2000 * math.sin(2 * DEFAULT_ANGLES.alpha) ** 2
    got = pt2_qfi_zeroth(spec, 2000, DEFAULT_ANGLES, Param.OMEGA1)
    assert got.value == pytest.approx(expected, rel=1e-14)
    assert got.quadratic_coefficient == pytest.approx(0.0, abs=1e-14 * got.linear_coefficient)


def test_pt2_omega1_keeps_full_precision_near_polarized_probes():
    # alpha within 1e-5..1e-2 of 0 or pi/2 makes one probe's variance tiny
    # against <M^2>: the centred kernel still gives t^2 delta^2 N sin^2(2 alpha)
    rng = np.random.default_rng(13)
    for _ in range(300):
        offset = 10.0 ** rng.uniform(-5.0, -2.0)
        alpha = offset if rng.random() < 0.5 else 0.5 * math.pi - offset
        angles = StateAngles(alpha, *rng.uniform(0.0, 2.0 * math.pi, 3))
        spec = ModelSpec(ModelKind(rng.choice(list(ModelKind))),
                         **dict(zip(("delta", "epsilon", "t"), rng.uniform(0.1, 10.0, 3))))
        n = int(rng.integers(1, 201))
        expected = (spec.t * spec.delta) ** 2 * n * math.sin(2.0 * alpha) ** 2
        got = pt2_qfi_zeroth(spec, n, angles, Param.OMEGA1).value
        assert got == pytest.approx(expected, rel=1e-13)


def _pt1_x_integrals_2x2(spec, angles, order):
    """Reference: (linear, quadratic) pt1 integrals for x from the 2x2
    correlators K_probe(S', S') <R R> and <S'><S'> K_bus(R, R)."""
    probe = perturb._qubit_state(angles.alpha, angles.phi)
    bus = perturb._qubit_state(angles.beta, angles.varphi)
    taus, weights = perturb._nodes_on(0.0, spec.t, order)
    probe_op, bus_op = perturb._COUPLING[spec.kind]
    s_prime = perturb._free_conjugate(0.5 * probe_op, spec.delta * spec.omega1, taus)
    r_op = perturb._free_conjugate(bus_op, spec.delta * spec.omega0, taus)

    def pairs(a):
        return np.einsum("ipq,jqr->ijpr", a, a)

    s_mean = perturb._sandwich(probe, s_prime)
    r_mean = perturb._sandwich(bus, r_op)
    rr = perturb._sandwich(bus, pairs(r_op))
    k_probe = perturb._sandwich(probe, pairs(s_prime)) - np.outer(s_mean, s_mean)
    k_bus = rr - np.outer(r_mean, r_mean)
    return (float((weights @ (k_probe * rr) @ weights).real),
            float((weights @ (np.outer(s_mean, s_mean) * k_bus) @ weights).real))


def _pt2_from_collective_variance(spec, n, angles, sel):
    """Reference: 4 t^2 Var_psi0(dH/d theta) with dH/d theta from `assemble`."""
    psi = build_product_state(n, angles).amplitudes
    g_psi = assemble(spec, n, wrt=sel).matrix @ psi
    mean = np.vdot(psi, g_psi).real
    return 4.0 * spec.t ** 2 * float(np.vdot(g_psi, g_psi).real - mean ** 2)


def test_connected_kernel_matches_the_direct_derivations():
    hypothesis = pytest.importorskip("hypothesis")
    st = hypothesis.strategies
    # zero or of physical size: products of tinier parameters leave floats
    value = st.floats(-3.0, 3.0).filter(lambda v: v == 0.0 or abs(v) > 1e-6)
    angle = st.floats(0.0, math.pi, allow_subnormal=False)

    @hypothesis.settings(max_examples=60, deadline=None, database=None)
    @hypothesis.given(st.sampled_from(list(ModelKind)), value, value, value, value, value,
                      st.floats(0.0, 2.0).filter(lambda v: v == 0.0 or v > 1e-6),
                      angle, angle, angle, angle, st.integers(1, 64))
    def check(kind, delta, epsilon, omega0, omega1, x, t, alpha, phi, beta, varphi, n):
        spec = ModelSpec(kind, delta, epsilon, omega0, omega1, x, t)
        angles = StateAngles(alpha, phi, beta, varphi)
        # each value is a cancellation of terms up to ~ c^2 t^2 N (N + 1)
        size = t ** 2 * n * (n + 1)

        linear, quadratic = _pt1_x_integrals_2x2(spec, angles, perturb.QUADRATURE_ORDER)
        assert hl_condition(spec, angles) == pytest.approx(quadratic, rel=1e-12,
                                                           abs=1e-12 * t ** 2)
        assert pt1_qfi(spec, n, angles, Param.X).value == pytest.approx(
            4.0 * epsilon ** 2 * (linear * n + quadratic * n ** 2),
            rel=1e-12, abs=1e-12 * epsilon ** 2 * size)
        for sel, c in ((Param.X, epsilon), (Param.OMEGA1, delta)):
            assert pt2_qfi_zeroth(spec, n, angles, sel).value == pytest.approx(
                _pt2_from_collective_variance(spec, n, angles, sel),
                rel=1e-12, abs=1e-12 * c ** 2 * size)

    check()


def test_hl_condition_nonzero_for_xx_coupling():
    assert abs(hl_condition(ModelSpec(ModelKind.ZZXX), DEFAULT_ANGLES)) > 1e-10


def test_hl_condition_zero_for_bus_eigenstate():
    angles = StateAngles(math.pi / 3, 0.2, 0.0, 0.0)  # bus in |0>, Z eigenstate
    assert abs(hl_condition(ModelSpec(ModelKind.ZZZZ), angles)) < 1e-14


def test_hl_condition_matches_quadratic_coefficient():
    spec = ModelSpec(ModelKind.ZZZZ)  # eps = 1
    hl = hl_condition(spec, FAVORABLE_ANGLES)
    assert hl != 0.0
    values = [pt1_qfi(spec, n, FAVORABLE_ANGLES, Param.X).value for n in range(1, 11)]
    coeffs = np.polyfit(np.arange(1, 11), values, 2)
    assert coeffs[0] == pytest.approx(4.0 * hl, rel=1e-10)


def test_pt1_x_is_exactly_quadratic_in_n():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.3)
    ns = np.arange(1, 11)
    values = [pt1_qfi(spec, int(n), DEFAULT_ANGLES, Param.X).value for n in ns]
    coeffs = np.polyfit(ns, values, 2)
    for n in (20, 50):
        predicted = np.polyval(coeffs, n)
        assert pt1_qfi(spec, n, DEFAULT_ANGLES, Param.X).value == pytest.approx(
            predicted, rel=1e-10)


def test_quadrature_order_converged(monkeypatch):
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.5)

    def evaluate():
        return ([pt1_qfi(spec, 10, DEFAULT_ANGLES, sel).value for sel in (Param.X, Param.OMEGA1)],
                [appendix_local_uncertainty(spec, 10, DEFAULT_ANGLES, paulis.XZ_HALF, sel)
                 for sel in (Param.X, Param.OMEGA1)])

    base_pt1, base_appendix = evaluate()
    monkeypatch.setattr(perturb, "QUADRATURE_ORDER", 128)
    fine_pt1, fine_appendix = evaluate()
    for base, fine in zip(base_pt1, fine_pt1):
        assert abs(base - fine) <= 1e-8 * abs(fine)
    for base, fine in zip(base_appendix, fine_appendix):
        for field in ("variance", "mean_derivative", "inv_squared"):
            assert getattr(base, field) == pytest.approx(getattr(fine, field), rel=1e-12)


def test_quadrature_order_is_part_of_the_cache_key(monkeypatch):
    # the pt1 integrals are cached per process; a changed order must not be
    # served the value integrated at the old one
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)

    def evaluate():
        return (pt1_qfi(spec, 10, DEFAULT_ANGLES, Param.X).value,
                pt1_qfi(spec, 10, DEFAULT_ANGLES, Param.OMEGA1).value,
                hl_condition(spec, DEFAULT_ANGLES))

    base = evaluate()
    assert base[0] == pytest.approx(16.050, abs=1e-3)
    monkeypatch.setattr(perturb, "QUADRATURE_ORDER", 4)
    coarse = evaluate()
    assert coarse[0] == pytest.approx(14.759, abs=1e-3)
    assert all(c != b for c, b in zip(coarse, base))
    monkeypatch.setattr(perturb, "QUADRATURE_ORDER", 64)
    assert evaluate() == base


def test_appendix_cache_key_follows_order_and_observable(monkeypatch):
    # the appendix integrals are cached per process; neither a changed order
    # nor an observable edited in place may be served a stale entry
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.5)

    def evaluate(observable):
        return appendix_local_uncertainty(spec, 10, DEFAULT_ANGLES, observable, Param.X)

    base = evaluate(paulis.XZ_HALF)
    monkeypatch.setattr(perturb, "QUADRATURE_ORDER", 4)
    assert evaluate(paulis.XZ_HALF) != base
    monkeypatch.setattr(perturb, "QUADRATURE_ORDER", 64)
    assert evaluate(paulis.XZ_HALF) == base
    assert evaluate(paulis.X) != base

    observable = paulis.XZ_HALF.copy()
    assert evaluate(observable) == base
    observable[:] = paulis.X
    assert evaluate(observable) == evaluate(paulis.X)


# (variance, mean derivative) at N = 1, 2, 7, 64 for eps = 0.1, DEFAULT_ANGLES
# and (X + Z)/2, as the appendix expansion gave them before its integrals
# were separated from N
_APPENDIX_REFERENCE = {
    (ModelKind.ZZXX, Param.X): [
        (0.46886569404454254, -0.001026240453874016),
        (0.4687551245216807, -0.002106092935328298),
        (0.46805437875013883, -0.008309535756303702),
        (0.4426434740325444, -0.1737612366497538)],
    (ModelKind.ZZXX, Param.OMEGA1): [
        (0.46886569404454254, -0.011897540750842114),
        (0.4687551245216807, -0.02399943552828849),
        (0.46805437875013883, -0.0875742198145843),
        (0.4426434740325444, -1.1734203256880886)],
    (ModelKind.ZZZX, Param.X): [
        (0.4617858678154347, -0.019991843779908734),
        (0.4537930717394979, -0.04059507978964984),
        (0.4016451883430751, -0.15278214328584094),
        (-1.6281044577479966, -2.512044737256219)],
    (ModelKind.ZZZX, Param.OMEGA1): [  # S(t) does not depend on omega1 here
        (0.4617858678154347, 0.0),
        (0.4537930717394979, 0.0),
        (0.4016451883430751, 0.0),
        (-1.6281044577479966, 0.0)],
}


@pytest.mark.parametrize("kind, sel", list(_APPENDIX_REFERENCE))
def test_appendix_matches_recorded_values(kind, sel):
    spec = ModelSpec(kind, epsilon=0.1)
    for n, (variance, deriv) in zip((1, 2, 7, 64), _APPENDIX_REFERENCE[kind, sel]):
        got = appendix_local_uncertainty(spec, n, DEFAULT_ANGLES, paulis.XZ_HALF, sel)
        assert got.variance == pytest.approx(variance, rel=1e-12, abs=0.0)
        assert got.mean_derivative == pytest.approx(deriv, rel=1e-12, abs=0.0)


def test_appendix_worst_state_known_form():
    # (delta_x)^-2 = N^2 t^4 e^4 x^2 / (N t^2 x^2 e^2 + tan^2(delta w0 t))
    spec = ModelSpec(ModelKind.ZZZZ)
    for n in (1, 4, 12):
        got = appendix_local_uncertainty(spec, n, UNFAVORABLE_ANGLES, paulis.X, Param.X)
        expected = n ** 2 / (n + math.tan(1.0) ** 2)
        assert got.inv_squared == pytest.approx(expected, rel=1e-12)


def test_appendix_conserved_observable_insensitive():
    got = appendix_local_uncertainty(ModelSpec(ModelKind.ZZZZ), 4, DEFAULT_ANGLES,
                                     paulis.Z, Param.X)
    assert got.flag == "insensitive" and got.delta == math.inf


def test_appendix_tracks_exact_first_moment_weak_coupling():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-3)
    for n in (2, 10, 50, 100):
        pert = appendix_local_uncertainty(spec, n, DEFAULT_ANGLES, paulis.XZ_HALF,
                                          Param.X)
        exact = first_moment_uncertainty(spec, n, DEFAULT_ANGLES, Param.X,
                                         paulis.XZ_HALF)
        assert pert.inv_squared == pytest.approx(exact.inv_squared, rel=1e-2)


def test_appendix_mean_derivative_residual_is_cubic():
    """The expanded d<A>/d theta is second order in eps: its distance from the
    exact solver's derivative shrinks as eps^3, for x and for omega1."""
    grid = np.logspace(-3, -1, 7)
    for sel in (Param.X, Param.OMEGA1):
        residuals = []
        for eps in grid:
            spec = ModelSpec(ModelKind.ZZXX, epsilon=float(eps))
            pert = appendix_local_uncertainty(spec, 4, DEFAULT_ANGLES, paulis.XZ_HALF, sel)
            exact = first_moment_uncertainty(spec, 4, DEFAULT_ANGLES, sel, paulis.XZ_HALF)
            residuals.append(abs(pert.mean_derivative - exact.mean_derivative))
        slope = np.polyfit(np.log(grid), np.log(residuals), 1)[0]
        assert slope == pytest.approx(3.0, abs=0.2)


def test_appendix_omega1_direction_runs():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-2)
    got = appendix_local_uncertainty(spec, 6, DEFAULT_ANGLES, paulis.XZ_HALF,
                                     Param.OMEGA1)
    exact = first_moment_uncertainty(spec, 6, DEFAULT_ANGLES, Param.OMEGA1,
                                     paulis.XZ_HALF)
    assert got.inv_squared == pytest.approx(exact.inv_squared, rel=5e-2)

