import math

import numpy as np
import pytest

from spinbus import paulis, perturb
from spinbus.dynamics import ModelKind, ModelSpec
from spinbus.fisher import Param, first_moment_uncertainty, global_qfi_fd
from spinbus.perturb import (
    appendix_local_uncertainty,
    hl_condition,
    pt1_qfi_omega1,
    pt1_qfi_x,
    pt2_qfi_zeroth,
)
from spinbus.states import DEFAULT_ANGLES, FAVORABLE_ANGLES, UNFAVORABLE_ANGLES, StateAngles
from spinbus.zzzz_exact import global_qfi_closed


def test_pt1_x_exact_for_commuting_model():
    rng = np.random.default_rng(8)
    for _ in range(5):
        spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.2, 2),
                         epsilon=rng.uniform(0.2, 2), t=rng.uniform(0.3, 2))
        angles = StateAngles(*rng.uniform(0, math.pi, 4))
        n = int(rng.integers(1, 40))
        got = pt1_qfi_x(spec, n, angles).value
        assert got == pytest.approx(global_qfi_closed(spec, n, angles, Param.X),
                                    rel=1e-12, abs=1e-12)


def test_pt1_x_quadratic_in_coupling_prefactor():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.02)
    half = spec.replaced(epsilon=0.01)
    assert pt1_qfi_x(half, 6, DEFAULT_ANGLES).value * 4.0 == pytest.approx(
        pt1_qfi_x(spec, 6, DEFAULT_ANGLES).value, rel=1e-12)


def test_pt1_x_tracks_exact_solver_weak_coupling():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=1e-3)
    for n in (1, 5, 20, 50):
        exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        assert pt1_qfi_x(spec, n, DEFAULT_ANGLES).value == pytest.approx(exact, rel=1e-3)
    # deviations grow with eps*N; at N=100 (eps*N = 0.1) they reach a few 1e-3
    exact = global_qfi_fd(spec, 100, DEFAULT_ANGLES, Param.X).value
    assert pt1_qfi_x(spec, 100, DEFAULT_ANGLES).value == pytest.approx(exact, rel=5e-3)


def test_pt1_omega1_tracks_exact_solver_strong_coupling():
    spec = ModelSpec(ModelKind.ZZXX, delta=1e-3)
    for n in (1, 5, 20, 50, 100):
        exact = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.OMEGA1).value
        assert pt1_qfi_omega1(spec, n, DEFAULT_ANGLES).value == pytest.approx(exact, rel=1e-3)


def test_pt1_omega1_quadratic_term_vanishes_when_probe_term_commutes():
    # Z-probe coupling commutes with the probe splitting, so the transformed
    # operator is trivial on the bus and only linear-in-N scaling survives
    res = pt1_qfi_omega1(ModelSpec(ModelKind.ZZZX), 5, DEFAULT_ANGLES)
    assert abs(res.quadratic_coefficient) < 1e-12
    assert res.linear_coefficient > 0.0


def test_pt1_omega1_exact_for_commuting_model():
    res = pt1_qfi_omega1(ModelSpec(ModelKind.ZZZZ), 7, DEFAULT_ANGLES)
    assert res.value == pytest.approx(
        global_qfi_closed(ModelSpec(ModelKind.ZZZZ), 7, DEFAULT_ANGLES, Param.OMEGA1),
        rel=1e-12)


def test_pt1_omega1_x0_reduces_to_free_evolution():
    res = pt1_qfi_omega1(ModelSpec(ModelKind.ZZXX, x=0.0), 6, DEFAULT_ANGLES)
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


def test_pt2_omega0_unsupported():
    with pytest.raises(ValueError):
        pt2_qfi_zeroth(ModelSpec(ModelKind.ZZXX), 4, DEFAULT_ANGLES, Param.OMEGA0)


def test_hl_condition_nonzero_for_xx_coupling():
    assert abs(hl_condition(ModelSpec(ModelKind.ZZXX), DEFAULT_ANGLES)) > 1e-10


def test_hl_condition_zero_for_bus_eigenstate():
    angles = StateAngles(math.pi / 3, 0.2, 0.0, 0.0)  # bus in |0>, Z eigenstate
    assert abs(hl_condition(ModelSpec(ModelKind.ZZZZ), angles)) < 1e-14


def test_hl_condition_matches_quadratic_coefficient():
    spec = ModelSpec(ModelKind.ZZZZ)  # eps = 1
    hl = hl_condition(spec, FAVORABLE_ANGLES)
    assert hl != 0.0
    values = [pt1_qfi_x(spec, n, FAVORABLE_ANGLES).value for n in range(1, 11)]
    coeffs = np.polyfit(np.arange(1, 11), values, 2)
    assert coeffs[0] == pytest.approx(4.0 * hl, rel=1e-10)


def test_pt1_x_is_exactly_quadratic_in_n():
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.3)
    ns = np.arange(1, 11)
    values = [pt1_qfi_x(spec, int(n), DEFAULT_ANGLES).value for n in ns]
    coeffs = np.polyfit(ns, values, 2)
    for n in (20, 50):
        predicted = np.polyval(coeffs, n)
        assert pt1_qfi_x(spec, n, DEFAULT_ANGLES).value == pytest.approx(
            predicted, rel=1e-10)


def test_quadrature_order_converged(monkeypatch):
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.5)

    def evaluate():
        return ([fn(spec, 10, DEFAULT_ANGLES).value for fn in (pt1_qfi_x, pt1_qfi_omega1)],
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
    assert got.insensitive and got.delta == math.inf


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


def test_regime_metadata_attached():
    res = pt1_qfi_x(ModelSpec(ModelKind.ZZXX, epsilon=0.01, delta=2.0), 30,
                    DEFAULT_ANGLES)
    assert res.eps_times_n == pytest.approx(0.3)
    assert res.delta_times_n == pytest.approx(60.0)
    assert res.free_norm_t == pytest.approx(30 * 0.5 * 1.0 * 1.0 * 2.0)
