import math
from dataclasses import replace

import numpy as np
import pytest

from spinbus import fullspace, paulis
from spinbus.dynamics import ModelKind, ModelSpec, propagate
from spinbus.fisher import Param, first_moment_uncertainty, reduce_to_bus
from spinbus.states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    ThermalProbeSpec,
    thermal_equivalent_alpha,
)
from spinbus.zzzz_exact import (
    XReadoutVariant,
    delta_x_x_readout,
    global_qfi_closed,
    local_qfi_x_closed,
    reduced_rho_closed,
    thermal_global_qfi,
    thermal_local_equivalence_check,
)

ZZZZ = ModelSpec(ModelKind.ZZZZ)


def test_global_closed_special_states():
    assert global_qfi_closed(ZZZZ, 7, FAVORABLE_ANGLES, Param.X) == pytest.approx(49.0)
    assert global_qfi_closed(ZZZZ, 7, UNFAVORABLE_ANGLES, Param.X) == pytest.approx(7.0)


@pytest.mark.parametrize("n", [0, -3])
def test_closed_forms_reject_fewer_than_one_probe(n):
    calls = (lambda: global_qfi_closed(ZZZZ, n, DEFAULT_ANGLES, Param.X),
             lambda: reduced_rho_closed(ZZZZ, n, DEFAULT_ANGLES),
             lambda: local_qfi_x_closed(ZZZZ, n, DEFAULT_ANGLES),
             lambda: delta_x_x_readout(ZZZZ, n, DEFAULT_ANGLES, XReadoutVariant.PT_GENERAL),
             lambda: thermal_global_qfi(ZZZZ, n, 0.5, 0.3, Param.X),
             lambda: thermal_local_equivalence_check(ZZZZ, n, 0.5, 0.3))
    for call in calls:
        with pytest.raises(ValueError, match="n must be >= 1"):
            call()


@pytest.mark.parametrize("beta_th", [math.nan, math.inf, -1.0])
def test_thermal_qfi_rejects_a_bad_temperature(beta_th):
    for sel in Param:
        with pytest.raises(ValueError, match="beta_th"):
            thermal_global_qfi(ZZZZ, 5, beta_th, 0.3, sel)


def test_global_closed_omega0_n_independent():
    values = {global_qfi_closed(ZZZZ, n, DEFAULT_ANGLES, Param.OMEGA0)
              for n in (1, 10, 100)}
    assert len(values) == 1
    expected = math.sin(2 * DEFAULT_ANGLES.beta) ** 2
    assert values.pop() == pytest.approx(expected)


def test_non_dephasing_model_rejected():
    with pytest.raises(ValueError):
        global_qfi_closed(ModelSpec(ModelKind.ZZXX), 3, DEFAULT_ANGLES, Param.X)


def test_reduced_rho_t0_pure():
    spec = replace(ZZZZ, t=0.0)
    rho = reduced_rho_closed(spec, 4, DEFAULT_ANGLES).rho
    xi = np.array([math.cos(DEFAULT_ANGLES.beta),
                   math.sin(DEFAULT_ANGLES.beta) * np.exp(1j * DEFAULT_ANGLES.varphi)])
    np.testing.assert_allclose(rho, np.outer(xi, xi.conj()), atol=1e-14)


def test_reduced_rho_full_dephasing():
    spec = replace(ZZZZ, x=math.pi / 2)
    rho = reduced_rho_closed(spec, 6, UNFAVORABLE_ANGLES).rho
    assert abs(rho[0, 1]) < 1e-12


@pytest.mark.parametrize("n", [1, 4, 8])
def test_reduced_rho_matches_propagation(n):
    rng = np.random.default_rng(n * 17)
    angles = StateAngles(*rng.uniform(0, math.pi, 4))
    spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.5, 2),
                     epsilon=rng.uniform(0.5, 2), x=rng.uniform(0.5, 2),
                     t=rng.uniform(0.5, 2))
    closed = reduced_rho_closed(spec, n, angles).rho
    pipeline = reduce_to_bus(propagate(spec, n, angles)).rho
    np.testing.assert_allclose(closed, pipeline, atol=1e-10)


def test_local_qfi_favorable_equals_global():
    for n in (2, 5, 11):
        local = local_qfi_x_closed(ZZZZ, n, FAVORABLE_ANGLES)
        assert local == pytest.approx(float(n * n), rel=1e-12)
        assert local == pytest.approx(
            global_qfi_closed(ZZZZ, n, FAVORABLE_ANGLES, Param.X), rel=1e-12)


def test_local_qfi_worst_state_value():
    expected = 16 * math.tan(1.0) ** 2 / (math.cos(1.0) ** -8 - 1.0)
    assert local_qfi_x_closed(ZZZZ, 4, UNFAVORABLE_ANGLES) == pytest.approx(expected, rel=1e-12)


def test_local_qfi_worst_state_decays_exponentially():
    values = [local_qfi_x_closed(ZZZZ, n, UNFAVORABLE_ANGLES)
              for n in range(1, 120)]
    peak = int(np.argmax(values))
    diffs = np.diff(values[peak:])
    assert np.all(diffs <= 1e-15)
    assert values[-1] < 1e-20 * max(values)  # exponential suppression
    assert values[-1] >= 0.0  # underflow degrades to zero, never to inf/nan


def test_delta_x_exact_reduces_to_local_qfi_without_bus_precession():
    # cos(delta w0 t) = 1 makes the exact readout saturate the local QFI
    spec = replace(ZZZZ, omega0=0.0)
    for n in (2, 7):
        got = delta_x_x_readout(spec, n, UNFAVORABLE_ANGLES, XReadoutVariant.EXACT_WORST)
        assert got.inv_squared == pytest.approx(
            local_qfi_x_closed(spec, n, UNFAVORABLE_ANGLES), rel=1e-12)


def test_delta_x_exact_matches_first_moment_pipeline():
    for n in (1, 3, 6):
        got = delta_x_x_readout(ZZZZ, n, UNFAVORABLE_ANGLES, XReadoutVariant.EXACT_WORST)
        ref = first_moment_uncertainty(ZZZZ, n, UNFAVORABLE_ANGLES, Param.X, paulis.X)
        assert got.inv_squared == pytest.approx(ref.inv_squared, rel=1e-6)


def test_delta_x_perturbative_sql_slope_at_large_n():
    ns = np.unique(np.round(np.logspace(3, 4, 8)).astype(int))
    vals = [delta_x_x_readout(ZZZZ, int(n), UNFAVORABLE_ANGLES,
                              XReadoutVariant.PT_WORST).inv_squared for n in ns]
    slope = np.polyfit(np.log(ns), np.log(vals), 1)[0]
    assert slope == pytest.approx(1.0, abs=0.05)


def test_delta_x_general_matches_first_moment_small_coupling():
    spec = replace(ZZZZ, epsilon=0.05)
    for n in (2, 6):
        got = delta_x_x_readout(spec, n, UNFAVORABLE_ANGLES, XReadoutVariant.PT_GENERAL)
        ref = first_moment_uncertainty(spec, n, UNFAVORABLE_ANGLES, Param.X, paulis.X)
        assert got.inv_squared == pytest.approx(ref.inv_squared, rel=1e-2)


def test_delta_x_general_arbitrary_angles_matches_pipeline():
    """The binomial sums are exact for any angles and parameters: they match
    the pipeline to 1e-9 plus the pipeline's own certified error, which
    (d<X>/dx)^2 doubles.  Where the pipeline cannot resolve the derivative
    (`insensitive`), the closed form's must lie within twice that error."""
    rng = np.random.default_rng(5)
    for _ in range(200):
        angles = StateAngles(*rng.uniform(0.0, 0.5 * math.pi, 4) * [1, 4, 1, 4])
        spec = replace(ZZZZ, **dict(zip(("delta", "epsilon", "x", "t"),
                                        rng.uniform(0.5, 2.0, 4))))
        n = int(rng.integers(1, 40))
        got = delta_x_x_readout(spec, n, angles, XReadoutVariant.PT_GENERAL)
        ref = first_moment_uncertainty(spec, n, angles, Param.X, paulis.X)
        bound = ref.relative_discrepancy
        if ref.flag == "insensitive":
            error = bound * abs(ref.mean_derivative)
            assert got.inv_squared * ref.variance <= (2.0 * error) ** 2
        else:
            assert got.inv_squared == pytest.approx(ref.inv_squared, rel=1e-9 + 3.0 * bound)


def test_delta_x_worst_variants_require_worst_angles():
    with pytest.raises(ValueError):
        delta_x_x_readout(ZZZZ, 3, DEFAULT_ANGLES, XReadoutVariant.EXACT_WORST)


def test_delta_x_vanishes_at_full_dephasing():
    spec = replace(ZZZZ, x=math.pi / 2)
    for n in (2, 5, 40):
        got = delta_x_x_readout(spec, n, UNFAVORABLE_ANGLES, XReadoutVariant.EXACT_WORST)
        assert got.inv_squared < 1e-25


def test_thermal_qfi_limits():
    beta = math.pi / 5
    cold = thermal_global_qfi(ZZZZ, 9, 500.0, beta, Param.X)
    assert cold == pytest.approx(81 * math.sin(2 * beta) ** 2, rel=1e-12)
    hot = thermal_global_qfi(ZZZZ, 9, 0.0, beta, Param.X)
    assert hot == pytest.approx(9 * math.sin(2 * beta) ** 2, rel=1e-12)


def test_thermal_omega1_value():
    got = thermal_global_qfi(ZZZZ, 10, 1.0, 0.4, Param.OMEGA1)
    assert got == pytest.approx(10 * (1 - math.tanh(1.0) ** 2), rel=1e-12)


@pytest.mark.parametrize("beta_th", [5.0, 10.0, 17.0, 19.0, 30.0])
def test_thermal_qfi_matches_mpmath_at_large_u(beta_th):
    # sech^2(u) taken directly, not as 1 - tanh^2(u), which cancels as u grows
    mpmath = pytest.importorskip("mpmath")
    n, beta = 3, 0.6
    with mpmath.workdps(40):
        u = mpmath.mpf(beta_th)
        sech_sq = mpmath.sech(u) ** 2
        expected = {Param.X: mpmath.sin(2 * mpmath.mpf(beta)) ** 2
                    * (n ** 2 * mpmath.tanh(u) ** 2 + n * sech_sq),
                    Param.OMEGA1: n * u ** 2 * sech_sq}
    for sel, ref in expected.items():
        got = thermal_global_qfi(ZZZZ, n, beta_th, beta, sel)
        assert got == pytest.approx(float(ref), rel=1e-12, abs=0.0)


def test_thermal_equivalence_fully_mixed():
    passed, dev = thermal_local_equivalence_check(ZZZZ, 5, 0.0, math.pi / 4)
    assert passed and dev < 1e-12
    assert thermal_equivalent_alpha(ThermalProbeSpec(0.0, 1.0)) == pytest.approx(math.pi / 4)


def test_thermal_equivalence_random():
    rng = np.random.default_rng(11)
    for _ in range(10):
        spec = ModelSpec(ModelKind.ZZZZ, omega1=rng.uniform(0.3, 2.0),
                         x=rng.uniform(0.3, 2.0), t=rng.uniform(0.3, 2.0))
        passed, dev = thermal_local_equivalence_check(
            spec, int(rng.integers(1, 12)), rng.uniform(0.0, 1.5),
            rng.uniform(0.1, 1.4), rng.uniform(0, 2 * math.pi))
        assert passed, f"deviation {dev}"


def test_thermal_pure_partner_shares_local_sensitivity():
    spec = replace(ZZZZ, omega1=0.8)
    beta_th, n = 0.9, 6
    alpha = thermal_equivalent_alpha(ThermalProbeSpec(beta_th, spec.omega1))
    partner = StateAngles(alpha, 0.0, 0.6, 0.0)
    pure_local = local_qfi_x_closed(spec, n, partner)

    # thermal local QFI from the first-principles mixed state via the bus
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=0.8, x=1.0, t=1.0)
    step = 1e-6
    def bus_rho(x_val):
        weights, _, psi, _ = fullspace._thermal_states("ZZZZ", n, dict(params, x=x_val),
                                                       beta_th, 0.6, 0.0)
        block = ((psi * weights) @ psi.conj().T).reshape(2 ** n, 2, 2 ** n, 2)
        return np.einsum("pspt->st", block)
    drho = (bus_rho(1.0 + step) - bus_rho(1.0 - step)) / (2 * step)
    thermal_local = fullspace.mixed_qfi(bus_rho(1.0), drho)
    assert thermal_local == pytest.approx(pure_local, rel=1e-6)


def test_alpha_sweep_structure():
    # bus at beta=pi/4 with zero phases: beyond its per-alpha maximum the
    # local QFI never grows with N; at alpha=0 it is exactly N^2
    for alpha in (0.1, 0.4, math.pi / 4):
        angles = StateAngles(alpha, 0.0, math.pi / 4, 0.0)
        values = [local_qfi_x_closed(ZZZZ, n, angles) for n in range(1, 80)]
        peak = int(np.argmax(values))
        assert np.all(np.diff(values[peak:]) <= 1e-12 * max(values))
    for n in (1, 6, 30):
        angles = StateAngles(0.0, 0.0, math.pi / 4, 0.0)
        assert local_qfi_x_closed(ZZZZ, n, angles) == pytest.approx(n ** 2, rel=1e-12)


def test_reduced_rho_has_no_omega1_dependence():
    a = reduced_rho_closed(replace(ZZZZ, omega1=0.7), 5, DEFAULT_ANGLES).rho
    b = reduced_rho_closed(replace(ZZZZ, omega1=3.1), 5, DEFAULT_ANGLES).rho
    np.testing.assert_array_equal(a, b)
