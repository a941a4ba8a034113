"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
summary lines.  The N=2000 weak-coupling run is opt-in: `pytest -m slow`.
"""

import math

import numpy as np
import pytest

from spinbus import fullspace, paulis
from spinbus.dynamics import ModelKind, ModelSpec, propagate
from spinbus.fisher import (
    Param,
    first_moment_uncertainty,
    global_qfi_fd,
    local_qfi_fd,
    reduce_to_bus,
)
from spinbus.perturb import pt1_qfi_omega1, pt1_qfi_x
from spinbus.states import (
    DEFAULT_ANGLES,
    FAVORABLE_ANGLES,
    UNFAVORABLE_ANGLES,
    StateAngles,
    build_product_state,
)
from spinbus.sweep import Row, fit_scaling
from spinbus.zzzz_exact import (
    XReadoutVariant,
    delta_x_x_readout,
    global_qfi_closed,
    local_qfi_x_closed,
    reduced_rho_closed,
    thermal_global_qfi,
    thermal_local_equivalence_check,
)

RELATIVE = 1e-6
ANGLE_SETS = 20
N_SAMPLE = (1, 2, 3, 5, 8, 13, 21, 34, 55, 64)


def _report(criterion: int, text: str):
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


def _random_angles(rng):
    return StateAngles(alpha=rng.uniform(0.05, math.pi / 2 - 0.05),
                       phi=rng.uniform(0.0, 2 * math.pi),
                       beta=rng.uniform(0.05, math.pi / 2 - 0.05),
                       varphi=rng.uniform(0.0, 2 * math.pi))


def test_criterion_1_dephasing_closed_forms():
    """Numerical pipeline vs every ZZZZ closed form, 20 random angle sets."""
    rng = np.random.default_rng(20260808)
    worst = 0.0
    for _ in range(ANGLE_SETS):
        angles = _random_angles(rng)
        spec = ModelSpec(ModelKind.ZZZZ, delta=rng.uniform(0.5, 1.5),
                         epsilon=rng.uniform(0.5, 1.5), x=rng.uniform(0.5, 1.5),
                         t=rng.uniform(0.5, 1.5))
        for n in N_SAMPLE:
            for sel in Param:
                closed = global_qfi_closed(spec, n, angles, sel)
                numeric = global_qfi_fd(spec, n, angles, sel).value
                worst = max(worst, abs(numeric - closed) / max(abs(closed), 1e-12))
            rho_c = reduced_rho_closed(spec, n, angles).rho
            rho_n = reduce_to_bus(propagate(spec, n, angles)).rho
            worst = max(worst, float(np.max(np.abs(rho_c - rho_n))))
    assert worst < RELATIVE

    # Worst-state closed forms: local QFI and exact X-readout sensitivity.
    # Both decay like cos(eps t x)^(2N), reaching 1e-31 by N = 64; a finite
    # difference in double precision cannot carry 6 relative digits once the
    # value sinks below its round-off floor, so the relative check applies
    # while the closed value is resolvable and an absolute check covers the
    # suppressed tail (whose decay itself is asserted in criterion 5).
    spec = ModelSpec(ModelKind.ZZZZ)
    worst_local = 0.0
    worst_abs = 0.0
    for n in range(1, 65):
        closed_local = local_qfi_x_closed(spec, n, UNFAVORABLE_ANGLES)
        numeric_local = local_qfi_fd(spec, n, UNFAVORABLE_ANGLES, Param.X).value
        closed_dx = delta_x_x_readout(spec, n, UNFAVORABLE_ANGLES,
                                      XReadoutVariant.EXACT_WORST).inv_squared
        numeric_dx = first_moment_uncertainty(spec, n, UNFAVORABLE_ANGLES,
                                              Param.X, paulis.X).inv_squared
        for closed, numeric in ((closed_local, numeric_local),
                                (closed_dx, numeric_dx)):
            if closed >= 1e-3:
                worst_local = max(worst_local, abs(numeric - closed) / closed)
            worst_abs = max(worst_abs, abs(numeric - closed))
    assert worst_local < RELATIVE
    assert worst_abs < 1e-8
    _report(1, f"pipeline vs closed forms, worst relative deviation "
               f"{max(worst, worst_local):.2e} < 1e-6 "
               f"(absolute {worst_abs:.2e} on the suppressed tail)")


def test_criterion_2_full_hilbert_oracle():
    """Dense 2^(N+1) construction/propagation/partial trace vs the
    symmetric-sector pipeline for N <= 8."""
    rng = np.random.default_rng(42)
    worst_state = 0.0
    worst_rho = 0.0
    worst_qfi = 0.0
    for kind in ModelKind:
        for n in (2, 5, 8):
            angles = _random_angles(rng)
            spec = ModelSpec(kind, t=rng.uniform(0.5, 1.5))
            full0 = fullspace.product_state_full(n, angles.alpha, angles.phi,
                                                 angles.beta, angles.varphi)
            hfull = fullspace.hamiltonian_full(str(kind), n, spec.delta,
                                               spec.epsilon, spec.omega0,
                                               spec.omega1, spec.x)
            full_t = fullspace.propagate_full(hfull, spec.t, full0)
            psi = propagate(spec, n, angles)
            worst_state = max(worst_state, float(np.max(np.abs(
                fullspace.project_symmetric(full_t, n) - psi.amplitudes))))
            worst_rho = max(worst_rho, float(np.max(np.abs(
                fullspace.bus_density(full_t) - reduce_to_bus(psi).rho))))
        params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0,
                      x=1.0, t=1.0)
        for sel in (Param.X, Param.OMEGA1, Param.OMEGA0):
            mine = global_qfi_fd(ModelSpec(kind), 6, DEFAULT_ANGLES, sel).value
            ref = fullspace.global_qfi_full(str(kind), 6, params, sel.field,
                                            DEFAULT_ANGLES.alpha, DEFAULT_ANGLES.phi,
                                            DEFAULT_ANGLES.beta, DEFAULT_ANGLES.varphi)
            worst_qfi = max(worst_qfi, abs(mine - ref) / max(abs(ref), 1e-12))
    assert worst_state < 1e-8
    assert worst_rho < 1e-8
    assert worst_qfi < RELATIVE
    _report(2, f"full-Hilbert oracle: states {worst_state:.2e} < 1e-8, "
               f"QFIs rel {worst_qfi:.2e} < 1e-6")


def _exact_qfi_rows(kind, sel, n_grid, **spec_kw):
    rows = []
    for n in n_grid:
        res = global_qfi_fd(ModelSpec(kind, **spec_kw), int(n), DEFAULT_ANGLES, sel)
        rows.append(Row(int(n), "g", "r", res.value,
                        "ill_conditioned" if res.ill_conditioned else ""))
    return rows


def _log_grid(lo, hi, count):
    return sorted(set(np.round(np.logspace(math.log10(lo), math.log10(hi),
                                           count)).astype(int)))


def test_criterion_3_scaling_exponents():
    """Log-log slopes over the upper half of each N grid reproduce the
    guide-line exponents of the energy-exchange model sweeps."""
    summaries = []

    grid = _log_grid(25, 200, 10)
    rows = _exact_qfi_rows(ModelKind.ZZXX, Param.X, grid, epsilon=100.0)
    exp_x, _ = fit_scaling(rows, "g", "r", (grid[len(grid) // 2], grid[-1]))
    assert exp_x == pytest.approx(2.0, abs=0.15)
    summaries.append(f"I_x eps=100: {exp_x:.3f} ~ 2")

    grid = _log_grid(10, 500, 10)
    rows = _exact_qfi_rows(ModelKind.ZZXX, Param.OMEGA1, grid, delta=0.001)
    exp_strong, _ = fit_scaling(rows, "g", "r", (grid[len(grid) // 2], grid[-1]))
    assert exp_strong == pytest.approx(2.0, abs=0.15)
    summaries.append(f"I_w1 delta=0.001: {exp_strong:.3f} ~ 2")

    rows = _exact_qfi_rows(ModelKind.ZZXX, Param.OMEGA1, grid, delta=100.0)
    exp_weak, _ = fit_scaling(rows, "g", "r", (grid[len(grid) // 2], grid[-1]))
    assert exp_weak == pytest.approx(1.0, abs=0.15)
    summaries.append(f"I_w1 delta=100: {exp_weak:.3f} ~ 1")

    grid = _log_grid(1, 200, 12)
    rows = _exact_qfi_rows(ModelKind.ZZXX, Param.OMEGA0, grid, delta=1.0)
    exp_w0, _ = fit_scaling(rows, "g", "r", (grid[len(grid) // 2], grid[-1]))
    assert exp_w0 <= 0.0
    summaries.append(f"I_w0 delta=1: {exp_w0:.3f} <= 0")

    _report(3, "; ".join(summaries))


@pytest.mark.slow
def test_criterion_3_optional_weak_coupling_to_n2000():
    """SQL scaling of I_omega1 at delta=100 persists to N = 2000.

    The fit uses the reported (exact-derivative) values; at N = 2000 the
    Hamiltonian norm is ~1e5, and the check step scaled to the generator
    keeps the finite-difference cross-check within ~1e-7 of them, so no
    point is flagged.
    """
    rows = []
    for n in (500, 1000, 2000):
        res = global_qfi_fd(ModelSpec(ModelKind.ZZXX, delta=100.0), n,
                            DEFAULT_ANGLES, Param.OMEGA1)
        rows.append(Row(n, "g", "r", res.value))
    exponent, _ = fit_scaling(rows, "g", "r", (500, 2000))
    assert exponent == pytest.approx(1.0, abs=0.15)
    _report(3, f"optional long run: I_w1 delta=100 exponent {exponent:.3f} ~ 1 "
               f"up to N=2000")


def test_criterion_4_perturbation_cubic_residual():
    """|I_exact - I_pt| scales as the cube of the small parameter."""
    grid = np.logspace(-3, -1, 7)
    slopes = {}
    for label, sel, fld, pt_fn in (("eps", Param.X, "epsilon", pt1_qfi_x),
                                   ("delta", Param.OMEGA1, "delta", pt1_qfi_omega1)):
        residuals = []
        for v in grid:
            spec = ModelSpec(ModelKind.ZZXX, **{fld: float(v)})
            exact = global_qfi_fd(spec, 4, DEFAULT_ANGLES, sel).value
            residuals.append(abs(exact - pt_fn(spec, 4, DEFAULT_ANGLES).value))
        slope = float(np.polyfit(np.log(grid), np.log(residuals), 1)[0])
        assert slope == pytest.approx(3.0, abs=0.2)
        slopes[label] = slope
    _report(4, f"residual slopes eps {slopes['eps']:.2f}, "
               f"delta {slopes['delta']:.2f}, both within 3.0 +- 0.2")


def test_criterion_5_special_state_identities():
    """Most/least favorable product states behave per the closed theory."""
    spec = ModelSpec(ModelKind.ZZZZ)
    # favorable state: global equals local equals N^2 eps^2 t^2
    for n in N_SAMPLE:
        target = float(n * n)
        assert abs(global_qfi_closed(spec, n, FAVORABLE_ANGLES, Param.X) - target) <= 1e-10 * target
        assert abs(local_qfi_x_closed(spec, n, FAVORABLE_ANGLES) - target) <= 1e-10 * target

    # worst state: local sensitivity decays beyond its maximum ...
    local = [local_qfi_x_closed(spec, n, UNFAVORABLE_ANGLES) for n in range(1, 100)]
    dx = [delta_x_x_readout(spec, n, UNFAVORABLE_ANGLES,
                            XReadoutVariant.EXACT_WORST).inv_squared
          for n in range(1, 100)]
    for series in (local, dx):
        peak = int(np.argmax(series))
        assert np.all(np.diff(series[peak:]) <= 1e-15)
        assert series[-1] < 1e-8 * max(series)

    # ... and vanishes at the full-dephasing point
    dephased = spec.replaced(x=math.pi / 2)
    assert local_qfi_x_closed(dephased, 5, UNFAVORABLE_ANGLES) < 1e-12
    assert delta_x_x_readout(dephased, 5, UNFAVORABLE_ANGLES,
                             XReadoutVariant.EXACT_WORST).inv_squared < 1e-12

    # lowest-order X-readout misses the decay: SQL slope at large N
    ns = np.unique(np.round(np.logspace(3, 4, 8)).astype(int))
    vals = [delta_x_x_readout(spec, int(n), UNFAVORABLE_ANGLES,
                              XReadoutVariant.PT_WORST).inv_squared for n in ns]
    slope = float(np.polyfit(np.log(ns), np.log(vals), 1)[0])
    assert slope == pytest.approx(1.0, abs=0.05)
    _report(5, f"favorable identity exact; worst-state sensitivities decay and "
               f"vanish at eps*t*x = pi/2; lowest-order slope {slope:.3f} ~ 1")


def test_criterion_6_thermal_probes():
    """Closed thermal QFIs vs the first-principles mixed-state computation,
    plus the thermal-to-pure reduced-state mapping."""
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0, x=1.0, t=1.0)
    spec = ModelSpec(ModelKind.ZZZZ)
    worst = 0.0
    for n, beta_th in ((2, 0.0), (2, 1.3), (5, 0.7), (8, 0.4)):
        for sel in (Param.X, Param.OMEGA1, Param.OMEGA0):
            closed = thermal_global_qfi(spec, n, beta_th, 0.6, sel)
            ref = fullspace.thermal_global_qfi_full("ZZZZ", n, params, sel.field,
                                                    beta_th, 0.6, 0.3)
            worst = max(worst, abs(closed - ref) / max(abs(closed), 1e-9))
    assert worst < RELATIVE

    rng = np.random.default_rng(6)
    worst_dev = 0.0
    for _ in range(10):
        s = ModelSpec(ModelKind.ZZZZ, omega1=rng.uniform(0.2, 2.5),
                      x=rng.uniform(0.3, 2.0), t=rng.uniform(0.3, 2.0))
        passed, dev = thermal_local_equivalence_check(
            s, int(rng.integers(1, 13)), rng.uniform(0.0, 1.8),
            rng.uniform(0.1, 1.4), rng.uniform(0, 2 * math.pi))
        assert passed
        worst_dev = max(worst_dev, dev)
    assert worst_dev < 1e-10
    _report(6, f"thermal closed forms rel {worst:.2e} < 1e-6; "
               f"pure-partner mapping deviation {worst_dev:.2e} < 1e-10")


def test_criterion_7_property_suite():
    """Cross-cutting invariants: positivity, monotonicity, estimator bound,
    conservation laws, quadratic time scaling, commuting-coupling check."""
    rng = np.random.default_rng(77)
    details = []

    # QFI never negative across a random model/parameter sample
    for _ in range(6):
        kind = list(ModelKind)[int(rng.integers(0, 3))]
        spec = ModelSpec(kind, delta=rng.uniform(0.1, 2), epsilon=rng.uniform(0.1, 2),
                         t=rng.uniform(0.2, 1.5))
        sel = list(Param)[int(rng.integers(0, 3))]
        angles = _random_angles(rng)
        n = int(rng.integers(1, 24))
        assert global_qfi_fd(spec, n, angles, sel).value >= 0.0
        assert local_qfi_fd(spec, n, angles, sel).value >= 0.0
    details.append("QFI >= 0")

    # partial-trace monotonicity and the first-moment estimator bound
    spec = ModelSpec(ModelKind.ZZXX, epsilon=0.7)
    for n in (3, 9):
        global_ = global_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        local = local_qfi_fd(spec, n, DEFAULT_ANGLES, Param.X).value
        fm = first_moment_uncertainty(spec, n, DEFAULT_ANGLES, Param.X,
                                      paulis.XZ_HALF, 2)
        slack = 1e-6 * max(1.0, global_)
        assert local <= global_ + slack
        assert fm.inv_squared <= 2 * local + slack
    details.append("I_local <= I_global, (delta)^-2 <= M I_local")

    # norm and energy conservation under evolution
    from spinbus.dynamics import assemble, evolve
    h = assemble(spec, 8)
    psi0 = build_product_state(8, DEFAULT_ANGLES)
    psi_t = evolve(h, 1.7, psi0)
    assert abs(np.linalg.norm(psi_t.amplitudes) - 1.0) < 1e-10
    e0 = np.vdot(psi0.amplitudes, h.matrix @ psi0.amplitudes).real
    et = np.vdot(psi_t.amplitudes, h.matrix @ psi_t.amplitudes).real
    assert abs(et - e0) < 1e-9 * max(1.0, abs(e0))
    details.append("norm/energy conserved")

    # quadratic time scaling of the dephasing-model global QFIs
    zzzz = ModelSpec(ModelKind.ZZZZ)
    for sel in Param:
        one = global_qfi_fd(zzzz, 6, DEFAULT_ANGLES, sel).value
        two = global_qfi_fd(zzzz.replaced(t=2.0), 6, DEFAULT_ANGLES, sel).value
        assert two == pytest.approx(4.0 * one, rel=1e-6)
    details.append("I(2t) = 4 I(t)")

    # commuting probe coupling kills the N^2 channel for omega1
    seeds_angles = [_random_angles(np.random.default_rng(s)) for s in (1, 2, 3)]
    for angles in seeds_angles:
        res = pt1_qfi_omega1(ModelSpec(ModelKind.ZZZX), 4, angles)
        assert abs(res.quadratic_coefficient) < 1e-12
    details.append("ZZZX N^2 coefficient < 1e-12")

    _report(7, "; ".join(details))
