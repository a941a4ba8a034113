import math

import numpy as np
import pytest

from spinbus import fullspace
from spinbus.states import (
    FAVORABLE_ANGLES,
    StateAngles,
    SymmetricState,
    ThermalProbeSpec,
    build_product_state,
    _jx_ladder,
    m_values,
    thermal_equivalent_alpha,
)


def test_favorable_state_n2():
    state = build_product_state(2, FAVORABLE_ANGLES)
    expected = np.zeros(6, dtype=complex)
    expected[0] = expected[1] = 1 / math.sqrt(2)  # (m=1, s=0) and (m=1, s=1)
    np.testing.assert_allclose(state.amplitudes, expected, atol=1e-15)


def test_basis_state_n1():
    state = build_product_state(1, StateAngles(0.0, 0.0, 0.0, 0.0))
    np.testing.assert_allclose(state.amplitudes, [1, 0, 0, 0], atol=1e-15)


def test_product_state_matches_full_tensor_construction():
    angles = StateAngles(math.pi / 3, 3 * math.pi / 8, math.pi / 6, 5 * math.pi / 8)
    full = fullspace.product_state_full(3, angles.alpha, angles.phi,
                                        angles.beta, angles.varphi)
    projected = fullspace.project_symmetric(full, 3)
    state = build_product_state(3, angles)
    np.testing.assert_allclose(state.amplitudes, projected, atol=1e-12)


@pytest.mark.parametrize("n", [1, 2, 4, 7, 10])
def test_product_state_full_hilbert_agreement_random_angles(n):
    rng = np.random.default_rng(1234 + n)
    for _ in range(5):
        angles = StateAngles(*rng.uniform(-math.pi, math.pi, 4))
        state = build_product_state(n, angles)
        full = fullspace.product_state_full(n, angles.alpha, angles.phi,
                                            angles.beta, angles.varphi)
        projected = fullspace.project_symmetric(full, n)
        np.testing.assert_allclose(state.amplitudes, projected, atol=1e-10)
        # nothing may leak out of the symmetric sector for identical probes
        assert abs(np.linalg.norm(projected) - 1.0) < 1e-10


def collective_jz(n: int) -> np.ndarray:
    """J_z = sum_i Z^(i)/2 on the (N+1)-dimensional probe sector: diag(m)."""
    return np.diag(m_values(n).astype(float))


def collective_jx(n: int) -> np.ndarray:
    """J_x = sum_i X^(i)/2 from the ladder elements the Hamiltonians use."""
    off = _jx_ladder(n)
    return np.diag(off, 1) + np.diag(off, -1)


@pytest.mark.parametrize("n,expected", [
    (2, [1.0, 0.0, -1.0]),
    (1, [0.5, -0.5]),
    (4, [2.0, 1.0, 0.0, -1.0, -2.0]),
])
def test_collective_jz_diagonal(n, expected):
    np.testing.assert_allclose(np.diag(collective_jz(n)), expected)


def test_collective_jx_ladder_elements():
    jx = collective_jx(2)
    assert jx[0, 1] == pytest.approx(1 / math.sqrt(2), abs=1e-15)
    np.testing.assert_allclose(collective_jx(1), [[0.0, 0.5], [0.5, 0.0]])


@pytest.mark.parametrize("n", [3, 9, 40])
def test_collective_jx_symmetric_traceless(n):
    jx = collective_jx(n)
    np.testing.assert_allclose(jx, jx.T)
    assert abs(np.trace(jx)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 5, 17, 64])
def test_angular_momentum_algebra(n):
    jz, jx = collective_jz(n), collective_jx(n)
    jy = -1j * (jz @ jx - jx @ jz)
    comm_xy = jx @ jy - jy @ jx
    np.testing.assert_allclose(comm_xy, 1j * jz, atol=1e-12)
    j = n / 2
    casimir = jx @ jx + jy @ jy + jz @ jz
    np.testing.assert_allclose(casimir, j * (j + 1) * np.eye(n + 1), atol=1e-10)


@pytest.mark.parametrize("n", [100, 700, 2000])
def test_large_n_norm(n):
    rng = np.random.default_rng(n)
    angles = StateAngles(*rng.uniform(0.1, math.pi / 2, 4))
    state = build_product_state(n, angles)
    assert abs(np.linalg.norm(state.amplitudes) - 1.0) < 1e-12


def test_thermal_equivalent_alpha_limits():
    assert thermal_equivalent_alpha(ThermalProbeSpec(0.0, 1.0)) == pytest.approx(math.pi / 4)
    assert thermal_equivalent_alpha(ThermalProbeSpec(400.0, 2.0)) == pytest.approx(math.pi / 2)


def test_thermal_equivalent_alpha_value():
    # arccos(sqrt(e^-1 / (e^-1 + e^1))), evaluated independently to 16 digits
    got = thermal_equivalent_alpha(ThermalProbeSpec(1.0, 1.0))
    assert got == pytest.approx(1.2182829050172777, abs=1e-14)


def test_invalid_arguments():
    with pytest.raises(ValueError):
        build_product_state(0, FAVORABLE_ANGLES)
    with pytest.raises(ValueError):
        StateAngles(math.nan, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ThermalProbeSpec(-0.5, 1.0)
    with pytest.raises(ValueError):
        SymmetricState(2, np.ones(6))  # unnormalized
    with pytest.raises(ValueError):
        SymmetricState(2, np.array([1.0, 0, 0, 0]))  # wrong length

