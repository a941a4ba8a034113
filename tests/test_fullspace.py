"""The dense full-space oracle against plain tensor-product references."""

import math
from functools import reduce

import numpy as np
import pytest

from spinbus import fullspace

I2 = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
INTERACTIONS = {"ZZZZ": (Z, Z), "ZZXX": (X, X), "ZZZX": (Z, X)}


def _kron_chain(ops: dict, n_sites: int) -> np.ndarray:
    return reduce(np.kron, [ops.get(k, I2) for k in range(n_sites)])


def _kron_hamiltonian(kind, n, delta, epsilon, omega0, omega1, x):
    probe_op, bus_op = INTERACTIONS[kind]
    h = delta * omega0 / 2.0 * _kron_chain({n: Z}, n + 1)
    for i in range(n):
        h = h + delta * omega1 / 2.0 * _kron_chain({i: Z}, n + 1)
        h = h + epsilon * x / 2.0 * _kron_chain({i: probe_op, n: bus_op}, n + 1)
    return h


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_hamiltonian_matches_kron_chains(kind, n):
    rng = np.random.default_rng(n * 7 + len(kind))
    params = rng.uniform(-2.0, 2.0, 5)
    h = fullspace.hamiltonian_full(kind, n, *params)
    assert h.dtype == np.float64
    assert h.shape == (2 ** (n + 1),) * 2
    assert np.array_equal(h, h.T)
    assert np.max(np.abs(h - _kron_hamiltonian(kind, n, *params))) < 1e-14


def _loop_thermal_density(kind, n, params, beta_th, bus_beta, bus_varphi, override):
    """One complex propagation and one outer product per probe configuration."""
    p = dict(params, **override)
    u = beta_th * p["omega1"]
    pop = np.array([math.exp(-u), math.exp(u)]) / (math.exp(-u) + math.exp(u))
    h = _kron_hamiltonian(kind, n, p["delta"], p["epsilon"], p["omega0"],
                          p["omega1"], p["x"])
    w, v = np.linalg.eigh(h)
    bus = fullspace.qubit_state(bus_beta, bus_varphi)
    dim = 2 ** (n + 1)
    rho = np.zeros((dim, dim), dtype=complex)
    for config in range(2 ** n):
        weight = math.prod(pop[(config >> bit) & 1] for bit in range(n))
        psi0 = np.zeros(dim, dtype=complex)
        psi0[2 * config: 2 * config + 2] = bus
        psi_t = v @ (np.exp(-1j * w * p["t"]) * (v.conj().T @ psi0))
        rho += weight * np.outer(psi_t, psi_t.conj())
    return rho


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
@pytest.mark.parametrize("n", [1, 3])
def test_thermal_density_matches_per_configuration_loop(kind, n):
    params = dict(delta=0.7, epsilon=1.3, omega0=0.9, omega1=1.1, x=0.8, t=1.7)
    for override in ({}, {"omega1": 1.1 + 1e-3}):
        rho = fullspace.thermal_evolved_density(kind, n, params, 0.6, 0.4, 1.2,
                                                override=override)
        reference = _loop_thermal_density(kind, n, params, 0.6, 0.4, 1.2, override)
        assert np.max(np.abs(rho - reference)) < 1e-13
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert abs(np.trace(rho).imag) < 1e-15
