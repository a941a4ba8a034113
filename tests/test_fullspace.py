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


def _dense_propagation(h, t, psi0):
    """exp(-i h t) psi0 through one dense eigendecomposition of all of h."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t)[:, None] * (v.T @ psi0.reshape(len(h), -1)))


# (delta, epsilon, omega0, omega1, x) of the cases that change the block
# structure: x = 0, eps = 0 (no coupling) and omega0 = omega1 = 0 (no fields)
DEGENERATE = [(0.8, 1.2, 0.9, 1.1, 0.0), (0.8, 0.0, 0.9, 1.1, 1.3),
              (0.8, 1.2, 0.0, 0.0, 1.3)]


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
@pytest.mark.parametrize("n", [1, 3, 6])
def test_blocked_propagation_matches_dense_eigh(kind, n):
    rng = np.random.default_rng(n * 11 + len(kind))
    cases = [tuple(rng.uniform(-2.0, 2.0, 5)), *DEGENERATE]
    dim = 2 ** (n + 1)
    psi0 = fullspace.product_state_full(n, *rng.uniform(0.0, math.pi, 4))
    stack = rng.normal(size=(dim, 3)) + 1j * rng.normal(size=(dim, 3))
    for params in cases:
        h = fullspace.hamiltonian_full(kind, n, *params)
        t = rng.uniform(0.3, 2.0)
        psi = fullspace.propagate_full(h, t, psi0)
        assert psi.shape == psi0.shape
        assert np.max(np.abs(psi - _dense_propagation(h, t, psi0)[:, 0])) < 1e-13
        columns = fullspace.propagate_full(h, t, stack)
        assert columns.shape == stack.shape
        assert np.max(np.abs(columns - _dense_propagation(h, t, stack))) < 1e-13


@pytest.mark.slow
def test_blocked_propagation_matches_dense_eigh_at_n10():
    rng = np.random.default_rng(10)
    psi0 = fullspace.product_state_full(10, *rng.uniform(0.0, math.pi, 4))
    for kind in sorted(INTERACTIONS):
        h = fullspace.hamiltonian_full(kind, 10, *rng.uniform(-2.0, 2.0, 5))
        psi = fullspace.propagate_full(h, 1.3, psi0)
        assert np.max(np.abs(psi - _dense_propagation(h, 1.3, psi0)[:, 0])) < 1e-13


def _recorded_solves(monkeypatch, h, psi0):
    """The shapes handed to np.linalg.eigh by one propagate_full, and its result."""
    solved = []

    def recording_eigh(a):
        solved.append(a.shape)
        return eigh(a)

    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    psi = fullspace.propagate_full(h, 1.0, psi0)
    monkeypatch.undo()
    return solved, psi


@pytest.mark.parametrize("kind, sizes", [("ZZZZ", {1}), ("ZZZX", {1, 2}),
                                         ("ZZXX", {64})])
def test_each_group_of_decoupled_blocks_is_one_eigh(kind, sizes, monkeypatch):
    h = fullspace.hamiltonian_full(kind, 6, 0.8, 1.2, 0.9, 1.1, 1.3)
    solved, _ = _recorded_solves(monkeypatch, h,
                                 fullspace.product_state_full(6, 0.3, 0.5, 0.7, 0.9))
    assert {shape[-1] for shape in solved} == sizes
    assert len(solved) == len(sizes)  # one batched solve per block size
    if kind == "ZZXX":  # even N: the chiral map mirrors half 1 onto half 0
        assert solved == [(1, 64, 64)]
    else:
        assert sum(blocks * size for blocks, size, _ in solved) == 2 ** 7


def test_odd_n_zzxx_solves_both_halves(monkeypatch):
    # at odd N the chiral map sends each bus-parity half onto itself
    h = fullspace.hamiltonian_full("ZZXX", 5, 0.8, 1.2, 0.9, 1.1, 1.3)
    solved, _ = _recorded_solves(monkeypatch, h,
                                 fullspace.product_state_full(5, 0.3, 0.5, 0.7, 0.9))
    assert solved == [(2, 32, 32)]


def test_broken_mirror_solves_both_halves(monkeypatch):
    h = fullspace.hamiltonian_full("ZZXX", 6, 0.8, 1.2, 0.9, 1.1, 1.3)
    # block 1 is the odd-parity half: the one without index 0
    odd = np.array([bin(k).count("1") % 2 for k in range(len(h))], dtype=bool)
    i, j = next((i, j) for i, j in zip(*np.nonzero(h)) if odd[i] and odd[j] and i < j)
    h[i, j] = h[j, i] = np.nextafter(h[i, j], np.inf)  # one ulp off the mirror
    psi0 = fullspace.product_state_full(6, 0.3, 0.5, 0.7, 0.9)
    solved, psi = _recorded_solves(monkeypatch, h, psi0)
    assert solved == [(2, 64, 64)]
    assert np.max(np.abs(psi - _dense_propagation(h, 1.0, psi0)[:, 0])) < 1e-13


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
@pytest.mark.parametrize("n", [1, 2, 3, 4])  # even n: mirrored halves
def test_thermal_density_matches_per_configuration_loop(kind, n):
    params = dict(delta=0.7, epsilon=1.3, omega0=0.9, omega1=1.1, x=0.8, t=1.7)
    for override in ({}, {"omega1": 1.1 + 1e-3}):
        rho = fullspace.thermal_evolved_density(kind, n, dict(params, **override),
                                                0.6, 0.4, 1.2)
        reference = _loop_thermal_density(kind, n, params, 0.6, 0.4, 1.2, override)
        assert np.max(np.abs(rho - reference)) < 1e-13
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert abs(np.trace(rho).imag) < 1e-15
