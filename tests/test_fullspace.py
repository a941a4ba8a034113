"""The dense full-space oracle against plain tensor-product references."""

import math
from functools import reduce

import numpy as np
import pytest

from spinbus import fullspace
from spinbus.dynamics import ModelKind, ModelSpec
from spinbus.fisher import Param
from spinbus.states import ThermalProbeSpec, thermal_equivalent_alpha
from spinbus.zzzz_exact import thermal_global_qfi, thermal_local_equivalence_check

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


# (delta, epsilon, omega0, omega1, x) of the cases that change h's nonzero
# pattern: x = 0, eps = 0 (no coupling) and omega0 = omega1 = 0 (no fields)
DEGENERATE = [(0.8, 1.2, 0.9, 1.1, 0.0), (0.8, 0.0, 0.9, 1.1, 1.3),
              (0.8, 1.2, 0.0, 0.0, 1.3)]


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_hamiltonian_matches_kron_chains(kind, n):
    # the one check of the Pauli-string builder that does not go through it,
    # also where a mask's column vanishes and the form drops it
    rng = np.random.default_rng(n * 7 + len(kind))
    for params in [tuple(rng.uniform(-2.0, 2.0, 5)), *DEGENERATE]:
        h = fullspace.hamiltonian_full(kind, n, *params)
        assert h.dtype == np.float64
        assert h.shape == (2 ** (n + 1),) * 2
        assert np.array_equal(h, h.T)
        assert np.max(np.abs(h - _kron_hamiltonian(kind, n, *params))) < 1e-14


def _dense_propagation(h, t, psi0):
    """exp(-i h t) psi0 through one dense eigendecomposition of all of h."""
    w, v = np.linalg.eigh(h)
    return v @ (np.exp(-1j * w * t)[:, None] * (v.T @ psi0.reshape(len(h), -1)))


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
def test_nonzeros_from_pauli_strings_match_the_dense_matrix(kind):
    # `_nonzeros` reads the dense h, which scatters the builder's mask form,
    # back into that form array for array, also where entries cancel or vanish
    rng = np.random.default_rng(len(kind))
    for n in range(1, 7):
        for params in [tuple(rng.uniform(-2.0, 2.0, 5)), (1.0, 1.0, 1.0, 1.0, 1.0),
                       (0.0, 0.0, 0.0, 0.0, 0.0), *DEGENERATE]:
            mine = fullspace._hamiltonian_nonzeros(kind, n, *params)
            dense = fullspace._nonzeros(fullspace.hamiltonian_full(kind, n, *params))
            for a, b in zip(mine, dense):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
    # and any dense matrix survives the round trip
    m = rng.normal(size=(16, 16)) * (rng.uniform(size=(16, 16)) < 0.2)
    cols, vals = fullspace._nonzeros(m)
    assert np.all(cols == np.arange(16)[:, None] ^ cols[0])
    back = np.zeros_like(m)
    np.put_along_axis(back, cols, vals, axis=1)
    np.testing.assert_array_equal(back, m)


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


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
def test_propagation_at_strong_coupling_matches_dense_eigh(kind):
    # eps = 100 puts z = rad t, and so the Chebyshev degree, in the hundreds
    h = fullspace.hamiltonian_full(kind, 4, 1.0, 100.0, 0.9, 1.1, 1.3)
    rng = np.random.default_rng(100)
    psi0 = fullspace.product_state_full(4, *rng.uniform(0.0, math.pi, 4))
    stack = rng.normal(size=(len(h), 3)) + 1j * rng.normal(size=(len(h), 3))
    for t in (1.0, 2.0):
        psi = fullspace.propagate_full(h, t, psi0)
        assert np.max(np.abs(psi - _dense_propagation(h, t, psi0)[:, 0])) < 1e-12
        columns = fullspace.propagate_full(h, t, stack)
        assert np.max(np.abs(columns - _dense_propagation(h, t, stack))) < 1e-12


PARAMS = ("delta", "epsilon", "omega0", "omega1", "x", "t")


def _van_loan(kind, n, params, which, psi0):
    """(psi, d psi/d theta) from the upper blocks of expm(-it [[h, g], [0, h]]),
    g = dh/d theta (Van Loan 1978), h and g from Kronecker chains."""
    scipy_linalg = pytest.importorskip("scipy.linalg")
    coefs = [params[k] for k in PARAMS[:5]]
    unit = [params["delta"], params["epsilon"]] + [float(k == which) for k in PARAMS[2:5]]
    h = _kron_hamiltonian(kind, n, *coefs)
    g = _kron_hamiltonian(kind, n, *unit)
    dim = len(h)
    u = scipy_linalg.expm(-1j * params["t"] * np.block([[h, g], [np.zeros_like(h), h]]))
    return u[:dim, :dim] @ psi0, u[:dim, dim:] @ psi0


@pytest.mark.parametrize("kind", sorted(INTERACTIONS))
@pytest.mark.parametrize("n", [1, 2, 4])
def test_derivative_matches_van_loan_block_exponential(kind, n):
    rng = np.random.default_rng(n * 13 + len(kind))
    for which in ("x", "omega0", "omega1"):
        random = dict(zip(PARAMS, rng.uniform(-2.0, 2.0, 6)))
        for override in ({}, {"t": 0.0}, {"x": 0.0}, {"epsilon": 0.0}):
            params = dict(random, **override)
            angles = rng.uniform(0.0, math.pi, 4)
            psi, dpsi = fullspace.evolved_with_derivative_full(kind, n, params, which, *angles)
            ref_psi, ref_dpsi = _van_loan(kind, n, params, which,
                                          fullspace.product_state_full(n, *angles))
            assert np.max(np.abs(psi - ref_psi)) <= 1e-12 * np.max(np.abs(ref_psi))
            assert np.max(np.abs(dpsi - ref_dpsi)) <= 1e-12 * np.max(np.abs(ref_dpsi))


def test_derivative_rejects_other_parameters():
    with pytest.raises(ValueError, match="delta"):
        fullspace.evolved_with_derivative_full(
            "ZZXX", 2, dict(zip(PARAMS, [1.0] * 6)), "delta", 0.3, 0.5, 0.7, 0.9)


def test_oracle_uses_no_eigendecomposition(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("the oracle propagated through an eigendecomposition")

    for name in ("eig", "eigh", "eigvals", "eigvalsh"):
        monkeypatch.setattr(np.linalg, name, refuse)
    params = dict(delta=0.8, epsilon=1.2, omega0=0.9, omega1=1.1, x=1.3, t=1.7)
    for kind in sorted(INTERACTIONS):
        h = fullspace.hamiltonian_full(kind, 6, *[params[k] for k in PARAMS[:5]])
        psi = fullspace.propagate_full(h, params["t"],
                                       fullspace.product_state_full(6, 0.3, 0.5, 0.7, 0.9))
        assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
        for which in ("x", "omega0", "omega1"):
            psi, dpsi = fullspace.evolved_with_derivative_full(kind, 6, params, which,
                                                               0.3, 0.5, 0.7, 0.9)
            # d <psi|psi> = 0
            assert abs(np.vdot(psi, dpsi).real) < 1e-13 * np.linalg.norm(dpsi)
        rho = _thermal_density(kind, 6, params, 0.6, 0.4, 1.2)
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        for which in ("x", "omega0", "omega1"):
            assert fullspace.thermal_global_qfi_full(kind, 4, params, which, 0.6, 0.4, 1.2) > 0


def test_dicke_matrix_matches_bit_count_loop():
    for n in range(11):
        d = np.zeros((n + 1, 2 ** n))
        for idx in range(2 ** n):
            d[bin(idx).count("1"), idx] = 1.0
        d /= np.sqrt(d.sum(axis=1, keepdims=True))
        assert np.array_equal(fullspace.dicke_matrix(n), d)


def _thermal_density(kind, n, params, beta_th, bus_beta, bus_varphi):
    """rho(t) = sum_c w_c |psi_c><psi_c| from the oracle's thermal states."""
    weights, _, psi, _ = fullspace._thermal_states(kind, n, params, beta_th, bus_beta,
                                                   bus_varphi)
    return (psi * weights) @ psi.conj().T


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
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_thermal_density_matches_per_configuration_loop(kind, n):
    params = dict(delta=0.7, epsilon=1.3, omega0=0.9, omega1=1.1, x=0.8, t=1.7)
    for override in ({}, {"omega1": 1.1 + 1e-3}):
        rho = _thermal_density(kind, n, dict(params, **override), 0.6, 0.4, 1.2)
        reference = _loop_thermal_density(kind, n, params, 0.6, 0.4, 1.2, override)
        assert np.max(np.abs(rho - reference)) < 1e-13
        assert np.max(np.abs(rho - rho.conj().T)) < 1e-15
        assert np.trace(rho).real == pytest.approx(1.0, abs=1e-14)
        assert abs(np.trace(rho).imag) < 1e-15


@pytest.mark.parametrize("n, beta_th", [(2, 0.0), (2, 1.3), (5, 0.7), (8, 0.4)])
def test_thermal_qfi_matches_zzzz_closed_form(n, beta_th):
    # the exact d rho of the thermal state, weights included for omega1
    spec = ModelSpec(ModelKind.ZZZZ)
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0, x=1.0, t=1.0)
    for sel in Param:
        closed = thermal_global_qfi(spec, n, beta_th, 0.6, sel)
        oracle = fullspace.thermal_global_qfi_full("ZZZZ", n, params, sel.value,
                                                   beta_th, 0.6, 0.3)
        assert oracle == pytest.approx(closed, rel=1e-12, abs=1e-20)


@pytest.mark.parametrize("beta_th", [5.0, 10.0, 17.0, 19.0])
def test_thermal_qfi_keeps_relative_precision_at_large_u(beta_th):
    # the omega1 QFI falls like e^{-2u}; the spectral form keeps each
    # configuration's share however small its weight, with no cutoff
    n = 3
    spec = ModelSpec(ModelKind.ZZZZ)
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=1.0, x=1.0, t=1.0)
    for sel in Param:
        closed = thermal_global_qfi(spec, n, beta_th, 0.6, sel)
        oracle = fullspace.thermal_global_qfi_full("ZZZZ", n, params, sel.value,
                                                   beta_th, 0.6, 0.3)
        assert oracle == pytest.approx(closed, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("u", [-800.0, -400.0, 400.0, 800.0])
def test_thermal_probes_at_large_u(u):
    # populations e^{-+u}/Z at |u| where e^{2|u|} overflows: both the oracle
    # and the closed form reach the pure state the populations freeze into
    n, beta_th, omega1 = 3, abs(u), math.copysign(1.0, u)
    spec = ModelSpec(ModelKind.ZZZZ, omega1=omega1)
    params = dict(delta=1.0, epsilon=1.0, omega0=1.0, omega1=omega1, x=1.0, t=1.0)
    for sel in Param:
        closed = thermal_global_qfi(spec, n, beta_th, 0.6, sel)
        oracle = fullspace.thermal_global_qfi_full("ZZZZ", n, params, sel.value,
                                                   beta_th, 0.6, 0.3)
        assert oracle == pytest.approx(closed, rel=1e-12, abs=1e-20)
    passed, dev = thermal_local_equivalence_check(spec, n, beta_th, 0.6, 0.3)
    assert passed, f"deviation {dev}"
    alpha = thermal_equivalent_alpha(ThermalProbeSpec(beta_th, omega1))
    psi, _ = fullspace.evolved_with_derivative_full("ZZZZ", n, params, "x", alpha, 0.0,
                                                    0.6, 0.3)
    rho = _thermal_density("ZZZZ", n, params, beta_th, 0.6, 0.3)
    assert np.max(np.abs(rho - np.outer(psi, psi.conj()))) < 1e-14
