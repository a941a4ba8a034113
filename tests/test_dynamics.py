import math

import numpy as np
import pytest

from spinbus import fullspace
from spinbus.dynamics import (
    HamiltonianMatrix,
    ModelKind,
    ModelSpec,
    assemble,
    eigensystem,
    evolve,
    propagate,
)
from spinbus.states import DEFAULT_ANGLES, UNFAVORABLE_ANGLES, StateAngles, build_product_state


def test_zzzz_n1_diagonal():
    h = assemble(ModelSpec(ModelKind.ZZZZ), 1)
    assert not h.block_off.any()
    # brute-force 4x4 tensor value; the diagonal must also be traceless
    np.testing.assert_allclose(np.diag(h.matrix), [1.5, -0.5, -0.5, -0.5])


def test_zero_couplings_zero_matrix():
    for kind in ModelKind:
        h = assemble(ModelSpec(kind, delta=0.0, epsilon=0.0), 3)
        assert np.all(h.matrix == 0.0)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("n", [2, 5, 8])
def test_assemble_matches_full_tensor_hamiltonian(kind, n):
    rng = np.random.default_rng(hash((kind.value, n)) % 2**32)
    spec = ModelSpec(kind, *(rng.uniform(0.2, 2.0, 6)))
    h = assemble(spec, n)
    hfull = fullspace.hamiltonian_full(str(kind), n, spec.delta, spec.epsilon,
                                       spec.omega0, spec.omega1, spec.x)
    dicke = fullspace.dicke_matrix(n)
    basis = np.kron(dicke, np.eye(2))  # rows: |m, s>, columns: full space
    projected = basis @ hfull @ basis.conj().T
    np.testing.assert_allclose(h.matrix, projected.real, atol=1e-10)
    assert np.max(np.abs(projected.imag)) < 1e-12


def test_evolve_t0_is_identity():
    spec = ModelSpec(ModelKind.ZZXX)
    psi = build_product_state(4, DEFAULT_ANGLES)
    out = evolve(assemble(spec, 4), 0.0, psi)
    assert out is psi


def test_zzzz_preserves_amplitude_moduli():
    spec = ModelSpec(ModelKind.ZZZZ, t=0.73)
    psi = build_product_state(5, UNFAVORABLE_ANGLES)
    out = evolve(assemble(spec, 5), spec.t, psi)
    np.testing.assert_allclose(np.abs(out.amplitudes), np.abs(psi.amplitudes),
                               atol=1e-12)


def test_evolve_matches_full_hilbert_propagation():
    spec = ModelSpec(ModelKind.ZZXX)
    mine = propagate(spec, 4, DEFAULT_ANGLES)
    full0 = fullspace.product_state_full(4, DEFAULT_ANGLES.alpha, DEFAULT_ANGLES.phi,
                                         DEFAULT_ANGLES.beta, DEFAULT_ANGLES.varphi)
    hfull = fullspace.hamiltonian_full("ZZXX", 4, 1, 1, 1, 1, 1)
    reference = fullspace.project_symmetric(
        fullspace.propagate_full(hfull, 1.0, full0), 4)
    np.testing.assert_allclose(mine.amplitudes, reference, atol=1e-8)


@pytest.mark.parametrize("kind", list(ModelKind))
@pytest.mark.parametrize("n", [4, 7, 10])
def test_full_propagation_stays_symmetric_and_matches(kind, n):
    rng = np.random.default_rng(n * 31)
    angles = StateAngles(*rng.uniform(0, math.pi, 4))
    spec = ModelSpec(kind, t=rng.uniform(0.5, 2.0))
    mine = propagate(spec, n, angles)
    full0 = fullspace.product_state_full(n, angles.alpha, angles.phi,
                                         angles.beta, angles.varphi)
    hfull = fullspace.hamiltonian_full(str(kind), n, spec.delta, spec.epsilon,
                                       spec.omega0, spec.omega1, spec.x)
    full_t = fullspace.propagate_full(hfull, spec.t, full0)
    projected = fullspace.project_symmetric(full_t, n)
    assert abs(np.linalg.norm(projected) - 1.0) < 1e-10  # no leakage
    np.testing.assert_allclose(mine.amplitudes, projected, atol=1e-8)


def test_eigensystem_diagonal_input():
    h = assemble(ModelSpec(ModelKind.ZZZZ, omega0=0.3, omega1=0.9, x=1.7), 2)
    w, v = eigensystem(h)  # one 1x1 block per basis state
    np.testing.assert_allclose(np.sort(w.ravel()), np.sort(np.diag(h.matrix)))
    np.testing.assert_allclose(np.abs(v), np.abs(np.round(v)), atol=1e-12)


def test_eigensystem_pauli_x_spectrum():
    w, _ = np.linalg.eigh(np.array([[0.0, 1.0], [1.0, 0.0]]))
    np.testing.assert_allclose(w, [-1.0, 1.0], atol=1e-14)


def test_eigensystem_orthonormal_d50():
    rng = np.random.default_rng(50)
    # one symmetric tridiagonal block of dimension 2(N+1) = 50
    h = HamiltonianMatrix(24, np.arange(50), rng.standard_normal((1, 50)),
                          rng.standard_normal((1, 49)))
    (w,), (v,) = eigensystem(h)
    np.testing.assert_allclose(v.T @ v, np.eye(50), atol=1e-10)
    residual = h.matrix @ v - v * w
    assert np.max(np.abs(residual)) < 1e-9 * np.linalg.norm(h.matrix)


@pytest.mark.parametrize("kind", list(ModelKind))
def test_unitarity_composition_energy(kind):
    rng = np.random.default_rng(7)
    spec = ModelSpec(kind, *(rng.uniform(0.3, 1.5, 6)))
    n = 6
    h = assemble(spec, n)
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    t1, t2 = 0.61, 1.13

    full = evolve(h, t1 + t2, psi0)
    stepped = evolve(h, t2, evolve(h, t1, psi0))
    assert abs(np.linalg.norm(full.amplitudes) - 1.0) < 1e-10
    np.testing.assert_allclose(full.amplitudes, stepped.amplitudes, atol=1e-9)

    def energy(state):
        return np.vdot(state.amplitudes, h.matrix @ state.amplitudes).real

    assert energy(evolve(h, 2.4, psi0)) == pytest.approx(energy(psi0), abs=1e-9)


def test_dimension_mismatch_rejected():
    h = assemble(ModelSpec(ModelKind.ZZZZ), 3)
    psi = build_product_state(2, DEFAULT_ANGLES)
    with pytest.raises(ValueError):
        evolve(h, 1.0, psi)


def test_invalid_spec_rejected():
    with pytest.raises(ValueError):
        ModelSpec("ZZXY")  # not a ModelKind
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.ZZZZ, t=-1.0)
    with pytest.raises(ValueError):
        ModelSpec(ModelKind.ZZZZ, x=math.inf)
