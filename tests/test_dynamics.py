import ctypes
import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest

from spinbus import dynamics, fullspace
from spinbus.dynamics import (
    HamiltonianMatrix,
    ModelKind,
    ModelSpec,
    Param,
    assemble,
    eigensystem,
    evolve,
    evolve_derivative,
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


@pytest.mark.parametrize("kind", list(ModelKind))
def test_layout_permutes_the_basis(kind):
    # assemble takes every perm from _layout, and HamiltonianMatrix does not
    # check it
    for n in (1, 2, 3, 4, 7, 64, 65):
        perm, size, jz, z_half, c_diag, c_off = dynamics._layout(kind, n)
        dim = 2 * (n + 1)
        assert np.array_equal(np.sort(perm), np.arange(dim))
        assert jz.shape == z_half.shape == c_diag.shape == (dim,)
        assert c_off.shape == (dim // size, size - 1)


def test_assemble_takes_a_param_or_none():
    spec = ModelSpec(ModelKind.ZZXX)
    for wrt in ("x", "omega1", 0):
        with pytest.raises(ValueError, match="wrt must be a Param"):
            assemble(spec, 3, wrt=wrt)


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


def test_chain_solves_run_on_one_numpy_blas_thread(monkeypatch):
    # every BLAS call runs on one numpy BLAS thread at every size, and the
    # kernel in one call on the caller's thread
    if dynamics._OPENBLAS is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    scipy_linalg = pytest.importorskip("scipy.linalg")
    try:  # scipy's own OpenBLAS, capped for the reference solves
        scipy_lib = ctypes.CDLL(scipy_linalg.cython_lapack.__file__)
        scipy_get = scipy_lib.scipy_openblas_get_num_threads
        scipy_set = scipy_lib.scipy_openblas_set_num_threads
    except (OSError, AttributeError):
        pytest.skip("scipy does not link its bundled OpenBLAS")
    _, get, set_ = dynamics._OPENBLAS
    seen, kernel_calls = {}, []

    def recording(name, fn):
        def wrapped(*args):
            seen.setdefault(name, []).append(get())
            if name == "_tiles":
                kernel_calls.append(threading.get_ident())
            return fn(*args)
        return wrapped

    def failing(*args):  # dstevd reporting no convergence through INFO
        args[10].value = 1

    for name in ("_solve_chain", "_tiles", "_mul"):
        monkeypatch.setattr(dynamics, name, recording(name, getattr(dynamics, name)))
    # a chain of 1001 states (delta = eps = 1): its bands, of which the two
    # edge tiles' are half the chain, hold 94 % of a dense 1001-state chain's work
    big = 1000
    caller, scipy_caller = get(), scipy_get()
    try:
        for count in (1, 2):
            set_(count)
            count = get()
            for n in (300, 301, big):  # one mirrored chain, two chains, one at the size
                spec = ModelSpec(ModelKind.ZZXX)
                h, g = assemble(spec, n), assemble(spec, n, wrt=Param.X)
                seen.clear()
                w, v = eigensystem(h)
                assert seen == {"_solve_chain": [1] * (1 if n % 2 == 0 else 2)}
                assert get() == count
                if n < big:
                    scipy_set(1)
                    for b, (d, e) in enumerate(zip(h.block_diag[:len(v)], h.block_off)):
                        w_ref, v_ref = scipy_linalg.eigh_tridiagonal(d, e)
                        assert np.array_equal(w[b], w_ref) and np.array_equal(v[b], v_ref)
                    scipy_set(scipy_caller)
                psi0 = build_product_state(n, DEFAULT_ANGLES)
                for call in (lambda: evolve(h, spec.t, psi0),
                             lambda: evolve_derivative(h, g, spec.t, psi0)):
                    seen.clear()
                    kernel_calls.clear()
                    call()
                    assert seen and all(set(c) == {1} for c in seen.values())
                    assert get() == count
                # evolve_derivative's kernel: one call, on the caller's thread
                assert kernel_calls == [threading.get_ident()]
                with monkeypatch.context() as patch:
                    patch.setattr(dynamics, "_OPENBLAS", (failing, get, set_))
                    for call in (lambda: eigensystem(h), lambda: evolve(h, spec.t, psi0),
                                 lambda: evolve_derivative(h, g, spec.t, psi0)):
                        with pytest.raises(RuntimeError, match="failed to converge"):
                            call()
                        assert get() == count
    finally:
        set_(caller)
        scipy_set(scipy_caller)


@pytest.mark.parametrize("wrt", ["x", "omega1"])
@pytest.mark.parametrize("n, delta", [(300, 100.0), (500, 100.0), (1000, 100.0), (1001, 100.0),
                                      (1000, 1.0), (1001, 1.0)],
                         ids=["300", "500", "1000", "1001", "dense-1000", "dense-1001"])
def test_evolve_derivative_independent_of_caller_blas_threads(monkeypatch, n, delta, wrt):
    # every BLAS call runs on one thread at every size, and the kernel in one
    # call a point on the caller's thread, so the caller's count cannot
    # change a bit of the result
    if dynamics._OPENBLAS is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    _, get, set_ = dynamics._OPENBLAS
    spec = ModelSpec(ModelKind.ZZXX, delta=delta)
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param(wrt))
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    tiles, kernel_calls = dynamics._tiles, []

    def recording(*args):
        kernel_calls.append(threading.get_ident())
        return tiles(*args)

    monkeypatch.setattr(dynamics, "_tiles", recording)
    caller, results = get(), []
    try:
        for count in (1, 2):
            set_(count)
            results.append(evolve_derivative(h, g, spec.t, psi0))
    finally:
        set_(caller)
    assert kernel_calls == [threading.get_ident()] * 2
    (psi1, dpsi1, *bounds1), (psi2, dpsi2, *bounds2) = results
    assert np.array_equal(psi1.amplitudes, psi2.amplitudes)
    assert np.array_equal(dpsi1, dpsi2)
    assert bounds1 == bounds2


def test_chain_solve_refuses_outputs_it_cannot_write_in_place():
    # dstevd writes D and Z through raw pointers: an output array it cannot
    # write in place, a read-only w (say a row of H), a read-only or
    # C-ordered z or one of the wrong shape, is refused before the call, and
    # nothing is overwritten
    if dynamics._OPENBLAS is None:
        pytest.skip("numpy does not link its bundled OpenBLAS")
    h = assemble(ModelSpec(ModelKind.ZZXX, epsilon=3.0), 5)
    d, e = h.block_diag[0], h.block_off[0]
    size = len(d)
    w, z = np.empty(size), np.empty((size, size), order="F")
    dynamics._solve_chain(d, e, w, z)
    np.testing.assert_allclose(z.T @ z, np.eye(size), atol=1e-12)
    row = h.block_diag[1].copy()
    with pytest.raises(ValueError, match="read-only"):
        dynamics._solve_chain(d, e, h.block_diag[1], z)
    assert np.array_equal(h.block_diag[1], row)
    frozen = np.full((size, size), 7.0, order="F")
    frozen.flags.writeable = False
    for bad in (np.full((size, size), 7.0), frozen):  # C-ordered, read-only
        with pytest.raises(ctypes.ArgumentError):
            dynamics._solve_chain(d, e, np.empty(size), bad)
        assert np.all(bad == 7.0)
    with pytest.raises(ValueError, match="z must be"):  # too small for dstevd's n^2 writes
        dynamics._solve_chain(d, e, np.empty(size), np.empty((size, size - 1), order="F"))


def test_solves_leave_h_unchanged():
    # dstevd overwrites its D and E; the frozen blocks of H must not be them
    spec = ModelSpec(ModelKind.ZZXX, epsilon=3.0, delta=1.3)
    for n in (50, 51):
        h, g = assemble(spec, n), assemble(spec, n, wrt=Param.X)
        before = [m.copy() for m in (h.block_diag, h.block_off, g.block_diag, g.block_off)]
        eigensystem(h)
        evolve_derivative(h, g, spec.t, build_product_state(n, DEFAULT_ANGLES))
        for a, b in zip((h.block_diag, h.block_off, g.block_diag, g.block_off), before):
            assert np.array_equal(a, b)


def _block_mul(m, x):
    """T @ x on every block of m, for x of shape (blocks, size, k)."""
    out, tmp = (dynamics._columns(np.empty(x.size, dtype=x.dtype), *x.shape) for _ in range(2))
    return dynamics._tri_mul(m.block_diag[..., None], m.block_off, x, out, tmp)


@pytest.mark.parametrize("n", [2, 3, 50, 51])
def test_dense_fallback_matches_lapack_path(monkeypatch, every_block, n):
    # without dstevd every block goes through one batched dense eigh: the 1-
    # and 2-state blocks of ZZZZ and ZZZX, and ZZXX's chains, of which a
    # mirrored H still solves chain 0 only
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    for kind in ModelKind:
        spec = ModelSpec(kind, epsilon=3.0, delta=1.3)
        h, g = assemble(spec, n), assemble(spec, n, wrt=Param.X)
        psi, dpsi, _, _ = evolve_derivative(h, g, spec.t, psi0)
        with monkeypatch.context() as patch:
            patch.setattr(dynamics, "_OPENBLAS", None)
            w, v = eigensystem(h)
            psi_fb, dpsi_fb, psi_error, dpsi_error = evolve_derivative(h, g, spec.t, psi0)
        assert len(v) == (1 if dynamics._mirrored(h) else len(w))
        v = every_block(w, v)
        for vb in v:
            np.testing.assert_allclose(vb.T @ vb, np.eye(len(vb)), atol=1e-10)
        residual = _block_mul(h, v) - v * w[:, None, :]
        assert np.max(np.abs(residual)) < 1e-9 * np.linalg.norm(h.matrix)
        assert np.linalg.norm(psi_fb.amplitudes - psi.amplitudes) <= psi_error
        assert np.linalg.norm(dpsi_fb - dpsi) <= dpsi_error


def _materialised(h, g, t, psi0, every_block):
    """(psi, dpsi) by the Daleckii-Krein formula with every block's
    eigenvectors formed and the kernels of all blocks built at once."""
    w, v = eigensystem(h)
    v = every_block(w, v)
    vt = v.transpose(0, 2, 1)
    c = vt @ h.to_blocks(psi0.amplitudes)[..., None]
    half = np.exp(-0.5j * t * w)[..., None]
    x = 0.5 * t * (w[:, :, None] - w[:, None, :])
    sinc = np.ones_like(x)
    np.divide(np.sin(x), x, out=sinc, where=x != 0.0)
    kernel = (vt @ _block_mul(g, v)) * sinc
    psi = h.from_blocks((v @ (half * half * c))[..., 0])
    dpsi = h.from_blocks((v @ (-1j * t * half * (kernel @ (half * c))))[..., 0])
    return psi / np.linalg.norm(psi), dpsi


def _random_generator(h, rng, mirrored):
    """A random G with H's block structure, with `mirrored` its chain 1 made
    -S (chain 0) S (see `dynamics._mirrored`)."""
    blocks, size = h.block_diag.shape
    diag, off = rng.standard_normal((blocks, size)), rng.standard_normal((blocks, size - 1))
    if mirrored:
        diag[1], off[1] = -diag[0][::-1], off[0][::-1]
    return HamiltonianMatrix(h.n_probes, h.perm, diag, off)


@pytest.mark.parametrize("kind, n", [(ModelKind.ZZXX, n) for n in (2, 50, 51, 400, 1000)]
                         + [(ModelKind.ZZZX, 50), (ModelKind.ZZZZ, 50)])
def test_view_path_matches_materialised_formula(every_block, kind, n):
    # chain 1 of a mirrored H read through chain 0, one chain's kernel at a
    # time, against every block formed and one kernel for all of them; the
    # random G is mirrored where H is, as evolve_derivative requires
    rng = np.random.default_rng(n)
    spec = ModelSpec(kind, *rng.uniform(0.3, 1.5, 6))
    h, psi0 = assemble(spec, n), build_product_state(n, DEFAULT_ANGLES)
    mirrored = dynamics._mirrored(h)
    assert mirrored == (kind is ModelKind.ZZXX and n % 2 == 0 and n > 1)
    psi = evolve(h, spec.t, psi0).amplitudes
    generators = [assemble(spec, n, wrt=p) for p in Param]
    for g in generators + [_random_generator(h, rng, mirrored)]:
        mine, dmine, _, _ = evolve_derivative(h, g, spec.t, psi0)
        ref, dref = _materialised(h, g, spec.t, psi0, every_block)
        assert np.linalg.norm(mine.amplitudes - ref) <= 1e-13
        assert np.linalg.norm(psi - ref) <= 1e-13
        assert np.linalg.norm(dmine - dref) <= 1e-13 * np.linalg.norm(dref)


def _work(tiles) -> int:
    """The multiply-adds of the tiles' products V^T (G V) per chain."""
    return sum((j1 - c0) * (r1 - r0) * (c1 - c0) for c0, c1, r0, r1, j1 in tiles)


@pytest.mark.parametrize("t", [0.7, 2.0])
@pytest.mark.parametrize("n", [2 * dynamics.TILE + d for d in (-2, -1, 0, 1)]
                         + [3 * dynamics.TILE - 1, 3 * dynamics.TILE + 1])
@pytest.mark.parametrize("kind", list(ModelKind))
def test_tiles_match_the_dense_formula(every_block, kind, n, t):
    # chains of N + 1 states on both sides of the one-to-two and two-to-three
    # tile edges, one mirrored chain at even N and two chains at odd N,
    # against V((V^T G V) o F) V^T psi0 with every kernel formed whole
    rng = np.random.default_rng(n)
    spec = ModelSpec(kind, *rng.uniform(0.3, 1.5, 5), t=t)
    h, psi0 = assemble(spec, n), build_product_state(n, DEFAULT_ANGLES)
    assert dynamics._mirrored(h) == (kind is ModelKind.ZZXX and n % 2 == 0)
    for g in (assemble(spec, n, wrt=p) for p in Param):
        psi, dpsi, _, _ = evolve_derivative(h, g, t, psi0)
        ref, dref = _materialised(h, g, t, psi0, every_block)
        assert np.linalg.norm(psi.amplitudes - ref) <= 1e-13
        assert np.linalg.norm(dpsi - dref) <= 1e-13 * np.linalg.norm(dref)


@pytest.mark.parametrize("n", [3 * dynamics.TILE + 1, 500])
@pytest.mark.parametrize("field, value, wrt", [("delta", 100.0, "omega1"),
                                               ("epsilon", 0.001, "x")])
def test_weak_coupling_bands_match_the_dense_formula(every_block, field, value, wrt, n):
    # weak coupling, where dstevd deflates and most of V is exact zeros, so
    # each tile works on its row band and kernel rows only, against every
    # kernel formed whole
    spec = ModelSpec(ModelKind.ZZXX, **{field: value})
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param(wrt))
    _, v = eigensystem(h)
    size = v.shape[1]
    tiles = dynamics._bands(size, v)
    assert _work(tiles) < _work(dynamics._bands(size))
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    psi, dpsi, _, _ = evolve_derivative(h, g, spec.t, psi0)
    ref, dref = _materialised(h, g, spec.t, psi0, every_block)
    assert np.linalg.norm(psi.amplitudes - ref) <= 1e-13
    assert np.linalg.norm(dpsi - dref) <= 1e-13 * np.linalg.norm(dref)


@pytest.mark.parametrize("n", [500, 501])  # one mirrored chain, two chains
def test_bands_hold_every_nonzero_of_their_tiles(n):
    # V[:, c0:c1] is zero outside rows [r0 + 1, r1 - 1), so T V and G V are
    # zero outside [r0, r1) (the band's edge rows count only where the chain
    # ends there), and V[r0:r1, j] is zero from j1 on but not at j1 - 1
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    _, v = eigensystem(assemble(spec, n))
    size = v.shape[1]
    tiles = dynamics._bands(size, v)
    for c0, c1, r0, r1, j1 in tiles:
        lo, hi = (r0 + 1 if r0 > 0 else 0), (r1 - 1 if r1 < size else size)
        tile = v[:, :, c0:c1]
        assert np.count_nonzero(tile[:, lo:hi]) == np.count_nonzero(tile)
        assert not v[:, r0:r1, j1:].any() and v[:, r0:r1, j1 - 1].any()
    assert _work(tiles) < _work(dynamics._bands(size))


@pytest.mark.parametrize("n", [500, 1000])
def test_bands_match_whole_chain_supports(monkeypatch, n):
    # every term the bands skip is an exact zero: with every support reported
    # as the whole chain, psi is the same to the bit, and dpsi and both bounds
    # the same sums up to how BLAS and einsum group their terms (a product over
    # fewer rows may be split into blocks at other rows)
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param.OMEGA1)
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    psi, dpsi, *bounds = evolve_derivative(h, g, spec.t, psi0)
    monkeypatch.setattr(dynamics, "_supports", lambda v, edges: (
        np.zeros(v.shape[1], dtype=np.intp), np.full(v.shape[1], v.shape[1] - 1)))
    psi_whole, dpsi_whole, *bounds_whole = evolve_derivative(h, g, spec.t, psi0)
    assert np.array_equal(psi.amplitudes, psi_whole.amplitudes)
    assert np.linalg.norm(dpsi - dpsi_whole) <= 1e-14 * np.linalg.norm(dpsi_whole)
    assert bounds == pytest.approx(bounds_whole, rel=1e-14, abs=0.0)


def test_weak_coupling_bands_skip_most_of_the_product(monkeypatch):
    # at delta = 100 and N = 1000, 90 % of V is exact zeros and the tiles'
    # products V^T (G V) run over 6 % of the whole kernel's multiply-adds;
    # a change that silently stops skipping fails here
    n = 1000
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param.OMEGA1)
    tiles, seen = dynamics._tiles, []

    def spying(*args):
        seen.extend(args[-1])
        return tiles(*args)

    monkeypatch.setattr(dynamics, "_tiles", spying)
    evolve_derivative(h, g, spec.t, build_product_state(n, DEFAULT_ANGLES))
    dense = dynamics._bands(n + 1)
    assert sorted(tile[:2] for tile in seen) == [tile[:2] for tile in dense]
    assert _work(seen) <= 0.15 * _work(dense)


def _planted_spectrum(rng, size):
    """Eigenvalues whose gaps are 0, 1e-12 and 1e-3, whose halved gaps lie
    near (k + 1/2) pi and whose quartered ones near the poles of tan, with
    |w| up to 1e5 and |w_j - w_k| up to 1.5e5."""
    odd = 2 * np.arange(12) + 1
    w = [0.0, 0.0, 1e-12, 1e-3, 0.5, 0.5 + 1e-12, 0.5 + 1e-3, 5e4, -5e4, 5e4 - 1e-3]
    w += list(odd * np.pi) + list(2 * odd * np.pi) + list(2 * odd * np.pi + 1e-9)
    w += list(2e4 + 2 * odd * np.pi) + list(2 * (2 * 7957 + 1) * np.pi + np.array([0.0, 1e-7]))
    return np.concatenate([w, rng.uniform(-5e4, 5e4, size - len(w))])


def test_tiles_sinc_and_kernel_match_mpmath():
    # _tiles against (V^T G V) o sinc((w_j - w_k) t / 2), the sinc from mpmath
    # at the same rounded arguments (t = 1, so the halving is exact): with a
    # V whose row 0 is ones and G = e0 e0^T, V^T G V is all ones exactly and
    # K ys with ys = I is the sinc itself; with a random orthogonal V and a
    # random tridiagonal G, K y against the mpmath kernel
    mpmath = pytest.importorskip("mpmath")
    rng = np.random.default_rng(26)
    size, t = 200, 1.0
    w = _planted_spectrum(rng, size)[None]
    x = (w[0][:, None] - w[0][None, :]) * (0.5 * t)
    sinc = np.ones((size, size))
    with mpmath.workdps(40):
        for j, k in zip(*np.nonzero(np.triu(x))):  # x is antisymmetric, the sinc even
            arg = mpmath.mpf(x[j, k])
            sinc[j, k] = sinc[k, j] = float(mpmath.sin(arg) / arg)
    tiles = dynamics._bands(size)  # every band the whole chain

    def kernel_times(v, g, ys):
        h = HamiltonianMatrix((size - 2) // 2, np.arange(size), rng.standard_normal((1, size)),
                              rng.standard_normal((1, size - 1)))
        return dynamics._tiles(h, g, w, v, t, ys, tiles)[0][0]

    ones = np.zeros((1, size, size)).transpose(0, 2, 1)  # laid out as dstevd's V
    ones[0, 0] = 1.0
    e0 = HamiltonianMatrix((size - 2) // 2, np.arange(size),
                           np.eye(1, size), np.zeros((1, size - 1)))
    mine = kernel_times(ones, e0, np.eye(size)[None])
    assert np.max(np.abs(mine - sinc)) <= 1e-15
    assert np.all(mine[x == 0.0] == 1.0)

    v = np.linalg.qr(rng.standard_normal((size, size)))[0]
    v = np.asfortranarray(v)[None]
    g = HamiltonianMatrix((size - 2) // 2, np.arange(size), rng.standard_normal((1, size)),
                          rng.standard_normal((1, size - 1)))
    ys = rng.standard_normal((1, size, 2))
    reference = ((v[0].T @ g.matrix @ v[0]) * sinc) @ ys[0]
    mine = kernel_times(v, g, ys)
    assert np.linalg.norm(mine - reference) <= 1e-13 * np.linalg.norm(reference)


def test_repeated_derivative_allocates_no_size_squared_buffer_but_v():
    # the chain solve's workspace and the kernel's tile buffers come from the
    # thread's scratch arena, which the first call at a size grows; a second
    # call allocates V and nothing else of size^2
    if dynamics._OPENBLAS is None:
        pytest.skip("the dense fallback solve forms the chain as a dense matrix")
    n = 500
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param.OMEGA1)
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    evolve_derivative(h, g, spec.t, psi0)
    tracemalloc.start()
    try:
        evolve_derivative(h, g, spec.t, psi0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * (n + 1) ** 2 * 8


def test_concurrent_callers_keep_their_own_scratch_arenas():
    # each calling thread solves and builds its tiles in its own arena, so
    # four threads at four sizes, interleaved often, give the serial bits
    sizes = (64, 129, 200, 256)
    spec = ModelSpec(ModelKind.ZZXX, delta=1.3, epsilon=3.0)
    inputs = [(assemble(spec, n), assemble(spec, n, wrt=Param.X),
               build_product_state(n, DEFAULT_ANGLES)) for n in sizes]
    serial = [evolve_derivative(h, g, spec.t, psi0) for h, g, psi0 in inputs]
    results = {}

    def run(i):
        h, g, psi0 = inputs[i]
        results[i] = [evolve_derivative(h, g, spec.t, psi0) for _ in range(5)]

    # the BLAS count is process-wide, so it is held at one while the threads
    # set and restore it around each other
    blas = dynamics._OPENBLAS
    caller = blas[1]() if blas else None
    interval = sys.getswitchinterval()
    try:
        if blas:
            blas[2](1)
        sys.setswitchinterval(1e-5)
        threads = [threading.Thread(target=run, args=(i,)) for i in range(len(sizes))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
        assert not any(th.is_alive() for th in threads)
    finally:
        sys.setswitchinterval(interval)
        if blas:
            blas[2](caller)
    for i, (psi, dpsi, *bounds) in enumerate(serial):
        for psi_t, dpsi_t, *bounds_t in results[i]:
            assert np.array_equal(psi_t.amplitudes, psi.amplitudes)
            assert np.array_equal(dpsi_t, dpsi) and bounds_t == bounds


@pytest.mark.slow
@pytest.mark.parametrize("field, wrt", [("delta", "omega1"), ("epsilon", "x")])
def test_n2000_derivative_matches_materialised_formula(every_block, field, wrt):
    # one mirrored chain of 2001 states against every block formed and the
    # whole kernel built with np.sin
    n = 2000
    spec = ModelSpec(ModelKind.ZZXX, **{field: 100.0})
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param(wrt))
    assert dynamics._mirrored(h)
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    psi, dpsi, _, _ = evolve_derivative(h, g, spec.t, psi0)
    ref, dref = _materialised(h, g, spec.t, psi0, every_block)
    assert np.linalg.norm(psi.amplitudes - ref) <= 1e-13
    assert np.linalg.norm(dpsi - dref) <= 1e-13 * np.linalg.norm(dref)


def test_derivative_holds_no_size_squared_buffer_after_the_solve():
    # the peak is the chain solve's: V and dstevd's size^2 workspace, while
    # the kernel needs only size x tile buffers besides V
    if dynamics._OPENBLAS is None:
        pytest.skip("the dense fallback solve forms the chain as a dense matrix")
    n = 1000
    spec = ModelSpec(ModelKind.ZZXX, delta=100.0)
    h, g = assemble(spec, n), assemble(spec, n, wrt=Param.OMEGA1)
    psi0 = build_product_state(n, DEFAULT_ANGLES)
    tracemalloc.start()
    try:
        evolve_derivative(h, g, spec.t, psi0)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.2 * (n + 1) ** 2 * 8


@pytest.mark.parametrize("n", [3, 5])
def test_random_generator_of_an_unmirrored_h_matches_van_loan(n):
    # at odd N both ZZXX chains are solved, and any G of H's block
    # structure is taken, each chain with its own kernel
    scipy_linalg = pytest.importorskip("scipy.linalg")
    rng = np.random.default_rng(n + 100)
    spec = ModelSpec(ModelKind.ZZXX, *rng.uniform(0.3, 1.5, 6))
    h, psi0 = assemble(spec, n), build_product_state(n, DEFAULT_ANGLES)
    g = _random_generator(h, rng, mirrored=False)
    assert not dynamics._mirrored(h)
    aug = np.block([[h.matrix, g.matrix], [np.zeros_like(h.matrix), h.matrix]])
    reference = scipy_linalg.expm(-1j * spec.t * aug)[:h.dim, h.dim:] @ psi0.amplitudes
    _, dpsi, _, _ = evolve_derivative(h, g, spec.t, psi0)
    np.testing.assert_allclose(dpsi, reference, rtol=0, atol=1e-12)


@pytest.mark.parametrize("n", [2, 4])
def test_unmirrored_generator_of_a_mirrored_h_rejected(n):
    # chain 1 of a mirrored H reuses chain 0's kernel, which needs G mirrored too
    rng = np.random.default_rng(n + 100)
    spec = ModelSpec(ModelKind.ZZXX, *rng.uniform(0.3, 1.5, 6))
    h, psi0 = assemble(spec, n), build_product_state(n, DEFAULT_ANGLES)
    assert dynamics._mirrored(h)
    evolve_derivative(h, _random_generator(h, rng, mirrored=True), spec.t, psi0)
    with pytest.raises(ValueError, match="mirror"):
        evolve_derivative(h, _random_generator(h, rng, mirrored=False), spec.t, psi0)


def test_tri_mul_skips_a_zero_off_diagonal():
    # the omega generators have no off-diagonal: T x is the diagonal product
    # alone, equal to the full three-pass sum, and the scratch goes unwritten
    rng = np.random.default_rng(3)
    spec = ModelSpec(ModelKind.ZZXX)
    for n in (6, 7):
        for wrt in Param:
            g = assemble(spec, n, wrt=wrt)
            x = rng.standard_normal((2, n + 1, 3)) + 1j * rng.standard_normal((2, n + 1, 3))
            diag, off = g.block_diag[:, :, None], g.block_off[:, :, None]
            summed = diag * x
            summed[:, :-1] += off * x[:, 1:]
            summed[:, 1:] += off * x[:, :-1]
            out, tmp = (dynamics._columns(np.full(x.size, np.nan, dtype=x.dtype), *x.shape)
                        for _ in range(2))
            out = dynamics._tri_mul(diag, g.block_off, x, out, tmp)
            np.testing.assert_array_equal(out, summed)
            assert np.isnan(tmp).all() == (wrt is not Param.X)
            if wrt is not Param.X:
                np.testing.assert_array_equal(out, diag * x)


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
