"""Model Hamiltonians in the symmetric sector and exact propagation.

Three spin-star models share the free part delta*(omega1 J_z + omega0/2 Z_bus)
and differ in the interaction eps*x*(K (x) B):

    ZZZZ: K = J_z, B = Z   (pure dephasing, diagonal, exactly solvable)
    ZZXX: K = J_x, B = X   (energy exchange)
    ZZZX: K = J_z, B = X   (dephasing on the probes, X drive on the bus)

Every Hamiltonian, and its derivative in x, omega0 or omega1, is real
symmetric and, after a fixed permutation of the |m, s> basis, block
diagonal with equal tridiagonal blocks (k = N/2 - m):

    ZZXX: two chains of length N+1, one per parity of k + s, since
          (k, s) couples only to (k +- 1, 1 - s);
    ZZZX: N+1 blocks of size 2, since (k, 0) couples only to (k, 1);
    ZZZZ: 2(N+1) blocks of size 1.

`assemble` returns H or dH/dtheta in that form and `eigensystem`
diagonalizes it block by block (LAPACK `dstevd` on the chains), so
propagation never forms a dense 2(N+1)-square matrix.  At even N the second
ZZXX chain is the negated signed mirror of the first, so only the first is
diagonalized.
`evolve_derivative` also returns the exact derivative of the evolved state
from the same eigendecomposition (Daleckii-Krein formula), and certified
error bounds on both.

`dstevd` is called through ctypes from the OpenBLAS that numpy's wheel
bundles, so numpy is the only runtime dependency.  The chain solves run
with that BLAS pool set to one thread (see `_one_blas_thread`), which keeps
them bit-reproducible; the kernel products keep the caller's setting.  Where
numpy links another LAPACK (MKL, Accelerate), each chain is solved densely
by `np.linalg.eigh` instead: the same results to rounding, certified by the
same residual, but about three times slower.
"""

from __future__ import annotations

import ctypes
import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np

from .states import SymmetricState, StateAngles, _jx_ladder, build_product_state, m_values


class ModelKind(Enum):
    ZZZZ = "ZZZZ"
    ZZXX = "ZZXX"
    ZZZX = "ZZZX"

    def __str__(self):
        return self.value


@dataclass(frozen=True)
class ModelSpec:
    """Model kind plus physical parameters (hbar = 1 throughout)."""

    kind: ModelKind
    delta: float = 1.0
    epsilon: float = 1.0
    omega0: float = 1.0
    omega1: float = 1.0
    x: float = 1.0
    t: float = 1.0

    def __post_init__(self):
        if not isinstance(self.kind, ModelKind):
            raise ValueError(f"unknown model kind {self.kind!r}")
        for name in ("delta", "epsilon", "omega0", "omega1", "x", "t"):
            if not math.isfinite(float(getattr(self, name))):
                raise ValueError(f"parameter {name!r} must be finite")
        if self.t < 0:
            raise ValueError("t must be >= 0")

    def replaced(self, **kwargs) -> "ModelSpec":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric operator of dimension 2(N+1) on the |m, s> basis,
    stored as equal tridiagonal blocks in a permuted order.

    Row b of `block_diag` (blocks x size) and of `block_off` (blocks x
    size-1) are the diagonal and off-diagonal of block b.  Position i of the
    permuted order holds basis index `perm[i]`: with T the block-diagonal
    tridiagonal matrix, the operator is M[perm[i], perm[j]] = T[i, j].
    """

    n_probes: int
    perm: np.ndarray
    block_diag: np.ndarray
    block_off: np.ndarray

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        diag = np.asarray(self.block_diag, dtype=float)
        off = np.asarray(self.block_off, dtype=float)
        dim = 2 * (self.n_probes + 1)
        if perm.shape != (dim,) or not np.array_equal(np.sort(perm), np.arange(dim)):
            raise ValueError(f"perm must be a permutation of 0..{dim - 1}")
        if diag.ndim != 2 or diag.size != dim:
            raise ValueError(f"block_diag must be (blocks, size) with {dim} entries")
        if off.shape != (diag.shape[0], diag.shape[1] - 1):
            raise ValueError(f"block_off must have shape {(diag.shape[0], diag.shape[1] - 1)}")
        if not (np.all(np.isfinite(diag)) and np.all(np.isfinite(off))):
            raise ValueError("matrix elements must be finite")
        for name, arr in (("perm", perm), ("block_diag", diag), ("block_off", off)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @property
    def dim(self) -> int:
        return 2 * (self.n_probes + 1)

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral norm: the largest row sum
        |diag| + |off| on both sides over all blocks."""
        rows = np.abs(self.block_diag).copy()
        rows[:, :-1] += np.abs(self.block_off)
        rows[:, 1:] += np.abs(self.block_off)
        return float(rows.max())

    @cached_property
    def matrix(self) -> np.ndarray:
        """Dense view in the |m, s> basis, built on first access; nothing on
        the propagation path reads it."""
        off = np.zeros(self.block_diag.shape)
        off[:, :-1] = self.block_off
        off = off.ravel()[:-1]
        tri = np.diag(self.block_diag.ravel()) + np.diag(off, 1) + np.diag(off, -1)
        mat = np.empty_like(tri)
        mat[np.ix_(self.perm, self.perm)] = tri
        mat.flags.writeable = False
        return mat

    def to_blocks(self, vec: np.ndarray) -> np.ndarray:
        """A basis vector in the permuted order, shaped (blocks, size)."""
        return vec[self.perm].reshape(self.block_diag.shape)

    def from_blocks(self, blocks: np.ndarray) -> np.ndarray:
        """Inverse of `to_blocks`."""
        vec = np.empty(self.dim, dtype=blocks.dtype)
        vec[self.perm] = blocks.reshape(-1)
        return vec

    def block_mul(self, x: np.ndarray) -> np.ndarray:
        """T @ x block by block, for x of shape (k, size, ...) holding the
        first k blocks (all of them, or the chain a mirrored T solves)."""
        extra = (1,) * (x.ndim - 2)
        diag = self.block_diag[:len(x)].reshape((len(x), -1) + extra)
        off = self.block_off[:len(x)].reshape((len(x), -1) + extra)
        out = diag * x
        out[:, :-1] += off * x[:, 1:]
        out[:, 1:] += off * x[:, :-1]
        return out


PARAMETERS = ("x", "omega0", "omega1")


def _layout(kind: ModelKind, n: int):
    """(perm, block size) of a model's tridiagonal form."""
    if kind is ModelKind.ZZXX:
        k = np.arange(n + 1)
        bus = (k + np.array([[0], [1]])) % 2  # row p: the chain with k + s = p mod 2
        return (2 * k + bus).ravel(), n + 1
    return np.arange(2 * (n + 1)), 2 if kind is ModelKind.ZZZX else 1


def _coupling(kind: ModelKind, n: int, perm: np.ndarray):
    """Diagonal (permuted order) and block off-diagonal of K (x) B."""
    if kind is ModelKind.ZZZZ:  # J_z (x) Z
        return m_values(n)[perm // 2] * (1 - 2 * (perm % 2)), np.zeros((len(perm), 0))
    diag = np.zeros(len(perm))
    if kind is ModelKind.ZZZX:  # J_z (x) X: (k, 0) <-> (k, 1)
        return diag, m_values(n)[:, None]
    return diag, np.tile(_jx_ladder(n), (2, 1))  # J_x (x) X along both chains


def assemble(spec: ModelSpec, n: int, wrt: str | None = None) -> HamiltonianMatrix:
    """H = delta*(omega1 J_z (x) I + omega0/2 I (x) Z) + eps*x*(K (x) B), or
    with `wrt` in PARAMETERS the derivative dH/d(wrt), which has the same
    block structure.

    The collective operators absorb the 1/2 of each single-spin term:
    sum_i Z_i/2 = J_z and sum_i P_i/2 (x) B = K (x) B with x factored out.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perm, size = _layout(spec.kind, n)
    jz = m_values(n)[perm // 2]
    z_half = 0.5 - (perm % 2)  # Z/2 on the bus: +1/2 for s = 0, -1/2 for s = 1
    c_diag, c_off = _coupling(spec.kind, n, perm)
    no_off = np.zeros_like(c_off)
    if wrt is None:
        diag = (spec.delta * (spec.omega1 * jz + spec.omega0 * z_half)
                + spec.epsilon * spec.x * c_diag)
        off = spec.epsilon * spec.x * c_off
    elif wrt == "x":
        diag, off = spec.epsilon * c_diag, spec.epsilon * c_off
    elif wrt == "omega1":
        diag, off = spec.delta * jz, no_off
    elif wrt == "omega0":
        diag, off = spec.delta * z_half, no_off
    else:
        raise ValueError(f"wrt must be one of {PARAMETERS} or None, got {wrt!r}")
    return HamiltonianMatrix(n, perm, diag.reshape(-1, size), off)


def _mirrored(m: HamiltonianMatrix) -> bool:
    """Whether m is two chains of size > 2 with chain 1 = -S (chain 0) S,
    (S u)_k = (-1)^k u_{size-1-k}: chain 1's diagonal is chain 0's negated
    and reversed, its off-diagonal chain 0's reversed, exactly.  Every ZZXX
    operator at even N is (the bus spin flips under k -> N - k there)."""
    diag, off = m.block_diag, m.block_off
    return (diag.shape[0] == 2 and diag.shape[1] > 2
            and np.array_equal(diag[1], -diag[0][::-1])
            and np.array_equal(off[1], off[0][::-1]))


def _openblas():
    """(dstevd, get_num_threads, set_num_threads) of the OpenBLAS bundled
    with numpy's wheel (ILP64, names prefixed `scipy_` and suffixed `64_`),
    or None where numpy links another LAPACK or the names differ."""
    try:
        lib = ctypes.CDLL(np.linalg._umath_linalg.__file__)  # dlsym also searches its dependencies
        stevd = lib.scipy_dstevd_64_
        get, set_ = lib.scipy_openblas_get_num_threads64_, lib.scipy_openblas_set_num_threads64_
    except (OSError, AttributeError):
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    set_.argtypes, set_.restype = [ctypes.c_int], None
    # dstevd(JOBZ, N, D, E, Z, LDZ, WORK, LWORK, IWORK, LIWORK, INFO, len(JOBZ)); the
    # arrays must be writeable, so a read-only block row is refused, not overwritten
    int64 = ctypes.POINTER(ctypes.c_int64)
    floats, ints = (np.ctypeslib.ndpointer(dtype, flags=("F_CONTIGUOUS", "WRITEABLE"))
                    for dtype in (np.float64, np.int64))
    stevd.argtypes = [ctypes.c_char_p, int64, floats, floats, floats, int64, floats, int64,
                      ints, int64, int64, ctypes.c_size_t]
    stevd.restype = None
    return stevd, get, set_


_OPENBLAS = _openblas()


@contextmanager
def _one_blas_thread():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's count.  A chain solve gains almost nothing from threads, and
    dstevd's threaded dgemm would change its last bits.  The count is
    process-wide, so other Python threads that use numpy meanwhile run on
    one thread too, and threads that solve at once may restore each other's
    setting."""
    if _OPENBLAS is None:
        yield
        return
    _, get, set_ = _OPENBLAS
    before = get()
    set_(1)
    try:
        yield
    finally:
        set_(before)


def _solve_chain(d: np.ndarray, e: np.ndarray):
    """Ascending eigenvalues and orthonormal eigenvectors (columns) of the
    symmetric tridiagonal matrix with diagonal d and off-diagonal e: LAPACK
    dstevd, as `scipy.linalg.eigh_tridiagonal` calls it for a full spectrum,
    or dense `np.linalg.eigh` without numpy's OpenBLAS.  dstevd overwrites D
    and E, so it gets fresh copies."""
    if _OPENBLAS is None:
        return np.linalg.eigh(np.diag(d) + np.diag(e, 1) + np.diag(e, -1))
    n = len(d)
    w, off = np.array(d, dtype=np.float64), np.array(e, dtype=np.float64)
    z = np.empty((n, n), order="F")
    lwork, liwork, info = 1 + 4 * n + n * n, 3 + 5 * n, ctypes.c_int64()
    _OPENBLAS[0](b"V", ctypes.c_int64(n), w, off, z, ctypes.c_int64(n),
                 np.empty(lwork), ctypes.c_int64(lwork),
                 np.empty(liwork, dtype=np.int64), ctypes.c_int64(liwork), info, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dstevd returned info = {info.value}")
    return w, z


def eigensystem(h: HamiltonianMatrix):
    """Eigenvalues (blocks, size), ascending within each block, and
    orthonormal eigenvectors (blocks, size, size; columns) of every
    tridiagonal block of H, in the permuted order.

    A mirrored H (see `_mirrored`) has one chain solved: chain 1's
    eigenvalues are -reverse(w0) and its eigenvectors S V0 with the
    columns reversed.
    """
    diag, off = h.block_diag, h.block_off
    size = diag.shape[1]
    chains = 1 if _mirrored(h) else len(diag)
    try:
        if size <= 2:  # many tiny blocks: one batched dense solve
            blocks = np.zeros(diag.shape + (size,))
            i = np.arange(size)
            blocks[:, i, i] = diag
            blocks[:, i[:-1], i[1:]] = blocks[:, i[1:], i[:-1]] = off
            return np.linalg.eigh(blocks)
        with _one_blas_thread():
            pairs = [_solve_chain(d, e) for d, e in zip(diag[:chains], off)]
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigendecomposition failed to converge for dim={h.dim}: {err}") from err
    if chains < len(diag):
        w0, v0 = pairs[0]
        sign = (1.0 - 2.0 * (np.arange(size) % 2))[:, None]
        pairs.append((-w0[::-1], sign * v0[::-1, ::-1]))
    return np.stack([w for w, _ in pairs]), np.stack([v for _, v in pairs])


def _mul(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for real matrices and complex vectors, without
    casting the matrices to complex."""
    parts = np.matmul(mats, np.stack([vecs.real, vecs.imag], axis=-1))
    return parts[..., 0] + 1j * parts[..., 1]


def _check_dims(h: HamiltonianMatrix, psi0: SymmetricState):
    if h.n_probes != psi0.n_probes:
        raise ValueError(
            f"dimension mismatch: H has N={h.n_probes}, state has N={psi0.n_probes}")


def evolve(h: HamiltonianMatrix, t: float, psi0: SymmetricState) -> SymmetricState:
    """exp(-i H t) |psi0> via the spectral decomposition of H."""
    _check_dims(h, psi0)
    if t == 0.0:
        return psi0
    w, v = eigensystem(h)
    y = _mul(v.transpose(0, 2, 1), h.to_blocks(psi0.amplitudes))
    amps = h.from_blocks(_mul(v, np.exp(-1j * t * w) * y))
    # unitary up to rounding; renormalize so downstream invariants hold exactly
    return SymmetricState(psi0.n_probes, amps / np.linalg.norm(amps))


def evolve_derivative(h: HamiltonianMatrix, g: HamiltonianMatrix, t: float,
                      psi0: SymmetricState):
    """(psi, dpsi, psi_error, dpsi_error): psi = exp(-i H t)|psi0>, dpsi =
    d/dtheta exp(-i (H + theta G) t)|psi0> at theta = 0, and bounds on their
    errors certified from the one eigendecomposition both are built from.

    With H = V diag(w) V^T, the derivative of the propagator is
    V [(V^T G V) o F] V^T (Daleckii-Krein; Wilcox 1967), where
    F_jk = (e^{-i w_j t} - e^{-i w_k t}) / (w_j - w_k) is evaluated as
    -i t e^{-i (w_j + w_k) t / 2} sinc((w_j - w_k) t / 2), which takes the
    degenerate limit -i t e^{-i w_j t} without cancellation.  G must have
    the block structure of H (any `assemble(spec, n, wrt=...)` of the same
    model does).

    The certificate is the solve's own backward error, O(size^2) per block
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3): the residual r = max
    ||T_b V_b - V_b diag(w_b)||_F >= ||R||_2 over the solved chains (a
    mirrored chain's is the solved one's, reflected) and the orthogonality
    defect d = ||V V^T psi0 - psi0|| = ||E c||, E = V^T V - I, c the
    propagated coefficients.  With V = Q P (polar), Q diag(w) Q^T is within
    2 ||R|| of H to first order, as [diag(w), E] = V^T R - R^T V; rounding
    t w moves an eigenvalue by at most u ||H||.  By Duhamel, eta = 2 r +
    2 u ||H|| moves psi by at most t eta and dpsi by t^2 ||G|| eta.  P != I
    moves psi by about d and dpsi by about 2 t ||G|| d (E on each side of c
    and of the kernel, of norm <= t ||G||); d samples E along c only, so
    these terms are estimates.  Products with V (||V||_F = sqrt(size)) and
    V^T G V round by gamma = (size + 4) u / (1 - (size + 4) u) each.
    Normalizing psi at most doubles its error.  With gradual underflow an
    operation may also err absolutely, by at most the smallest subnormal
    number s (Higham, eq. 2.8); a component of dpsi is about 3 size + 4
    operations deep, and what errs before the products with t and the kernel
    grows by at most (1 + t)(1 + t ||G||), so each bound gains the floor
    f = (3 size + 4) sqrt(dim) (1 + t)(1 + t ||G||) s, taken as 0 for G = 0,
    whose dpsi = 0 is exact (psi's gamma term alone exceeds f).  With ||H||,
    ||G|| the Gershgorin `norm_bound`s:

        psi_error  = 2 (d + t eta + 2 sqrt(size) gamma) + f,
        dpsi_error = t ||G|| (2 d + t eta + (size + 3 sqrt(size)) gamma) + f.
    """
    _check_dims(h, psi0)
    if not (np.array_equal(g.perm, h.perm) and g.block_diag.shape == h.block_diag.shape):
        raise ValueError("G must share the block structure of H")
    if t == 0.0:
        return psi0, np.zeros(psi0.dim, dtype=complex), 0.0, 0.0
    w, v = eigensystem(h)
    vt = v.transpose(0, 2, 1)
    amps0 = h.to_blocks(psi0.amplitudes)
    c = _mul(vt, amps0)
    mirrored, u = _mirrored(h), float(np.finfo(float).eps) / 2.0
    solved = 1 if mirrored else len(w)  # the certificate's residual, of the solved blocks
    residual = np.linalg.norm(h.block_mul(v[:solved]) - v[:solved] * w[:solved, None, :],
                              axis=(1, 2)).max()
    eta = 2.0 * float(residual) + 2.0 * u * h.norm_bound
    defect = float(np.linalg.norm(_mul(v, c) - amps0))
    half = np.exp(-0.5j * t * w)
    # (V^T G V) o sinc((w_j - w_k) t/2), in place and half the blocks at a time;
    # with H and G mirrored, chain 1's is chain 0's negated, reversed on both axes
    chains = 1 if mirrored and _mirrored(g) else len(w)
    kernel = np.matmul(vt[:chains], g.block_mul(v[:chains]))
    for part in (slice(None, (chains + 1) // 2), slice((chains + 1) // 2, chains)):
        x = 0.5 * t * (w[part, :, None] - w[part, None, :])
        sinc = np.sin(x)
        np.divide(sinc, x, out=sinc, where=x != 0.0)
        sinc[x == 0.0] = 1.0
        kernel[part] *= sinc
        del x, sinc
    if chains < len(w):
        kernel = np.concatenate([kernel, -kernel[:, ::-1, ::-1]])
    psi = h.from_blocks(_mul(v, half * half * c))
    dpsi = h.from_blocks(_mul(v, -1j * t * half * _mul(kernel, half * c)))
    size, tau, g_norm = w.shape[1], abs(t), g.norm_bound
    gamma = (size + 4) * u / (1.0 - (size + 4) * u)
    tiny = float(np.finfo(float).smallest_subnormal)
    floor = 0.0 if g_norm == 0.0 else ((3 * size + 4) * math.sqrt(h.dim) * (1.0 + tau)
                                       * (1.0 + tau * g_norm) * tiny)
    return (SymmetricState(psi0.n_probes, psi / np.linalg.norm(psi)), dpsi,
            2.0 * (defect + tau * eta + 2.0 * math.sqrt(size) * gamma) + floor,
            tau * g_norm * (2.0 * defect + tau * eta
                            + (size + 3.0 * math.sqrt(size)) * gamma) + floor)


def propagate(spec: ModelSpec, n: int, angles: StateAngles) -> SymmetricState:
    """Build the product state and evolve it for spec.t under spec's model."""
    return evolve(assemble(spec, n), spec.t, build_product_state(n, angles))
