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
ZZXX chain is the negated signed mirror of the first, T1 = -S T0 S^T with
(S u)_k = (-1)^k u_{size-1-k}, so only the first is diagonalized: chain 1's
eigenvectors are V1 = S V0, read through a reversed view of V0 and never
formed, and its eigenvalues w1 = -w0, in chain 0's order (descending).
`evolve_derivative` also returns the exact derivative of the evolved state
from the same eigendecomposition (Daleckii-Krein formula), and certified
error bounds on both.  It builds each chain's kernel, which is symmetric,
from its lower triangle in column tiles, so past the solve it holds no
(N+1)-square buffer besides the eigenvectors, and evaluates the kernel's
sinc(2h) as (tan h / h) / (1 + tan^2 h), since numpy's tan is much cheaper
than its sine (see `_tiles`).  Where the coupling is weak, dstevd deflates
and most entries of the eigenvectors are exact zeros; each tile then works
only on the rows where its columns are nonzero and on the kernel rows that
meet them (see `_bands`).  dstevd's size^2 workspace and then the tiles'
buffers are slices of one grow-only scratch arena per calling thread
(`_scratch`), so a repeated call at one size allocates no (N+1)-square
buffer but the eigenvectors it returns.

`dstevd` is called through ctypes from the OpenBLAS that numpy's wheel
bundles, so numpy is the only runtime dependency.  Every BLAS call of
`eigensystem`, `evolve` and `evolve_derivative` runs with that BLAS pool set
to one thread, which keeps them bit-reproducible and their results
independent of the caller's thread count (see `_blas_threads`); every call
runs on the caller's thread.  Where numpy links another LAPACK (MKL,
Accelerate), the chains go as dense matrices through the one batched
`np.linalg.eigh` that solves the tiny blocks: the same results to rounding,
certified by the same residual, but about three times slower.
"""

from __future__ import annotations

import ctypes
import math
import threading
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, lru_cache

import numpy as np

from .states import SymmetricState, StateAngles, _jx_ladder, build_product_state, m_values


class ModelKind(Enum):
    ZZZZ = "ZZZZ"
    ZZXX = "ZZXX"
    ZZZX = "ZZZX"

    def __str__(self):
        return self.value


class Param(Enum):
    """Which Hamiltonian parameter is being estimated."""

    X = "x"
    OMEGA0 = "omega0"
    OMEGA1 = "omega1"


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


@dataclass(frozen=True)
class HamiltonianMatrix:
    """Real symmetric operator of dimension 2(N+1) on the |m, s> basis,
    stored as equal tridiagonal blocks in a permuted order.

    Row b of `block_diag` (blocks x size) and of `block_off` (blocks x
    size-1) are the diagonal and off-diagonal of block b.  Position i of the
    permuted order holds basis index `perm[i]`: with T the block-diagonal
    tridiagonal matrix, the operator is M[perm[i], perm[j]] = T[i, j].
    `perm` is taken to be a permutation, as `_layout` builds it, unchecked.
    """

    n_probes: int
    perm: np.ndarray
    block_diag: np.ndarray
    block_off: np.ndarray
    mirrored: bool = field(init=False)  # `_mirrored` of it, evaluated once, on construction

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=int)
        diag = np.asarray(self.block_diag, dtype=float)
        off = np.asarray(self.block_off, dtype=float)
        dim = 2 * (self.n_probes + 1)
        if perm.shape != (dim,):
            raise ValueError(f"perm must have {dim} entries")
        if diag.ndim != 2 or diag.size != dim:
            raise ValueError(f"block_diag must be (blocks, size) with {dim} entries")
        if off.shape != (diag.shape[0], diag.shape[1] - 1):
            raise ValueError(f"block_off must have shape {(diag.shape[0], diag.shape[1] - 1)}")
        if not (np.isfinite(diag).all() and np.isfinite(off).all()):
            raise ValueError("matrix elements must be finite")
        for name, arr in (("perm", perm), ("block_diag", diag), ("block_off", off)):
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)
        object.__setattr__(self, "mirrored", _mirrored(self))

    @property
    def dim(self) -> int:
        return 2 * (self.n_probes + 1)

    @property
    def norm_bound(self) -> float:
        """Gershgorin bound on the spectral norm: the largest row sum
        |diag| + |off| on both sides over all blocks."""
        rows, off = np.abs(self.block_diag), np.abs(self.block_off)
        rows[:, :-1] += off
        rows[:, 1:] += off
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


def _columns(flat: np.ndarray, blocks: int, size: int, k: int) -> np.ndarray:
    """The head of the flat buffer as a (blocks, size, k) array laid out in
    contiguous columns, one after the other, block after block: dstevd's
    layout of the eigenvectors, packed."""
    return flat[:blocks * size * k].reshape(blocks, k, size).transpose(0, 2, 1)


def _tri_mul(diag: np.ndarray, off: np.ndarray, x: np.ndarray, out: np.ndarray,
             tmp: np.ndarray) -> np.ndarray:
    """out = T @ x block by block, for x of shape (blocks, size, k) and the
    tridiagonal blocks with off-diagonal rows `off` and diagonal `diag`,
    broadcast to x's shape: a matrix's diagonal as diag[..., None], or the
    whole array, which may be out itself.  out and tmp are laid out as
    `_columns` makes them, so a product with a neighbour in the column is a
    contiguous product shifted by one element, with a zero coefficient where
    it would cross into the next column.  An all-zero off-diagonal (the
    omega generators) is skipped and tmp left unwritten."""
    np.multiply(diag, x, out=out)
    if off.any():
        columns = [a.transpose(0, 2, 1) for a in (out, tmp)]
        if not all(c.flags.c_contiguous for c in columns):
            raise ValueError("out and tmp must be laid out in contiguous columns")
        flat, products = (c.reshape(-1) for c in columns)
        padded = np.zeros((len(off), off.shape[1] + 2, 1))  # [0, off, 0] per block
        padded[:, 1:-1, 0] = off
        # row i gains T[i, i+1] x[i+1], then T[i, i-1] x[i-1]
        np.multiply(padded[:, :-1], x, out=tmp)
        flat[:-1] += products[1:]
        np.multiply(padded[:, 1:], x, out=tmp)
        flat[1:] += products[:-1]
    return out


@lru_cache(maxsize=2)
def _layout(kind: ModelKind, n: int):
    """Everything of a model's tridiagonal form that (kind, N) fixes: (perm,
    block size, J_z and the bus Z/2 in the permuted order, and the diagonal
    (permuted order) and block off-diagonal of K (x) B), read-only.  The last
    two are kept, so a sweep's H and dH/dtheta at every regime of one N share one."""
    if kind is ModelKind.ZZXX:
        k = np.arange(n + 1)
        bus = (k + np.array([[0], [1]])) % 2  # row p: the chain with k + s = p mod 2
        perm, size = (2 * k + bus).ravel(), n + 1
    else:
        perm, size = np.arange(2 * (n + 1)), 2 if kind is ModelKind.ZZZX else 1
    jz = m_values(n)[perm // 2]
    z_half = 0.5 - (perm % 2)  # Z/2 on the bus: +1/2 for s = 0, -1/2 for s = 1
    if kind is ModelKind.ZZZZ:  # J_z (x) Z
        coupling = jz * (1 - 2 * (perm % 2)), np.zeros((len(perm), 0))
    elif kind is ModelKind.ZZZX:  # J_z (x) X: (k, 0) <-> (k, 1)
        coupling = np.zeros(len(perm)), m_values(n)[:, None]
    else:  # J_x (x) X along both chains
        coupling = np.zeros(len(perm)), np.tile(_jx_ladder(n), (2, 1))
    for a in (perm, jz, z_half, *coupling):
        a.flags.writeable = False
    return perm, size, jz, z_half, *coupling


def assemble(spec: ModelSpec, n: int, wrt: Param | None = None) -> HamiltonianMatrix:
    """H = delta*(omega1 J_z (x) I + omega0/2 I (x) Z) + eps*x*(K (x) B), or
    with a `wrt` Param the derivative dH/d(wrt), which has the same block
    structure.

    The collective operators absorb the 1/2 of each single-spin term:
    sum_i Z_i/2 = J_z and sum_i P_i/2 (x) B = K (x) B with x factored out.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    perm, size, jz, z_half, c_diag, c_off = _layout(spec.kind, n)
    if wrt is None:
        diag = (spec.delta * (spec.omega1 * jz + spec.omega0 * z_half)
                + spec.epsilon * spec.x * c_diag)
        off = spec.epsilon * spec.x * c_off
    elif wrt is Param.X:
        diag, off = spec.epsilon * c_diag, spec.epsilon * c_off
    elif wrt is Param.OMEGA1:
        diag, off = spec.delta * jz, np.zeros_like(c_off)
    elif wrt is Param.OMEGA0:
        diag, off = spec.delta * z_half, np.zeros_like(c_off)
    else:
        raise ValueError(f"wrt must be a Param or None, got {wrt!r}")
    return HamiltonianMatrix(n, perm, diag.reshape(-1, size), off)


def _mirrored(m: HamiltonianMatrix) -> bool:
    """Whether m is two chains of odd size > 2 with chain 1 = -S (chain 0) S,
    (S u)_k = (-1)^k u_{size-1-k}: chain 1's diagonal is chain 0's negated
    and reversed, its off-diagonal chain 0's reversed, exactly.  Every ZZXX
    operator at even N is (the bus spin flips under k -> N - k there).  At
    odd N that flip maps each chain to itself, and H's chains agree only
    where delta*omega0 = 0, which dH/domega0 does not, so even sizes never
    count: then every `assemble(spec, n, wrt=...)` is mirrored where H is."""
    diag, off = m.block_diag, m.block_off
    return (diag.shape[0] == 2 and diag.shape[1] > 2 and diag.shape[1] % 2 == 1
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
    # caller's D and Z must be writeable and Fortran-ordered, so a read-only block row is
    # refused, not overwritten; E and the workspaces go by address, into the arena
    int64, address = ctypes.POINTER(ctypes.c_int64), ctypes.c_void_p
    floats = np.ctypeslib.ndpointer(np.float64, flags=("F_CONTIGUOUS", "WRITEABLE"))
    stevd.argtypes = [ctypes.c_char_p, int64, floats, address, floats, int64, address, int64,
                      address, int64, int64, ctypes.c_size_t]
    stevd.restype = None
    return stevd, get, set_


_OPENBLAS = _openblas()


@contextmanager
def _blas_threads():
    """Run the block with numpy's OpenBLAS on one thread, then restore the
    caller's count, also on an exception.  A chain solve gains almost nothing
    from threads, and dstevd's threaded dgemm would change its last bits.  A
    threaded product saves some wall time on long chains, but after every
    threaded call the pool's idle worker spins for ~0.1 s, so the process
    spends about twice its wall time in CPU.  The count is process-wide, so
    other Python threads that use numpy meanwhile run on one thread too, and
    threads that evolve at once may restore each other's setting."""
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


_ARENA = threading.local()


def _scratch(count: int) -> np.ndarray:
    """The first `count` float64s of the calling thread's scratch arena: one
    grow-only buffer per thread that serves dstevd's workspace and then
    `evolve_derivative`'s tile buffers.  A fresh size^2 workspace per call
    is faulted in again on every call once it passes glibc's mmap or trim
    threshold; the arena's pages stay mapped.  Nothing a caller keeps may be
    a view of it."""
    buf = getattr(_ARENA, "buf", None)
    if buf is None or len(buf) < count:
        _ARENA.buf = buf = None  # drop the smaller arena before allocating the larger
        buf = _ARENA.buf = np.empty(count)
    return buf[:count]


def _solve_chain(d: np.ndarray, e: np.ndarray, w: np.ndarray, z: np.ndarray):
    """Write the ascending eigenvalues into w and the orthonormal
    eigenvectors (columns) into the Fortran-ordered z of the symmetric
    tridiagonal matrix with diagonal d and off-diagonal e: LAPACK dstevd, as
    `scipy.linalg.eigh_tridiagonal` calls it for a full spectrum.  dstevd
    overwrites D and E, so D is w, filled with d, and E a copy of e; E and
    the workspaces are the head of the thread's arena (`_scratch`), WORK,
    then IWORK (int64s, eight bytes like a float64), then E."""
    n = len(d)
    if z.shape != (n, n):  # dstevd writes n^2 entries through z's address
        raise ValueError(f"z must be {n} x {n}, got {z.shape}")
    w[:] = d
    lwork, liwork, info = 1 + 4 * n + n * n, 3 + 5 * n, ctypes.c_int64()
    scratch = _scratch(lwork + liwork + n - 1)
    scratch[lwork + liwork:] = e
    work = scratch.ctypes.data
    _OPENBLAS[0](b"V", ctypes.c_int64(n), w, work + 8 * (lwork + liwork), z, ctypes.c_int64(n),
                 work, ctypes.c_int64(lwork), work + 8 * lwork, ctypes.c_int64(liwork), info, 1)
    if info.value:
        raise np.linalg.LinAlgError(f"dstevd returned info = {info.value}")


def eigensystem(h: HamiltonianMatrix):
    """(w, v): the eigenvalues (blocks, size) of every tridiagonal block of
    H and the orthonormal eigenvectors (solved, size, size; columns) of the
    blocks it solved, in the permuted order.

    Every block is solved, its eigenvalues ascending, but one: chain 1 of a
    mirrored H (see `_mirrored`), whose eigenvectors V1 = S V0 are never
    formed and whose eigenvalues w1 = -w0 keep chain 0's order, so descend;
    `_apply` reads V1 through V0, so v holds chain 0 only.
    """
    diag, off = h.block_diag, h.block_off
    size = diag.shape[1]
    chains = 1 if h.mirrored else len(diag)
    w = np.empty(diag.shape)
    try:
        if size <= 2 or _OPENBLAS is None:  # tiny blocks, or no dstevd: one dense solve
            blocks = np.zeros((chains, size, size))
            i = np.arange(size)
            blocks[:, i, i] = diag[:chains]
            blocks[:, i[:-1], i[1:]] = blocks[:, i[1:], i[:-1]] = off[:chains]
            w[:chains], v = np.linalg.eigh(blocks)
        else:
            v = np.empty((chains, size, size)).transpose(0, 2, 1)  # each v[b] as dstevd's Z
            with _blas_threads():
                for b in range(chains):
                    _solve_chain(diag[b], off[b], w[b], v[b])
    except np.linalg.LinAlgError as err:
        raise RuntimeError(
            f"eigendecomposition failed to converge for dim={h.dim}: {err}") from err
    if chains < len(diag):
        w[1] = -w[0]
    return w, v


def _mul(mats: np.ndarray, vecs: np.ndarray) -> np.ndarray:
    """mats[b] @ vecs[b] for real matrices and complex column stacks vecs[b]
    (size, k), without casting the matrices to complex."""
    k = vecs.shape[-1]
    parts = np.matmul(mats, np.concatenate([vecs.real, vecs.imag], axis=-1))
    return parts[..., :k] + 1j * parts[..., k:]


def _apply(v: np.ndarray, x: np.ndarray, transpose: bool = False) -> np.ndarray:
    """V_b x_b, or V_b^T x_b with `transpose`, on every block of the column
    stacks x (blocks, size, k).  A v of chain 0 only (see `eigensystem`)
    gives chain 1's V1 = S V0 through a reversed view: V1 x = S (V0 x) and
    V1^T x = V0^T S^T x, with (S u)_k = (-1)^k u_{size-1-k} and S^T u =
    reverse((-1)^k u_k).  Chain 1's columns ride with chain 0's, so V0 is
    read once."""
    mats = v.transpose(0, 2, 1) if transpose else v
    if len(v) == len(x):
        return _mul(mats, x)
    k = x.shape[-1]
    sign = (1.0 - 2.0 * (np.arange(x.shape[1]) % 2))[:, None]
    x1 = (sign * x[1])[::-1] if transpose else x[1]
    both = _mul(mats[0], np.concatenate([x[0], x1], axis=-1))
    return np.stack([both[:, :k], both[:, k:] if transpose else sign * both[::-1, k:]])


# The narrowest column tile of `evolve_derivative`'s kernel: a chain of size
# states is cut into max(1, size // TILE) tiles of equal widths (to one
# column), TILE to 2 TILE - 1 wide, so a chain below 2 TILE is one tile.
# Wider tiles recompute more of the upper triangle and widen the row bands
# of `_bands`; narrower ones run the product V^T (G V) less efficiently and
# add per-tile Python steps.  Measured on the whole kernel, before the bands
# (delta = 100, 2-core x86-64): 64 was best at fig 3's longest chain, 501
# states (9.0 ms against 9.7 at 32 and 9.3 at 128).
TILE = 64


def _supports(v: np.ndarray, edges: list):
    """(first, last): for every eigenvector column j, the first and last row
    at which some solved chain's v[:, :, j] is nonzero, scanned one column
    tile [c0, c1) of `edges` at a time, so no size^2 temporary is made."""
    size = v.shape[1]
    first, last = np.empty(size, dtype=np.intp), np.empty(size, dtype=np.intp)
    for c0, c1 in edges:
        nonzero = (v[..., c0:c1] != 0.0).any(axis=0)
        first[c0:c1] = nonzero.argmax(axis=0)
        last[c0:c1] = size - 1 - nonzero[::-1].argmax(axis=0)
    return first, last


def _bands(size: int, v: np.ndarray | None = None) -> list:
    """The column tiles of a chain of size states, max(1, size // TILE) of
    equal widths (to one column), each as (c0, c1, r0, r1, j1): the columns
    [c0, c1), the row band [r0, r1) outside which V[:, c0:c1] and G V[:,
    c0:c1] are zero, the tile's supports (`_supports` of the eigenvectors
    v) widened by one row on each side as T and G are tridiagonal, and j1,
    one past the last column j >= c0 whose support meets the band, so that
    V[r0:r1, j] is zero from j1 on.  Every band is the whole chain without
    v, and where the scan cannot pay: on a chain of one tile, whose band is
    the union of all the supports, the whole chain as V is nonsingular, and
    where rows 0 and size - 1 of v hold no zero, so every support is whole."""
    count = max(1, size // TILE)
    edges = [(size * i // count, size * (i + 1) // count) for i in range(count)]
    if v is None or count == 1 or (v[:, 0].all() and v[:, -1].all()):
        return [(c0, c1, 0, size, size) for c0, c1 in edges]
    first, last = _supports(v, edges)
    tiles = []
    for c0, c1 in edges:
        r0, r1 = max(int(first[c0:c1].min()) - 1, 0), min(int(last[c0:c1].max()) + 2, size)
        meets = np.flatnonzero((first[c0:] < r1) & (last[c0:] >= r0))
        tiles.append((c0, c1, r0, r1, c0 + 1 + int(meets[-1])))
    return tiles


def _tiles(h: HamiltonianMatrix, g: HamiltonianMatrix, w: np.ndarray, v: np.ndarray,
           t: float, ys: np.ndarray, tiles):
    """For the k solved blocks of H (eigenvalues w, eigenvectors v, k =
    len(v)), the residual and the kernel K = (V^T G V) o sinc((w_j - w_k) t
    / 2), column tile by column tile.  K is symmetric, so a tile (c0, c1,
    r0, r1, j1) of `tiles` (see `_bands`) forms only its rows from c0 on,
    and of those only the ones before j1, A = K[c0:j1, c0:c1], from the
    band's rows of V and G V, and adds A ys[c0:c1] to zs[c0:j1] and
    A[c1 - c0:]^T ys[c1:j1] to zs[c0:c1]: over all the tiles, zs = K ys,
    for the real ys and zs (k, size, m).  Every term it skips is a product
    with an exact zero of V or G V.  Returns (zs, the squared Frobenius norm
    of the residual T V - V diag(w) = (d - w) o V + T's off-diagonal terms
    over the tiles' columns, per block); the residual is zero outside the
    bands.

    Every buffer (two of v[..., :width]'s size, width the widest tile's,
    and a byte mask) is carved from the calling thread's arena (`_scratch`)
    by `_columns`, packed to the tile's shape, so every elementwise pass runs
    over contiguous memory, and laid out like dstevd's V, whose layout
    decides how BLAS rounds the products.  With h = (w_j - w_k) t / 4,
    sinc(2h) = (tan h / h) / (1 + tan^2 h): numpy 2.4's tan takes ~3 ns an
    element on AVX-512 against ~25 ns for its sine, and no double lies within
    1e-20 of a pole of tan, so tan^2 h cannot overflow."""
    w, h_diag, h_off, g_diag, g_off = (m[:len(v)] for m in (w, h.block_diag, h.block_off,
                                                            g.block_diag, g.block_off))
    blocks = len(w)
    n = v[..., :max(c1 - c0 for c0, c1, *_ in tiles)].size
    scratch = _scratch(2 * n + -(-n // 8))
    first, second, mask = scratch[:n], scratch[n:2 * n], scratch[2 * n:].view(np.bool_)
    zs, sums = np.zeros(ys.shape), 0.0
    for c0, c1, r0, r1, j1 in tiles:
        vc, band, rows, cols = v[:, r0:r1, c0:c1], r1 - r0, j1 - c0, c1 - c0
        r = np.subtract(h_diag[:, r0:r1, None], w[:, None, c0:c1],
                        out=_columns(first, blocks, band, cols))
        r = _tri_mul(r, h_off[:, r0:r1 - 1], vc, r, _columns(second, blocks, band, cols))
        sums = sums + np.einsum("bij,bij->b", r, r)
        gv = _tri_mul(g_diag[:, r0:r1, None], g_off[:, r0:r1 - 1], vc,
                      _columns(first, blocks, band, cols),
                      _columns(second, blocks, band, cols))  # the residual is spent
        a = np.matmul(v[:, r0:r1, c0:j1].transpose(0, 2, 1), gv,
                      out=_columns(second, blocks, rows, cols))
        x = np.subtract(w[:, c0:j1, None], w[:, None, c0:c1],
                        out=_columns(first, blocks, rows, cols))  # G V is spent
        x *= 0.25 * t
        # x = h is 0 where w_j = w_k, and sinc(0) = 1 keeps the entry
        nonzero = np.not_equal(x, 0.0, out=_columns(mask, blocks, rows, cols))
        np.divide(a, x, out=a, where=nonzero)
        np.multiply(a, np.tan(x, out=x), out=a, where=nonzero)
        x *= x
        x += 1.0
        a /= x
        zs[:, c0:j1] += np.matmul(a, ys[:, c0:c1])
        if c1 < j1:
            zs[:, c0:c1] += np.matmul(a[:, cols:].transpose(0, 2, 1), ys[:, c1:j1])
    return zs, sums


def _check_dims(h: HamiltonianMatrix, psi0: SymmetricState):
    if h.n_probes != psi0.n_probes:
        raise ValueError(
            f"dimension mismatch: H has N={h.n_probes}, state has N={psi0.n_probes}")


def evolve(h: HamiltonianMatrix, t: float, psi0: SymmetricState) -> SymmetricState:
    """exp(-i H t) |psi0> via the spectral decomposition of H."""
    _check_dims(h, psi0)
    if t == 0.0:
        return psi0
    with _blas_threads():
        w, v = eigensystem(h)
        y = _apply(v, h.to_blocks(psi0.amplitudes)[..., None], transpose=True)
        amps = h.from_blocks(_apply(v, np.exp(-1j * t * w)[..., None] * y)[..., 0])
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
    the block structure of H and be mirrored wherever H is (see `_mirrored`;
    any `assemble(spec, n, wrt=...)` of the same model is), else ValueError.

    Memory and work: `_tiles` cuts the solved chains into column tiles of
    TILE to 2 TILE - 1 columns, all chains at once (the tiny blocks of ZZZX
    and ZZZZ go as one batched tile).  A tile [c0, c1) forms the kernel K =
    (V^T G V) o sinc only in its rows from c0 on, and K's symmetry gives the
    rest of K y, so of T tiles' products and tangents only (T + 1) / 2T of
    the whole kernel's are computed.  Where the coupling is weak (delta >>
    eps, or eps small), dstevd's divide and conquer deflates (Gu and
    Eisenstat, SIAM J. Matrix Anal. Appl. 16:172, 1995): at delta = 100,
    79-90 % of V's entries are exact zeros from N = 250 to 1000.  So after
    the solve `_bands` records each column's first and last nonzero row
    (`_supports`), one tile at a time, and gives each tile its row band
    [r0, r1), the union of its columns' supports widened by one row as T
    and G are tridiagonal, and its kernel row end j1, past which no column
    meets the band: the residual, G V and V[r0:r1, c0:j1]^T (G V)[r0:r1] run over the
    band, and the sinc and both K y products over rows [c0, j1).  Every
    term skipped is a product with an exact zero, so each entry is the same
    sum, though BLAS may group its terms otherwise.  A chain of one tile,
    or whose rows 0 and size - 1 hold no zero, is not scanned: its bands
    are whole.  Besides the eigenvectors of the solved blocks (one size^2
    matrix per solved chain) it holds two size x tile buffers and a byte
    mask per chain, carved from the calling thread's scratch arena
    (`_scratch`), whose dstevd workspace is spent by then, so the peak is
    the chain solve's (V and that workspace), and a repeated call at one
    size allocates nothing of size^2 but V.  Chain 1 of a mirrored H is
    read through chain 0's eigenvectors (`_apply`): with V1 = S V0, w1 =
    -w0 and S^T G1 S = -G0, its kernel is -K0, so its y rides as more
    columns of chain 0's and their product is negated.

    The certificate is the solve's own backward error, O(size^2) per block
    (Parlett, The Symmetric Eigenvalue Problem, ch. 4; Higham, Accuracy and
    Stability of Numerical Algorithms, ch. 3): the residual r = max
    ||T_b V_b - V_b diag(w_b)||_F >= ||R||_2 over the solved blocks (a
    mirrored chain's is the solved one's, reflected) and the orthogonality
    defect d = ||V V^T psi0 - psi0|| = ||E c||, E = V^T V - I, c the
    propagated coefficients.  With V = Q P (polar), Q diag(w) Q^T is within
    2 ||R|| of H to first order, as [diag(w), E] = V^T R - R^T V; rounding
    t w moves an eigenvalue by at most u ||H||.  By Duhamel, eta = 2 r +
    2 u ||H|| moves psi by at most t eta and dpsi by t^2 ||G|| eta.  P != I
    moves psi by about d and dpsi by about 2 t ||G|| d (E on each side of c
    and of the kernel, of norm <= t ||G||); d samples E along c only, so
    these terms are estimates.  Products with V (||V||_F = sqrt(size)) and
    with the kernel K = (V^T G V) o sinc (an entry from either triangle
    alike) round by gamma = (size + 10) u / (1 - (size + 10) u) each: an
    entry of K gathers size + 10 roundings, 3 in G V (a diagonal product and
    two sums), size in V^T (G V) and 7 in the sinc, (tan h / h) / (1 +
    tan^2 h) applied as a division by h, tan h (within one ulp, so two), the
    product with it, its square, the sum with 1 and the division by that;
    the relative error of tan h passes to the sinc at most once, as
    |d log sinc / d log tan h| = |1 - tan^2 h| / (1 + tan^2 h) <= 1.  A
    product with V gathers size.  The bands change none of this: a term
    they skip is an exact zero, which rounds nothing, so an entry of V^T (G
    V) over a band of b rows gathers b <= size roundings, and the residual
    outside the bands is exactly zero.
    Normalizing psi at most doubles its error.  With gradual underflow an
    operation may also err absolutely, by at most the smallest subnormal
    number s (Higham, eq. 2.8); a component of dpsi is about 3 size + 7
    operations deep, and what errs before the products with t and the kernel
    grows by at most (1 + t)(1 + t ||G||), so each bound gains the floor
    f = (3 size + 7) sqrt(dim) (1 + t)(1 + t ||G||) s, taken as 0 for G = 0,
    whose dpsi = 0 is exact (psi's gamma term alone exceeds f).  With ||H||,
    ||G|| the Gershgorin `norm_bound`s:

        psi_error  = 2 (d + t eta + 2 sqrt(size) gamma) + f,
        dpsi_error = t ||G|| (2 d + t eta + (size + 3 sqrt(size)) gamma) + f.
    """
    _check_dims(h, psi0)
    if not ((g.perm is h.perm or np.array_equal(g.perm, h.perm))
            and g.block_diag.shape == h.block_diag.shape and (not h.mirrored or g.mirrored)):
        raise ValueError("G must share the block structure of H and its mirror")
    if t == 0.0:
        return psi0, np.zeros(psi0.dim, dtype=complex), 0.0, 0.0
    with _blas_threads():
        w, v = eigensystem(h)
        (blocks, size), u = w.shape, 2.0 ** -53  # the unit roundoff
        amps0 = h.to_blocks(psi0.amplitudes)[..., None]
        c = _apply(v, amps0, transpose=True)
        half = np.exp(-0.5j * t * w)[..., None]
        y = half * c
        mirrored = len(v) < blocks
        if mirrored:  # chain 1's kernel is -K0, so its y rides as a second column of chain 0's
            y = y.transpose(2, 1, 0)
        zs, sums = _tiles(h, g, w, v, t, np.concatenate([y.real, y.imag], axis=-1),
                          _bands(size, v))
        squared = float(sums.max())  # the largest squared residual of a block
        m = y.shape[-1]
        z = zs[..., :m] + 1j * zs[..., m:]
        if mirrored:
            z = np.stack([z[0, :, :1], -z[0, :, 1:]])
        out = _apply(v, np.concatenate([c, half * half * c, -1j * t * half * z], axis=-1))
        defect = float(np.linalg.norm(out[..., :1] - amps0))
        psi = h.from_blocks(out[..., 1])
        psi = SymmetricState(psi0.n_probes, psi / np.linalg.norm(psi))
        dpsi = h.from_blocks(out[..., 2])
    eta = 2.0 * math.sqrt(squared) + 2.0 * u * h.norm_bound
    tau, g_norm = abs(t), g.norm_bound
    gamma = (size + 10) * u / (1.0 - (size + 10) * u)
    tiny = 2.0 ** -1074  # the smallest subnormal number
    floor = 0.0 if g_norm == 0.0 else ((3 * size + 7) * math.sqrt(h.dim) * (1.0 + tau)
                                       * (1.0 + tau * g_norm) * tiny)
    return (psi, dpsi, 2.0 * (defect + tau * eta + 2.0 * math.sqrt(size) * gamma) + floor,
            tau * g_norm * (2.0 * defect + tau * eta
                            + (size + 3.0 * math.sqrt(size)) * gamma) + floor)


def propagate(spec: ModelSpec, n: int, angles: StateAngles) -> SymmetricState:
    """Build the product state and evolve it for spec.t under spec's model."""
    return evolve(assemble(spec, n), spec.t, build_product_state(n, angles))
