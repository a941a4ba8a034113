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
diagonalizes it block by block (`scipy.linalg.eigh_tridiagonal` on the
chains), so propagation never forms a dense 2(N+1)-square matrix.
`evolve_derivative` also returns the exact derivative of the evolved state
from the same eigendecomposition (Daleckii-Krein formula).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from functools import cached_property

import numpy as np
from scipy.linalg import eigh_tridiagonal

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
        """T @ x block by block, for x of shape (blocks, size, ...)."""
        extra = (1,) * (x.ndim - 2)
        diag = self.block_diag.reshape(self.block_diag.shape + extra)
        off = self.block_off.reshape(self.block_off.shape + extra)
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


def eigensystem(h: HamiltonianMatrix):
    """Eigenvalues (blocks, size), ascending within each block, and
    orthonormal eigenvectors (blocks, size, size; columns) of every
    tridiagonal block of H, in the permuted order."""
    diag, off = h.block_diag, h.block_off
    size = diag.shape[1]
    try:
        if size <= 2:  # many tiny blocks: one batched dense solve
            blocks = np.zeros(diag.shape + (size,))
            i = np.arange(size)
            blocks[:, i, i] = diag
            blocks[:, i[:-1], i[1:]] = blocks[:, i[1:], i[:-1]] = off
            return np.linalg.eigh(blocks)
        pairs = [eigh_tridiagonal(d, e) for d, e in zip(diag, off)]
    except np.linalg.LinAlgError as err:  # pragma: no cover - LAPACK failure
        raise RuntimeError(
            f"eigendecomposition failed to converge for dim={h.dim}: {err}") from err
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
    """(exp(-i H t)|psi0>, d/dtheta exp(-i (H + theta G) t)|psi0> at theta = 0).

    With H = V diag(w) V^T, the derivative of the propagator is
    V [(V^T G V) o F] V^T (Daleckii-Krein; Wilcox 1967), where
    F_jk = (e^{-i w_j t} - e^{-i w_k t}) / (w_j - w_k) is evaluated as
    -i t e^{-i (w_j + w_k) t / 2} sinc((w_j - w_k) t / 2), which takes the
    degenerate limit -i t e^{-i w_j t} without cancellation.  G must have
    the block structure of H (any `assemble(spec, n, wrt=...)` of the same
    model does).
    """
    _check_dims(h, psi0)
    if not (np.array_equal(g.perm, h.perm) and g.block_diag.shape == h.block_diag.shape):
        raise ValueError("G must share the block structure of H")
    if t == 0.0:
        return psi0, np.zeros(psi0.dim, dtype=complex)
    w, v = eigensystem(h)
    vt = v.transpose(0, 2, 1)
    c = _mul(vt, h.to_blocks(psi0.amplitudes))
    half = np.exp(-0.5j * t * w)
    # (V^T G V) o sinc((w_j - w_k) t/2), built in place
    kernel = np.matmul(vt, g.block_mul(v))
    x = 0.5 * t * (w[:, :, None] - w[:, None, :])
    sinc = np.sin(x)
    np.divide(sinc, x, out=sinc, where=x != 0.0)
    sinc[x == 0.0] = 1.0
    kernel *= sinc
    psi = h.from_blocks(_mul(v, half * half * c))
    dpsi = h.from_blocks(_mul(v, -1j * t * half * _mul(kernel, half * c)))
    return SymmetricState(psi0.n_probes, psi / np.linalg.norm(psi)), dpsi


def propagate(spec: ModelSpec, n: int, angles: StateAngles) -> SymmetricState:
    """Build the product state and evolve it for spec.t under spec's model."""
    return evolve(assemble(spec, n), spec.t, build_product_state(n, angles))
