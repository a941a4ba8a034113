"""Reference computations in the full 2^(N+1)-dimensional Hilbert space.

Everything here is built directly on the computational basis, with no
reliance on the symmetric-sector machinery, so these routines serve as an
independent cross-check of the reduced pipeline.  Every Hamiltonian term is
a real Pauli string, placed in a dense real symmetric matrix by index
arithmetic on the basis bits.  A propagation splits the basis into the
blocks that the matrix never couples, read off its nonzero pattern, and
solves each group of equal-size blocks with one batched real `eigh`.  A
group that is exactly two blocks mirrored onto each other by the chiral map
P|b, s> = (-1)^s |not b, not s> (every ZZXX matrix at even N: P flips all
N+1 bits and anticommutes with Z_i, Z_bus and X_i X_bus) solves block 0
only; the mirror is checked exactly on the matrix's own entries, never
assumed.  Neither the Dicke basis nor the probe permutations are used.
They scale exponentially and are only meant for N up to ~10.

Qubit ordering: probes 1..N first (probe 1 most significant), bus last,
so a basis index reads as the bit string b_1 b_2 ... b_N s.
"""

from __future__ import annotations

import math

import numpy as np

# relative step of the oracle's central differences
FD_STEP = 1e-6

# (probe operator, bus operator) of the interaction term, per model
_INTERACTIONS = {
    "ZZZZ": ("Z", "Z"),
    "ZZXX": ("X", "X"),
    "ZZZX": ("Z", "X"),
}


def _pauli_string(ops: dict, n_sites: int):
    """(rows, cols, values) of the nonzeros of the tensor product with
    `ops[site]` ("X" or "Z") at each listed site and identity elsewhere.

    Site k is bit n_sites - 1 - k of the basis index.  Column j has one
    nonzero, at row j ^ xmask (X flips its bit), with value the product of
    (-1)^bit over the Z sites of j.
    """
    cols = np.arange(2 ** n_sites)
    xmask = 0
    values = np.ones(cols.size)
    for site, op in ops.items():
        bit = n_sites - 1 - site
        if op == "X":
            xmask |= 1 << bit
        else:
            values *= 1 - 2 * ((cols >> bit) & 1)
    return cols ^ xmask, cols, values


def qubit_state(theta: float, phase: float) -> np.ndarray:
    return np.array([math.cos(theta), math.sin(theta) * np.exp(1j * phase)],
                    dtype=complex)


def product_state_full(n, alpha, phi, beta, varphi) -> np.ndarray:
    """|probe>^(x)N (x) |bus> as a dense 2^(N+1) vector."""
    probe = qubit_state(alpha, phi)
    psi = np.array([1.0 + 0j])
    for _ in range(n):
        psi = np.kron(psi, probe)
    return np.kron(psi, qubit_state(beta, varphi))


def hamiltonian_full(kind, n, delta, epsilon, omega0, omega1, x) -> np.ndarray:
    """delta*(sum_i w1/2 Z_i + w0/2 Z_bus) + eps*x/2 * sum_i P_i B_bus, as a
    dense real symmetric matrix."""
    probe_op, bus_op = _INTERACTIONS[str(kind)]
    dim = 2 ** (n + 1)
    h = np.zeros((dim, dim))
    bus = n  # bus is the last site
    terms = [(delta * omega0 / 2.0, {bus: "Z"})]
    for i in range(n):
        terms.append((delta * omega1 / 2.0, {i: "Z"}))
        terms.append((epsilon * x / 2.0, {i: probe_op, bus: bus_op}))
    for coef, ops in terms:
        rows, cols, values = _pauli_string(ops, n + 1)
        h[rows, cols] += coef * values
    return h


def _real_matmul(m: np.ndarray, z: np.ndarray) -> np.ndarray:
    """m @ z for a real matrix m and a complex z, without a complex copy of m."""
    return m @ z.real + 1j * (m @ z.imag)


def _component_labels(h: np.ndarray) -> np.ndarray:
    """For each basis index, the smallest index of its connected component
    in the graph of h's nonzero entries (min-label propagation with pointer
    jumping: a label only ever falls to another index of its component)."""
    rows, cols = np.divmod(np.flatnonzero(h != 0), len(h))  # ~6x faster than a 2-D nonzero
    label = np.arange(len(h))
    while True:
        previous = label.copy()
        np.minimum.at(label, rows, label[cols])
        label = label[label]
        if np.array_equal(label, previous):
            return label


def _mirror_signs(idx: np.ndarray, blocks: np.ndarray, dim: int):
    """The bus signs s = (-1)^(idx[1] & 1) when the group is two blocks that
    the chiral map P|b, s> = (-1)^s |not b, not s> sends onto each other with
    P h P^T = -h, i.e. idx[1] = dim - 1 - reverse(idx[0]) and block 1 =
    -(s s^T) * reverse(block 0) exactly; otherwise None."""
    if len(idx) != 2 or not np.array_equal(idx[1], dim - 1 - idx[0][::-1]):
        return None
    s = 1.0 - 2.0 * (idx[1] & 1)
    return s if np.array_equal(blocks[1], -np.outer(s, s) * blocks[0][::-1, ::-1]) else None


def propagate_full(h: np.ndarray, t: float, psi0: np.ndarray) -> np.ndarray:
    """exp(-i h t) psi0 for a real symmetric h and psi0 a vector or a (dim, k)
    stack of columns, exactly: h couples no two connected components of its
    nonzero pattern, so each is propagated through its own eigendecomposition,
    and components of equal size share one batched `eigh`.

    A group of two components mirrored by the chiral map (see
    `_mirror_signs`) solves component 0 only: component 1's eigenvalues are
    -reverse(w0) and its eigenvectors s * v0 with rows and columns reversed.
    """
    cols = np.asarray(psi0, dtype=complex).reshape(len(h), -1)
    out = np.empty_like(cols)
    label = _component_labels(h)
    order = np.argsort(label, kind="stable")
    _, start, size = np.unique(label[order], return_index=True, return_counts=True)
    for s in np.unique(size):
        idx = order[start[size == s, None] + np.arange(s)]  # (blocks, s)
        blocks = h[idx[:, :, None], idx[:, None, :]]
        sign = _mirror_signs(idx, blocks, len(h))
        if sign is None:
            w, v = np.linalg.eigh(blocks)
        else:
            w, v = np.linalg.eigh(blocks[:1])
            w = np.concatenate([w, -w[:, ::-1]])
            v = np.concatenate([v, sign[:, None] * v[:, ::-1, ::-1]])
        c = _real_matmul(v.transpose(0, 2, 1), cols[idx])
        out[idx] = _real_matmul(v, np.exp(-1j * w * t)[..., None] * c)
    return out.reshape(np.shape(psi0))


def bus_density(psi: np.ndarray) -> np.ndarray:
    """Partial trace over the probes: rho_{s s'} = sum_p psi[p,s] conj(psi[p,s'])."""
    block = psi.reshape(-1, 2)
    return np.einsum("ps,pt->st", block, block.conj())


def dicke_matrix(n: int) -> np.ndarray:
    """Rows: normalized Dicke states in m-descending order (row a has a
    probe excitations, m = N/2 - a); columns: the 2^N probe basis."""
    d = np.zeros((n + 1, 2 ** n))
    for idx in range(2 ** n):
        d[bin(idx).count("1"), idx] = 1.0
    d /= np.sqrt(d.sum(axis=1, keepdims=True))
    return d


def project_symmetric(psi_full: np.ndarray, n: int) -> np.ndarray:
    """Amplitudes <m, s|psi> in the (m descending, s inner) layout."""
    block = psi_full.reshape(2 ** n, 2)
    return (dicke_matrix(n) @ block).reshape(-1)


def pure_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)


def _central_difference(f, theta0: float) -> tuple:
    """(f(theta0), the central difference of f at FD_STEP * max(1, |theta0|))."""
    h = FD_STEP * max(1.0, abs(theta0))
    return f(theta0), (f(theta0 + h) - f(theta0 - h)) / (2.0 * h)


def evolved_with_derivative_full(kind, n, params: dict, which: str, alpha, phi, beta,
                                 varphi) -> tuple:
    """(psi, d psi/d theta) of the fully propagated pure state, the derivative
    a central difference: three dense propagations.  `params` holds delta,
    epsilon, omega0, omega1, x, t; `which` names the parameter (x, omega0 or
    omega1)."""
    psi0 = product_state_full(n, alpha, phi, beta, varphi)

    def state_at(theta):
        p = dict(params, **{which: theta})
        h = hamiltonian_full(kind, n, p["delta"], p["epsilon"], p["omega0"],
                             p["omega1"], p["x"])
        return propagate_full(h, p["t"], psi0)

    return _central_difference(state_at, params[which])


def bus_density_derivative(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """d rho_bus = Tr_probes(|d psi><psi| + |psi><d psi|)."""
    half = np.einsum("ps,pt->st", dpsi.reshape(-1, 2), psi.reshape(-1, 2).conj())
    return half + half.conj().T


def thermal_evolved_density(kind, n, params: dict, beta_th, bus_beta,
                            bus_varphi) -> np.ndarray:
    """rho(t) for thermal probes: convex combination over the 2^N probe
    configurations, each propagated as a pure state, all in one product."""
    u = beta_th * params["omega1"]
    pop = np.array([math.exp(-u), math.exp(u)])
    pop /= pop.sum()

    weights = np.ones(1)
    for _ in range(n):  # weight of each probe configuration
        weights = np.kron(weights, pop)

    h = hamiltonian_full(kind, n, params["delta"], params["epsilon"],
                         params["omega0"], params["omega1"], params["x"])
    # column c is |config c> (x) |bus>, so psi_t[:, c] is that configuration
    # evolved to time t
    configs = np.arange(2 ** n)
    psi0 = np.zeros((2 ** n, 2, 2 ** n), dtype=complex)
    psi0[configs, :, configs] = qubit_state(bus_beta, bus_varphi)
    psi_t = propagate_full(h, params["t"], psi0.reshape(2 ** (n + 1), 2 ** n))
    return (psi_t * weights) @ psi_t.conj().T


def mixed_qfi(rho: np.ndarray, drho: np.ndarray, cutoff: float = 1e-14) -> float:
    """I = 2 sum_{nm} |<n|drho|m>|^2 / (p_n + p_m) over eigenpairs of rho
    whose summed populations exceed `cutoff`."""
    w, v = np.linalg.eigh(rho)
    d = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > cutoff
    return 2.0 * float(np.sum((np.abs(d) ** 2)[mask] / denom[mask]))


def thermal_global_qfi_full(kind, n, params: dict, which: str, beta_th,
                            bus_beta, bus_varphi) -> float:
    """Finite-difference mixed-state QFI of the thermal-probe state.

    For which='omega1' the parameter shift moves both the thermal
    populations and the propagator, as it should.
    """
    rho, drho = _central_difference(
        lambda theta: thermal_evolved_density(kind, n, dict(params, **{which: theta}),
                                              beta_th, bus_beta, bus_varphi),
        params[which])
    return mixed_qfi(rho, drho)
