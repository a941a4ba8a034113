"""Reference computations in the full 2^(N+1)-dimensional Hilbert space.

Everything here is built directly on the computational basis, with no
reliance on the symmetric-sector machinery, so these routines serve as an
independent cross-check of the reduced pipeline.  Every Hamiltonian term is
a real Pauli string, placed in a dense real symmetric matrix by index
arithmetic on the basis bits, and every propagation is one dense `eigh`.
They scale exponentially and are only meant for N up to ~10.

Qubit ordering: probes 1..N first (probe 1 most significant), bus last,
so a basis index reads as the bit string b_1 b_2 ... b_N s.
"""

from __future__ import annotations

import math

import numpy as np

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


def propagate_full(h: np.ndarray, t: float, psi0: np.ndarray) -> np.ndarray:
    w, v = np.linalg.eigh(h)
    return _real_matmul(v, np.exp(-1j * w * t) * _real_matmul(v.T, psi0))


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


def global_qfi_full(kind, n, params: dict, which: str, alpha, phi, beta, varphi,
                    step: float = 1e-6) -> float:
    """Finite-difference QFI of the fully propagated pure state.

    `params` holds delta, epsilon, omega0, omega1, x, t; `which` names the
    parameter being estimated (x, omega0 or omega1).
    """
    psi0 = product_state_full(n, alpha, phi, beta, varphi)
    t = params["t"]

    def state_at(theta):
        p = dict(params)
        p[which] = theta
        h = hamiltonian_full(kind, n, p["delta"], p["epsilon"], p["omega0"],
                             p["omega1"], p["x"])
        return propagate_full(h, t, psi0)

    theta0 = params[which]
    h = step * max(1.0, abs(theta0))
    psi = state_at(theta0)
    dpsi = (state_at(theta0 + h) - state_at(theta0 - h)) / (2.0 * h)
    return pure_qfi(psi, dpsi)


def thermal_evolved_density(kind, n, params: dict, beta_th, bus_beta, bus_varphi,
                            override: dict | None = None) -> np.ndarray:
    """rho(t) for thermal probes: convex combination over the 2^N probe
    configurations, each propagated as a pure state, all in one product."""
    p = dict(params)
    if override:
        p.update(override)
    u = beta_th * p["omega1"]
    pop = np.array([math.exp(-u), math.exp(u)])
    pop /= pop.sum()

    weights = np.ones(1)
    for _ in range(n):  # weight of each probe configuration
        weights = np.kron(weights, pop)

    h = hamiltonian_full(kind, n, p["delta"], p["epsilon"], p["omega0"],
                         p["omega1"], p["x"])
    w, v = np.linalg.eigh(h)
    bus = qubit_state(bus_beta, bus_varphi)
    # column c is the eigenbasis amplitude of |config c> (x) |bus>, so
    # psi_t[:, c] is that configuration evolved to time t
    coeffs = (bus[0] * v[0::2] + bus[1] * v[1::2]).T
    psi_t = _real_matmul(v, np.exp(-1j * w * p["t"])[:, None] * coeffs)
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
                            bus_beta, bus_varphi, step: float = 1e-6) -> float:
    """Finite-difference mixed-state QFI of the thermal-probe state.

    For which='omega1' the parameter shift moves both the thermal
    populations and the propagator, as it should.
    """
    theta0 = params[which]
    h = step * max(1.0, abs(theta0))

    def rho_at(theta):
        return thermal_evolved_density(kind, n, params, beta_th, bus_beta,
                                       bus_varphi, override={which: theta})

    rho = rho_at(theta0)
    drho = (rho_at(theta0 + h) - rho_at(theta0 - h)) / (2.0 * h)
    return mixed_qfi(rho, drho)
