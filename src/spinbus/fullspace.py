"""Reference computations in the full 2^(N+1)-dimensional Hilbert space.

Everything here is built directly on the computational basis, with no
reliance on the symmetric-sector machinery, so these routines serve as an
independent cross-check of the reduced pipeline.  Every Hamiltonian term is
a real Pauli string, whose row r has one nonzero, at column r ^ xmask (its
X-flip mask).  So every operator is built once, straight from the strings,
in one sparse form (cols, vals), cols[r, j] = r ^ masks[j]; a dense matrix
(`hamiltonian_full`) is that form scattered and read back (`_nonzeros`).
Propagations apply h only through it, in a Chebyshev expansion of exp(-iht)
on the Gershgorin interval of h (Tal-Ezer & Kosloff 1984), whose degree is
the smallest with a tail bound below unit roundoff; differentiating the
same recurrence gives the exact parameter derivative.  The thermal QFI reads
from the spectrum its propagated probe configurations give.  Only
`mixed_qfi` uses an eigendecomposition, and nothing uses the Dicke basis or
the probe permutations.  These routines scale exponentially and are only
meant for N up to ~10.

Qubit ordering: probes 1..N first (probe 1 most significant), bus last,
so a basis index reads as the bit string b_1 b_2 ... b_N s.
"""

from __future__ import annotations

import math

import numpy as np

# unit roundoff of float64: the Chebyshev tail bound must fall below it
_UNIT_ROUNDOFF = np.finfo(float).eps / 2

# (probe operator, bus operator) of the interaction term, per model
_INTERACTIONS = {
    "ZZZZ": ("Z", "Z"),
    "ZZXX": ("X", "X"),
    "ZZZX": ("Z", "X"),
}


def _pauli_string(ops: dict, n_sites: int):
    """(xmask, values) of the tensor product with `ops[site]` ("X" or "Z")
    at each listed site and identity elsewhere: row r has its one nonzero,
    values[r], at column r ^ xmask.  Site k is bit n_sites - 1 - k of the
    basis index; X flips its bit, and values[r] is the product of (-1)^bit
    over the Z sites of r, which X leaves alone."""
    rows = np.arange(2 ** n_sites)
    xmask = 0
    values = np.ones(rows.size)
    for site, op in ops.items():
        bit = n_sites - 1 - site
        if op == "X":
            xmask |= 1 << bit
        else:
            values *= 1 - 2 * ((rows >> bit) & 1)
    return xmask, values


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


def _terms(kind, n, delta, epsilon, omega0, omega1, x) -> list:
    """(coefficient, {site: op}) of each Pauli string of h, in a fixed order."""
    probe_op, bus_op = _INTERACTIONS[str(kind)]
    bus = n  # bus is the last site
    terms = [(delta * omega0 / 2.0, {bus: "Z"})]
    for i in range(n):
        terms.append((delta * omega1 / 2.0, {i: "Z"}))
        terms.append((epsilon * x / 2.0, {i: probe_op, bus: bus_op}))
    return terms


def _hamiltonian_nonzeros(kind, n, delta, epsilon, omega0, omega1, x) -> tuple:
    """h as (cols, vals), each (dim, width): h[r, cols[r, j]] = vals[r, j],
    cols[r, j] = r ^ masks[j] for the X-flip masks of its Pauli strings,
    ascending, each the sum of its strings in `_terms`' order; a mask whose
    column is all zero is left out."""
    summed = {}  # xmask -> h[r, r ^ xmask] by row r
    for coef, ops in _terms(kind, n, delta, epsilon, omega0, omega1, x):
        xmask, values = _pauli_string(ops, n + 1)
        summed[xmask] = summed.get(xmask, 0.0) + coef * values
    masks = sorted(summed)
    vals = np.stack([summed[m] for m in masks], axis=1)
    keep = np.flatnonzero(vals.any(axis=0))
    # C order: the F-ordered `vals[:, keep]` slows `_product` 2-3x
    return (np.arange(len(vals))[:, None] ^ np.array(masks)[keep],
            np.ascontiguousarray(vals[:, keep]))


def hamiltonian_full(kind, n, delta, epsilon, omega0, omega1, x) -> np.ndarray:
    """delta*(sum_i w1/2 Z_i + w0/2 Z_bus) + eps*x/2 * sum_i P_i B_bus, as a
    dense real symmetric matrix: `_hamiltonian_nonzeros` scattered."""
    cols, vals = _hamiltonian_nonzeros(kind, n, delta, epsilon, omega0, omega1, x)
    h = np.zeros((len(cols), len(cols)))
    np.put_along_axis(h, cols, vals, axis=1)
    return h


def _nonzeros(m: np.ndarray) -> tuple:
    """Any dense m in `_hamiltonian_nonzeros`' form: entry (r, c) has mask
    r ^ c, and the masks of m's nonzeros, ascending, give the columns."""
    flat = np.flatnonzero(m != 0)  # ~5x faster than on the floats themselves
    rows, cols = np.divmod(flat, len(m))
    # bincount, not np.unique, whose first call imports numpy.ma (~15 ms)
    masks = np.flatnonzero(np.bincount(rows ^ cols, minlength=len(m)))
    cols = np.arange(len(m))[:, None] ^ masks
    return cols, np.take_along_axis(m, cols, axis=1)


def _product(nonzeros: tuple, x: np.ndarray) -> np.ndarray:
    """m @ x for a (dim, k) stack x, m given by its `_nonzeros`."""
    cols, vals = nonzeros
    return np.matmul(vals[:, None, :], x[cols])[:, 0]


def _gershgorin(nonzeros: tuple) -> tuple:
    """(mid, rad) of the union [mid - rad, mid + rad] of m's Gershgorin
    discs, which holds the spectrum of a symmetric m."""
    cols, vals = nonzeros
    diag = np.where(cols == np.arange(len(cols))[:, None], vals, 0.0).sum(axis=1)
    off = np.abs(vals).sum(axis=1) - np.abs(diag)
    lo, hi = np.min(diag - off), np.max(diag + off)
    return (hi + lo) / 2.0, (hi - lo) / 2.0


def _degree(z: float, power: int) -> int:
    """The smallest K >= |z| with 4 sum_{k>K} k^power (|z|/2)^k / k! below
    unit roundoff (z != 0, power <= 2).  The sum is formed in logarithms, so
    it cannot overflow; the terms it leaves out, k > 2|z| + 63, are each
    below 1e-57."""
    k = np.arange(1, 2 * math.ceil(abs(z)) + 64)
    log_terms = power * np.log(k) + k * math.log(abs(z) / 2.0) - np.cumsum(np.log(k))
    log_tail = np.logaddexp.accumulate(log_terms[::-1])[::-1]  # [i]: sum over k > i
    below = (log_tail < math.log(_UNIT_ROUNDOFF / 4.0)) & (k - 1 >= abs(z))
    return int(np.argmax(below))


def _coefficients(z: float, degree: int) -> np.ndarray:
    """Chebyshev coefficients c_0..c_K of the degree-K interpolant of
    exp(-izx) at the K + 1 Chebyshev points x_j = cos(pi j / K): the
    discrete cosine transform of the samples, as the FFT of their even
    extension (O(K) memory, where a K x K cosine matrix would need O(K^2)).
    It transforms exp(-izx) - 1 = -2i sin(zx/2) exp(-izx/2) and adds the 1
    to c_0, so the rounding of c_k (k >= 1), which the derivative amplifies
    by up to k^2, scales with |z| rather than with 1."""
    zx = z * np.cos(np.pi * np.arange(degree + 1) / degree)
    samples = -2j * np.sin(zx / 2.0) * np.exp(-0.5j * zx)
    coef = np.fft.fft(np.concatenate([samples, samples[-2:0:-1]]))[:degree + 1] / degree
    coef[[0, -1]] /= 2.0
    coef[0] += 1.0
    return coef


def _propagate(h_nz: tuple, t: float, psi0: np.ndarray, g_nz=None) -> tuple:
    """(exp(-iht) psi0, its derivative along g) for real symmetric h and g,
    given by their `_nonzeros`, and a (dim, k) stack psi0; the derivative is
    None when g_nz is None.

    With [mid - rad, mid + rad] the Gershgorin interval of h, H_s = (h - mid)
    / rad has its spectrum in [-1, 1] and exp(-iht) = exp(-i mid t) f(H_s)
    for f(x) = exp(-izx), z = rad t.  The degree-K interpolant p = sum_k c_k
    T_k of f in the Chebyshev points (`_coefficients`) is applied through
    the three-term recurrence T_{k+1} = 2 H_s T_k - T_{k-1}, T_0 = psi0,
    T_1 = H_s psi0, so h only ever multiplies vectors, through its nonzeros.

    Error: f's Chebyshev coefficients are a_k = 2 (-i)^k J_k(z) (k >= 1),
    and |J_k(z)| <= (|z|/2)^k / k!.  By aliasing (Trefethen, Approximation
    Theory and Approximation Practice, Thm 4.2) the interpolant's error is
    at most 2 sum_{k>K} |a_k| <= 4 sum_{k>K} (|z|/2)^k / k!, and `_degree`
    makes that fall below unit roundoff.

    Derivative: h is linear in the parameter, d h / d theta = g, so
    differentiating p(H_s) keeps mid and rad fixed: G_s = g / rad, dT_0 = 0,
    dT_1 = G_s psi0 and dT_{k+1} = 2 G_s T_k + 2 H_s dT_k - dT_{k-1}.  That
    is the same recurrence on the stack (T_k, dT_k) with the block operator
    [[H_s, 0], [G_s, H_s]], whose T_k holds d T_k(H_s) below its diagonal.
    The result is the exact derivative of p(H_s) psi0, which differs from
    that of f(H_s) psi0 by at most ||G_s|| max |(f - p)'| on [-1, 1]
    (Daleckii-Krein); T_k' is at most k^2 there (Markov), so that error is
    at most 4 ||G_s|| sum_{k>K} k^2 (|z|/2)^k / k!, and with g the degree
    is chosen to make that fall below unit roundoff too.

    A zero-width interval (h = mid I) or t = 0 is exact: exp(-i mid t) psi0,
    with derivative -it exp(-i mid t) g psi0, since then g commutes with h.
    """
    mid, rad = _gershgorin(h_nz)
    phase = np.exp(-1j * mid * t)
    z = rad * t
    if z == 0.0:
        return phase * psi0, (None if g_nz is None else -1j * t * phase * _product(g_nz, psi0))

    k = psi0.shape[1]
    two_h = (h_nz[0], (2.0 / rad) * h_nz[1])
    two_g = None if g_nz is None else (g_nz[0], (2.0 / rad) * g_nz[1])

    def step(x):  # 2 H_s x, or the block operator's 2 [[H_s, 0], [G_s, H_s]] x
        out = _product(two_h, x) - (2.0 * mid / rad) * x
        if g_nz is not None:
            out[:, k:] += _product(two_g, x[:, :k])
        return out

    coef = phase * _coefficients(z, _degree(z, 0 if g_nz is None else 2))
    prev = psi0 if g_nz is None else np.hstack([psi0, np.zeros_like(psi0)])
    cur = 0.5 * step(prev)
    out = coef[0] * prev + coef[1] * cur
    for c in coef[2:]:
        prev, cur = cur, step(cur) - prev
        out += c * cur
    return out[:, :k], (None if g_nz is None else out[:, k:])


def propagate_full(h: np.ndarray, t: float, psi0: np.ndarray) -> np.ndarray:
    """exp(-i h t) psi0 for a real symmetric h and psi0 a vector or a (dim, k)
    stack of columns, to rounding, through h's nonzeros (see `_propagate`)."""
    psi, _ = _propagate(_nonzeros(h), t, np.asarray(psi0, dtype=complex).reshape(len(h), -1))
    return psi.reshape(np.shape(psi0))


def _generator(kind, n, params: dict, which: str) -> tuple:
    """d h / d theta for theta = x, omega0 or omega1, as its `_nonzeros`: h is
    linear in each, so this is h with theta's coefficient 1 and the other two
    0."""
    if which not in ("x", "omega0", "omega1"):
        raise ValueError(f"cannot differentiate in {which!r}; use x, omega0 or omega1")
    unit = {name: float(name == which) for name in ("omega0", "omega1", "x")}
    return _hamiltonian_nonzeros(kind, n, params["delta"], params["epsilon"],
                                 unit["omega0"], unit["omega1"], unit["x"])


def bus_density(psi: np.ndarray) -> np.ndarray:
    """Partial trace over the probes: rho_{s s'} = sum_p psi[p,s] conj(psi[p,s'])."""
    block = psi.reshape(-1, 2)
    return np.einsum("ps,pt->st", block, block.conj())


def _excitations(n: int) -> np.ndarray:
    """Probe excitations (set bits) of each configuration 0 .. 2^N - 1."""
    return ((np.arange(2 ** n)[:, None] >> np.arange(n)) & 1).sum(axis=1)


def dicke_matrix(n: int) -> np.ndarray:
    """Rows: normalized Dicke states in m-descending order (row a has a
    probe excitations, m = N/2 - a); columns: the 2^N probe basis."""
    d = (_excitations(n) == np.arange(n + 1)[:, None]).astype(float)
    d /= np.sqrt(d.sum(axis=1, keepdims=True))
    return d


def project_symmetric(psi_full: np.ndarray, n: int) -> np.ndarray:
    """Amplitudes <m, s|psi> in the (m descending, s inner) layout."""
    block = psi_full.reshape(2 ** n, 2)
    return (dicke_matrix(n) @ block).reshape(-1)


def pure_qfi(psi: np.ndarray, dpsi: np.ndarray) -> float:
    overlap = np.vdot(psi, dpsi)
    return 4.0 * float(np.real(np.vdot(dpsi, dpsi)) - abs(overlap) ** 2)


def evolved_with_derivative_full(kind, n, params: dict, which: str, alpha, phi, beta,
                                 varphi) -> tuple:
    """(psi, d psi/d theta) of the fully propagated pure state, the derivative
    exact, from one differentiated propagation (see `_propagate`).  `params`
    holds delta, epsilon, omega0, omega1, x, t; `which` names the parameter
    (x, omega0 or omega1), or is None for (psi, None) from an undifferentiated
    propagation."""
    psi0 = product_state_full(n, alpha, phi, beta, varphi)
    h = _hamiltonian_nonzeros(kind, n, params["delta"], params["epsilon"], params["omega0"],
                              params["omega1"], params["x"])
    g = None if which is None else _generator(kind, n, params, which)
    psi, dpsi = _propagate(h, params["t"], psi0[:, None], g)
    return psi[:, 0], (None if dpsi is None else dpsi[:, 0])


def bus_density_derivative(psi: np.ndarray, dpsi: np.ndarray) -> np.ndarray:
    """d rho_bus = Tr_probes(|d psi><psi| + |psi><d psi|)."""
    half = np.einsum("ps,pt->st", dpsi.reshape(-1, 2), psi.reshape(-1, 2).conj())
    return half + half.conj().T


def _thermal_states(kind, n, params: dict, beta_th, bus_beta, bus_varphi,
                    which=None) -> tuple:
    """(w, d log w/d theta, psi, d psi/d theta) of thermal probes, whose state
    is rho(t) = sum_c w_c |psi_c><psi_c| over the 2^N probe configurations c:
    psi[:, c] is |config c> (x) |bus> evolved to time t, so the columns are
    orthonormal, and all are propagated (and differentiated) as one stack; d
    psi is None when `which` is None.

    Only omega1 moves the weights.  With u = beta_th * omega1 a probe is in
    |1> with p_1 = e^u / (e^-u + e^u), and dp_1/du = 2 p_0 p_1 = -dp_0/du, so
    n_1 excited probes give d log(w)/du = 2 p_0 n_1 - 2 p_1 (N - n_1).
    """
    u = beta_th * params["omega1"]
    pop = np.exp(np.array([-u, u]) - abs(u))  # e^{-+u}, scaled so neither overflows
    pop /= pop.sum()
    excited = _excitations(n)
    weights = pop[0] ** (n - excited) * pop[1] ** excited  # per probe configuration
    dlog_weights = (which == "omega1") * 2.0 * beta_th * (pop[0] * excited
                                                          - pop[1] * (n - excited))
    h = _hamiltonian_nonzeros(kind, n, params["delta"], params["epsilon"],
                              params["omega0"], params["omega1"], params["x"])
    g = None if which is None else _generator(kind, n, params, which)
    psi0 = np.kron(np.eye(2 ** n), qubit_state(bus_beta, bus_varphi)[:, None])
    psi, dpsi = _propagate(h, params["t"], psi0, g)
    return weights, dlog_weights, psi, dpsi


def mixed_qfi(rho: np.ndarray, drho: np.ndarray) -> float:
    """I = 2 sum_{nm} |<n|drho|m>|^2 / (p_n + p_m) over eigenpairs of rho
    whose summed populations exceed 1e-14."""
    w, v = np.linalg.eigh(rho)
    d = v.conj().T @ drho @ v
    denom = w[:, None] + w[None, :]
    mask = denom > 1e-14
    return 2.0 * float(np.sum((np.abs(d) ** 2)[mask] / denom[mask]))


def thermal_global_qfi_full(kind, n, params: dict, which: str, beta_th,
                            bus_beta, bus_varphi) -> float:
    """Mixed-state QFI of the thermal-probe state, from the spectrum it is
    built with (`_thermal_states`): rho = sum_c w_c |psi_c><psi_c| with
    orthonormal psi_c, so with P the projector onto their span

        I = sum_c w_c (d log w_c)^2 + 4 sum_c w_c ||(1 - P) d psi_c||^2
            + 2 sum_{c, c'} (w_c - w_c')^2 / (w_c + w_c') |<psi_c'|d psi_c>|^2,

    the pairs with w_c + w_c' = 0 left out.  There is no eigendecomposition
    and no cutoff, so a configuration keeps its share however small its
    weight.  For which='omega1' the parameter moves both the weights and the
    propagator.  That QFI falls like e^{-2u}, u = beta_th omega1, and the
    rounding of (1 - P) d psi_c does not: for ZZZZ at N = 3 it is within
    2e-14 of the closed form up to u = 19, 8e-10 at u = 25 and 1e-5 at 30.
    """
    weights, dlog_weights, psi, dpsi = _thermal_states(kind, n, params, beta_th, bus_beta,
                                                       bus_varphi, which)
    overlaps = psi.conj().T @ dpsi  # [c', c] = <psi_c'|d psi_c>
    outside = dpsi - psi @ overlaps  # (1 - P) d psi_c
    total = weights[:, None] + weights
    pairs = np.divide((weights[:, None] - weights) ** 2, total, out=np.zeros_like(total),
                      where=total > 0)
    return float(weights @ dlog_weights ** 2 + 4.0 * weights @ np.sum(np.abs(outside) ** 2, 0)
                 + 2.0 * np.sum(pairs * np.abs(overlaps) ** 2))
