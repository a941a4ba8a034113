"""Single-qubit Pauli matrices used throughout the package."""

import numpy as np

IDENTITY = np.eye(2, dtype=complex)
X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

# Bus observable used in the local-measurement sweeps: (X + Z)/2.
XZ_HALF = 0.5 * (X + Z)

NAMED_OBSERVABLES = {
    "x": X,
    "y": Y,
    "z": Z,
    "i": IDENTITY,
    "xz": XZ_HALF,
}


def check_hermitian_2x2(a) -> np.ndarray:
    """`a` as a complex 2x2 array; raises ValueError unless it is Hermitian."""
    a = np.asarray(a, dtype=complex)
    if a.shape != (2, 2) or np.max(np.abs(a - a.conj().T)) > 1e-12:
        raise ValueError("observable must be a 2x2 Hermitian matrix")
    return a
