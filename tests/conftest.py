import numpy as np
import pytest


def _every_block(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The eigenvectors of every block from `dynamics.eigensystem`'s (w, v):
    v as it is, or with chain 1 of a mirrored H formed as S V0 R, (S u)_k =
    (-1)^k u_{size-1-k} and R reversing the columns, the eigenvectors of
    its eigenvalues -reverse(w0)."""
    if len(v) == len(w):
        return v
    sign = 1.0 - 2.0 * (np.arange(w.shape[1]) % 2)
    return np.stack([v[0], sign[:, None] * v[0][::-1, ::-1]])


@pytest.fixture
def every_block():
    return _every_block
