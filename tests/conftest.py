import numpy as np
import pytest

from spinbus import dynamics


def _every_block(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """The eigenvectors of every block from `dynamics.eigensystem`'s (w, v):
    v as it is, or with chain 1 of a mirrored H formed as S V0, (S u)_k =
    (-1)^k u_{size-1-k}, the eigenvectors of its eigenvalues w1 = -w0."""
    if len(v) == len(w):
        return v
    sign = 1.0 - 2.0 * (np.arange(w.shape[1]) % 2)
    return np.stack([v[0], sign[:, None] * v[0][::-1]])


@pytest.fixture
def every_block():
    return _every_block


@pytest.fixture(params=[False, True], ids=["default", "dense"])
def dense(request, monkeypatch):
    """Runs a test twice: on the eigensolver this numpy has, and with
    `dynamics._OPENBLAS` set to None, on the dense `np.linalg.eigh` fallback
    that every numpy without the bundled OpenBLAS (MKL, Accelerate) takes."""
    if request.param:
        monkeypatch.setattr(dynamics, "_OPENBLAS", None)


@pytest.fixture(autouse=True)
def _numpy_blas_threads_unchanged():
    """Fail a test that leaves numpy's OpenBLAS thread count other than it
    found it: the count is process-wide, so every later test would run on it."""
    if dynamics._OPENBLAS is None:
        yield
        return
    _, get, set_ = dynamics._OPENBLAS
    before = get()
    yield
    after = get()
    set_(before)  # so that one failure does not spread to the tests after it
    assert after == before, f"numpy's BLAS thread count left at {after}, found at {before}"
