"""Dense float64 linear algebra and seeded randomness used by every module.

Matrices are plain ``np.ndarray`` in row-major float64; all factorizations
come with explicit residual contracts that the test suite enforces.
Randomness goes through :class:`RngStream`, a counter-based (Philox) stream:
identical seeds reproduce identical draws bit-for-bit on every platform, and
independent streams never perturb each other regardless of call interleaving.
"""

from __future__ import annotations

import numpy as np
import scipy.linalg

from .errors import InvalidInput

Matrix = np.ndarray


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Validate and convert to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise InvalidInput(f"{name} contains non-finite values")
    return m


def svd(a: Matrix) -> tuple[Matrix, np.ndarray, Matrix]:
    """Thin SVD: A = U @ diag(S) @ Vt with S non-negative and descending.

    Reconstruction error is bounded by 1e-9 * max|A| for well-scaled inputs.
    """
    m = as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u, s, vt


def sym_eig(s: Matrix, tol: float = 1e-10, top: int | None = None) -> tuple[np.ndarray, Matrix]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    With ``top`` only the ``top`` largest eigenpairs are returned (all n by
    default). Asymmetry beyond ``tol`` (scaled by max(1, max|S|)) is
    rejected. The solver is LAPACK ``syevr`` (MRRR) over an index range; it
    reads one triangle of S, so the returned eigenvectors are exactly
    orthonormal without symmetrizing. The input is not modified.
    """
    m = as_matrix(s, "symmetric matrix")
    n = m.shape[0]
    if n != m.shape[1]:
        raise InvalidInput(f"expected square matrix, got {m.shape}")
    top = n if top is None else int(top)
    if not min(n, 1) <= top <= n:
        raise InvalidInput(f"top must be in [1, {n}], got {top}")
    if m.size:
        scale = max(1.0, float(m.max()), -float(m.min()))
        asym = m - m.T
        np.abs(asym, out=asym)
        too_asymmetric = float(asym.max()) > tol * scale
        del asym  # free the n x n temporary before LAPACK takes its copy
        if too_asymmetric:
            raise InvalidInput("matrix is asymmetric beyond tolerance")
    w, v = scipy.linalg.eigh(
        m, subset_by_index=[n - top, n - 1], driver="evr", check_finite=False
    )
    return w[::-1].copy(), v[:, ::-1].copy()


def center_columns(x: Matrix) -> Matrix:
    """Subtract the per-column mean; output columns have zero mean."""
    m = as_matrix(x)
    if m.shape[0] < 1:
        raise InvalidInput("need at least one row to center")
    return m - m.mean(axis=0)


class RngStream:
    """Single-owner deterministic random stream backed by Philox.

    ``fork()`` derives an independent child stream; the fork sequence is part
    of the stream's deterministic state, so a fixed (seed, fork order, draw
    order) always reproduces the same numbers.
    """

    def __init__(self, seed: int, _seq: np.random.SeedSequence | None = None):
        self.seed = int(seed)
        self._seq = np.random.SeedSequence(self.seed) if _seq is None else _seq
        self._gen = np.random.Generator(np.random.Philox(self._seq))

    def fork(self) -> "RngStream":
        """Derive an independent substream (deterministic per fork order)."""
        return RngStream(self.seed, _seq=self._seq.spawn(1)[0])

    def gaussian(self, rows: int, cols: int) -> Matrix:
        return self._gen.standard_normal((rows, cols))

    def normal(self, shape) -> np.ndarray:
        return self._gen.standard_normal(shape)

    def uniform(self, shape) -> np.ndarray:
        return self._gen.random(shape)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

