"""Dense float64 linear algebra and seeded randomness used by every module.

Matrices are plain ``np.ndarray`` in row-major float64; all factorizations
come with explicit residual contracts that the test suite enforces.
Randomness goes through :class:`RngStream`, a counter-based (Philox) stream:
identical seeds reproduce identical draws bit-for-bit on every platform, and
independent streams never perturb each other regardless of call interleaving.
"""

from __future__ import annotations

import ctypes
import functools
from pathlib import Path

import numpy as np
import scipy.linalg

from .errors import InvalidInput

Matrix = np.ndarray


# Entries `as_matrix` tests for finiteness at once, so its boolean
# temporary is 64 KB at most, not the size of an n x n kernel.
_FINITE_BLOCK = 1 << 16


def as_matrix(a, name: str = "matrix") -> Matrix:
    """Validate and convert to a finite 2-D float64 array."""
    m = np.asarray(a, dtype=np.float64)
    if m.ndim != 2:
        raise InvalidInput(f"{name} must be 2-D, got shape {m.shape}")
    rows = max(1, _FINITE_BLOCK // max(1, m.shape[1]))
    if not all(np.isfinite(m[i : i + rows]).all() for i in range(0, m.shape[0], rows)):
        raise InvalidInput(f"{name} contains non-finite values")
    return m


@functools.cache
def _openblas_get_num_threads():
    """numpy's bundled OpenBLAS ``get_num_threads`` as a ctypes function,
    or None when numpy ships no OpenBLAS that exports one."""
    libs = sorted((Path(np.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if not libs:
        return None
    try:
        lib = ctypes.CDLL(str(libs[0]))  # the copy numpy has loaded already
    except OSError:
        return None
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            fn = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if fn is not None:
                fn.argtypes, fn.restype = [], ctypes.c_int
                return fn
    return None


def blas_threads() -> int | None:
    """Threads numpy's OpenBLAS runs a product on, as it reports them now;
    None when numpy's BLAS is not an OpenBLAS whose count can be read."""
    fn = _openblas_get_num_threads()
    return None if fn is None else int(fn())


def unit_rows(x) -> Matrix:
    """Each row of ``x`` (as float64) over its Euclidean norm; zero rows stay zero."""
    m = np.asarray(x, dtype=np.float64)
    return m / np.maximum(np.linalg.norm(m, axis=1, keepdims=True), 1e-30)


def svd(a: Matrix) -> tuple[Matrix, np.ndarray, Matrix]:
    """Thin SVD: A = U @ diag(S) @ Vt with S non-negative and descending.

    Reconstruction error is bounded by 1e-9 * max|A| for well-scaled inputs.
    """
    m = as_matrix(a)
    u, s, vt = np.linalg.svd(m, full_matrices=False)
    return u, s, vt


# Rows and columns per tile of `check_symmetric`: a tile, its mirror and
# their difference (3 x 512 KB) stay in a core's L2 cache.
_SYM_TILE = 256


def check_symmetric(a, name: str, tol: float) -> Matrix:
    """``a`` as a finite square float64 matrix (`as_matrix`), rejected if its
    asymmetry exceeds ``tol`` * max(1, max|a|); each message names ``name``.

    Each tile on or above the diagonal is compared with its mirror below
    it, so no n x n temporary is made; at n = 2000 a check took 17-19 ms,
    against 47 ms for the whole ``m - m.T``."""
    m = as_matrix(a, name)
    if m.shape[0] != m.shape[1]:
        raise InvalidInput(f"{name} must be square, got {m.shape}")
    if m.size:
        scale = max(1.0, float(m.max()), -float(m.min()))
        n = m.shape[0]
        diff = np.empty((min(n, _SYM_TILE),) * 2)
        for i in range(0, n, _SYM_TILE):
            for j in range(i, n, _SYM_TILE):
                upper = m[i : i + _SYM_TILE, j : j + _SYM_TILE]
                d = diff[: upper.shape[0], : upper.shape[1]]
                np.subtract(upper, m[j : j + _SYM_TILE, i : i + _SYM_TILE].T, out=d)
                if float(np.abs(d, out=d).max()) > tol * scale:
                    raise InvalidInput(f"{name} is asymmetric beyond tolerance")
    return m


# Below n = 20 r, syevr's tridiagonal reduction is as fast as Lanczos
# (measured on centered RBF kernels at r = 50).
_LANCZOS_ROWS_PER_PAIR = 20


def sym_eig(s: Matrix, top: int | None = None) -> tuple[np.ndarray, Matrix]:
    """Eigendecomposition of a symmetric matrix, eigenvalues descending.

    With ``top`` only the ``top`` largest eigenpairs are returned (all n by
    default). Asymmetry beyond 1e-10 (scaled by max(1, max|S|)) is
    rejected. The input is not modified. The solver depends on the shape
    alone: ARPACK's Lanczos (``eigsh``) to machine precision when
    n >= 20 * top, from a seeded start vector so that reruns give the same
    bits; otherwise, or when ARPACK raises, LAPACK ``syevr`` (MRRR) over an
    index range. Lanczos multiplies by one triangle of the matrix with
    scipy's BLAS ``dsymv``, whose bits depend on the BLAS thread count as
    well as the build.
    """
    m = check_symmetric(s, "matrix", 1e-10)
    n = m.shape[0]
    top = n if top is None else int(top)
    if not min(n, 1) <= top <= n:
        raise InvalidInput(f"top must be in [1, {n}], got {top}")
    if 1 <= top <= n // _LANCZOS_ROWS_PER_PAIR:
        from scipy.sparse import linalg as sparse_linalg  # imported here: it adds 4 MB of RSS

        # dsymv reads one triangle, half the memory of a dense product. It
        # copies any array that is not F-contiguous, so lay m out once here:
        # the transpose of a C-ordered m is m itself, F-ordered, at no cost.
        mf = m.T if m.flags.c_contiguous else np.asfortranarray(m)
        op = sparse_linalg.LinearOperator(
            (n, n), matvec=lambda x: scipy.linalg.blas.dsymv(1.0, mf, x), dtype=np.float64
        )
        # ncv = 2 top was fastest at top = 50; small tops need 20. The start
        # vector must not be all ones: that is in every centered kernel's null space.
        try:
            w, v = sparse_linalg.eigsh(
                op, k=top, which="LA", ncv=min(n - 1, max(2 * top, 20)), v0=RngStream(0).normal(n)
            )
        except sparse_linalg.ArpackError:
            pass
        else:
            order = np.argsort(w)[::-1]
            return w[order], v[:, order]
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

    def integers(self, high, shape) -> np.ndarray:
        """Uniform int64 draws in [0, high); ``high`` broadcasts against ``shape``."""
        return self._gen.integers(0, high, size=shape)

    def choice(self, n: int, size: int, replace: bool = False) -> np.ndarray:
        return self._gen.choice(n, size=size, replace=replace)

