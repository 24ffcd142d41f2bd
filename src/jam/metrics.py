"""Statistical alignment metrics between two embedding sets.

Implements the standard second-order suite: HSIC / CKA on (optionally RBF)
kernels, the mutual-kNN-masked local variant CKNNA, canonical correlation
analysis with linear or RBF kernel PCA preprocessing, and SVCCA. All scores
compare an image view V (n x d_v) against a text view L (n x d_l) with rows
paired by sample.

Conventions that the contracts pin down:

* Kernels are centered with H = I - (1/n) 11^T; HSIC(K, L) = tr(Kc Lc)/(n-1)^2.
* Linear CKA is computed in feature space, ||Yc^T Xc||_F^2 /
  (||Xc^T Xc||_F ||Yc^T Yc||_F) over column-centered features (Kornblith et
  al., 2019); this equals the kernel form because the centered linear kernel
  is Xc Xc^T. RBF CKA has no finite feature map and uses centered Grams.
* CKNNA's cross term is masked by mutual k-nearest neighborhood of both
  views; each normalization term is masked by its own view's kNN graph.
  Self-pairs enter every sum weighted by the row's neighborhood density, so
  the k = n-1 score reproduces CKA exactly while small-k scores stay driven
  by neighborhood agreement (independent views score near zero). Neighbors
  are ranked by raw inner product (or cosine), a tie going to the lower
  index. The centered linear kernel is read only at the kNN pairs and on
  its diagonal, as row dot products of the centered features.
* CCA adds ridge 1e-8 * mean(diag) to each covariance block and reports
  singular values of the whitened cross-covariance, clipped to [0, 1].

What a report shares, and what it costs. ``alignment_report`` pairs one
image view with two or three text sets. Each view (the images once, each
text set once) keeps a record of the costly results its cells read,
computed on first use: one SVD of the centered features (the top-r PCA
projection and the SVCCA truncation are both read off it), the RBF
kernel-PCA scores and the kNN index sets. No record holds an n x n array,
and the image side is derived once per report, not once per setting. The
dominant cost is one top-r eigensolve of an n x n RBF kernel per distinct
view: four for a three-setting report. Beside them, linear CKA costs
O(n d^2), CKNNA O(n k d) after one n x n similarity pass per view for its
kNN sets, and CCA and SVCCA work on n x r blocks.

One n x n buffer per RBF kernel. ``x @ x.T`` becomes the squared distances
in place, row block by row block; the median heuristic counts and selects
in that buffer without gathering its n(n-1) entries; ``exp`` and the
centering overwrite it. No other n^2-sized temporary of any dtype lives
beside it, and the kNN similarity is formed one row block at a time, so a
report with the default linear CKA holds at most one n x n array at a time
(RBF CKA needs both views' kernels at once). With one BLAS thread, an
n=2000 report's peak RSS rose 42 MB above its inputs for a 32 MB kernel,
and an n=8000 report peaked at 609 MB for a 512 MB kernel.

Kernel PCA computes only the top r eigenpairs (see ``numkit.sym_eig``): by
ARPACK's Lanczos (Lehoucq, Sorensen & Yang, 1998) from n >= 20 r, O(n^2)
per product instead of an O(n^3) tridiagonal reduction, else by LAPACK's
exact ``syevr``. Each product reads one triangle of the kernel (BLAS
``dsymv``), half the memory of a dense one: at n=2000 a solve took 0.28 s,
against 0.62 s with dense products. The centered RBF spectrum of the
n=2000 metric screen is flat around r=50 (lambda_50 / lambda_51 ~ 1.002);
Lanczos still matches ``syevr`` to 5e-15 in the eigenvalues, while
randomized subspace iteration with 8 power steps was 2.7% off there.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import DegenerateInput, InvalidInput, check_fields
from .numkit import Matrix, RngStream, as_matrix, center_columns, check_symmetric, svd, sym_eig, unit_rows

KERNEL_KINDS = ("linear", "rbf")
SIMILARITY_KINDS = ("inner", "cosine")

# Most elements CKNNA gathers at once, so its memory stays bounded for any k.
_GATHER_ELEMENTS = 1 << 20
# Rows of an n x n array that the distance, median and kNN passes handle at
# once, so their temporaries are a block of rows, never n x n.
_BLOCK_ROWS = 256
# The median's first bracket: quantiles of 65536 entries drawn at random,
# 0.01 in rank on each side of the middle, five standard errors of a
# sample quantile of that size. A strided grid of rows and columns is no
# such sample: its entries share a few hundred points, and at n=2000 its
# quantiles were 0.013 off in rank, so the first bracket missed.
_MEDIAN_SAMPLE = 1 << 16
_MEDIAN_MARGIN = 0.01


def _off_diagonal_masks(sq: Matrix, test):
    """(block, test(block)) per row block of a square ``sq``, the mask's
    entries on the diagonal of ``sq`` cleared."""
    for start in range(0, sq.shape[0], _BLOCK_ROWS):
        block = sq[start : start + _BLOCK_ROWS]
        mask = test(block)
        rows = np.arange(block.shape[0])
        mask[rows, rows + start] = False
        yield block, mask


def _off_diagonal_median(sq: Matrix) -> float:
    """``np.median`` of the n(n-1) off-diagonal entries of ``sq``, bit for bit,
    without gathering them.

    N = n(n-1) is even, so the median averages the order statistics of
    ranks N/2-1 and N/2. Quantiles of a seeded random sample bracket both.
    Passes over row blocks count the entries below and at each end of the
    bracket, one more gathers the entries strictly inside, and
    ``np.partition`` selects among those. Ties at the ends are counted, not
    gathered. A bracket that misses a rank is widened fourfold, until it
    spans every entry.
    """
    n = sq.shape[0]
    total = n * (n - 1)
    ranks = (total // 2 - 1, total // 2)
    rows, cols = np.divmod(RngStream(0).integers(n * n, _MEDIAN_SAMPLE), n)
    sample = np.sort(sq[rows, cols][rows != cols])

    def count(op, value):
        return sum(np.count_nonzero(m) for _, m in _off_diagonal_masks(sq, lambda b: op(b, value)))

    margin = _MEDIAN_MARGIN
    while True:
        lo_at = int(np.floor((ranks[0] / total - margin) * sample.size))
        hi_at = int(np.ceil((ranks[1] / total + margin) * sample.size))
        lo = sample[lo_at] if lo_at >= 0 else -np.inf
        hi = sample[hi_at] if hi_at < sample.size else np.inf
        # sorted, the entries are: < lo, then == lo up to rank upto_lo, then
        # inside (lo, hi) up to below_hi, then == hi up to upto_hi
        below, upto_lo = count(np.less, lo), count(np.less_equal, lo)
        below_hi, upto_hi = count(np.less, hi), count(np.less_equal, hi)
        if below <= ranks[0] and ranks[1] < upto_hi:
            break
        margin *= 4.0
    inside = np.concatenate([b[m] for b, m in _off_diagonal_masks(sq, lambda b: (lo < b) & (b < hi))])
    picks = [r - upto_lo for r in ranks if upto_lo <= r < below_hi]
    if picks:
        inside.partition(picks)

    def value(rank):
        if rank < upto_lo:
            return lo
        return inside[rank - upto_lo] if rank < below_hi else hi

    return float(np.mean([value(r) for r in ranks]))


def _median_gamma(sq: Matrix) -> float:
    """1 / (2 median) over the off-diagonal squared distances; 1.0 when
    that median is not positive or there is none."""
    med = _off_diagonal_median(sq) if sq.shape[0] > 1 else 0.0
    if med <= 0.0:
        return 1.0
    return 1.0 / (2.0 * med)


def _pairwise_sqdist(x: Matrix) -> Matrix:
    """||x_i - x_j||^2, clipped at 0, built in place in the buffer of x @ x.T.

    ``x @ x.T`` runs as one BLAS ``syrk``, so the result is exactly
    symmetric. Each row block is then turned into (|x_i|^2 + |x_j|^2) - 2 g_ij
    with the only temporary a block of rows.
    """
    sq = np.sum(x * x, axis=1)
    d = x @ x.T
    for start in range(0, d.shape[0], _BLOCK_ROWS):
        rows = d[start : start + _BLOCK_ROWS]
        rows *= 2.0
        np.subtract(np.add.outer(sq[start : start + _BLOCK_ROWS], sq), rows, out=rows)
        np.maximum(rows, 0.0, out=rows)
    return d


def gram(x: Matrix, kind: str = "linear", gamma: float | None = None) -> Matrix:
    """Kernel matrix of the rows of x: K = X X^T or exp(-gamma ||xi - xj||^2)."""
    m = as_matrix(x)
    if kind == "linear":
        k = m @ m.T
        return (k + k.T) / 2.0
    if kind == "rbf":
        if gamma is not None and gamma <= 0:
            raise InvalidInput(f"rbf gamma must be > 0, got {gamma}")
        k = _pairwise_sqdist(m)
        k *= -(_median_gamma(k) if gamma is None else gamma)
        return np.exp(k, out=k)
    raise InvalidInput(f"unknown kernel kind {kind!r}")


def center_gram(k: Matrix, out: Matrix | None = None) -> Matrix:
    """H K H with H = I - (1/n) 11^T; row and column sums become zero.

    The result goes to a new array, or to ``out``, which may be ``k`` itself:
    the row, column and grand means are all taken before any entry is
    written, so both give the same bits.
    """
    m = check_symmetric(k, "kernel", 1e-10)
    row, col, grand = m.mean(axis=1, keepdims=True), m.mean(axis=0, keepdims=True), m.mean()
    out = np.subtract(m, row, out=out)
    out -= col
    out += grand
    return out


def _hsic_centered(kc: Matrix, lc: Matrix) -> float:
    return float(np.sum(kc * lc) / (kc.shape[0] - 1) ** 2)


def cka(x: Matrix, y: Matrix, kind: str = "linear", gamma: float | None = None) -> float:
    """HSIC(K, L) / sqrt(HSIC(K, K) HSIC(L, L)); in [0, 1] for PSD kernels.

    The linear kernel is evaluated in feature space, with no n x n Gram.
    """
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    if xm.shape[0] != ym.shape[0]:
        raise InvalidInput("x and y must have the same number of rows")
    return _cka(_View(xm), _View(ym), kind, gamma)


def _cka(xv: _View, yv: _View, kind: str, gamma: float | None) -> float:
    if xv.x.shape[0] < 2:
        raise InvalidInput("hsic needs at least 2 samples")
    if kind == "linear":
        xc, yc = center_columns(xv.x), center_columns(yv.x)
        cross = _sq_frobenius(yc.T @ xc)
        kk = _sq_frobenius(xc.T @ xc)
        ll = _sq_frobenius(yc.T @ yc)
    else:
        k, l = gram(xv.x, kind, gamma), gram(yv.x, kind, gamma)
        kc, lc = center_gram(k, out=k), center_gram(l, out=l)
        cross, kk, ll = _hsic_centered(kc, lc), _hsic_centered(kc, kc), _hsic_centered(lc, lc)
    if kk <= 0.0 or ll <= 0.0:
        raise DegenerateInput("zero-variance input: HSIC self-term vanishes")
    return float(cross / np.sqrt(kk * ll))


def _sq_frobenius(a: Matrix) -> float:
    return float(np.vdot(a, a))


def _knn_indices(f: Matrix, k: int) -> np.ndarray:
    """n x k: row i lists the k rows j != i with the largest f_i . f_j, ascending in j.

    A tie at the k-th similarity goes to the lowest column indices, the set
    a stable sort on descending similarity picks. The similarity is formed
    and ranked one block of rows at a time (``f[block] @ f.T``), so no
    temporary is larger than a block of rows of the n x n similarity.
    """
    n = f.shape[0]
    out = np.empty((n, k), dtype=np.intp)
    for start in range(0, n, _BLOCK_ROWS):
        block = f[start : start + _BLOCK_ROWS] @ f.T
        rows = np.arange(block.shape[0])
        block[rows, rows + start] = -np.inf
        kth = np.partition(block, n - k, axis=1)[:, [n - k]]
        chosen = block > kth
        tied = block == kth
        room = k - chosen.sum(axis=1, keepdims=True)
        chosen |= tied & (np.cumsum(tied, axis=1, dtype=np.int32) <= room)
        out[start : start + _BLOCK_ROWS] = np.nonzero(chosen)[1].reshape(-1, k)
    return out


def _similarity_features(x: Matrix, similarity: str) -> Matrix:
    if similarity == "cosine":
        return unit_rows(x)
    if similarity not in SIMILARITY_KINDS:
        raise InvalidInput(f"unknown similarity {similarity!r}")
    return x


def _paired_views(v: Matrix, lm: Matrix) -> tuple[_View, _View]:
    vm = as_matrix(v, "v")
    lmm = as_matrix(lm, "lm")
    if lmm.shape[0] != vm.shape[0]:
        raise InvalidInput("views must have the same number of rows")
    return _View(vm), _View(lmm)


def _neighbor_dots(xc: Matrix, idx: np.ndarray) -> Matrix:
    """n x k centered kernel values xc[i] . xc[idx[i, m]], gathered in blocks."""
    n, k = idx.shape
    out = np.empty((n, k))
    step = max(1, _GATHER_ELEMENTS // (k * max(xc.shape[1], 1)))
    for start in range(0, n, step):
        rows = slice(start, start + step)
        out[rows] = np.einsum("rf,rmf->rm", xc[rows], xc[idx[rows]])
    return out


def _align_local(a: Matrix, b: Matrix, mask: Matrix, a_diag: np.ndarray, b_diag: np.ndarray) -> float:
    """Masked centered-similarity sum with density-weighted self-pairs.

    ``a`` and ``b`` hold two centered kernels at one view's kNN pairs (row i,
    column idx[i, m]); ``a_diag`` and ``b_diag`` are their diagonals. Each
    masked pair contributes a*b; the self-pair of row i contributes with
    weight |masked pairs of i| / (n-1). A full mask at k = n-1 therefore
    reproduces the complete double sum (including the diagonal), which is
    what makes the k = n-1 score collapse to the global one exactly, while
    sparse masks keep the self-pairs from dominating.
    """
    n = mask.shape[0]
    density = mask.sum(axis=1) / (n - 1)
    return float(np.sum(a * b * mask) + np.sum(density * a_diag * b_diag))


def cknna(v: Matrix, lm: Matrix, k: int, similarity: str = "inner") -> float:
    """CKA restricted to k-nearest-neighbor structure of the two views.

    The cross term sums centered-similarity products over pairs that are
    mutual k-nearest neighbors in both views; each normalization term sums
    over its own view's kNN pairs. All three sums add density-weighted
    self-pairs (see _align_local), so cknna(v, lm, n-1) == cka(v, lm) holds
    exactly and cknna(v, v, k) == 1 for every valid k.
    """
    return _cknna(*_paired_views(v, lm), k, similarity)


def _cknna(vv: _View, lv: _View, k: int, similarity: str) -> float:
    nn_v = vv.knn(k, similarity)
    nn_l = lv.knn(k, similarity)
    n = nn_v.shape[0]
    row = n * np.arange(n)[:, None]
    # mutual[i, m]: the pair (i, nn_v[i, m]) is also in l's kNN graph
    mutual = np.isin(nn_v + row, nn_l + row, assume_unique=True)
    if not mutual.any():
        raise DegenerateInput("mutual kNN mask is empty")
    vc, lc = center_columns(vv.x), center_columns(lv.x)
    v_diag = np.einsum("ij,ij->i", vc, vc)
    l_diag = np.einsum("ij,ij->i", lc, lc)
    full = np.ones(nn_v.shape, dtype=bool)
    kv = _neighbor_dots(vc, nn_v)
    ll = _neighbor_dots(lc, nn_l)
    num = _align_local(kv, _neighbor_dots(lc, nn_v), mutual, v_diag, l_diag)
    dk = _align_local(kv, kv, full, v_diag, v_diag)
    dl = _align_local(ll, ll, full, l_diag, l_diag)
    if dk <= 0.0 or dl <= 0.0:
        raise DegenerateInput("masked self-alignment vanishes")
    return num / float(np.sqrt(dk * dl))


def _fix_signs(components: Matrix) -> Matrix:
    """Make the largest-magnitude coordinate of each component positive."""
    out = components.copy()
    for i in range(out.shape[0]):
        j = int(np.argmax(np.abs(out[i])))
        if out[i, j] < 0:
            out[i] = -out[i]
    return out


def kpca_reduce(x: Matrix, r: int, gamma: float | None = None) -> Matrix:
    """Top-r kernel-PCA scores of the centered RBF kernel of x.

    Column i is sqrt(lambda_i) * u_i, i.e. the centered kernel projected on
    its i-th eigenvector scaled by 1/sqrt(lambda_i).
    """
    xm = as_matrix(x)
    n = xm.shape[0]
    if not 1 <= r <= n - 1:
        raise InvalidInput(f"r must be in [1, rows-1] = [1, {n - 1}]")
    k = gram(xm, "rbf", gamma)
    evals, evecs = sym_eig(center_gram(k, out=k), top=r)
    if evals[-1] <= max(evals[0], 1.0) * 1e-12:
        raise DegenerateInput(f"centered kernel has rank < {r}")
    scores = evecs * np.sqrt(evals)
    return _fix_signs(scores.T).T


def _inv_sqrt_psd(s: Matrix) -> Matrix:
    evals, evecs = sym_eig(s)
    if evals[-1] <= 0:
        raise DegenerateInput("covariance block not positive definite after ridge")
    return (evecs / np.sqrt(evals)) @ evecs.T


def cca(x: Matrix, y: Matrix, k: int | None = None) -> np.ndarray:
    """Canonical correlations (descending, in [0, 1]) between the two views.

    Whitened cross-covariance SVD: singular values of
    Sxx^-1/2 Sxy Syy^-1/2 with ridge 1e-8 * mean(diag) on Sxx, Syy.
    The first entry is the usual single-number alignment score.
    """
    xm = as_matrix(x, "x")
    ym = as_matrix(y, "y")
    n = xm.shape[0]
    if ym.shape[0] != n:
        raise InvalidInput("views must have the same number of rows")
    if n < 3:
        raise InvalidInput(f"cca needs at least 3 samples, got {n}")
    dmin = min(xm.shape[1], ym.shape[1])
    if k is None:
        k = dmin
    if not 1 <= k <= dmin:
        raise InvalidInput(f"k must be in [1, {dmin}], got {k}")
    xc = center_columns(xm)
    yc = center_columns(ym)
    sxx = xc.T @ xc / n
    syy = yc.T @ yc / n
    sxy = xc.T @ yc / n
    for s in (sxx, syy):
        dim = s.shape[0]
        s[np.diag_indices(dim)] += 1e-8 * (np.trace(s) / dim)
    t = _inv_sqrt_psd(sxx) @ sxy @ _inv_sqrt_psd(syy)
    _, sing, _ = svd(t)
    return np.clip(sing[:k], 0.0, 1.0)


def svcca(x: Matrix, y: Matrix, eta: float = 0.99, k: int = 10) -> float:
    """SVD-truncate each view to explain >= eta of variance, then mean
    of the top min(r_x, r_y, k) canonical correlations."""
    return _svcca(_View(as_matrix(x, "x")), _View(as_matrix(y, "y")), eta, k)


def _svcca(xv: _View, yv: _View, eta: float, k: int) -> float:
    if not 0 < eta <= 1:
        raise InvalidInput(f"eta must be in (0, 1], got {eta}")
    if k < 1:
        raise InvalidInput("k must be >= 1")
    xh = xv.truncated(eta)
    yh = yv.truncated(eta)
    corrs = cca(xh, yh, k=min(xh.shape[1], yh.shape[1]))
    top = min(xh.shape[1], yh.shape[1], k)
    return float(np.mean(corrs[:top]))


class _View:
    """One embedding set and the costly results the metric cells derive from it.

    The SVD of the centered features, the kernel-PCA scores and the kNN
    index sets are computed on first use and kept, so a report that pairs
    the images with several text sets derives the image side once. What is kept is d x d, n x r or n x k, never n x n. The centered
    features and the projections cost O(n d r) and are formed again when
    asked for: holding them would add to the memory peak of every later
    n x n eigendecomposition. A computation that raises is not kept.
    """

    def __init__(self, x: Matrix):
        self.x = x
        self._memo = {}

    def _memoized(self, key, compute):
        if key not in self._memo:
            self._memo[key] = compute()
        return self._memo[key]

    def _svd(self) -> tuple[np.ndarray, Matrix]:
        """Singular values and sign-fixed right singular vectors of the centered features."""

        def compute():
            _, s, vt = svd(center_columns(self.x))
            return s, _fix_signs(vt)

        return self._memoized("svd", compute)

    def pca(self, r: int) -> Matrix:
        """Top-r PCA projection of the centered features."""
        n, d = self.x.shape
        if not 1 <= r <= min(n - 1, d):
            raise InvalidInput(f"r must be in [1, min(rows-1, cols)] = [1, {min(n - 1, d)}]")
        return center_columns(self.x) @ self._svd()[1][:r].T

    def truncated(self, eta: float) -> Matrix:
        """SVCCA truncation: the projection on the top singular directions
        that explain >= eta of the variance (U S of the thin SVD, up to signs)."""
        s, vt = self._svd()
        energy = s * s
        total = energy.sum()
        if total <= 0:
            raise DegenerateInput("zero-variance view")
        keep = min(int(np.searchsorted(np.cumsum(energy) / total, eta) + 1), len(s))
        return center_columns(self.x) @ vt[:keep].T

    def kpca(self, r: int, gamma: float | None) -> Matrix:
        return self._memoized(("kpca", r, gamma), lambda: kpca_reduce(self.x, r, gamma))

    def knn(self, k: int, similarity: str) -> np.ndarray:
        """n x k kNN index sets (see _knn_indices) under the given similarity."""
        n = self.x.shape[0]
        if not 1 <= k <= n - 1:
            raise InvalidInput(f"k must be in [1, n-1], got k={k}, n={n}")

        return self._memoized(
            ("knn", k, similarity), lambda: _knn_indices(_similarity_features(self.x, similarity), k)
        )


@dataclass
class MetricConfig:
    """Defaults for the three-setting alignment report."""

    pca_r: int = 50
    svcca_eta: float = 0.99
    svcca_k: int = 10
    knn_k: int = 10
    kernel: str = "linear"
    rbf_gamma: float | None = None
    knn_similarity: str = "inner"

    def __post_init__(self):
        # bounds that hold at every n; those that depend on n (k <= n-1) stay per cell
        check_fields(self, [
            ("kernel", self.kernel in KERNEL_KINDS, f"one of {KERNEL_KINDS}"),
            ("knn_similarity", self.knn_similarity in SIMILARITY_KINDS, f"one of {SIMILARITY_KINDS}"),
            ("pca_r", self.pca_r >= 1, ">= 1"),
            ("knn_k", self.knn_k >= 1, ">= 1"),
            ("svcca_k", self.svcca_k >= 1, ">= 1"),
            ("svcca_eta", 0 < self.svcca_eta <= 1, "in (0, 1]"),
            ("rbf_gamma", self.rbf_gamma is None or self.rbf_gamma > 0, "> 0 or unset"),
        ])


METRIC_NAMES = ("cca_linear", "cca_kernel", "cka", "svcca", "cknna")

SETTING_MATCH = "match"
SETTING_EASY = "easy_nonmatch"
SETTING_HARD = "hard_nonmatch"


@dataclass
class AlignmentReport:
    """Metric grid over the match / easy non-match / hard non-match settings.

    ``errors[setting][metric]`` holds the message of each cell that failed in
    a tolerant report; only settings with a failed cell appear.
    """

    scores: dict
    config: dict
    errors: dict = field(default_factory=dict)


def _metric_cell(name: str, images: _View, texts: _View, cfg: MetricConfig) -> float:
    n = images.x.shape[0]
    if name == "cca_linear":
        r = min(cfg.pca_r, n - 1, images.x.shape[1], texts.x.shape[1])
        return float(cca(images.pca(r), texts.pca(r))[0])
    if name == "cca_kernel":
        r = min(cfg.pca_r, n - 1)
        return float(cca(images.kpca(r, cfg.rbf_gamma), texts.kpca(r, cfg.rbf_gamma))[0])
    if name == "cka":
        return _cka(images, texts, cfg.kernel, cfg.rbf_gamma)
    if name == "svcca":
        return _svcca(images, texts, cfg.svcca_eta, cfg.svcca_k)
    if name == "cknna":
        return _cknna(images, texts, cfg.knn_k, cfg.knn_similarity)
    raise InvalidInput(f"unknown metric {name!r}")


def alignment_report(
    v: Matrix,
    l_match: Matrix,
    l_easy: Matrix | None,
    l_hard: Matrix,
    cfg: MetricConfig | None = None,
    tolerant: bool = False,
) -> AlignmentReport:
    """Full metric grid; each setting pairs the same images with a text set.

    The images' derived quantities are computed once and shared by every
    setting (see the module docstring). Metric errors propagate; with
    ``tolerant`` a failing cell is left out of ``scores`` and its message
    recorded in ``errors`` instead. Pass ``l_easy=None`` to skip that setting.
    """
    cfg = cfg or MetricConfig()
    images = _View(as_matrix(v, "v"))
    settings = {SETTING_MATCH: l_match, SETTING_HARD: l_hard}
    if l_easy is not None:
        settings[SETTING_EASY] = l_easy
    scores, errors = {}, {}
    for setting, l in settings.items():
        lm = as_matrix(l, setting)
        if lm.shape[0] != images.x.shape[0]:
            raise InvalidInput(f"{setting}: row count differs from images")
        texts = _View(lm)
        scores[setting] = {}
        for name in METRIC_NAMES:
            try:
                scores[setting][name] = _metric_cell(name, images, texts, cfg)
            except (InvalidInput, DegenerateInput) as exc:
                if not tolerant:
                    raise
                errors.setdefault(setting, {})[name] = str(exc)
    return AlignmentReport(scores=scores, config=asdict(cfg), errors=errors)
