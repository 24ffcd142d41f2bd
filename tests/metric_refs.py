"""Metric functions only the tests call, on top of ``jam.metrics``.

``hsic`` scores two given kernels; the report builds its kernels itself.
``pca_reduce`` runs the report's PCA projection on one matrix.
"""

from jam.errors import InvalidInput
from jam.metrics import _hsic_centered, _View, center_gram
from jam.numkit import as_matrix, check_symmetric


def hsic(k, l):
    """tr(Kc Lc) / (n-1)^2 over the centered kernels."""
    kk = check_symmetric(k, "kernel", 1e-10)
    ll = check_symmetric(l, "kernel", 1e-10)
    if kk.shape != ll.shape:
        raise InvalidInput(f"kernel sizes differ: {kk.shape} vs {ll.shape}")
    if kk.shape[0] < 2:
        raise InvalidInput("hsic needs at least 2 samples")
    return _hsic_centered(center_gram(kk), center_gram(ll))


def pca_reduce(x, r):
    """Project rows of x onto the top-r principal components of centered x."""
    return _View(as_matrix(x)).pca(r)
