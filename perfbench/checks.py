"""Correctness checks, computed apart from `jam` or from properties the
method must have, never from a stored copy of earlier output.

Each check returns a list of failure messages; an empty list is a pass.
"""

from __future__ import annotations

import math

import numpy as np

# Both sides are float64 sums over the same data in another order.
CKA_TOL = 1e-8
CKNNA_TOL = 1e-8
# The program adds a ridge of 1e-8 * mean(diag) to each covariance block.
CCA_TOL = 1e-6
# Recall recomputed with another dot-product order may flip an exact
# near-tie; allow one query in ten thousand.
RECALL_TOL = 1e-4

# Criterion-3 pattern at the report's k: easy non-matches near zero, hard
# non-matches high because they share the context coordinates.
EASY_MAX_SHARE = 0.25
HARD_MIN_SHARE = 0.5


def _center(m):
    return m - m.mean(axis=0)


def linear_cka_feature_space(x, y) -> float:
    """||Yc^T Xc||_F^2 / (||Xc^T Xc||_F ||Yc^T Yc||_F) (Kornblith et al., 2019)."""
    xc, yc = _center(x), _center(y)
    cross = np.linalg.norm(yc.T @ xc) ** 2
    return float(cross / (np.linalg.norm(xc.T @ xc) * np.linalg.norm(yc.T @ yc)))


def _knn(sim, k):
    s = sim.copy()
    np.fill_diagonal(s, -np.inf)
    idx = np.argpartition(-s, k - 1, axis=1)[:, :k]
    mask = np.zeros(s.shape, dtype=bool)
    np.put_along_axis(mask, idx, True, axis=1)
    return mask


def cknna_by_definition(v, l, k) -> float:
    """CKNNA as the `jam.metrics` docstring defines it, with inner-product kNN.

    Centered linear kernels Kc = Vc Vc^T and Lc = Lc Lc^T; the cross term sums
    Kc*Lc over mutual k-nearest-neighbour pairs, each normalisation term over
    its own view's kNN pairs, and the self-pair of row i enters each sum with
    weight |neighbours(i)| / (n - 1).
    """
    n = v.shape[0]
    nn_v, nn_l = _knn(v @ v.T, k), _knn(l @ l.T, k)
    vc, lc = _center(v), _center(l)
    kc, lk = vc @ vc.T, lc @ lc.T

    def masked(a, b, mask):
        off = np.sum(a * b * mask)
        self_pairs = np.sum(np.diag(a) * np.diag(b) * mask.sum(axis=1) / (n - 1))
        return off + self_pairs

    num = masked(kc, lk, nn_v & nn_l)
    return float(num / math.sqrt(masked(kc, kc, nn_v) * masked(lk, lk, nn_l)))


def first_cca_by_qr(x, y, r) -> float:
    """Top canonical correlation of the top-r PCA projections, via QR."""

    def pca(m):
        mc = _center(m)
        _, _, vt = np.linalg.svd(mc, full_matrices=False)
        return mc @ vt[:r].T

    qx, _ = np.linalg.qr(_center(pca(x)))
    qy, _ = np.linalg.qr(_center(pca(y)))
    return float(np.linalg.svd(qx.T @ qy, compute_uv=False)[0])


def check_report(views: dict, scores: dict, knn_k: int, pca_r: int) -> list:
    """`views` maps setting -> (images, texts); `scores` is the report grid."""
    failures = []
    for setting, (v, l) in views.items():
        cell = scores[setting]
        expected = {
            "cka": (linear_cka_feature_space(v, l), CKA_TOL),
            "cknna": (cknna_by_definition(v, l, knn_k), CKNNA_TOL),
            "cca_linear": (first_cca_by_qr(v, l, min(pca_r, v.shape[0] - 1, v.shape[1], l.shape[1])), CCA_TOL),
        }
        for metric, (value, tol) in expected.items():
            if not abs(cell[metric] - value) <= tol:
                failures.append(f"{setting} {metric}: report {cell[metric]!r}, recomputed {value!r} (tol {tol})")
    for metric in ("cka", "cknna"):
        match = scores["match"][metric]
        easy = scores["easy_nonmatch"][metric]
        hard = scores["hard_nonmatch"][metric]
        if not easy < EASY_MAX_SHARE * match:
            failures.append(f"{metric}: easy {easy!r} not below {EASY_MAX_SHARE} x match {match!r}")
        if not hard >= HARD_MIN_SHARE * match:
            failures.append(f"{metric}: hard {hard!r} below {HARD_MIN_SHARE} x match {match!r}")
    return failures


def check_training(epochs: list, expected_epochs: int, stop_reason: str) -> list:
    """Per-epoch records of one job: finite, decreasing overall, full length."""
    totals = [e["total"] for e in epochs]
    failures = []
    if len(totals) != expected_epochs or stop_reason != "completed":
        failures.append(f"job ran {len(totals)} of {expected_epochs} epochs ({stop_reason})")
    if not all(math.isfinite(t) for t in totals):
        failures.append(f"non-finite epoch loss in {totals}")
    elif not totals or not totals[-1] < totals[0]:
        failures.append(f"loss did not fall: {totals}")
    return failures


def check_identical(digests: list, what: str) -> list:
    if len(digests) < 2:
        return [f"{what}: needs two jobs with one seed, got {len(digests)}"]
    if len(set(digests)) != 1:
        return [f"{what}: same seed gave {len(set(digests))} different outputs"]
    return []


def check_distractors(d, n: int) -> list:
    d = np.asarray(d)
    if d.shape != (n, 3):
        return [f"distractors have shape {d.shape}, expected ({n}, 3)"]
    failures = []
    if d.min() < 0 or d.max() >= n:
        failures.append("distractor index out of range")
    if np.any(d == np.arange(n)[:, None]):
        failures.append("distractor equals its query")
    s = np.sort(d, axis=1)
    if np.any(s[:, 1:] == s[:, :-1]):
        failures.append("distractor row repeats an index")
    return failures


def recall_from_latents(zv, zlp, zln, distractors):
    """(binary, 5-way) Recall@1 by cosine, ties counting as failures."""

    def cos(a, b):
        return np.einsum("ij,ij->i", a, b) / (np.linalg.norm(a, axis=1) * np.linalg.norm(b, axis=1))

    sp, sn = cos(zv, zlp), cos(zv, zln)
    sd = [cos(zv, zlp[distractors[:, j]]) for j in range(3)]
    rival = np.maximum.reduce([sn, *sd])
    return float(np.mean(sp > sn)), float(np.mean(sp > rival))


def check_retrieval(latents, distractors, recall_binary, recall_5way, floor) -> list:
    """Reported recalls against a recomputation, a floor and their order."""
    failures = check_distractors(distractors, latents[0].shape[0])
    if failures:
        return failures
    binary, five = recall_from_latents(*latents, np.asarray(distractors))
    if not abs(binary - recall_binary) <= RECALL_TOL:
        failures.append(f"recall_binary {recall_binary!r}, recomputed {binary!r}")
    if not abs(five - recall_5way) <= RECALL_TOL:
        failures.append(f"recall_5way {recall_5way!r}, recomputed {five!r}")
    if not recall_binary >= floor:
        failures.append(f"recall_binary {recall_binary!r} below the floor {floor}")
    if not recall_5way <= recall_binary:
        failures.append(f"recall_5way {recall_5way!r} above recall_binary {recall_binary!r}")
    return failures


def check_bit_equal(a, b, what: str) -> list:
    a, b = np.asarray(a), np.asarray(b)
    if a.shape != b.shape or a.tobytes() != b.tobytes():
        return [f"{what}: not bit-identical"]
    return []
