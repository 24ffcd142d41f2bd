"""Retrieval evaluation: binary and 5-way image-to-text Recall@1.

Both settings rank candidate texts by cosine similarity against the query
image latent. Ties never count as success. The 5-way setting adds three
distinct other-sample positive captions as distractors, drawn without
replacement from a seeded stream.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .numkit import RngStream, unit_rows


@dataclass
class RetrievalResult:
    recall_binary: float
    recall_5way: float
    n_queries: int
    seed: int


def binary_hits(zv, zlp, zln) -> np.ndarray:
    """Per-query outcomes: True where the positive strictly beats its hard negative."""
    uv = unit_rows(zv)
    sp = np.sum(uv * unit_rows(zlp), axis=1)
    sn = np.sum(uv * unit_rows(zln), axis=1)
    return sp > sn


def recall_binary(zv, zlp, zln) -> float:
    """Fraction of queries whose positive strictly beats its hard negative."""
    return float(np.mean(binary_hits(zv, zlp, zln)))


def sample_distractors(n: int, rng: RngStream) -> np.ndarray:
    """For each query i, three distinct other-sample indices (j != i).

    One draw for all queries: pick k of row i is uniform in [0, n - 1 - k),
    then shifted past the indices row i has already taken (i itself and its
    earlier picks) in ascending order. That maps it onto the n - 1 - k
    indices still free, so each row is uniform over ordered triples of
    distinct non-self indices.
    """
    if n < 4:
        raise InvalidInput(f"distractors need n >= 4, got {n}")
    rows = np.column_stack([np.arange(n), rng.integers(np.arange(n - 1, n - 4, -1), (n, 3))])
    for k in range(1, 4):
        for taken in np.sort(rows[:, :k], axis=1).T:
            rows[:, k] += rows[:, k] >= taken
    return rows[:, 1:]


def recall_5way(zv, zlp, zln, rng: RngStream) -> float:
    """Positive vs {hard negative + three other positives}; strict argmax."""
    n = np.asarray(zv).shape[0]
    if n < 5:
        raise InvalidInput(f"5-way recall needs n >= 5, got {n}")
    uv = unit_rows(zv)
    up = unit_rows(zlp)
    un = unit_rows(zln)
    sp = np.sum(uv * up, axis=1)
    sn = np.sum(uv * un, axis=1)
    distractors = sample_distractors(n, rng)
    sd = np.einsum("ij,ikj->ik", uv, up[distractors])
    rivals = np.max(np.concatenate([sn[:, None], sd], axis=1), axis=1)
    return float(np.mean(sp > rivals))


def aggregate_seeds(results) -> dict:
    """Mean and population std of each recall metric across seed runs."""
    results = list(results)
    if not results:
        raise InvalidInput("need at least one result to aggregate")
    out = {"n_runs": len(results), "seeds": [r.seed for r in results]}
    for metric in ("recall_binary", "recall_5way"):
        values = np.array([getattr(r, metric) for r in results], dtype=np.float64)
        out[metric] = {"mean": float(values.mean()), "std": float(values.std())}
    return out
