"""Alignment objectives over paired latent batches.

A batch carries image latents Zv (n x d), positive-text latents Zlp (n x d)
and, for negcon and spread, hard-negative-text latents Zln (n x d). The text
pool is laid out as [positives, hard negatives], so anchor i's positive is
column i and its hard negative column n + i. Similarities are
temperature-scaled cosines; every softmax-style ratio is evaluated in log
space with max subtraction, so values stay finite for any scale <= 100.

Every objective is half the sum of two InfoNCE terms (van den Oord et al.,
2018), and every InfoNCE term is one call of ``_nce(s, pick, drop, weight)``:
each row of a logit block scores its ``pick`` column against the row less
at most one ``drop`` column. The text->image term (``lv``) is the same for
all three: each positive text against the batch's images. The image->text
term differs:

con         each image against the n positives; the positive is dropped
            from the denominator by default (printed form), and
            ``include_positive_in_denominator`` keeps it (the standard
            variant).
negcon      the same against the 2n-text pool; leading 1/(2n) weight.
spread      (1-alpha) * ConCon + alpha * contextNCE. ConCon pulls the
            anchor toward its two similar-context texts: it picks the
            positive and drops the hard negative, then the reverse.
            contextNCE sharpens the positive against the hard negative: it
            picks the positive in the n x 2 block [positive, hard negative].

``alignment_grads`` returns an objective's value, its named parts and
exact gradients w.r.t. all latent inputs and the learnable log scale. Its
settings come in two configs: the `LossConfig` names the objective, alpha
and the denominator variant, and the `SimilarityConfig` the temperature
and scale mode; both check their values when built.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateInput, InvalidInput, check_fields
from .numkit import Matrix, as_matrix

OBJECTIVES = ("con", "negcon", "spread")


# A learnable log scale is clamped to [0, LOG_SCALE_MAX] after each step, as
# in CLIP (Radford et al., 2021): the scale stays at or under 100.
LOG_SCALE_MAX = math.log(100.0)


@dataclass
class SimilarityConfig:
    """Temperature / logit-scale settings for cosine similarities.

    A fixed scale is 1/tau; a learnable one starts at log(1/tau) and is
    trained as a log."""

    tau: float = 0.07
    logit_scale_mode: str = "learnable"  # "fixed" | "learnable"

    def __post_init__(self):
        check_fields(self, [
            ("tau", 0 < self.tau < math.inf, "finite and > 0"),  # a learnable scale starts at log(1/tau)
            ("logit_scale_mode", self.logit_scale_mode in ("fixed", "learnable"), "'fixed' or 'learnable'"),
        ])

    def scale(self, log_scale: float | None = None) -> float:
        """Effective similarity multiplier for the current parameters."""
        if self.logit_scale_mode == "fixed":
            return 1.0 / self.tau
        ls = math.log(1.0 / self.tau) if log_scale is None else float(log_scale)
        return math.exp(ls)


@dataclass
class LossConfig:
    """Objective selection, spread's alpha and the lambda schedule."""

    objective: str = "spread"
    alpha: float = 0.5
    lambda_start: float = 1.0
    lambda_end: float = 0.1
    include_positive_in_denominator: bool = False

    def __post_init__(self):
        check_fields(self, [
            ("objective", self.objective in OBJECTIVES, f"one of {OBJECTIVES}"),
            ("alpha", 0.0 <= self.alpha <= 1.0, "in [0, 1]"),
            ("lambda_end", self.lambda_end >= 0.0, ">= 0"),
            ("lambda_start", self.lambda_start >= self.lambda_end, ">= lambda_end"),
        ])


def _normalize_rows(z: Matrix, name: str):
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInput(f"{name} has zero-norm rows")
    return z / norms, norms


def _normalize_backward(du, u, norms):
    inner = np.sum(du * u, axis=1, keepdims=True)
    return (du - u * inner) / norms


def _nce(s, pick, drop, weight):
    """Term k is weight * (LSE of row k of ``s`` less column ``drop[k]`` -
    s[k, pick[k]]); returns the terms and dS. ``drop=None`` keeps every
    column, and the pick may be the dropped column (printed form). dS is made
    in place in one C-ordered copy of ``s``: a view's default copy keeps its
    order, and a row sum in another order moves the bits."""
    rows = np.arange(s.shape[0])
    ds = np.array(s, order="C")
    picked = ds[rows, pick]
    if drop is not None:
        ds[rows, drop] = -np.inf
    mx = ds.max(axis=1, keepdims=True)
    ds -= mx
    np.exp(ds, out=ds)
    denom = ds.sum(axis=1, keepdims=True)
    terms = weight * ((mx + np.log(denom)).ravel() - picked)
    ds /= denom
    ds *= weight
    ds[rows, pick] -= weight
    return terms, ds


class _LogitGraph:
    """Cosine-logit block with a backward pass to latent/log-scale grads."""

    def __init__(self, zv, z_texts, sim_cfg, log_scale):
        if zv.shape[1] != z_texts.shape[1]:
            raise InvalidInput("latent dims differ")
        self.uv, self.nv = _normalize_rows(zv, "zv")
        self.ut, self.nt = _normalize_rows(z_texts, "texts")
        self.learnable = sim_cfg.logit_scale_mode == "learnable"
        self.scale = sim_cfg.scale(log_scale)
        self.s = self.scale * (self.uv @ self.ut.T)

    def backward(self, ds):
        duv = self.scale * (ds @ self.ut)
        dut = self.scale * (ds.T @ self.uv)
        dzv = _normalize_backward(duv, self.uv, self.nv)
        dzt = _normalize_backward(dut, self.ut, self.nt)
        # d loss / d log_scale = sum(dS * S) since S is linear in scale = e^ls
        dls = float(np.sum(ds * self.s)) if self.learnable else 0.0
        return dzv, dzt, dls


def mse_recon(x, xhat) -> float:
    xm = np.asarray(x, dtype=np.float64)
    xh = np.asarray(xhat, dtype=np.float64)
    if xm.shape != xh.shape:
        raise InvalidInput(f"shape mismatch: {xm.shape} vs {xh.shape}")
    d = xh - xm
    return float(np.mean(d * d))


def lambda_schedule(epoch: float, total_epochs: float, cfg: LossConfig) -> float:
    """Linear decay of the reconstruction weight from lambda_start to lambda_end."""
    if total_epochs <= 0:
        return cfg.lambda_start
    frac = epoch / total_epochs
    return cfg.lambda_start + (cfg.lambda_end - cfg.lambda_start) * frac


# ---------------------------------------------------------------------------
# gradients for the trainer
# ---------------------------------------------------------------------------


def alignment_grads(zv, zlp, zln, loss_cfg: LossConfig, sim_cfg: SimilarityConfig, log_scale: float | None = None):
    """Value and exact gradients of ``loss_cfg``'s alignment objective.

    ``loss_cfg`` gives the objective, spread's alpha and whether the
    positive stays in the denominator. Returns (value, d_zv, d_zlp, d_zln,
    d_log_scale, parts); d_zln is zero for the plain contrastive objective,
    which never consumes hard negatives and accepts ``zln=None``.
    """
    objective, alpha = loss_cfg.objective, loss_cfg.alpha
    zv = as_matrix(zv, "zv")
    zlp = as_matrix(zlp, "zlp")
    n = zv.shape[0]
    if n < 2:
        raise InvalidInput("contrastive loss needs a batch of at least 2 pairs")
    if zlp.shape[0] != n:
        raise InvalidInput(f"zlp has {zlp.shape[0]} rows for {n} image latents")
    if objective == "con":  # never reads zln
        texts = zlp
    else:
        zln = as_matrix(zln, "zln")
        if zln.shape != zlp.shape:
            raise InvalidInput(f"zln shape {zln.shape} differs from zlp shape {zlp.shape}")
        texts = np.concatenate([zlp, zln])
    g = _LogitGraph(zv, texts, sim_cfg, log_scale)

    idx = np.arange(n)
    drop = None if loss_cfg.include_positive_in_denominator else idx  # printed form: drop the positive
    if objective != "spread":  # each image against the whole pool, 1/(pool size)
        terms, ds_vl = _nce(g.s, idx, drop, 1.0 / g.s.shape[1])
        vl = float(np.sum(terms))
        parts = {"vl": vl}
    else:
        # ConCon: pick one member of each context {i, n + i}, drop the other
        pos_terms, ds_vl = _nce(g.s, idx, n + idx, 1.0 / (2 * n))
        neg_terms, ds_neg = _nce(g.s, n + idx, idx, 1.0 / (2 * n))
        ds_vl += ds_neg
        del ds_neg
        concon = float(np.sum(np.concatenate([pos_terms, neg_terms])))
        # contextNCE: the positive against the hard negative, nothing else
        ctx_terms, ds_ctx = _nce(np.stack([g.s[idx, idx], g.s[idx, n + idx]], axis=1),
                                 np.zeros(n, dtype=np.intp), None, 1.0 / n)
        ctx = float(np.sum(ctx_terms))
        vl = (1.0 - alpha) * concon + alpha * ctx  # both finite: the bare component at alpha 0 or 1
        ds_vl *= 1.0 - alpha
        ds_vl[idx, idx] += alpha * ds_ctx[:, 0]
        ds_vl[idx, n + idx] += alpha * ds_ctx[:, 1]
        parts = {"concon": concon, "contextnce": ctx, "spread_vl": vl}
    # the shared text->image term comes last, so its n x n gradient is not
    # held while the image->text term's larger temporaries are
    lv_terms, ds_lv = _nce(g.s[:, :n].T, idx, drop, 1.0 / n)
    lv = float(np.sum(lv_terms))
    parts["lv"] = lv

    value = 0.5 * (vl + lv)
    ds_vl *= 0.5
    ds_vl[:, :n] += 0.5 * ds_lv.T
    d_zv, d_texts, dls = g.backward(ds_vl)
    d_zln = np.zeros_like(zlp if zln is None else np.asarray(zln)) if objective == "con" else d_texts[n:]
    return value, d_zv, d_texts[:n], d_zln, dls, parts
