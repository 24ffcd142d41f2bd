"""Alignment objectives over paired latent batches.

A batch carries image latents Zv (n x d), positive-text latents Zlp (n x d)
and optionally hard-negative-text latents Zln (n x d). Similarities are
temperature-scaled cosines; every softmax-style ratio is evaluated in log
space with max subtraction, so values stay finite for any scale <= 100.

Objectives
----------
con         symmetric image<->text InfoNCE over positives; the positive is
            excluded from the denominator by default (printed form), with
            ``include_positive`` switching to the standard variant.
negcon      image->text denominator extends over the 2N-element pool of
            positives plus hard negatives (excluding only the anchor's own
            positive); text->image is unchanged. Leading 1/(2N) weight.
spread      (1-alpha) * ConCon + alpha * contextNCE on the image->text side
            plus the standard text->image term, all halved.

ConCon pulls the anchor toward its two similar-context texts against the
rest of the batch; contextNCE sharpens the positive against the hard
negative inside that two-element context.

``alignment_grads`` returns an objective's value, its named parts and
exact gradients w.r.t. all latent inputs and the learnable log scale.
``loss_concon`` returns the ConCon value for arbitrary context sets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateInput, InvalidInput
from .numkit import Matrix, as_matrix

OBJECTIVES = ("con", "negcon", "spread")


@dataclass
class SimilarityConfig:
    """Temperature / logit-scale settings for cosine similarities."""

    tau: float = 0.07
    logit_scale_mode: str = "learnable"  # "fixed" | "learnable"
    logit_scale_init: float = math.log(1.0 / 0.07)
    logit_scale_max: float = math.log(100.0)

    def __post_init__(self):
        if self.tau <= 0:
            raise InvalidInput("tau must be > 0")
        if self.logit_scale_mode not in ("fixed", "learnable"):
            raise InvalidInput(f"bad logit_scale_mode {self.logit_scale_mode!r}")

    def scale(self, log_scale: float | None = None) -> float:
        """Effective similarity multiplier for the current parameters."""
        if self.logit_scale_mode == "fixed":
            return 1.0 / self.tau
        ls = self.logit_scale_init if log_scale is None else float(log_scale)
        return math.exp(ls)


@dataclass
class LossConfig:
    """Objective selection plus the alpha / lambda schedules."""

    objective: str = "spread"
    alpha: float = 0.5
    alpha_schedule: object = None  # None (fixed at alpha) | ("linear", start, end)
    lambda_start: float = 1.0
    lambda_end: float = 0.1
    include_positive_in_denominator: bool = False

    def __post_init__(self):
        if self.objective not in OBJECTIVES:
            raise InvalidInput(f"objective must be one of {OBJECTIVES}")
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidInput("alpha must be in [0, 1]")
        if self.alpha_schedule is not None:
            # a linear schedule lies between its endpoints, so checking them
            # bounds every epoch's alpha; a malformed spec raises ConfigError
            for frac in (0.0, 1.0):
                if not 0.0 <= alpha_schedule(self.alpha_schedule, frac, 1.0) <= 1.0:
                    raise InvalidInput("alpha schedule must stay in [0, 1]")
        if not self.lambda_start >= self.lambda_end >= 0.0:
            raise InvalidInput("need lambda_start >= lambda_end >= 0")


@dataclass
class ContextSets:
    """Per-anchor similar-context indices into the batch text pool.

    Row i of ``pairs`` holds the pool indices of the anchor's positive and
    hard-negative texts; the complement of those two slots is the anchor's
    dissimilar-context set.
    """

    pairs: np.ndarray  # (n, 2) int
    n_texts: int

    def __post_init__(self):
        p = np.asarray(self.pairs)
        if p.ndim != 2 or p.shape[1] != 2:
            raise InvalidInput("pairs must have shape (n, 2)")
        if p.min(initial=0) < 0 or (p.size and p.max() >= self.n_texts):
            raise InvalidInput("context index out of range")
        if np.any(p[:, 0] == p[:, 1]):
            raise InvalidInput("context members must be distinct")
        self.pairs = p.astype(np.int64)

    @classmethod
    def canonical(cls, n: int) -> "ContextSets":
        """Texts laid out as [positives(0..n-1), hard negatives(n..2n-1)]."""
        idx = np.arange(n, dtype=np.int64)
        return cls(pairs=np.stack([idx, n + idx], axis=1), n_texts=2 * n)


def _normalize_rows(z: Matrix, name: str):
    norms = np.linalg.norm(z, axis=1, keepdims=True)
    if np.any(norms == 0.0):
        raise DegenerateInput(f"{name} has zero-norm rows")
    return z / norms, norms


def _normalize_backward(du, u, norms):
    inner = np.sum(du * u, axis=1, keepdims=True)
    return (du - u * inner) / norms


def _masked_nce(s, row_idx, pos_idx, pool_mask, weights):
    """sum_k w_k * (LSE over the row's pool - picked logit); returns (loss, dS).

    Positives outside their own pool are legal (printed-form exclusion).
    """
    rows = s[row_idx]
    masked = np.where(pool_mask, rows, -np.inf)
    mx = masked.max(axis=1, keepdims=True)
    ex = np.exp(masked - mx)
    denom = ex.sum(axis=1, keepdims=True)
    lse = (mx + np.log(denom)).ravel()
    a = len(row_idx)
    picked = rows[np.arange(a), pos_idx]
    loss = float(np.sum(weights * (lse - picked)))
    d_rows = (ex / denom) * weights[:, None]
    d_rows[np.arange(a), pos_idx] -= weights
    ds = np.zeros_like(s)
    np.add.at(ds, row_idx, d_rows)
    return loss, ds


def _infonce_square(s, include_positive):
    """Image->text quadrant loss on a square logit matrix (diagonal pairs)."""
    n = s.shape[0]
    if n < 2:
        raise InvalidInput("contrastive loss needs a batch of at least 2 pairs")
    pool = np.ones((n, n), dtype=bool)
    if not include_positive:
        pool &= ~np.eye(n, dtype=bool)
    idx = np.arange(n)
    return _masked_nce(s, idx, idx, pool, np.full(n, 1.0 / n))


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


def _con_terms(graph, include_positive):
    vl, ds_vl = _infonce_square(graph.s, include_positive)
    lv, ds_lv = _infonce_square(graph.s.T, include_positive)
    return vl, lv, 0.5 * (ds_vl + ds_lv.T)


def _negcon_terms(graph, n, include_positive):
    s2 = graph.s  # (n, 2n)
    if n < 2:
        raise InvalidInput("contrastive loss needs a batch of at least 2 pairs")
    idx = np.arange(n)
    pool = np.ones((n, 2 * n), dtype=bool)
    if not include_positive:
        pool[idx, idx] = False
    vl, ds_vl = _masked_nce(s2, idx, idx, pool, np.full(n, 1.0 / (2 * n)))
    lv, ds_lv = _infonce_square(s2[:, :n].T, include_positive)
    ds = 0.5 * ds_vl
    ds[:, :n] += 0.5 * ds_lv.T
    return vl, lv, ds


def _concon_terms(s2, contexts):
    n = s2.shape[0]
    if contexts.n_texts != s2.shape[1]:
        raise InvalidInput("context pool size does not match text count")
    if contexts.pairs.shape[0] != n:
        raise InvalidInput("one context pair required per anchor")
    if contexts.n_texts - 2 < 1:
        raise InvalidInput("similar-context complement is empty (batch too small)")
    idx = np.arange(n)
    base = np.ones((n, contexts.n_texts), dtype=bool)
    base[idx[:, None], contexts.pairs] = False  # knock out C(i)
    terms = []
    for member in (0, 1):
        pool = base.copy()
        cols = contexts.pairs[:, member]
        pool[idx, cols] = True  # each term keeps its own context member
        terms.append((idx, cols, pool))
    row_idx = np.concatenate([t[0] for t in terms])
    pos_idx = np.concatenate([t[1] for t in terms])
    pool_mask = np.concatenate([t[2] for t in terms], axis=0)
    weights = np.full(2 * n, 1.0 / (2 * n))
    return _masked_nce(s2, row_idx, pos_idx, pool_mask, weights)


def _contextnce_terms(s2, contexts):
    n = s2.shape[0]
    idx = np.arange(n)
    pool = np.zeros((n, contexts.n_texts), dtype=bool)
    pool[idx[:, None], contexts.pairs] = True
    return _masked_nce(s2, idx, contexts.pairs[:, 0], pool, np.full(n, 1.0 / n))


def loss_concon(zv, zl_all, contexts=None, sim_cfg=None, log_scale=None) -> float:
    """ConCon of anchors ``zv`` over the text pool ``zl_all``; without
    ``contexts`` the pool is laid out as [positives, hard negatives]."""
    zv = as_matrix(zv, "zv")
    zl_all = as_matrix(zl_all, "zl_all")
    sim_cfg = sim_cfg or SimilarityConfig()
    if contexts is None:
        if zl_all.shape[0] != 2 * zv.shape[0]:
            raise InvalidInput("canonical contexts need a 2n-row text pool")
        contexts = ContextSets.canonical(zv.shape[0])
    g = _LogitGraph(zv, zl_all, sim_cfg, log_scale)
    return _concon_terms(g.s, contexts)[0]


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


def alpha_schedule(spec, epoch: float, total: float) -> float:
    """Resolve an alpha schedule spec at a given epoch.

    Accepts a bare number (constant), ("fixed", v), or ("linear", start, end).
    Sweeps are a trainer-level concern and rejected here.
    """
    if isinstance(spec, (int, float)):
        return float(spec)
    if isinstance(spec, (tuple, list)):
        if spec and spec[0] == "sweep":
            raise ConfigError("sweep schedules are resolved by the trainer")
        try:
            if len(spec) == 2 and spec[0] == "fixed":
                return float(spec[1])
            if len(spec) == 3 and spec[0] == "linear":
                start, end = float(spec[1]), float(spec[2])
                if total <= 0:
                    return start
                return start + (end - start) * (epoch / total)
        except (TypeError, ValueError):
            pass  # a non-numeric value is as malformed as a wrong shape
    raise ConfigError(f"malformed alpha schedule spec: {spec!r}")


def alpha_at(cfg: LossConfig, epoch: float, total: float) -> float:
    if cfg.alpha_schedule is None:
        return cfg.alpha
    return alpha_schedule(cfg.alpha_schedule, epoch, total)


# ---------------------------------------------------------------------------
# gradients for the trainer
# ---------------------------------------------------------------------------


def alignment_grads(
    objective: str,
    zv,
    zlp,
    zln,
    alpha: float,
    sim_cfg: SimilarityConfig,
    log_scale: float | None = None,
    include_positive: bool = False,
):
    """Value and exact gradients of the selected alignment objective.

    Returns (value, d_zv, d_zlp, d_zln, d_log_scale, parts); d_zln is zero for
    the plain contrastive objective, which never consumes hard negatives.
    ``alpha`` must lie in [0, 1] for every objective; only spread reads it.
    """
    if objective not in OBJECTIVES:
        raise InvalidInput(f"objective must be one of {OBJECTIVES}")
    if not 0.0 <= alpha <= 1.0:
        raise InvalidInput("alpha must be in [0, 1]")
    zv = as_matrix(zv, "zv")
    zlp = as_matrix(zlp, "zlp")
    n = zv.shape[0]
    parts = {}

    if objective == "con":
        g = _LogitGraph(zv, zlp, sim_cfg, log_scale)
        vl, lv, ds = _con_terms(g, include_positive)
        value = 0.5 * (vl + lv)
        d_zv, d_zlp, dls = g.backward(ds)
        d_zln = np.zeros_like(zlp) if zln is None else np.zeros_like(np.asarray(zln))
        parts.update(vl=vl, lv=lv)
        return value, d_zv, d_zlp, d_zln, dls, parts

    zln = as_matrix(zln, "zln")
    texts = np.concatenate([zlp, zln])
    g = _LogitGraph(zv, texts, sim_cfg, log_scale)

    if objective == "negcon":
        vl, lv, ds = _negcon_terms(g, n, include_positive)
        value = 0.5 * (vl + lv)
        parts.update(vl=vl, lv=lv)
    else:
        contexts = ContextSets.canonical(n)
        concon, ds_concon = _concon_terms(g.s, contexts)
        ctx, ds_ctx = _contextnce_terms(g.s, contexts)
        lv, ds_lv = _infonce_square(g.s[:, :n].T, include_positive)
        if alpha in (0.0, 1.0):  # exact endpoints: the bare component, bit for bit
            spread_vl = ctx if alpha else concon
        else:
            spread_vl = (1.0 - alpha) * concon + alpha * ctx
        value = 0.5 * (spread_vl + lv)
        ds = 0.5 * ((1.0 - alpha) * ds_concon + alpha * ds_ctx)
        ds[:, :n] += 0.5 * ds_lv.T
        parts.update(concon=concon, contextnce=ctx, spread_vl=spread_vl, lv=lv)

    d_zv, d_texts, dls = g.backward(ds)
    return value, d_zv, d_texts[:n], d_texts[n:], dls, parts
