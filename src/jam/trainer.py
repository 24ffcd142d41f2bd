"""Joint training loop for the paired autoencoders.

One run: shuffle the nested pairs each epoch (seeded), then per batch run
`train_step`, the one joint step (forward both autoencoders, combine
lambda(t)-weighted reconstruction with the selected alignment objective,
backprop), clip the global gradient norm at 1.0 and take a joint AdamW step
under a cosine learning-rate schedule. Binary image-to-text Recall@1 on the
validation split is computed every ``validate_every`` epochs; training stops
early after ``patience`` consecutive non-improving validations and always
returns the parameters of the best recorded validation.

The language autoencoder reconstructs positive and hard-negative texts in
every objective (hard negatives must be encodable at evaluation time);
gradients from the alignment loss reach it through both text passes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import losses
from .embed_io import PairedDataset, split_dataset
from .errors import InvalidInput, NonFiniteLoss
from .evalkit import RetrievalResult, recall_binary, recall_5way
from .losses import LossConfig, SimilarityConfig
from .nnet import (
    AdamW,
    Autoencoder,
    AutoencoderConfig,
    clip_grad_norm,
    cosine_lr,
    load_checkpoint,
    save_checkpoint,
)
from .numkit import RngStream


@dataclass
class TrainConfig:
    ae_cfg_vision: AutoencoderConfig
    ae_cfg_language: AutoencoderConfig
    epochs: int = 100
    batch_size: int = 32
    seeds: tuple = (5, 42, 55)
    lr0: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.01
    validate_every: int = 5
    patience: int = 5
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    sim_cfg: SimilarityConfig = field(default_factory=SimilarityConfig)

    def __post_init__(self):
        if self.batch_size < 2:
            raise InvalidInput("batch_size must be >= 2 (contrastive denominators)")
        if self.epochs < 0:
            raise InvalidInput("epochs must be >= 0")
        if self.validate_every < 1:
            raise InvalidInput("validate_every must be >= 1")
        if self.epochs and self.epochs < self.validate_every:
            raise InvalidInput("epochs must be >= validate_every (or 0)")
        if self.ae_cfg_vision.latent_dim != self.ae_cfg_language.latent_dim:
            raise InvalidInput("both autoencoders must share the latent dim")

    def to_dict(self) -> dict:
        return {
            "ae_cfg_vision": self.ae_cfg_vision.to_dict(),
            "ae_cfg_language": self.ae_cfg_language.to_dict(),
            "epochs": self.epochs,
            "batch_size": self.batch_size,
            "seeds": list(self.seeds),
            "lr0": self.lr0,
            "lr_min": self.lr_min,
            "weight_decay": self.weight_decay,
            "validate_every": self.validate_every,
            "patience": self.patience,
            "loss_cfg": self.loss_cfg.to_dict(),
            "sim_cfg": self.sim_cfg.to_dict(),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        d = dict(d)
        d["ae_cfg_vision"] = AutoencoderConfig.from_dict(d["ae_cfg_vision"])
        d["ae_cfg_language"] = AutoencoderConfig.from_dict(d["ae_cfg_language"])
        d["loss_cfg"] = LossConfig.from_dict(d["loss_cfg"])
        d["sim_cfg"] = SimilarityConfig.from_dict(d["sim_cfg"])
        d["seeds"] = tuple(d.get("seeds", (5, 42, 55)))
        return cls(**d)


@dataclass
class TrainHistory:
    epochs: list = field(default_factory=list)
    validations: list = field(default_factory=list)
    best_score: float | None = None
    best_epoch: int | None = None
    stop_epoch: int = 0
    stop_reason: str = "completed"
    seed: int = 0

    def to_dict(self) -> dict:
        return {
            "epochs": self.epochs,
            "validations": self.validations,
            "best_score": self.best_score,
            "best_epoch": self.best_epoch,
            "stop_epoch": self.stop_epoch,
            "stop_reason": self.stop_reason,
            "seed": self.seed,
        }


class EarlyStopping:
    """Stop after ``patience`` consecutive validations without improvement.

    Improvement means beating the best score by at least ``min_delta``.
    """

    def __init__(self, patience: int, min_delta: float = 1e-6):
        self.patience = patience
        self.min_delta = min_delta
        self.best = None
        self.streak = 0

    def update(self, score: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop)."""
        if self.best is None or score - self.best >= self.min_delta:
            self.best = score
            self.streak = 0
            return True, False
        self.streak += 1
        return False, self.streak >= self.patience


@dataclass
class TrainedJAM:
    """Frozen pair of trained autoencoders plus similarity state."""

    vision_ae: Autoencoder
    language_ae: Autoencoder
    sim_cfg: SimilarityConfig
    log_scale: float | None
    loss_cfg: LossConfig

    def encode_vision(self, x):
        return self.vision_ae.encode(x)

    def encode_language(self, x):
        return self.language_ae.encode(x)

    def scale(self) -> float:
        return self.sim_cfg.scale(self.log_scale)


def _joint_params(vision: Autoencoder, language: Autoencoder, log_scale_array=None) -> dict:
    """Every trained parameter by name: ``v.*`` (vision), ``l.*`` (language),
    then ``logit_scale`` when its one-element array is given. The values are
    the live arrays, not copies."""
    params = {f"v.{name}": arr for name, arr in vision.parameters().items()}
    params.update((f"l.{name}", arr) for name, arr in language.parameters().items())
    if log_scale_array is not None:
        params["logit_scale"] = log_scale_array
    return params


def validate(model: TrainedJAM, ds: PairedDataset) -> float:
    """Binary image-to-text Recall@1 on eval-mode latents."""
    zv = model.encode_vision(ds.images)
    zlp = model.encode_language(ds.positives)
    zln = model.encode_language(ds.negatives)
    return recall_binary(zv, zlp, zln)


def evaluate(model: TrainedJAM, ds: PairedDataset, seed: int) -> RetrievalResult:
    """Binary and 5-way retrieval on eval-mode latents, seeded distractors."""
    zv = model.encode_vision(ds.images)
    zlp = model.encode_language(ds.positives)
    zln = model.encode_language(ds.negatives)
    return RetrievalResult(
        recall_binary=recall_binary(zv, zlp, zln),
        recall_5way=recall_5way(zv, zlp, zln, RngStream(seed)),
        n_queries=ds.n,
        seed=seed,
    )


def train_step(vision, language, xv, xlp, xln, lam, alpha, log_scale, cfg: TrainConfig, rng):
    """Objective and gradients of one joint step on one batch.

    Forwards images, positive texts and hard-negative texts in train mode (in
    that order, drawing dropout from ``rng``), adds the lambda-weighted
    reconstruction of both autoencoders to the alignment objective and
    backpropagates through both. Returns (total, grads, parts): ``grads`` is
    named like `_joint_params` (``v.*``, ``l.*``, then ``logit_scale`` when the
    scale is learnable), or None, with no backward run, when ``total`` is not
    finite; ``parts`` is `losses.alignment_grads`' parts plus ``recon_v``,
    ``recon_l``, ``align`` and ``total``.
    """
    zv, xhat_v, tape_v = vision.forward(xv, "train", rng)
    zlp, xhat_lp, tape_lp = language.forward(xlp, "train", rng)
    zln, xhat_ln, tape_ln = language.forward(xln, "train", rng)

    recon_v = losses.mse_recon(xv, xhat_v)
    x_l = np.concatenate([xlp, xln])
    recon_l = losses.mse_recon(x_l, np.concatenate([xhat_lp, xhat_ln]))
    align, d_zv, d_zlp, d_zln, d_ls, parts = losses.alignment_grads(
        cfg.loss_cfg.objective, zv, zlp, zln, alpha=alpha, sim_cfg=cfg.sim_cfg,
        log_scale=log_scale, include_positive=cfg.loss_cfg.include_positive_in_denominator,
    )
    total = lam * (recon_v + recon_l) + align
    parts.update(recon_v=recon_v, recon_l=recon_l, align=align, total=total)
    if not math.isfinite(total):
        return total, None, parts

    d_xhat_v = lam * 2.0 * (xhat_v - xv) / xv.size
    scale_l = lam * 2.0 / x_l.size
    d_xhat_lp = scale_l * (xhat_lp - xlp)
    d_xhat_ln = scale_l * (xhat_ln - xln)

    grads_v, _ = vision.backward(tape_v, d_zv, d_xhat_v)
    grads_lp, _ = language.backward(tape_lp, d_zlp, d_xhat_lp)
    grads_ln, _ = language.backward(tape_ln, d_zln, d_xhat_ln)

    grads = {f"v.{k}": g for k, g in grads_v.items()}
    for k in grads_lp:
        grads[f"l.{k}"] = grads_lp[k] + grads_ln[k]
    if cfg.sim_cfg.logit_scale_mode == "learnable":
        grads["logit_scale"] = np.array([d_ls])
    return total, grads, parts


def train(train_ds: PairedDataset, val_ds: PairedDataset, cfg: TrainConfig, seed: int | None = None):
    """Run one seeded training job; returns (TrainedJAM, TrainHistory).

    Raises NonFiniteLoss (carrying partial history and the last-good model)
    if the objective stops being finite.
    """
    seed = cfg.seeds[0] if seed is None else int(seed)
    if train_ds.images.shape[1] != cfg.ae_cfg_vision.input_dim:
        raise InvalidInput("train images dim does not match the vision autoencoder")
    if train_ds.positives.shape[1] != cfg.ae_cfg_language.input_dim:
        raise InvalidInput("train texts dim does not match the language autoencoder")

    root = RngStream(seed)
    rng_init_v = root.fork()
    rng_init_l = root.fork()
    rng_shuffle = root.fork()
    rng_dropout = root.fork()

    vision = Autoencoder(cfg.ae_cfg_vision, rng_init_v)
    language = Autoencoder(cfg.ae_cfg_language, rng_init_l)
    learnable = cfg.sim_cfg.logit_scale_mode == "learnable"
    params = _joint_params(
        vision, language, np.array([cfg.sim_cfg.logit_scale_init]) if learnable else None
    )
    opt = AdamW(
        params,
        lr=cfg.lr0,
        weight_decay=cfg.weight_decay,
        no_decay={"logit_scale"},
    )

    def current_log_scale():
        return float(params["logit_scale"][0]) if learnable else None

    def snapshot():
        return {name: arr.copy() for name, arr in params.items()}

    def restore(snap):
        for name, arr in params.items():
            arr[...] = snap[name]
        model.log_scale = current_log_scale()
        return model

    model = TrainedJAM(vision, language, cfg.sim_cfg, current_log_scale(), cfg.loss_cfg)
    history = TrainHistory(seed=seed)
    init_snap = snapshot()
    best_snap = None
    stopper = EarlyStopping(cfg.patience)
    horizon = max(cfg.epochs - 1, 0)  # last scheduled epoch hits the endpoints
    n = train_ds.n
    stop_epoch = 0
    stop_reason = "completed"

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, horizon, cfg.lr0, cfg.lr_min)
        lam = losses.lambda_schedule(epoch, horizon, cfg.loss_cfg)
        alpha = losses.alpha_at(cfg.loss_cfg, epoch, horizon)
        perm = rng_shuffle.permutation(n)
        sums = {"recon_v": 0.0, "recon_l": 0.0, "align": 0.0, "total": 0.0}
        n_batches = 0
        aborted = False

        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if len(idx) < 2:
                continue  # a 1-row tail cannot form a contrastive denominator
            _, grads, parts = train_step(
                vision, language, train_ds.images[idx], train_ds.positives[idx],
                train_ds.negatives[idx], lam, alpha, current_log_scale(), cfg, rng_dropout,
            )
            if grads is None:
                aborted = True
                break

            clip_grad_norm(grads, 1.0)
            opt.step(grads, lr=lr)
            if learnable:
                np.clip(
                    params["logit_scale"], 0.0, cfg.sim_cfg.logit_scale_max,
                    out=params["logit_scale"],
                )

            for key in sums:
                sums[key] += parts[key]
            n_batches += 1

        if aborted:
            history.stop_epoch = epoch
            history.stop_reason = "aborted_nonfinite"
            salvage = restore(best_snap if best_snap is not None else init_snap)
            raise NonFiniteLoss(
                f"non-finite loss at epoch {epoch}", history=history, model=salvage
            )

        denom = max(n_batches, 1)
        history.epochs.append(
            {
                "epoch": epoch,
                "recon_v": sums["recon_v"] / denom,
                "recon_l": sums["recon_l"] / denom,
                "align": sums["align"] / denom,
                "total": sums["total"] / denom,
                "lambda": lam,
                "alpha": alpha,
                "lr": lr,
                "logit_scale": cfg.sim_cfg.scale(current_log_scale()),
            }
        )
        stop_epoch = epoch + 1

        if (epoch + 1) % cfg.validate_every == 0:
            model.log_scale = current_log_scale()
            score = validate(model, val_ds)
            history.validations.append({"epoch": epoch + 1, "recall_binary": score})
            improved, should_stop = stopper.update(score)
            if improved:
                history.best_score = score
                history.best_epoch = epoch + 1
                best_snap = snapshot()
            if should_stop:
                stop_reason = "early_stopped"
                break

    history.stop_epoch = stop_epoch
    history.stop_reason = stop_reason
    model.log_scale = current_log_scale()
    if best_snap is not None:
        restore(best_snap)
    return model, history


@dataclass
class SweepEntry:
    alpha: float
    best_val_recall: float
    stop_epoch: int
    stop_reason: str

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "best_val_recall": self.best_val_recall,
            "stop_epoch": self.stop_epoch,
            "stop_reason": self.stop_reason,
        }


@dataclass
class SweepReport:
    entries: list
    best_alpha: float

    def to_dict(self) -> dict:
        return {
            "entries": [e.to_dict() for e in self.entries],
            "best_alpha": self.best_alpha,
        }


def sweep_alpha(train_ds, val_ds, cfg: TrainConfig, alphas, seed: int | None = None) -> SweepReport:
    """One full spread-loss run per alpha (same seed); report the best."""
    alphas = list(alphas)
    if not alphas:
        raise InvalidInput("alpha sweep needs at least one value")
    entries = []
    for alpha in alphas:
        run_cfg = replace(
            cfg,
            loss_cfg=replace(cfg.loss_cfg, objective="spread", alpha=float(alpha), alpha_schedule=None),
        )
        model, history = train(train_ds, val_ds, run_cfg, seed=seed)
        score = history.best_score
        if score is None:
            score = validate(model, val_ds)
        entries.append(
            SweepEntry(
                alpha=float(alpha),
                best_val_recall=float(score),
                stop_epoch=history.stop_epoch,
                stop_reason=history.stop_reason,
            )
        )
    best = max(entries, key=lambda e: e.best_val_recall)
    return SweepReport(entries=entries, best_alpha=best.alpha)


def train_on_split(full_ds: PairedDataset, cfg: TrainConfig, seed: int, ratios=(0.70, 0.15, 0.15)):
    """Split with the data seed, train, and evaluate on the held-out test rows.

    Returns (model, history, test_result, (train_ds, val_ds, test_ds)).
    """
    splits = split_dataset(full_ds, ratios=ratios, seed=seed)
    train_ds, val_ds, test_ds = splits
    model, history = train(train_ds, val_ds, cfg, seed=seed)
    result = evaluate(model, test_ds, seed=seed)
    return model, history, result, splits


def save_jam(path, model: TrainedJAM, cfg: TrainConfig, seed: int, extra_meta: dict | None = None):
    """Persist a trained model: parameters and config echo.

    The optimizer state is not written; checkpoints that hold it (``opt.*``
    tensors) still load, since ``load_jam`` reads only the parameters."""
    tensors = _joint_params(
        model.vision_ae,
        model.language_ae,
        None if model.log_scale is None else np.array([model.log_scale]),
    )
    meta = {
        "train_config": cfg.to_dict(),
        "seed": int(seed),
        "format_version": 1,
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, tensors, meta)


def load_jam(path):
    """Rebuild a TrainedJAM from a checkpoint; returns (model, meta)."""
    tensors, meta = load_checkpoint(path)
    cfg = TrainConfig.from_dict(meta["train_config"])
    vision = Autoencoder(cfg.ae_cfg_vision, RngStream(0))
    language = Autoencoder(cfg.ae_cfg_language, RngStream(0))
    for prefix, ae in (("v.", vision), ("l.", language)):
        ae.load_snapshot({k[2:]: v for k, v in tensors.items() if k.startswith(prefix)})
    log_scale = float(tensors["logit_scale"][0]) if "logit_scale" in tensors else None
    model = TrainedJAM(vision, language, cfg.sim_cfg, log_scale, cfg.loss_cfg)
    return model, meta
