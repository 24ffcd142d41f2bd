"""Joint training loop for the paired autoencoders.

One run: shuffle the nested pairs each epoch (seeded), then per batch run
`train_step`, the one joint step (forward both autoencoders, combine
lambda(t)-weighted reconstruction with the selected alignment objective,
backprop), clip the global gradient norm at 1.0 and take a joint AdamW step
under a cosine learning-rate schedule. Binary image-to-text Recall@1 on the
validation split is computed every ``validate_every`` epochs; training stops
early after ``patience`` consecutive non-improving validations and always
returns the parameters of the best recorded validation. Epoch records give
the mean and largest pre-clip gradient norm and the share of clipped steps.

Every trained parameter lives in one float64 vector, `TrainedJAM.params` (a
`nnet.FlatParams`), that the model owns: both autoencoders' layers hold its
views, bound by position in `Autoencoder.parameters` order, and the logit
scale is its last element. Its layout is the order backward writes gradients
in, so the gradient of a step is one plain vector of the same layout, filled
front to back by position, and clipping, AdamW and the best/initial
snapshots each work on one array.

The language autoencoder reconstructs positive and hard-negative texts in
every objective (hard negatives must be encodable at evaluation time);
gradients from the alignment loss reach it through both text passes.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

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
    FlatParams,
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
    seeds: tuple[int, ...] = (5, 42, 55)
    lr0: float = 1e-3
    lr_min: float = 1e-5
    weight_decay: float = 0.01
    validate_every: int = 5
    patience: int = 5
    loss_cfg: LossConfig = field(default_factory=LossConfig)
    sim_cfg: SimilarityConfig = field(default_factory=SimilarityConfig)

    def __post_init__(self):
        if not self.seeds:
            raise InvalidInput("seeds must name at least one seed")
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

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Rebuilds a config from its ``asdict`` form after a JSON round trip."""
        d = dict(d)
        for key in ("ae_cfg_vision", "ae_cfg_language"):
            d[key] = AutoencoderConfig(**d[key])
        d["loss_cfg"] = LossConfig(**d["loss_cfg"])
        d["sim_cfg"] = SimilarityConfig(**d["sim_cfg"])
        if "seeds" in d:
            d["seeds"] = tuple(d["seeds"])
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


class EarlyStopping:
    """Stop after ``patience`` consecutive validations without improvement.

    Improvement means beating the best score by at least ``MIN_DELTA``.
    """

    MIN_DELTA = 1e-6

    def __init__(self, patience: int):
        self.patience = patience
        self.best = None
        self.streak = 0

    def update(self, score: float) -> tuple[bool, bool]:
        """Returns (improved, should_stop)."""
        if self.best is None or score - self.best >= self.MIN_DELTA:
            self.best = score
            self.streak = 0
            return True, False
        self.streak += 1
        return False, self.streak >= self.patience


class TrainedJAM:
    """A pair of autoencoders trained jointly, plus similarity state.

    ``params`` holds every trained parameter in one `FlatParams`: ``v.*``
    (vision) and ``l.*`` (language), each in `Autoencoder.parameters` order,
    then ``logit_scale`` as a one-element array when ``log_scale`` is given.
    The autoencoders are bound to it: from here on their layers' parameters
    are the very views in ``params``, the vision ones at ``vision_span`` of
    its vector and the language ones at ``language_span``. A gradient vector
    has the same layout.
    """

    def __init__(self, vision_ae: Autoencoder, language_ae: Autoencoder, log_scale: float | None = None):
        self.vision_ae = vision_ae
        self.language_ae = language_ae
        vision, language = vision_ae.parameters(), language_ae.parameters()
        arrays = {f"v.{name}": arr for name, arr in vision.items()}
        arrays.update((f"l.{name}", arr) for name, arr in language.items())
        if log_scale is not None:
            arrays["logit_scale"] = np.array([log_scale])
        self.params = FlatParams(arrays)
        views = iter(self.params.values())
        vision_ae.bind(views)
        language_ae.bind(views)
        bounds = self.params.offsets.tolist()
        v_end, l_end = bounds[len(vision)], bounds[len(vision) + len(language)]
        self.vision_span, self.language_span = slice(0, v_end), slice(v_end, l_end)

    @property
    def log_scale(self) -> float | None:
        """The learned log logit scale, or None when the scale is fixed."""
        return float(self.params["logit_scale"][0]) if "logit_scale" in self.params else None

    def encode_vision(self, x):
        return self.vision_ae.encode(x)

    def encode_language(self, x):
        return self.language_ae.encode(x)


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


def train_step(model: TrainedJAM, xv, xlp, xln, lam, alpha, cfg: TrainConfig, rng, grad=None):
    """Objective and gradients of one joint step on one batch, at the
    model's current parameters.

    Forwards images, positive texts and hard-negative texts in train mode (in
    that order, drawing dropout from ``rng``), adds the lambda-weighted
    reconstruction of both autoencoders to the alignment objective and
    backpropagates through both. Returns (total, grad, parts): ``grad`` is
    the vector in ``model.params`` layout passed in, or a new one, now
    holding the gradient, or None, with no backward run, when ``total`` is
    not finite; ``parts`` is `losses.alignment_grads`' parts plus
    ``recon_v``, ``recon_l``, ``align`` and ``total``.
    """
    vision, language = model.vision_ae, model.language_ae
    zv, xhat_v, tape_v = vision.forward(xv, "train", rng)
    zlp, xhat_lp, tape_lp = language.forward(xlp, "train", rng)
    zln, xhat_ln, tape_ln = language.forward(xln, "train", rng)

    recon_v = losses.mse_recon(xv, xhat_v)
    x_l = np.concatenate([xlp, xln])
    recon_l = losses.mse_recon(x_l, np.concatenate([xhat_lp, xhat_ln]))
    align, d_zv, d_zlp, d_zln, d_ls, parts = losses.alignment_grads(
        cfg.loss_cfg.objective, zv, zlp, zln, alpha=alpha, sim_cfg=cfg.sim_cfg,
        log_scale=model.log_scale, include_positive=cfg.loss_cfg.include_positive_in_denominator,
    )
    total = lam * (recon_v + recon_l) + align
    parts.update(recon_v=recon_v, recon_l=recon_l, align=align, total=total)
    if not math.isfinite(total):
        return total, None, parts

    # `train` hands back the vector its first step made here, after the
    # forward passes: it lands above their activations in glibc's heap and
    # stays live there, so the free()s that end a step never leave a large
    # free top to trim, and each forward reuses mapped memory. Made before
    # the first forward, it sits below them instead; at batch 1024 glibc then
    # returned ~350 MB after every step and the next forward faulted it back
    # in (~25 K minor faults a step).
    if grad is None:
        grad = np.empty_like(model.params.vector)
    d_xhat_v = lam * 2.0 * (xhat_v - xv) / xv.size
    scale_l = lam * 2.0 / x_l.size
    d_xhat_lp = scale_l * (xhat_lp - xlp)
    d_xhat_ln = scale_l * (xhat_ln - xln)

    vision.backward(tape_v, d_zv, d_xhat_v, grad[model.vision_span])
    grad_l = grad[model.language_span]
    language.backward(tape_lp, d_zlp, d_xhat_lp, grad_l)
    grad_ln = np.empty_like(grad_l)
    language.backward(tape_ln, d_zln, d_xhat_ln, grad_ln)
    grad_l += grad_ln
    if "logit_scale" in model.params:
        grad[-1] = d_ls
    return total, grad, parts


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

    learnable = cfg.sim_cfg.logit_scale_mode == "learnable"
    model = TrainedJAM(
        Autoencoder(cfg.ae_cfg_vision, rng_init_v),
        Autoencoder(cfg.ae_cfg_language, rng_init_l),
        cfg.sim_cfg.logit_scale_init if learnable else None,
    )
    params = model.params
    opt = AdamW(
        params,
        lr=cfg.lr0,
        weight_decay=cfg.weight_decay,
        no_decay={"logit_scale"},
    )
    history = TrainHistory(seed=seed)
    init_snap = params.vector.copy()
    best_snap = None
    stopper = EarlyStopping(cfg.patience)
    horizon = max(cfg.epochs - 1, 0)  # last scheduled epoch hits the endpoints
    n = train_ds.n
    stop_epoch = 0
    stop_reason = "completed"
    grad = None  # the gradient vector, made by the first step

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, horizon, cfg.lr0, cfg.lr_min)
        lam = losses.lambda_schedule(epoch, horizon, cfg.loss_cfg)
        alpha = losses.alpha_at(cfg.loss_cfg, epoch, horizon)
        perm = rng_shuffle.permutation(n)
        sums = {"recon_v": 0.0, "recon_l": 0.0, "align": 0.0, "total": 0.0}
        norms = []  # pre-clip gradient norms
        aborted = False

        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if len(idx) < 2:
                continue  # a 1-row tail cannot form a contrastive denominator
            total, grad, parts = train_step(
                model, train_ds.images[idx], train_ds.positives[idx], train_ds.negatives[idx],
                lam, alpha, cfg, rng_dropout, grad,
            )
            if not math.isfinite(total):
                aborted = True
                break

            norms.append(clip_grad_norm(grad, 1.0, params.offsets))
            opt.step(grad, lr=lr)
            if learnable:
                np.clip(
                    params["logit_scale"], 0.0, cfg.sim_cfg.logit_scale_max,
                    out=params["logit_scale"],
                )

            for key in sums:
                sums[key] += parts[key]

        if aborted:
            history.stop_epoch = epoch
            history.stop_reason = "aborted_nonfinite"
            params.vector[...] = best_snap if best_snap is not None else init_snap
            raise NonFiniteLoss(
                f"non-finite loss at epoch {epoch}", history=history, model=model
            )

        denom = max(len(norms), 1)
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
                "logit_scale": cfg.sim_cfg.scale(model.log_scale),
                "grad_norm_mean": sum(norms) / denom,
                "grad_norm_max": max(norms, default=0.0),
                "clip_fraction": sum(norm > 1.0 for norm in norms) / denom,
            }
        )
        stop_epoch = epoch + 1

        if (epoch + 1) % cfg.validate_every == 0:
            score = validate(model, val_ds)
            history.validations.append({"epoch": epoch + 1, "recall_binary": score})
            improved, should_stop = stopper.update(score)
            if improved:
                history.best_score = score
                history.best_epoch = epoch + 1
                best_snap = params.vector.copy()
            if should_stop:
                stop_reason = "early_stopped"
                break

    history.stop_epoch = stop_epoch
    history.stop_reason = stop_reason
    if best_snap is not None:
        params.vector[...] = best_snap
    return model, history


@dataclass
class SweepEntry:
    alpha: float
    best_val_recall: float
    stop_epoch: int
    stop_reason: str


@dataclass
class SweepReport:
    entries: list
    best_alpha: float


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


def train_on_split(full_ds: PairedDataset, cfg: TrainConfig, seed: int):
    """Split 70/15/15 with the data seed, train, and evaluate on the test rows.

    Returns (model, history, test_result, (train_ds, val_ds, test_ds)).
    """
    splits = split_dataset(full_ds, seed=seed)
    train_ds, val_ds, test_ds = splits
    model, history = train(train_ds, val_ds, cfg, seed=seed)
    result = evaluate(model, test_ds, seed=seed)
    return model, history, result, splits


def save_jam(path, model: TrainedJAM, cfg: TrainConfig, seed: int, extra_meta: dict | None = None):
    """Persist a trained model: parameters and config echo.

    The optimizer state is not written; checkpoints that hold it (``opt.*``
    tensors) still load, since ``load_jam`` reads only the parameters."""
    meta = {
        "train_config": asdict(cfg),
        "seed": int(seed),
        "format_version": 1,
    }
    if extra_meta:
        meta.update(extra_meta)
    save_checkpoint(path, model.params, meta)


def load_jam(path):
    """Rebuild a TrainedJAM from a checkpoint; returns (model, meta).

    The metadata must hold an integer ``seed`` and a ``train_config`` object.
    The ``v.*`` and ``l.*`` tensors must be the model's, and ``logit_scale``
    is required exactly when the config's scale is learnable."""
    tensors, meta = load_checkpoint(path)
    if not (isinstance(meta, dict) and type(meta.get("seed")) is int
            and isinstance(meta.get("train_config"), dict)):
        raise InvalidInput(f"{path}: checkpoint metadata needs an integer seed and a train_config object")
    try:
        cfg = TrainConfig.from_dict(meta["train_config"])
    except (KeyError, TypeError) as exc:
        raise InvalidInput(f"{path}: checkpoint has no valid train_config ({exc!r})") from exc
    model = TrainedJAM(
        Autoencoder(cfg.ae_cfg_vision, RngStream(0)),
        Autoencoder(cfg.ae_cfg_language, RngStream(0)),
        0.0 if cfg.sim_cfg.logit_scale_mode == "learnable" else None,  # read in below
    )
    params = model.params
    if {k for k in tensors if k.startswith(("v.", "l.")) or k == "logit_scale"} != set(params):
        raise InvalidInput(f"{path}: checkpoint parameter names do not match the model "
                           f"with a {cfg.sim_cfg.logit_scale_mode} logit scale")
    for name, view in params.items():
        if tensors[name].shape != view.shape:
            raise InvalidInput(f"{path}: checkpoint shape mismatch for {name}")
        view[...] = tensors[name]
    return model, meta
