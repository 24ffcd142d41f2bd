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

A `TrainedJAM` is built from one `TrainConfig` and keeps it as ``cfg``:
its autoencoders, whether it holds a logit scale and where that starts, and
the objective, alpha and similarity settings `train_step` reads all come
from there, so a model and the settings of its steps cannot disagree.

Every trained parameter lives in one float64 vector, `TrainedJAM.params` (a
`nnet.FlatParams`), that the model owns: both autoencoders' layers hold its
views, bound by position in `Autoencoder.parameters` order, and a learnable
logit scale is its last element. Its layout is the order backward writes
gradients in, so the gradient of a step is one plain vector of the same
layout, filled front to back by position, and clipping, AdamW and the
best/initial snapshots each work on one array.

The language autoencoder reconstructs positive and hard-negative texts in
every objective (hard negatives must be encodable at evaluation time);
gradients from the alignment loss reach it through both text passes.

The two autoencoders meet only in the loss, so a step hands their passes to
`nnet.side_by_side`: the vision forward beside the two text passes, then the
vision backward beside the language one. The step's dropout is drawn before
any pass starts, on the calling thread and in pass order, so a step on one
thread or two computes the same bits.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field, replace

import numpy as np

from . import losses
from .embed_io import PairedDataset, split_dataset
from .errors import InvalidInput, NonFiniteLoss, UsageError, check_fields
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
    side_by_side,
)
from .numkit import RngStream


# Config keys that no caller could set, with the one value every checkpoint
# written before their removal holds. `TrainConfig.from_dict` drops them at
# that value and refuses any other: a run with another value cannot be rebuilt.
_RETIRED_KEYS = {
    "ae_cfg_vision": {"layernorm_eps": 1e-5},
    "ae_cfg_language": {"layernorm_eps": 1e-5},
    "loss_cfg": {"alpha_schedule": None},
    "sim_cfg": {"logit_scale_init": math.log(1.0 / 0.07), "logit_scale_max": math.log(100.0)},
}


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
        check_fields(self, [
            ("seeds", len(self.seeds) >= 1, "non-empty"),
            ("seeds", len(set(self.seeds)) == len(self.seeds), "distinct"),  # one run and its files per seed
            ("batch_size", self.batch_size >= 2, ">= 2 (contrastive denominators)"),
            ("epochs", self.epochs >= 0, ">= 0"),
            ("lr0", self.lr0 > 0, "> 0"),
            ("lr_min", 0 <= self.lr_min <= self.lr0, "in [0, lr0]"),
            ("weight_decay", self.weight_decay >= 0, ">= 0"),
            ("patience", self.patience >= 1, ">= 1"),
            ("validate_every", self.validate_every >= 1, ">= 1"),
            ("epochs", self.epochs == 0 or self.epochs >= self.validate_every, ">= validate_every (or 0)"),
        ])
        if self.ae_cfg_vision.latent_dim != self.ae_cfg_language.latent_dim:
            raise InvalidInput("both autoencoders must share the latent dim")

    @classmethod
    def from_dict(cls, d: dict) -> "TrainConfig":
        """Rebuilds a config from its ``asdict`` form after a JSON round trip.

        A key in `_RETIRED_KEYS` is dropped when it holds its one old value;
        any other value raises InvalidInput."""
        d = dict(d)
        for key, sub_cls in (("ae_cfg_vision", AutoencoderConfig), ("ae_cfg_language", AutoencoderConfig),
                             ("loss_cfg", LossConfig), ("sim_cfg", SimilarityConfig)):
            sub, retired = d[key], _RETIRED_KEYS[key]
            if isinstance(sub, dict):  # any other value fails in sub_cls(**sub)
                for name, old in retired.items():
                    if name in sub and sub[name] != old:
                        raise InvalidInput(f"retired config key {key}.{name} must be {old!r} if present, "
                                           f"got {sub[name]!r}")
                sub = {k: v for k, v in sub.items() if k not in retired}
            d[key] = sub_cls(**sub)
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
    """A pair of autoencoders trained jointly, plus similarity state, built
    from one `TrainConfig`, which it keeps as ``cfg``.

    ``params`` holds every trained parameter in one `FlatParams`: ``v.*``
    (vision) and ``l.*`` (language), each in `Autoencoder.parameters` order,
    then ``logit_scale``, starting at log(1/tau), as a one-element array
    exactly when the config's scale is learnable. The autoencoders are bound
    to it: their layers' parameters are the very views in ``params``, the
    vision ones at ``vision_span`` of its vector and the language ones at
    ``language_span``. A gradient vector has the same layout.
    """

    def __init__(self, cfg: TrainConfig, rng_vision: RngStream, rng_language: RngStream):
        self.cfg = cfg
        self.vision_ae = Autoencoder(cfg.ae_cfg_vision, rng_vision)
        self.language_ae = Autoencoder(cfg.ae_cfg_language, rng_language)
        vision, language = self.vision_ae.parameters(), self.language_ae.parameters()
        arrays = {f"v.{name}": arr for name, arr in vision.items()}
        arrays.update((f"l.{name}", arr) for name, arr in language.items())
        if cfg.sim_cfg.logit_scale_mode == "learnable":
            arrays["logit_scale"] = np.array([math.log(1.0 / cfg.sim_cfg.tau)])
        self.params = FlatParams(arrays)
        views = iter(self.params.values())
        self.vision_ae.bind(views)
        self.language_ae.bind(views)
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


def _latents(model: TrainedJAM, ds: PairedDataset):
    """Eval-mode latents of a split's images, positive and hard-negative texts."""
    return (model.encode_vision(ds.images), model.encode_language(ds.positives),
            model.encode_language(ds.negatives))


def validate(model: TrainedJAM, ds: PairedDataset) -> float:
    """Binary image-to-text Recall@1 on eval-mode latents."""
    return recall_binary(*_latents(model, ds))


def evaluate(model: TrainedJAM, ds: PairedDataset, seed: int) -> RetrievalResult:
    """Binary and 5-way retrieval on eval-mode latents, seeded distractors."""
    zv, zlp, zln = _latents(model, ds)
    return RetrievalResult(
        recall_binary=recall_binary(zv, zlp, zln),
        recall_5way=recall_5way(zv, zlp, zln, RngStream(seed)),
        n_queries=ds.n,
        seed=seed,
    )


def train_step(model: TrainedJAM, xv, xlp, xln, lam, rng, grad=None):
    """Objective and gradients of one joint step on one batch, at the
    model's current parameters and under its config's loss and similarity
    settings.

    Forwards images, positive texts and hard-negative texts in train mode,
    adds the lambda-weighted reconstruction of both autoencoders to the
    alignment objective and backpropagates through both. The dropout of all
    three passes is drawn from ``rng`` up front, one call per pass in that
    order (`Autoencoder.draw_dropout`). `side_by_side` runs the vision
    forward beside the two text forwards, then the vision backward beside
    the language backward, vision first in each. Returns (total, grad,
    parts): ``grad`` is the vector in ``model.params`` layout passed in, or
    a new one, now holding the gradient, or None, with no backward run,
    when ``total`` is not finite; ``parts`` is `losses.alignment_grads`'
    parts plus ``recon_v``, ``recon_l``, ``align`` and ``total``.
    """
    vision, language = model.vision_ae, model.language_ae
    draw_v, draw_lp, draw_ln = [ae.draw_dropout(len(x), rng)
                                for ae, x in ((vision, xv), (language, xlp), (language, xln))]

    def language_forward():
        return language.forward(xlp, "train", draw_lp), language.forward(xln, "train", draw_ln)

    (zv, xhat_v, tape_v), ((zlp, xhat_lp, tape_lp), (zln, xhat_ln, tape_ln)) = side_by_side(
        [lambda: vision.forward(xv, "train", draw_v), language_forward], len(xv))

    recon_v = losses.mse_recon(xv, xhat_v)
    x_l = np.concatenate([xlp, xln])
    recon_l = losses.mse_recon(x_l, np.concatenate([xhat_lp, xhat_ln]))
    align, d_zv, d_zlp, d_zln, d_ls, parts = losses.alignment_grads(
        zv, zlp, zln, model.cfg.loss_cfg, model.cfg.sim_cfg, model.log_scale
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

    def vision_backward():
        d_xhat_v = lam * 2.0 * (xhat_v - xv) / xv.size
        vision.backward(tape_v, d_zv, d_xhat_v, grad[model.vision_span])

    def language_backward():
        scale_l = lam * 2.0 / x_l.size
        d_xhat_lp = scale_l * (xhat_lp - xlp)
        d_xhat_ln = scale_l * (xhat_ln - xln)
        grad_l = grad[model.language_span]
        language.backward(tape_lp, d_zlp, d_xhat_lp, grad_l)
        grad_ln = np.empty_like(grad_l)
        language.backward(tape_ln, d_zln, d_xhat_ln, grad_ln)
        grad_l += grad_ln

    side_by_side([vision_backward, language_backward], len(xv))
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

    model = TrainedJAM(cfg, rng_init_v, rng_init_l)
    params = model.params
    learnable = "logit_scale" in params
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
    grad = None  # the gradient vector, made by the first step

    for epoch in range(cfg.epochs):
        lr = cosine_lr(epoch, horizon, cfg.lr0, cfg.lr_min)
        lam = losses.lambda_schedule(epoch, horizon, cfg.loss_cfg)
        perm = rng_shuffle.permutation(n)
        sums = dict.fromkeys(("recon_v", "recon_l", "align", "total"), 0.0)  # step parts, averaged below
        norms = []  # pre-clip gradient norms

        for start in range(0, n, cfg.batch_size):
            idx = perm[start : start + cfg.batch_size]
            if len(idx) < 2:
                continue  # a 1-row tail cannot form a contrastive denominator
            total, grad, parts = train_step(
                model, train_ds.images[idx], train_ds.positives[idx], train_ds.negatives[idx],
                lam, rng_dropout, grad,
            )
            if not math.isfinite(total):
                history.stop_epoch = epoch
                history.stop_reason = "aborted_nonfinite"
                params.vector[...] = best_snap if best_snap is not None else init_snap
                raise NonFiniteLoss(f"non-finite loss at epoch {epoch}", history=history, model=model)

            norms.append(clip_grad_norm(grad, 1.0, params.offsets))
            opt.step(grad, lr=lr)
            if learnable:
                np.clip(params["logit_scale"], 0.0, losses.LOG_SCALE_MAX, out=params["logit_scale"])

            for key in sums:
                sums[key] += parts[key]

        denom = max(len(norms), 1)
        history.epochs.append(
            {
                "epoch": epoch,
                **{key: value / denom for key, value in sums.items()},
                "lambda": lam,
                "alpha": cfg.loss_cfg.alpha,
                "lr": lr,
                "logit_scale": cfg.sim_cfg.scale(model.log_scale),
                "grad_norm_mean": sum(norms) / denom,
                "grad_norm_max": max(norms, default=0.0),
                "clip_fraction": sum(norm > 1.0 for norm in norms) / denom,
            }
        )
        history.stop_epoch = epoch + 1

        if (epoch + 1) % cfg.validate_every == 0:
            score = validate(model, val_ds)
            history.validations.append({"epoch": epoch + 1, "recall_binary": score})
            improved, should_stop = stopper.update(score)
            if improved:
                history.best_score = score
                history.best_epoch = epoch + 1
                best_snap = params.vector.copy()
            if should_stop:
                history.stop_reason = "early_stopped"
                break

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
    # every run's config is built, and so checked, before any run trains
    run_cfgs = [replace(cfg, loss_cfg=replace(cfg.loss_cfg, objective="spread", alpha=float(alpha)))
                for alpha in alphas]
    entries = []
    for run_cfg in run_cfgs:
        model, history = train(train_ds, val_ds, run_cfg, seed=seed)
        score = history.best_score
        if score is None:
            score = validate(model, val_ds)
        entries.append(
            SweepEntry(
                alpha=run_cfg.loss_cfg.alpha,
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


def save_jam(path, model: TrainedJAM, cfg: TrainConfig, seed: int):
    """Persist a trained model: parameters and config echo (``model.cfg``,
    the config the model was built from). ``cfg`` must equal it: a
    checkpoint that named another config would load as another model.

    The optimizer state is not written; checkpoints that hold it (``opt.*``
    tensors) still load, since ``load_jam`` reads only the parameters."""
    if cfg != model.cfg:
        raise UsageError("save_jam: cfg differs from the config the model was built from")
    meta = {
        "train_config": asdict(model.cfg),
        "seed": int(seed),
        "format_version": 1,
    }
    save_checkpoint(path, model.params, meta)


def load_jam(path):
    """Rebuild a TrainedJAM from a checkpoint; returns (model, meta), the
    model built from the config in ``meta``.

    The metadata must hold an integer ``seed`` and a ``train_config`` object.
    The ``v.*`` and ``l.*`` tensors must be the model's, and ``logit_scale``
    is required exactly when the config's scale is learnable."""
    tensors, meta = load_checkpoint(path)
    if not (isinstance(meta, dict) and type(meta.get("seed")) is int
            and isinstance(meta.get("train_config"), dict)):
        raise InvalidInput(f"{path}: checkpoint metadata needs an integer seed and a train_config object")
    try:
        cfg = TrainConfig.from_dict(meta["train_config"])
    except (KeyError, TypeError, InvalidInput) as exc:
        raise InvalidInput(f"{path}: checkpoint has no valid train_config ({exc!r})") from exc
    model = TrainedJAM(cfg, RngStream(0), RngStream(0))  # parameters read in below
    params = model.params
    if {k for k in tensors if k.startswith(("v.", "l.")) or k == "logit_scale"} != set(params):
        raise InvalidInput(f"{path}: checkpoint parameter names do not match the model "
                           f"with a {cfg.sim_cfg.logit_scale_mode} logit scale")
    for name, view in params.items():
        if tensors[name].shape != view.shape:
            raise InvalidInput(f"{path}: checkpoint shape mismatch for {name}")
        view[...] = tensors[name]
    return model, meta
