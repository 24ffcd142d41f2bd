"""Differentiable building blocks for the paired autoencoders.

Everything is float64 numpy with hand-written reverse-mode gradients over a
fixed topology: a funnel encoder (dense -> LayerNorm -> SwiGLU -> dropout ->
residual MLP per stage, then a linear bottleneck) and a mirrored decoder that
walks the hidden widths in reverse and ends in a linear projection back to
the input width. A forward pass records a one-shot :class:`Tape`; backward
consumes it and returns named parameter gradients plus the input gradient.

The optimizer is AdamW with decoupled weight decay, paired with a cosine
learning-rate schedule and global-norm gradient clipping. ``grad_check``
validates any loss closure against central finite differences.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NonFiniteGradient, UsageError
from .numkit import Matrix, RngStream


# Most rows `Autoencoder.encode` runs through the encoder at once, so its
# activations stay a few MB for any input size.
_ENCODE_BLOCK_ROWS = 1024


def _glorot(rng: RngStream, d_in: int, d_out: int) -> Matrix:
    std = math.sqrt(2.0 / (d_in + d_out))
    return rng.gaussian(d_in, d_out) * std


def _sigmoid(a):
    # 1 / (1 + exp(-a)) where a >= 0, exp(a) / (1 + exp(a)) elsewhere: exp of
    # -|a| never overflows, and each element gets exactly those float operations
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    e /= d
    np.divide(1.0, d, out=d)
    np.copyto(e, d, where=a >= 0)
    return e


def _silu(a):
    sig = _sigmoid(a)
    return a * sig, sig


def _silu_grad(a, sig):
    return sig * (1.0 + a * (1.0 - sig))


def _accum(grads: dict, name: str, value) -> None:
    if name in grads:
        grads[name] = grads[name] + value
    else:
        grads[name] = value


class Dense:
    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream):
        self.name = name
        self.w = _glorot(rng, d_in, d_out)
        self.b = np.zeros(d_out)

    def param_items(self):
        yield f"{self.name}.w", self.w
        yield f"{self.name}.b", self.b

    def forward(self, x, train, rng):
        return x @ self.w + self.b, x

    def backward(self, dy, cache, grads):
        x = cache
        _accum(grads, f"{self.name}.w", x.T @ dy)
        _accum(grads, f"{self.name}.b", dy.sum(axis=0))
        return dy @ self.w.T


class LayerNorm:
    def __init__(self, name: str, dim: int, eps: float = 1e-5):
        self.name = name
        self.g = np.ones(dim)
        self.b = np.zeros(dim)
        self.eps = eps

    def param_items(self):
        yield f"{self.name}.g", self.g
        yield f"{self.name}.b", self.b

    def forward(self, x, train, rng):
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=1, keepdims=True)
        s = np.sqrt(var + self.eps)
        xhat = xc / s
        return xhat * self.g + self.b, (xhat, s)

    def backward(self, dy, cache, grads):
        xhat, s = cache
        _accum(grads, f"{self.name}.g", (dy * xhat).sum(axis=0))
        _accum(grads, f"{self.name}.b", dy.sum(axis=0))
        dxhat = dy * self.g
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        return (dxhat - m1 - xhat * m2) / s


class SwiGLU:
    """out = SiLU(x Wg + bg) * (x Wv + bv)."""

    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream):
        self.name = name
        self.wg = _glorot(rng, d_in, d_out)
        self.bg = np.zeros(d_out)
        self.wv = _glorot(rng, d_in, d_out)
        self.bv = np.zeros(d_out)

    def param_items(self):
        yield f"{self.name}.wg", self.wg
        yield f"{self.name}.bg", self.bg
        yield f"{self.name}.wv", self.wv
        yield f"{self.name}.bv", self.bv

    def forward(self, x, train, rng):
        a = x @ self.wg + self.bg
        u = x @ self.wv + self.bv
        h, sig = _silu(a)
        return h * u, (x, a, u, h, sig)

    def backward(self, dy, cache, grads):
        x, a, u, h, sig = cache
        da = dy * u * _silu_grad(a, sig)
        du = dy * h
        _accum(grads, f"{self.name}.wg", x.T @ da)
        _accum(grads, f"{self.name}.bg", da.sum(axis=0))
        _accum(grads, f"{self.name}.wv", x.T @ du)
        _accum(grads, f"{self.name}.bv", du.sum(axis=0))
        return da @ self.wg.T + du @ self.wv.T


class Dropout:
    """Inverted dropout: train-time scaling by 1/(1-p), eval is identity."""

    def __init__(self, name: str, p: float):
        self.name = name
        self.p = p

    def param_items(self):
        return ()

    def forward(self, x, train, rng):
        if not train or self.p == 0.0:
            return x, None
        if rng is None:
            raise InvalidInput("training forward with dropout > 0 needs an rng")
        mask = (rng.uniform(x.shape) >= self.p) / (1.0 - self.p)
        return x * mask, mask

    def backward(self, dy, cache, grads):
        if cache is None:
            return dy
        return dy * cache


class ResidualMLP:
    """y = x + Drop(SiLU(x W1 + b1) W2 + b2), both weights square."""

    def __init__(self, name: str, dim: int, dropout: float, rng: RngStream):
        self.name = name
        self.w1 = _glorot(rng, dim, dim)
        self.b1 = np.zeros(dim)
        self.w2 = _glorot(rng, dim, dim)
        self.b2 = np.zeros(dim)
        self.drop = Dropout(f"{name}.drop", dropout)

    def param_items(self):
        yield f"{self.name}.w1", self.w1
        yield f"{self.name}.b1", self.b1
        yield f"{self.name}.w2", self.w2
        yield f"{self.name}.b2", self.b2

    def forward(self, x, train, rng):
        a = x @ self.w1 + self.b1
        h, sig = _silu(a)
        m = h @ self.w2 + self.b2
        md, mask = self.drop.forward(m, train, rng)
        return x + md, (x, a, h, sig, mask)

    def backward(self, dy, cache, grads):
        x, a, h, sig, mask = cache
        dm = self.drop.backward(dy, mask, grads)
        _accum(grads, f"{self.name}.w2", h.T @ dm)
        _accum(grads, f"{self.name}.b2", dm.sum(axis=0))
        da = (dm @ self.w2.T) * _silu_grad(a, sig)
        _accum(grads, f"{self.name}.w1", x.T @ da)
        _accum(grads, f"{self.name}.b1", da.sum(axis=0))
        return dy + da @ self.w1.T


@dataclass
class AutoencoderConfig:
    input_dim: int
    hidden_dims: list = field(default_factory=lambda: [512, 512, 512])
    latent_dim: int = 256
    dropout: float = 0.1
    layernorm_eps: float = 1e-5

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise InvalidInput("dims must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidInput("hidden dims must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidInput("dropout must be in [0, 1)")

    def to_dict(self) -> dict:
        return {
            "input_dim": self.input_dim,
            "hidden_dims": list(self.hidden_dims),
            "latent_dim": self.latent_dim,
            "dropout": self.dropout,
            "layernorm_eps": self.layernorm_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "AutoencoderConfig":
        return cls(**d)


def _make_stage(name, d_in, width, cfg, rng):
    return [
        Dense(f"{name}.dense", d_in, width, rng),
        LayerNorm(f"{name}.ln", width, cfg.layernorm_eps),
        SwiGLU(f"{name}.glu", width, width, rng),
        Dropout(f"{name}.drop", cfg.dropout),
        ResidualMLP(f"{name}.res", width, cfg.dropout, rng),
    ]


class Tape:
    """One-shot record of a forward pass; consumed exactly once by backward."""

    def __init__(self, enc_records, dec_records):
        self.enc_records = enc_records
        self.dec_records = dec_records
        self.consumed = False


class Autoencoder:
    """Funnel encoder to a latent bottleneck plus mirrored decoder."""

    def __init__(self, cfg: AutoencoderConfig, rng: RngStream):
        self.cfg = cfg
        self.mode = "eval"
        self.enc_layers = []
        d = cfg.input_dim
        for i, width in enumerate(cfg.hidden_dims):
            self.enc_layers.extend(_make_stage(f"enc{i}", d, width, cfg, rng))
            d = width
        self.enc_layers.append(Dense("enc.latent", d, cfg.latent_dim, rng))
        self.dec_layers = []
        d = cfg.latent_dim
        for i, width in enumerate(reversed(cfg.hidden_dims)):
            self.dec_layers.extend(_make_stage(f"dec{i}", d, width, cfg, rng))
            d = width
        self.dec_layers.append(Dense("dec.out", d, cfg.input_dim, rng))

    def parameters(self) -> dict:
        out = {}
        for layer in self.enc_layers + self.dec_layers:
            for name, arr in layer.param_items():
                out[name] = arr
        return out

    def load_snapshot(self, snap: dict) -> None:
        params = self.parameters()
        if set(snap) != set(params):
            raise InvalidInput("snapshot parameter names do not match model")
        for name, arr in params.items():
            if snap[name].shape != arr.shape:
                raise InvalidInput(f"snapshot shape mismatch for {name}")
            arr[...] = snap[name]

    def forward(self, x: Matrix, mode: str = "eval", rng: RngStream | None = None):
        """Returns (latent Z, reconstruction Xhat, tape)."""
        if mode not in ("train", "eval"):
            raise InvalidInput(f"mode must be 'train' or 'eval', got {mode!r}")
        train = mode == "train"
        enc_records = []
        h = self._checked_input(x)
        for layer in self.enc_layers:
            h, cache = layer.forward(h, train, rng)
            enc_records.append((layer, cache))
        z = h
        dec_records = []
        for layer in self.dec_layers:
            h, cache = layer.forward(h, train, rng)
            dec_records.append((layer, cache))
        return z, h, Tape(enc_records, dec_records)

    def backward(self, tape: Tape, d_z, d_xhat):
        """Exact reverse-mode gradients; returns (named grads, dX)."""
        if tape.consumed:
            raise UsageError("tape already consumed")
        tape.consumed = True
        grads = {}
        d = np.asarray(d_xhat, dtype=np.float64)
        for layer, cache in reversed(tape.dec_records):
            d = layer.backward(d, cache, grads)
        d = d + np.asarray(d_z, dtype=np.float64)
        for layer, cache in reversed(tape.enc_records):
            d = layer.backward(d, cache, grads)
        for name, arr in self.parameters().items():
            if name not in grads:
                grads[name] = np.zeros_like(arr)
        return grads, d

    def encode(self, x: Matrix) -> Matrix:
        """Latent Z of x: the encoder layers in eval mode, with no decoder
        pass and no tape, over blocks of at most ``_ENCODE_BLOCK_ROWS`` rows
        so the activations of a large input never sit in memory at once.
        Equal to ``forward(x, "eval")[0]`` up to BLAS rounding."""
        x = self._checked_input(x)
        # at least one block, so a 0-row input still gives a (0, latent) array
        blocks = [
            self._encode_block(x[start : start + _ENCODE_BLOCK_ROWS])
            for start in range(0, max(len(x), 1), _ENCODE_BLOCK_ROWS)
        ]
        return blocks[0] if len(blocks) == 1 else np.concatenate(blocks)

    def _encode_block(self, h: Matrix) -> Matrix:
        for layer in self.enc_layers:
            h, _ = layer.forward(h, False, None)
        return h

    def _checked_input(self, x) -> Matrix:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.cfg.input_dim:
            raise InvalidInput(
                f"expected (n, {self.cfg.input_dim}) input, got {x.shape}"
            )
        return x


def cosine_lr(epoch: float, total_epochs: float, lr0: float, lr_min: float) -> float:
    """lr_min + (lr0 - lr_min)/2 * (1 + cos(pi * epoch/total))."""
    if total_epochs <= 0:
        return lr0
    return lr_min + 0.5 * (lr0 - lr_min) * (1.0 + math.cos(math.pi * epoch / total_epochs))


def global_grad_norm(grads: dict) -> float:
    total = 0.0
    with np.errstate(over="ignore"):  # inf norm is a legal answer mid-abort
        for g in grads.values():
            total += float(np.sum(np.asarray(g) ** 2))
    return math.sqrt(total)


def clip_grad_norm(grads: dict, max_norm: float = 1.0) -> dict:
    """Scale all gradients so the global L2 norm is at most max_norm."""
    norm = global_grad_norm(grads)
    if norm > max_norm:
        factor = max_norm / norm
        for name in grads:
            grads[name] = grads[name] * factor
    return grads


class AdamW:
    """AdamW with decoupled weight decay over a named parameter dict.

    Decay is applied as p -= lr * wd * p, independent of the adaptive update;
    names in ``no_decay`` are exempt.
    """

    def __init__(
        self,
        params: dict,
        lr: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
        weight_decay: float = 0.01,
        no_decay=(),
    ):
        self.params = params
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self.no_decay = set(no_decay)
        self.m = {k: np.zeros_like(v) for k, v in params.items()}
        self.v = {k: np.zeros_like(v) for k, v in params.items()}
        self.t = 0

    def step(self, grads: dict, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        for name, g in grads.items():
            if not np.all(np.isfinite(g)):
                raise NonFiniteGradient(f"non-finite gradient for {name}")
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for name, p in self.params.items():
            g = grads[name]
            if self.weight_decay > 0.0 and name not in self.no_decay:
                p -= lr * self.weight_decay * p
            m = self.m[name]
            v = self.v[name]
            m *= self.beta1
            m += (1.0 - self.beta1) * g
            v *= self.beta2
            v += (1.0 - self.beta2) * (g * g)
            p -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def grad_check(
    params: dict,
    loss_fn,
    grads: dict,
    h: float = 1e-5,
    num_samples: int = 200,
    rng: RngStream | None = None,
) -> float:
    """Max relative error between analytic grads and central differences.

    ``loss_fn()`` must be a deterministic function of ``params``. Samples
    ``num_samples`` coordinates across all parameters (all of them if fewer).
    Relative error is |analytic - fd| / max(1e-8, |analytic| + |fd|).
    """
    rng = rng or RngStream(0)
    flat = []
    for name, p in params.items():
        flat.extend((name, i) for i in range(p.size))
    if len(flat) > num_samples:
        picks = rng.choice(len(flat), num_samples, replace=False)
        flat = [flat[i] for i in picks]
    worst = 0.0
    for name, i in flat:
        p = params[name]
        old = p.flat[i]
        p.flat[i] = old + h
        up = loss_fn()
        p.flat[i] = old - h
        down = loss_fn()
        p.flat[i] = old
        fd = (up - down) / (2.0 * h)
        an = float(np.asarray(grads[name]).flat[i])
        rel = abs(an - fd) / max(1e-8, abs(an) + abs(fd))
        worst = max(worst, rel)
    return worst


CHECKPOINT_MAGIC = b"JCKP"
CHECKPOINT_VERSION = 1
_CKPT_HEADER = struct.Struct("<4sIQ")


def save_checkpoint(path, tensors: dict, meta: dict) -> None:
    """Binary container: named float64 tensors + JSON metadata, bit-exact."""
    index = []
    offset = 0
    blobs = []
    for name in sorted(tensors):
        arr = np.ascontiguousarray(tensors[name], dtype="<f8")
        raw = arr.tobytes()
        index.append(
            {"name": name, "shape": list(arr.shape), "offset": offset, "nbytes": len(raw)}
        )
        blobs.append(raw)
        offset += len(raw)
    doc = json.dumps({"meta": meta, "tensors": index}, sort_keys=True).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(_CKPT_HEADER.pack(CHECKPOINT_MAGIC, CHECKPOINT_VERSION, len(doc)))
        fh.write(doc)
        for raw in blobs:
            fh.write(raw)


def load_checkpoint(path):
    """Returns (tensors, meta) as written by :func:`save_checkpoint`."""
    with open(path, "rb") as fh:
        raw = fh.read()
    if len(raw) < _CKPT_HEADER.size:
        raise InvalidInput(f"{path}: truncated checkpoint header")
    magic, version, doc_len = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise InvalidInput(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise InvalidInput(f"{path}: unsupported checkpoint version {version}")
    doc = json.loads(raw[_CKPT_HEADER.size : _CKPT_HEADER.size + doc_len])
    base = _CKPT_HEADER.size + doc_len
    tensors = {}
    for entry in doc["tensors"]:
        start = base + entry["offset"]
        buf = raw[start : start + entry["nbytes"]]
        tensors[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(entry["shape"]).copy()
    return tensors, doc["meta"]
