"""Differentiable building blocks for the paired autoencoders.

Everything is float64 numpy with hand-written reverse-mode gradients over a
fixed topology: a funnel encoder (dense -> LayerNorm -> SwiGLU -> dropout ->
residual MLP per stage, then a linear bottleneck) and a mirrored decoder that
walks the hidden widths in reverse and ends in a linear projection back to
the input width. A forward pass records a one-shot :class:`Tape`; backward
consumes it, writes the parameter gradients into a caller-given vector and
returns the input gradient.

There is one parameter order, one walk over each autoencoder's
``(layer, attribute)`` slots: the layers last to first, each in its
``PARAMS`` order, which is the order backward writes their gradients in.
`Autoencoder.parameters` names the arrays in that order, `Autoencoder.bind`
hands the layers views in it, and backward slices its gradient vector in
it by position. Parameters can be packed in that order into one contiguous
vector (:class:`FlatParams`) that the layers then hold views into; a
gradient has the same layout, and backward fills it front to back. The
optimizer is AdamW with decoupled weight decay over that vector, paired
with a cosine learning-rate schedule and global-norm gradient clipping that
sums squares tensor by tensor in vector order.

Each dropout layer of a train-mode pass calls ``rng.uniform(shape)``, in
forward order, and turns the uniforms into its mask in place. ``rng`` is an
`RngStream` or `Autoencoder.draw_dropout`'s `Predrawn`: the whole pass's
uniforms drawn from the stream in one call, which are the same values (a
Philox draw of n + m values equals a draw of n then one of m). So a pass's
dropout can be drawn on one thread and the pass run on another.

`parallel_workers` is the one rule for how many threads may run passes: the
cores the process may use over the threads numpy's OpenBLAS runs each
product on. `Autoencoder.encode` runs its row blocks on that many threads,
and `trainer.train_step` runs its vision pass on a helper thread when it
gives at least 2; a multi-threaded or unreadable BLAS keeps the serial code, since
both kinds of thread would compete for the same cores. A block or pass runs
the same float operations on any thread, so the bits are the same.
"""

from __future__ import annotations

import json
import math
import os
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NonFiniteGradient, UsageError
from .numkit import Matrix, RngStream, blas_threads


# Most rows `Autoencoder.encode` runs through the encoder at once, and the
# unit of work its threads share. At 256 rows a 128-wide float64 activation
# is 256 KB, so the few that are live at once stay in a core's L2 cache; at
# 1024 rows (1 MB each) they spilled, and each elementwise pass ran about
# half as fast per element. A thread that takes a block late holds the
# result back by one block's time, about 3 ms at the preset widths. Also the
# fewest rows for which `trainer.train_step` runs its vision pass on a
# helper thread: at 128 rows that thread gained nothing.
_ENCODE_BLOCK_ROWS = 256


def parallel_workers() -> int:
    """Threads a pass may run on (`Autoencoder.encode`'s blocks, the passes
    of `trainer.train_step`): the cores this process may use over the
    threads numpy's OpenBLAS runs each product on, so the two never compete
    for a core; 1 when the BLAS count cannot be read."""
    threads = blas_threads()
    if threads is None or not hasattr(os, "sched_getaffinity"):
        return 1
    return max(1, len(os.sched_getaffinity(0)) // threads)


def _glorot(rng: RngStream, d_in: int, d_out: int) -> Matrix:
    std = math.sqrt(2.0 / (d_in + d_out))
    return rng.gaussian(d_in, d_out) * std


def _sigmoid(a):
    # 1 / (1 + exp(-a)) where a >= 0, exp(a) / (1 + exp(a)) elsewhere: exp of
    # -|a| never overflows, and each element gets exactly those float operations.
    # The numerator is picked without a branch: exp(-|a|) <= 1, so the max with
    # (a >= 0) is 1 where a >= 0 and exp(a) elsewhere, and NaN stays NaN.
    e = np.abs(a)
    np.negative(e, out=e)
    np.exp(e, out=e)
    d = e + 1.0
    np.maximum(e, a >= 0, out=e)
    e /= d
    return e


def _silu(a):
    sig = _sigmoid(a)
    return a * sig, sig


def _silu_grad(a, sig):
    return sig * (1.0 + a * (1.0 - sig))


class _Layer:
    """Trained arrays are the attributes in ``PARAMS``, listed in the order
    `backward` writes their gradients: each into the array ``next(grads)``,
    of its shape."""

    PARAMS = ()


class Dense(_Layer):
    PARAMS = ("w", "b")

    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream):
        self.name = name
        self.w = _glorot(rng, d_in, d_out)
        self.b = np.zeros(d_out)

    def forward(self, x, train, rng):
        return x @ self.w + self.b, x

    def backward(self, dy, cache, grads):
        x = cache
        np.matmul(x.T, dy, out=next(grads))
        dy.sum(axis=0, out=next(grads))
        return dy @ self.w.T


class LayerNorm(_Layer):
    PARAMS = ("g", "b")
    EPS = 1e-5

    def __init__(self, name: str, dim: int):
        self.name = name
        self.g = np.ones(dim)
        self.b = np.zeros(dim)

    def forward(self, x, train, rng):
        mu = x.mean(axis=1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=1, keepdims=True)
        s = np.sqrt(var + self.EPS)
        xhat = xc / s
        return xhat * self.g + self.b, (xhat, s)

    def backward(self, dy, cache, grads):
        xhat, s = cache
        (dy * xhat).sum(axis=0, out=next(grads))
        dy.sum(axis=0, out=next(grads))
        dxhat = dy * self.g
        m1 = dxhat.mean(axis=1, keepdims=True)
        m2 = (dxhat * xhat).mean(axis=1, keepdims=True)
        return (dxhat - m1 - xhat * m2) / s


class SwiGLU(_Layer):
    """out = SiLU(x Wg + bg) * (x Wv + bv)."""

    PARAMS = ("wg", "bg", "wv", "bv")

    def __init__(self, name: str, d_in: int, d_out: int, rng: RngStream):
        self.name = name
        self.wg = _glorot(rng, d_in, d_out)
        self.bg = np.zeros(d_out)
        self.wv = _glorot(rng, d_in, d_out)
        self.bv = np.zeros(d_out)

    def forward(self, x, train, rng):
        a = x @ self.wg + self.bg
        u = x @ self.wv + self.bv
        h, sig = _silu(a)
        return h * u, (x, a, u, h, sig)

    def backward(self, dy, cache, grads):
        x, a, u, h, sig = cache
        da = dy * u * _silu_grad(a, sig)
        du = dy * h
        np.matmul(x.T, da, out=next(grads))
        da.sum(axis=0, out=next(grads))
        np.matmul(x.T, du, out=next(grads))
        du.sum(axis=0, out=next(grads))
        return da @ self.wg.T + du @ self.wv.T


class Dropout(_Layer):
    """Inverted dropout: train-time scaling by 1/(1-p), eval is identity."""

    def __init__(self, name: str, p: float):
        self.name = name
        self.p = p

    def forward(self, x, train, rng):
        if not train or self.p == 0.0:
            return x, None
        if rng is None:
            raise InvalidInput("training forward with dropout > 0 needs an rng")
        # the uniforms become the mask in place, with the float operations of
        # (u >= p) / (1 - p): a pre-drawn slice is the mask the tape holds
        mask = rng.uniform(x.shape)
        np.greater_equal(mask, self.p, out=mask)
        mask /= 1.0 - self.p
        return x * mask, mask

    def backward(self, dy, cache, grads):
        if cache is None:
            return dy
        return dy * cache


class Predrawn:
    """Uniforms drawn ahead of a pass, handed out in order by the call an
    `RngStream` answers: ``uniform(shape)`` returns the next ``prod(shape)``
    values as a view, which the `Dropout` that asked turns into its mask."""

    def __init__(self, values):
        self._values = values
        self._used = 0

    def uniform(self, shape):
        start, self._used = self._used, self._used + math.prod(shape)
        if self._used > self._values.size:
            raise UsageError("the pass asked for more uniforms than were drawn")
        return self._values[start : self._used].reshape(shape)


class ResidualMLP(_Layer):
    """y = x + Drop(SiLU(x W1 + b1) W2 + b2), both weights square."""

    PARAMS = ("w2", "b2", "w1", "b1")  # backward reaches the second projection first

    def __init__(self, name: str, dim: int, dropout: float, rng: RngStream):
        self.name = name
        self.w1 = _glorot(rng, dim, dim)
        self.b1 = np.zeros(dim)
        self.w2 = _glorot(rng, dim, dim)
        self.b2 = np.zeros(dim)
        self.drop = Dropout(f"{name}.drop", dropout)

    def forward(self, x, train, rng):
        a = x @ self.w1 + self.b1
        h, sig = _silu(a)
        m = h @ self.w2 + self.b2
        md, mask = self.drop.forward(m, train, rng)
        return x + md, (x, a, h, sig, mask)

    def backward(self, dy, cache, grads):
        x, a, h, sig, mask = cache
        dm = self.drop.backward(dy, mask, grads)
        np.matmul(h.T, dm, out=next(grads))
        dm.sum(axis=0, out=next(grads))
        da = (dm @ self.w2.T) * _silu_grad(a, sig)
        np.matmul(x.T, da, out=next(grads))
        da.sum(axis=0, out=next(grads))
        return dy + da @ self.w1.T


@dataclass
class AutoencoderConfig:
    input_dim: int
    hidden_dims: list[int] = field(default_factory=lambda: [512, 512, 512])
    latent_dim: int = 256
    dropout: float = 0.1

    def __post_init__(self):
        if self.input_dim < 1 or self.latent_dim < 1:
            raise InvalidInput("dims must be >= 1")
        if any(h < 1 for h in self.hidden_dims):
            raise InvalidInput("hidden dims must be >= 1")
        if not 0.0 <= self.dropout < 1.0:
            raise InvalidInput("dropout must be in [0, 1)")


def _make_stage(name, d_in, width, cfg, rng):
    return [
        Dense(f"{name}.dense", d_in, width, rng),
        LayerNorm(f"{name}.ln", width),
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
        # the one parameter order: layers last to first, each in its PARAMS order
        layers = reversed(self.enc_layers + self.dec_layers)
        self._slots = [(layer, attr) for layer in layers for attr in layer.PARAMS]

    def parameters(self) -> dict:
        """Every trained array, named ``<layer>.<attr>``, in the order
        `backward` writes their gradients: layers last to first, each in its
        ``PARAMS`` order."""
        return {f"{layer.name}.{attr}": getattr(layer, attr) for layer, attr in self._slots}

    def bind(self, views) -> None:
        """Make each layer parameter, in `parameters` order, the next array
        of the iterator ``views``, which must already hold its value."""
        for layer, attr in self._slots:
            setattr(layer, attr, next(views))

    def draw_dropout(self, rows: int, rng: RngStream | None) -> Predrawn | None:
        """The dropout uniforms of one train-mode `forward` over ``rows``
        rows, drawn from ``rng`` in one call: the values the pass would draw
        from ``rng`` itself. None, with nothing drawn, when dropout is off."""
        if self.cfg.dropout == 0.0:
            return None
        if rng is None:
            raise InvalidInput("training forward with dropout > 0 needs an rng")
        # every stage of the encoder and of the decoder drops out twice at its
        # width: after its SwiGLU and inside its residual MLP
        return Predrawn(rng.uniform(4 * rows * sum(self.cfg.hidden_dims)))

    def forward(self, x: Matrix, mode: str = "eval", rng: RngStream | Predrawn | None = None):
        """Returns (latent Z, reconstruction Xhat, tape). In train mode each
        dropout layer, in forward order, takes its uniforms from
        ``rng.uniform``: an `RngStream`, or `draw_dropout`'s `Predrawn`."""
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

    def backward(self, tape: Tape, d_z, d_xhat, grad):
        """Exact reverse-mode gradients: fills ``grad``, a float64 vector in
        `parameters` layout, front to back and returns dX."""
        if tape.consumed:
            raise UsageError("tape already consumed")
        tape.consumed = True
        grads = self._views(grad)
        d = np.asarray(d_xhat, dtype=np.float64)
        for layer, cache in reversed(tape.dec_records):
            d = layer.backward(d, cache, grads)
        d = d + np.asarray(d_z, dtype=np.float64)
        for layer, cache in reversed(tape.enc_records):
            d = layer.backward(d, cache, grads)
        return d

    def _views(self, vector):
        """Consecutive views of ``vector``, shaped like the parameters, in
        `parameters` order."""
        start = 0
        for layer, attr in self._slots:
            arr = getattr(layer, attr)
            stop = start + arr.size
            yield vector[start:stop].reshape(arr.shape)
            start = stop

    def encode(self, x: Matrix) -> Matrix:
        """Latent Z of x: the encoder layers in eval mode, with no decoder
        pass and no tape, over blocks of at most ``_ENCODE_BLOCK_ROWS`` rows
        so the activations of a large input never sit in memory at once.
        Equal to ``forward(x, "eval")[0]`` up to BLAS rounding.

        The caller and ``workers - 1`` helper threads (`parallel_workers`, at
        most one per block) take block starts from one shared iterator and
        write into one output array, so a thread that gets no CPU delays the
        result by one block at most. With one worker no thread is started;
        helpers are joined before `encode` returns, also when a block raises."""
        x = self._checked_input(x)
        z = np.empty((len(x), self.cfg.latent_dim))
        starts = range(0, len(x), _ENCODE_BLOCK_ROWS)
        pending = iter(starts)  # a range iterator's next() is atomic under the GIL

        def run():
            try:
                for start in pending:
                    z[start : start + _ENCODE_BLOCK_ROWS] = self._encode_block(
                        x[start : start + _ENCODE_BLOCK_ROWS])
            finally:
                for _ in pending:  # after an error, leave the other threads no block
                    pass

        workers = min(parallel_workers(), len(starts))
        if workers <= 1:
            run()
            return z
        with ThreadPoolExecutor(workers - 1) as pool:
            helpers = [pool.submit(run) for _ in range(workers - 1)]
            run()
            for helper in helpers:
                helper.result()
        return z

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


def global_grad_norm(grad, offsets=None) -> float:
    """L2 norm of a gradient vector: one dot product, or, with ``offsets``
    (the tensor boundaries of a `FlatParams`), ``np.sum`` of the squares of
    each tensor, added in vector order. That order fixes the rounding of the
    norm, and so of every clipped step after it."""
    with np.errstate(over="ignore", invalid="ignore"):  # inf norm is a legal answer mid-abort
        if offsets is None:
            return math.sqrt(grad @ grad)
        squares = np.empty(np.diff(offsets).max(initial=0))
        bounds = np.asarray(offsets).tolist()
        total = 0.0
        for start, stop in zip(bounds, bounds[1:]):
            part = grad[start:stop]
            total += float(np.multiply(part, part, out=squares[: stop - start]).sum())
        return math.sqrt(total)


def clip_grad_norm(grad, max_norm: float = 1.0, offsets=None) -> float:
    """Scale the gradient vector in place so its L2 norm (`global_grad_norm`
    over ``offsets``) is at most ``max_norm``; returns the norm it had before."""
    norm = global_grad_norm(grad, offsets)
    if norm > max_norm:
        grad *= max_norm / norm
    return norm


class FlatParams(dict):
    """Named float64 arrays that are views into one contiguous vector.

    Maps each name to its view of ``vector``, in the order the arrays were
    given, with their values copied in. AdamW, clipping and snapshots work
    on the vector; layers and checkpoints on the named views.
    """

    def __init__(self, arrays: dict):
        shapes = [np.shape(a) for a in arrays.values()]
        self.offsets = np.cumsum([0] + [math.prod(shape) for shape in shapes])
        self.vector = np.empty(int(self.offsets[-1]))
        bounds = self.offsets.tolist()  # Python ints slice faster than numpy ones
        for (name, arr), shape, start, stop in zip(arrays.items(), shapes, bounds, bounds[1:]):
            view = self[name] = self.vector[start:stop].reshape(shape)
            view[...] = arr

    def name_at(self, index: int) -> str:
        """Name of the array that holds ``vector[index]``."""
        return list(self)[int(np.searchsorted(self.offsets, index, side="right")) - 1]


# Elements per AdamW block: the block's slices of the parameters, gradient,
# both moments and two temporaries (6 x 128 KB) stay in a core's L2 cache.
_ADAMW_BLOCK = 16384


class AdamW:
    """AdamW (Loshchilov & Hutter, 2019) over the vector of a `FlatParams`.

    Decay is applied as p -= lr * wd * p, independent of the adaptive update;
    names in ``no_decay`` are exempt. ``BETAS`` and ``EPS`` are the paper's
    defaults. `step` takes the gradient as one vector of the same layout and
    updates it in blocks of ``_ADAMW_BLOCK`` elements, each element with the
    float operations of the per-tensor update, so the result does not depend
    on the layout.
    """

    BETAS = (0.9, 0.999)
    EPS = 1e-8

    def __init__(self, params: FlatParams, lr: float = 1e-3, weight_decay: float = 0.01, no_decay=()):
        self.params = params
        self.lr = lr
        self.weight_decay = weight_decay
        self.m = np.zeros_like(params.vector)
        self.v = np.zeros_like(params.vector)
        self.t = 0
        # the decayed elements as [start, stop) runs
        decayed = np.repeat([name not in no_decay for name in params], np.diff(params.offsets))
        edges = np.flatnonzero(np.diff(np.concatenate([[0], decayed, [0]])))
        self._decay = edges.reshape(-1, 2).tolist()
        self._tmp = np.empty((2, min(_ADAMW_BLOCK, params.vector.size)))

    def step(self, grad, lr: float | None = None) -> None:
        lr = self.lr if lr is None else lr
        # a finite norm means finite entries; only a non-finite one needs the
        # element-wise search for the tensor to name
        if not math.isfinite(global_grad_norm(grad)):
            bad = np.flatnonzero(~np.isfinite(grad))
            if bad.size:
                raise NonFiniteGradient(f"non-finite gradient for {self.params.name_at(bad[0])}")
        self.t += 1
        b1, b2 = self.BETAS
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        decay = lr * self.weight_decay
        p, m, v = self.params.vector, self.m, self.v
        for a in range(0, p.size, _ADAMW_BLOCK):
            b = min(a + _ADAMW_BLOCK, p.size)
            t, u = self._tmp[:, : b - a]
            if self.weight_decay > 0.0:
                for lo, hi in self._decay:
                    run = p[max(lo, a) : min(hi, b)]  # empty outside the block
                    np.multiply(decay, run, out=u[: run.size])
                    run -= u[: run.size]
            g, mb, vb = grad[a:b], m[a:b], v[a:b]
            # m = b1 m + (1 - b1) g;  v = b2 v + (1 - b2) (g g)
            mb *= b1
            np.multiply(1.0 - b1, g, out=t)
            mb += t
            vb *= b2
            np.multiply(g, g, out=t)
            t *= 1.0 - b2
            vb += t
            # p -= lr (m / bc1) / (sqrt(v / bc2) + eps)
            np.divide(mb, bc1, out=u)
            u *= lr
            np.divide(vb, bc2, out=t)
            np.sqrt(t, out=t)
            t += self.EPS
            u /= t
            p[a:b] -= u


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
    """Returns (tensors, meta) as written by :func:`save_checkpoint`; a file
    that cannot be read or parsed as one raises `InvalidInput`."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise InvalidInput(f"{path}: cannot read checkpoint: {exc.strerror}") from exc
    if len(raw) < _CKPT_HEADER.size:
        raise InvalidInput(f"{path}: truncated checkpoint header")
    magic, version, doc_len = _CKPT_HEADER.unpack_from(raw)
    if magic != CHECKPOINT_MAGIC:
        raise InvalidInput(f"{path}: bad checkpoint magic {magic!r}")
    if version != CHECKPOINT_VERSION:
        raise InvalidInput(f"{path}: unsupported checkpoint version {version}")
    base = _CKPT_HEADER.size + doc_len
    if len(raw) < base:
        raise InvalidInput(f"{path}: truncated checkpoint document")
    try:
        doc = json.loads(raw[_CKPT_HEADER.size : base])
        tensors = {}
        for entry in doc["tensors"]:
            start = base + entry["offset"]
            buf = raw[start : start + entry["nbytes"]]
            if len(buf) != entry["nbytes"]:
                raise InvalidInput(f"{path}: truncated payload of tensor {entry['name']!r}")
            tensors[entry["name"]] = np.frombuffer(buf, dtype="<f8").reshape(entry["shape"]).copy()
        return tensors, doc["meta"]
    except (ValueError, KeyError, TypeError) as exc:  # JSONDecodeError is a ValueError
        raise InvalidInput(f"{path}: corrupt checkpoint: {exc}") from exc
