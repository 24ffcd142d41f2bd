import math
import multiprocessing
import sys
import threading
import time
import warnings
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam import losses, nnet, presets
from jam.errors import InvalidInput, NonFiniteGradient, UsageError
from jam.nnet import (
    AdamW,
    Autoencoder,
    AutoencoderConfig,
    Dense,
    Dropout,
    FlatParams,
    LayerNorm,
    ResidualMLP,
    SwiGLU,
    clip_grad_norm,
    cosine_lr,
    global_grad_norm,
    load_checkpoint,
    save_checkpoint,
)
from jam.numkit import RngStream

from grad_refs import grad_check, layer_params, named_views


def nan_gradient(ae):
    """A NaN-filled vector in ``ae.parameters()`` layout."""
    return np.full(sum(arr.size for arr in ae.parameters().values()), np.nan)


def layer_fd_check(layer, x, extra_params=(), train=False, mask_rng_seed=77, h=1e-6):
    """Central-difference check of one layer's input and parameter grads."""

    def forward_loss():
        rng = RngStream(mask_rng_seed)
        y, _ = layer.forward(x, train, rng)
        return float(np.sum(np.sin(y)))  # nonlinear readout exercises all entries

    rng = RngStream(mask_rng_seed)
    y, cache = layer.forward(x, train, rng)
    grads = FlatParams(layer_params(layer))
    dx = layer.backward(np.cos(y), cache, iter(grads.values()))

    worst = 0.0
    for i in range(x.size):
        old = x.flat[i]
        x.flat[i] = old + h
        up = forward_loss()
        x.flat[i] = old - h
        down = forward_loss()
        x.flat[i] = old
        fd = (up - down) / (2 * h)
        worst = max(worst, abs(dx.flat[i] - fd) / max(1e-8, abs(dx.flat[i]) + abs(fd)))
    for name, arr in layer_params(layer).items():
        g = grads[name]
        for i in range(arr.size):
            old = arr.flat[i]
            arr.flat[i] = old + h
            up = forward_loss()
            arr.flat[i] = old - h
            down = forward_loss()
            arr.flat[i] = old
            fd = (up - down) / (2 * h)
            worst = max(worst, abs(g.flat[i] - fd) / max(1e-8, abs(g.flat[i]) + abs(fd)))
    return worst


class TestLayers:
    def test_dense_grad(self):
        layer = Dense("d", 4, 3, RngStream(1))
        assert layer_fd_check(layer, RngStream(2).gaussian(5, 4)) < 1e-7

    def test_layernorm_grad(self):
        layer = LayerNorm("ln", 6)
        assert layer_fd_check(layer, RngStream(3).gaussian(4, 6)) < 1e-6

    def test_layernorm_statistics(self):
        layer = LayerNorm("ln", 32)
        x = RngStream(4).gaussian(7, 32) * 3 + 1.5
        y, _ = layer.forward(x, False, None)
        assert np.abs(y.mean(axis=1)).max() < 1e-9
        assert np.abs(y.var(axis=1) - 1.0).max() < 1e-3  # eps shifts variance slightly

    def test_swiglu_grad(self):
        layer = SwiGLU("glu", 5, 5, RngStream(5))
        assert layer_fd_check(layer, RngStream(6).gaussian(4, 5)) < 1e-6

    def test_residual_grad_with_dropout(self):
        layer = ResidualMLP("res", 5, 0.3, RngStream(7))
        assert layer_fd_check(layer, RngStream(8).gaussian(6, 5), train=True) < 1e-6

    def test_residual_identity_at_zero_weights(self):
        layer = ResidualMLP("res", 4, 0.0, RngStream(9))
        layer.w1[...] = 0.0
        layer.w2[...] = 0.0
        x = RngStream(10).gaussian(5, 4)
        y, _ = layer.forward(x, False, None)
        np.testing.assert_array_equal(y, x)

    def test_dropout_grad_fixed_mask(self):
        layer = Dropout("drop", 0.4)
        assert layer_fd_check(layer, RngStream(11).gaussian(6, 5), train=True) < 1e-8

    def test_dropout_scaling(self):
        layer = Dropout("drop", 0.5)
        x = np.ones((2000, 10))
        y, _ = layer.forward(x, True, RngStream(12))
        assert abs(y.mean() - 1.0) < 0.05  # inverted scaling keeps the mean
        y_eval, _ = layer.forward(x, False, None)
        np.testing.assert_array_equal(y_eval, x)


class TestAutoencoder:
    def test_shapes_default_funnel(self):
        cfg = AutoencoderConfig(768, [512, 512, 512], 256)
        ae = Autoencoder(cfg, RngStream(1))
        params = ae.parameters()
        assert params["enc0.dense.w"].shape == (768, 512)
        assert params["enc1.dense.w"].shape == (512, 512)
        assert params["enc2.dense.w"].shape == (512, 512)
        assert params["enc.latent.w"].shape == (512, 256)
        assert params["dec0.dense.w"].shape == (256, 512)
        assert params["dec.out.w"].shape == (512, 768)
        z, xhat, _ = ae.forward(RngStream(2).gaussian(3, 768))
        assert z.shape == (3, 256)
        assert xhat.shape == (3, 768)

    def test_parameter_count_by_hand(self):
        # cfg(4, [2], 2): stage = dense(4->2) + ln(2) + swiglu(2->2) + res(2)
        cfg = AutoencoderConfig(4, [2], 2, dropout=0.0)
        ae = Autoencoder(cfg, RngStream(1))
        dense = 4 * 2 + 2
        ln = 2 + 2
        glu = 2 * (2 * 2 + 2)
        res = 2 * (2 * 2 + 2)
        bottleneck = 2 * 2 + 2
        enc = dense + ln + glu + res + bottleneck
        dec_dense = 2 * 2 + 2
        dec_out = 2 * 4 + 4
        dec = dec_dense + ln + glu + res + dec_out
        total = sum(p.size for p in ae.parameters().values())
        assert total == enc + dec

    def test_same_seed_same_init(self):
        cfg = AutoencoderConfig(6, [4], 3)
        a = Autoencoder(cfg, RngStream(5))
        b = Autoencoder(cfg, RngStream(5))
        for k, v in a.parameters().items():
            np.testing.assert_array_equal(v, b.parameters()[k])

    def test_eval_deterministic(self):
        ae = Autoencoder(AutoencoderConfig(6, [4], 3, dropout=0.2), RngStream(1))
        x = RngStream(2).gaussian(4, 6)
        z1, x1, _ = ae.forward(x, "eval")
        z2, x2, _ = ae.forward(x, "eval")
        np.testing.assert_array_equal(z1, z2)
        np.testing.assert_array_equal(x1, x2)

    @pytest.mark.parametrize("which", ["ae_cfg_vision", "ae_cfg_language"])
    def test_encode_runs_only_the_encoder(self, which, monkeypatch):
        cfg = getattr(presets.benchmark_train_config("spread"), which)
        ae = Autoencoder(cfg, RngStream(11))
        x = RngStream(12).gaussian(40, cfg.input_dim)
        z_forward = ae.forward(x, "eval")[0]

        def no_decoder(*args):
            raise AssertionError("encode ran a decoder layer")

        for layer in ae.dec_layers:
            monkeypatch.setattr(layer, "forward", no_decoder)
        z = ae.encode(x)
        assert z.shape == z_forward.shape and z.tobytes() == z_forward.tobytes()
        with pytest.raises(InvalidInput):
            ae.encode(np.zeros((2, cfg.input_dim + 1)))

    def test_encode_runs_in_blocks_and_matches_forward(self, monkeypatch):
        cfg = presets.benchmark_train_config("spread").ae_cfg_language
        ae = Autoencoder(cfg, RngStream(13))
        x = RngStream(14).gaussian(2500, cfg.input_dim)
        z_forward = ae.forward(x, "eval")[0]
        first = ae.enc_layers[0]
        rows = []

        def counting_forward(h, train, rng):
            rows.append(len(h))
            return type(first).forward(first, h, train, rng)

        monkeypatch.setattr(first, "forward", counting_forward)
        z = ae.encode(x)
        assert sum(rows) == 2500 and max(rows) <= nnet._ENCODE_BLOCK_ROWS < 2500
        assert z.shape == z_forward.shape
        assert np.abs(z - z_forward).max() <= 1e-12 * np.abs(z_forward).max()

    def test_encode_empty_input(self):
        cfg = AutoencoderConfig(6, [4], 3)
        z = Autoencoder(cfg, RngStream(1)).encode(np.zeros((0, 6)))
        assert z.shape == (0, 3)

    def test_train_no_dropout_equals_eval(self):
        ae = Autoencoder(AutoencoderConfig(6, [4], 3, dropout=0.0), RngStream(1))
        x = RngStream(2).gaussian(4, 6)
        zt, xt, _ = ae.forward(x, "train", RngStream(3))
        ze, xe, _ = ae.forward(x, "eval")
        np.testing.assert_array_equal(zt, ze)
        np.testing.assert_array_equal(xt, xe)

    def test_linear_only_degenerate_config(self):
        # empty hidden list collapses the encoder to the bottleneck linear map
        ae = Autoencoder(AutoencoderConfig(5, [], 3, dropout=0.0), RngStream(4))
        x = RngStream(5).gaussian(6, 5)
        z, _, _ = ae.forward(x)
        w = ae.parameters()["enc.latent.w"]
        b = ae.parameters()["enc.latent.b"]
        np.testing.assert_allclose(z, x @ w + b, atol=1e-12)

    def test_shape_mismatch(self):
        ae = Autoencoder(AutoencoderConfig(5, [4], 3), RngStream(1))
        with pytest.raises(InvalidInput):
            ae.forward(np.zeros((2, 7)))

    def test_tape_reuse_rejected(self):
        ae = Autoencoder(AutoencoderConfig(5, [4], 3, dropout=0.0), RngStream(1))
        z, xhat, tape = ae.forward(RngStream(2).gaussian(3, 5))
        ae.backward(tape, np.zeros_like(z), np.zeros_like(xhat), nan_gradient(ae))
        with pytest.raises(UsageError):
            ae.backward(tape, np.zeros_like(z), np.zeros_like(xhat), nan_gradient(ae))

    def test_backward_fills_the_whole_gradient(self):
        ae = Autoencoder(AutoencoderConfig(7, [6, 5], 4, dropout=0.1), RngStream(3))
        x = RngStream(4).gaussian(5, 7)
        z, xhat, tape = ae.forward(x, "train", RngStream(99))
        grad = nan_gradient(ae)
        ae.backward(tape, z, xhat - x, grad)
        assert np.isfinite(grad).all()

    def test_every_gradient_coordinate_matches_fd(self):
        # all coordinates, so a gradient written into the wrong tensor of the
        # same shape (ResidualMLP's w1 and w2, say) fails too
        ae = Autoencoder(AutoencoderConfig(4, [3], 2, dropout=0.2), RngStream(8))
        x = RngStream(9).gaussian(5, 4)

        def loss_only():
            _, xhat, _ = ae.forward(x, "train", RngStream(99))
            return losses.mse_recon(x, xhat)

        _, xhat, tape = ae.forward(x, "train", RngStream(99))
        grad = nan_gradient(ae)
        ae.backward(tape, np.zeros((5, 2)), 2 * (xhat - x) / x.size, grad)
        named = named_views(ae.parameters(), grad)
        err = grad_check(ae.parameters(), loss_only, named, h=1e-5, num_samples=grad.size, rng=RngStream(0))
        assert err <= 1e-4

    def test_backward_into_a_slice_writes_exactly_that_slice(self):
        ae = Autoencoder(AutoencoderConfig(5, [4, 3], 2, dropout=0.1), RngStream(2))
        x = RngStream(3).gaussian(6, 5)
        z, xhat, tape = ae.forward(x, "train", RngStream(4))
        size = sum(arr.size for arr in ae.parameters().values())
        outer = np.full(size + 7, np.nan)
        ae.backward(tape, z, xhat - x, outer[3 : 3 + size])
        assert np.isfinite(outer[3 : 3 + size]).all()
        assert np.isnan(outer[:3]).all() and np.isnan(outer[3 + size :]).all()

    def test_zero_upstream_zero_grads(self):
        ae = Autoencoder(AutoencoderConfig(5, [4], 3, dropout=0.0), RngStream(1))
        z, xhat, tape = ae.forward(RngStream(2).gaussian(3, 5))
        grad = nan_gradient(ae)
        dx = ae.backward(tape, np.zeros_like(z), np.zeros_like(xhat), grad)
        assert np.all(grad == 0)
        assert np.all(dx == 0)

    def test_full_model_gradients(self):
        cfg = AutoencoderConfig(7, [6, 5], 4, dropout=0.1)
        ae = Autoencoder(cfg, RngStream(3))
        x = RngStream(4).gaussian(5, 7)
        target = RngStream(5).gaussian(5, 4)

        def loss_only():
            z, xhat, _ = ae.forward(x, "train", RngStream(99))
            return losses.mse_recon(x, xhat) + losses.mse_recon(target, z)

        z, xhat, tape = ae.forward(x, "train", RngStream(99))
        grad = nan_gradient(ae)
        ae.backward(tape, 2 * (z - target) / z.size, 2 * (xhat - x) / x.size, grad)
        grads = named_views(ae.parameters(), grad)
        err = grad_check(ae.parameters(), loss_only, grads, h=1e-5, num_samples=250, rng=RngStream(0))
        assert err <= 1e-4

    def test_grad_check_detects_corruption(self):
        cfg = AutoencoderConfig(6, [4], 3, dropout=0.0)
        ae = Autoencoder(cfg, RngStream(6))
        x = RngStream(7).gaussian(4, 6)

        def loss_only():
            _, xhat, _ = ae.forward(x, "eval")
            return losses.mse_recon(x, xhat)

        _, xhat, tape = ae.forward(x, "eval")
        grad = nan_gradient(ae)
        ae.backward(tape, np.zeros((4, 3)), 2 * (xhat - x) / x.size, grad)
        grads = named_views(ae.parameters(), grad)
        grads["enc.latent.w"] += 0.05  # sabotage
        err = grad_check(ae.parameters(), loss_only, grads, num_samples=400, rng=RngStream(1))
        assert err > 1e-2


def dropout_masks(tape):
    """Every dropout mask a tape holds, in forward order."""
    masks = []
    for layer, cache in tape.enc_records + tape.dec_records:
        if isinstance(layer, Dropout):
            masks.append(cache)
        elif isinstance(layer, ResidualMLP):
            masks.append(cache[-1])
    return masks


class TestPredrawnDropout:
    """A pass's dropout drawn in one call (`draw_dropout`) against the same
    pass drawing from the stream layer by layer."""

    def test_dropout_mask_is_the_thresholded_uniforms(self):
        layer = Dropout("drop", 0.3)
        x = RngStream(40).gaussian(9, 7)
        y, mask = layer.forward(x, True, RngStream(41))
        want = (RngStream(41).uniform(x.shape) >= 0.3) / (1.0 - 0.3)
        assert mask.tobytes() == want.tobytes()
        assert y.tobytes() == (x * want).tobytes()

    @pytest.mark.parametrize("hidden", [[6], [7, 5], []])
    def test_same_latents_masks_and_stream_state(self, hidden):
        ae = Autoencoder(AutoencoderConfig(8, hidden, 3, dropout=0.25), RngStream(42))
        x = RngStream(43).gaussian(11, 8)
        stream, drawn = RngStream(44), RngStream(44)
        z, xhat, tape = ae.forward(x, "train", stream)
        z_pre, xhat_pre, tape_pre = ae.forward(x, "train", ae.draw_dropout(len(x), drawn))
        assert z.tobytes() == z_pre.tobytes() and xhat.tobytes() == xhat_pre.tobytes()
        masks, masks_pre = dropout_masks(tape), dropout_masks(tape_pre)
        assert len(masks) == len(masks_pre) == 4 * len(hidden)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(masks, masks_pre))
        assert stream.uniform(5).tobytes() == drawn.uniform(5).tobytes()

    def test_no_dropout_draws_nothing(self):
        ae = Autoencoder(AutoencoderConfig(8, [6, 4], 3, dropout=0.0), RngStream(45))
        rng = RngStream(46)
        assert ae.draw_dropout(10, rng) is None
        assert rng.uniform(3).tobytes() == RngStream(46).uniform(3).tobytes()

    def test_dropout_needs_an_rng(self):
        ae = Autoencoder(AutoencoderConfig(8, [6], 3, dropout=0.1), RngStream(47))
        with pytest.raises(InvalidInput):
            ae.draw_dropout(4, None)

    def test_a_pass_that_asks_for_more_is_refused(self):
        ae = Autoencoder(AutoencoderConfig(8, [6], 3, dropout=0.1), RngStream(48))
        drawn = ae.draw_dropout(4, RngStream(49))
        with pytest.raises(UsageError):
            ae.forward(RngStream(50).gaussian(5, 8), "train", drawn)


PRESET_AES = ["ae_cfg_vision", "ae_cfg_language"]


def preset_ae(which):
    cfg = getattr(presets.benchmark_train_config("spread"), which)
    return Autoencoder(cfg, RngStream(21))


def serial_blocks(ae, x):
    """The latents of `_encode_block` run over each block in order."""
    b = nnet._ENCODE_BLOCK_ROWS
    blocks = [ae._encode_block(x[i : i + b]) for i in range(0, len(x), b)]
    return np.concatenate(blocks) if blocks else np.empty((0, ae.cfg.latent_dim))


def watch_first_layer(monkeypatch, ae, fail=lambda caller: False):
    """Wrap ``ae``'s first encoder layer: record the thread that runs each
    block, hold each block until a second thread has taken one (so two
    threads run blocks even on one core), and raise on a block whose thread
    ``fail`` accepts (told whether it is the caller's). Returns the list of
    thread idents, one per block run."""
    first, caller = ae.enc_layers[0], threading.get_ident()
    idents, second = [], threading.Event()

    def watched_forward(h, train, rng):
        idents.append(threading.get_ident())
        if len(set(idents)) > 1:
            second.set()
        assert second.wait(timeout=30), "no second thread took a block"
        if fail(threading.get_ident() == caller):
            raise RuntimeError("block failed")
        return type(first).forward(first, h, train, rng)

    monkeypatch.setattr(first, "forward", watched_forward)
    return idents


def encode_in_child(ae, x):
    """A threaded encode in a forked child: the latents' bytes and the
    number of threads that ran blocks there."""
    with pytest.MonkeyPatch.context() as monkeypatch:
        idents = watch_first_layer(monkeypatch, ae)
        return ae.encode(x).tobytes(), len(set(idents))


class TestThreadedEncode:
    """`encode` with helper threads, forced by patching the worker count, so
    it runs on one core and under any BLAS thread count."""

    @pytest.fixture
    def two_workers(self, monkeypatch):
        monkeypatch.setattr(nnet, "parallel_workers", lambda: 2)

    @pytest.fixture
    def no_thread_start(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("encode started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    @pytest.mark.parametrize("rows", [0, 1, 255, 256, 257, 2001])
    @pytest.mark.parametrize("which", PRESET_AES)
    def test_bits_equal_the_serial_blocks(self, which, rows, two_workers):
        ae = preset_ae(which)
        x = RngStream(22).gaussian(rows, ae.cfg.input_dim)
        z = ae.encode(x)
        want = serial_blocks(ae, x)
        assert z.shape == want.shape == (rows, ae.cfg.latent_dim)
        assert z.tobytes() == want.tobytes()

    @pytest.mark.parametrize("which", PRESET_AES)
    def test_more_than_one_thread_runs_blocks(self, which, two_workers, monkeypatch):
        ae = preset_ae(which)
        x = RngStream(23).gaussian(2001, ae.cfg.input_dim)
        want = serial_blocks(ae, x)
        idents = watch_first_layer(monkeypatch, ae)
        assert ae.encode(x).tobytes() == want.tobytes()
        assert len(idents) == 8 and len(set(idents)) == 2

    @pytest.mark.parametrize(
        "cores, threads, workers",
        [({0, 1}, 1, 2), ({0, 1}, 2, 1), ({0, 1, 2, 3}, 2, 2), ({0}, 1, 1), ({0, 1}, None, 1)],
    )
    def test_worker_rule(self, cores, threads, workers, monkeypatch):
        monkeypatch.setattr(nnet.os, "sched_getaffinity", lambda pid: cores, raising=False)
        monkeypatch.setattr(nnet, "blas_threads", lambda: threads)
        assert nnet.parallel_workers() == workers

    def test_one_block_starts_no_thread(self, two_workers, no_thread_start):
        ae = preset_ae("ae_cfg_vision")
        x = RngStream(24).gaussian(nnet._ENCODE_BLOCK_ROWS, ae.cfg.input_dim)
        assert ae.encode(x).tobytes() == serial_blocks(ae, x).tobytes()

    @pytest.mark.parametrize("threads", [2, None], ids=["multithreaded-blas", "unknown-blas"])
    def test_serial_unless_the_blas_runs_one_thread(self, threads, no_thread_start, monkeypatch):
        monkeypatch.setattr(nnet.os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        monkeypatch.setattr(nnet, "blas_threads", lambda: threads)
        ae = preset_ae("ae_cfg_language")
        x = RngStream(25).gaussian(2001, ae.cfg.input_dim)
        assert ae.encode(x).tobytes() == serial_blocks(ae, x).tobytes()

    def test_each_block_runs_once_under_stress(self, monkeypatch):
        # more threads than cores, small blocks and a short switch interval:
        # a block taken twice or skipped shows in the row count or the bits
        monkeypatch.setattr(nnet, "parallel_workers", lambda: 8)
        monkeypatch.setattr(nnet, "_ENCODE_BLOCK_ROWS", 16)
        ae = preset_ae("ae_cfg_language")
        x = RngStream(29).gaussian(2001, ae.cfg.input_dim)
        want = serial_blocks(ae, x)
        first, rows = ae.enc_layers[0], []

        def counting_forward(h, train, rng):
            rows.append(len(h))
            return type(first).forward(first, h, train, rng)

        monkeypatch.setattr(first, "forward", counting_forward)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            z = ae.encode(x)
        finally:
            sys.setswitchinterval(interval)
        assert sum(rows) == 2001 and len(rows) == 126
        assert z.tobytes() == want.tobytes()

    def test_helpers_are_joined(self, two_workers):
        ae = preset_ae("ae_cfg_vision")
        before = threading.active_count()
        ae.encode(RngStream(26).gaussian(2001, ae.cfg.input_dim))
        assert threading.active_count() == before

    @pytest.mark.parametrize("on_caller", [True, False], ids=["caller", "helper"])
    def test_a_block_error_reaches_the_caller(self, on_caller, two_workers, monkeypatch):
        ae = preset_ae("ae_cfg_vision")
        x = RngStream(27).gaussian(2001, ae.cfg.input_dim)
        idents = watch_first_layer(monkeypatch, ae, fail=lambda caller: caller == on_caller)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="block failed"):
            ae.encode(x)
        assert threading.active_count() == before
        assert len(idents) < 8  # the other thread took no more blocks after the error

    def test_forked_child_encodes_the_same_bits(self, two_workers):
        ae = preset_ae("ae_cfg_language")
        x = RngStream(28).gaussian(2001, ae.cfg.input_dim)
        z = ae.encode(x)
        with ProcessPoolExecutor(1, mp_context=multiprocessing.get_context("fork")) as pool:
            child_bytes, child_threads = pool.submit(encode_in_child, ae, x).result()
        assert child_bytes == z.tobytes()
        assert child_threads == 2


class TestSideBySide:
    """`side_by_side` on its own: the order of its results, the thread each
    call runs on, and when it starts no thread."""

    @pytest.fixture
    def no_thread_start(self, monkeypatch):
        def refuse(thread):
            raise AssertionError("side_by_side started a thread")

        monkeypatch.setattr(threading.Thread, "start", refuse)

    @pytest.mark.parametrize("workers", [3, 1], ids=["threaded", "serial"])
    def test_results_in_call_order(self, workers, monkeypatch):
        monkeypatch.setattr(nnet, "parallel_workers", lambda: workers)

        def call(i):
            time.sleep(0.05 * (2 - i))  # threaded, the first call finishes last
            return i

        calls = [lambda i=i: call(i) for i in range(3)]
        assert nnet.side_by_side(calls, nnet._ENCODE_BLOCK_ROWS) == [0, 1, 2]

    def test_serial_runs_the_calls_in_order_on_the_caller(self, monkeypatch):
        monkeypatch.setattr(nnet, "parallel_workers", lambda: 1)
        ran = []
        calls = [lambda i=i: ran.append((i, threading.get_ident())) for i in range(3)]
        nnet.side_by_side(calls, nnet._ENCODE_BLOCK_ROWS)
        assert ran == [(i, threading.get_ident()) for i in range(3)]

    def test_each_call_but_the_last_runs_on_a_helper_of_its_own(self, monkeypatch):
        monkeypatch.setattr(nnet, "parallel_workers", lambda: 3)
        together = threading.Barrier(3, timeout=30)  # breaks unless three threads run the calls

        def ident():
            together.wait()
            return threading.get_ident()

        idents = nnet.side_by_side([ident] * 3, nnet._ENCODE_BLOCK_ROWS)
        caller = threading.get_ident()
        assert idents[-1] == caller
        assert len(set(idents)) == 3

    @pytest.mark.parametrize(
        "rows, workers, n_calls",
        [(255, 2, 2), (256, 1, 2), (256, 2, 1)],
        ids=["below-the-gate", "one-worker", "one-call"],
    )
    def test_no_thread_unless_all_hold(self, rows, workers, n_calls, monkeypatch, no_thread_start):
        monkeypatch.setattr(nnet, "parallel_workers", lambda: workers)
        calls = [lambda i=i: (i, threading.get_ident()) for i in range(n_calls)]
        assert nnet.side_by_side(calls, rows) == [(i, threading.get_ident()) for i in range(n_calls)]


def _sigmoid_two_branch(a):
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    ea = np.exp(a[~pos])
    out[~pos] = ea / (1.0 + ea)
    return out


class TestSigmoid:
    def test_bit_equal_to_two_branch_form(self):
        special = [0.0, -0.0, 1e-300, -1e-300, 30.0, -30.0, 800.0, -800.0, np.inf, -np.inf, np.nan]
        a = np.concatenate([RngStream(31).normal(4000) * 10.0, special]).reshape(-1, 1)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with np.errstate(over="raise"):
                got = nnet._sigmoid(a)
        want = _sigmoid_two_branch(a)
        nan = np.isnan(want)
        np.testing.assert_array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()

    def test_bit_equal_at_encode_block_shape(self):
        # a C-contiguous mixed-sign block of the shape `encode` runs
        a = RngStream(32).normal((nnet._ENCODE_BLOCK_ROWS, 128)) * 8.0
        assert a.flags.c_contiguous and (a < 0).any() and (a > 0).any()
        assert nnet._sigmoid(a).tobytes() == _sigmoid_two_branch(a).tobytes()


def _textbook_adamw(params, grads, t, lr, wd, no_decay, beta1=0.9, beta2=0.999, eps=1e-8, state=None):
    """One AdamW step (Loshchilov & Hutter, 2019) per named tensor; returns the moments."""
    state = state or {name: (np.zeros_like(p), np.zeros_like(p)) for name, p in params.items()}
    for name, p in params.items():
        m, v = state[name]
        g = grads[name]
        if name not in no_decay:
            p -= lr * wd * p
        m[...] = beta1 * m + (1 - beta1) * g
        v[...] = beta2 * v + (1 - beta2) * (g * g)
        p -= lr * (m / (1 - beta1**t)) / (np.sqrt(v / (1 - beta2**t)) + eps)
    return state


class TestAdamW:
    def test_hand_step(self):
        params = FlatParams({"p": np.array([1.0])})
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        opt.step(np.array([1.0]))
        # mhat = 1, vhat = 1 -> p' = 1 - 0.1 / (1 + 1e-8)
        assert abs(params["p"][0] - (1.0 - 0.1 / (1.0 + 1e-8))) < 1e-12

    def test_pure_decay(self):
        params = FlatParams({"p": np.array([2.0])})
        opt = AdamW(params, lr=0.1, weight_decay=0.01)
        opt.step(np.array([0.0]))
        assert abs(params["p"][0] - 2.0 * (1.0 - 0.1 * 0.01)) < 1e-12

    def test_identical_runs_identical_trajectories(self):
        def run():
            params = FlatParams({"w": RngStream(1).gaussian(3, 3)})
            opt = AdamW(params, lr=0.01)
            g_rng = RngStream(2)
            for _ in range(20):
                opt.step(g_rng.gaussian(3, 3).ravel())
            return params["w"]

        np.testing.assert_array_equal(run(), run())

    def test_nonfinite_gradient_rejected(self):
        params = FlatParams({"p": np.array([1.0])})
        opt = AdamW(params)
        with pytest.raises(NonFiniteGradient):
            opt.step(np.array([np.nan]))

    def test_matches_per_tensor_textbook(self):
        # more elements than one block, and the exempt scale splits the
        # decayed elements into two runs
        r = RngStream(3)
        arrays = {"a.w": r.gaussian(150, 130), "logit_scale": np.array([2.6]), "b.b": r.gaussian(1, 40)[0]}
        params = FlatParams(arrays)
        assert params.vector.size > nnet._ADAMW_BLOCK
        ref = {name: arr.copy() for name, arr in arrays.items()}
        opt = AdamW(params, lr=1e-3, weight_decay=0.05, no_decay={"logit_scale"})
        state = None
        for t in range(1, 21):
            lr = cosine_lr(t, 20, 3e-2, 1e-4)
            grads = {name: r.gaussian(1, arr.size)[0].reshape(arr.shape) for name, arr in arrays.items()}
            opt.step(np.concatenate([g.ravel() for g in grads.values()]), lr=lr)
            state = _textbook_adamw(ref, grads, t, lr, 0.05, {"logit_scale"}, state=state)
        for name in arrays:
            # the same float operations on each element: the same bits
            assert params[name].tobytes() == ref[name].tobytes()
        assert params["logit_scale"][0] != arrays["logit_scale"][0]

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_nonfinite_gradient_names_its_tensor(self, bad):
        params = FlatParams({"a": np.ones((3, 4)), "b": np.ones(5), "c": np.ones((2, 2))})
        before = params.vector.copy()
        opt = AdamW(params)
        grad = np.zeros_like(params.vector)
        grad[params.offsets[1] + 3] = bad
        with pytest.raises(NonFiniteGradient, match="for b$"):
            opt.step(grad)
        assert opt.t == 0 and params.vector.tobytes() == before.tobytes()

    def test_finite_gradient_with_overflowing_norm_is_accepted(self):
        params = FlatParams({"a": np.ones(4)})
        opt = AdamW(params, lr=0.1, weight_decay=0.0)
        grad = np.full(4, 1e155)  # finite, but its squares overflow
        assert nnet.global_grad_norm(grad) == np.inf
        with np.errstate(over="ignore"):
            opt.step(grad)
        # the second moment overflows too, so the step is zero, not an error
        assert opt.t == 1 and params["a"].tolist() == [1.0] * 4


class TestFlatParams:
    def test_views_share_one_vector_in_order(self):
        arrays = {"x": np.arange(6.0).reshape(2, 3), "y": np.array([7.0]), "z": np.arange(4.0)}
        params = FlatParams(arrays)
        assert list(params) == list(arrays)
        np.testing.assert_array_equal(params.vector, np.concatenate([a.ravel() for a in arrays.values()]))
        grad = np.zeros_like(params.vector)
        grads = named_views(params, grad)  # names the parts of a given vector
        assert list(grads) == list(params) and all(view.base is grad for view in grads.values())
        for name, view in params.items():
            assert view.shape == arrays[name].shape == grads[name].shape
            assert np.shares_memory(view, params.vector) and not np.shares_memory(view, arrays[name])
            assert np.shares_memory(grads[name], grad) and not grads[name].any()
        params["y"][0] = -1.0
        assert params.vector[6] == -1.0
        assert [params.name_at(i) for i in range(params.vector.size)] == ["x"] * 6 + ["y"] + ["z"] * 4


class TestSchedules:
    def test_cosine_endpoints_and_midpoint(self):
        assert cosine_lr(0, 100, 1e-3, 1e-5) == 1e-3
        assert abs(cosine_lr(100, 100, 1e-3, 1e-5) - 1e-5) < 1e-20
        assert abs(cosine_lr(50, 100, 1e-3, 1e-5) - (1e-3 + 1e-5) / 2) < 1e-12

    @given(st.integers(0, 200))
    @settings(max_examples=30, deadline=None)
    def test_cosine_monotone_decreasing(self, epoch):
        total = 200
        if epoch < total:
            assert cosine_lr(epoch, total, 1e-3, 1e-5) >= cosine_lr(epoch + 1, total, 1e-3, 1e-5)


class TestClip:
    def test_small_norm_unchanged(self):
        grad = np.array([0.3, 0.4])  # norm 0.5
        before = grad.copy()
        assert clip_grad_norm(grad, 1.0) == pytest.approx(0.5, abs=1e-15)
        np.testing.assert_array_equal(grad, before)

    def test_large_norm_scaled_to_max(self):
        grad = np.array([4.0, 0.0, 0.0, 0.0])
        assert clip_grad_norm(grad, 1.0) == 4.0
        assert abs(global_grad_norm(grad) - 1.0) <= 1e-12

    def test_direction_preserved(self):
        g = RngStream(1).gaussian(4, 4).ravel() * 10
        grad = g.copy()
        clip_grad_norm(grad, 1.0)
        cos = np.sum(g * grad) / (np.linalg.norm(g) * np.linalg.norm(grad))
        assert abs(cos - 1.0) < 1e-12

    def test_spans_sum_per_tensor_in_their_order(self):
        r = RngStream(6)
        grads = {"a": r.gaussian(40, 30), "b": r.normal(7), "c": r.gaussian(3, 300), "d": r.normal(1)}
        flat = FlatParams({name: grads[name] for name in ["c", "a", "d", "b"]})
        total = 0.0
        for name in flat:  # a norm over named tensors, summed tensor by tensor in vector order
            total += float(np.sum(grads[name] ** 2))
        assert global_grad_norm(flat.vector, flat.offsets) == math.sqrt(total)
        assert global_grad_norm(flat.vector) == pytest.approx(math.sqrt(total), rel=1e-14)
        grad = flat.vector * 0.01
        before = global_grad_norm(grad, flat.offsets)
        assert clip_grad_norm(grad, 0.25, flat.offsets) == before > 0.25
        assert global_grad_norm(grad) == pytest.approx(0.25, rel=1e-14)

    @given(st.integers(0, 2**31 - 1), st.floats(0.1, 20.0))
    @settings(max_examples=30, deadline=None)
    def test_post_clip_norm_is_min(self, seed, scale):
        grad = RngStream(seed).gaussian(3, 3).ravel() * scale
        before = global_grad_norm(grad)
        assert clip_grad_norm(grad, 1.0) == before
        assert abs(global_grad_norm(grad) - min(before, 1.0)) <= 1e-12


class TestCheckpointContainer:
    def test_round_trip_bit_exact(self, tmp_path):
        tensors = {
            "a.w": RngStream(1).gaussian(4, 3),
            "b": np.array([0.1234567891234567]),
        }
        meta = {"cfg": {"lr": 1e-3}, "seed": 5}
        path = tmp_path / "model.jckp"
        save_checkpoint(path, tensors, meta)
        got_tensors, got_meta = load_checkpoint(path)
        assert got_meta == meta
        for k, v in tensors.items():
            np.testing.assert_array_equal(got_tensors[k], v)
        # identical rewrite -> identical bytes
        path2 = tmp_path / "model2.jckp"
        save_checkpoint(path2, got_tensors, got_meta)
        assert path.read_bytes() == path2.read_bytes()
