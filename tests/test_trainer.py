import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest

from jam.embed_io import SynthConfig, split_dataset, synth_generate
from jam.errors import InvalidInput, NonFiniteLoss, UsageError
from jam.losses import LossConfig, SimilarityConfig
from jam.nnet import Autoencoder, AutoencoderConfig, load_checkpoint, save_checkpoint
from jam.numkit import RngStream
from jam.trainer import (
    EarlyStopping,
    TrainConfig,
    TrainedJAM,
    evaluate,
    load_jam,
    save_jam,
    sweep_alpha,
    train,
    train_step,
    validate,
)


def tiny_cfg(objective="spread", epochs=10, **kw):
    kw.setdefault("batch_size", 8)
    kw.setdefault("validate_every", 5)
    kw.setdefault("lr0", 1e-3)
    kw.setdefault("loss_cfg", LossConfig(objective=objective))
    return TrainConfig(
        ae_cfg_vision=AutoencoderConfig(16, [12], 8, dropout=0.1),
        ae_cfg_language=AutoencoderConfig(20, [12], 8, dropout=0.1),
        epochs=epochs,
        **kw,
    )


@pytest.fixture(scope="module")
def tiny_data():
    ds, _, _ = synth_generate(SynthConfig(n=80, d_v=16, d_l=20, seed=7))
    return split_dataset(ds, seed=7)


class TestEarlyStopping:
    def test_hand_enumerated_trace(self):
        # scores 0.6, then six 0.7s: the second validation improves, the
        # next five do not, so the stop fires exactly at the 7th
        stopper = EarlyStopping(patience=5)
        outcomes = [stopper.update(s) for s in [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]]
        assert [o[1] for o in outcomes] == [False, False, False, False, False, False, True]
        assert [o[0] for o in outcomes] == [True, True, False, False, False, False, False]

    def test_never_fires_before_patience_plus_one(self):
        stopper = EarlyStopping(patience=3)
        stops = [stopper.update(0.5)[1] for _ in range(4)]
        assert stops == [False, False, False, True]

    def test_tiny_improvement_not_counted(self):
        stopper = EarlyStopping(patience=2)
        stopper.update(0.5)
        improved, _ = stopper.update(0.5 + 1e-9)
        assert not improved


class TestTrain:
    def test_zero_epochs_returns_init(self, tiny_data):
        tr, va, _ = tiny_data
        model, history = train(tr, va, tiny_cfg(epochs=0), seed=5)
        assert history.epochs == []
        assert history.validations == []
        assert history.stop_reason == "completed"
        z = model.encode_vision(tr.images[:3])
        assert z.shape == (3, 8)

    def test_deterministic_given_seed(self, tiny_data):
        tr, va, _ = tiny_data
        m1, h1 = train(tr, va, tiny_cfg(), seed=42)
        m2, h2 = train(tr, va, tiny_cfg(), seed=42)
        assert json.dumps(asdict(h1), sort_keys=True) == json.dumps(asdict(h2), sort_keys=True)
        for k, v in m1.vision_ae.parameters().items():
            np.testing.assert_array_equal(v, m2.vision_ae.parameters()[k])
        assert m1.log_scale == m2.log_scale

    def test_different_seeds_differ(self, tiny_data):
        tr, va, _ = tiny_data
        _, h1 = train(tr, va, tiny_cfg(), seed=5)
        _, h2 = train(tr, va, tiny_cfg(), seed=42)
        assert h1.epochs[0]["total"] != h2.epochs[0]["total"]

    def test_history_schedule_endpoints(self, tiny_data):
        tr, va, _ = tiny_data
        _, history = train(tr, va, tiny_cfg(epochs=10), seed=5)
        assert history.epochs[0]["lambda"] == 1.0
        assert abs(history.epochs[-1]["lambda"] - 0.1) < 1e-15
        assert history.epochs[0]["lr"] == 1e-3
        assert abs(history.epochs[-1]["lr"] - 1e-5) < 1e-15

    def test_validations_at_multiples(self, tiny_data):
        tr, va, _ = tiny_data
        _, history = train(tr, va, tiny_cfg(epochs=10, validate_every=5), seed=5)
        assert [v["epoch"] for v in history.validations] == [5, 10]
        assert history.best_score == max(v["recall_binary"] for v in history.validations)

    def test_best_checkpoint_restored(self, tiny_data):
        tr, va, _ = tiny_data
        model, history = train(tr, va, tiny_cfg(epochs=10), seed=9)
        assert history.best_score is not None
        assert abs(validate(model, va) - history.best_score) < 1e-12

    def test_training_beats_untrained(self):
        # needs enough rows for the val recall to be a stable signal
        ds, _, _ = synth_generate(SynthConfig(n=600, d_v=16, d_l=20, seed=42))
        tr, va, _ = split_dataset(ds, seed=42)
        before, _ = train(tr, va, tiny_cfg(epochs=0), seed=42)
        after, history = train(tr, va, tiny_cfg(epochs=30, lr0=3e-3), seed=42)
        assert history.best_score > validate(before, va)

    def test_dim_mismatch_rejected(self, tiny_data):
        tr, va, _ = tiny_data
        cfg = tiny_cfg()
        cfg.ae_cfg_vision = AutoencoderConfig(99, [12], 8)
        with pytest.raises(InvalidInput):
            train(tr, va, cfg, seed=5)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
    def test_nonfinite_loss_aborts_with_salvage(self, tiny_data):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=10, lr0=1e6)  # guaranteed blow-up
        with pytest.raises(NonFiniteLoss) as exc_info:
            train(tr, va, cfg, seed=5)
        err = exc_info.value
        assert err.history is not None
        assert err.history.stop_reason == "aborted_nonfinite"
        assert err.model is not None
        z = err.model.encode_vision(tr.images[:2])
        assert np.all(np.isfinite(z))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflow is the point
    def test_nonfinite_step_runs_no_backward(self, tiny_data, monkeypatch):
        tr, _, _ = tiny_data
        model = TrainedJAM(tiny_cfg(), RngStream(1), RngStream(2))
        model.params["l.dec.out.b"][:] = 1e300  # reconstruction error overflows

        def no_backward(*args, **kwargs):
            raise AssertionError("backward ran on a non-finite total")

        monkeypatch.setattr(Autoencoder, "backward", no_backward)
        total, grads, parts = train_step(
            model, tr.images[:8], tr.positives[:8], tr.negatives[:8], 1.0, RngStream(3),
        )
        assert grads is None
        assert not math.isfinite(total)
        assert parts["total"] == total and math.isfinite(parts["align"])

    def test_history_records_clipping(self, tiny_data):
        tr, va, _ = tiny_data
        _, history = train(tr, va, tiny_cfg(epochs=5, lr0=3e-3), seed=5)
        for record in history.epochs:
            old_keys = {"recon_v", "recon_l", "align", "total", "lambda", "alpha", "lr", "logit_scale"}
            assert old_keys < set(record)
            assert 0.0 < record["grad_norm_mean"] <= record["grad_norm_max"]
            assert 0.0 <= record["clip_fraction"] <= 1.0
            # clipping at 1.0 fires on some step exactly when the largest norm exceeds it
            assert (record["clip_fraction"] > 0) == (record["grad_norm_max"] > 1.0)

    def test_fixed_logit_scale_mode(self, tiny_data):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(sim_cfg=SimilarityConfig(logit_scale_mode="fixed"))
        model, history = train(tr, va, cfg, seed=5)
        assert model.log_scale is None
        assert history.epochs[0]["logit_scale"] == 1 / 0.07

    def test_learnable_scale_stays_clamped(self, tiny_data):
        tr, va, _ = tiny_data
        model, _ = train(tr, va, tiny_cfg(epochs=5, lr0=0.05), seed=5)
        assert 0.0 <= model.log_scale <= np.log(100.0)

    def test_batch_size_too_small(self):
        with pytest.raises(InvalidInput):
            tiny_cfg(batch_size=1)

    @pytest.mark.parametrize("field, value", [
        ("lr0", 0.0), ("lr0", -1.0), ("lr0", float("nan")), ("lr_min", -1e-9), ("lr_min", 2e-3),
        ("lr_min", float("nan")), ("weight_decay", -0.01), ("weight_decay", float("nan")),
        ("patience", 0), ("patience", -3),
    ])
    def test_config_rejects_out_of_range_values(self, field, value):
        with pytest.raises(InvalidInput, match=f"{field} must be"):
            tiny_cfg(**{field: value})

    def test_config_accepts_the_bounds(self):
        tiny_cfg(lr_min=0.0, weight_decay=0.0, patience=1)
        tiny_cfg(lr_min=1e-3)  # lr_min may equal lr0

    def test_learnable_scale_starts_at_log_inverse_tau(self, tiny_data):
        tr, va, _ = tiny_data
        model, _ = train(tr, va, tiny_cfg(epochs=0, sim_cfg=SimilarityConfig(tau=0.2)), seed=5)
        assert model.log_scale == math.log(1.0 / 0.2)


class TestFlatLayout:
    def test_joint_params_are_views_of_one_vector(self, tiny_data):
        tr, _, _ = tiny_data
        cfg = tiny_cfg()
        # drawn from the streams the model draws its own autoencoders from
        vision = Autoencoder(cfg.ae_cfg_vision, RngStream(1))
        language = Autoencoder(cfg.ae_cfg_language, RngStream(2))
        named = {f"v.{name}": arr for name, arr in vision.parameters().items()}
        named.update((f"l.{name}", arr) for name, arr in language.parameters().items())
        named["logit_scale"] = np.array([math.log(1.0 / cfg.sim_cfg.tau)])
        model = TrainedJAM(cfg, RngStream(1), RngStream(2))
        vision, language = model.vision_ae, model.language_ae
        params = model.params
        assert list(params) == list(named) and list(params)[-1] == "logit_scale"
        assert model.log_scale == math.log(1.0 / cfg.sim_cfg.tau)
        assert sum(view.size for view in params.values()) == params.vector.size
        for name, view in params.items():
            assert view.base is params.vector and view.tobytes() == named[name].tobytes()
        assert all(arr is params[f"v.{name}"] for name, arr in vision.parameters().items())
        z = vision.encode(tr.images[:4])
        params["v.enc.latent.b"] += 1.0
        np.testing.assert_allclose(vision.encode(tr.images[:4]), z + 1.0, rtol=0, atol=1e-12)
        zl = language.forward(tr.positives[:4])[0]
        params["l.enc0.dense.w"][0, 0] += 0.5
        assert not np.array_equal(language.forward(tr.positives[:4])[0], zl)
        params["logit_scale"][0] = 1.5
        assert model.log_scale == 1.5

    @pytest.mark.parametrize("mode", ["learnable", "fixed"])
    def test_spans_tile_the_vector(self, mode):
        cfg = tiny_cfg(sim_cfg=SimilarityConfig(tau=0.2, logit_scale_mode=mode))
        model = TrainedJAM(cfg, RngStream(1), RngStream(2))
        vision, language = model.vision_ae, model.language_ae
        params, size = model.params, model.params.vector.size
        v, l = model.vision_span, model.language_span
        learnable = mode == "learnable"
        # vision, then language, then the scale when it is learnable
        assert v.start == 0 and v.stop == l.start and l.stop == size - learnable
        assert v.stop == sum(arr.size for arr in vision.parameters().values())
        assert l.stop - l.start == sum(arr.size for arr in language.parameters().values())
        for ae, prefix, span in ((vision, "v.", v), (language, "l.", l)):
            for name, arr in ae.parameters().items():
                view = params[prefix + name]
                assert arr is view  # the layer holds the very view in params
                start = (view.__array_interface__["data"][0] - params.vector.ctypes.data) // 8
                assert span.start <= start and start + view.size <= span.stop
        assert ("logit_scale" in params) == learnable
        assert model.log_scale == (math.log(1.0 / 0.2) if learnable else None)

    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    def test_train_step_writes_every_gradient(self, tiny_data, objective):
        tr, _, _ = tiny_data
        model = TrainedJAM(tiny_cfg(objective), RngStream(1), RngStream(2))
        grad = np.full_like(model.params.vector, np.nan)
        total, out, _ = train_step(
            model, tr.images[:8], tr.positives[:8], tr.negatives[:8], 1.0, RngStream(3), grad,
        )
        # the gradient vector started as NaN: every element was written
        assert math.isfinite(total) and out is grad and np.isfinite(grad).all()


class TestValidateAndEvaluate:
    def test_self_retrieval_perfect(self, tiny_data):
        tr, va, _ = tiny_data
        model, _ = train(tr, va, tiny_cfg(epochs=0), seed=5)
        # feed the model's own vision latents as both text sides through an
        # identity-like check: positives = images domain requires matching
        # dims, so check determinism instead plus perfect case via evalkit
        score1 = validate(model, va)
        score2 = validate(model, va)
        assert score1 == score2

    def test_evaluate_seeded(self, tiny_data):
        tr, va, te = tiny_data
        model, _ = train(tr, va, tiny_cfg(epochs=5), seed=5)
        r1 = evaluate(model, te, seed=5)
        r2 = evaluate(model, te, seed=5)
        assert r1 == r2
        assert r1.n_queries == te.n


class TestSweep:
    def test_single_alpha_matches_plain_run(self, tiny_data):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=10)
        report = sweep_alpha(tr, va, cfg, [0.5], seed=5)
        _, history = train(
            tr,
            va,
            tiny_cfg(epochs=10, loss_cfg=LossConfig(objective="spread", alpha=0.5)),
            seed=5,
        )
        assert len(report.entries) == 1
        assert report.entries[0].best_val_recall == history.best_score
        assert report.best_alpha == 0.5

    def test_three_alphas_structure(self, tiny_data):
        tr, va, _ = tiny_data
        report = sweep_alpha(tr, va, tiny_cfg(epochs=5), [0.0, 0.5, 1.0], seed=5)
        assert [e.alpha for e in report.entries] == [0.0, 0.5, 1.0]
        best = max(report.entries, key=lambda e: e.best_val_recall)
        assert report.best_alpha == best.alpha

    def test_empty_alphas_rejected(self, tiny_data):
        tr, va, _ = tiny_data
        with pytest.raises(InvalidInput):
            sweep_alpha(tr, va, tiny_cfg(), [], seed=5)

    def test_clear_fine_distinction_needs_some_contextnce(self):
        # with alpha=0 the image->text side only clusters contexts and never
        # separates the positive from its hard negative; when the fine
        # distinction is clearly learnable, a contextNCE weight wins the sweep
        ds, _, _ = synth_generate(
            SynthConfig(
                n=600, d_v=32, d_l=48, latent_dim=16, context_dims=12,
                fine_dims=4, noise_std=0.05, hard_delta=1.0, seed=13,
            )
        )
        tr, va, _ = split_dataset(ds, seed=13)
        cfg = TrainConfig(
            ae_cfg_vision=AutoencoderConfig(32, [64], 16, dropout=0.1),
            ae_cfg_language=AutoencoderConfig(48, [64], 16, dropout=0.1),
            epochs=50, batch_size=32, lr0=3e-3, validate_every=5,
            loss_cfg=LossConfig(
                objective="spread", include_positive_in_denominator=True
            ),
        )
        report = sweep_alpha(tr, va, cfg, [0.0, 0.75], seed=13)
        assert report.best_alpha != 0.0


class TestCheckpointRoundTrip:
    def test_save_load_preserves_model(self, tiny_data, tmp_path):
        tr, va, te = tiny_data
        cfg = tiny_cfg(epochs=5)
        model, _ = train(tr, va, cfg, seed=5)
        path = tmp_path / "model.jckp"
        save_jam(path, model, cfg, seed=5)
        loaded, meta = load_jam(path)
        assert meta["seed"] == 5
        np.testing.assert_array_equal(
            loaded.encode_vision(te.images), model.encode_vision(te.images)
        )
        np.testing.assert_array_equal(
            loaded.encode_language(te.positives), model.encode_language(te.positives)
        )
        assert loaded.log_scale == model.log_scale

    def test_save_load_round_trips_bit_for_bit(self, tiny_data, tmp_path):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=5)
        model, _ = train(tr, va, cfg, seed=5)
        save_jam(tmp_path / "a.jckp", model, cfg, seed=5)
        loaded, _ = load_jam(tmp_path / "a.jckp")
        want, got = model.params, loaded.params
        assert list(got) == list(want)
        assert all(got[k].tobytes() == want[k].tobytes() for k in want)
        save_jam(tmp_path / "b.jckp", loaded, cfg, seed=5)
        assert (tmp_path / "a.jckp").read_bytes() == (tmp_path / "b.jckp").read_bytes()

    def test_save_rejects_a_config_the_model_was_not_built_from(self, tmp_path):
        cfg = tiny_cfg("spread")
        model = TrainedJAM(cfg, RngStream(1), RngStream(2))
        with pytest.raises(UsageError, match="cfg differs"):
            save_jam(tmp_path / "model.jckp", model, replace(cfg, loss_cfg=LossConfig("con")), 5)
        assert not (tmp_path / "model.jckp").exists()

    def test_save_writes_the_models_config(self, tmp_path):
        # the layout save_jam has always written: the model's parameters and
        # the config echo, seed and format version as metadata
        cfg = tiny_cfg("spread")
        model = TrainedJAM(cfg, RngStream(1), RngStream(2))
        save_jam(tmp_path / "model.jckp", model, model.cfg, 5)
        meta = {"train_config": asdict(cfg), "seed": 5, "format_version": 1}
        save_checkpoint(tmp_path / "expected.jckp", model.params, meta)
        assert (tmp_path / "model.jckp").read_bytes() == (tmp_path / "expected.jckp").read_bytes()
        assert load_jam(tmp_path / "model.jckp")[0].cfg == cfg

    def test_checkpoint_names_must_match_model(self, tiny_data, tmp_path):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=0)
        model, _ = train(tr, va, cfg, seed=5)
        save_jam(tmp_path / "model.jckp", model, cfg, seed=5)
        tensors, meta = load_checkpoint(tmp_path / "model.jckp")
        tensors["v.extra.w"] = np.zeros(2)
        save_checkpoint(tmp_path / "extra.jckp", tensors, meta)
        with pytest.raises(InvalidInput, match="names do not match"):
            load_jam(tmp_path / "extra.jckp")
        del tensors["v.extra.w"]
        tensors["l.dec.out.b"] = np.zeros(3)
        save_checkpoint(tmp_path / "shape.jckp", tensors, meta)
        with pytest.raises(InvalidInput, match="shape mismatch for l.dec.out.b"):
            load_jam(tmp_path / "shape.jckp")

    @pytest.mark.parametrize("mode", ["learnable", "fixed"])
    def test_logit_scale_tensor_required_exactly_when_learnable(self, tmp_path, mode):
        cfg = tiny_cfg(sim_cfg=SimilarityConfig(logit_scale_mode=mode))
        save_jam(tmp_path / "model.jckp", TrainedJAM(cfg, RngStream(1), RngStream(2)), cfg, 5)
        tensors, meta = load_checkpoint(tmp_path / "model.jckp")
        assert ("logit_scale" in tensors) == (mode == "learnable")
        if mode == "learnable":
            del tensors["logit_scale"]
        else:
            tensors["logit_scale"] = np.array([2.0])
        save_checkpoint(tmp_path / "damaged.jckp", tensors, meta)
        with pytest.raises(InvalidInput, match=f"names do not match the model with a {mode} logit scale"):
            load_jam(tmp_path / "damaged.jckp")

    def test_checkpoint_bytes_deterministic(self, tiny_data, tmp_path):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=5)
        for name in ("a", "b"):
            model, _ = train(tr, va, cfg, seed=42)
            save_jam(tmp_path / f"{name}.jckp", model, cfg, seed=42)
        assert (tmp_path / "a.jckp").read_bytes() == (tmp_path / "b.jckp").read_bytes()

    def test_checkpoint_holds_parameters_only(self, tiny_data, tmp_path):
        tr, va, _ = tiny_data
        cfg = tiny_cfg(epochs=5)
        model, _ = train(tr, va, cfg, seed=5)
        save_jam(tmp_path / "model.jckp", model, cfg, seed=5)
        tensors, meta = load_checkpoint(tmp_path / "model.jckp")
        params = {f"v.{k}" for k in model.vision_ae.parameters()}
        params |= {f"l.{k}" for k in model.language_ae.parameters()}
        assert set(tensors) == params | {"logit_scale"}
        assert "opt_t" not in meta

    def test_checkpoint_with_optimizer_moments_loads(self, tiny_data, tmp_path):
        # the layout written before the AdamW moments were dropped from checkpoints
        tr, va, te = tiny_data
        cfg = tiny_cfg(epochs=5)
        model, _ = train(tr, va, cfg, seed=5)
        save_jam(tmp_path / "new.jckp", model, cfg, seed=5)
        tensors, meta = load_checkpoint(tmp_path / "new.jckp")
        for name, arr in list(tensors.items()):
            tensors[f"opt.m.{name}"] = np.full_like(arr, 0.5)
            tensors[f"opt.v.{name}"] = np.full_like(arr, 0.25)
        save_checkpoint(tmp_path / "old.jckp", tensors, {**meta, "opt_t": 30})
        loaded, old_meta = load_jam(tmp_path / "old.jckp")
        assert old_meta["opt_t"] == 30
        np.testing.assert_array_equal(
            loaded.encode_vision(te.images), model.encode_vision(te.images)
        )
        np.testing.assert_array_equal(
            loaded.encode_language(te.negatives), model.encode_language(te.negatives)
        )
        assert loaded.log_scale == model.log_scale
