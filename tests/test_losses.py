import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam.errors import ConfigError, DegenerateInput, InvalidInput
from jam.losses import (
    ContextSets,
    LossConfig,
    SimilarityConfig,
    alignment_grads,
    alpha_schedule,
    cosine_logits,
    lambda_schedule,
    loss_con,
    loss_concon,
    loss_contextnce,
    loss_lv,
    loss_negcon,
    loss_spread,
    loss_spread_vl,
    loss_vl_con,
    mse_recon,
)
from jam.nnet import Autoencoder, AutoencoderConfig
from jam.numkit import RngStream
from jam.trainer import TrainConfig, train_step

SIM = SimilarityConfig()
FIXED = SimilarityConfig(logit_scale_mode="fixed")


def batch(seed, n=6, d=8):
    r = RngStream(seed)
    return r.gaussian(n, d), r.gaussian(n, d), r.gaussian(n, d)


def uniform_batch(n=6, d=8):
    """All rows identical, so every pairwise cosine equals 1."""
    row = RngStream(0).gaussian(1, d)
    one = np.tile(row, (n, 1))
    return one, one.copy(), one.copy()


class TestCosineLogits:
    def test_self_similarity_fixed_tau(self):
        z = RngStream(1).gaussian(4, 6)
        logits = cosine_logits(z, z, FIXED)
        np.testing.assert_allclose(np.diag(logits), np.full(4, 1 / 0.07), atol=1e-9)

    def test_orthogonal_zero(self):
        za = np.array([[1.0, 0.0]])
        zb = np.array([[0.0, 2.0]])
        assert abs(cosine_logits(za, zb, FIXED)[0, 0]) < 1e-12

    def test_learnable_init_matches_fixed(self):
        z = RngStream(2).gaussian(5, 4)
        learn = cosine_logits(z, z, SIM, log_scale=SIM.logit_scale_init)
        fixed = cosine_logits(z, z, FIXED)
        np.testing.assert_allclose(learn, fixed, atol=1e-12)

    def test_zero_norm_rejected(self):
        z = np.zeros((2, 3))
        with pytest.raises(DegenerateInput):
            cosine_logits(z, z, SIM)


class TestConLoss:
    def test_uniform_equals_log_nm1(self):
        zv, zlp, _ = uniform_batch(n=6)
        assert abs(loss_vl_con(zv, zlp, SIM) - math.log(5)) < 1e-9
        assert abs(loss_con(zv, zlp, SIM) - math.log(5)) < 1e-9

    def test_two_pair_hand_expansion(self):
        # with 2 pairs the printed form reduces to 0.5*((b-a) + (c-d))
        zv = np.array([[1.0, 0.0], [0.0, 1.0]])
        zlp = np.array([[0.9, 0.1], [0.2, 0.8]])
        s = cosine_logits(zv, zlp, FIXED)
        a, b, c, d = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
        expected = 0.5 * (-(a - b) - (d - c))
        assert abs(loss_vl_con(zv, zlp, FIXED) - expected) < 1e-12

    def test_pair_permutation_invariance(self):
        zv, zlp, _ = batch(3)
        perm = RngStream(4).permutation(6)
        assert abs(loss_con(zv, zlp, SIM) - loss_con(zv[perm], zlp[perm], SIM)) < 1e-12

    def test_swap_symmetry(self):
        zv, zlp, _ = batch(5)
        assert abs(loss_con(zv, zlp, SIM) - loss_con(zlp, zv, SIM)) < 1e-12

    def test_perfect_alignment_monotone_to_zero_standard_variant(self):
        # with the positive included in the denominator, the loss decreases
        # to 0 as the scale sharpens on perfectly aligned latents
        zv = RngStream(6).gaussian(8, 5)
        prev = None
        for scale_log in (0.0, 1.0, 2.0, 3.0, 4.0):
            value = loss_con(zv, zv.copy(), SIM, log_scale=scale_log, include_positive=True)
            assert value >= 0.0
            if prev is not None:
                assert value <= prev + 1e-12
            prev = value
        assert prev < 1e-6

    def test_batch_too_small(self):
        zv, zlp, _ = batch(7, n=1)
        with pytest.raises(InvalidInput):
            loss_con(zv, zlp, SIM)


class TestNegCon:
    def test_uniform_value(self):
        n = 6
        zv, zlp, zln = uniform_batch(n=n)
        # VL part is forced to 0.5*log(2N-1), LV part to log(N-1)
        expected = 0.5 * (0.5 * math.log(2 * n - 1) + math.log(n - 1))
        assert abs(loss_negcon(zv, zlp, zln, SIM) - expected) < 1e-9

    def test_far_negatives_halve_vl_term(self):
        # hard negatives at cosine ~ -1 from every anchor vanish from the
        # denominator, leaving the plain contrastive VL term at half weight
        # (1/2N vs 1/N); anchors sit in a narrow cone so one antipode works
        r = RngStream(8)
        n, d = 6, 8
        axis = np.zeros((1, d))
        axis[0, 0] = 1.0
        zv = axis + 0.05 * r.gaussian(n, d)
        zlp = r.gaussian(n, d)
        zln = np.tile(-axis, (n, 1))
        sim = SimilarityConfig(logit_scale_mode="fixed", tau=0.05)
        vl_con = loss_vl_con(zv, zlp, sim)
        lv = loss_lv(zlp, zv, sim)
        negcon = loss_negcon(zv, zlp, zln, sim)
        assert abs(negcon - 0.5 * (0.5 * vl_con + lv)) < 1e-6

    def test_similar_negative_raises_loss(self):
        zv, zlp, zln = batch(9)
        closer = loss_negcon(zv, zlp, zv + 0.01 * zln, SIM)
        farther = loss_negcon(zv, zlp, -zv + 0.01 * zln, SIM)
        assert closer > farther


class TestConCon:
    def test_ideal_configuration_approaches_zero(self):
        # context texts colinear with the anchor, complement strongly opposed:
        # each per-anchor ratio tends to 1, so the loss tends to 0
        n, d = 4, 6
        anchors = RngStream(1).gaussian(n, d)
        positives = anchors * 2.0
        negatives = anchors * 0.5
        texts = np.concatenate([positives, negatives])
        contexts = ContextSets(
            pairs=np.array([[i, n + i] for i in range(n)]), n_texts=2 * n
        )
        sharp = SimilarityConfig(logit_scale_mode="fixed", tau=0.01)
        # complement members are other anchors' directions; make them opposed
        # by flipping anchors so cross-anchor cosines are far below 1
        loss = loss_concon(anchors, texts, contexts, sharp)
        uniform_loss = math.log(2 * n - 1)
        assert loss < uniform_loss / 100

    def test_uniform_value(self):
        n = 5
        zv, zlp, zln = uniform_batch(n=n)
        value = loss_concon(zv, np.concatenate([zlp, zln]), None, SIM)
        assert abs(value - math.log(2 * n - 1)) < 1e-9

    def test_matches_double_loop(self):
        n, d = 4, 5
        r = RngStream(2)
        zv = r.gaussian(n, d)
        texts = r.gaussian(2 * n, d)
        sim = FIXED
        s = cosine_logits(zv, texts, sim)
        expected = 0.0
        for i in range(n):
            context = (i, n + i)
            comp = [j for j in range(2 * n) if j not in context]
            inner = 0.0
            for c in context:
                denom = np.exp(s[i, c]) + sum(np.exp(s[i, j]) for j in comp)
                inner += -np.log(np.exp(s[i, c]) / denom)
            expected += inner / 2
        expected /= n
        assert abs(loss_concon(zv, texts, None, sim) - expected) < 1e-9

    def test_batch_of_one_rejected(self):
        zv = RngStream(3).gaussian(1, 4)
        texts = RngStream(4).gaussian(2, 4)
        with pytest.raises(InvalidInput):
            loss_concon(zv, texts, None, SIM)


class TestContextNce:
    def test_equal_similarity_is_log2(self):
        zv, zlp, zln = uniform_batch()
        assert abs(loss_contextnce(zv, zlp, zln, SIM) - math.log(2)) < 1e-12

    def test_dominant_positive_to_zero(self):
        zv, _, _ = batch(11)
        zlp = zv.copy()
        zln = -zv
        sharp = SimilarityConfig(logit_scale_mode="fixed", tau=0.01)
        assert loss_contextnce(zv, zlp, zln, sharp) < 1e-8

    def test_equals_binary_cross_entropy(self):
        zv, zlp, zln = batch(12)
        s_p = np.sum(
            (zv / np.linalg.norm(zv, axis=1, keepdims=True))
            * (zlp / np.linalg.norm(zlp, axis=1, keepdims=True)),
            axis=1,
        )
        s_n = np.sum(
            (zv / np.linalg.norm(zv, axis=1, keepdims=True))
            * (zln / np.linalg.norm(zln, axis=1, keepdims=True)),
            axis=1,
        )
        scale = 1 / 0.07
        margin = scale * (s_p - s_n)
        bce = float(np.mean(np.log1p(np.exp(-margin))))
        assert abs(loss_contextnce(zv, zlp, zln, FIXED) - bce) < 1e-9


class TestSpread:
    def test_alpha_endpoints_bitwise(self):
        zv, zlp, zln = batch(13)
        concon = loss_concon(zv, np.concatenate([zlp, zln]), None, SIM)
        ctx = loss_contextnce(zv, zlp, zln, SIM)
        assert loss_spread_vl(zv, zlp, zln, 0.0, SIM) == concon
        assert loss_spread_vl(zv, zlp, zln, 1.0, SIM) == ctx

    def test_composition_formula(self):
        zv, zlp, zln = batch(14)
        alpha = 0.5
        concon = loss_concon(zv, np.concatenate([zlp, zln]), None, SIM)
        ctx = loss_contextnce(zv, zlp, zln, SIM)
        lv = loss_lv(zlp, zv, SIM)
        expected = 0.5 * ((1 - alpha) * concon + alpha * ctx + lv)
        assert abs(loss_spread(zv, zlp, zln, alpha, SIM) - expected) < 1e-12

    def test_affine_in_alpha(self):
        zv, zlp, zln = batch(15)
        v0 = loss_spread_vl(zv, zlp, zln, 0.0, SIM)
        v1 = loss_spread_vl(zv, zlp, zln, 1.0, SIM)
        for alpha in (0.25, 0.5, 0.75):
            interp = v0 + alpha * (v1 - v0)
            assert abs(loss_spread_vl(zv, zlp, zln, alpha, SIM) - interp) < 1e-12

    def test_alpha_out_of_range(self):
        zv, zlp, zln = batch(16)
        with pytest.raises(InvalidInput):
            loss_spread(zv, zlp, zln, 1.5, SIM)

    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    def test_alignment_grads_rejects_alpha_out_of_range(self, objective):
        zv, zlp, zln = batch(16)
        for alpha in (-0.1, float("nan")):
            with pytest.raises(InvalidInput):
                alignment_grads(objective, zv, zlp, zln, alpha, SIM)


class TestMse:
    def test_zero_at_equal(self):
        x = RngStream(17).gaussian(3, 4)
        assert mse_recon(x, x.copy()) == 0.0

    def test_unit_offset(self):
        assert mse_recon(np.zeros((5, 3)), np.ones((5, 3))) == 1.0

    def test_matches_loop(self):
        r = RngStream(18)
        x, y = r.gaussian(4, 3), r.gaussian(4, 3)
        total = sum((y[i, j] - x[i, j]) ** 2 for i in range(4) for j in range(3))
        assert abs(mse_recon(x, y) - total / 12) < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(InvalidInput):
            mse_recon(np.zeros((2, 2)), np.zeros((2, 3)))


class TestSchedules:
    def test_lambda_endpoints(self):
        cfg = LossConfig()
        assert lambda_schedule(0, 100, cfg) == 1.0
        assert abs(lambda_schedule(100, 100, cfg) - 0.1) < 1e-15
        assert abs(lambda_schedule(50, 100, cfg) - 0.55) < 1e-12

    def test_alpha_fixed_and_linear(self):
        assert alpha_schedule(0.5, 3, 10) == 0.5
        assert alpha_schedule(("fixed", 0.3), 7, 10) == 0.3
        assert alpha_schedule(("linear", 0.9, 0.1), 0, 10) == 0.9
        assert abs(alpha_schedule(("linear", 0.9, 0.1), 10, 10) - 0.1) < 1e-15

    def test_malformed_specs(self):
        with pytest.raises(ConfigError):
            alpha_schedule(("sweep", [0.1, 0.5]), 0, 10)
        with pytest.raises(ConfigError):
            alpha_schedule("nonsense", 0, 10)

    @pytest.mark.parametrize("spec", [("nonsense",), ("linear", "a", 1.0), ("fixed", None), ("sweep", [0.5])])
    def test_config_rejects_malformed_schedule(self, spec):
        with pytest.raises(ConfigError):
            LossConfig(alpha_schedule=spec)

    @pytest.mark.parametrize("spec", [("linear", 0.0, 2.0), ("linear", -0.5, 1.0), ("fixed", 1.5)])
    def test_config_rejects_schedule_outside_unit_interval(self, spec):
        with pytest.raises(InvalidInput):
            LossConfig(alpha_schedule=spec)

    def test_config_accepts_schedule_in_unit_interval(self):
        assert LossConfig(alpha_schedule=("linear", 1.0, 0.0)).alpha_schedule == ("linear", 1.0, 0.0)


def step_problem(objective="spread", alpha=0.5, seed=19):
    """Two tiny dropout-0 autoencoders and one batch, for `train_step`."""
    cfg = TrainConfig(
        ae_cfg_vision=AutoencoderConfig(5, [4], 3, dropout=0.0),
        ae_cfg_language=AutoencoderConfig(7, [4], 3, dropout=0.0),
        loss_cfg=LossConfig(objective=objective, alpha=alpha),
    )
    vision = Autoencoder(cfg.ae_cfg_vision, RngStream(seed))
    language = Autoencoder(cfg.ae_cfg_language, RngStream(seed + 1))
    r = RngStream(seed + 2)
    return cfg, vision, language, r.gaussian(6, 5), r.gaussian(6, 7), r.gaussian(6, 7)


class TestTotalObjective:
    """The total objective as `trainer.train_step`, the code that trains, assembles it."""

    def test_lambda_zero_pure_alignment(self):
        cfg, vision, language, xv, xlp, xln = step_problem(seed=19)
        total, _, parts = train_step(vision, language, xv, xlp, xln, 0.0, 0.5, None, cfg, RngStream(0))
        assert abs(total - parts["align"]) < 1e-12

    def test_breakdown_composition(self):
        cfg, vision, language, xv, xlp, xln = step_problem(seed=21)
        lam = lambda_schedule(3, 10, cfg.loss_cfg)
        total, _, parts = train_step(vision, language, xv, xlp, xln, lam, 0.5, None, cfg, RngStream(0))
        assert abs(total - (lam * (parts["recon_v"] + parts["recon_l"]) + parts["align"])) < 1e-12
        # with dropout 0 the train-mode forward is the eval-mode forward
        xhat_v = vision.forward(xv, "eval")[1]
        xhat_l = np.concatenate([language.forward(xlp, "eval")[1], language.forward(xln, "eval")[1]])
        assert parts["recon_v"] == mse_recon(xv, xhat_v)
        assert parts["recon_l"] == mse_recon(np.concatenate([xlp, xln]), xhat_l)
        assert set(parts) == {
            "concon", "contextnce", "spread_vl", "lv", "recon_v", "recon_l", "align", "total",
        }

    def test_all_objectives_run(self):
        for objective in ("con", "negcon", "spread"):
            cfg, vision, language, xv, xlp, xln = step_problem(objective, seed=23)
            total, grads, _ = train_step(
                vision, language, xv, xlp, xln, 1.0, 0.5, None, cfg, RngStream(0)
            )
            assert math.isfinite(total)
            assert list(grads)[-1] == "logit_scale"


class TestGradients:
    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_latent_grads_match_fd(self, objective, alpha):
        if objective != "spread" and alpha != 0.5:
            pytest.skip("alpha only affects spread")
        zv, zlp, zln = batch(25)
        ls = SIM.logit_scale_init

        def value():
            return alignment_grads(objective, zv, zlp, zln, alpha, SIM, ls)[0]

        _, d_zv, d_zlp, d_zln, d_ls, _ = alignment_grads(objective, zv, zlp, zln, alpha, SIM, ls)
        h = 1e-6
        worst = 0.0
        for arr, grad in ((zv, d_zv), (zlp, d_zlp), (zln, d_zln)):
            for i in range(0, arr.size, 5):
                old = arr.flat[i]
                arr.flat[i] = old + h
                up = value()
                arr.flat[i] = old - h
                down = value()
                arr.flat[i] = old
                fd = (up - down) / (2 * h)
                an = grad.flat[i]
                worst = max(worst, abs(an - fd) / max(1e-8, abs(an) + abs(fd)))
        assert worst <= 1e-5

    def test_log_scale_grad_matches_fd(self):
        zv, zlp, zln = batch(26)
        ls = SIM.logit_scale_init
        _, _, _, _, d_ls, _ = alignment_grads("spread", zv, zlp, zln, 0.5, SIM, ls)
        h = 1e-6
        up = alignment_grads("spread", zv, zlp, zln, 0.5, SIM, ls + h)[0]
        down = alignment_grads("spread", zv, zlp, zln, 0.5, SIM, ls - h)[0]
        fd = (up - down) / (2 * h)
        assert abs(d_ls - fd) / max(1e-8, abs(d_ls) + abs(fd)) < 1e-6

    def test_fixed_mode_no_scale_grad(self):
        zv, zlp, zln = batch(27)
        _, _, _, _, d_ls, _ = alignment_grads("con", zv, zlp, zln, 0.5, FIXED, None)
        assert d_ls == 0.0


class TestInvariances:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_row_rescaling_invariance(self, seed):
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(5, 6), r.gaussian(5, 6), r.gaussian(5, 6)
        scales = np.exp(r.gaussian(5, 1))
        for fn in (
            lambda a, b, c: loss_con(a, b, SIM),
            lambda a, b, c: loss_negcon(a, b, c, SIM),
            lambda a, b, c: loss_spread(a, b, c, 0.5, SIM),
        ):
            base = fn(zv, zlp, zln)
            scaled = fn(zv * scales, zlp * np.roll(scales, 1), zln * np.roll(scales, 2))
            assert abs(base - scaled) < 1e-10

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_batch_permutation_invariance(self, seed):
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(6, 4), r.gaussian(6, 4), r.gaussian(6, 4)
        perm = RngStream(seed + 1).permutation(6)
        for fn in (
            lambda a, b, c: loss_con(a, b, SIM),
            lambda a, b, c: loss_negcon(a, b, c, SIM),
            lambda a, b, c: loss_spread(a, b, c, 0.5, SIM),
        ):
            assert abs(fn(zv, zlp, zln) - fn(zv[perm], zlp[perm], zln[perm])) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_losses_finite_for_sharp_scales(self, seed):
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(4, 5), r.gaussian(4, 5), r.gaussian(4, 5)
        ls = math.log(100.0)  # the clamp ceiling
        for value in (
            loss_con(zv, zlp, SIM, log_scale=ls),
            loss_negcon(zv, zlp, zln, SIM, log_scale=ls),
            loss_spread(zv, zlp, zln, 0.5, SIM, log_scale=ls),
        ):
            assert math.isfinite(value)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_standard_variant(self, seed):
        # with the positive inside every denominator all objectives are
        # bounded below by zero
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(4, 5), r.gaussian(4, 5), r.gaussian(4, 5)
        assert loss_con(zv, zlp, SIM, include_positive=True) >= 0.0
        assert loss_negcon(zv, zlp, zln, SIM, include_positive=True) >= 0.0
        assert loss_concon(zv, np.concatenate([zlp, zln]), None, SIM) >= 0.0
        assert loss_contextnce(zv, zlp, zln, SIM) >= 0.0
