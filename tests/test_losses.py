import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jam.errors import DegenerateInput, InvalidInput
from jam.losses import (
    LossConfig,
    SimilarityConfig,
    _LogitGraph,
    alignment_grads,
    lambda_schedule,
    mse_recon,
)
from jam.nnet import AutoencoderConfig
from jam.numkit import RngStream
from jam.trainer import TrainConfig, TrainedJAM, train_step

SIM = SimilarityConfig()
FIXED = SimilarityConfig(logit_scale_mode="fixed")
LOG_SCALE0 = math.log(1.0 / SIM.tau)  # where a learnable scale starts


def loss_value(objective, zv, zlp, zln=None, alpha=0.0, sim=SIM, log_scale=None,
               include_positive=False, part=None):
    """`alignment_grads`' value, or its named ``part``."""
    loss_cfg = LossConfig(objective, alpha, include_positive_in_denominator=include_positive)
    out = alignment_grads(zv, zlp, zln, loss_cfg, sim, log_scale)
    return out[0] if part is None else out[5][part]


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
        logits = _LogitGraph(z, z, FIXED, None).s
        np.testing.assert_allclose(np.diag(logits), np.full(4, 1 / 0.07), atol=1e-9)

    def test_orthogonal_zero(self):
        za = np.array([[1.0, 0.0]])
        zb = np.array([[0.0, 2.0]])
        assert abs(_LogitGraph(za, zb, FIXED, None).s[0, 0]) < 1e-12

    def test_learnable_init_matches_fixed(self):
        z = RngStream(2).gaussian(5, 4)
        learn = _LogitGraph(z, z, SIM, LOG_SCALE0).s
        fixed = _LogitGraph(z, z, FIXED, None).s
        np.testing.assert_allclose(learn, fixed, atol=1e-12)

    def test_zero_norm_rejected(self):
        z = np.zeros((2, 3))
        with pytest.raises(DegenerateInput):
            _LogitGraph(z, z, SIM, None)


class TestConLoss:
    def test_uniform_equals_log_nm1(self):
        zv, zlp, _ = uniform_batch(n=6)
        assert abs(loss_value("con", zv, zlp, part="vl") - math.log(5)) < 1e-9
        assert abs(loss_value("con", zv, zlp) - math.log(5)) < 1e-9

    def test_two_pair_hand_expansion(self):
        # with 2 pairs the printed form reduces to 0.5*((b-a) + (c-d))
        zv = np.array([[1.0, 0.0], [0.0, 1.0]])
        zlp = np.array([[0.9, 0.1], [0.2, 0.8]])
        s = _LogitGraph(zv, zlp, FIXED, None).s
        a, b, c, d = s[0, 0], s[0, 1], s[1, 0], s[1, 1]
        expected = 0.5 * (-(a - b) - (d - c))
        assert abs(loss_value("con", zv, zlp, sim=FIXED, part="vl") - expected) < 1e-12

    def test_pair_permutation_invariance(self):
        zv, zlp, _ = batch(3)
        perm = RngStream(4).permutation(6)
        assert abs(loss_value("con", zv, zlp) - loss_value("con", zv[perm], zlp[perm])) < 1e-12

    def test_swap_symmetry(self):
        zv, zlp, _ = batch(5)
        assert abs(loss_value("con", zv, zlp) - loss_value("con", zlp, zv)) < 1e-12

    def test_perfect_alignment_monotone_to_zero_standard_variant(self):
        # with the positive included in the denominator, the loss decreases
        # to 0 as the scale sharpens on perfectly aligned latents
        zv = RngStream(6).gaussian(8, 5)
        prev = None
        for scale_log in (0.0, 1.0, 2.0, 3.0, 4.0):
            value = loss_value("con", zv, zv.copy(), log_scale=scale_log, include_positive=True)
            assert value >= 0.0
            if prev is not None:
                assert value <= prev + 1e-12
            prev = value
        assert prev < 1e-6

    def test_batch_too_small(self):
        zv, zlp, _ = batch(7, n=1)
        with pytest.raises(InvalidInput):
            loss_value("con", zv, zlp)


class TestNegCon:
    def test_uniform_value(self):
        n = 6
        zv, zlp, zln = uniform_batch(n=n)
        # VL part is forced to 0.5*log(2N-1), LV part to log(N-1)
        expected = 0.5 * (0.5 * math.log(2 * n - 1) + math.log(n - 1))
        assert abs(loss_value("negcon", zv, zlp, zln) - expected) < 1e-9

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
        vl_con = loss_value("con", zv, zlp, sim=sim, part="vl")
        lv = loss_value("con", zv, zlp, sim=sim, part="lv")
        negcon = loss_value("negcon", zv, zlp, zln, sim=sim)
        assert abs(negcon - 0.5 * (0.5 * vl_con + lv)) < 1e-6

    def test_similar_negative_raises_loss(self):
        zv, zlp, zln = batch(9)
        closer = loss_value("negcon", zv, zlp, zv + 0.01 * zln)
        farther = loss_value("negcon", zv, zlp, -zv + 0.01 * zln)
        assert closer > farther


class TestConCon:
    def test_ideal_configuration_approaches_zero(self):
        # context texts colinear with the anchor, complement strongly opposed:
        # each per-anchor ratio tends to 1, so the loss tends to 0
        n, d = 4, 6
        anchors = RngStream(1).gaussian(n, d)
        positives = anchors * 2.0
        negatives = anchors * 0.5
        sharp = SimilarityConfig(logit_scale_mode="fixed", tau=0.01)
        # complement members are other anchors' directions; make them opposed
        # by flipping anchors so cross-anchor cosines are far below 1
        loss = loss_value("spread", anchors, positives, negatives, sim=sharp, part="concon")
        uniform_loss = math.log(2 * n - 1)
        assert loss < uniform_loss / 100

    def test_uniform_value(self):
        n = 5
        zv, zlp, zln = uniform_batch(n=n)
        value = loss_value("spread", zv, zlp, zln, part="concon")
        assert abs(value - math.log(2 * n - 1)) < 1e-9

    def test_matches_double_loop(self):
        n, d = 4, 5
        r = RngStream(2)
        zv = r.gaussian(n, d)
        texts = r.gaussian(2 * n, d)
        sim = FIXED
        s = _LogitGraph(zv, texts, sim, None).s
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
        assert abs(loss_value("spread", zv, texts[:n], texts[n:], sim=sim, part="concon") - expected) < 1e-9

    def test_batch_of_one_rejected(self):
        zv = RngStream(3).gaussian(1, 4)
        texts = RngStream(4).gaussian(2, 4)
        with pytest.raises(InvalidInput):
            loss_value("spread", zv, texts[:1], texts[1:], part="concon")


class TestContextNce:
    def test_equal_similarity_is_log2(self):
        zv, zlp, zln = uniform_batch()
        assert abs(loss_value("spread", zv, zlp, zln, alpha=1.0, part="contextnce") - math.log(2)) < 1e-12

    def test_dominant_positive_to_zero(self):
        zv, _, _ = batch(11)
        zlp = zv.copy()
        zln = -zv
        sharp = SimilarityConfig(logit_scale_mode="fixed", tau=0.01)
        assert loss_value("spread", zv, zlp, zln, alpha=1.0, sim=sharp, part="contextnce") < 1e-8

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
        assert abs(loss_value("spread", zv, zlp, zln, alpha=1.0, sim=FIXED, part="contextnce") - bce) < 1e-9


class TestSpread:
    def test_alpha_endpoints_bitwise(self):
        zv, zlp, zln = batch(13)
        concon = loss_value("spread", zv, zlp, zln, alpha=0.5, part="concon")
        ctx = loss_value("spread", zv, zlp, zln, alpha=1.0, part="contextnce")
        assert loss_value("spread", zv, zlp, zln, alpha=0.0, part="spread_vl") == concon
        assert loss_value("spread", zv, zlp, zln, alpha=1.0, part="spread_vl") == ctx

    def test_composition_formula(self):
        zv, zlp, zln = batch(14)
        alpha = 0.5
        concon = loss_value("spread", zv, zlp, zln, alpha=0.0, part="concon")
        ctx = loss_value("spread", zv, zlp, zln, alpha=1.0, part="contextnce")
        lv = loss_value("con", zv, zlp, part="lv")
        expected = 0.5 * ((1 - alpha) * concon + alpha * ctx + lv)
        assert abs(loss_value("spread", zv, zlp, zln, alpha=alpha) - expected) < 1e-12

    def test_affine_in_alpha(self):
        zv, zlp, zln = batch(15)
        v0 = loss_value("spread", zv, zlp, zln, alpha=0.0, part="spread_vl")
        v1 = loss_value("spread", zv, zlp, zln, alpha=1.0, part="spread_vl")
        for alpha in (0.25, 0.5, 0.75):
            interp = v0 + alpha * (v1 - v0)
            assert abs(loss_value("spread", zv, zlp, zln, alpha=alpha, part="spread_vl") - interp) < 1e-12

    def test_alpha_out_of_range(self):
        zv, zlp, zln = batch(16)
        with pytest.raises(InvalidInput):
            loss_value("spread", zv, zlp, zln, alpha=1.5)

    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    def test_config_rejects_alpha_out_of_range(self, objective):
        # `alignment_grads` reads alpha from a LossConfig, which checks it for every objective
        for alpha in (-0.1, float("nan")):
            with pytest.raises(InvalidInput, match="alpha must be in"):
                LossConfig(objective, alpha)

    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    def test_alignment_grads_rejects_mismatched_text_rows(self, objective):
        zv, zlp, zln = batch(17)
        with pytest.raises(InvalidInput):
            alignment_grads(zv, zlp[:-1], zln, LossConfig(objective), SIM)
        if objective != "con":  # con never reads zln
            with pytest.raises(InvalidInput):
                alignment_grads(zv, zlp, zln[:-1], LossConfig(objective), SIM)


class TestTemporaries:
    @pytest.mark.parametrize("objective", ["negcon", "spread"])
    def test_peak_is_a_few_logit_blocks(self, objective):
        n = 256
        zv, zlp, zln = batch(3, n=n, d=16)
        tracemalloc.start()
        try:
            alignment_grads(zv, zlp, zln, LossConfig(objective), SIM, 2.5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 8 * n * 2 * n * 8  # eight n x 2n float64 blocks


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


def step_problem(objective="spread", alpha=0.5, seed=19):
    """Two tiny dropout-0 autoencoders and one batch, for `train_step`."""
    cfg = TrainConfig(
        ae_cfg_vision=AutoencoderConfig(5, [4], 3, dropout=0.0),
        ae_cfg_language=AutoencoderConfig(7, [4], 3, dropout=0.0),
        loss_cfg=LossConfig(objective=objective, alpha=alpha),
    )
    model = TrainedJAM(cfg, RngStream(seed), RngStream(seed + 1))
    r = RngStream(seed + 2)
    return model, r.gaussian(6, 5), r.gaussian(6, 7), r.gaussian(6, 7)


class TestTotalObjective:
    """The total objective as `trainer.train_step`, the code that trains, assembles it."""

    def test_lambda_zero_pure_alignment(self):
        model, xv, xlp, xln = step_problem(seed=19)
        total, _, parts = train_step(model, xv, xlp, xln, 0.0, RngStream(0))
        assert abs(total - parts["align"]) < 1e-12

    def test_breakdown_composition(self):
        model, xv, xlp, xln = step_problem(seed=21)
        lam = lambda_schedule(3, 10, model.cfg.loss_cfg)
        total, _, parts = train_step(model, xv, xlp, xln, lam, RngStream(0))
        assert abs(total - (lam * (parts["recon_v"] + parts["recon_l"]) + parts["align"])) < 1e-12
        # with dropout 0 the train-mode forward is the eval-mode forward
        language = model.language_ae
        xhat_v = model.vision_ae.forward(xv, "eval")[1]
        xhat_l = np.concatenate([language.forward(xlp, "eval")[1], language.forward(xln, "eval")[1]])
        assert parts["recon_v"] == mse_recon(xv, xhat_v)
        assert parts["recon_l"] == mse_recon(np.concatenate([xlp, xln]), xhat_l)
        assert set(parts) == {
            "concon", "contextnce", "spread_vl", "lv", "recon_v", "recon_l", "align", "total",
        }

    def test_all_objectives_run(self):
        for objective in ("con", "negcon", "spread"):
            model, xv, xlp, xln = step_problem(objective, seed=23)
            total, grad, _ = train_step(model, xv, xlp, xln, 1.0, RngStream(0))
            assert math.isfinite(total)
            assert grad.shape == model.params.vector.shape and list(model.params)[-1] == "logit_scale"


class TestGradients:
    @pytest.mark.parametrize("objective", ["con", "negcon", "spread"])
    @pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
    def test_latent_grads_match_fd(self, objective, alpha):
        if objective != "spread" and alpha != 0.5:
            pytest.skip("alpha only affects spread")
        zv, zlp, zln = batch(25)
        ls = LOG_SCALE0
        loss_cfg = LossConfig(objective, alpha)

        def value():
            return alignment_grads(zv, zlp, zln, loss_cfg, SIM, ls)[0]

        _, d_zv, d_zlp, d_zln, d_ls, _ = alignment_grads(zv, zlp, zln, loss_cfg, SIM, ls)
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
        ls = LOG_SCALE0
        spread = LossConfig("spread", 0.5)
        _, _, _, _, d_ls, _ = alignment_grads(zv, zlp, zln, spread, SIM, ls)
        h = 1e-6
        up = alignment_grads(zv, zlp, zln, spread, SIM, ls + h)[0]
        down = alignment_grads(zv, zlp, zln, spread, SIM, ls - h)[0]
        fd = (up - down) / (2 * h)
        assert abs(d_ls - fd) / max(1e-8, abs(d_ls) + abs(fd)) < 1e-6

    def test_fixed_mode_no_scale_grad(self):
        zv, zlp, zln = batch(27)
        _, _, _, _, d_ls, _ = alignment_grads(zv, zlp, zln, LossConfig("con"), FIXED, None)
        assert d_ls == 0.0


class TestInvariances:
    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_row_rescaling_invariance(self, seed):
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(5, 6), r.gaussian(5, 6), r.gaussian(5, 6)
        scales = np.exp(r.gaussian(5, 1))
        for fn in (
            lambda a, b, c: loss_value("con", a, b),
            lambda a, b, c: loss_value("negcon", a, b, c),
            lambda a, b, c: loss_value("spread", a, b, c, alpha=0.5),
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
            lambda a, b, c: loss_value("con", a, b),
            lambda a, b, c: loss_value("negcon", a, b, c),
            lambda a, b, c: loss_value("spread", a, b, c, alpha=0.5),
        ):
            assert abs(fn(zv, zlp, zln) - fn(zv[perm], zlp[perm], zln[perm])) < 1e-12

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_losses_finite_for_sharp_scales(self, seed):
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(4, 5), r.gaussian(4, 5), r.gaussian(4, 5)
        ls = math.log(100.0)  # the clamp ceiling
        for value in (
            loss_value("con", zv, zlp, log_scale=ls),
            loss_value("negcon", zv, zlp, zln, log_scale=ls),
            loss_value("spread", zv, zlp, zln, alpha=0.5, log_scale=ls),
        ):
            assert math.isfinite(value)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=15, deadline=None)
    def test_nonnegative_standard_variant(self, seed):
        # with the positive inside every denominator all objectives are
        # bounded below by zero
        r = RngStream(seed)
        zv, zlp, zln = r.gaussian(4, 5), r.gaussian(4, 5), r.gaussian(4, 5)
        assert loss_value("con", zv, zlp, include_positive=True) >= 0.0
        assert loss_value("negcon", zv, zlp, zln, include_positive=True) >= 0.0
        assert loss_value("spread", zv, zlp, zln, part="concon") >= 0.0
        assert loss_value("spread", zv, zlp, zln, alpha=1.0, part="contextnce") >= 0.0
