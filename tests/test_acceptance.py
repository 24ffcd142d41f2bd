"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s`. The loss-ordering
benchmark (criterion 4) trains 9 models and dominates the runtime; everything
else is fast. Thresholds are frozen; see each test body. For criterion 4 they
are the 0.05 level of its one-sided exact sign tests on paired test queries
and the 0.85 floor on spread's mean binary recall.
"""

import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict

import numpy as np
import pytest

from jam import evalkit, losses
from jam.embed_io import SynthConfig, read_embeddings, split_dataset, synth_generate, write_embeddings
from jam.evalkit import recall_5way, recall_binary
from jam.losses import LossConfig, SimilarityConfig
from jam.metrics import cca, cka, cknna, gram, svcca
from jam.nnet import (
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
)
from jam.numkit import RngStream
from jam.presets import BENCHMARK_SEEDS, benchmark_synth, benchmark_train_config, metric_screen_synth
from jam.trainer import EarlyStopping, TrainConfig, TrainedJAM, train, train_on_split, train_step

from grad_refs import grad_check, layer_params, named_views
from metric_refs import hsic

SIM = SimilarityConfig()


def report(criterion, detail):
    print(f"PASS {criterion}: {detail}")


# -------------------------------------------------------------------------
# criterion 1: gradient suite
# -------------------------------------------------------------------------


def _fd_layer(layer, x, train=False):
    def loss_fn():
        rng = RngStream(4242)
        y, _ = layer.forward(x, train, rng)
        return float(np.sum(np.sin(y)))

    rng = RngStream(4242)
    y, cache = layer.forward(x, train, rng)
    params = layer_params(layer)
    grads = FlatParams(params)
    layer.backward(np.cos(y), cache, iter(grads.values()))
    if not params:  # dropout has no parameters; check the input path instead
        rng = RngStream(4242)
        y, cache = layer.forward(x, train, rng)
        dx = layer.backward(np.cos(y), cache, iter(()))
        worst = 0.0
        for i in range(x.size):
            old = x.flat[i]
            x.flat[i] = old + 1e-5
            up = loss_fn()
            x.flat[i] = old - 1e-5
            down = loss_fn()
            x.flat[i] = old
            fd = (up - down) / 2e-5
            worst = max(worst, abs(dx.flat[i] - fd) / max(1e-8, abs(dx.flat[i]) + abs(fd)))
        return worst
    return grad_check(params, loss_fn, grads, h=1e-5, num_samples=200, rng=RngStream(0))


def _objective_closure(objective, alpha, include_positive=False):
    """`train_step`, the code that trains, on two small autoencoders with
    dropout and a learnable logit scale; every call redraws the same dropout
    masks. Returns (params, loss_fn, grads) for `grad_check`."""
    r = RngStream(31)
    x_v = r.gaussian(6, 10)
    x_lp = r.gaussian(6, 12)
    x_ln = r.gaussian(6, 12)
    cfg = TrainConfig(
        ae_cfg_vision=AutoencoderConfig(10, [8, 6], 4, dropout=0.1),
        ae_cfg_language=AutoencoderConfig(12, [8, 6], 4, dropout=0.1),
        loss_cfg=LossConfig(
            objective=objective, alpha=alpha, include_positive_in_denominator=include_positive
        ),
        sim_cfg=SIM,
    )
    model = TrainedJAM(
        Autoencoder(cfg.ae_cfg_vision, RngStream(1)), Autoencoder(cfg.ae_cfg_language, RngStream(2)),
        SIM.logit_scale_init,
    )
    lam = losses.lambda_schedule(3, 10, cfg.loss_cfg)

    def step():
        return train_step(model, x_v, x_lp, x_ln, lam, alpha, cfg, RngStream(777))

    _, grad, _ = step()
    return model.params, lambda: step()[0], named_views(model.params, grad)


class TestCriterion1Gradients:
    def test_layer_types(self):
        r = RngStream(9)
        cases = {
            "dense": (Dense("d", 5, 4, RngStream(1)), r.gaussian(6, 5), False),
            "layernorm": (LayerNorm("ln", 7), r.gaussian(5, 7), False),
            "swiglu": (SwiGLU("g", 6, 6, RngStream(2)), r.gaussian(5, 6), False),
            "dropout": (Dropout("p", 0.3), r.gaussian(6, 5), True),
            "residual_mlp": (ResidualMLP("r", 6, 0.2, RngStream(3)), r.gaussian(5, 6), True),
        }
        worst = {}
        for name, (layer, x, train) in cases.items():
            err = _fd_layer(layer, x, train)
            assert err <= 1e-4, f"{name}: {err}"
            worst[name] = err
        report("criterion-1a", f"per-layer fd errors {max(worst.values()):.2e} <= 1e-4")

    @pytest.mark.parametrize(
        "objective,alpha",
        [("con", 0.5), ("negcon", 0.5), ("spread", 0.0), ("spread", 0.5), ("spread", 1.0)],
    )
    def test_full_pipeline_objectives(self, objective, alpha):
        params, loss_fn, grads = _objective_closure(objective, alpha)
        err = grad_check(params, loss_fn, grads, h=1e-5, num_samples=200, rng=RngStream(5))
        assert err <= 1e-4
        scale_params = {"logit_scale": params["logit_scale"]}
        scale_err = grad_check(scale_params, loss_fn, grads, h=1e-5, num_samples=200, rng=RngStream(5))
        assert scale_err <= 1e-4
        report(
            "criterion-1b",
            f"{objective} alpha={alpha}: fd error {err:.2e}, logit scale {scale_err:.2e} <= 1e-4",
        )


# -------------------------------------------------------------------------
# criterion 2: metric identities
# -------------------------------------------------------------------------


class TestCriterion2MetricIdentities:
    def test_identities(self):
        r = RngStream(11)
        x = r.gaussian(24, 6)
        y = r.gaussian(24, 9)

        cka_self = cka(x, x.copy())
        assert abs(cka_self - 1.0) <= 1e-10

        recovery = abs(cknna(x, y, 23) - cka(x, y))
        assert recovery <= 1e-8

        m = RngStream(12).gaussian(6, 6) + 3 * np.eye(6)
        corrs = cca(x, x @ m)
        assert np.abs(corrs - 1.0).max() <= 1e-6

        svcca_self = svcca(x, x.copy())
        assert abs(svcca_self - 1.0) <= 1e-6

        worst_hsic = 0.0
        for n in (5, 12, 20):
            k = gram(RngStream(n).gaussian(n, 4))
            l = gram(RngStream(n + 100).gaussian(n, 3))
            kc = k - k.mean(0, keepdims=True) - k.mean(1, keepdims=True) + k.mean()
            lc = l - l.mean(0, keepdims=True) - l.mean(1, keepdims=True) + l.mean()
            double_sum = sum(
                kc[i, j] * lc[i, j] for i in range(n) for j in range(n)
            ) / (n - 1) ** 2
            worst_hsic = max(worst_hsic, abs(hsic(k, l) - double_sum))
        assert worst_hsic <= 1e-10

        report(
            "criterion-2",
            f"cka(x,x)-1={cka_self - 1:.1e}, |cknna(n-1)-cka|={recovery:.1e}, "
            f"cca(Y=XM) max dev={np.abs(corrs - 1).max():.1e}, svcca(x,x)-1={svcca_self - 1:.1e}, "
            f"hsic vs double-sum {worst_hsic:.1e}",
        )


# -------------------------------------------------------------------------
# criterion 3: three-setting pattern on planted data
# -------------------------------------------------------------------------


class TestCriterion3MetricPattern:
    def test_pattern_across_seeds(self):
        for seed in BENCHMARK_SEEDS:
            ds, easy, _ = synth_generate(metric_screen_synth(seed))
            for metric in (cka, lambda a, b: cknna(a, b, 10)):
                match = metric(ds.images, ds.positives)
                easy_score = metric(ds.images, easy)
                hard = metric(ds.images, ds.negatives)
                assert easy_score < 0.25 * match, f"seed {seed}: easy {easy_score} vs match {match}"
                assert abs(match - hard) / match < 0.30, f"seed {seed}: hard {hard} vs match {match}"
        report("criterion-3", "easy < 0.25*match and |match-hard|/match < 0.30 for cka+cknna, seeds 5/42/55")


# -------------------------------------------------------------------------
# criterion 4: loss ordering on the planted benchmark
# -------------------------------------------------------------------------


# The three objectives are scored on the same test queries (the split depends
# only on the data seed), so the ordering is judged query by query: a one-sided
# exact sign test on the discordant queries of each pair. Fixed margins on
# three-seed means would let floating-point rounding decide the verdict: a
# different OpenBLAS kernel moves per-seed recall by up to 0.06.
SIGN_TEST_LEVEL = 0.05
SPREAD_FLOOR = 0.85


def _sign_test_p(wins, rivals):
    """One-sided exact sign test: P(X >= wins) for X ~ Binomial(wins + rivals, 1/2)."""
    n = wins + rivals
    return sum(math.comb(n, k) for k in range(wins, n + 1)) / 2**n


def _paired(a, b):
    """(a-only, b-only, p-value that a beats b) over queries paired by index."""
    a_only = int(np.sum(a & ~b))
    b_only = int(np.sum(b & ~a))
    return a_only, b_only, _sign_test_p(a_only, b_only)


def _ordering_verdict(hits):
    """Criterion-4 decision rule on pooled per-query hits; returns (checks, detail)."""
    neg_only, spread_only, p_neg = _paired(hits["negcon"], hits["spread"])
    spread_wins, con_wins, p_spread = _paired(hits["spread"], hits["con"])
    spread_mean = float(np.mean(hits["spread"]))
    checks = {
        "negcon not significantly better than spread": p_neg >= SIGN_TEST_LEVEL,
        "spread significantly better than con": p_spread < SIGN_TEST_LEVEL,
        f"spread mean >= {SPREAD_FLOOR}": spread_mean >= SPREAD_FLOOR,
    }
    detail = (
        f"negcon-only/spread-only {neg_only}/{spread_only} (p={p_neg:.3g}); "
        f"spread-only/con-only {spread_wins}/{con_wins} (p={p_spread:.3g}); "
        f"spread mean {spread_mean:.4f}"
    )
    return checks, detail


class TestCriterion4DecisionRule:
    """Hand-built hit vectors: the criterion-4 checks can fail."""

    @staticmethod
    def _hits(shared, a_only, b_only, n=450):
        a = np.zeros(n, dtype=bool)
        b = np.zeros(n, dtype=bool)
        a[:shared] = b[:shared] = True
        a[shared : shared + a_only] = True
        b[shared + a_only : shared + a_only + b_only] = True
        return a, b

    def test_sign_test_values(self):
        assert _sign_test_p(0, 0) == 1.0
        assert _sign_test_p(3, 0) == 1 / 8
        assert _sign_test_p(32, 18) == pytest.approx(0.0324543, abs=1e-7)
        assert _sign_test_p(31, 19) == pytest.approx(0.0594602, abs=1e-7)

    @pytest.mark.parametrize("negcon_only,passes", [(32, False), (31, True)])
    def test_negcon_lead_fails_a(self, negcon_only, passes):
        negcon, spread = self._hits(390, negcon_only, 50 - negcon_only)
        checks, _ = _ordering_verdict({"con": np.zeros_like(spread), "negcon": negcon, "spread": spread})
        assert checks["negcon not significantly better than spread"] is passes

    def test_equal_hits_pass_a(self):
        spread, _ = self._hits(420, 0, 0)
        checks, _ = _ordering_verdict({"con": np.zeros_like(spread), "negcon": spread.copy(), "spread": spread})
        assert all(checks.values())

    @pytest.mark.parametrize("discordant", [0, 25])
    def test_spread_con_tie_fails_b(self, discordant):
        spread, con = self._hits(400, discordant, discordant)
        checks, _ = _ordering_verdict({"con": con, "negcon": spread.copy(), "spread": spread})
        assert not checks["spread significantly better than con"]

    def test_floor_fails_c(self):
        spread, con = self._hits(300, 60, 0)
        checks, _ = _ordering_verdict({"con": con, "negcon": spread.copy(), "spread": spread})
        assert not checks[f"spread mean >= {SPREAD_FLOOR}"]
        assert checks["spread significantly better than con"]


def _train_benchmark(objective, seed):
    """One criterion-4 training run at module level, so a spawned worker can import it."""
    ds, _, _ = synth_generate(benchmark_synth(seed))
    model, history, result, (_, _, test_ds) = train_on_split(ds, benchmark_train_config(objective), seed)
    return model, history, result, test_ds


@pytest.mark.slow
class TestCriterion4LossOrdering:
    def test_ordering(self, monkeypatch):
        objectives = ("con", "negcon", "spread")
        jobs = [(objective, seed) for objective in objectives for seed in BENCHMARK_SEEDS]
        # Each run depends only on its (objective, seed), so the nine run in
        # worker processes with one BLAS thread each; the BLAS thread count does
        # not change their bits. A worker's error re-raises here with its traceback.
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        workers = min(len(os.sched_getaffinity(0)), 3)
        with ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("spawn")) as pool:
            runs = dict(zip(jobs, pool.map(_train_benchmark, *zip(*jobs))))
        hits = {}
        rows = []
        recalls = []
        for objective in objectives:
            per_seed = []
            for seed in BENCHMARK_SEEDS:
                model, history, result, test_ds = runs[objective, seed]
                seed_hits = evalkit.binary_hits(
                    model.encode_vision(test_ds.images),
                    model.encode_language(test_ds.positives),
                    model.encode_language(test_ds.negatives),
                )
                assert float(np.mean(seed_hits)) == result.recall_binary, (objective, seed)
                per_seed.append(seed_hits)
                rows.append(
                    f"{objective:>7} {seed:>5} {result.recall_binary:>7.4f} {history.best_epoch!s:>5} "
                    f"{history.stop_epoch:>5} {history.stop_reason}"
                )
            # Each seed's test split has the same size, so the pooled mean is
            # the three-seed mean of recall_binary.
            hits[objective] = np.concatenate(per_seed)
            recalls.append(f"{objective} " + "/".join(f"{np.mean(h):.3f}" for h in per_seed))
        checks, detail = _ordering_verdict(hits)
        table = "\n".join([f"{'obj':>7} {'seed':>5} {'recall':>7} {'best':>5} {'stop':>5} reason", *rows])
        failed = [name for name, ok in checks.items() if not ok]
        assert not failed, f"criterion-4 failed: {failed}\n{detail}\n{table}"
        report(
            "criterion-4",
            f"test recall seeds {'/'.join(map(str, BENCHMARK_SEEDS))}: {', '.join(recalls)}; {detail}; "
            f"sign tests at {SIGN_TEST_LEVEL} over {len(hits['spread'])} paired queries",
        )
        print(table)


# -------------------------------------------------------------------------
# criterion 5: exact loss values
# -------------------------------------------------------------------------


class TestCriterion5ExactLossValues:
    def test_exact_values(self):
        n, d = 6, 8
        row = RngStream(0).gaussian(1, d)
        uniform = np.tile(row, (n, 1))
        con_val = losses.alignment_grads("con", uniform, uniform.copy(), None, 0.0, SIM)[0]
        assert abs(con_val - math.log(n - 1)) <= 1e-9

        ctx = losses.alignment_grads("spread", uniform, uniform.copy(), uniform.copy(), 1.0, SIM)[5]["contextnce"]
        assert abs(ctx - math.log(2)) <= 1e-12

        r = RngStream(1)
        zv, zlp, zln = r.gaussian(n, d), r.gaussian(n, d), r.gaussian(n, d)
        concon = losses.alignment_grads("spread", zv, zlp, zln, 0.5, SIM)[5]["concon"]
        at_0 = losses.alignment_grads("spread", zv, zlp, zln, 0.0, SIM)[5]
        at_1 = losses.alignment_grads("spread", zv, zlp, zln, 1.0, SIM)[5]
        assert at_0["spread_vl"] == concon
        assert at_1["spread_vl"] == at_1["contextnce"]
        report(
            "criterion-5",
            f"uniform con = log(N-1) ({con_val:.12f}), contextNCE = log 2 ({ctx:.15f}), "
            "spread-VL endpoints bit-equal to concon/contextnce",
        )


# -------------------------------------------------------------------------
# criterion 6: chance baselines
# -------------------------------------------------------------------------


class TestCriterion6ChanceBaselines:
    def test_chance(self):
        r = RngStream(2024)
        n = 2000
        zv = r.gaussian(n, 16)
        zlp = r.gaussian(n, 16)
        zln = r.gaussian(n, 16)
        binary = recall_binary(zv, zlp, zln)
        five = recall_5way(zv, zlp, zln, RngStream(7))
        assert abs(binary - 0.5) <= 0.03
        assert abs(five - 0.2) <= 0.03
        report("criterion-6", f"chance binary={binary:.4f} (0.5 +/- 0.03), 5way={five:.4f} (0.2 +/- 0.03)")


# -------------------------------------------------------------------------
# criterion 7: schedules and clipping
# -------------------------------------------------------------------------


class TestCriterion7SchedulesClipping:
    def test_schedules_and_clip(self):
        cfg = LossConfig()
        assert losses.lambda_schedule(0, 100, cfg) == 1.0
        assert losses.lambda_schedule(100, 100, cfg) == pytest.approx(0.1, abs=1e-15)
        assert cosine_lr(0, 100, 1e-3, 1e-5) == 1e-3
        assert cosine_lr(100, 100, 1e-3, 1e-5) == pytest.approx(1e-5, abs=1e-18)

        worst = 0.0
        for seed in range(10):
            grads = RngStream(seed).gaussian(4, 4).ravel() * (seed + 0.2)
            before = global_grad_norm(grads)
            clip_grad_norm(grads, 1.0)
            worst = max(worst, abs(global_grad_norm(grads) - min(before, 1.0)))
        assert worst <= 1e-12
        report(
            "criterion-7",
            f"lambda endpoints exact, cosine endpoints exact, post-clip norm dev {worst:.1e} <= 1e-12",
        )


# -------------------------------------------------------------------------
# criterion 8: determinism, I/O round trip, early stopping trace
# -------------------------------------------------------------------------


class TestCriterion8Determinism:
    def test_determinism_and_io(self, tmp_path):
        ds, _, _ = synth_generate(SynthConfig(n=80, d_v=16, d_l=20, seed=3))
        tr, va, _ = split_dataset(ds, seed=3)
        cfg = TrainConfig(
            ae_cfg_vision=AutoencoderConfig(16, [12], 8, dropout=0.1),
            ae_cfg_language=AutoencoderConfig(20, [12], 8, dropout=0.1),
            epochs=10,
            batch_size=8,
            validate_every=5,
        )
        m1, h1 = train(tr, va, cfg, seed=42)
        m2, h2 = train(tr, va, cfg, seed=42)
        h1_json = json.dumps(asdict(h1), sort_keys=True)
        assert h1_json == json.dumps(asdict(h2), sort_keys=True)
        p1, p2 = m1.vision_ae.parameters(), m2.vision_ae.parameters()
        assert all(np.array_equal(p1[k], p2[k]) for k in p1)
        assert m1.log_scale == m2.log_scale

        m = RngStream(5).gaussian(17, 9)
        path = tmp_path / "round.jemb"
        write_embeddings(path, m, "f64")
        assert np.array_equal(read_embeddings(path), m)
        write_embeddings(tmp_path / "round2.jemb", read_embeddings(path), "f64")
        assert path.read_bytes() == (tmp_path / "round2.jemb").read_bytes()

        stopper = EarlyStopping(patience=5)
        stops = [stopper.update(s)[1] for s in [0.6, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7]]
        assert stops == [False] * 6 + [True]
        report(
            "criterion-8",
            "bit-identical histories+params across reruns; JEMB round trip bit-exact; "
            "patience trace stops at validation 7",
        )
