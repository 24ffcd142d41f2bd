"""Fast tests of the benchmark: every workload at toy size, and every
correctness check failing on a corrupted output.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from jam import embed_io, evalkit, metrics, presets  # noqa: E402
from jam.numkit import RngStream  # noqa: E402


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_runs_at_toy_size(name, trace, tmp_path):
    workload = workloads.WORKLOADS[name]("toy")
    out = run.run_workload(workload, seed=3, seconds=0.01, trace=trace, workdir=tmp_path)
    result = out["result"]
    assert out["details"]["check_failures"] == []
    assert result["correct"] is True
    assert result["failed"] == 0
    assert result["attempted"] == run.MIN_ROUNDS
    expected = workload.per_layer if trace else workload.end_to_end
    assert list(result["metrics"]) == list(expected)
    # every layer is under load on every workload, so nothing reads 0
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_every_workload_reports_every_manifest_metric():
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in manifest["workloads"]] == list(workloads.WORKLOADS)
    end_to_end = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    assert end_to_end == run.UNITS
    for workload in workloads.WORKLOADS.values():
        assert set(workload.end_to_end) == set(end_to_end)
        assert set(workload.per_layer) == {m["name"] for m in manifest["per_layer"]}


# ----------------------------------------------------------------- report


@pytest.fixture(scope="module")
def report_case():
    ds, easy, _ = embed_io.synth_generate(presets.metric_screen_synth(3))
    report = metrics.alignment_report(ds.images, ds.positives, easy, ds.negatives)
    views = {
        metrics.SETTING_MATCH: (ds.images, ds.positives),
        metrics.SETTING_EASY: (ds.images, easy),
        metrics.SETTING_HARD: (ds.images, ds.negatives),
    }
    cfg = metrics.MetricConfig()
    return views, report.scores, cfg.knn_k, cfg.pca_r


def _corrupt(scores, setting, metric, value):
    out = {s: dict(cells) for s, cells in scores.items()}
    out[setting][metric] = value
    return out


def test_report_checks_pass(report_case):
    assert checks.check_report(*report_case) == []


@pytest.mark.parametrize("metric, delta", [("cka", 1e-6), ("cknna", 1e-6), ("cca_linear", 1e-5)])
def test_report_recomputation_catches_corruption(report_case, metric, delta):
    views, scores, k, r = report_case
    bad = _corrupt(scores, "hard_nonmatch", metric, scores["hard_nonmatch"][metric] + delta)
    failures = checks.check_report(views, bad, k, r)
    assert any(f.startswith(f"hard_nonmatch {metric}:") for f in failures)


def test_report_pattern_catches_easy_high(report_case):
    views, scores, k, r = report_case
    bad = _corrupt(scores, "easy_nonmatch", "cka", scores["match"]["cka"])
    assert any("easy" in f and "not below" in f for f in checks.check_report(views, bad, k, r))


def test_report_pattern_catches_hard_low(report_case):
    views, scores, k, r = report_case
    bad = _corrupt(scores, "hard_nonmatch", "cknna", 0.1 * scores["match"]["cknna"])
    assert any("hard" in f and "below 0.5" in f for f in checks.check_report(views, bad, k, r))


def test_reference_formulas_agree_with_definitions():
    rng = np.random.default_rng(0)
    x, y = rng.normal(size=(60, 5)), rng.normal(size=(60, 7))
    # k = n - 1 makes CKNNA equal to CKA; CCA of a view with itself is 1
    assert checks.cknna_by_definition(x, y, 59) == pytest.approx(checks.linear_cka_feature_space(x, y), abs=1e-12)
    assert checks.first_cca_by_qr(x, x @ rng.normal(size=(5, 5)), 5) == pytest.approx(1.0, abs=1e-12)


# --------------------------------------------------------------- training


def _epochs(totals):
    return [{"total": t} for t in totals]


def test_training_check_passes():
    assert checks.check_training(_epochs([3.0, 2.0, 1.0]), 3, "completed") == []


@pytest.mark.parametrize(
    "totals, expected, reason, fragment",
    [
        ([3.0, float("nan"), 1.0], 3, "completed", "non-finite"),
        ([1.0, 2.0, 3.0], 3, "completed", "did not fall"),
        ([3.0, 2.0], 3, "early_stopped", "ran 2 of 3"),
    ],
)
def test_training_check_catches(totals, expected, reason, fragment):
    failures = checks.check_training(_epochs(totals), expected, reason)
    assert any(fragment in f for f in failures)


def test_identical_check():
    assert checks.check_identical(["a", "a"], "checkpoint") == []
    assert checks.check_identical(["a", "b"], "checkpoint")
    assert checks.check_identical(["a"], "checkpoint")


# -------------------------------------------------------------- retrieval


@pytest.fixture(scope="module")
def retrieval_case():
    rng = np.random.default_rng(1)
    zv = rng.normal(size=(300, 8))
    latents = (zv, zv + 0.5 * rng.normal(size=zv.shape), zv + 1.5 * rng.normal(size=zv.shape))
    binary = evalkit.recall_binary(*latents)
    five = evalkit.recall_5way(*latents, RngStream(7))
    distractors = evalkit.sample_distractors(300, RngStream(7))
    return latents, distractors, binary, five


def test_retrieval_check_passes(retrieval_case):
    latents, distractors, binary, five = retrieval_case
    assert binary > 0.6
    assert checks.check_retrieval(latents, distractors, binary, five, 0.6) == []


def test_retrieval_check_catches_wrong_recall(retrieval_case):
    latents, distractors, binary, five = retrieval_case
    assert checks.check_retrieval(latents, distractors, binary + 0.01, five, 0.6)
    assert checks.check_retrieval(latents, distractors, binary, five - 0.01, 0.6)


def test_retrieval_check_catches_floor_and_order(retrieval_case):
    latents, distractors, binary, five = retrieval_case
    assert any("floor" in f for f in checks.check_retrieval(latents, distractors, binary, five, binary + 0.01))
    assert any("above recall_binary" in f
               for f in checks.check_retrieval(latents, distractors, binary, binary + 0.01, 0.6))


@pytest.mark.parametrize(
    "edit, fragment",
    [
        (lambda d: d.__setitem__((4, 0), 4), "equals its query"),
        (lambda d: d.__setitem__((4, 1), d[4, 0]), "repeats"),
        (lambda d: d.__setitem__((4, 2), 300), "out of range"),
    ],
)
def test_distractor_check_catches(retrieval_case, edit, fragment):
    latents, distractors, binary, five = retrieval_case
    bad = distractors.copy()
    edit(bad)
    assert any(fragment in f for f in checks.check_retrieval(latents, bad, binary, five, 0.6))


def test_bit_equal_check():
    a = np.linspace(0.0, 1.0, 10)
    assert checks.check_bit_equal(a, a.copy(), "latents") == []
    b = a.copy()
    b[3] = np.nextafter(b[3], 2.0)
    assert checks.check_bit_equal(a, b, "latents")


# ---------------------------------------------------------------- tracing


def test_tracer_self_time_and_missing_functions():
    calls = []
    space = types.SimpleNamespace(inner=lambda: calls.append("inner"), outer=None)
    space.outer = lambda: space.inner()
    tracer = tracing.Tracer()
    assert tracer.wrap(space, "inner", "nnet.backward", amount=lambda args: 2)
    assert tracer.wrap(space, "outer", "trainer.train")
    assert not tracer.wrap(space, "gone", "nnet.adamw_step")
    space.outer()
    space.outer()
    tracer.uninstall()
    space.outer()
    summary = tracer.summary()
    assert summary["nnet.backward"]["calls"] == 2
    assert summary["nnet.backward"]["amount"] == 4
    outer = summary["trainer.train"]
    assert 0.0 <= outer["self_s"] <= outer["total_s"]
    got = tracing.per_layer_metrics(
        tracer, ["nnet.backward_s", "trainer.train_self_s", "nnet.adamw_step_s"], operations=2)
    assert set(got) == {"nnet.backward_s", "trainer.train_self_s"}
    assert calls == ["inner"] * 3


def test_run_fails_without_program_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "metric-report", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
