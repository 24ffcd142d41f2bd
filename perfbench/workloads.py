"""The benchmark's three workloads, each driven through the public `jam` API.

Every workload runs the same operation, the whole JAM pipeline a user runs:
an alignment report on a frozen pair (`jam metrics`), a training job that
ends in ``save_jam`` (`jam train`), then ``load_jam``, reading a held-out
query set from disk and ``evaluate`` (`jam eval`). The workloads differ in
the sizes, and so in where the time goes. Every end-to-end and per-layer
metric is therefore measured on every workload; each workload is named
after the phase it puts under load.

* preset-train-eval: training at the planted benchmark preset, where per-
  tensor Python overhead (AdamW, clipping) dominates a batch-32 step, and a
  20 000-query held-out evaluation that puts encode, file reading and
  Recall@1 under real load. The report is the n=500 metric screen.
* large-batch-train: the same trainer at batch 1024 and wider layers, where
  matmuls and the loss dominate. An optimiser-overhead change should move
  the first workload and leave this one alone; a loss or matmul change
  should do the opposite.
* metric-report: the three-setting alignment report at n=2000, the O(n^2)
  Gram / O(n^3) eigendecomposition work, beside a short preset-width job.

A round is one operation. Every call into `jam` goes through the module
attribute (``trainer.train``, not a name bound at import), so the traced
run's wrappers see it.
"""

from __future__ import annotations

import hashlib
import json
import os
import statistics
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from jam import embed_io, evalkit, metrics, presets, trainer
from jam.numkit import RngStream

import checks
from tracing import PER_LAYER

clock = time.perf_counter


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def _consumed_per_epoch(n: int, batch: int) -> int:
    # the trainer skips a 1-row tail batch (no contrastive denominator)
    return n - 1 if n % batch == 1 else n


class Pipeline:
    """Report, train, save, load, read held-out queries, evaluate."""

    name: str
    SIZES: dict
    end_to_end = ("setup_s", "train_samples_per_s", "eval_queries_per_s", "report_s",
                  "checkpoint_bytes", "peak_rss_mb")
    per_layer = tuple(PER_LAYER)

    def __init__(self, size="full"):
        self.size = self.SIZES[size]

    def _train_config(self, d_v, d_l):
        s = self.size
        validations = s["epochs"] // s["validate_every"]
        base = presets.benchmark_train_config("spread")
        return replace(
            base,
            ae_cfg_vision=replace(base.ae_cfg_vision, input_dim=d_v, hidden_dims=list(s["hidden"]),
                                  latent_dim=s["latent"]),
            ae_cfg_language=replace(base.ae_cfg_language, input_dim=d_l, hidden_dims=list(s["hidden"]),
                                    latent_dim=s["latent"]),
            epochs=s["epochs"],
            batch_size=s["batch"],
            validate_every=s["validate_every"],
            # more patience than validations: early stopping cannot end the job
            patience=validations + 1,
        )

    def setup(self, seed: int, workdir) -> dict:
        s = self.size
        screen = replace(presets.metric_screen_synth(seed), n=s["report_n"])
        pair, easy, _ = embed_io.synth_generate(screen)
        synth = replace(presets.benchmark_synth(seed), n=s["pool"] + s["heldout"],
                        d_v=s["d_v"], d_l=s["d_l"])
        ds, _, _ = embed_io.synth_generate(synth)
        train_ds, val_ds, _ = embed_io.split_dataset(ds.subset(np.arange(s["pool"])), seed=seed)
        held = ds.subset(np.arange(s["pool"], s["pool"] + s["heldout"]))
        workdir = Path(workdir)
        files = {}
        for key in ("images", "positives", "negatives"):
            files[key] = f"heldout_{key}.jemb"
            embed_io.write_embeddings(workdir / files[key], getattr(held, key))
        manifest = workdir / "heldout.json"
        manifest.write_text(json.dumps({**files, "n": held.n}), encoding="utf-8")
        return {
            "seed": seed, "workdir": workdir,
            "views": {
                metrics.SETTING_MATCH: (pair.images, pair.positives),
                metrics.SETTING_EASY: (pair.images, easy),
                metrics.SETTING_HARD: (pair.images, pair.negatives),
            },
            "train": train_ds, "val": val_ds, "manifest": manifest, "heldout": held,
            "cfg": self._train_config(s["d_v"], s["d_l"]),
        }

    def round(self, state) -> dict:
        # drop the previous job's models first, as a user running jobs one
        # after another would; they would otherwise count in peak_rss_mb
        state.pop("model", None)
        state.pop("loaded", None)
        views = state["views"]
        start = clock()
        report = metrics.alignment_report(views[metrics.SETTING_MATCH][0], views[metrics.SETTING_MATCH][1],
                                          views[metrics.SETTING_EASY][1], views[metrics.SETTING_HARD][1])
        report_s = clock() - start

        cfg, seed = state["cfg"], state["seed"]
        start = clock()
        model, history = trainer.train(state["train"], state["val"], cfg, seed=seed)
        train_s = clock() - start
        path = Path(state["workdir"]) / "model.jckp"
        trainer.save_jam(path, model, cfg, seed)
        state["model"] = model

        start = clock()
        loaded, _ = trainer.load_jam(path)
        queries = embed_io.load_paired_dataset(state["manifest"])
        result = trainer.evaluate(loaded, queries, seed=seed)
        eval_s = clock() - start
        state["loaded"] = loaded
        return {
            "report_s": report_s,
            "report": report,
            "train_s": train_s,
            "samples": history.stop_epoch * _consumed_per_epoch(state["train"].n, cfg.batch_size),
            "checkpoint_bytes": os.path.getsize(path),
            "checkpoint_sha256": _digest(path),
            "epochs": history.epochs,
            "stop_reason": history.stop_reason,
            "eval_s": eval_s,
            "queries": result.n_queries,
            "recall_binary": result.recall_binary,
            "recall_5way": result.recall_5way,
            "result": result,
        }

    def measure(self, records) -> dict:
        return {
            "train_samples_per_s": statistics.median(r["samples"] / r["train_s"] for r in records),
            "eval_queries_per_s": statistics.median(r["queries"] / r["eval_s"] for r in records),
            "report_s": statistics.median(r["report_s"] for r in records),
            "checkpoint_bytes": statistics.median(r["checkpoint_bytes"] for r in records),
        }

    def check(self, state, records) -> list:
        failures = []
        report = records[-1]["report"]
        cfg = metrics.MetricConfig(**report.config)
        failures += checks.check_report(state["views"], report.scores, cfg.knn_k, cfg.pca_r)

        for i, rec in enumerate(records):
            failures += [f"job {i}: {m}" for m in
                         checks.check_training(rec["epochs"], self.size["epochs"], rec["stop_reason"])]
        failures += checks.check_identical([r["checkpoint_sha256"] for r in records], "checkpoint")

        held, model, loaded, seed = state["heldout"], state["model"], state["loaded"], state["seed"]
        rows = np.arange(min(self.size["latent_rows"], held.n))
        failures += checks.check_bit_equal(
            model.encode_vision(held.images[rows]), loaded.encode_vision(held.images[rows]),
            "vision latents after reload")
        failures += checks.check_bit_equal(
            model.encode_language(held.positives[rows]), loaded.encode_language(held.positives[rows]),
            "language latents after reload")
        latents = (loaded.encode_vision(held.images), loaded.encode_language(held.positives),
                   loaded.encode_language(held.negatives))
        # a fresh stream with evaluate's seed reproduces its distractor draws
        distractors = evalkit.sample_distractors(held.n, RngStream(seed))
        result = records[-1]["result"]
        if result.n_queries != held.n:
            failures.append(f"evaluate scored {result.n_queries} of {held.n} queries")
        failures += checks.check_retrieval(latents, distractors, result.recall_binary,
                                           result.recall_5way, self.size["recall_floor"])
        return failures


# The preset architecture; `metric-report` trains it briefly.
_PRESET = dict(d_v=64, d_l=96, hidden=(128, 128), latent=32, batch=32)


class PresetTrainEval(Pipeline):
    name = "preset-train-eval"
    SIZES = {
        "full": dict(_PRESET, report_n=500, pool=1000, epochs=10, validate_every=5, heldout=20000,
                     recall_floor=0.6, latent_rows=2000),
        "toy": dict(_PRESET, report_n=200, pool=300, epochs=4, validate_every=2, heldout=400,
                    recall_floor=0.5, latent_rows=100),
    }


class LargeBatchTrain(Pipeline):
    name = "large-batch-train"
    # pool 5852 leaves 4096 training rows, four full batches of 1024
    SIZES = {
        "full": dict(report_n=500, pool=5852, d_v=384, d_l=512, hidden=(256, 256), latent=64, batch=1024,
                     epochs=2, validate_every=2, heldout=2000, recall_floor=0.5, latent_rows=500),
        "toy": dict(report_n=200, pool=600, d_v=48, d_l=64, hidden=(32, 32), latent=16, batch=128,
                    epochs=2, validate_every=2, heldout=200, recall_floor=0.5, latent_rows=100),
    }


class MetricReport(Pipeline):
    name = "metric-report"
    SIZES = {
        "full": dict(_PRESET, report_n=2000, pool=1000, epochs=4, validate_every=2, heldout=2000,
                     recall_floor=0.5, latent_rows=500),
        "toy": dict(_PRESET, report_n=200, pool=300, epochs=4, validate_every=2, heldout=200,
                    recall_floor=0.5, latent_rows=100),
    }


WORKLOADS = {w.name: w for w in (PresetTrainEval, LargeBatchTrain, MetricReport)}
