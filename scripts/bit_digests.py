#!/usr/bin/env python3
"""Print one SHA-256 per alignment objective over `losses.alignment_grads`'
outputs on a seeded batch, one per objective over one `trainer.train_step`,
one over a 300-row preset step, one over the latents of the two preset
autoencoders, then what each
benchmark workload trained: the SHA-256 of the trained
parameter vector's bytes, of the checkpoint file (parameters plus config
metadata), of the per-epoch history and of the alignment report's scores and
errors (each as sorted-key JSON), the stop reason and the held-out recalls
after one set-up and one round at a seed.

    python3 scripts/bit_digests.py --seed 5

Two checkouts that print the same lines compute the same loss bits and
report, train, record and score the same bits on this numpy/OpenBLAS build.
Equal ``params_sha256`` with a different ``checkpoint_sha256`` means only the
checkpoint's metadata differs.
Each loss digest covers the value, every gradient and the parts at alpha 0,
0.25, 0.75 and 1, with and without the positive in the denominator, at a
fixed and at a learnable logit scale, on two seeded batches: 32 rows, and
100 rows, whose 200-text pool is longer than numpy's 128-element pairwise
summation block, so a reordered row sum shows. con runs with and without
``zln``. Each gradient digest covers the total, the parts and the whole
gradient vector of one step of two small autoencoders (dropout on, a
learnable logit scale) on a seeded 32-row batch, so a change to backward
shows in seconds. The step digest covers the same of one step of the
preset model (dropout 0.1) on a seeded 300-row batch, past the rows from
which `nnet.side_by_side` may start a thread. The encode digest covers
`encode_vision` and `encode_language` of a seeded preset model on seeded
2001-row inputs (seven full 256-row blocks and a tail). The step and the
encode each run twice, with the worker rule set to 1 (serial) and to 2
(helper threads), and the script stops if the two digests differ.
The workloads and their sizes are
``perfbench/workloads.WORKLOADS``; their files go to a temporary directory.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
# as in perfbench/run.py: one BLAS thread unless the caller sets it
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from jam import losses, nnet, presets, trainer  # noqa: E402
from jam.nnet import AutoencoderConfig  # noqa: E402
from jam.numkit import RngStream  # noqa: E402


def loss_digests(seed):
    r = RngStream(seed)
    batches = [[r.gaussian(n, 16) for _ in range(3)] for n in (32, 100)]
    scales = ((losses.SimilarityConfig(logit_scale_mode="fixed"), None), (losses.SimilarityConfig(), 2.5))
    for objective in losses.OBJECTIVES:
        digest = hashlib.sha256()
        for zv, zlp, zln in batches:
            for text_negatives in ((zln, None) if objective == "con" else (zln,)):
                for alpha in (0.0, 0.25, 0.75, 1.0):
                    for include_positive in (False, True):
                        for sim_cfg, log_scale in scales:
                            loss_cfg = losses.LossConfig(objective, alpha,
                                                         include_positive_in_denominator=include_positive)
                            value, *grads, d_log_scale, parts = losses.alignment_grads(
                                zv, zlp, text_negatives, loss_cfg, sim_cfg, log_scale)
                            digest.update(repr((value, d_log_scale, parts)).encode("utf-8"))
                            for grad in grads:
                                digest.update(np.ascontiguousarray(grad).tobytes())
        print(f"loss {objective}: sha256={digest.hexdigest()}", flush=True)


def gradient_digests(seed):
    r = RngStream(seed)
    xv, xlp, xln = r.gaussian(32, 16), r.gaussian(32, 20), r.gaussian(32, 20)
    for objective in losses.OBJECTIVES:
        cfg = trainer.TrainConfig(
            ae_cfg_vision=AutoencoderConfig(16, [12, 10], 8, dropout=0.1),
            ae_cfg_language=AutoencoderConfig(20, [12, 10], 8, dropout=0.1),
            loss_cfg=losses.LossConfig(objective=objective, alpha=0.5),
            sim_cfg=losses.SimilarityConfig(logit_scale_mode="learnable"),
        )
        model = trainer.TrainedJAM(cfg, RngStream(seed + 1), RngStream(seed + 2))
        total, grad, parts = trainer.train_step(model, xv, xlp, xln, 0.5, RngStream(seed + 3))
        digest = hashlib.sha256(repr((total, parts)).encode("utf-8"))
        digest.update(grad.tobytes())
        print(f"gradient {objective}: sha256={digest.hexdigest()}", flush=True)


def serial_and_threaded(name, digest_of):
    """Print ``digest_of()``, run with `nnet.parallel_workers` forced to 1
    and to 2; stop the script, printing both digests, if they differ."""
    rule, digests = nnet.parallel_workers, []
    try:
        for workers in (1, 2):
            nnet.parallel_workers = lambda: workers
            digests.append(digest_of())
    finally:
        nnet.parallel_workers = rule
    if digests[0] != digests[1]:
        sys.exit(f"{name}: serial sha256={digests[0]}, threaded sha256={digests[1]}")
    print(f"{name}: sha256={digests[0]}", flush=True)


def step_digest(seed):
    cfg = presets.benchmark_train_config("spread")
    model = trainer.TrainedJAM(cfg, RngStream(seed + 1), RngStream(seed + 2))
    r = RngStream(seed)
    rows = 300  # past the batch from which the vision pass may run on a helper thread
    xv = r.gaussian(rows, cfg.ae_cfg_vision.input_dim)
    d_l = cfg.ae_cfg_language.input_dim
    xlp, xln = r.gaussian(rows, d_l), r.gaussian(rows, d_l)

    def digest_of():
        total, grad, parts = trainer.train_step(model, xv, xlp, xln, 0.5, RngStream(seed + 3))
        digest = hashlib.sha256(repr((total, parts)).encode("utf-8"))
        digest.update(grad.tobytes())
        return digest.hexdigest()

    serial_and_threaded("step", digest_of)


def encode_digest(seed):
    cfg = presets.benchmark_train_config("spread")
    model = trainer.TrainedJAM(cfg, RngStream(seed + 1), RngStream(seed + 2))
    r = RngStream(seed)
    xv, xl = r.gaussian(2001, cfg.ae_cfg_vision.input_dim), r.gaussian(2001, cfg.ae_cfg_language.input_dim)

    def digest_of():
        digest = hashlib.sha256(model.encode_vision(xv).tobytes())
        digest.update(model.encode_language(xl).tobytes())
        return digest.hexdigest()

    serial_and_threaded("encode", digest_of)


def json_sha256(value):
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode("utf-8")).hexdigest()


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    loss_digests(args.seed)
    gradient_digests(args.seed)
    step_digest(args.seed)
    encode_digest(args.seed)
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            pipeline = workload()
            state = pipeline.setup(args.seed, workdir)
            record = pipeline.round(state)
        report = record["report"]
        params_sha256 = hashlib.sha256(state["model"].params.vector.tobytes()).hexdigest()
        print(f"{name}: params_sha256={params_sha256} checkpoint_sha256={record['checkpoint_sha256']} "
              f"epochs_sha256={json_sha256(record['epochs'])} "
              f"report_sha256={json_sha256({'scores': report.scores, 'errors': report.errors})} "
              f"stop_reason={record['stop_reason']} "
              f"recall_binary={record['recall_binary']!r} recall_5way={record['recall_5way']!r}",
              flush=True)


if __name__ == "__main__":
    main()
