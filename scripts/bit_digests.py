#!/usr/bin/env python3
"""Print what each benchmark workload trained: the checkpoint's SHA-256, the
SHA-256 of the per-epoch history (sorted-key JSON), the stop reason and the
held-out recalls after one set-up and one round at a seed.

    python3 scripts/bit_digests.py --seed 5

Two checkouts that print the same lines train, record and score the same
bits on this numpy/OpenBLAS build. The workloads and their sizes are
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

import workloads  # noqa: E402


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, required=True)
    args = parser.parse_args()
    for name, workload in workloads.WORKLOADS.items():
        with tempfile.TemporaryDirectory() as workdir:
            pipeline = workload()
            record = pipeline.round(pipeline.setup(args.seed, workdir))
        epochs = json.dumps(record["epochs"], sort_keys=True).encode("utf-8")
        print(f"{name}: checkpoint_sha256={record['checkpoint_sha256']} "
              f"epochs_sha256={hashlib.sha256(epochs).hexdigest()} "
              f"stop_reason={record['stop_reason']} "
              f"recall_binary={record['recall_binary']!r} recall_5way={record['recall_5way']!r}",
              flush=True)


if __name__ == "__main__":
    main()
