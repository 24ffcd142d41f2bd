#!/usr/bin/env python3
"""Run one benchmark workload against the `jam` sources of this checkout.

    python3 perfbench/run.py --workload preset-train-eval --seed 1 --seconds 30 --trace 0

Sets the workload up from the seed (five times, reporting the median set-up
time), runs whole rounds of its operation for about ``--seconds`` seconds
(at least two), checks the outputs, and prints one JSON object as the last
line of standard output. ``--trace 0``
reports the end-to-end metrics; ``--trace 1`` wraps the layer boundaries
and reports the per-layer metrics instead, printing the end-to-end figures
measured under tracing on the line before. Results and the environment
stamp are appended to ``perfbench/out/results.jsonl``; traced runs write
their spans to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 5
# Two same-seed training jobs show the checkpoint repeats bit for bit, and
# every time metric is a median over at least two rounds.
MIN_ROUNDS = 2

_NPROC = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
# OpenBLAS reads this once, when numpy loads it. One BLAS thread unless the
# caller sets it: on a shared 2-core host, two threads made the n=2000 report
# 20% faster but spread its time about four times wider within one process.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

UNITS = {
    "setup_s": "s",
    "train_samples_per_s": "1/s",
    "eval_queries_per_s": "1/s",
    "report_s": "s",
    "checkpoint_bytes": "bytes",
    "peak_rss_mb": "MB",
}


def _openblas_runtime() -> dict:
    """OpenBLAS core type and configuration as the loaded library reports them."""
    import ctypes

    import numpy

    out = {"openblas_corename": "unknown", "openblas_config": "unknown"}
    libs = sorted((Path(numpy.__file__).parent.parent / "numpy.libs").glob("*openblas*.so*"))
    if not libs:
        return out
    lib = ctypes.CDLL(str(libs[0]))
    for key, stem in (("openblas_corename", "get_corename"), ("openblas_config", "get_config")):
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                fn = getattr(lib, f"{prefix}_{stem}{suffix}", None)
                if fn is not None:
                    fn.restype = ctypes.c_char_p
                    out[key] = fn().decode()
                    break
            if out[key] != "unknown":
                break
    return out


def environment() -> dict:
    """What decides the bits and the speed: numbers from different BLAS
    kernels are not comparable."""
    import platform

    import numpy

    stamp = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": _NPROC,
    }
    for var in ("OPENBLAS_NUM_THREADS", "OPENBLAS_CORETYPE", "JAM_THREADS"):
        stamp[var] = os.environ.get(var)
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        stamp["blas_build"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        stamp["blas_build"] = "unknown"
    try:
        stamp.update(_openblas_runtime())
    except OSError:
        pass
    return stamp


def run_workload(workload, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set up, run timed rounds, check; returns the result and its details."""
    from jam.errors import JamError

    from tracing import Tracer, install_jam_wrappers, per_layer_metrics

    setup_times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        state = workload.setup(seed, workdir)
        setup_times.append(time.perf_counter() - start)

    tracer = Tracer() if trace else None
    records, attempted, errors = [], 0, []
    if tracer:
        install_jam_wrappers(tracer)
    try:
        start = time.perf_counter()
        while True:
            if tracer:
                tracer.operation = attempted
            began = time.perf_counter()
            attempted += 1
            try:
                records.append(workload.round(state))
            except JamError as exc:
                errors.append(f"operation {attempted - 1}: {type(exc).__name__}: {exc}")
            now = time.perf_counter()
            # start another round only if it should end within the run length
            if attempted >= MIN_ROUNDS and now - start + (now - began) > seconds:
                break
    finally:
        if tracer:
            tracer.uninstall()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    if not records:
        raise RuntimeError("no operation succeeded: " + "; ".join(errors))
    failures = workload.check(state, records)
    end_to_end = {"setup_s": statistics.median(setup_times), "peak_rss_mb": peak_rss_mb, **workload.measure(records)}
    end_to_end = {name: end_to_end[name] for name in workload.end_to_end}
    details = {
        "workload": workload.name,
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "setup_times_s": setup_times,
        "end_to_end": end_to_end,
        "rounds": [{k: v for k, v in r.items() if isinstance(v, (int, float))} for r in records],
        "check_failures": failures,
        "errors": errors,
    }
    metrics = {name: {"value": value, "unit": UNITS[name]} for name, value in end_to_end.items()}
    if tracer:
        metrics = per_layer_metrics(tracer, workload.per_layer, max(len(records), 1))
        details["tracer"] = tracer
    result = {"correct": not failures, "attempted": attempted, "failed": len(errors), "metrics": metrics}
    return {"result": result, "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "jam" / "__init__.py").is_file():
        print(f"no jam sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}",
              file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        out = run_workload(workloads.WORKLOADS[args.workload](), args.seed, args.seconds,
                           bool(args.trace), workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    details, result = out["details"], out["result"]
    tracer = details.pop("tracer", None)
    if tracer is not None:
        spans = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write_spans(spans)
        details["spans_file"] = spans.name
    for message in details["check_failures"] + details["errors"]:
        print(f"FAILED: {message}", flush=True)
    with open(OUT / "results.jsonl", "a", encoding="utf-8") as fh:
        fh.write(json.dumps({**details, "env": env, "result": result}, sort_keys=True) + "\n")
    print("e2e " + json.dumps(details["end_to_end"], sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
