"""Outside-in tracing: spans around calls into the public functions of `jam`.

The benchmark wraps functions by replacing them, for the duration of a traced
run, in every namespace that calls them (a module that does
``from .nnet import clip_grad_norm`` holds its own reference, so that name is
wrapped there). Spans stay in memory as (name, start, end, parent, operation)
and are reduced to per-layer self time and counts at the end. A wrapped
function that no longer exists is skipped, so its metrics are absent instead
of failing the run.
"""

from __future__ import annotations

import json
import os
import time
from collections import defaultdict


class Tracer:
    """Records spans and per-span amounts; ``wrap`` installs, ``uninstall`` restores."""

    def __init__(self):
        self.spans = []  # [name, start, end, parent index or None, operation id]
        self.amounts = defaultdict(float)  # rows or bytes, by span name
        self.operation = 0
        self._stack = []
        self._patched = []  # (owner, attr, original)
        self.installed = set()  # span names with at least one wrapped call site

    def _span_wrapper(self, fn, name, amount=None, when=None):
        spans, stack, amounts = self.spans, self._stack, self.amounts
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if when is not None and not when(args, kwargs):
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            if amount is not None:
                amounts[span_name] += amount(args)
            index = len(spans)
            spans.append([span_name, clock(), None, stack[-1] if stack else None, self.operation])
            stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()

        return wrapper

    def wrap(self, owner, attr, name, amount=None, when=None, names=None):
        """Wrap ``owner.attr`` if it exists; returns whether it did.

        ``name`` is a span name or a function of the call's arguments;
        ``names`` lists the span names such a function can give. ``amount``
        adds a number per call (rows, bytes); ``when`` limits spans to the
        calls it accepts.
        """
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None or not callable(original):
            return False
        setattr(owner, attr, self._span_wrapper(original, name, amount, when))
        self._patched.append((owner, attr, original))
        self.installed.update(names or [name])
        return True

    def uninstall(self):
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def summary(self) -> dict:
        """Per span name: calls, total (inclusive) seconds, self seconds."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None and end is not None:
                child_time[parent] += end - start
        out = {}
        for i, (name, start, end, _, _) in enumerate(self.spans):
            if end is None:
                continue
            entry = out.setdefault(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})
            entry["calls"] += 1
            entry["total_s"] += end - start
            entry["self_s"] += end - start - child_time[i]
        for name, entry in out.items():
            entry["amount"] = self.amounts.get(name, 0.0)
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, op in self.spans:
                fh.write(json.dumps({"name": name, "start": start, "end": end,
                                     "parent": parent, "op": op}) + "\n")


def _rows(args):
    return len(args[1])


def _train_mode(args, kwargs):
    mode = args[2] if len(args) > 2 else kwargs.get("mode", "eval")
    return mode == "train"


def _file_bytes(args):
    return os.path.getsize(args[0])


METRIC_CELLS = ("cca_linear", "cca_kernel", "cka", "svcca", "cknna")


def install_jam_wrappers(tracer: Tracer) -> None:
    """Wrap every layer boundary that a per-layer metric reads."""
    from jam import embed_io, evalkit, losses, metrics, nnet, numkit, trainer

    # Eval-mode forward passes run inside `encode`, whose span covers them.
    tracer.wrap(nnet.Autoencoder, "forward", "nnet.forward", amount=_rows, when=_train_mode)
    tracer.wrap(nnet.Autoencoder, "backward", "nnet.backward")
    tracer.wrap(nnet.Autoencoder, "encode", "nnet.encode", amount=_rows)
    tracer.wrap(nnet.AdamW, "step", "nnet.adamw_step")
    tracer.wrap(numkit.RngStream, "uniform", "numkit.rng_uniform")
    tracer.wrap(trainer, "clip_grad_norm", "nnet.clip_grad_norm")
    tracer.wrap(losses, "alignment_grads", "losses.alignment_grads")
    for attr in ("train", "validate", "evaluate", "save_jam", "load_jam"):
        tracer.wrap(trainer, attr, f"trainer.{attr}")
    tracer.wrap(embed_io, "load_paired_dataset", "embed_io.load_paired_dataset")
    tracer.wrap(embed_io, "read_embeddings", "embed_io.read_embeddings", amount=_file_bytes)
    for owner in (trainer, evalkit):
        tracer.wrap(owner, "recall_binary", "evalkit.recall_binary")
        tracer.wrap(owner, "recall_5way", "evalkit.recall_5way")
    tracer.wrap(evalkit, "sample_distractors", "evalkit.sample_distractors")
    # `_metric_cell` is the one boundary that knows which report cell runs.
    tracer.wrap(metrics, "_metric_cell", lambda args: f"metrics.{args[0]}",
                names=[f"metrics.{cell}" for cell in METRIC_CELLS])
    tracer.wrap(metrics, "alignment_report", "metrics.alignment_report")
    tracer.wrap(metrics, "kpca_reduce", "metrics.kpca_reduce")
    tracer.wrap(metrics, "gram", "metrics.gram")
    tracer.wrap(metrics, "center_gram", "metrics.center_gram")
    tracer.wrap(metrics, "sym_eig", "numkit.sym_eig")
    tracer.wrap(metrics, "svd", "numkit.svd")


# metric name -> (span name, what to read). `self_s` is self time, `total_s`
# includes the wrapped calls underneath, `calls` and `amount` are counts. All
# are per operation.
PER_LAYER = {
    "nnet.forward_s": ("nnet.forward", "self_s"),
    "nnet.forward_calls": ("nnet.forward", "calls"),
    "nnet.forward_rows": ("nnet.forward", "amount"),
    "nnet.backward_s": ("nnet.backward", "self_s"),
    "numkit.rng_uniform_s": ("numkit.rng_uniform", "self_s"),
    "nnet.adamw_step_s": ("nnet.adamw_step", "self_s"),
    "nnet.clip_grad_norm_s": ("nnet.clip_grad_norm", "self_s"),
    "trainer.train_self_s": ("trainer.train", "self_s"),
    "losses.alignment_grads_s": ("losses.alignment_grads", "self_s"),
    # validation as a whole, including the encodes and recall inside it
    "trainer.validate_s": ("trainer.validate", "total_s"),
    "trainer.save_jam_s": ("trainer.save_jam", "self_s"),
    "trainer.load_jam_s": ("trainer.load_jam", "self_s"),
    # manifest parsing plus the file reads and checks inside it
    "embed_io.load_paired_dataset_s": ("embed_io.load_paired_dataset", "total_s"),
    "embed_io.bytes_read": ("embed_io.read_embeddings", "amount"),
    "nnet.encode_s": ("nnet.encode", "self_s"),
    "nnet.encode_rows": ("nnet.encode", "amount"),
    "evalkit.recall_binary_s": ("evalkit.recall_binary", "self_s"),
    "evalkit.recall_5way_s": ("evalkit.recall_5way", "self_s"),
    "evalkit.sample_distractors_s": ("evalkit.sample_distractors", "self_s"),
    "metrics.cca_linear_s": ("metrics.cca_linear", "self_s"),
    "metrics.cca_kernel_s": ("metrics.cca_kernel", "self_s"),
    "metrics.cka_s": ("metrics.cka", "self_s"),
    "metrics.svcca_s": ("metrics.svcca", "self_s"),
    "metrics.cknna_s": ("metrics.cknna", "self_s"),
    "metrics.kpca_reduce_s": ("metrics.kpca_reduce", "self_s"),
    "numkit.sym_eig_s": ("numkit.sym_eig", "self_s"),
    "numkit.svd_s": ("numkit.svd", "self_s"),
    "metrics.gram_s": ("metrics.gram", "self_s"),
    "metrics.center_gram_s": ("metrics.center_gram", "self_s"),
    "metrics.center_gram_calls": ("metrics.center_gram", "calls"),
}


def per_layer_metrics(tracer: Tracer, wanted, operations: int) -> dict:
    """The ``wanted`` per-layer metrics whose span was installed, per operation."""
    summary = tracer.summary()
    out = {}
    for metric in wanted:
        span, field = PER_LAYER[metric]
        if span not in tracer.installed:
            continue
        value = summary.get(span, {}).get(field, 0.0) / operations
        unit = "s" if field.endswith("_s") else ("bytes" if metric.endswith("bytes_read") else "count")
        out[metric] = {"value": value, "unit": unit}
    return out
