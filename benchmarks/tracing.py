"""Per-layer tracing for the benchmark, installed only in traced runs.

The tracer wraps the public functions and methods of each staytime module in
place: every module-level binding of a wrapped function, in every staytime
module, is swapped for the wrapper, and methods are swapped on their class.
Wrappers record spans (name, start, end, parent, phase) in memory while a
phase is open and pass calls straight through otherwise.  `uninstall`
restores every original binding.

A layer metric named `<module>.<thing>_s` is the inclusive time of its spans;
`_self_s` metrics subtract the time covered by direct child spans.
"""

from __future__ import annotations

import functools
import json
import os
import sys
import time
import tracemalloc
from collections import Counter
from pathlib import Path

MB = 2.0**20

# (module, attribute, span name); a span name of None counts calls only.
# Mlp.forward/backward get their span name from the network: the state
# network g ends in a softmax, the predictor f does not.
TARGETS = (
    ("nn", "Mlp.forward", "nn.{net}_forward"),
    ("nn", "Mlp.backward", "nn.{net}_backward"),
    ("nn", "adam_step", "nn.adam_step"),
    ("training", "train_model", "training.train_model"),
    ("training", "squared_loss", "training.loss"),
    ("training", "combined_loss", "training.loss"),
    ("training", "TrainedModel.features", "training.features"),
    ("representation", "compute_ctr_batch", "representation.compute_ctr_batch"),
    ("states", "SegmentGrid.one_hot", "states.one_hot"),
    ("states", "KernelBasisSet.weights", "states.kernel_weights"),
    ("evaluation", "c_index", "evaluation.c_index"),
    ("evaluation", "kfold_cv", "evaluation.kfold_cv"),
    ("reports", "comparison_csv", "reports.render"),
    ("reports", "period_csv", "reports.render"),
    ("reports", "render_bar_chart", "reports.render"),
    ("reports", "render_period_chart", "reports.render"),
    ("data_io", "read_dataset", "data_io.read_dataset"),
    ("data_io", "write_dataset", "data_io.write_dataset"),
    ("data_io", "atomic_write_text", None),
    ("data_io", "atomic_write_bytes", None),
    ("checkpoint", "load_checkpoint", "checkpoint.load"),
    ("checkpoint", "save_checkpoint", "checkpoint.save"),
    ("synthgen", "generate", "synthgen.generate"),
)

# metric name -> span name whose inclusive time it sums
INCLUSIVE = {
    "nn.g_forward_s": "nn.g_forward",
    "nn.g_backward_s": "nn.g_backward",
    "nn.f_forward_s": "nn.f_forward",
    "nn.f_backward_s": "nn.f_backward",
    "nn.adam_step_s": "nn.adam_step",
    "training.train_model_s": "training.train_model",
    "training.loss_s": "training.loss",
    "training.features_s": "training.features",
    "representation.compute_ctr_batch_s": "representation.compute_ctr_batch",
    "states.one_hot_s": "states.one_hot",
    "states.kernel_weights_s": "states.kernel_weights",
    "evaluation.c_index_s": "evaluation.c_index",
    "reports.render_s": "reports.render",
    "data_io.read_dataset_s": "data_io.read_dataset",
    "data_io.write_dataset_s": "data_io.write_dataset",
    "checkpoint.load_s": "checkpoint.load",
    "checkpoint.save_s": "checkpoint.save",
    "synthgen.generate_s": "synthgen.generate",
}
SELF = {
    "training.self_s": "training.train_model",
    "evaluation.kfold_cv_self_s": "evaluation.kfold_cv",
}
COUNTS = (
    "nn.forward_calls", "training.epochs", "training.batches", "training.fits",
    "evaluation.c_index_calls", "data_io.bytes_read", "data_io.bytes_written",
)
DATASET_FILES = ("manifest.json", "labels.csv", "observations.csv", "demographics.csv")


class Tracer:
    """Spans and counters for one traced run.  Phases are "setup" and
    "round"; outside a phase the wrappers record nothing."""

    def __init__(self):
        self.spans = []       # [name, start, end, parent index, phase]
        self.stack = []
        self.counts = {"setup": Counter(), "round": Counter()}
        self.peak_bytes = {"setup": 0, "round": 0}
        self.phase = None
        self.rounds = 0
        self.t0 = time.perf_counter()
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        for module_name, attr, span in TARGETS:
            module = sys.modules[f"staytime.{module_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(original, span, attr))
                self._undo.append((cls, meth, original))
            else:
                original = getattr(module, attr)
                wrapper = self._wrap(original, span, attr)
                for mod_name, mod in list(sys.modules.items()):
                    if mod_name != "staytime" and not mod_name.startswith("staytime."):
                        continue
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, key, wrapper)
                            self._undo.append((mod, key, original))

    def uninstall(self):
        if tracemalloc.is_tracing():
            tracemalloc.stop()
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- recording ------------------------------------------------------

    def _wrap(self, fn, span, attr):
        tracer = self
        before, after = _HOOKS.get(attr, (None, None))
        by_net = None
        if span is not None and "{net}" in span:
            by_net = {"softmax": span.format(net="g"), "identity": span.format(net="f")}

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            phase = tracer.phase
            if phase is None:
                return fn(*args, **kwargs)
            name = span if by_net is None else by_net[args[0].out_activation]
            if before is not None:
                before(tracer, phase, args)
            if name is None:
                result = fn(*args, **kwargs)
            else:
                idx = len(tracer.spans)
                parent = tracer.stack[-1] if tracer.stack else -1
                tracer.spans.append([name, 0.0, 0.0, parent, phase])
                tracer.stack.append(idx)
                start = time.perf_counter()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    end = time.perf_counter()
                    tracer.stack.pop()
                    tracer.spans[idx][1] = start
                    tracer.spans[idx][2] = end
            if after is not None:
                after(tracer, phase, args, result)
            return result

        return wrapper

    # -- aggregation ----------------------------------------------------

    def child_time(self):
        """Time covered by each span's direct children, by span index."""
        covered = [0.0] * len(self.spans)
        for name, start, end, parent, phase in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        return covered

    def metrics(self, overhead_s: float) -> dict:
        """Per-layer figures for one set-up plus one timed round (the mean
        over the traced rounds)."""
        weight = {"setup": 1.0, "round": 1.0 / max(self.rounds, 1)}
        covered = self.child_time()
        inclusive = Counter()
        self_time = Counter()
        for i, (name, start, end, parent, phase) in enumerate(self.spans):
            inclusive[name] += (end - start) * weight[phase]
            self_time[name] += (end - start - covered[i]) * weight[phase]
        out = {}
        for metric, span in INCLUSIVE.items():
            out[metric] = {"value": float(inclusive[span]), "unit": "s"}
        for metric, span in SELF.items():
            out[metric] = {"value": float(self_time[span]), "unit": "s"}
        for metric in COUNTS:
            value = float(sum(self.counts[p][metric] * weight[p] for p in weight))
            unit = "bytes" if metric.startswith("data_io.bytes") else "count"
            out[metric] = {"value": value, "unit": unit}
        out["evaluation.c_index_peak_mb"] = {
            "value": max(self.peak_bytes.values()) / MB, "unit": "MB",
        }
        out["trace.overhead_s"] = {"value": overhead_s, "unit": "s"}
        return out

    def children_within_parents(self, name: str) -> bool:
        """Whether the direct children of every `name` span sum to no more
        than the span itself."""
        covered = self.child_time()
        return all(
            covered[i] <= end - start
            for i, (n, start, end, parent, phase) in enumerate(self.spans)
            if n == name
        )

    def write(self, path: Path):
        """Spans as JSON lines: name, start and duration in seconds from the
        tracer's creation, parent span index (-1 for none), phase."""
        with open(path, "w", encoding="utf-8") as fh:
            for name, start, end, parent, phase in self.spans:
                fh.write(json.dumps([name, round(start - self.t0, 9),
                                     round(end - start, 9), parent, phase]))
                fh.write("\n")


def _count_forward(tracer, phase, args):
    tracer.counts[phase]["nn.forward_calls"] += 1


def _count_batch(tracer, phase, args):
    tracer.counts[phase]["training.batches"] += 1


def _count_fit(tracer, phase, args, model):
    tracer.counts[phase]["training.fits"] += 1
    tracer.counts[phase]["training.epochs"] += len(model.history)


def _start_malloc(tracer, phase, args):
    tracer.counts[phase]["evaluation.c_index_calls"] += 1
    # a call that raised never reached _stop_malloc
    if tracemalloc.is_tracing():
        tracemalloc.stop()
    tracemalloc.start()


def _stop_malloc(tracer, phase, args, result):
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    tracer.peak_bytes[phase] = max(tracer.peak_bytes[phase], peak)


def _count_read(tracer, phase, args, result):
    directory = Path(args[0])
    tracer.counts[phase]["data_io.bytes_read"] += sum(
        os.path.getsize(directory / f) for f in DATASET_FILES if (directory / f).exists()
    )


def _count_write(tracer, phase, args, result):
    tracer.counts[phase]["data_io.bytes_written"] += os.path.getsize(args[0])


# attribute -> (called before the span with args, called after it with the result)
_HOOKS = {
    "Mlp.forward": (_count_forward, None),
    "squared_loss": (_count_batch, None),
    "combined_loss": (_count_batch, None),
    "train_model": (None, _count_fit),
    "c_index": (_start_malloc, _stop_malloc),
    "read_dataset": (None, _count_read),
    "atomic_write_text": (None, _count_write),
    "atomic_write_bytes": (None, _count_write),
}
