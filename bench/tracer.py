"""Span tracer that wraps invsen's public functions from outside the package.

Modules bind names directly (``from .numkit import mlp_backward`` in
``trainer`` and ``sennet``), so replacing ``numkit.mlp_backward`` alone
records nothing for those callers. While a ``Tracer`` is active it rebinds
every module-level name, in every loaded module, that refers to a traced
function; on exit it puts each original back.

Spans are kept in memory (name, start, end, parent, operation id) and
summarised into per-layer metrics by ``layer_metrics`` when the run ends.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import os
import sys
import time
from dataclasses import dataclass, field

import numpy as np

LAYERS = ("numkit", "sennet", "debias", "trainer", "cluster", "evalmetrics",
          "datagen", "cli")


@dataclass
class Span:
    id: int
    name: str
    parent: int | None
    op: int | None
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def traced_functions() -> dict:
    """Public functions defined in each layer module, keyed `layer.name`."""
    out = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"invsen.{layer}")
        for name, obj in vars(mod).items():
            if (inspect.isfunction(obj) and not name.startswith("_")
                    and obj.__module__ == mod.__name__):
                out[f"{layer}.{name}"] = obj
    return out


def _file_size(path) -> int:
    return os.path.getsize(path) if os.path.exists(path) else 0


# Counts recorded at a span's boundary, from its arguments and result. They
# run after the span has closed, so they add to the parent's time only.
COUNTERS = {
    "numkit.adam_step": lambda args, kw, res: {
        "arrays": len(args[1]),
        # reads p, g, m, v and writes m, v, p: seven float64 passes
        "bytes": 7 * 8 * sum(p.size for p in args[1]),
    },
    "sennet.coefficients": lambda args, kw, res: {
        "live": int(res[1]["live"].sum()), "pairs": int(res[1]["live"].size),
    },
    "cluster.build_affinity": lambda args, kw, res: {
        "nonzero": int(_count_nonzero(res)), "cells": int(res.shape[0] * res.shape[1]),
        "bytes": int(_nbytes(res)),
    },
    "trainer.save_checkpoint": lambda args, kw, res: {"bytes": _file_size(args[1])},
    "datagen.save_dataset": lambda args, kw, res: {"bytes": _file_size(args[1])},
}


def _count_nonzero(a) -> int:
    nnz = getattr(a, "nnz", None)
    return nnz if nnz is not None else np.count_nonzero(a)


def _nbytes(a) -> int:
    """Bytes held by a dense or scipy-sparse matrix."""
    if hasattr(a, "data") and hasattr(a, "indices"):
        return a.data.nbytes + a.indices.nbytes + getattr(a, "indptr", a.indices).nbytes
    return a.nbytes


class Tracer:
    """Context manager: rebinds every traced function while active."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._stack: list[Span] = []
        self._patches: list[tuple] = []

    def __enter__(self) -> "Tracer":
        functions = traced_functions()
        wrappers = {id(fn): (fn, self._wrap(name, fn)) for name, fn in functions.items()}
        for mod in list(sys.modules.values()):
            namespace = getattr(mod, "__dict__", None)
            if not isinstance(namespace, dict):
                continue
            for attr, value in list(namespace.items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    namespace[attr] = hit[1]
                    self._patches.append((namespace, attr, value))
        return self

    def __exit__(self, *exc) -> None:
        for namespace, attr, original in reversed(self._patches):
            namespace[attr] = original
        self._patches.clear()

    @contextlib.contextmanager
    def span(self, name: str):
        """Record a harness-level span around the `with` body."""
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self.op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def _wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if counter is not None:
                span.counts = counter(args, kwargs, result)
            return result

        return traced


# ---------------------------------------------------------------------------
# Per-layer metrics from the spans of one traced run
# ---------------------------------------------------------------------------

LOSS_FUNCTIONS = ("debias.cross_entropy_loss", "debias.entropy_confusion_loss",
                  "debias.cross_entropy_grad_logits",
                  "debias.entropy_confusion_grad_logits", "debias.head_accuracy")
GENERATORS = ("datagen.generate", "datagen.make_ood_split", "datagen.make_mixed_domain")
SUBCOMMANDS = {"gen-data": "cli.cmd_gen_data", "train": "cli.cmd_train",
               "evaluate": "cli.cmd_evaluate", "report": "cli.cmd_report"}


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer figures: call counts and self time per training step, mean
    time per call, and the counts recorded at span boundaries. A layer the
    workload never calls reads 0."""
    duration = {s.id: s.end - s.start for s in spans}
    child_time = dict.fromkeys(duration, 0.0)
    step_of: dict[int, int | None] = {}
    for s in spans:  # a parent is always opened before its children
        if s.parent is not None:
            child_time[s.parent] += duration[s.id]
        step_of[s.id] = (s.id if s.name == "trainer.train_step"
                         else step_of.get(s.parent) if s.parent is not None else None)
    self_time = {i: duration[i] - child_time[i] for i in duration}
    by_name: dict[str, list[Span]] = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    steps = len(by_name.get("trainer.train_step", ()))

    def named(*names):
        return [s for n in names for s in by_name.get(n, ())]

    def in_steps(*names):
        return [s for s in named(*names) if step_of[s.id] is not None]

    def per_step(values) -> float:
        return sum(values) / steps if steps else 0.0

    def mean(values) -> float:
        values = list(values)
        return sum(values) / len(values) if values else 0.0

    def ms_self_per_step(*names):
        return 1e3 * per_step(self_time[s.id] for s in in_steps(*names))

    def ms_per_call(*names):
        return 1e3 * mean(duration[s.id] for s in named(*names))

    def ms_self_per_call(*names):
        return 1e3 * mean(self_time[s.id] for s in named(*names))

    def counted(name, key):
        """Values of a count; a call that raised recorded none."""
        return [s.counts[key] for s in by_name.get(name, ()) if key in s.counts]

    def count_total(name, key):
        return sum(counted(name, key))

    def ratio(num, den):
        return num / den if den else 0.0

    epochs = len(by_name.get("trainer.epoch_batches", ()))
    loops = named("trainer.fit", "trainer.resume")
    cmd_spans = named(*SUBCOMMANDS.values())
    m = {
        "numkit.mlp_forward.calls_per_step": per_step(1 for _ in in_steps("numkit.mlp_forward")),
        "numkit.mlp_forward.self_ms_per_step": ms_self_per_step("numkit.mlp_forward"),
        "numkit.mlp_backward.calls_per_step": per_step(1 for _ in in_steps("numkit.mlp_backward")),
        "numkit.mlp_backward.self_ms_per_step": ms_self_per_step("numkit.mlp_backward"),
        "numkit.adam_step.self_ms_per_step": ms_self_per_step("numkit.adam_step"),
        "numkit.adam_step.arrays_per_call": mean(counted("numkit.adam_step", "arrays")),
        "numkit.adam_step.bytes_computed": mean(counted("numkit.adam_step", "bytes")),
        "sennet.se_loss.self_ms_per_step": ms_self_per_step("sennet.se_loss"),
        "sennet.coefficients.self_ms": ms_self_per_call("sennet.coefficients"),
        "sennet.live_frac": ratio(count_total("sennet.coefficients", "live"),
                                  count_total("sennet.coefficients", "pairs")),
        "debias.bias_posterior.self_ms_per_step": ms_self_per_step("debias.bias_posterior"),
        "debias.losses.self_ms_per_step": ms_self_per_step(*LOSS_FUNCTIONS),
        "trainer.train_step.self_ms_per_step": ms_self_per_step("trainer.train_step"),
        "trainer.epoch.self_ms": 1e3 * ratio(sum(self_time[s.id] for s in loops), epochs),
        "trainer.save_checkpoint.ms": ms_per_call("trainer.save_checkpoint"),
        "trainer.load_checkpoint.ms": ms_per_call("trainer.load_checkpoint"),
        "trainer.checkpoint_bytes": mean(counted("trainer.save_checkpoint", "bytes")),
        "cluster.build_affinity.self_ms": ms_self_per_call("cluster.build_affinity"),
        "cluster.normalized_laplacian.ms": ms_per_call("cluster.normalized_laplacian"),
        "cluster.smallest_eigenvectors.ms": ms_per_call("cluster.smallest_eigenvectors"),
        "cluster.kmeans.ms": ms_per_call("cluster.kmeans"),
        "cluster.affinity_density": ratio(count_total("cluster.build_affinity", "nonzero"),
                                          count_total("cluster.build_affinity", "cells")),
        "cluster.affinity_bytes_computed": mean(counted("cluster.build_affinity", "bytes")),
        "evalmetrics.evaluate_labels.ms": ms_per_call("evalmetrics.evaluate_labels"),
        "datagen.generate.ms": ms_per_call(*GENERATORS),
        "datagen.save_dataset.ms": ms_per_call("datagen.save_dataset"),
        "datagen.load_dataset.ms": ms_per_call("datagen.load_dataset"),
        "datagen.dataset_bytes": mean(counted("datagen.save_dataset", "bytes")),
    }
    for sub, fn_name in SUBCOMMANDS.items():
        m[f"cli.{sub}.ms"] = ms_per_call(fn_name)
    m["cli.self_ms"] = 1e3 * mean(self_time[s.id] for s in cmd_spans)
    return m
