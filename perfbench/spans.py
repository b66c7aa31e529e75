"""Outside-in span recorder for the inceptive library.

Nothing under ``src/`` knows about it. ``Tracer.install`` replaces each
watched public function in the namespace of every module that calls it
(``inceptive.head.conv1d_forward``, ``inceptive.encoder.mha_forward``, ...)
and the few watched methods on their classes, with a wrapper that records a
span: name, start, end, parent span and an optional observation taken from
the call. Spans stay in memory until the run ends. ``uninstall`` puts the
originals back.

Two wrap sets exist. ``BOUNDARY`` holds the calls the end-to-end metrics
need (one span per train step, eval batch, loss value and file load, a few
per step in all); ``LAYERS`` adds every layer the per-layer metrics name.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time
from typing import NamedTuple

import numpy as np

MODULES = ("harness", "training", "model", "head", "encoder", "layers", "tensor", "metrics", "data")

# Span names of watched module-level functions, keyed by defining module and
# function name. Two groups share one name: the losses and the scoring calls
# of one evaluation pass.
BOUNDARY = {
    "harness.run_train": "harness.run_train",
    "harness.run_eval": "harness.run_eval",
    "harness.run_attnmap": "harness.run_attnmap",
    "training.train_epoch": "training.train_epoch",
    "training.evaluate": "training.evaluate",
    "training.adamw_step": "training.adamw_step",
    "training.softmax_cross_entropy": "training.loss",
    "training.bce_with_logits": "training.loss",
    "encoder.load_embeddings": "encoder.load_embeddings",
    "data.load_dataset": "data.load_dataset",
    "data.load_vocab": "data.load_vocab",
    "tensor.load_checkpoint": "tensor.load_checkpoint",
}
BOUNDARY_METHODS = (
    ("model", "SequenceClassifier", "forward", "model.forward"),
    ("model", "HeadOnlyClassifier", "forward", "model.forward"),
)

LAYERS = {
    **BOUNDARY,
    **{
        f"layers.{name}": f"layers.{name}"
        for name in (
            "conv1d_forward",
            "conv1d_backward",
            "batchnorm_apply",
            "batchnorm_backward",
            "dropout",
            "dropout_backward",
            "linear",
            "linear_backward",
            "layer_norm",
            "layer_norm_backward",
            "scaled_dot_product_attention",
            "sdpa_backward",
            "mha_forward",
            "mha_backward",
        )
    },
    **{
        f"head.{name}": f"head.{name}"
        for name in (
            "head_forward",
            "head_backward",
            "inception_forward",
            "inception_backward",
            "enrich",
            "multi_head_attention",
            "adaptive_avg_pool",
            "attention_received",
        )
    },
    **{
        f"encoder.{name}": f"encoder.{name}"
        for name in ("embed", "embed_backward", "encode_forward", "encode_backward")
    },
    "tensor.clip_global_norm": "tensor.clip_global_norm",
    "data.encode_batch": "data.encode_batch",
    "harness.load_data": "harness.load_data",
    "harness.build_model": "harness.build_model",
    "metrics.precision_recall_f1": "metrics.scoring",
    "metrics.accuracy": "metrics.scoring",
    "metrics.roc_auc": "metrics.scoring",
    "metrics.average_precision": "metrics.scoring",
}
LAYER_METHODS = BOUNDARY_METHODS + (
    ("model", "SequenceClassifier", "backward", "model.backward"),
    ("model", "HeadOnlyClassifier", "backward", "model.backward"),
    ("tensor", "ParamStore", "zero_grads", "tensor.zero_grads"),
    ("metrics", "PredictionSet", "from_scores", "metrics.scoring"),
)


class Forward(NamedTuple):
    """What a ``model.forward`` span saw: train or eval mode, batch size and
    whether every logit was finite."""

    train: bool
    batch: int
    finite: bool


def _observe_forward(args, kwargs, result):
    rng = args[2] if len(args) > 2 else kwargs.get("rng")
    logits = result.logits
    return Forward(rng is not None, len(args[1]), bool(np.isfinite(logits).all()))


def _observe_loss(args, kwargs, result):
    return float(result[0])


def _observe_clip(args, kwargs, result):
    max_norm = args[1] if len(args) > 1 else kwargs["max_norm"]
    return result > max_norm


OBSERVERS = {
    "model.forward": _observe_forward,
    "training.loss": _observe_loss,
    "tensor.clip_global_norm": _observe_clip,
}

NAME, START, END, PARENT, INFO = range(5)


class Tracer:
    """Records spans ``[name, start, end, parent, info]`` in call order;
    ``parent`` is the index of the enclosing span or -1."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._undo: list[tuple] = []
        self._installed: tuple = ({}, ())

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, clock(), 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()
            if observe is not None:
                span[INFO] = observe(args, kwargs, result)
            return result

        return traced

    def install(self, functions: dict[str, str], methods: tuple) -> "Tracer":
        self._installed = (functions, methods)
        for short in MODULES:
            module = importlib.import_module(f"inceptive.{short}")
            for attr, obj in list(vars(module).items()):
                if not inspect.isfunction(obj) or not obj.__module__.startswith("inceptive."):
                    continue
                key = f"{obj.__module__.rsplit('.', 1)[1]}.{obj.__name__}"
                if key in functions:
                    self._undo.append((module, attr, obj))
                    setattr(module, attr, self.wrap(functions[key], obj))
        for short, cls_name, attr, name in methods:
            cls = getattr(importlib.import_module(f"inceptive.{short}"), cls_name)
            raw = vars(cls)[attr]
            self._undo.append((cls, attr, raw))
            if isinstance(raw, classmethod):
                setattr(cls, attr, classmethod(self.wrap(name, raw.__func__)))
            else:
                setattr(cls, attr, self.wrap(name, raw))
        return self

    def uninstall(self) -> None:
        for owner, attr, obj in reversed(self._undo):
            setattr(owner, attr, obj)
        self._undo.clear()

    @contextlib.contextmanager
    def paused(self):
        """Record nothing inside the block."""
        self.uninstall()
        try:
            yield
        finally:
            self.install(*self._installed)


# --- analysis ---------------------------------------------------------------------


def train_steps(spans) -> list[tuple[float, float, int]]:
    """``(start, end, samples)`` per train step: from the train-mode
    ``model.forward`` under ``train_epoch`` to the end of the next
    ``adamw_step``."""
    steps, opened = [], None
    for span in spans:
        if span[NAME] == "model.forward" and span[INFO] is not None and span[INFO].train:
            opened = (span[START], span[INFO].batch)
        elif span[NAME] == "training.adamw_step" and opened is not None:
            steps.append((opened[0], span[END], opened[1]))
            opened = None
    return steps


def eval_batches(spans) -> list[tuple[float, float, int]]:
    """``(start, end, samples)`` per eval-mode ``model.forward`` made by
    ``evaluate``."""
    return [
        (s[START], s[END], s[INFO].batch)
        for s in spans
        if s[NAME] == "model.forward" and s[PARENT] >= 0 and spans[s[PARENT]][NAME] == "training.evaluate"
    ]


def self_times(spans) -> list[float]:
    """Span duration minus the time its direct children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            own[s[PARENT]] -= s[END] - s[START]
    return own


def scopes(spans, training: bool) -> list[bool]:
    """Whether each span lies inside a unit of work: a train step (a direct
    child of ``train_epoch`` or below one) when ``training``, otherwise an
    ``evaluate`` batch."""
    inside = [False] * len(spans)
    for i, s in enumerate(spans):
        p = s[PARENT]
        if p < 0:
            continue
        if inside[p]:
            inside[i] = True
        elif training:
            inside[i] = spans[p][NAME] == "training.train_epoch"
        else:
            inside[i] = s[NAME] == "model.forward" and spans[p][NAME] == "training.evaluate"
    return inside


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, as
    ``(value, percentile)``. With ten samples or fewer no percentile
    qualifies; the maximum is returned with percentile 100."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0
    return ordered[n - 11], 100.0 * (n - 10) / n

