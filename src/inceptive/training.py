"""Losses, the AdamW optimizer with a cosine learning-rate schedule, the
epoch loop with gradient clipping and best-epoch selection, evaluation, and
the k-fold split used by cross-validation runs.

Models are duck-typed: anything with ``params`` (a ParamStore),
``set_mode(train)``, ``forward(inputs, rng) -> pass`` (the pass exposes
``.logits``), and ``backward(pass, dlogits)`` trains here.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError, LabelError, UndefinedMetricError
from .layers import softmax_rows
from .metrics import PredictionSet, accuracy, average_precision, precision_recall_f1, roc_auc
from .tensor import ParamStore, Rng, clip_global_norm

__all__ = [
    "TrainConfig",
    "softmax_cross_entropy",
    "bce_with_logits",
    "sigmoid",
    "AdamWState",
    "init_adamw",
    "adamw_step",
    "cosine_lr",
    "train_epoch",
    "evaluate",
    "select_best",
    "kfold_split",
    "RunReport",
    "run_training",
]


@dataclass
class TrainConfig:
    seq_len: int = 128
    batch_size: int = 32
    epochs: int = 12
    lr: float = 1e-5
    lr_min: float = 0.0
    weight_decay: float = 1e-3
    sigmoid_threshold: float = 0.5
    max_grad_norm: float = 1.0
    selection_metric: str = "accuracy"

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if self.seq_len < 1:
            raise ConfigError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.max_grad_norm <= 0:
            raise ConfigError(f"max_grad_norm must be positive, got {self.max_grad_norm}")
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
        if not 0.0 < self.sigmoid_threshold < 1.0:
            raise ConfigError(f"sigmoid_threshold must be in (0, 1), got {self.sigmoid_threshold}")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if not 0 <= self.lr_min <= self.lr:
            raise ConfigError(f"lr_min must be in [0, lr], got {self.lr_min}")
        if self.selection_metric not in ("accuracy", "f1"):
            raise ConfigError(f"selection_metric must be accuracy or f1, got {self.selection_metric!r}")


# --- losses ---------------------------------------------------------------------


def softmax_cross_entropy(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean negative log-likelihood under row softmax; returns the loss and
    its gradient ``(softmax - onehot) / B``."""
    logits = np.asarray(logits, dtype=np.float64)
    targets = np.asarray(targets)
    b, c = logits.shape
    if targets.shape != (b,):
        raise LabelError(f"targets shape {targets.shape} vs batch {b}")
    if targets.min() < 0 or targets.max() >= c:
        raise LabelError(f"target index out of range for {c} classes")
    shifted = logits - logits.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    z = e.sum(axis=1, keepdims=True)
    loss = float((np.log(z[:, 0]) - shifted[np.arange(b), targets]).mean())
    probs = e / z
    probs[np.arange(b), targets] -= 1.0
    return loss, probs / b


def bce_with_logits(logits: np.ndarray, targets: np.ndarray) -> tuple[float, np.ndarray]:
    """Element-mean binary cross entropy, computed through the overflow-safe
    identity ``max(z, 0) - z y + log(1 + exp(-|z|))``."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(targets, dtype=np.float64)
    if y.shape != z.shape:
        raise LabelError(f"targets shape {y.shape} vs logits {z.shape}")
    if not np.isin(y, (0.0, 1.0)).all():
        raise LabelError("binary targets must be 0 or 1")
    loss = float((np.maximum(z, 0) - z * y + np.log1p(np.exp(-np.abs(z)))).mean())
    return loss, (sigmoid(z) - y) / z.size


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    e = np.exp(z[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _loss_and_scores(task: str, logits: np.ndarray, targets: np.ndarray, n_classes: int):
    if task == "multi-class":
        loss, dlogits = softmax_cross_entropy(logits, targets)
    else:
        y = targets
        if y.ndim == 1:  # binary task stores class indices; train on one-hot rows
            y = np.eye(n_classes)[y]
        loss, dlogits = bce_with_logits(logits, y)
    return loss, dlogits


def task_scores(task: str, logits: np.ndarray) -> np.ndarray:
    """Probabilities from logits: softmax rows for multi-class, elementwise
    sigmoid otherwise."""
    if task == "multi-class":
        return softmax_rows(logits)
    return sigmoid(logits)


# --- optimizer and schedule ------------------------------------------------------


@dataclass
class AdamWState:
    """AdamW moments as flat buffers laid out like the store's arena:
    parameter ``name``'s moments are ``m_flat[params.slice_of(name)]`` and
    likewise for ``v_flat``."""

    m_flat: np.ndarray
    v_flat: np.ndarray
    t: int = 0
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8


def init_adamw(params: ParamStore) -> AdamWState:
    """Zero moments for ``params``: the only buffers it allocates, from
    ``np.zeros``, so their pages are mapped on the first step."""
    values, _ = params.arena()
    return AdamWState(np.zeros(values.size), np.zeros(values.size))


# Elements of the arena per AdamW block: its two scratch buffers stay in
# cache, and a step allocates no more than them.
_ADAMW_BLOCK = 1 << 15


def _decay_runs(params: ParamStore) -> list[tuple[int, int]]:
    """Arena ranges of the decayed parameters, the weights (two or more
    axes), adjacent ranges merged; biases and norm scales are exempt."""
    runs: list[tuple[int, int]] = []
    for name, p in params.items():
        if p.value.ndim < 2:
            continue
        sl = params.slice_of(name)
        if runs and runs[-1][1] == sl.start:
            runs[-1] = (runs[-1][0], sl.stop)
        else:
            runs.append((sl.start, sl.stop))
    return runs


def adamw_step(params: ParamStore, state: AdamWState, lr: float, weight_decay: float) -> None:
    """One decoupled-weight-decay Adam update from the stored gradients.

    Only weights decay: parameters with fewer than two axes (biases and norm
    scales) take no decay term.

    Per element, with ``m_hat = m / (1 - b1^t)`` and ``v_hat = v / (1 - b2^t)``:
    ``value -= lr * m_hat / (sqrt(v_hat) + eps) + lr * weight_decay * value``.
    The step sweeps the store's arena (:class:`ParamStore`) in blocks of
    ``_ADAMW_BLOCK`` elements, in place on two block-sized scratch buffers,
    in the operation order of that formula; every operation is elementwise,
    so the result is bitwise the formula's. The decay term is added on the
    parts of each block that decayed parameters cover.
    """
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    values, grads = params.arena()
    runs = _decay_runs(params) if weight_decay else []
    scratch = np.empty((2, min(values.size, _ADAMW_BLOCK)))
    for start in range(0, values.size, _ADAMW_BLOCK):
        stop = min(start + _ADAMW_BLOCK, values.size)
        blk = slice(start, stop)
        g, m, v = grads[blk], state.m_flat[blk], state.v_flat[blk]
        update, denom = scratch[:, : stop - start]
        np.multiply(g, 1 - b1, out=update)
        m *= b1
        m += update
        np.multiply(g, 1 - b2, out=update)
        update *= g
        v *= b2
        v += update
        np.divide(m, bias1, out=update)
        update *= lr
        np.divide(v, bias2, out=denom)
        np.sqrt(denom, out=denom)
        denom += state.eps
        update /= denom
        for lo, hi in runs:
            lo, hi = max(lo, start), min(hi, stop)
            if lo < hi:
                part = slice(lo - start, hi - start)
                np.multiply(values[lo:hi], lr * weight_decay, out=denom[part])
                update[part] += denom[part]
        values[blk] -= update


def cosine_lr(t: int, total: int, lr_max: float, lr_min: float = 0.0) -> float:
    """Half-cosine from ``lr_max`` at t=0 down to ``lr_min`` at t=total."""
    if total < 1 or not 0 <= t <= total:
        raise ConfigError(f"need 0 <= t <= total with total >= 1, got t={t}, total={total}")
    return lr_min + 0.5 * (lr_max - lr_min) * (1.0 + np.cos(np.pi * t / total))


# --- epoch loop and evaluation ----------------------------------------------------


def train_epoch(
    model,
    data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    opt: AdamWState,
    epoch: int,
    lr: float,
    rng: Rng,
) -> dict:
    """One pass over the data in seeded shuffle order; the last short batch
    is kept. Returns the mean training loss, the learning rate, and the
    pre-clip gradient norm's mean and maximum over the steps with the
    fraction of steps whose norm clipping scaled down."""
    inputs, targets = data
    model.set_mode(True)
    order = rng.child("shuffle", epoch).permutation(len(inputs))
    losses, norms = [], []
    n_classes = model.cfg.n_classes
    for start in range(0, len(order), cfg.batch_size):
        idx = order[start : start + cfg.batch_size]
        mp = model.forward(inputs[idx], rng.child("dropout", epoch, start))
        loss, dlogits = _loss_and_scores(model.cfg.task, mp.logits, targets[idx], n_classes)
        model.params.zero_grads()
        model.backward(mp, dlogits)
        norms.append(clip_global_norm(model.params, cfg.max_grad_norm))
        adamw_step(model.params, opt, lr, cfg.weight_decay)
        losses.append(loss)
    norms = np.array(norms)
    return {
        "train_loss": float(np.mean(losses)),
        "lr": float(lr),
        "grad_norm_mean": float(norms.mean()),
        "grad_norm_max": float(norms.max()),
        "clip_frac": float(np.mean(norms > cfg.max_grad_norm)),
    }


def evaluate(model, data: tuple[np.ndarray, np.ndarray], cfg: TrainConfig) -> tuple[dict, float]:
    """Eval-mode metrics and the wall-clock time spent in forward passes.

    Ranking metrics that are undefined on the data (a class or label with
    one side missing) are reported as ``None`` rather than aborting.
    """
    inputs, targets = data
    if len(inputs) == 0:
        raise InputError("cannot evaluate on empty data")
    model.set_mode(False)
    chunks = []
    elapsed = 0.0
    for start in range(0, len(inputs), cfg.batch_size):
        xb = inputs[start : start + cfg.batch_size]
        t0 = time.perf_counter()
        mp = model.forward(xb, None)
        elapsed += time.perf_counter() - t0
        chunks.append(mp.logits)
    logits = np.concatenate(chunks, axis=0)
    scores = task_scores(model.cfg.task, logits)
    multilabel = model.cfg.task == "multi-label"
    pred = PredictionSet.from_scores(scores, targets, multilabel, cfg.sigmoid_threshold)
    p_mi, r_mi, f_mi = precision_recall_f1(pred, "micro")
    p_ma, r_ma, f_ma = precision_recall_f1(pred, "macro")
    record = {
        "accuracy": accuracy(pred),
        "precision_micro": p_mi,
        "recall_micro": r_mi,
        "f1_micro": f_mi,
        "precision_macro": p_ma,
        "recall_macro": r_ma,
        "f1_macro": f_ma,
    }
    try:
        if multilabel:
            record["aupr"] = average_precision(scores, targets)
        else:
            record["auc_roc"] = roc_auc(scores, targets)
    except UndefinedMetricError:
        record["aupr" if multilabel else "auc_roc"] = None
    return record, elapsed


def selection_value(record: dict, selection_metric: str) -> float:
    return record["accuracy"] if selection_metric == "accuracy" else record["f1_micro"]


def select_best(val_records: list[dict], selection_metric: str) -> int:
    """1-based index of the epoch maximizing the selection metric; ties go
    to the earliest epoch."""
    if not val_records:
        raise InputError("no epochs recorded")
    values = [selection_value(r, selection_metric) for r in val_records]
    return int(np.argmax(values)) + 1


def kfold_split(n: int, k: int = 10, seed: int = 0) -> list[tuple[np.ndarray, np.ndarray]]:
    """Seeded shuffle cut into k near-equal validation folds; sizes differ
    by at most one and the folds partition ``range(n)``."""
    if k < 2:
        raise ConfigError(f"need at least 2 folds, got {k}")
    if n < k:
        raise InputError(f"cannot make {k} folds from {n} examples")
    perm = Rng(seed).child("kfold").permutation(n)
    base, extra = divmod(n, k)
    folds = []
    start = 0
    for i in range(k):
        size = base + (1 if i < extra else 0)
        val = perm[start : start + size]
        train = np.concatenate([perm[:start], perm[start + size :]])
        folds.append((train, val))
        start += size
    return folds


# --- full run ---------------------------------------------------------------------


@dataclass
class RunReport:
    """Per-epoch records plus the best-epoch selection and final test
    metrics. Wall-clock numbers live in the separate ``timing`` block so
    that the rest of the report is byte-reproducible under a fixed seed."""

    meta: dict
    epochs: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_value: float = 0.0
    test: dict = field(default_factory=dict)
    timing: dict = field(default_factory=dict)


def run_training(
    model,
    train_data: tuple[np.ndarray, np.ndarray],
    val_data: tuple[np.ndarray, np.ndarray] | None,
    test_data: tuple[np.ndarray, np.ndarray],
    cfg: TrainConfig,
    rng: Rng,
    meta: dict | None = None,
) -> tuple[RunReport, dict[str, np.ndarray] | None]:
    """Train for the configured epochs and report test metrics. With a
    validation split, each epoch is scored on it, the best epoch's
    snapshot (parameters plus buffers) is tested and returned. Without
    one, the final model is tested and no snapshot is taken."""
    opt = init_adamw(model.params)
    report = RunReport(meta=meta or {})
    val_records: list[dict] = []
    epoch_seconds: list[float] = []
    best_state: dict[str, np.ndarray] | None = None
    for epoch in range(1, cfg.epochs + 1):
        lr = cosine_lr(epoch - 1, cfg.epochs, cfg.lr, cfg.lr_min)
        t0 = time.perf_counter()
        rec = train_epoch(model, train_data, cfg, opt, epoch, lr, rng)
        epoch_seconds.append(time.perf_counter() - t0)
        report.epochs.append({"epoch": epoch, **rec})
        if val_data is not None:
            report.epochs[-1]["val"], _ = evaluate(model, val_data, cfg)
            val_records.append(report.epochs[-1]["val"])
            if select_best(val_records, cfg.selection_metric) == epoch:
                best_state = model.state_tensors()
    if val_records:
        report.best_epoch = select_best(val_records, cfg.selection_metric)
        report.best_value = float(selection_value(val_records[report.best_epoch - 1], cfg.selection_metric))
        model.load_state(best_state)
    test_metrics, infer_time = evaluate(model, test_data, cfg)
    report.test = test_metrics
    report.timing = {"epoch_seconds": epoch_seconds, "inference_seconds": infer_time}
    return report, best_state
