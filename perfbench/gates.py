"""Correctness gates, run outside the timed region. Each returns
``(name, passed, detail)``; a failed gate counts as one failed operation."""

from __future__ import annotations

import csv
import glob
import os

import numpy as np

from inceptive import harness
from inceptive.head import ModelConfig, head_backward, head_forward, init_head_params, make_head_state
from inceptive.tensor import Rng, grad_check, load_checkpoint
from inceptive.training import softmax_cross_entropy

GRAD_TOL = 1e-4
LOGIT_TOL = 1e-9
ROW_SUM_TOL = 1e-9


def head_gradients() -> tuple[str, bool, str]:
    """Finite-difference check of the head's backward pass on the
    acceptance-01 config (every parameter entry perturbed)."""
    cfg = ModelConfig(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3, dropout_rate=0.0)
    rng = Rng(42)
    store = init_head_params(cfg, rng.child("params"))
    state = make_head_state(cfg, store)
    state.set_mode(True)
    hidden = rng.child("hidden").normal((2, 8, 16))
    targets = np.array([0, 2])

    def loss(params):
        return softmax_cross_entropy(head_forward(cfg, params, state, hidden).logits, targets)[0]

    out = head_forward(cfg, store, state, hidden)
    _, dlogits = softmax_cross_entropy(out.logits, targets)
    store.zero_grads()
    head_backward(cfg, store, state, out, dlogits)
    err = grad_check(loss, store, 1e-5)
    return "head_grad_check", bool(err < GRAD_TOL), f"max relative error {err:.3e} (limit {GRAD_TOL:g})"


def batched_equals_single(config_path: str, checkpoint: str) -> tuple[str, bool, str]:
    """Eval-mode logits of the test split in batches equal those of one
    example at a time, to ``LOGIT_TOL`` relative."""
    settings = harness.load_config(config_path)
    bundle = harness.load_data(settings)
    model = harness.build_model(settings, bundle, "inceptive", "full", Rng(0))
    model.load_state(load_checkpoint(checkpoint))
    model.set_mode(False)
    inputs = bundle.test[0]
    size = settings.train.batch_size
    batched = np.concatenate([model.forward(inputs[i : i + size]).logits for i in range(0, len(inputs), size)])
    single = np.concatenate([model.forward(inputs[i : i + 1]).logits for i in range(len(inputs))])
    finite = bool(np.isfinite(batched).all() and np.isfinite(single).all())
    rel = float(np.abs(batched - single).max() / max(np.abs(batched).max(), 1e-300))
    return "batched_logits_match_single", finite and rel < LOGIT_TOL, f"max relative difference {rel:.3e}"


def attention_rows_sum_to_one(attn_dir: str) -> tuple[str, bool, str]:
    """Every exported received-attention row sums to 1."""
    files = sorted(glob.glob(os.path.join(attn_dir, "example_*.csv")))
    worst = 0.0
    for path in files:
        with open(path, encoding="utf-8", newline="") as fh:
            total = sum(float(row["received"]) for row in csv.DictReader(fh))
        worst = max(worst, abs(total - 1.0))
    ok = bool(files) and worst < ROW_SUM_TOL
    return "attention_rows_sum_to_one", ok, f"{len(files)} rows, worst |sum - 1| {worst:.3e}"
