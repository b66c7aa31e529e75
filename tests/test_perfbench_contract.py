"""What ``perfbench/`` relies on in the library.

The benchmark times the library from outside: ``spans.Tracer`` replaces
watched functions in module namespaces and watched methods in class
dictionaries, and ``measure.measure_setup`` swaps ``forward`` on both model
classes to end a call at its first step. These tests run one train step of
each model form under both wrap sets, so a refactor that moves a method out
of a class dictionary, or makes two watched names one class, fails here
rather than in a benchmark run.
"""

import importlib
import os
import subprocess
import sys

import numpy as np
import pytest

from inceptive import training
from inceptive.encoder import EncoderConfig
from inceptive.head import ModelConfig
from inceptive.model import HeadOnlyClassifier, SequenceClassifier
from inceptive.tensor import Rng

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))
import gates  # noqa: E402
import measure  # noqa: E402
import spans  # noqa: E402

CFG = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3, dropout_rate=0.1)
ENC = EncoderConfig(vocab_size=12, d=8, n_layers=1, n_heads=2, ffn_size=8, max_len=6)
FROZEN_FORMS = {
    "HeadOnlyClassifier": lambda: HeadOnlyClassifier(CFG, "inceptive", Rng(0)),
    "SequenceClassifier(None)": lambda: SequenceClassifier(None, CFG, "inceptive", Rng(0)),
}


def token_model():
    return SequenceClassifier(ENC, CFG, "inceptive", Rng(0))


def one_step(model, inputs):
    """One train step through ``train_epoch``, looked up on its module as the
    harness does, so the tracer sees it: forward, loss, backward, clipping
    and AdamW on a single batch."""
    targets = np.arange(len(inputs)) % CFG.n_classes
    cfg = training.TrainConfig(seq_len=6, batch_size=len(inputs), epochs=1, lr=1e-3)
    training.train_epoch(model, (inputs, targets), cfg, training.init_adamw(model.params), 1, 1e-3, Rng(1))


def frozen_inputs():
    return Rng(2).normal((4, 6, CFG.d))


def token_inputs():
    return Rng(3).integers(0, ENC.vocab_size, (4, 6))


def snapshot(methods) -> dict:
    """Every entry of each watched module and class dictionary."""
    out = {short: dict(vars(importlib.import_module(f"inceptive.{short}"))) for short in spans.MODULES}
    for short, name, _, _ in methods:
        out[(short, name)] = dict(vars(getattr(importlib.import_module(f"inceptive.{short}"), name)))
    return out


@pytest.mark.parametrize("frozen", sorted(FROZEN_FORMS))
@pytest.mark.parametrize(
    "functions,methods",
    [(spans.BOUNDARY, spans.BOUNDARY_METHODS), (spans.LAYERS, spans.LAYER_METHODS)],
    ids=["boundary", "layers"],
)
def test_tracer_records_one_span_per_model_call(frozen, functions, methods):
    before = snapshot(methods)
    tracer = spans.Tracer()
    try:
        tracer.install(functions, methods)
        one_step(FROZEN_FORMS[frozen](), frozen_inputs())
        one_step(token_model(), token_inputs())
    finally:
        tracer.uninstall()
    names = [s[spans.NAME] for s in tracer.spans]
    assert names.count("model.forward") == 2
    for s in tracer.spans:
        if s[spans.NAME] == "model.forward":
            assert tracer.spans[s[spans.PARENT]][spans.NAME] == "training.train_epoch"
            assert s[spans.INFO].train and s[spans.INFO].batch == 4 and s[spans.INFO].finite
    if functions is spans.LAYERS:
        assert names.count("model.backward") == 2
        head_backward = [s for s in tracer.spans if s[spans.NAME] == "head.head_backward"]
        assert len(head_backward) == 2
        assert all(tracer.spans[s[spans.PARENT]][spans.NAME] == "model.backward" for s in head_backward)
    after = snapshot(methods)
    assert after.keys() == before.keys()
    for owner, entries in before.items():
        assert after[owner].keys() == entries.keys(), owner
        for attr, obj in entries.items():
            assert after[owner][attr] is obj, (owner, attr)


@pytest.mark.parametrize("form", sorted(FROZEN_FORMS) + ["token"])
def test_measure_setup_stops_at_first_forward(form):
    classes = (SequenceClassifier, HeadOnlyClassifier)
    originals = [vars(cls)["forward"] for cls in classes]
    if form == "token":
        build, inputs = token_model, token_inputs()
    else:
        build, inputs = FROZEN_FORMS[form], frozen_inputs()
    reached = []

    def call():
        model = build()
        reached.append("built")
        model.forward(inputs, Rng(1))
        reached.append("past forward")

    assert measure.measure_setup(call) >= 0.0
    assert reached == ["built"]
    assert [vars(cls)["forward"] for cls in classes] == originals


def test_head_gradient_gate_passes():
    """The gate builds its head through ``init_head_params(cfg, rng)``, then
    calls ``zero_grads`` and ``grad_check``: the names the benchmark calls
    outside a traced run, checked here without the slow self-test."""
    name, passed, detail = gates.head_gradients()
    assert name == "head_grad_check" and passed, detail


@pytest.mark.slow
def test_benchmark_selftest_passes():
    """``perfbench/selftest.py`` runs every workload untraced and traced at
    tiny shapes, through the gates and wraps the benchmark itself uses."""
    done = subprocess.run([sys.executable, os.path.join("perfbench", "selftest.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=600, check=False)
    assert done.returncode == 0, done.stdout + done.stderr
