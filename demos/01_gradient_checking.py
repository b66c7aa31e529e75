"""Validate every analytic gradient in the classification head against
central differences.

Builds a small head (train-mode batch norm, dropout off so the loss is
deterministic), runs one forward/backward, then perturbs every parameter
entry by +-1e-5 and compares.
"""

import sys

import numpy as np

from inceptive import ModelConfig, Rng, grad_check
from inceptive.head import head_backward, head_forward, init_head_params, make_head_state
from inceptive.training import softmax_cross_entropy

cfg = ModelConfig(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3, dropout_rate=0.0)
rng = Rng(42)
store = init_head_params(cfg, rng.child("params"))
state = make_head_state(cfg, store)
state.set_mode(True)

hidden = rng.child("hidden").normal((2, 8, cfg.d))
targets = np.array([0, 2])


def loss(params):
    return softmax_cross_entropy(head_forward(cfg, params, state, hidden).logits, targets)[0]


out = head_forward(cfg, store, state, hidden)
value, dlogits = softmax_cross_entropy(out.logits, targets)
store.zero_grads()
head_backward(cfg, store, state, out, dlogits)

print(f"loss = {value:.6f}")
print(f"{'parameter':42s} {'shape':>12s} {'rel err':>10s}")
worst = 0.0
for name, p in store.items():
    # check one tensor at a time so the report is per parameter: a one-entry
    # store holds a copy of it, which each loss evaluation writes into the head's store
    single = type(store)()
    single.add(name, p.value)
    single.grad(name)[...] = p.grad

    def loss_fn(params, name=name):
        store.value(name)[...] = params.value(name)
        return loss(store)

    err = grad_check(loss_fn, single, 1e-5)
    store.value(name)[...] = single.value(name)  # grad_check restored the copy; restore the original
    worst = max(worst, err)
    print(f"{name:42s} {str(p.value.shape):>12s} {err:10.2e}")
print(f"\nmax relative error over all parameters: {worst:.2e} (target < 1e-4)")
if not worst < 1e-4:
    sys.exit(1)
