"""The classifier the training loop drives.

``SequenceClassifier`` runs a head (the enrichment head or the first-token
baseline, see :func:`inceptive.head.make_head`) over the hidden states of a
small encoder that trains with it. Built with no encoder (as
:func:`inceptive.harness.build_model` does for frozen inputs) it classifies
hidden states from an embedding file and its backward pass builds only
parameter gradients. ``HeadOnlyClassifier``, that form under its own name,
stays only because ``perfbench`` imports and wraps it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .encoder import (
    EncoderCache,
    EncoderConfig,
    embed,
    embed_backward,
    encode_backward,
    encode_forward,
    encoder_param_specs,
)
from .errors import ConfigError, DimensionError
from .head import BaselinePass, HeadPass, ModelConfig, make_head
from .tensor import Rng

__all__ = ["ModelPass", "SequenceClassifier", "HeadOnlyClassifier"]


@dataclass
class ModelPass:
    inputs: np.ndarray
    enc_cache: EncoderCache | None
    head: HeadPass | BaselinePass

    @property
    def logits(self) -> np.ndarray:
        return self.head.logits


class SequenceClassifier:
    """Token ids in, logits out, through ``enc_cfg``'s encoder and the
    ``kind`` head; with ``enc_cfg`` None, hidden states in."""

    def __init__(
        self, enc_cfg: EncoderConfig | None, cfg: ModelConfig, kind: str = "inceptive", rng: Rng | None = None
    ):
        if enc_cfg is not None and enc_cfg.d != cfg.d:
            raise ConfigError(f"encoder hidden size {enc_cfg.d} differs from head input {cfg.d}")
        self.enc_cfg = enc_cfg
        self.cfg = cfg
        self.kind = kind
        rng = rng if rng is not None else Rng(0)
        encoder = () if enc_cfg is None else ((encoder_param_specs(enc_cfg), rng.child("encoder")),)
        self.head = make_head(kind, cfg, rng.child("head"), encoder)
        self.params = self.head.store

    def set_mode(self, train: bool) -> None:
        self.head.set_mode(train)

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Snapshot of parameters and buffers, suitable for checkpoints."""
        out = {name: p.value.copy() for name, p in self.params.items()}
        out.update({k: v.copy() for k, v in self.head.buffers().items()})
        return out

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        """Overwrite parameters and buffers from ``tensors``; every name and
        shape is checked before anything is written."""
        buffers = self.head.buffers()
        for name, arr in buffers.items():
            if np.shape(tensors.get(name)) != arr.shape:
                raise DimensionError(f"checkpoint buffer {name} is missing or not of shape {arr.shape}")
        self.params.load_values({k: v for k, v in tensors.items() if k in self.params})
        for name, arr in buffers.items():
            arr[...] = tensors[name]

    def forward(self, inputs: np.ndarray, rng: Rng | None = None) -> ModelPass:
        if self.enc_cfg is None:
            return ModelPass(inputs, None, self.head.forward(inputs, rng))
        x = embed(self.enc_cfg, self.params, inputs)
        h, enc_cache = encode_forward(self.enc_cfg, self.params, x)
        return ModelPass(inputs, enc_cache, self.head.forward(h, rng))

    def backward(self, mp: ModelPass, dlogits: np.ndarray) -> None:
        dh = self.head.backward(mp.head, dlogits, need_input_grad=self.enc_cfg is not None)
        if self.enc_cfg is not None:
            dx = encode_backward(self.enc_cfg, self.params, mp.enc_cache, dh)
            embed_backward(self.enc_cfg, self.params, mp.inputs, dx)

    def attention_export(self, mp: ModelPass) -> np.ndarray:
        """Per-example attention profile for map exports: the enrichment
        head's received map, or for the baseline the final encoder block's
        first-token query row (averaged over heads)."""
        if self.kind != "baseline":
            return self.head.received(mp.head)
        if mp.enc_cache is None:
            raise ConfigError("the frozen-input baseline has no attention to export")
        weights = mp.enc_cache.last_attention_weights
        if weights is None:
            raise ConfigError("baseline attention export needs at least one encoder block")
        return weights[:, :, 0, :].mean(axis=1)


class HeadOnlyClassifier(SequenceClassifier):
    """A ``SequenceClassifier`` with no encoder: precomputed hidden states
    in, and only the head's parameter gradients out of the backward pass."""

    def __init__(self, cfg: ModelConfig, kind: str = "inceptive", rng: Rng | None = None):
        super().__init__(None, cfg, kind, rng)

    # perfbench's span tracer wraps ``vars(cls)["forward"]`` and
    # ``vars(cls)["backward"]`` of both class names, so this class needs
    # entries of its own (without them it raises KeyError). Making the two
    # names one class instead would wrap, and count, every call twice.
    forward = SequenceClassifier.forward
    backward = SequenceClassifier.backward
