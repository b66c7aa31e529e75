"""Model assemblies the training loop drives.

``SequenceClassifier`` trains a small encoder end-to-end under either the
enrichment head or the first-token baseline head. ``HeadOnlyClassifier``
runs the same heads over frozen hidden states ingested from an embedding
file, so representations exported by any external encoder can be classified
without touching them. With no encoder below the head, its backward pass
builds only parameter gradients: no gradient w.r.t. the hidden states is
computed.
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
    init_encoder_params,
)
from .errors import ConfigError
from .head import (
    BaselinePass,
    HeadPass,
    HeadState,
    ModelConfig,
    attention_received,
    baseline_cls_backward,
    baseline_cls_forward,
    head_backward,
    head_forward,
    init_baseline_params,
    init_head_params,
    make_head_state,
)
from .layers import DropoutSpec
from .tensor import ParamStore, Rng

__all__ = ["ModelPass", "SequenceClassifier", "HeadOnlyClassifier", "MODEL_KINDS"]

MODEL_KINDS = ("inceptive", "baseline")


@dataclass
class ModelPass:
    inputs: np.ndarray
    embedded: np.ndarray | None
    enc_cache: EncoderCache | None
    head: HeadPass | BaselinePass

    @property
    def logits(self) -> np.ndarray:
        return self.head.logits


class _HeadMixin:
    """Shared head wiring for both assemblies."""

    def _init_head(self, cfg: ModelConfig, kind: str, rng: Rng) -> None:
        if kind not in MODEL_KINDS:
            raise ConfigError(f"model kind must be one of {MODEL_KINDS}, got {kind!r}")
        self.kind = kind
        self.cfg = cfg
        if kind == "inceptive":
            init_head_params(cfg, rng, self.params)
            self.head_state: HeadState | None = make_head_state(cfg, self.params)
            self.cls_dropout: DropoutSpec | None = None
        else:
            init_baseline_params(cfg.d, cfg.n_classes, rng, self.params)
            self.head_state = None
            self.cls_dropout = DropoutSpec(cfg.dropout_rate)

    def _head_forward(self, h: np.ndarray, rng: Rng | None):
        if self.kind == "inceptive":
            return head_forward(self.cfg, self.params, self.head_state, h, rng)
        return baseline_cls_forward(self.params, h, self.cls_dropout, rng)

    def _head_backward(self, head_pass, dlogits: np.ndarray, need_input_grad: bool) -> np.ndarray | None:
        if self.kind == "inceptive":
            return head_backward(self.cfg, self.params, self.head_state, head_pass, dlogits, need_input_grad)
        return baseline_cls_backward(self.params, self.cls_dropout, head_pass, dlogits, need_input_grad)

    def _received(self, mp: ModelPass) -> np.ndarray:
        """The enrichment head's received-attention map, computed from the
        forward's weight rows."""
        if not self.cfg.has_attention:
            raise ConfigError(f"variant {self.cfg.variant!r} has no attention to export")
        return attention_received(mp.head.mha.weights).received

    def _set_head_mode(self, train: bool) -> None:
        if self.head_state is not None:
            self.head_state.set_mode(train)
        if self.cls_dropout is not None:
            self.cls_dropout.mode = "train" if train else "eval"

    @property
    def task(self) -> str:
        return self.cfg.task

    @property
    def n_classes(self) -> int:
        return self.cfg.n_classes

    def state_tensors(self) -> dict[str, np.ndarray]:
        """Snapshot of parameters and buffers, suitable for checkpoints."""
        out = {name: p.value.copy() for name, p in self.params.items()}
        if self.head_state is not None:
            out.update({k: v.copy() for k, v in self.head_state.buffers().items()})
        return out

    def load_state(self, tensors: dict[str, np.ndarray]) -> None:
        param_names = set(self.params.names())
        values = {k: v for k, v in tensors.items() if k in param_names}
        self.params.load_values(values)
        if self.head_state is not None:
            self.head_state.load_buffers(tensors)


class SequenceClassifier(_HeadMixin):
    """Token ids in, logits out; the encoder trains together with the head."""

    def __init__(self, enc_cfg: EncoderConfig, cfg: ModelConfig, kind: str = "inceptive", rng: Rng | None = None):
        if enc_cfg.d != cfg.d:
            raise ConfigError(f"encoder hidden size {enc_cfg.d} differs from head input {cfg.d}")
        self.enc_cfg = enc_cfg
        self.params = ParamStore()
        rng = rng if rng is not None else Rng(0)
        init_encoder_params(enc_cfg, rng.child("encoder"), self.params)
        self._init_head(cfg, kind, rng.child("head"))

    def set_mode(self, train: bool) -> None:
        self._set_head_mode(train)

    def forward(self, ids: np.ndarray, rng: Rng | None = None) -> ModelPass:
        x = embed(self.enc_cfg, self.params, ids)
        h, enc_cache = encode_forward(self.enc_cfg, self.params, x)
        head_pass = self._head_forward(h, rng)
        return ModelPass(ids, x, enc_cache, head_pass)

    def backward(self, mp: ModelPass, dlogits: np.ndarray) -> None:
        dh = self._head_backward(mp.head, dlogits, need_input_grad=True)
        dx = encode_backward(self.enc_cfg, self.params, mp.enc_cache, dh)
        embed_backward(self.enc_cfg, self.params, mp.inputs, dx)

    def attention_export(self, mp: ModelPass) -> np.ndarray:
        """Per-example attention profile for map exports: the head's received
        map for the enrichment model, or the final encoder block's
        first-token query row (averaged over heads) for the baseline."""
        if self.kind == "inceptive":
            return self._received(mp)
        weights = mp.enc_cache.last_attention_weights
        if weights is None:
            raise ConfigError("baseline attention export needs at least one encoder block")
        return weights[:, :, 0, :].mean(axis=1)


class HeadOnlyClassifier(_HeadMixin):
    """Classifies precomputed hidden states. Nothing below the head trains,
    so the backward pass computes no gradient w.r.t. the input, only the
    head's parameter gradients (see :func:`inceptive.head.head_backward`)."""

    def __init__(self, cfg: ModelConfig, kind: str = "inceptive", rng: Rng | None = None):
        self.params = ParamStore()
        self._init_head(cfg, kind, (rng if rng is not None else Rng(0)).child("head"))

    def set_mode(self, train: bool) -> None:
        self._set_head_mode(train)

    def forward(self, h: np.ndarray, rng: Rng | None = None) -> ModelPass:
        return ModelPass(h, None, None, self._head_forward(h, rng))

    def backward(self, mp: ModelPass, dlogits: np.ndarray) -> None:
        self._head_backward(mp.head, dlogits, need_input_grad=False)

    def attention_export(self, mp: ModelPass) -> np.ndarray:
        if self.kind != "inceptive":
            raise ConfigError("the frozen-input baseline has no attention to export")
        return self._received(mp)
