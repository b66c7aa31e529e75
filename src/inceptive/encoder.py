"""Produces the contextual token representations the classification head
consumes: either a small trainable encoder (token + learned positional
embeddings feeding pre-norm self-attention blocks), or frozen tensors
ingested from an embedding file exported by any external model.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, FormatError, LabelError, VocabularyError
from .layers import (
    MhaCache,
    MhaParams,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    mha_backward,
    mha_forward,
    relu,
    relu_backward,
)
from .tensor import ParamSpec, ParamStore, Rng, finite_float32, mapped, write_replacing

__all__ = [
    "EncoderConfig",
    "encoder_param_specs",
    "init_encoder_params",
    "embed",
    "embed_backward",
    "encode",
    "encode_forward",
    "encode_backward",
    "EncoderCache",
    "save_embeddings",
    "load_embeddings",
]


@dataclass
class EncoderConfig:
    vocab_size: int
    d: int
    n_layers: int = 2
    n_heads: int = 4
    ffn_size: int = 64
    max_len: int = 128

    def __post_init__(self):
        if self.n_heads < 1 or self.n_layers < 0:
            raise ConfigError(f"need n_heads >= 1 and n_layers >= 0, got {self.n_heads} and {self.n_layers}")
        if self.d % self.n_heads != 0:
            raise ConfigError(f"hidden size {self.d} not divisible by {self.n_heads} heads")
        if self.vocab_size < 1 or self.max_len < 1 or self.ffn_size < 1:
            raise ConfigError("vocab_size, max_len and ffn_size must be positive")

    @property
    def head_dim(self) -> int:
        return self.d // self.n_heads


def encoder_param_specs(cfg: EncoderConfig) -> list[ParamSpec]:
    """Glorot-uniform weights, unit norm scales, zero biases and shifts, in store order."""
    d, dh, hd, f = cfg.d, cfg.head_dim, cfg.n_heads * cfg.head_dim, cfg.ffn_size
    specs: list[ParamSpec] = [("encoder.tok_embed", (cfg.vocab_size, d), (cfg.vocab_size, d))]
    specs.append(("encoder.pos_embed", (cfg.max_len, d), (cfg.max_len, d)))
    for i in range(cfg.n_layers):
        b = f"encoder.block{i}."
        specs += [(b + "ln1.scale", (d,), 1.0), (b + "ln1.shift", (d,), 0.0)]
        specs += [(b + name, (cfg.n_heads, d, dh), (d, dh)) for name in ("attn.w_q", "attn.w_k", "attn.w_v")]
        specs += [(b + "attn.w_o", (hd, d), (hd, d)), (b + "ln2.scale", (d,), 1.0), (b + "ln2.shift", (d,), 0.0)]
        specs += [(b + "ffn.w1", (d, f), (d, f)), (b + "ffn.b1", (f,), 0.0)]
        specs += [(b + "ffn.w2", (f, d), (f, d)), (b + "ffn.b2", (d,), 0.0)]
    return specs


def init_encoder_params(cfg: EncoderConfig, rng: Rng) -> ParamStore:
    return ParamStore((encoder_param_specs(cfg), rng))


def embed(cfg: EncoderConfig, params: ParamStore, ids: np.ndarray) -> np.ndarray:
    """Token lookup plus learned positional embedding, summed; ``B x L x d``."""
    ids = np.asarray(ids)
    if ids.ndim != 2 or ids.shape[0] == 0:
        raise DimensionError(f"ids must be a non-empty B x L array, got {ids.shape}")
    if ids.shape[1] > cfg.max_len:
        raise DimensionError(f"sequence length {ids.shape[1]} exceeds max_len {cfg.max_len}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        bad = int(ids.max() if ids.max() >= cfg.vocab_size else ids.min())
        raise VocabularyError(f"token id {bad} outside vocabulary of size {cfg.vocab_size}")
    tok = params.value("encoder.tok_embed")
    pos = params.value("encoder.pos_embed")
    return tok[ids] + pos[: ids.shape[1]]


def embed_backward(cfg: EncoderConfig, params: ParamStore, ids: np.ndarray, dx: np.ndarray) -> None:
    """Scatter-add gradients into the embedding tables."""
    dtok = params.grad("encoder.tok_embed")
    np.add.at(dtok, ids, dx)
    params.grad("encoder.pos_embed")[: ids.shape[1]] += dx.sum(axis=0)


@dataclass
class _BlockCache:
    ln1: tuple[np.ndarray, np.ndarray]  # layer norm caches
    mha: MhaCache
    ln2: tuple[np.ndarray, np.ndarray]
    n2: np.ndarray  # input of the first feed-forward layer
    hidden: np.ndarray  # its ReLU output, input of the second


@dataclass
class EncoderCache:
    blocks: list[_BlockCache]

    @property
    def last_attention_weights(self) -> np.ndarray | None:
        """``B x h x L x L`` weight rows of the final block, if any."""
        if not self.blocks:
            return None
        return self.blocks[-1].mha.weights


def encode_forward(cfg: EncoderConfig, params: ParamStore, x: np.ndarray) -> tuple[np.ndarray, EncoderCache]:
    """Run the pre-norm block stack; zero layers passes the input through."""
    caches = []
    for i in range(cfg.n_layers):
        b = f"encoder.block{i}."
        n1, ln1 = layer_norm(params.value(b + "ln1.scale"), params.value(b + "ln1.shift"), x)
        attn_out, mha_cache = mha_forward(MhaParams.read(params, b + "attn."), n1)
        x_mid = x + attn_out
        n2, ln2 = layer_norm(params.value(b + "ln2.scale"), params.value(b + "ln2.shift"), x_mid)
        hidden = relu(linear(params.value(b + "ffn.w1"), params.value(b + "ffn.b1"), n2))
        x = x_mid + linear(params.value(b + "ffn.w2"), params.value(b + "ffn.b2"), hidden)
        caches.append(_BlockCache(ln1, mha_cache, ln2, n2, hidden))
    return x, EncoderCache(caches)


def encode(cfg: EncoderConfig, params: ParamStore, x: np.ndarray) -> np.ndarray:
    h, _ = encode_forward(cfg, params, x)
    return h


def encode_backward(cfg: EncoderConfig, params: ParamStore, cache: EncoderCache, dh: np.ndarray) -> np.ndarray:
    """Accumulate parameter gradients and return the input gradient."""
    dx = dh
    for i in reversed(range(cfg.n_layers)):
        b = f"encoder.block{i}."
        blk = cache.blocks[i]
        # feed-forward residual: x = x_mid + ffn(ln2(x_mid))
        dhidden, dw2, db2 = linear_backward(params.value(b + "ffn.w2"), blk.hidden, dx)
        df1 = relu_backward(blk.hidden, dhidden)
        dn2, dw1, db1 = linear_backward(params.value(b + "ffn.w1"), blk.n2, df1)
        dx_mid_ln, dg2, db2ln = layer_norm_backward(params.value(b + "ln2.scale"), blk.ln2, dn2)
        dx_mid = dx + dx_mid_ln
        params.add_grad(b + "ffn.w2", dw2)
        params.add_grad(b + "ffn.b2", db2)
        params.add_grad(b + "ffn.w1", dw1)
        params.add_grad(b + "ffn.b1", db1)
        params.add_grad(b + "ln2.scale", dg2)
        params.add_grad(b + "ln2.shift", db2ln)
        # attention residual: x_mid = x_in + attn(ln1(x_in))
        dn1, mha_grads = mha_backward(MhaParams.read(params, b + "attn."), blk.mha, dx_mid)
        dx_in_ln, dg1, db1ln = layer_norm_backward(params.value(b + "ln1.scale"), blk.ln1, dn1)
        dx = dx_mid + dx_in_ln
        mha_grads.add_grads(params, b + "attn.")
        params.add_grad(b + "ln1.scale", dg1)
        params.add_grad(b + "ln1.shift", db1ln)
    return dx


# --- embedding file format -----------------------------------------------------
#
# Layout: magic "IEMB", u32 version (=1), u32 B, u32 L, u32 d,
# u8 label_kind (0 = class index, 1 = multi-label), u32 C, then B labels
# (u32 each for class indices, C x u8 each for multi-label rows), then
# B*L*d finite little-endian float32 values in row-major order. B, L and d
# are at least 1; a class index is below C and a multi-label byte is 0 or 1.
# Like checkpoints, the file is mapped to be read and replaced to be written
# (``tensor.mapped``, ``tensor.write_replacing``). The payload stays the
# mapped float32 in memory; the head widens it to float64 where it reads it.

_EMB_MAGIC = b"IEMB"
_EMB_VERSION = 1


def save_embeddings(path, h: np.ndarray, labels: np.ndarray, n_classes: int) -> None:
    """Write hidden states and labels; 1-D integer labels are class indices,
    a 2-D 0/1 matrix is treated as multi-label rows. Nothing is written when a
    value is not a finite float32 (``NumericError``), an extent is 0
    (``DimensionError``), or a label is not an integer or lies outside the
    label space (``LabelError``). The file is replaced, never rewritten in
    place, so arrays already loaded from ``path`` keep their values."""
    h = np.asarray(h)
    labels = np.asarray(labels)
    if h.ndim != 3 or 0 in h.shape:
        raise DimensionError(f"hidden states must be B x L x d with every extent >= 1, got {h.shape}")
    b, length, d = h.shape
    multilabel = labels.ndim == 2
    if multilabel and labels.shape != (b, n_classes):
        raise DimensionError(f"multi-label matrix {labels.shape} vs ({b}, {n_classes})")
    if not multilabel and labels.shape != (b,):
        raise DimensionError(f"label vector {labels.shape} vs ({b},)")
    limit = 2 if multilabel else n_classes
    # the integer test matters: astype below would truncate 0.7 to 0
    if not ((labels >= 0) & (labels < limit) & (labels == np.floor(labels))).all():
        raise LabelError(f"labels must be integers in [0, {limit})")
    payload = finite_float32(h, "hidden state")
    header = struct.pack("<IIIIBI", _EMB_VERSION, b, length, d, 1 if multilabel else 0, n_classes)
    labels = labels.astype(np.uint8 if multilabel else "<u4")
    write_replacing(path, (_EMB_MAGIC + header, labels.tobytes(), payload.data))


def load_embeddings(path, n_classes: int | None = None, d: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Parse an embedding file; returns (hidden states, labels).

    The hidden states are a read-only float32 view of the file, mapped by
    :func:`~inceptive.tensor.mapped` rather than read, so loading copies no
    payload (its pages are the file's, shared with the page cache); they
    carry no gradient, entering the pipeline as a frozen input. The payload
    is checked for finite values in fixed-size chunks. A file that breaks the
    layout above, or whose d or C differs from ``d`` or ``n_classes`` when
    given, raises :class:`~inceptive.errors.FormatError` naming the file and
    the failing byte offset; the header is checked before the payload is
    scanned. The file must not be truncated or rewritten in place while the
    array lives; :func:`save_embeddings` replaces it.
    """
    with mapped(path) as r:
        r.magic(_EMB_MAGIC, "embedding-file")
        version, b, length, width, label_kind, classes = r.unpack("<IIIIBI", "embedding header")
        if version != _EMB_VERSION:
            raise FormatError(f"unsupported embedding-file version {version}", 4)
        for at, field, n in ((8, "B", b), (12, "L", length), (16, "d", width)):
            if n == 0:
                raise FormatError(f"embedding header field {field} is 0", at)
        if d is not None and width != d:
            raise FormatError(f"embedding width {width} vs configured d={d}", 16)
        if n_classes is not None and classes != n_classes:
            raise FormatError(f"label space C={classes} vs configured n_classes={n_classes}", 21)
        if label_kind == 0:
            labels = r.array("<u4", (b,), "class-index labels", limit=classes).astype(np.int64)
        elif label_kind == 1:
            labels = r.array("u1", (b, classes), "multi-label rows", limit=2).astype(np.float64)
        else:
            raise FormatError(f"unknown label kind {label_kind}", 20)
        h = r.array("<f4", (b, length, width), "payload")
        r.end("embedding file")
    return h, labels
