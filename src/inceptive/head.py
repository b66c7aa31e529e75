"""The classification head: parallel multi-scale convolutions over token
representations, residual feature concatenation, multi-head self-attention,
sequence-wide average pooling, a dense reduction block, and a linear
classifier.

Two ablation variants remove exactly one named stage each (``no_attn``
pools the enriched features directly; ``no_dense`` classifies the pooled
attention output directly), and a first-token baseline head serves as the
conventional comparator. Both heads share one interface (``forward``,
``backward``, ``set_mode``, ``buffers``); :func:`make_head` builds either.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DimensionError, InputError, NumericError
from .layers import (
    KERNEL_SIZES,
    BatchNormState,
    DropoutSpec,
    MhaCache,
    MhaMeanCache,
    MhaParams,
    batchnorm_apply,
    batchnorm_backward,
    conv1d_backward,
    conv1d_forward,
    conv_branch,
    dropout,
    dropout_backward,
    layer_norm,
    layer_norm_backward,
    linear,
    linear_backward,
    mha_forward,
    mha_mean_backward,
    mha_mean_forward,
    relu,
    relu_backward,
)
from .tensor import ParamSpec, ParamStore, Rng

__all__ = [
    "KERNEL_SIZES",
    "VARIANTS",
    "ModelConfig",
    "head_param_specs",
    "init_head_params",
    "make_head_state",
    "make_head",
    "HeadState",
    "inception_forward",
    "inception_backward",
    "multi_head_attention",
    "adaptive_avg_pool",
    "head_forward",
    "head_backward",
    "HeadPass",
    "baseline_param_specs",
    "init_baseline_params",
    "BaselineHead",
    "BaselinePass",
    "attention_received",
    "received_entropy",
    "shape_probe",
    "write_attention_csv",
    "write_attention_pgm",
]

VARIANTS = ("full", "no_attn", "no_dense")
TASKS = ("multi-class", "binary", "multi-label")


@dataclass
class ModelConfig:
    """Architecture hyperparameters.

    ``c`` is the channel count of each convolution branch, so the enriched
    feature width is ``d_r = d + 4c``. ``head_dim`` defaults to
    ``d_r // n_heads`` and may be overridden.
    """

    d: int
    c: int
    n_heads: int = 2
    head_dim: int | None = None
    dense_dim: int = 64
    n_classes: int = 2
    task: str = "multi-class"
    dropout_rate: float = 0.1
    variant: str = "full"

    def __post_init__(self):
        if self.task not in TASKS:
            raise ConfigError(f"task must be one of {TASKS}, got {self.task!r}")
        if self.variant not in VARIANTS:
            raise ConfigError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.d < 1 or self.c < 1 or self.dense_dim < 1 or self.n_heads < 1:
            raise ConfigError("d, c, dense_dim, and n_heads must be positive")
        if self.n_classes < 2:
            raise ConfigError("need at least 2 classes")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        if self.resolved_head_dim < 1:
            raise ConfigError("head_dim resolved to zero; raise head_dim or lower n_heads")
        if self.n_heads * self.resolved_head_dim > 4 * self.d_r:
            raise ConfigError(
                f"attention width {self.n_heads} x {self.resolved_head_dim} exceeds 4 x d_r = {4 * self.d_r}"
            )

    @property
    def d_r(self) -> int:
        return self.d + 4 * self.c

    @property
    def resolved_head_dim(self) -> int:
        return self.head_dim if self.head_dim is not None else self.d_r // self.n_heads

    @property
    def has_attention(self) -> bool:
        return self.variant in ("full", "no_dense")

    @property
    def has_dense(self) -> bool:
        return self.variant in ("full", "no_attn")

    @property
    def classifier_in(self) -> int:
        return self.dense_dim if self.has_dense else self.d_r


def head_param_specs(cfg: ModelConfig) -> list[ParamSpec]:
    """Exactly the parameters the configured variant uses, in store order:
    Glorot-uniform weights (convolution fans count kernel taps), zero biases
    and norm shifts, unit norm scales."""
    c, r, n = cfg.c, cfg.d_r, cfg.dense_dim
    specs: list[ParamSpec] = []
    for k in KERNEL_SIZES:
        # No conv bias: batch norm follows immediately and its mean
        # subtraction cancels a per-channel constant, so the shift term
        # below carries that role.
        b = _branch_name(k)
        specs.append((b + "weight", (c, k, cfg.d), (k * cfg.d, k * c)))
        specs += [(b + "bn.scale", (c,), 1.0), (b + "bn.shift", (c,), 0.0)]
    if cfg.has_attention:
        h, da = cfg.n_heads, cfg.resolved_head_dim
        specs += [("head." + name, (h, r, da), (r, da)) for name in ("attn.w_q", "attn.w_k", "attn.w_v")]
        specs.append(("head.attn.w_o", (h * da, r), (h * da, r)))
    if cfg.has_dense:
        specs += [("head.dense.weight", (r, n), (r, n)), ("head.dense.bias", (n,), 0.0)]
        specs += [("head.dense.ln.scale", (n,), 1.0), ("head.dense.ln.shift", (n,), 0.0)]
    shape = (cfg.classifier_in, cfg.n_classes)
    return specs + [("head.classifier.weight", shape, shape), ("head.classifier.bias", (cfg.n_classes,), 0.0)]


def init_head_params(cfg: ModelConfig, rng: Rng) -> ParamStore:
    """A store of :func:`head_param_specs`, drawn from ``rng``."""
    return ParamStore((head_param_specs(cfg), rng))


@dataclass
class HeadState:
    """The enrichment head over ``store`` (:func:`head_forward`,
    :func:`head_backward`) with its batch-norm running statistics over the
    ``4c`` branch channels and the dropout applied to the hidden states."""

    cfg: ModelConfig
    store: ParamStore
    bn: BatchNormState
    dropout: DropoutSpec

    def forward(self, h: np.ndarray, rng: Rng | None = None) -> HeadPass:
        return head_forward(self.cfg, self.store, self, h, rng)

    def backward(self, hp: HeadPass, dlogits: np.ndarray, need_input_grad: bool = True) -> np.ndarray | None:
        return head_backward(self.cfg, self.store, self, hp, dlogits, need_input_grad)

    def received(self, hp: HeadPass) -> np.ndarray:
        """The received-attention map, ``(B, L)``, read from the weight rows'
        column sums that the pooled attention keeps (so no row is formed)."""
        if not self.cfg.has_attention:
            raise ConfigError(f"variant {self.cfg.variant!r} has no attention to export")
        return attention_received(hp.mha.colsum)

    def set_mode(self, train: bool) -> None:
        mode = "train" if train else "eval"
        self.dropout.mode = mode
        self.bn.mode = mode

    def buffers(self) -> dict[str, np.ndarray]:
        """Running statistics under each branch's checkpoint name; each value
        is a view of that branch's channel slice."""
        out = {}
        for k, cols in _branch_columns(self.cfg.c):
            b = _branch_name(k)
            out[b + "bn.running_mean"] = self.bn.running_mean[cols]
            out[b + "bn.running_var"] = self.bn.running_var[cols]
        return out


def make_head_state(cfg: ModelConfig, store: ParamStore) -> HeadState:
    """The enrichment head over ``store``, with fresh running statistics
    (mean 0, variance 1)."""
    bn = BatchNormState(np.zeros(4 * cfg.c), np.ones(4 * cfg.c))
    return HeadState(cfg, store, bn, DropoutSpec(cfg.dropout_rate))


def make_head(kind: str, cfg: ModelConfig, rng: Rng, before: tuple = ()) -> HeadState | BaselineHead:
    """Head ``kind`` over a new store of the ``(specs, rng)`` groups ``before``
    and then the head's own parameters, drawn from ``rng``."""
    if kind == "inceptive":
        return make_head_state(cfg, ParamStore(*before, (head_param_specs(cfg), rng)))
    if kind == "baseline":
        store = ParamStore(*before, (baseline_param_specs(cfg.d, cfg.n_classes), rng))
        return BaselineHead(store, DropoutSpec(cfg.dropout_rate))
    raise ConfigError(f"model kind must be one of ('inceptive', 'baseline'), got {kind!r}")


def _branch_name(k: int) -> str:
    return f"head.inception.branch_k{k}."


def _branch_columns(c: int):
    """Each kernel width with its channel slice of the concatenated map."""
    for i, k in enumerate(KERNEL_SIZES):
        yield k, slice(i * c, (i + 1) * c)


def _branch(store: ParamStore, k: int):
    return conv_branch(k, store.value(_branch_name(k) + "weight"))


def _bn_param(store: ParamStore, name: str) -> np.ndarray:
    """One batch-norm parameter of every branch, concatenated in kernel order."""
    return np.concatenate([store.value(_branch_name(k) + "bn." + name) for k in KERNEL_SIZES])


def inception_forward(
    cfg: ModelConfig, store: ParamStore, state: HeadState, h: np.ndarray, out: np.ndarray | None = None
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Four convolution branches (widths 2, 3, 5, 7), concatenated
    channel-wise in kernel order, then one batch norm and ReLU over the
    concat. Both act on each channel alone, so this is each branch
    followed by its own norm and ReLU. Returns the ReLU output, written
    into ``out`` when given, and the batch norm's cache."""
    y = np.empty((*h.shape[:2], len(KERNEL_SIZES) * cfg.c), dtype=h.dtype)
    for k, cols in _branch_columns(cfg.c):
        conv1d_forward(_branch(store, k), h, out=y[..., cols])
    z, bn_cache = batchnorm_apply(state.bn, _bn_param(store, "scale"), _bn_param(store, "shift"), y)
    return relu(z, out), bn_cache


def inception_backward(
    cfg: ModelConfig,
    store: ParamStore,
    state: HeadState,
    h: np.ndarray,
    c_map: np.ndarray,
    bn_cache: tuple[np.ndarray, np.ndarray],
    dc_map: np.ndarray,
    need_input_grad: bool = True,
) -> np.ndarray | None:
    """Accumulate the branch gradients from the forward's output ``c_map``
    and batch-norm cache; returns the gradient w.r.t. ``h``, or ``None``
    without forming it when ``need_input_grad`` is off."""
    dz = relu_backward(c_map, dc_map)
    dy, dgamma, dbeta = batchnorm_backward(state.bn, _bn_param(store, "scale"), bn_cache, dz)
    dh = np.zeros_like(h) if need_input_grad else None
    for k, cols in _branch_columns(cfg.c):
        b = _branch_name(k)
        dh_k, dw, _ = conv1d_backward(_branch(store, k), h, dy[..., cols], need_input_grad)
        if need_input_grad:
            dh += dh_k
        store.add_grad(b + "weight", dw)
        store.add_grad(b + "bn.scale", dgamma[cols])
        store.add_grad(b + "bn.shift", dbeta[cols])
    return dh


def attention_received(colsum: np.ndarray) -> np.ndarray:
    """Attention mass landing on each key position, averaged over heads and
    query positions: one ``(B, L)`` probability row per example, from the
    ``(B, h, L)`` column sums of the weight rows, in their dtype.

    Every weight row sums to 1, so each head's column sums total L (checked
    to 1e-6 relative); the averaged row then sums to 1. Non-finite sums
    (from non-finite parameters or inputs) raise ``NumericError``.
    """
    colsum = np.asarray(colsum)
    if colsum.ndim != 3:
        raise DimensionError(f"column sums must be B x h x L, got {colsum.shape}")
    length = colsum.shape[-1]
    totals = colsum.sum(axis=-1)
    if not np.isfinite(totals).all():
        raise NumericError("attention weights are not finite")
    if np.abs(totals - length).max() > 1e-6 * length:
        raise InputError("attention rows are not normalized")
    return colsum.mean(axis=1) / length


def received_entropy(received: np.ndarray) -> np.ndarray:
    """Shannon entropy (nats) of each received-attention row; 0 log 0 = 0."""
    r = np.asarray(received, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(r > 0, -r * np.log(r), 0.0)
    return terms.sum(axis=-1)


def multi_head_attention(
    cfg: ModelConfig, store: ParamStore, r: np.ndarray
) -> tuple[np.ndarray, np.ndarray, MhaCache]:
    """Per-position self-attention over the enriched features; also returns
    the received map computed from the pre-projection weight rows. The head
    itself only needs the pooled output (:func:`mha_mean_forward`)."""
    a, cache = mha_forward(MhaParams.read(store, "head.attn."), r)
    return a, attention_received(cache.weights.sum(axis=2)), cache


def adaptive_avg_pool(a: np.ndarray) -> np.ndarray:
    """Mean over sequence positions: ``B x L x f`` to ``B x f``."""
    if a.ndim != 3 or a.shape[1] < 1:
        raise DimensionError(f"pooling expects B x L x f with L >= 1, got {a.shape}")
    return a.mean(axis=1)


@dataclass
class HeadPass:
    """Everything the backward pass needs, plus the staged outputs that
    shape probes and splice tests inspect. ``h`` is the input as given;
    ``h_dropped`` and ``c_map`` are the two column blocks of ``r``."""

    h: np.ndarray
    mask: np.ndarray
    h_dropped: np.ndarray
    inception: tuple[np.ndarray, np.ndarray]  # the batch norm's cache
    c_map: np.ndarray
    r: np.ndarray
    mha: MhaMeanCache | None
    pooled: np.ndarray
    dense_act: np.ndarray | None  # post-ReLU dense activation
    dense_ln: tuple[np.ndarray, np.ndarray] | None  # the layer norm's cache
    dense_out: np.ndarray | None  # post layer-norm dense output
    logits: np.ndarray


def head_forward(
    cfg: ModelConfig, store: ParamStore, state: HeadState, h: np.ndarray, rng: Rng | None = None
) -> HeadPass:
    """Run the configured pipeline over hidden states ``B x L x d``.

    The enriched features ``r`` (``B x L x d_r``) are one float64 buffer,
    which fixes the pass's dtype (the layers follow their input's): dropout
    writes the first ``d`` columns, widening a float32 ``h`` (frozen inputs
    keep their file's dtype), and the inception ReLU the last ``4c``.
    """
    h = np.asarray(h)
    if h.ndim != 3 or h.shape[2] != cfg.d:
        raise DimensionError(f"hidden states must be B x L x {cfg.d}, got {h.shape}")
    _check_store(cfg, store)
    r = np.empty(h.shape[:2] + (cfg.d_r,), dtype=np.float64)
    h_dropped, mask = dropout(state.dropout, h, rng, out=r[..., : cfg.d])
    c_map, bn_cache = inception_forward(cfg, store, state, h_dropped, out=r[..., cfg.d :])
    if cfg.has_attention:
        # attention then mean pool, without the per-position attention output
        pooled, mha_cache = mha_mean_forward(MhaParams.read(store, "head.attn."), r)
    else:
        mha_cache = None
        pooled = adaptive_avg_pool(r)
    if cfg.has_dense:
        dense_act = relu(linear(store.value("head.dense.weight"), store.value("head.dense.bias"), pooled))
        dense_out, dense_ln = layer_norm(
            store.value("head.dense.ln.scale"), store.value("head.dense.ln.shift"), dense_act
        )
        cls_in = dense_out
    else:
        dense_act, dense_ln, dense_out = None, None, None
        cls_in = pooled
    logits = linear(store.value("head.classifier.weight"), store.value("head.classifier.bias"), cls_in)
    return HeadPass(
        h, mask, h_dropped, bn_cache, c_map, r, mha_cache, pooled, dense_act, dense_ln, dense_out, logits
    )


def _check_store(cfg: ModelConfig, store: ParamStore) -> None:
    needed = "head.attn.w_q" if cfg.has_attention else "head.dense.weight" if cfg.has_dense else None
    if needed and needed not in store:
        raise ConfigError(f"variant {cfg.variant!r} needs parameter {needed} but the store lacks it")
    w = store.value("head.classifier.weight")
    if w.shape[0] != cfg.classifier_in:
        raise ConfigError(
            f"classifier expects input {cfg.classifier_in} for variant {cfg.variant!r}, "
            f"store has {w.shape[0]}"
        )


def head_backward(
    cfg: ModelConfig,
    store: ParamStore,
    state: HeadState,
    hp: HeadPass,
    dlogits: np.ndarray,
    need_input_grad: bool = True,
) -> np.ndarray | None:
    """Accumulate parameter gradients; returns the gradient w.r.t. the
    (pre-dropout) hidden states.

    With ``need_input_grad`` off (frozen inputs: nothing below the head
    trains) it returns ``None`` and builds no input gradient: attention
    back-propagates only into the ``4c`` convolution columns of ``r``, the
    convolutions skip their input products and dropout has no backward.
    The parameter gradients are the same either way. They are bitwise the
    same where BLAS rounds the narrower attention product's columns as it
    rounds them in the full-width one; at the desk and paper shapes it does.
    """
    if cfg.has_dense:
        dcls_in, dwc, dbc = linear_backward(store.value("head.classifier.weight"), hp.dense_out, dlogits)
        ddense_act, dg, dbln = layer_norm_backward(store.value("head.dense.ln.scale"), hp.dense_ln, dcls_in)
        ddense_pre = relu_backward(hp.dense_act, ddense_act)
        dpooled, dwd, dbd = linear_backward(store.value("head.dense.weight"), hp.pooled, ddense_pre)
        store.add_grad("head.dense.weight", dwd)
        store.add_grad("head.dense.bias", dbd)
        store.add_grad("head.dense.ln.scale", dg)
        store.add_grad("head.dense.ln.shift", dbln)
    else:
        dpooled, dwc, dbc = linear_backward(store.value("head.classifier.weight"), hp.pooled, dlogits)
    store.add_grad("head.classifier.weight", dwc)
    store.add_grad("head.classifier.bias", dbc)
    # the first d columns of r are the input itself; only the input gradient reads them
    dr_start = 0 if need_input_grad else cfg.d
    if cfg.has_attention:
        dr, grads = mha_mean_backward(MhaParams.read(store, "head.attn."), hp.mha, dpooled, dr_start)
        grads.add_grads(store, "head.attn.")
    else:
        dr = np.broadcast_to(dpooled[:, None, :] / hp.r.shape[1], hp.r.shape)[..., dr_start:]
    dc_map = dr[..., cfg.d - dr_start :]
    dh_conv = inception_backward(
        cfg, store, state, hp.h_dropped, hp.c_map, hp.inception, dc_map, need_input_grad
    )
    if not need_input_grad:
        return None
    dh_dropped = dr[..., : cfg.d].copy()
    dh_dropped += dh_conv
    return dropout_backward(state.dropout, hp.mask, dh_dropped)


# --- first-token baseline comparator --------------------------------------------


def baseline_param_specs(d: int, n_classes: int) -> list[ParamSpec]:
    return [("head.cls.weight", (d, n_classes), (d, n_classes)), ("head.cls.bias", (n_classes,), 0.0)]


def init_baseline_params(d: int, n_classes: int, rng: Rng) -> ParamStore:
    return ParamStore((baseline_param_specs(d, n_classes), rng))


@dataclass
class BaselinePass:
    h_shape: tuple[int, ...]
    mask: np.ndarray
    dropped: np.ndarray
    logits: np.ndarray


@dataclass
class BaselineHead:
    """Classifies from the first-position representation: dropout then a
    single affine map. It has no buffers and no attention of its own."""

    store: ParamStore
    dropout: DropoutSpec

    def set_mode(self, train: bool) -> None:
        self.dropout.mode = "train" if train else "eval"

    def buffers(self) -> dict[str, np.ndarray]:
        return {}

    def forward(self, h: np.ndarray, rng: Rng | None = None) -> BaselinePass:
        """Only the first row is read; widening it to float64 fixes the pass's dtype."""
        h = np.asarray(h)
        if h.ndim != 3 or h.shape[1] < 1:
            raise DimensionError(f"hidden states must be B x L x d with L >= 1, got {h.shape}")
        first = np.asarray(h[:, 0, :], dtype=np.float64)
        dropped, mask = dropout(self.dropout, first, rng)
        logits = linear(self.store.value("head.cls.weight"), self.store.value("head.cls.bias"), dropped)
        return BaselinePass(h.shape, mask, dropped, logits)

    def backward(
        self, bp: BaselinePass, dlogits: np.ndarray, need_input_grad: bool = True
    ) -> np.ndarray | None:
        """Accumulate the classifier gradients; returns the gradient w.r.t.
        the hidden states, or ``None`` without forming it when
        ``need_input_grad`` is off."""
        ddropped, dw, db = linear_backward(self.store.value("head.cls.weight"), bp.dropped, dlogits)
        self.store.add_grad("head.cls.weight", dw)
        self.store.add_grad("head.cls.bias", db)
        if not need_input_grad:
            return None
        dfirst = dropout_backward(self.dropout, bp.mask, ddropped)
        dh = np.zeros(bp.h_shape)
        dh[:, 0, :] = dfirst
        return dh


# --- diagnostics ----------------------------------------------------------------


def shape_probe(cfg: ModelConfig, batch: int = 2, length: int = 8, seed: int = 0) -> dict[str, tuple]:
    """Run a forward pass on random input and report each stage's shape."""
    rng = Rng(seed)
    head = make_head("inceptive", cfg, rng.child("params"))
    head.set_mode(False)
    hp = head.forward(rng.child("input").normal((batch, length, cfg.d)))
    shapes = {
        "hidden": hp.h.shape,
        "conv_concat": hp.c_map.shape,
        "enriched": hp.r.shape,
        "pooled": hp.pooled.shape,
        "logits": hp.logits.shape,
    }
    if cfg.has_attention:
        # the head pools attention without forming it; the per-position form shows its shape
        shapes["attended"] = multi_head_attention(cfg, head.store, hp.r)[0].shape
    if hp.dense_out is not None:
        shapes["dense"] = hp.dense_out.shape
    return shapes


def write_attention_csv(path, received: np.ndarray) -> None:
    """One example's received-attention vector as ``position,received`` rows."""
    received = np.asarray(received, dtype=np.float64).reshape(-1)
    lines = ["position,received"]
    lines += [f"{i},{float(v)!r}" for i, v in enumerate(received)]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_attention_pgm(path, received: np.ndarray) -> None:
    """Grayscale heatmap, one row per example; each row is scaled to 0..255
    by its own maximum."""
    received = np.atleast_2d(np.asarray(received, dtype=np.float64))
    rows, cols = received.shape
    maxes = received.max(axis=1, keepdims=True)
    maxes[maxes <= 0] = 1.0
    pixels = np.rint(received / maxes * 255).astype(int)
    lines = ["P2", f"{cols} {rows}", "255"]
    lines += [" ".join(str(v) for v in row) for row in pixels]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
