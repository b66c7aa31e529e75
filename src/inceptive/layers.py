"""Differentiable building blocks with explicit forward and backward passes.

There is no autodiff tape: every operation ships its own adjoint, and the
model modules chain them by hand. One rule holds for every adjoint but one:
it reads its forward's input, output, mask or cache, and never re-runs the
forward. The norms return ``(centered, inv_std)`` as their cache, the
attention forwards a :class:`MhaCache` or :class:`MhaMeanCache`, dropout its
mask, and the ReLU adjoint reads the ReLU's output. :func:`sdpa_backward`
reads the forward's attended output as well as its weight rows: its softmax
row term is ``rowsum(dout * out)`` over ``d_head``, not a sum over the ``L``
keys. Norm statistics are BLAS matvecs over the ``(rows, features)`` view:
layer norm's row means, and both norms' parameter-gradient sums (batch
norm's forward statistics stay numpy reductions, see
:func:`batchnorm_apply`). The deliberate exception is
:func:`mha_mean_backward`: when a batch spans more than one chunk of at
most ``_SCORE_CHUNK`` score elements (at least one example), its cache
keeps no ``(B, h, L, L)`` weight rows, so it recomputes them from the
cached queries and keys, one chunk at a time.
Each pair is checkable with :func:`inceptive.tensor.grad_check`.

Every function computes in the dtype it is given, its buffers included;
float64 is fixed by the callers (see :mod:`inceptive.tensor`).

Shapes follow the batch-first convention ``B x L x features`` throughout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import ConfigError, DegenerateBatchError, DimensionError
from .tensor import ParamStore, Rng

__all__ = [
    "KERNEL_SIZES",
    "ConvBranch",
    "conv_branch",
    "conv1d_forward",
    "conv1d_backward",
    "BatchNormState",
    "batchnorm_apply",
    "batchnorm_backward",
    "relu",
    "relu_backward",
    "DropoutSpec",
    "dropout",
    "dropout_backward",
    "linear",
    "linear_backward",
    "layer_norm",
    "layer_norm_backward",
    "softmax_rows",
    "scaled_dot_product_attention",
    "sdpa_backward",
    "MhaParams",
    "mha_forward",
    "mha_backward",
    "MhaMeanCache",
    "mha_mean_forward",
    "mha_mean_backward",
]

KERNEL_SIZES = (2, 3, 5, 7)


# --- multi-scale 1-D convolution ---------------------------------------------


@dataclass
class ConvBranch:
    """One convolution branch: ``c`` filters of width ``kernel_size`` over
    the feature dimension, zero-padded so the sequence length is preserved.

    Width-2 kernels pad one position on the right only; odd widths pad
    symmetrically. ``pad_left + pad_right == kernel_size - 1`` always holds.
    """

    kernel_size: int
    weight: np.ndarray  # (c, k, d)
    bias: np.ndarray | None  # (c,), or None for a bias-free branch
    pad_left: int
    pad_right: int


def conv_branch(kernel_size: int, weight: np.ndarray, bias: np.ndarray | None = None) -> ConvBranch:
    """Build a branch with the padding rule implied by the kernel width."""
    if kernel_size not in KERNEL_SIZES:
        raise ConfigError(f"kernel size must be one of {KERNEL_SIZES}, got {kernel_size}")
    weight = np.asarray(weight)
    bias = None if bias is None else np.asarray(bias)
    if weight.ndim != 3 or weight.shape[1] != kernel_size:
        raise DimensionError(f"conv weight must be (c, {kernel_size}, d), got {weight.shape}")
    if kernel_size == 2:
        pads = (0, 1)
    else:
        pads = ((kernel_size - 1) // 2, (kernel_size - 1) // 2)
    return ConvBranch(kernel_size, weight, bias, *pads)


def _tap_rows(branch: ConvBranch, length: int):
    """For each kernel tap j, the output rows ``lo:hi`` it reaches and the
    input shift ``s``: output row ``i`` reads input row ``i + s``. Taps that
    fall wholly in the padding are skipped."""
    for j in range(branch.kernel_size):
        s = j - branch.pad_left
        lo, hi = max(0, -s), min(length, length - s)
        if lo < hi:
            yield j, s, lo, hi


def _tap_major(branch: ConvBranch) -> np.ndarray:
    """``(c, k, d)`` weight as a ``(k * c, d)`` matrix, tap-major rows."""
    c, k, d = branch.weight.shape
    return branch.weight.transpose(1, 0, 2).reshape(k * c, d)


def conv1d_forward(branch: ConvBranch, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Slide each filter over the token axis: ``y[b,i,f]`` is the sum over
    kernel offsets j of ``weight[f,j,:] . h_padded[b,i+j,:]`` plus bias, if any.

    Output is ``B x L x c`` with L identical to the input length, written
    into ``out`` when given. All taps come from one GEMM,
    ``(B*L, d) @ (d, k*c)``; each tap's slice is then added to the output
    shifted by its offset (the kn2row form).
    """
    if h.ndim != 3:
        raise DimensionError(f"conv input must be B x L x d, got {h.shape}")
    if h.shape[2] != branch.weight.shape[2]:
        raise DimensionError(
            f"feature dim mismatch: input {h.shape[2]} vs filter {branch.weight.shape[2]}"
        )
    b, length, d = h.shape
    c, k, _ = branch.weight.shape
    taps = (h.reshape(b * length, d) @ _tap_major(branch).T).reshape(b, length, k, c)
    y = np.empty((b, length, c), dtype=taps.dtype) if out is None else out
    y[...] = 0.0 if branch.bias is None else branch.bias
    for j, s, lo, hi in _tap_rows(branch, length):
        y[:, lo:hi, :] += taps[:, lo + s : hi + s, j, :]
    return y


def conv1d_backward(
    branch: ConvBranch, h: np.ndarray, dy: np.ndarray, need_input_grad: bool = True
) -> tuple[np.ndarray | None, np.ndarray, np.ndarray | None]:
    """Adjoint of :func:`conv1d_forward`; padding positions get no input grad.

    ``dy`` is scattered into the per-tap layout of the forward's GEMM, so
    the weight and input gradients are one product each. With
    ``need_input_grad`` off the input gradient is not formed, and for a
    bias-free branch no bias gradient is; ``None`` takes each one's place.
    """
    b, length, d = h.shape
    c, k, _ = branch.weight.shape
    dtaps = np.zeros((b, length, k, c), dtype=dy.dtype)
    for j, s, lo, hi in _tap_rows(branch, length):
        dtaps[:, lo + s : hi + s, j, :] = dy[:, lo:hi, :]
    dtaps = dtaps.reshape(b * length, k * c)
    dweight = (dtaps.T @ h.reshape(b * length, d)).reshape(k, c, d).transpose(1, 0, 2)
    dh = (dtaps @ _tap_major(branch)).reshape(b, length, d) if need_input_grad else None
    dbias = None if branch.bias is None else dy.sum(axis=(0, 1))
    return dh, dweight, dbias


# --- batch normalization -------------------------------------------------------


@dataclass
class BatchNormState:
    """Per-channel running statistics of a batch norm; the learned scale and
    shift are parameters, passed to each call like :func:`layer_norm`'s.

    In train mode, statistics pool over the batch and every sequence
    position; running estimates are updated as
    ``r <- (1 - momentum) * r + momentum * batch_stat``. In eval mode the
    running estimates are used and the op is a pure function of its input.
    """

    running_mean: np.ndarray  # (c,), starts at 0
    running_var: np.ndarray  # (c,), starts at 1
    momentum: float = 0.1
    eps: float = 1e-5
    mode: str = "train"


def batchnorm_apply(
    state: BatchNormState, gamma: np.ndarray, beta: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Normalize ``B x L x c`` per channel, then apply the learned affine.
    Returns the output and the cache ``(centered, inv_std)``."""
    if x.shape[2] != state.running_mean.shape[0]:
        raise DimensionError(f"channel mismatch: input {x.shape[2]} vs state {state.running_mean.shape[0]}")
    if state.mode == "train":
        n = x.shape[0] * x.shape[1]
        if n < 2:
            raise DegenerateBatchError(f"batch norm needs at least 2 pooled positions, got {n}")
        # numpy's reductions, not matvecs: they round each channel's sum
        # alike at any channel count, so one norm over the branches' concat
        # is bitwise each branch's own norm
        mean = x.mean(axis=(0, 1))
        centered = x - mean
        var = np.square(centered).sum(axis=(0, 1)) / n  # bitwise x.var(axis=(0, 1))
        state.running_mean[...] = (1 - state.momentum) * state.running_mean + state.momentum * mean
        state.running_var[...] = (1 - state.momentum) * state.running_var + state.momentum * var
    else:
        mean, var = state.running_mean, state.running_var
        centered = x - mean
    std = np.sqrt(var + state.eps)
    y = centered / std  # then gamma * y + beta, in place
    y *= gamma
    y += beta
    return y, (centered, 1.0 / std)


def batchnorm_backward(
    state: BatchNormState, gamma: np.ndarray, cache: tuple[np.ndarray, np.ndarray], dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Gradients w.r.t. input, scale, and shift, from the forward's cache.

    Train mode differentiates through the batch statistics (each input
    element moves the shared mean and variance); eval mode treats the
    running statistics as constants. Running estimates are not touched.

    The per-channel sums are matvecs over the ``(B*L, c)`` view. In train
    mode ``dx = inv_std * (dxhat - sum(dxhat) / n - xhat * sum(dxhat * xhat) / n)``
    with ``dxhat = gamma * dy``, so its two sums are ``gamma * dbeta`` and
    ``gamma * dgamma``.
    """
    centered, inv_std = cache
    n, c = centered.shape[0] * centered.shape[1], centered.shape[2]
    ones = np.ones(n, dtype=dy.dtype)
    xhat = centered * inv_std
    dbeta = ones @ dy.reshape(n, c)
    dgamma = ones @ (dy * xhat).reshape(n, c)
    dx = dy * gamma  # dxhat
    if state.mode == "train":
        dx -= gamma * dbeta / n
        xhat *= gamma * dgamma / n
        dx -= xhat
    dx *= inv_std
    return dx, dgamma, dbeta


# --- elementwise pieces --------------------------------------------------------


def relu(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    return np.maximum(x, 0.0, out=out)


def relu_backward(y: np.ndarray, dy: np.ndarray) -> np.ndarray:
    # Reads the ReLU's output: y > 0 exactly where x > 0 (subgradient 0 at 0).
    return dy * (y > 0)


@dataclass
class DropoutSpec:
    """Inverted dropout: kept activations are rescaled by 1/(1-rate) at
    train time so eval mode is the exact identity."""

    rate: float
    mode: str = "train"

    def __post_init__(self):
        if not 0.0 <= self.rate < 1.0:
            raise ConfigError(f"dropout rate must be in [0, 1), got {self.rate}")


def dropout(
    spec: DropoutSpec, x: np.ndarray, rng: Rng | None = None, out: np.ndarray | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Returns (output, bool keep mask). Eval mode and rate 0 pass ``x``
    through unchanged (copied into ``out`` when given), consume no
    randomness and return an all-true mask that is a zero-stride view, not
    a buffer.

    The output is ``x / (1 - rate)`` times the mask, which is bitwise
    ``x * mask / (1 - rate)``, the sign of dropped zeros included. It is
    written into ``out`` when given and computed in the dtype of ``out``,
    so a float32 ``x`` is widened in that one write; otherwise it keeps
    the dtype of ``x``.
    """
    if spec.mode != "train" or spec.rate == 0.0:
        if out is not None:
            out[...] = x
            x = out
        return x, np.broadcast_to(True, x.shape)
    if rng is None:
        raise ConfigError("train-mode dropout needs an Rng")
    keep = rng.random(x.shape) >= spec.rate
    out = np.divide(x, 1.0 - spec.rate, out=out, dtype=(x if out is None else out).dtype)
    out *= keep
    return out, keep


def dropout_backward(spec: DropoutSpec, mask: np.ndarray, dy: np.ndarray) -> np.ndarray:
    if spec.mode != "train" or spec.rate == 0.0:
        return dy
    dx = dy / (1.0 - spec.rate)
    dx *= mask
    return dx


def linear(w: np.ndarray, b: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Affine map over the trailing axis: ``y = x @ w + b``."""
    if x.shape[-1] != w.shape[0]:
        raise DimensionError(f"linear input dim {x.shape[-1]} vs weight {w.shape}")
    return x @ w + b


def linear_backward(
    w: np.ndarray, x: np.ndarray, dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dx = dy @ w.T
    dw = x2.T @ dy2
    db = np.ones(len(dy2), dtype=dy2.dtype) @ dy2
    return dx, dw, db


_LN_EPS = 1e-5


def layer_norm(
    gamma: np.ndarray, beta: np.ndarray, x: np.ndarray
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray]]:
    """Normalize the trailing axis to zero mean, unit population variance
    (eps 1e-5), then apply the learned affine. Returns the output and the
    cache ``(centered, inv_std)``. Row means are matvecs with a ``1/n``
    vector over the ``(rows, n)`` view."""
    n = x.shape[-1]
    if n < 2:
        raise DimensionError(f"layer norm needs >= 2 features, got {n}")
    avg = np.full(n, 1.0 / n, dtype=x.dtype)
    centered = x - (x.reshape(-1, n) @ avg).reshape(*x.shape[:-1], 1)
    y = np.square(centered)
    inv_std = 1.0 / np.sqrt((y.reshape(-1, n) @ avg).reshape(*x.shape[:-1], 1) + _LN_EPS)
    np.multiply(centered, inv_std, out=y)
    y *= gamma
    y += beta
    return y, (centered, inv_std)


def layer_norm_backward(
    gamma: np.ndarray, cache: tuple[np.ndarray, np.ndarray], dy: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``dx = inv_std * (dxhat - mean(dxhat) - xhat * mean(dxhat * xhat))``
    per row, with ``dxhat = gamma * dy``. The row means are matvecs of
    ``dy`` and ``dy * xhat`` with ``gamma / n``; the parameter gradients
    are matvecs with a ones vector over the rows."""
    centered, inv_std = cache
    n = centered.shape[-1]
    dy2 = dy.reshape(-1, n)
    xhat = (centered * inv_std).reshape(-1, n)
    dyx = dy2 * xhat
    ones = np.ones(len(dy2), dtype=dy2.dtype)
    dgamma, dbeta = ones @ dyx, ones @ dy2
    gbar = gamma / n
    dx = dy2 * gamma  # dxhat
    dx -= (dy2 @ gbar)[:, None]
    xhat *= (dyx @ gbar)[:, None]
    dx -= xhat
    dx *= inv_std.reshape(-1, 1)
    return dx.reshape(dy.shape), dgamma, dbeta


def softmax_rows(x: np.ndarray) -> np.ndarray:
    """Row softmax over the trailing axis, max-shifted for stability."""
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


# --- attention -----------------------------------------------------------------


def _attention_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """``softmax_rows(q k^T / sqrt(d))``, formed in place on the one score
    buffer with the same operations in the same order."""
    weights = q @ k.swapaxes(-1, -2)
    weights /= np.sqrt(q.shape[-1])
    weights -= weights.max(axis=-1, keepdims=True)
    np.exp(weights, out=weights)
    weights /= weights.sum(axis=-1, keepdims=True)
    return weights


def scaled_dot_product_attention(
    q: np.ndarray, k: np.ndarray, v: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``softmax(q k^T / sqrt(d)) v`` over the trailing two axes.

    Accepts any leading batch extents (e.g. ``B x h x L x d``). Returns the
    attended output and the weight rows, each row a probability
    distribution over key positions.
    """
    if q.shape != k.shape or q.shape != v.shape:
        raise DimensionError(f"q/k/v shapes differ: {q.shape}, {k.shape}, {v.shape}")
    d = q.shape[-1]
    if d == 0:
        raise DimensionError("attention head dimension must be positive")
    weights = _attention_weights(q, k)
    return weights @ v, weights


def sdpa_backward(
    q: np.ndarray,
    k: np.ndarray,
    v: np.ndarray,
    weights: np.ndarray,
    out: np.ndarray,
    dout: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Adjoint of attention given the forward's weight rows and attended
    output ``out``.

    Gradient flows only through the attended output; the weight rows
    returned by the forward are diagnostics. The softmax adjoint's row term
    ``sum_j dW[i,j] W[i,j]`` equals ``sum_d dout[i,d] out[i,d]``, since
    ``out = W v`` and ``dW = dout v^T`` (the FlashAttention identity), so it
    is a sum over ``d_head`` rather than over the ``L`` keys.
    """
    d = q.shape[-1]
    dv = weights.swapaxes(-1, -2) @ dout
    if weights.shape[-1] == 1:  # one key: every weight is the constant 1, and the scores get no gradient
        return np.zeros(q.shape, dtype=q.dtype), np.zeros(k.shape, dtype=k.dtype), dv
    # softmax rows: dS = W * (dW - rowsum(dout * out)), formed in place on dW
    dscores = dout @ v.swapaxes(-1, -2)
    dscores -= np.einsum("...d,...d->...", dout, out)[..., None]
    dscores *= weights
    dscores /= np.sqrt(d)
    dq = dscores @ k
    dk = dscores.swapaxes(-1, -2) @ q
    return dq, dk, dv


@dataclass
class MhaParams:
    """Stacked per-head projections. ``w_q/w_k/w_v`` are ``h x d_in x d_head``
    (slice ``[i]`` is head i); ``w_o`` is ``(h * d_head) x d_out`` and acts on
    the heads concatenated in index order."""

    w_q: np.ndarray
    w_k: np.ndarray
    w_v: np.ndarray
    w_o: np.ndarray

    @classmethod
    def read(cls, store: ParamStore, prefix: str) -> MhaParams:
        """The projections stored as ``prefix + "w_q"`` and so on."""
        return cls(*(store.value(prefix + f.name) for f in fields(cls)))

    def add_grads(self, store: ParamStore, prefix: str) -> None:
        """Add this bundle, as gradients, to the parameters :meth:`read` reads."""
        for f in fields(self):
            store.add_grad(prefix + f.name, getattr(self, f.name))


@dataclass
class MhaCache:
    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    v: np.ndarray
    weights: np.ndarray  # (B, h, L, L)
    merged: np.ndarray  # (B, L, h * d_head)


def _project_heads(x2: np.ndarray, w: np.ndarray, b: int, length: int) -> np.ndarray:
    """(B*L, d_in) by (h, d_in, d_head) -> (B, h, L, d_head) via one matmul."""
    h, d_in, d_head = w.shape
    flat = x2 @ w.transpose(1, 0, 2).reshape(d_in, h * d_head)
    return flat.reshape(b, length, h, d_head).transpose(0, 2, 1, 3)


def _project_heads_backward(
    x2: np.ndarray, w: np.ndarray, dproj: np.ndarray, dx2: np.ndarray, dx_start: int = 0
) -> np.ndarray:
    """Adjoint of :func:`_project_heads` given the projection's gradient as
    ``(B, L, h, d_head)``: adds the gradient of input columns ``dx_start:``
    into ``dx2`` (``B*L x (d_in - dx_start)``) and returns the weight
    gradient. A contiguous ``dproj`` is read as the flat ``(B*L, h*d_head)``
    view, without a copy."""
    h, d_in, d_head = w.shape
    flat = dproj.reshape(x2.shape[0], h * d_head)
    dx2 += flat @ w[:, dx_start:, :].transpose(1, 0, 2).reshape(d_in - dx_start, h * d_head).T
    return (x2.T @ flat).reshape(d_in, h, d_head).transpose(1, 0, 2)


def mha_forward(params: MhaParams, x: np.ndarray) -> tuple[np.ndarray, MhaCache]:
    """Multi-head self-attention over ``B x L x d_in``; heads run scaled
    dot-product attention independently, then concatenate and project."""
    h, d_in, d_head = params.w_q.shape
    if x.shape[-1] != d_in:
        raise DimensionError(f"attention input dim {x.shape[-1]} vs projections {params.w_q.shape}")
    b, length, _ = x.shape
    x2 = x.reshape(b * length, d_in)
    q = _project_heads(x2, params.w_q, b, length)
    k = _project_heads(x2, params.w_k, b, length)
    v = _project_heads(x2, params.w_v, b, length)
    out, weights = scaled_dot_product_attention(q, k, v)
    merged = out.transpose(0, 2, 1, 3).reshape(b, length, h * d_head)
    y = merged @ params.w_o
    return y, MhaCache(x, q, k, v, weights, merged)


def mha_backward(
    params: MhaParams, cache: MhaCache, dy: np.ndarray
) -> tuple[np.ndarray, MhaParams]:
    """Returns (dx, gradient bundle shaped like the parameter bundle)."""
    h, d_in, d_head = params.w_q.shape
    b, length, _ = cache.merged.shape
    dw_o = cache.merged.reshape(-1, h * d_head).T @ dy.reshape(-1, dy.shape[-1])
    dmerged = dy @ params.w_o.T
    dout = dmerged.reshape(b, length, h, d_head).transpose(0, 2, 1, 3)
    out = cache.merged.reshape(b, length, h, d_head).transpose(0, 2, 1, 3)
    dq, dk, dv = sdpa_backward(cache.q, cache.k, cache.v, cache.weights, out, dout)
    x2 = cache.x.reshape(b * length, d_in)
    dx2 = np.zeros_like(x2)
    dw_q = _project_heads_backward(x2, params.w_q, dq.transpose(0, 2, 1, 3), dx2)
    dw_k = _project_heads_backward(x2, params.w_k, dk.transpose(0, 2, 1, 3), dx2)
    dw_v = _project_heads_backward(x2, params.w_v, dv.transpose(0, 2, 1, 3), dx2)
    return dx2.reshape(b, length, d_in), MhaParams(dw_q, dw_k, dw_v, dw_o)


# Score elements (B * h * L * L) per chunk of weight rows in the pooled
# attention: at least one example per chunk, 4 per chunk at the paper shape
# (h = 8, L = 128).
_SCORE_CHUNK = 1 << 19


def _example_chunks(b: int, h: int, length: int) -> list[slice]:
    """Example slices in order, each as many examples as keep their weight
    rows within ``_SCORE_CHUNK`` elements (at least one)."""
    step = max(1, _SCORE_CHUNK // (h * length * length))
    return [slice(s, s + step) for s in range(0, b, step)]


@dataclass
class MhaMeanCache:
    """The pooled attention's cache. When the batch spans more than one
    chunk of examples (:meth:`chunks`) it holds no ``(B, h, L, L)`` weight
    rows: :meth:`weight_rows` recomputes them from ``q`` and ``k``, one
    chunk at a time. A one-chunk batch keeps its rows (``rows``), which
    are then no larger than one chunk."""

    x: np.ndarray
    q: np.ndarray
    k: np.ndarray
    colsum: np.ndarray  # (B, h, L), weight-row column sums
    merged_mean: np.ndarray  # (B, h * d_head), L-mean of the merged heads
    rows: np.ndarray | None = None  # (B, h, L, L), kept for a one-chunk batch only

    def chunks(self) -> list[slice]:
        return _example_chunks(*self.q.shape[:3])

    def weight_rows(self, s: slice) -> np.ndarray:
        """The weight rows of examples ``s``, bitwise the forward's."""
        if self.rows is not None:
            return self.rows[s]
        return _attention_weights(self.q[s], self.k[s])


def mha_mean_forward(params: MhaParams, x: np.ndarray) -> tuple[np.ndarray, MhaMeanCache]:
    """``mha_forward(params, x)[0].mean(axis=1)``, without the per-position
    output.

    The mean over query positions of ``sum_j W[i,j] (x_j W_v)`` is
    ``(sum_j (colsum_j / L) x_j) W_v``, with ``colsum`` the column sums of
    the weight rows. So the values, the attended rows and the full-size
    output projection are never formed: each head's value projection and
    the output projection act on one ``(B, .)`` row per example. The weight
    rows are formed one chunk of examples at a time, bitwise those of
    :func:`mha_forward`, and only their column sums are kept, unless the
    whole batch is one chunk.
    """
    h, d_in, d_head = params.w_q.shape
    if x.shape[-1] != d_in:
        raise DimensionError(f"attention input dim {x.shape[-1]} vs projections {params.w_q.shape}")
    b, length, _ = x.shape
    x2 = x.reshape(b * length, d_in)
    q = _project_heads(x2, params.w_q, b, length)
    k = _project_heads(x2, params.w_k, b, length)
    colsum = np.empty((b, h, length), dtype=q.dtype)
    chunks = _example_chunks(b, h, length)
    rows = None
    for s in chunks:
        weights = _attention_weights(q[s], k[s])
        colsum[s] = weights.sum(axis=2)
        if len(chunks) == 1:
            rows = weights
        del weights  # one chunk's rows alive at a time
    xbar = (colsum / length) @ x  # (B, h, d_in)
    merged_mean = (xbar.transpose(1, 0, 2) @ params.w_v).transpose(1, 0, 2).reshape(b, h * d_head)
    return merged_mean @ params.w_o, MhaMeanCache(x, q, k, colsum, merged_mean, rows)


def mha_mean_backward(
    params: MhaParams, cache: MhaMeanCache, dpooled: np.ndarray, dx_start: int = 0
) -> tuple[np.ndarray, MhaParams]:
    """Adjoint of :func:`mha_mean_forward` given the pooled gradient
    ``dpooled`` (``B x d_out``).

    Every query position receives the same output gradient ``g``. So the
    value path and the weight-row gradient collapse to per-example
    ``(B, h, .)`` vectors through the column sums of the weight rows, and
    only the query and key gradients need ``L x L`` and full-size products.
    Exact: it equals :func:`mha_backward` fed ``dpooled / L`` at every
    position.

    The one adjoint that re-runs part of its forward: unless the batch is
    one chunk (whose rows the cache keeps), the weight rows are recomputed
    per chunk of examples from the cached ``q`` and ``k``, and each
    chunk's score gradient is formed and consumed before the next
    chunk's rows exist. The query and key gradients are written straight
    into ``(B, L, h, d_head)`` buffers, which the projection adjoints read
    as flat matrices.

    Only input columns ``dx_start:`` get a gradient: the returned ``dx`` is
    ``B x L x (d_in - dx_start)``, and only those rows of each projection
    enter its input-gradient product. The parameter gradients do not depend
    on ``dx_start``.
    """
    h, d_in, d_head = params.w_q.shape
    b, length, _ = cache.x.shape
    colsum = cache.colsum
    dw_o = cache.merged_mean.T @ dpooled
    g_heads = (dpooled @ params.w_o.T / length).reshape(b, h, d_head).transpose(1, 0, 2)  # (h, B, d_head)
    # wg[b,h] = W_v[h] g[b,h]: the value gradient dv[b,h,j] = colsum[b,h,j] g[b,h] seen from x
    wg = (g_heads @ params.w_v.transpose(0, 2, 1)).swapaxes(0, 1)  # (B, h, d_in)
    # weight rows: dweights[b,h,i,j] = g[b,h] . v[b,h,j] = x[b,j] . wg[b,h] = u[b,h,j],
    # the same for every row i
    u = wg @ cache.x.swapaxes(1, 2)  # (B, h, L)
    if not 0 <= dx_start < d_in:
        raise DimensionError(f"dx_start must be in [0, {d_in}), got {dx_start}")
    dq = np.empty((b, length, h, d_head), dtype=cache.k.dtype)
    dk = np.empty((b, length, h, d_head), dtype=cache.q.dtype)
    for s in cache.chunks():
        weights = cache.weight_rows(s)
        dscores = u[s, :, None, :] - (weights @ u[s, :, :, None])
        dscores *= weights
        del weights  # one chunk's rows alive at a time
        dscores /= np.sqrt(d_head)
        np.matmul(dscores, cache.k[s], out=dq[s].transpose(0, 2, 1, 3))
        np.matmul(dscores.swapaxes(-1, -2), cache.q[s], out=dk[s].transpose(0, 2, 1, 3))
        del dscores
    x2 = cache.x.reshape(b * length, d_in)
    dx2 = np.zeros((b * length, d_in - dx_start), dtype=x2.dtype)
    dw_q = _project_heads_backward(x2, params.w_q, dq, dx2, dx_start)
    del dq
    dw_k = _project_heads_backward(x2, params.w_k, dk, dx2, dx_start)
    del dk
    dx = dx2.reshape(b, length, d_in - dx_start)
    dx += colsum.swapaxes(1, 2) @ wg[..., dx_start:]
    dw_v = (colsum @ cache.x).transpose(1, 2, 0) @ g_heads
    return dx, MhaParams(dw_q, dw_k, dw_v, dw_o)
