import numpy as np
import pytest

from inceptive.errors import ConfigError, DegenerateBatchError, DimensionError
from inceptive.layers import (
    BatchNormState,
    DropoutSpec,
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
    mha_backward,
    mha_forward,
    mha_mean_backward,
    mha_mean_forward,
    relu,
    relu_backward,
    scaled_dot_product_attention,
    sdpa_backward,
    softmax_rows,
)
from inceptive.tensor import ParamStore, Rng, grad_check


def conv_oracle(branch, h):
    """Naive sliding window: pad, then loop every output element."""
    b, length, d = h.shape
    c, k, _ = branch.weight.shape
    padded = np.zeros((b, length + k - 1, d))
    padded[:, branch.pad_left : branch.pad_left + length, :] = h
    out = np.zeros((b, length, c))
    for bi in range(b):
        for i in range(length):
            for f in range(c):
                acc = branch.bias[f]
                for j in range(k):
                    acc += branch.weight[f, j, :] @ padded[bi, i + j, :]
                out[bi, i, f] = acc
    return out


class TestConv1d:
    def test_hand_case_right_padding(self):
        # k=2 filters [1,0] and [0,1] slide over [[1,2],[3,4],[5,6]]
        branch = conv_branch(2, np.array([[[1.0, 0.0], [0.0, 1.0]]]), np.zeros(1))
        h = np.array([[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]]])
        out = conv1d_forward(branch, h)
        np.testing.assert_allclose(out[0, :, 0], [5.0, 9.0, 5.0])

    def test_bias_only(self):
        branch = conv_branch(3, np.zeros((2, 3, 4)), np.array([7.0, 7.0]))
        out = conv1d_forward(branch, Rng(0).normal((2, 5, 4)))
        assert (out == 7.0).all()

    def test_channel_shape(self):
        branch = conv_branch(5, Rng(0).normal((32, 5, 768)), np.zeros(32))
        assert conv1d_forward(branch, Rng(1).normal((1, 6, 768))).shape == (1, 6, 32)

    def test_padding_rule(self):
        for k, pads in ((2, (0, 1)), (3, (1, 1)), (5, (2, 2)), (7, (3, 3))):
            branch = conv_branch(k, np.zeros((1, k, 2)), np.zeros(1))
            assert (branch.pad_left, branch.pad_right) == pads
            assert branch.pad_left + branch.pad_right == k - 1

    def test_unsupported_kernel(self):
        with pytest.raises(ConfigError):
            conv_branch(4, np.zeros((1, 4, 2)), np.zeros(1))

    def test_feature_mismatch(self):
        branch = conv_branch(2, np.zeros((1, 2, 3)), np.zeros(1))
        with pytest.raises(DimensionError):
            conv1d_forward(branch, np.zeros((1, 4, 5)))

    def test_matches_oracle_and_preserves_length(self):
        rng = Rng(21)
        for case in range(200):
            k = (2, 3, 5, 7)[case % 4]
            length = int(rng.integers(1, 65, None))
            d = int(rng.integers(1, 17, None))
            c = int(rng.integers(1, 4, None))
            branch = conv_branch(k, rng.normal((c, k, d)), rng.normal(c))
            h = rng.normal((2, length, d))
            out = conv1d_forward(branch, h)
            assert out.shape == (2, length, c)
            assert np.abs(out - conv_oracle(branch, h)).max() < 1e-9

    def test_backward_zero_cotangent(self):
        branch = conv_branch(3, Rng(0).normal((2, 3, 4)), np.zeros(2))
        h = Rng(1).normal((2, 5, 4))
        dh, dw, db = conv1d_backward(branch, h, np.zeros((2, 5, 2)))
        assert not dh.any() and not dw.any() and not db.any()

    def test_backward_without_input_grad(self):
        rng = Rng(5)
        for k in (2, 3, 5, 7):
            branch = conv_branch(k, rng.normal((3, k, 4)), np.zeros(3))
            h, dy = rng.normal((2, 6, 4)), rng.normal((2, 6, 3))
            _, dw, db = conv1d_backward(branch, h, dy)
            dh, dw_off, db_off = conv1d_backward(branch, h, dy, need_input_grad=False)
            assert dh is None
            assert np.array_equal(dw_off, dw) and np.array_equal(db_off, db)

    def test_bias_free_branch_is_the_zero_bias_branch(self):
        rng = Rng(6)
        for k in (2, 3, 5, 7):
            weight, h, dy = rng.normal((3, k, 4)), rng.normal((2, 6, 4)), rng.normal((2, 6, 3))
            free, zero = conv_branch(k, weight), conv_branch(k, weight, np.zeros(3))
            assert free.bias is None
            assert np.array_equal(conv1d_forward(free, h), conv1d_forward(zero, h))
            dh, dw, db = conv1d_backward(free, h, dy)
            ref_dh, ref_dw, _ = conv1d_backward(zero, h, dy)
            assert db is None
            assert np.array_equal(dh, ref_dh) and np.array_equal(dw, ref_dw)

    def test_writes_into_a_channel_slice(self):
        rng = Rng(7)
        branch = conv_branch(5, rng.normal((3, 5, 4)), rng.normal(3))
        h = rng.normal((2, 6, 4))
        wide = np.full((2, 6, 8), np.nan)
        conv1d_forward(branch, h, out=wide[..., 2:5])
        assert np.array_equal(wide[..., 2:5], conv1d_forward(branch, h))
        assert np.isnan(wide[..., :2]).all() and np.isnan(wide[..., 5:]).all()

    def test_backward_single_position_hand_adjoint(self):
        # L=1, k=2: only the first kernel slot sees data, the second sees padding.
        branch = conv_branch(2, Rng(3).normal((1, 2, 3)), np.zeros(1))
        h = Rng(4).normal((1, 1, 3))
        dh, dw, db = conv1d_backward(branch, h, np.ones((1, 1, 1)))
        np.testing.assert_allclose(dw[0, 0, :], h[0, 0, :])
        assert not dw[0, 1, :].any()
        np.testing.assert_allclose(dh[0, 0, :], branch.weight[0, 0, :])
        assert db[0] == 1.0

    def test_backward_matches_finite_differences(self):
        # At L <= 2 the wider kernels have taps lying wholly in the padding.
        rng = Rng(17)
        for k in (2, 3, 5, 7):
            for length in (1, 2, 6):
                weight = rng.normal((3, k, 4))
                bias = rng.normal(3)
                h = rng.normal((2, length, 4))
                proj = rng.normal((2, length, 3))  # fixed cotangent direction

                store = ParamStore()
                store.add("w", weight)
                store.add("b", bias)
                store.add("h", h)

                def f(params):
                    branch = conv_branch(k, params.value("w"), params.value("b"))
                    return float((conv1d_forward(branch, params.value("h")) * proj).sum())

                branch = conv_branch(k, weight, bias)
                dh, dw, db = conv1d_backward(branch, h, proj)
                store.grad("w")[...] = dw
                store.grad("b")[...] = db
                store.grad("h")[...] = dh
                assert grad_check(f, store, 1e-5) < 1e-5, (k, length)


class TestBatchNorm:
    def test_hand_normalization(self):
        state = BatchNormState(np.zeros(1), np.ones(1), eps=1e-12)
        x = np.array([[[1.0], [3.0]]])
        out, _ = batchnorm_apply(state, np.ones(1), np.zeros(1), x)
        np.testing.assert_allclose(out[0, :, 0], [-1.0, 1.0], atol=1e-5)

    def test_eval_identity_stats(self):
        state = BatchNormState(np.zeros(2), np.ones(2), mode="eval")
        x = Rng(0).normal((2, 3, 2))
        np.testing.assert_allclose(batchnorm_apply(state, np.ones(2), np.zeros(2), x)[0], x, atol=1e-4)

    def test_constant_channel_maps_to_shift(self):
        state = BatchNormState(np.zeros(1), np.ones(1))
        x = np.full((2, 3, 1), 7.0)
        np.testing.assert_allclose(batchnorm_apply(state, np.ones(1), np.full(1, 2.5), x)[0], 2.5)

    def test_train_mode_normalizes_each_channel(self):
        state = BatchNormState(np.zeros(3), np.ones(3), eps=1e-12)
        out, _ = batchnorm_apply(state, np.ones(3), np.zeros(3), Rng(2).normal((4, 8, 3)) * 3.0 + 1.0)
        assert np.abs(out.mean(axis=(0, 1))).max() < 1e-9
        assert np.abs(out.var(axis=(0, 1)) - 1.0).max() < 1e-6

    def test_running_stats_update(self):
        state = BatchNormState(np.zeros(1), np.ones(1), momentum=0.1)
        x = np.array([[[1.0], [3.0]]])
        batchnorm_apply(state, np.ones(1), np.zeros(1), x)
        assert state.running_mean[0] == pytest.approx(0.9 * 0.0 + 0.1 * 2.0)
        assert state.running_var[0] == pytest.approx(0.9 * 1.0 + 0.1 * 1.0)

    def test_constant_train_batch_is_finite(self):
        # zero batch variance: the norm divides by sqrt(eps) alone
        state = BatchNormState(np.zeros(2), np.ones(2))
        gamma, beta = np.array([1.5, -0.5]), np.array([2.5, 0.25])
        out, cache = batchnorm_apply(state, gamma, beta, np.full((3, 4, 2), 7.0))
        assert np.array_equal(out, np.broadcast_to(beta, out.shape))
        np.testing.assert_allclose(state.running_mean, 0.7)
        np.testing.assert_allclose(state.running_var, 0.9)
        dx, dgamma, dbeta = batchnorm_backward(state, gamma, cache, Rng(8).normal((3, 4, 2)))
        for grad in (dx, dgamma, dbeta):
            assert np.isfinite(grad).all()
        assert not dgamma.any()

    def test_degenerate_batch_rejected(self):
        state = BatchNormState(np.zeros(1), np.ones(1))
        with pytest.raises(DegenerateBatchError):
            batchnorm_apply(state, np.ones(1), np.zeros(1), np.ones((1, 1, 1)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_backward_matches_finite_differences(self, mode):
        rng = Rng(31)
        gamma, beta = rng.normal(3) + 2.0, rng.normal(3)
        state = BatchNormState(np.zeros(3), np.ones(3), mode=mode)
        x = rng.normal((2, 4, 3))
        proj = rng.normal((2, 4, 3))

        store = ParamStore()
        store.add("scale", gamma)
        store.add("shift", beta)
        store.add("x", x)

        def f(params):
            s = BatchNormState(state.running_mean.copy(), state.running_var.copy(), mode=mode)
            out, _ = batchnorm_apply(s, params.value("scale"), params.value("shift"), params.value("x"))
            return float((out * proj).sum())

        _, cache = batchnorm_apply(BatchNormState(np.zeros(3), np.ones(3), mode=mode), gamma, beta, x)
        dx, dgamma, dbeta = batchnorm_backward(state, gamma, cache, proj)
        store.grad("scale")[...] = dgamma
        store.grad("shift")[...] = dbeta
        store.grad("x")[...] = dx
        assert grad_check(f, store, 1e-5) < 1e-5


class TestRelu:
    def test_definition(self):
        np.testing.assert_array_equal(relu(np.array([-1.0, 0.0, 2.0])), [0.0, 0.0, 2.0])

    def test_backward_mask(self):
        dx = relu_backward(np.array([-1.0, 2.0]), np.array([5.0, 5.0]))
        np.testing.assert_array_equal(dx, [0.0, 5.0])

    def test_subgradient_zero_at_zero(self):
        assert relu_backward(np.array([0.0]), np.array([3.0]))[0] == 0.0

    def test_finite_differences_away_from_kink(self):
        rng = Rng(12)
        x = rng.normal(50)
        x = np.where(np.abs(x) < 1e-3, 0.5, x)
        proj = rng.normal(50)
        store = ParamStore()
        store.add("x", x)
        store.grad("x")[...] = relu_backward(x, proj)
        err = grad_check(lambda p: float((relu(p.value("x")) * proj).sum()), store, 1e-5)
        assert err < 1e-6


class TestDropout:
    def test_eval_mode_is_exact_identity(self):
        x = Rng(0).normal((4, 5))
        out, _ = dropout(DropoutSpec(0.5, mode="eval"), x)
        assert out is x

    def test_zero_rate_identity_without_rng(self):
        x = Rng(0).normal((3, 3))
        out, mask = dropout(DropoutSpec(0.0), x)
        assert np.array_equal(out, x)
        assert mask.all()

    def test_train_preserves_mean_at_half_rate(self):
        x = np.abs(Rng(1).normal(10_000)) + 1.0
        out, _ = dropout(DropoutSpec(0.5), x, Rng(2))
        assert abs(out.mean() - x.mean()) / x.mean() < 0.05

    def test_backward_uses_same_mask(self):
        spec = DropoutSpec(0.3)
        x = Rng(3).normal((8, 8))
        out, mask = dropout(spec, x, Rng(4))
        dy = Rng(5).normal((8, 8))
        dx = dropout_backward(spec, mask, dy)
        np.testing.assert_allclose(dx, dy * mask / 0.7)

    def test_bool_mask_bitwise_with_negatives_and_zeros(self):
        spec = DropoutSpec(0.3)
        x = Rng(6).normal((16, 16))
        x[0, :4] = (0.0, -0.0, 0.0, -0.0)
        x[1] = -np.abs(x[1])
        out, mask = dropout(spec, x, Rng(7))
        assert mask.dtype == bool
        assert mask.any() and not mask.all()
        assert out.tobytes() == (x * mask.astype(np.float64) / 0.7).tobytes()
        dy = x[::-1].copy()
        dx = dropout_backward(spec, mask, dy)
        assert dx.tobytes() == (dy * mask.astype(np.float64) / 0.7).tobytes()

    def test_identity_modes_return_zero_stride_mask(self):
        x = Rng(8).normal((3, 4, 5))
        for spec in (DropoutSpec(0.5, mode="eval"), DropoutSpec(0.0)):
            out, mask = dropout(spec, x)
            assert out is x
            assert mask.dtype == bool and mask.shape == x.shape
            assert mask.all() and mask.strides == (0, 0, 0)

    def test_rate_one_rejected(self):
        with pytest.raises(ConfigError):
            DropoutSpec(1.0)


class TestLinear:
    def test_identity_weights(self):
        x = Rng(0).normal((3, 4))
        np.testing.assert_array_equal(linear(np.eye(4), np.zeros(4), x), x)

    def test_dense_block_shape(self):
        out = linear(np.zeros((896, 512)), np.zeros(512), np.zeros((2, 896)))
        assert out.shape == (2, 512)

    def test_backward_matches_finite_differences(self):
        rng = Rng(41)
        w, b, x = rng.normal((5, 2)), rng.normal(2), rng.normal((3, 5))
        proj = rng.normal((3, 2))
        store = ParamStore()
        store.add("w", w)
        store.add("b", b)
        store.add("x", x)

        def f(params):
            return float((linear(params.value("w"), params.value("b"), params.value("x")) * proj).sum())

        dx, dw, db = linear_backward(w, x, proj)
        store.grad("w")[...] = dw
        store.grad("b")[...] = db
        store.grad("x")[...] = dx
        assert grad_check(f, store, 1e-5) < 1e-6


class TestLayerNorm:
    def test_constant_row_maps_to_shift(self):
        out, _ = layer_norm(np.ones(3), np.zeros(3), np.array([1.0, 1.0, 1.0]))
        np.testing.assert_allclose(out, 0.0, atol=1e-9)

    def test_already_normalized_row(self):
        out, _ = layer_norm(np.ones(2), np.zeros(2), np.array([-1.0, 1.0]))
        np.testing.assert_allclose(out, [-1.0, 1.0], atol=1e-4)

    def test_backward_matches_finite_differences(self):
        rng = Rng(55)
        gamma, beta = rng.normal(8) + 2.0, rng.normal(8)
        x = rng.normal((2, 4, 8))
        proj = rng.normal((2, 4, 8))
        store = ParamStore()
        store.add("gamma", gamma)
        store.add("beta", beta)
        store.add("x", x)

        def f(params):
            return float(
                (layer_norm(params.value("gamma"), params.value("beta"), params.value("x"))[0] * proj).sum()
            )

        dx, dgamma, dbeta = layer_norm_backward(gamma, layer_norm(gamma, beta, x)[1], proj)
        store.grad("gamma")[...] = dgamma
        store.grad("beta")[...] = dbeta
        store.grad("x")[...] = dx
        assert grad_check(f, store, 1e-5) < 1e-5


# --- earlier forms, kept as oracles for the matvec and rowsum forms --------------


def _layer_norm_reference(gamma, beta, x):
    centered = x - x.mean(axis=-1, keepdims=True)
    std = np.sqrt(x.var(axis=-1, keepdims=True) + 1e-5)
    return gamma * centered / std + beta, (centered, 1.0 / std)


def _layer_norm_backward_reference(gamma, cache, dy):
    centered, inv_std = cache
    xhat = centered * inv_std
    lead = tuple(range(xhat.ndim - 1))
    dgamma = (dy * xhat).sum(axis=lead)
    dbeta = dy.sum(axis=lead)
    dxhat = dy * gamma
    dx = inv_std * (
        dxhat
        - dxhat.mean(axis=-1, keepdims=True)
        - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
    )
    return dx, dgamma, dbeta


def _batchnorm_apply_reference(state, gamma, beta, x):
    if state.mode == "train":
        mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
        state.running_mean[...] = (1 - state.momentum) * state.running_mean + state.momentum * mean
        state.running_var[...] = (1 - state.momentum) * state.running_var + state.momentum * var
    else:
        mean, var = state.running_mean, state.running_var
    centered = x - mean
    std = np.sqrt(var + state.eps)
    return gamma * (centered / std) + beta, (centered, 1.0 / std)


def _batchnorm_backward_reference(state, gamma, cache, dy):
    centered, inv_std = cache
    xhat = centered * inv_std
    dgamma = (dy * xhat).sum(axis=(0, 1))
    dbeta = dy.sum(axis=(0, 1))
    dxhat = dy * gamma
    if state.mode != "train":
        return dxhat * inv_std, dgamma, dbeta
    n = centered.shape[0] * centered.shape[1]
    dvar = (dxhat * centered).sum(axis=(0, 1)) * (-0.5) * inv_std**3
    dmean = -(dxhat.sum(axis=(0, 1))) * inv_std + dvar * (-2.0) * centered.mean(axis=(0, 1))
    dx = dxhat * inv_std + dvar * 2.0 * centered / n + dmean / n
    return dx, dgamma, dbeta


def _sdpa_backward_reference(q, k, v, weights, dout):
    dv = weights.swapaxes(-1, -2) @ dout
    dweights = dout @ v.swapaxes(-1, -2)
    dscores = weights * (dweights - (dweights * weights).sum(axis=-1, keepdims=True))
    dscores /= np.sqrt(q.shape[-1])
    return dscores @ k, dscores.swapaxes(-1, -2) @ q, dv


def _assert_close(got, want, rel=1e-12, scales=()):
    """Each array within ``rel`` of its reference, relative to the reference's
    largest magnitude or to the matching entry of ``scales`` when given."""
    for i, (g, w) in enumerate(zip(got, want)):
        assert g.shape == w.shape
        scale = scales[i] if i < len(scales) else np.abs(w).max()
        assert np.abs(g - w).max() <= rel * max(scale, 1e-300)


class TestEarlierFormOracles:
    """The norms' matvec statistics and the attention adjoint's rowsum(dO*O)
    term agree with the earlier per-axis forms to 1e-12 relative, at the
    desk shape, the paper shape and the smallest legal extents."""

    # (B, L, n): the encoder's norms and the dense norm at the desk shape, the
    # dense norm at the paper shape, two features
    @pytest.mark.parametrize("shape", [(32, 32, 16), (32, 8), (32, 512), (3, 5, 2), (1, 2)])
    def test_layer_norm(self, shape):
        rng = Rng(301)
        n = shape[-1]
        gamma, beta = rng.normal(n) + 1.0, rng.normal(n)
        x, dy = rng.normal(shape) * 3.0 + 1.0, rng.normal(shape)
        out, cache = layer_norm(gamma, beta, x)
        want_out, want_cache = _layer_norm_reference(gamma, beta, x)
        _assert_close((out, *cache), (want_out, *want_cache))
        _assert_close(layer_norm_backward(gamma, cache, dy), _layer_norm_backward_reference(gamma, want_cache, dy))

    # (B, L, 4c): desk (c = 16) and paper (c = 32) shapes, and B * L = 2
    @pytest.mark.parametrize("shape", [(32, 32, 64), (32, 128, 128), (1, 2, 3), (2, 1, 5)])
    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm(self, shape, mode):
        rng = Rng(302)
        c = shape[-1]
        gamma, beta = rng.normal(c) + 1.0, rng.normal(c)
        x, dy = rng.normal(shape) * 2.0 - 0.5, rng.normal(shape)
        states = [BatchNormState(rng.normal(c) * 0.1, rng.random(c) + 0.5, mode=mode) for _ in range(2)]
        states[1].running_mean[...] = states[0].running_mean
        states[1].running_var[...] = states[0].running_var
        out, cache = batchnorm_apply(states[0], gamma, beta, x)
        want_out, want_cache = _batchnorm_apply_reference(states[1], gamma, beta, x)
        _assert_close((out, *cache), (want_out, *want_cache))
        _assert_close(
            (states[0].running_mean, states[0].running_var), (states[1].running_mean, states[1].running_var)
        )
        # In train mode dx cancels terms of size inv_std * |gamma * dy|; at
        # B * L = 2 it keeps only about eps / var of them, and both forms lose
        # the same digits (each is about 1e-10 off an extended-precision dx
        # there). So dx is compared at the size of the terms that cancel.
        dx_scale = np.abs(dy * gamma * want_cache[1]).max()
        _assert_close(
            batchnorm_backward(states[0], gamma, cache, dy),
            _batchnorm_backward_reference(states[1], gamma, want_cache, dy),
            scales=(dx_scale,),
        )

    # (B, h, L, d_head): the encoder at the desk shape, the head's attention at
    # the paper shape (4 examples: no per-row sum crosses examples), one key
    @pytest.mark.parametrize("shape", [(32, 2, 32, 8), (4, 8, 128, 112), (3, 2, 1, 4)])
    def test_sdpa_backward(self, shape):
        rng = Rng(303)
        q, k, v, dout = (rng.normal(shape) for _ in range(4))
        out, weights = scaled_dot_product_attention(q, k, v)
        _assert_close(sdpa_backward(q, k, v, weights, out, dout), _sdpa_backward_reference(q, k, v, weights, dout))

    @pytest.mark.parametrize("shape", [(32, 32, 16), (32, 512)])
    def test_linear_bias_gradient(self, shape):
        rng = Rng(304)
        x, dy = rng.normal(shape), rng.normal(shape[:-1] + (4,))
        _, _, db = linear_backward(rng.normal((shape[-1], 4)), x, dy)
        _assert_close((db,), (dy.reshape(-1, 4).sum(axis=0),))


class TestSoftmax:
    def test_symmetry(self):
        np.testing.assert_allclose(softmax_rows(np.array([0.0, 0.0])), [0.5, 0.5])

    def test_large_logit_stability(self):
        out = softmax_rows(np.array([1000.0, 0.0]))
        assert np.isfinite(out).all()
        assert out[0] == pytest.approx(1.0)

    def test_closed_form_log_inputs(self):
        out = softmax_rows(np.log(np.array([1.0, 2.0, 3.0])))
        np.testing.assert_allclose(out, [1 / 6, 2 / 6, 3 / 6])

    def test_rows_sum_to_one(self):
        rows = softmax_rows(Rng(0).normal((4, 7, 9)) * 10)
        np.testing.assert_allclose(rows.sum(axis=-1), 1.0, atol=1e-12)


def sdpa_oracle(q, k, v):
    """Per-pair loop over one batch of queries and keys."""
    b, length, d = q.shape
    out = np.zeros_like(v)
    weights = np.zeros((b, length, length))
    for bi in range(b):
        for i in range(length):
            scores = np.array([q[bi, i] @ k[bi, j] / np.sqrt(d) for j in range(length)])
            e = np.exp(scores - scores.max())
            w = e / e.sum()
            weights[bi, i] = w
            for j in range(length):
                out[bi, i] += w[j] * v[bi, j]
    return out, weights


class TestAttention:
    def test_zero_queries_give_uniform_weights(self):
        v = Rng(0).normal((1, 4, 3))
        out, weights = scaled_dot_product_attention(np.zeros((1, 4, 3)), np.zeros((1, 4, 3)), v)
        np.testing.assert_allclose(weights, 0.25)
        np.testing.assert_allclose(out[0, 0], v[0].mean(axis=0))

    def test_single_token(self):
        q = Rng(1).normal((1, 1, 4))
        out, weights = scaled_dot_product_attention(q, q, q)
        np.testing.assert_allclose(weights, [[[1.0]]])
        np.testing.assert_allclose(out, q)

    def test_matches_pairwise_oracle(self):
        rng = Rng(9)
        q, k, v = rng.normal((1, 3, 4)), rng.normal((1, 3, 4)), rng.normal((1, 3, 4))
        out, weights = scaled_dot_product_attention(q, k, v)
        o_out, o_w = sdpa_oracle(q, k, v)
        assert np.abs(out - o_out).max() < 1e-10
        assert np.abs(weights - o_w).max() < 1e-10

    def test_weights_are_bitwise_the_softmax_of_scaled_scores(self):
        rng = Rng(11)
        q, k, v = (rng.normal((2, 3, 5, 4)) * 5 for _ in range(3))
        _, weights = scaled_dot_product_attention(q, k, v)
        assert np.array_equal(weights, softmax_rows(q @ k.swapaxes(-1, -2) / np.sqrt(4)))

    def test_weight_rows_normalized_for_wild_inputs(self):
        rng = Rng(10)
        q = rng.normal((2, 6, 5)) * 30
        _, weights = scaled_dot_product_attention(q, rng.normal((2, 6, 5)) * 30, rng.normal((2, 6, 5)))
        np.testing.assert_allclose(weights.sum(axis=-1), 1.0, atol=1e-9)
        assert (weights >= 0).all()

    def test_zero_head_dim_rejected(self):
        z = np.zeros((1, 2, 0))
        with pytest.raises(DimensionError):
            scaled_dot_product_attention(z, z, z)

    def test_backward_matches_finite_differences(self):
        rng = Rng(77)
        q, k, v = rng.normal((1, 3, 4)), rng.normal((1, 3, 4)), rng.normal((1, 3, 4))
        proj = rng.normal((1, 3, 4))
        store = ParamStore()
        for name, val in (("q", q), ("k", k), ("v", v)):
            store.add(name, val)

        def f(params):
            out, _ = scaled_dot_product_attention(
                params.value("q"), params.value("k"), params.value("v")
            )
            return float((out * proj).sum())

        out, weights = scaled_dot_product_attention(q, k, v)
        dq, dk, dv = sdpa_backward(q, k, v, weights, out, proj)
        store.grad("q")[...] = dq
        store.grad("k")[...] = dk
        store.grad("v")[...] = dv
        assert grad_check(f, store, 1e-5) < 1e-5


class TestMultiHead:
    def test_backward_matches_finite_differences(self):
        rng = Rng(88)
        h, d_in, dh = 2, 4, 2
        params = MhaParams(
            rng.normal((h, d_in, dh)),
            rng.normal((h, d_in, dh)),
            rng.normal((h, d_in, dh)),
            rng.normal((h * dh, d_in)),
        )
        x = rng.normal((2, 3, d_in))
        proj = rng.normal((2, 3, d_in))
        store = ParamStore()
        store.add("wq", params.w_q)
        store.add("wk", params.w_k)
        store.add("wv", params.w_v)
        store.add("wo", params.w_o)
        store.add("x", x)

        def f(p):
            ps = MhaParams(p.value("wq"), p.value("wk"), p.value("wv"), p.value("wo"))
            out, _ = mha_forward(ps, p.value("x"))
            return float((out * proj).sum())

        out, cache = mha_forward(params, x)
        dx, grads = mha_backward(params, cache, proj)
        store.grad("wq")[...] = grads.w_q
        store.grad("wk")[...] = grads.w_k
        store.grad("wv")[...] = grads.w_v
        store.grad("wo")[...] = grads.w_o
        store.grad("x")[...] = dx
        assert grad_check(f, store, 1e-5) < 1e-5


def _mha_case(rng, b, length, d_in, h, dh):
    params = MhaParams(
        rng.normal((h, d_in, dh)),
        rng.normal((h, d_in, dh)),
        rng.normal((h, d_in, dh)),
        rng.normal((h * dh, d_in)),
    )
    return params, rng.normal((b, length, d_in))


# (B, L, d_in, h, d_head): L = 1, h = 1, and h * d_head both below and above d_in
MEAN_CASES = ((2, 3, 4, 2, 2), (3, 1, 5, 2, 3), (2, 9, 6, 3, 4), (2, 5, 6, 1, 6), (1, 7, 8, 2, 3))


class TestMhaMeanForward:
    def test_matches_mean_of_per_position_attention(self):
        rng = Rng(90)
        for b, length, d_in, h, dh in MEAN_CASES:
            params, x = _mha_case(rng, b, length, d_in, h, dh)
            pooled, cache = mha_mean_forward(params, x)
            want, ref = mha_forward(params, x)
            want = want.mean(axis=1)
            assert pooled.shape == (b, d_in)
            assert np.abs(pooled - want).max() <= 1e-12 * np.abs(want).max()
            assert np.array_equal(cache.weight_rows(slice(None)), ref.weights)


class TestMhaMeanBackward:
    def test_matches_mha_backward_on_broadcast_gradient(self):
        rng = Rng(91)
        for b, length, d_in, h, dh in MEAN_CASES:
            params, x = _mha_case(rng, b, length, d_in, h, dh)
            dpooled = rng.normal((b, d_in))
            _, mean_cache = mha_mean_forward(params, x)
            _, cache = mha_forward(params, x)
            dx, grads = mha_mean_backward(params, mean_cache, dpooled)
            dy = np.broadcast_to(dpooled[:, None, :] / length, (b, length, d_in)).copy()
            ref_dx, ref = mha_backward(params, cache, dy)
            pairs = [(dx, ref_dx)]
            pairs += [(getattr(grads, n), getattr(ref, n)) for n in ("w_q", "w_k", "w_v", "w_o")]
            for got, want in pairs:
                assert got.shape == want.shape
                scale = max(np.abs(want).max(), 1e-300)
                assert np.abs(got - want).max() <= 1e-12 * scale

    def test_column_restricted_input_gradient(self):
        rng = Rng(93)
        for b, length, d_in, h, dh in MEAN_CASES:
            params, x = _mha_case(rng, b, length, d_in, h, dh)
            dpooled = rng.normal((b, d_in))
            _, cache = mha_mean_forward(params, x)
            dx, grads = mha_mean_backward(params, cache, dpooled)
            for start in (0, 1, d_in - 1):
                part, part_grads = mha_mean_backward(params, cache, dpooled, start)
                want = dx[..., start:]
                assert part.shape == want.shape
                # a narrower product may round its columns differently; the default is the same code
                assert np.abs(part - want).max() <= 1e-12 * np.abs(dx).max()
                if start == 0:
                    assert np.array_equal(part, dx)
                for name in ("w_q", "w_k", "w_v", "w_o"):
                    assert np.array_equal(getattr(part_grads, name), getattr(grads, name))
            for start in (-1, d_in):
                with pytest.raises(DimensionError):
                    mha_mean_backward(params, cache, dpooled, start)

    def test_matches_finite_differences_through_mean_pool(self):
        rng = Rng(92)
        params, x = _mha_case(rng, 2, 4, 4, 2, 2)
        proj = rng.normal((2, 4))
        store = ParamStore()
        store.add("wq", params.w_q)
        store.add("wk", params.w_k)
        store.add("wv", params.w_v)
        store.add("wo", params.w_o)
        store.add("x", x)

        def f(p):
            ps = MhaParams(p.value("wq"), p.value("wk"), p.value("wv"), p.value("wo"))
            pooled, _ = mha_mean_forward(ps, p.value("x"))
            return float((pooled * proj).sum())

        _, cache = mha_mean_forward(params, x)
        dx, grads = mha_mean_backward(params, cache, proj)
        store.grad("wq")[...] = grads.w_q
        store.grad("wk")[...] = grads.w_k
        store.grad("wv")[...] = grads.w_v
        store.grad("wo")[...] = grads.w_o
        store.grad("x")[...] = dx
        assert grad_check(f, store, 1e-5) < 1e-5


class TestFloat32Inputs:
    """Each forward/backward pair computes in the dtype it is given: float32
    inputs, parameters and running statistics give a float32 output and
    float32 gradients, each within 1e-4 relative of the float64 result on
    the same values."""

    @staticmethod
    def _check(run, *arrays):
        single = [np.asarray(a, dtype=np.float32) for a in arrays]
        got = run(*single)
        want = run(*(a.astype(np.float64) for a in single))
        assert [g.dtype for g in got] == [np.float32] * len(got)
        _assert_close(got, want, rel=1e-4)

    def test_conv(self):
        rng = Rng(310)

        def run(w, b, h, dy):
            branch = conv_branch(5, w, b)
            return (conv1d_forward(branch, h), *conv1d_backward(branch, h, dy))

        self._check(run, rng.normal((4, 5, 6)), rng.normal(4), rng.normal((2, 7, 6)), rng.normal((2, 7, 4)))

    @pytest.mark.parametrize("mode", ["train", "eval"])
    def test_batchnorm(self, mode):
        rng = Rng(311)

        def run(gamma, beta, x, dy, mean, var):
            state = BatchNormState(mean.copy(), var.copy(), mode=mode)
            y, cache = batchnorm_apply(state, gamma, beta, x)
            return (y, *batchnorm_backward(state, gamma, cache, dy), state.running_mean, state.running_var)

        c = 3
        self._check(
            run, rng.normal(c) + 1.0, rng.normal(c), rng.normal((2, 5, c)), rng.normal((2, 5, c)),
            rng.normal(c) * 0.1, rng.random(c) + 0.5,
        )

    def test_relu(self):
        rng = Rng(312)

        def run(x, dy):
            y = relu(x)
            return y, relu_backward(y, dy)

        self._check(run, rng.normal((2, 5, 3)), rng.normal((2, 5, 3)))

    def test_dropout(self):
        rng = Rng(313)
        spec = DropoutSpec(0.3)

        def run(x, dy):
            y, mask = dropout(spec, x, Rng(5))
            return y, dropout_backward(spec, mask, dy)

        self._check(run, rng.normal((2, 5, 3)), rng.normal((2, 5, 3)))

    def test_linear(self):
        rng = Rng(314)

        def run(w, b, x, dy):
            return (linear(w, b, x), *linear_backward(w, x, dy))

        self._check(run, rng.normal((4, 3)), rng.normal(3), rng.normal((2, 5, 4)), rng.normal((2, 5, 3)))

    def test_layer_norm(self):
        rng = Rng(315)

        def run(gamma, beta, x, dy):
            y, cache = layer_norm(gamma, beta, x)
            return (y, *layer_norm_backward(gamma, cache, dy))

        self._check(run, rng.normal(6) + 1.0, rng.normal(6), rng.normal((2, 5, 6)), rng.normal((2, 5, 6)))

    @pytest.mark.parametrize("length", [5, 1])
    def test_sdpa(self, length):
        rng = Rng(316)

        def run(q, k, v, dout):
            out, weights = scaled_dot_product_attention(q, k, v)
            return (out, weights, *sdpa_backward(q, k, v, weights, out, dout))

        self._check(run, *(rng.normal((2, 2, length, 3)) for _ in range(4)))

    def test_mha(self):
        rng = Rng(317)
        params, x = _mha_case(rng, 2, 5, 6, 2, 3)

        def run(w_q, w_k, w_v, w_o, x, dy):
            p = MhaParams(w_q, w_k, w_v, w_o)
            y, cache = mha_forward(p, x)
            dx, grads = mha_backward(p, cache, dy)
            return y, dx, grads.w_q, grads.w_k, grads.w_v, grads.w_o

        self._check(run, params.w_q, params.w_k, params.w_v, params.w_o, x, rng.normal((2, 5, 6)))

    @pytest.mark.parametrize("dx_start", [0, 2])
    @pytest.mark.parametrize("one_chunk", [True, False], ids=["one_chunk", "per_example_chunks"])
    def test_mha_mean(self, monkeypatch, dx_start, one_chunk):
        import inceptive.layers

        rng = Rng(318)
        b, length, h = 3, 5, 2
        params, x = _mha_case(rng, b, length, 6, h, 3)
        if not one_chunk:  # the backward then recomputes the weight rows
            monkeypatch.setattr(inceptive.layers, "_SCORE_CHUNK", h * length * length)

        def run(w_q, w_k, w_v, w_o, x, dpooled):
            p = MhaParams(w_q, w_k, w_v, w_o)
            pooled, cache = mha_mean_forward(p, x)
            assert (cache.rows is not None) == one_chunk
            dx, grads = mha_mean_backward(p, cache, dpooled, dx_start)
            return pooled, dx, grads.w_q, grads.w_k, grads.w_v, grads.w_o

        self._check(run, params.w_q, params.w_k, params.w_v, params.w_o, x, rng.normal((b, 6)))
