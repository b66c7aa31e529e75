import numpy as np
import pytest

from inceptive.errors import ConfigError, InputError, NumericError
from inceptive.head import (
    KERNEL_SIZES,
    BaselineHead,
    ModelConfig,
    adaptive_avg_pool,
    attention_received,
    head_backward,
    head_forward,
    inception_forward,
    init_baseline_params,
    init_head_params,
    make_head_state,
    multi_head_attention,
    received_entropy,
    shape_probe,
    write_attention_csv,
    write_attention_pgm,
)
from inceptive.layers import (
    BatchNormState,
    DropoutSpec,
    MhaParams,
    batchnorm_apply,
    conv_branch,
    conv1d_forward,
    mha_mean_backward,
    relu,
)
import inceptive.head
import inceptive.layers
from inceptive.model import HeadOnlyClassifier
from inceptive.tensor import Rng, grad_check
from inceptive.training import softmax_cross_entropy

TOY = dict(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3, dropout_rate=0.0)


def build(variant="full", seed=0, **overrides):
    cfg = ModelConfig(**{**TOY, **overrides, "variant": variant})
    store = init_head_params(cfg, Rng(seed).child("params"))
    state = make_head_state(cfg, store)
    return cfg, store, state


class TestModelConfig:
    def test_enriched_width(self):
        cfg = ModelConfig(d=768, c=32, n_heads=8, dense_dim=512, n_classes=4)
        assert cfg.d_r == 896
        assert cfg.resolved_head_dim == 112

    def test_attention_width_bound(self):
        with pytest.raises(ConfigError):
            ModelConfig(d=8, c=2, n_heads=8, head_dim=100, n_classes=2)

    def test_init_is_seed_deterministic(self):
        a = init_head_params(ModelConfig(**TOY), Rng(3).child("p"))
        b = init_head_params(ModelConfig(**TOY), Rng(3).child("p"))
        for name in a.names():
            assert np.array_equal(a.value(name), b.value(name))

    def test_norm_scales_start_at_one(self):
        store = init_head_params(ModelConfig(**TOY), Rng(0))
        assert (store.value("head.inception.branch_k3.bn.scale") == 1.0).all()
        assert (store.value("head.dense.ln.scale") == 1.0).all()


class TestInception:
    def test_concat_width_full_size(self):
        cfg, store, state = build(d=768, c=32, n_heads=8, head_dim=112, dense_dim=512)
        state.set_mode(False)
        c_map, _ = inception_forward(cfg, store, state, Rng(1).normal((1, 4, 768)))
        assert c_map.shape == (1, 4, 128)

    def test_zero_weights_give_zero_output(self):
        cfg, store, state = build()
        state.set_mode(False)
        for k in KERNEL_SIZES:
            store.value(f"head.inception.branch_k{k}.weight")[...] = 0.0
        c_map, _ = inception_forward(cfg, store, state, Rng(2).normal((2, 5, 16)))
        assert not c_map.any()

    def test_matches_per_branch_oracle_in_kernel_order(self):
        """One batch norm and ReLU over the concat equal each branch's own
        conv, norm and ReLU, bitwise, with the running statistics each
        branch's norm would keep under its checkpoint name."""
        cfg, store, state = build(c=3)
        rng = Rng(3)
        for name, p in store.items():
            if ".bn." in name:
                p.value[...] = rng.child(name).normal(p.value.shape)
        bn = {k: BatchNormState(np.zeros(3), np.ones(3)) for k in KERNEL_SIZES}
        for step, train in enumerate((True, True, False)):
            state.set_mode(train)
            h = rng.child("h", step).normal((3, 6, 16))
            c_map, _ = inception_forward(cfg, store, state, h)
            for i, k in enumerate(KERNEL_SIZES):
                b = f"head.inception.branch_k{k}."
                bn[k].mode = "train" if train else "eval"
                y = conv1d_forward(conv_branch(k, store.value(b + "weight"), np.zeros(3)), h)
                z, _ = batchnorm_apply(bn[k], store.value(b + "bn.scale"), store.value(b + "bn.shift"), y)
                assert np.array_equal(c_map[..., 3 * i : 3 * (i + 1)], relu(z))
                assert np.array_equal(state.buffers()[b + "bn.running_mean"], bn[k].running_mean)
                assert np.array_equal(state.buffers()[b + "bn.running_var"], bn[k].running_var)


class TestStateRoundTrip:
    def test_state_tensors_restore_bitwise_eval_logits(self):
        cfg = ModelConfig(**TOY)
        model = HeadOnlyClassifier(cfg, rng=Rng(1))
        model.set_mode(True)
        for step in range(2):
            model.forward(Rng(2).child(step).normal((4, 6, 16)) * (step + 2), Rng(3).child(step))
        tensors = model.state_tensors()
        means = [tensors[f"head.inception.branch_k{k}.bn.running_mean"] for k in KERNEL_SIZES]
        assert all(not np.array_equal(means[0], m) for m in means[1:])
        restored = HeadOnlyClassifier(cfg, rng=Rng(9))
        restored.load_state(tensors)
        model.set_mode(False)
        restored.set_mode(False)
        h = Rng(4).normal((3, 6, 16))
        assert np.array_equal(model.forward(h).logits, restored.forward(h).logits)


class TestEnrich:
    """``head_forward`` builds the enriched features ``r`` as one buffer: the
    dropped-out hidden states in the first ``d`` columns, the convolution
    features in the last ``4c``."""

    def test_width(self):
        cfg, store, state = build(d=768, c=32, n_heads=8, head_dim=112, dense_dim=512)
        state.set_mode(False)
        assert head_forward(cfg, store, state, np.zeros((1, 2, 768))).r.shape == (1, 2, 896)

    def test_zero_conv_map_pads_hidden(self):
        cfg, store, state = build()
        state.set_mode(False)
        for k in KERNEL_SIZES:
            store.value(f"head.inception.branch_k{k}.weight")[...] = 0.0
        h = Rng(0).normal((2, 3, 16))
        r = head_forward(cfg, store, state, h).r
        assert np.array_equal(r[..., :16], h)
        assert not r[..., 16:].any()

    def test_residual_slice_bitwise(self):
        """In train mode the first ``d`` columns are the dropout output,
        bitwise, with a float32 input widened before the division."""
        cfg, store, state = build(dropout_rate=0.25)
        state.set_mode(True)
        for dtype in (np.float64, np.float32):
            h = Rng(1).normal((2, 3, 16)).astype(dtype)
            hp = head_forward(cfg, store, state, h, Rng(2))
            assert hp.r.dtype == np.float64
            assert np.array_equal(hp.r[..., :16], h.astype(np.float64) / 0.75 * hp.mask)
            assert np.array_equal(hp.r[..., 16:], hp.c_map)

    @pytest.mark.parametrize("train", [True, False])
    def test_dropped_and_conv_features_are_views_of_r(self, train):
        cfg, store, state = build(dropout_rate=0.1)
        state.set_mode(train)
        hp = head_forward(cfg, store, state, Rng(3).normal((2, 5, 16)).astype(np.float32), Rng(4))
        assert np.shares_memory(hp.r, hp.h_dropped) and np.shares_memory(hp.r, hp.c_map)
        assert hp.h_dropped.dtype == hp.c_map.dtype == np.float64


class TestHeadAttention:
    def test_uniform_attention_averages_values(self):
        cfg, store, state = build()
        store.value("head.attn.w_q")[...] = 0.0
        store.value("head.attn.w_k")[...] = 0.0
        r = Rng(4).normal((1, 5, cfg.d_r))
        a, amap, _ = multi_head_attention(cfg, store, r)
        np.testing.assert_allclose(amap, 1.0 / 5)
        # out rows equal the mean token of r sent through values and the projection
        v = np.einsum("ld,hde->hle", r[0], store.value("head.attn.w_v"))
        mean_v = v.mean(axis=1)
        merged = mean_v.reshape(1, -1) @ store.value("head.attn.w_o")
        np.testing.assert_allclose(a[0, 2], merged[0], atol=1e-12)

    def test_single_token_weight_one(self):
        cfg, store, state = build()
        r = Rng(5).normal((2, 1, cfg.d_r))
        a, amap, _ = multi_head_attention(cfg, store, r)
        np.testing.assert_allclose(amap, 1.0)

    def test_matches_two_head_oracle(self):
        cfg, store, _ = build(d=0 + 16, c=4, n_heads=2, head_dim=2)
        r = Rng(6).normal((1, 3, cfg.d_r))
        a, amap, _ = multi_head_attention(cfg, store, r)
        heads = []
        for i in range(2):
            q = r[0] @ store.value("head.attn.w_q")[i]
            k = r[0] @ store.value("head.attn.w_k")[i]
            v = r[0] @ store.value("head.attn.w_v")[i]
            s = q @ k.T / np.sqrt(2)
            e = np.exp(s - s.max(axis=1, keepdims=True))
            w = e / e.sum(axis=1, keepdims=True)
            heads.append(w @ v)
        merged = np.concatenate(heads, axis=-1) @ store.value("head.attn.w_o")
        np.testing.assert_allclose(a[0], merged, atol=1e-10)

    def test_weight_rows_sum_to_one(self):
        cfg, store, _ = build()
        r = Rng(7).normal((2, 6, cfg.d_r)) * 5
        _, amap, cache = multi_head_attention(cfg, store, r)
        np.testing.assert_allclose(cache.weights.sum(axis=-1), 1.0, atol=1e-9)
        np.testing.assert_allclose(amap.sum(axis=-1), 1.0, atol=1e-9)


class TestPooling:
    def test_hand_mean(self):
        p = adaptive_avg_pool(np.array([[[1.0, 5.0], [3.0, 7.0]]]))
        np.testing.assert_allclose(p, [[2.0, 6.0]])

    def test_constant_sequence(self):
        p = adaptive_avg_pool(np.full((2, 4, 3), 1.5))
        np.testing.assert_allclose(p, 1.5)

    def test_single_position(self):
        a = Rng(0).normal((2, 1, 4))
        np.testing.assert_allclose(adaptive_avg_pool(a), a[:, 0, :])

    def test_permutation_invariant(self):
        a = Rng(1).normal((2, 6, 4))
        perm = Rng(2).permutation(6)
        np.testing.assert_allclose(adaptive_avg_pool(a[:, perm, :]), adaptive_avg_pool(a), atol=1e-12)

    def test_conv_outputs_are_permutation_sensitive(self):
        cfg, store, state = build()
        state.set_mode(False)
        h = Rng(3).normal((1, 6, 16))
        perm = np.roll(np.arange(6), 1)
        out1, _ = inception_forward(cfg, store, state, h)
        out2, _ = inception_forward(cfg, store, state, h[:, perm, :])
        assert np.abs(out1 - out2).max() > 1e-3


class TestHeadForward:
    def test_logit_shape(self):
        cfg, store, state = build(n_classes=4)
        state.set_mode(False)
        hp = head_forward(cfg, store, state, Rng(8).normal((32, 12, 16)))
        assert hp.logits.shape == (32, 4)

    def test_zero_params_give_uniform_softmax(self):
        cfg, store, state = build()
        state.set_mode(False)
        for name, p in store.items():
            p.value[...] = 0.0
        hp = head_forward(cfg, store, state, Rng(9).normal((2, 5, 16)))
        assert not hp.logits.any()

    def test_full_and_no_attn_agree_through_enrich(self):
        cfg_f, store_f, state_f = build("full", seed=5)
        cfg_n, store_n, state_n = build("no_attn", seed=5)
        # copy the shared parameter subset so the front of the pipe matches
        for name, p in store_n.items():
            p.value[...] = store_f.value(name)
        state_f.set_mode(False)
        state_n.set_mode(False)
        h = Rng(10).normal((2, 6, 16))
        hp_f = head_forward(cfg_f, store_f, state_f, h)
        hp_n = head_forward(cfg_n, store_n, state_n, h)
        assert np.array_equal(hp_f.c_map, hp_n.c_map)
        assert np.array_equal(hp_f.r, hp_n.r)
        assert not np.allclose(hp_f.logits, hp_n.logits)

    def test_no_dense_classifies_pooled_features_directly(self):
        cfg, store, state = build("no_dense")
        state.set_mode(False)
        h = Rng(11).normal((2, 4, 16))
        hp = head_forward(cfg, store, state, h)
        expect = hp.pooled @ store.value("head.classifier.weight") + store.value("head.classifier.bias")
        np.testing.assert_allclose(hp.logits, expect)
        assert hp.dense_out is None

    def test_variant_param_sets(self):
        _, store_f, _ = build("full")
        _, store_na, _ = build("no_attn")
        _, store_nd, _ = build("no_dense")
        names_f = set(store_f.names())
        assert set(store_na.names()) < names_f
        non_classifier = {n for n in store_nd.names() if not n.startswith("head.classifier")}
        assert non_classifier < names_f
        assert store_nd.value("head.classifier.weight").shape[0] == ModelConfig(**TOY).d_r

    @pytest.mark.parametrize("variant", ["full", "no_dense"])
    def test_pooled_attention_equals_mean_of_per_position_attention(self, variant):
        cfg, store, state = build(variant)
        state.set_mode(False)
        hp = head_forward(cfg, store, state, Rng(15).normal((3, 7, 16)))
        attended, amap, _ = multi_head_attention(cfg, store, hp.r)
        want = adaptive_avg_pool(attended)
        assert np.abs(hp.pooled - want).max() <= 1e-12 * np.abs(want).max()
        assert np.array_equal(state.received(hp), amap)

    def test_mismatched_variant_store_rejected(self):
        cfg_nd, store_nd, state_nd = build("no_dense")
        cfg_f = ModelConfig(**{**TOY, "variant": "full"})
        with pytest.raises(ConfigError):
            head_forward(cfg_f, store_nd, state_nd, np.zeros((1, 4, 16)))

    def test_eval_residual_slice_is_hidden_states(self):
        cfg, store, state = build(dropout_rate=0.2)
        state.set_mode(False)
        h = Rng(12).normal((2, 5, 16))
        hp = head_forward(cfg, store, state, h)
        assert np.array_equal(hp.r[..., :16], h)

    @pytest.mark.parametrize("variant", ["full", "no_attn", "no_dense"])
    def test_gradients_match_finite_differences(self, variant):
        cfg, store, state = build(variant, d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=2)
        state.set_mode(True)
        h = Rng(13).normal((2, 4, 8))
        targets = np.array([0, 1])

        def f(params):
            hp = head_forward(cfg, params, state, h)
            return softmax_cross_entropy(hp.logits, targets)[0]

        hp = head_forward(cfg, store, state, h)
        _, dlogits = softmax_cross_entropy(hp.logits, targets)
        store.zero_grads()
        head_backward(cfg, store, state, hp, dlogits)
        assert grad_check(f, store, 1e-5) < 1e-4


def _grads_both_ways(kind, cfg, b, length, seed=0):
    """Parameter gradients of one train-mode pass, with and without the input
    gradient, and what each backward returned."""
    model = HeadOnlyClassifier(cfg, kind, Rng(seed))
    model.set_mode(True)
    mp = model.forward(Rng(seed + 1).normal((b, length, cfg.d)), Rng(seed + 2))
    _, dlogits = softmax_cross_entropy(mp.logits, np.arange(b) % cfg.n_classes)
    out = []
    for need in (True, False):
        model.params.zero_grads()
        dh = model.head.backward(mp.head, dlogits, need)
        out.append((dh, {name: p.grad.copy() for name, p in model.params.items()}))
    return out


class TestFrozenInputBackward:
    """Without an encoder the head builds no input gradient; its parameter
    gradients stay bitwise those of the full backward."""

    DESK = dict(d=16, c=16, n_heads=2, dense_dim=8, n_classes=4, dropout_rate=0.1)

    @pytest.mark.parametrize(
        "kind,variant",
        [("inceptive", "full"), ("inceptive", "no_attn"), ("inceptive", "no_dense"), ("baseline", "full")],
    )
    def test_parameter_grads_bitwise_at_desk_shape(self, kind, variant):
        cfg = ModelConfig(**self.DESK, variant=variant)
        (dh, full), (none, frozen) = _grads_both_ways(kind, cfg, 32, 32)
        assert dh.shape == (32, 32, 16) and none is None
        assert full.keys() == frozen.keys()
        for name in full:
            assert full[name].tobytes() == frozen[name].tobytes(), name

    def test_parameter_grads_bitwise_at_paper_shape(self):
        cfg = ModelConfig(d=768, c=32, n_heads=8, dense_dim=512, n_classes=4, dropout_rate=0.1)
        (_, full), (_, frozen) = _grads_both_ways("inceptive", cfg, 32, 128)
        assert len(full) == 22
        for name in full:
            assert full[name].tobytes() == frozen[name].tobytes(), name

    @pytest.mark.parametrize("kind", ["inceptive", "baseline"])
    def test_head_only_backward_never_runs_dropout_backward(self, kind, monkeypatch):
        def spy(*args, **kwargs):
            raise AssertionError("dropout_backward called")

        monkeypatch.setattr(inceptive.head, "dropout_backward", spy)
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=2, dropout_rate=0.1)
        model = HeadOnlyClassifier(cfg, kind, Rng(0))
        model.set_mode(True)
        mp = model.forward(Rng(1).normal((4, 5, 8)), Rng(2))
        _, dlogits = softmax_cross_entropy(mp.logits, np.array([0, 1, 1, 0]))
        model.backward(mp, dlogits)
        assert any(p.grad.any() for _, p in model.params.items())
        with pytest.raises(AssertionError, match="dropout_backward called"):
            model.head.backward(mp.head, dlogits, True)


class TestBaselineHead:
    def test_reads_first_position_only(self):
        store = init_baseline_params(4, 3, Rng(0))
        spec = DropoutSpec(0.0, mode="eval")
        h = Rng(1).normal((2, 5, 4))
        bp = BaselineHead(store, spec).forward(h)
        expect = h[:, 0, :] @ store.value("head.cls.weight") + store.value("head.cls.bias")
        np.testing.assert_allclose(bp.logits, expect)
        h2 = h.copy()
        h2[:, 1:, :] = 0.0
        np.testing.assert_allclose(BaselineHead(store, spec).forward(h2).logits, bp.logits)

    def test_zero_weights_zero_logits(self):
        store = init_baseline_params(4, 2, Rng(0))
        store.value("head.cls.weight")[...] = 0.0
        bp = BaselineHead(store, DropoutSpec(0.0, mode="eval")).forward(Rng(1).normal((3, 2, 4)))
        assert not bp.logits.any()

    def test_shape_contract(self):
        store = init_baseline_params(8, 5, Rng(0))
        for length in (1, 3, 17):
            bp = BaselineHead(store, DropoutSpec(0.0, "eval")).forward(Rng(1).normal((4, length, 8)))
            assert bp.logits.shape == (4, 5)

    def test_backward_touches_only_first_position(self):
        store = init_baseline_params(4, 2, Rng(0))
        head = BaselineHead(store, DropoutSpec(0.0, mode="eval"))
        bp = head.forward(Rng(1).normal((2, 5, 4)))
        store.zero_grads()
        dh = head.backward(bp, np.ones((2, 2)))
        assert dh[:, 0, :].any()
        assert not dh[:, 1:, :].any()


class TestAttentionReceived:
    def test_uniform_weights(self):
        w = np.full((1, 2, 4, 4), 0.25)
        amap = attention_received(w.sum(axis=2))
        np.testing.assert_allclose(amap, 0.25)

    def test_point_mass_on_first_token(self):
        w = np.zeros((1, 2, 3, 3))
        w[..., 0] = 1.0
        amap = attention_received(w.sum(axis=2))
        np.testing.assert_allclose(amap[0], [1.0, 0.0, 0.0])

    def test_two_head_hand_average(self):
        w = np.zeros((1, 2, 2, 2))
        w[0, 0] = [[1.0, 0.0], [0.0, 1.0]]
        w[0, 1] = [[0.5, 0.5], [0.25, 0.75]]
        amap = attention_received(w.sum(axis=2))
        np.testing.assert_allclose(amap[0], [(1 + 0 + 0.5 + 0.25) / 4, (0 + 1 + 0.5 + 0.75) / 4])

    def test_non_normalized_rows_rejected(self):
        w = np.full((1, 1, 2, 2), 0.3)
        with pytest.raises(InputError):
            attention_received(w.sum(axis=2))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_weights_rejected(self, bad):
        w = np.full((1, 2, 3, 3), 1.0 / 3)
        w[0, 1, 2, 0] = bad
        with pytest.raises(NumericError):
            attention_received(w.sum(axis=2))

    def test_received_sums_to_one(self):
        rng = Rng(14)
        scores = rng.normal((3, 2, 5, 5)) * 4
        e = np.exp(scores - scores.max(axis=-1, keepdims=True))
        w = e / e.sum(axis=-1, keepdims=True)
        amap = attention_received(w.sum(axis=2))
        np.testing.assert_allclose(amap.sum(axis=-1), 1.0, atol=1e-9)

    def test_received_map_forms_no_weight_rows(self, monkeypatch):
        """Over several chunks of examples the map comes from the forward's
        column sums alone: it is the same with the weight-row kernel gone."""
        b, length = 9, 6
        monkeypatch.setattr(inceptive.layers, "_SCORE_CHUNK", 4 * TOY["n_heads"] * length**2)
        cfg, _, state = build()
        hp = state.forward(Rng(1).normal((b, length, cfg.d)))
        assert len(hp.mha.chunks()) == 3
        want = state.received(hp)

        def no_rows(q, k):
            raise AssertionError("the received map formed weight rows")

        monkeypatch.setattr(inceptive.layers, "_attention_weights", no_rows)
        assert np.array_equal(state.received(hp), want)
        np.testing.assert_allclose(want.sum(axis=-1), 1.0, atol=1e-12)

    def test_entropy_extremes(self):
        uniform = np.full((1, 4), 0.25)
        point = np.array([[1.0, 0.0, 0.0, 0.0]])
        assert received_entropy(uniform)[0] == pytest.approx(np.log(4))
        assert received_entropy(point)[0] == 0.0


class TestShapeProbe:
    def test_annotated_chain_at_full_size(self):
        cfg = ModelConfig(d=768, c=32, n_heads=8, dense_dim=512, n_classes=4)
        shapes = shape_probe(cfg, batch=2, length=8)
        assert shapes["hidden"] == (2, 8, 768)
        assert shapes["conv_concat"] == (2, 8, 128)
        assert shapes["enriched"] == (2, 8, 896)
        assert shapes["attended"] == (2, 8, 896)
        assert shapes["pooled"] == (2, 896)
        assert shapes["dense"] == (2, 512)
        assert shapes["logits"] == (2, 4)


class TestExports:
    def test_csv_header_and_rows(self, tmp_path):
        path = tmp_path / "map.csv"
        write_attention_csv(path, np.array([0.25, 0.75]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "position,received"
        assert lines[1] == "0,0.25"
        assert lines[2] == "1,0.75"

    def test_pgm_dimensions_and_scale(self, tmp_path):
        path = tmp_path / "map.pgm"
        write_attention_pgm(path, np.array([[0.1, 0.2], [0.3, 0.3]]))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "P2"
        assert lines[1] == "2 2"
        assert lines[2] == "255"
        assert lines[3].split() == ["128", "255"]
        assert lines[4].split() == ["255", "255"]


class TestChunkedWeightRows:
    """The pooled attention forms its weight rows one chunk of examples at
    a time, in the forward, the backward and the received map. Any chunking
    is bitwise the whole batch in one chunk."""

    B, L = 9, 6

    def _run(self, monkeypatch, per_chunk):
        monkeypatch.setattr(inceptive.layers, "_SCORE_CHUNK", per_chunk * TOY["n_heads"] * self.L**2)
        cfg, store, state = build(dropout_rate=0.1)
        state.set_mode(True)
        h = Rng(1).normal((self.B, self.L, cfg.d))
        hp = state.forward(h, Rng(2))
        _, dlogits = softmax_cross_entropy(hp.logits, np.arange(self.B) % 3)
        store.zero_grads()
        out = {"dh": state.backward(hp, dlogits)}
        out.update((name, p.grad.copy()) for name, p in store.items())
        params = MhaParams.read(store, "head.attn.")
        dpooled = Rng(3).normal(hp.pooled.shape)
        for start in (0, cfg.d):
            out[f"dx_{start}"], grads = mha_mean_backward(params, hp.mha, dpooled, start)
            out.update((f"{n}_{start}", getattr(grads, n)) for n in ("w_q", "w_k", "w_v", "w_o"))
        out["pooled"], out["colsum"] = hp.pooled, hp.mha.colsum
        state.set_mode(False)
        out["received"] = state.received(state.forward(h))
        sizes = [len(range(self.B)[s]) for s in hp.mha.chunks()]
        return sizes, out

    def test_any_chunking_is_bitwise_the_whole_batch(self, monkeypatch):
        sizes, whole = self._run(monkeypatch, self.B)
        assert sizes == [self.B]
        for per_chunk, want_sizes in ((1, [1] * self.B), (4, [4, 4, 1])):
            sizes, got = self._run(monkeypatch, per_chunk)
            assert sizes == want_sizes
            assert got.keys() == whole.keys()
            for name, value in whole.items():
                assert np.array_equal(got[name], value), (per_chunk, name)

    def test_only_a_one_chunk_batch_keeps_its_rows(self, monkeypatch):
        for per_chunk, kept in ((self.B, True), (4, False)):
            monkeypatch.setattr(inceptive.layers, "_SCORE_CHUNK", per_chunk * TOY["n_heads"] * self.L**2)
            cfg, _, state = build()
            hp = state.forward(Rng(1).normal((self.B, self.L, cfg.d)))
            assert (hp.mha.rows is not None) == kept
