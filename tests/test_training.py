import ast
import pathlib
import tracemalloc

import numpy as np
import pytest

from inceptive.encoder import EncoderConfig
from inceptive.errors import ConfigError, DegenerateBatchError, InputError, LabelError
from inceptive.head import ModelConfig
from inceptive.model import HeadOnlyClassifier, SequenceClassifier
from inceptive.tensor import ParamStore, Rng, clip_global_norm, grad_check
from inceptive import layers, training
from inceptive.training import (
    TrainConfig,
    adamw_step,
    bce_with_logits,
    cosine_lr,
    evaluate,
    init_adamw,
    kfold_split,
    run_training,
    select_best,
    softmax_cross_entropy,
    train_epoch,
)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((1, 2)), np.array([0]))
        assert loss == pytest.approx(np.log(2))

    def test_huge_logit_stability(self):
        loss, dlogits = softmax_cross_entropy(np.array([[1000.0, 0.0]]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-9)
        assert np.isfinite(dlogits).all()

    def test_invalid_target_rejected(self):
        with pytest.raises(LabelError):
            softmax_cross_entropy(np.zeros((1, 3)), np.array([3]))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(1)
        logits = rng.normal((4, 3))
        targets = np.array([0, 2, 1, 1])
        store = ParamStore()
        store.add("logits", logits)
        _, dlogits = softmax_cross_entropy(logits, targets)
        store.grad("logits")[...] = dlogits
        err = grad_check(lambda p: softmax_cross_entropy(p.value("logits"), targets)[0], store, 1e-5)
        assert err < 1e-6


class TestBceWithLogits:
    def test_midpoint(self):
        loss, _ = bce_with_logits(np.array([[0.0]]), np.array([[1.0]]))
        assert loss == pytest.approx(np.log(2))

    def test_extreme_logits_no_overflow(self):
        loss_pos, _ = bce_with_logits(np.array([[1000.0]]), np.array([[1.0]]))
        loss_neg, _ = bce_with_logits(np.array([[1000.0]]), np.array([[0.0]]))
        assert loss_pos == pytest.approx(0.0, abs=1e-9)
        assert loss_neg == pytest.approx(1000.0)

    def test_non_binary_target_rejected(self):
        with pytest.raises(LabelError):
            bce_with_logits(np.zeros((1, 2)), np.array([[0.5, 1.0]]))

    def test_gradient_matches_finite_differences(self):
        rng = Rng(2)
        logits = rng.normal((2, 3))
        targets = (rng.random((2, 3)) < 0.5).astype(float)
        store = ParamStore()
        store.add("logits", logits)
        _, dlogits = bce_with_logits(logits, targets)
        store.grad("logits")[...] = dlogits
        err = grad_check(lambda p: bce_with_logits(p.value("logits"), targets)[0], store, 1e-5)
        assert err < 1e-6


class TestAdamW:
    def _step(self, theta, grad, lr, wd, **kwargs):
        store = ParamStore()
        store.add("w", np.array([[theta]]))
        store.grad("w")[...] = grad
        state = init_adamw(store)
        for key, val in kwargs.items():
            setattr(state, key, val)
        adamw_step(store, state, lr, wd)
        return float(store.value("w")[0, 0])

    def test_hand_single_step(self):
        got = self._step(1.0, 1.0, lr=0.1, wd=0.01)
        expect = 1.0 - 0.1 / (1.0 + 1e-8) - 0.1 * 0.01 * 1.0
        assert got == pytest.approx(expect, abs=1e-12)
        assert got == pytest.approx(0.899, abs=1e-6)

    def test_zero_gradient_no_decay_is_identity(self):
        assert self._step(1.0, 0.0, lr=0.1, wd=0.0) == 1.0

    def test_decay_only_shrinks(self):
        got = self._step(2.0, 0.0, lr=0.1, wd=0.5)
        assert got == pytest.approx(2.0 * (1.0 - 0.1 * 0.5))

    def test_zero_betas_large_eps_reduce_to_scaled_sgd(self):
        g, lr, wd, eps = -0.7, 0.05, 0.2, 100.0
        got = self._step(1.5, g, lr=lr, wd=wd, beta1=0.0, beta2=0.0, eps=eps)
        expect = 1.5 - lr * g / (abs(g) + eps) - lr * wd * 1.5
        assert got == pytest.approx(expect, abs=1e-12)

    def test_no_decay_set_respected(self):
        store = ParamStore()
        store.add("w", np.array([[1.0]]))
        store.add("b", np.array([1.0]))
        state = init_adamw(store)
        adamw_step(store, state, lr=0.1, weight_decay=0.5)
        assert store.value("b")[0] == 1.0  # zero grad, decay skipped
        assert store.value("w")[0, 0] == pytest.approx(1.0 - 0.1 * 0.5)


def _moment(flat, params, name):
    """Parameter ``name``'s view of a flat AdamW moment buffer."""
    return flat[params.slice_of(name)].reshape(params.value(name).shape)


def _adamw_reference(params, state, lr, weight_decay):
    """The update as one expression per line, each allocating its result;
    parameters with fewer than two axes do not decay."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1**state.t
    bias2 = 1.0 - b2**state.t
    for name, p in params.items():
        g = p.grad
        m = _moment(state.m_flat, params, name)
        v = _moment(state.v_flat, params, name)
        m[...] = b1 * m + (1 - b1) * g
        v[...] = b2 * v + (1 - b2) * g * g
        update = lr * (m / bias1) / (np.sqrt(v / bias2) + state.eps)
        if weight_decay and p.value.ndim >= 2:
            update = update + lr * weight_decay * p.value
        p.value -= update


def _decay_shape(name, shape, no_decay):
    """``shape`` laid out so the parameter decays unless ``name`` is in
    ``no_decay``: exempt parameters get one axis, decayed ones two or more."""
    if name in no_decay:
        return (int(np.prod(shape)),)
    return shape if len(shape) >= 2 else (1, *shape)


class TestAdamWInPlace:
    @pytest.mark.parametrize("no_decay", [frozenset(), frozenset({"b"})])
    def test_bitwise_equal_to_reference_formula(self, no_decay):
        rng = Rng(21)
        b_shape = _decay_shape("b", (32,), no_decay)
        stores = []
        for _ in range(2):
            store = ParamStore()
            store.add("w", Rng(22).normal((64, 32)))
            store.add("b", Rng(23).normal(b_shape))
            stores.append((store, init_adamw(store)))
        for step in range(4):
            grads = {"w": rng.normal((64, 32)), "b": rng.normal(b_shape) * 10.0 ** -step}
            lr = cosine_lr(step, 4, 0.05, 0.001)
            for (store, state), update in zip(stores, (adamw_step, _adamw_reference)):
                for name, g in grads.items():
                    store.grad(name)[...] = g
                update(store, state, lr, 0.3)
        (got, got_state), (want, want_state) = stores
        for name in ("w", "b"):
            assert np.array_equal(got.value(name), want.value(name))
            assert np.array_equal(_moment(got_state.m_flat, got, name), _moment(want_state.m_flat, want, name))
            assert np.array_equal(_moment(got_state.v_flat, got, name), _moment(want_state.v_flat, want, name))


class TestAdamWArena:
    @pytest.mark.parametrize("no_decay", [frozenset(), frozenset({"b"})])
    def test_blocks_straddling_parameters_stay_bitwise(self, monkeypatch, no_decay):
        """Seven-element blocks cut through every parameter and every decay
        run; the blocked sweep is still bitwise the reference formula."""
        monkeypatch.setattr(training, "_ADAMW_BLOCK", 7)
        shapes = {name: _decay_shape(name, shape, no_decay) for name, shape in (("w", (5, 7)), ("b", (3,)), ("u", (4, 4)))}
        stores = []
        for _ in range(2):
            store = ParamStore()
            for i, (name, shape) in enumerate(shapes.items()):
                store.add(name, Rng(40 + i).normal(shape))
            stores.append((store, init_adamw(store)))
        rng = Rng(44)
        for step in range(4):
            grads = {name: rng.normal(shape) for name, shape in shapes.items()}
            for (store, state), update in zip(stores, (adamw_step, _adamw_reference)):
                for name, g in grads.items():
                    store.grad(name)[...] = g
                update(store, state, cosine_lr(step, 4, 0.05, 0.001), 0.3)
        (got, got_state), (want, want_state) = stores
        for name in shapes:
            assert np.array_equal(got.value(name), want.value(name))
            assert np.array_equal(_moment(got_state.m_flat, got, name), _moment(want_state.m_flat, want, name))
            assert np.array_equal(_moment(got_state.v_flat, got, name), _moment(want_state.v_flat, want, name))

    def test_step_allocates_blocks_not_parameters(self):
        """One step on a 4M-element store allocates its two block buffers,
        not temporaries the size of each parameter."""
        store = ParamStore()
        for name, shape in (("a", (1000, 2000)), ("b", (1500,)), ("c", (1000, 1998)), ("d", (500,))):
            store.add(name, np.ones(shape))
        state = init_adamw(store)
        for _, p in store.items():
            p.grad[...] = 0.5
        tracemalloc.start()
        try:
            adamw_step(store, state, 1e-3, 0.1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert store.arena()[0].size == 4_000_000
        assert peak <= 4 * 8 * training._ADAMW_BLOCK


class TestCosineLr:
    def test_endpoints(self):
        assert cosine_lr(0, 12, 1e-3) == pytest.approx(1e-3)
        assert cosine_lr(12, 12, 1e-3, 1e-5) == pytest.approx(1e-5)

    def test_midpoint(self):
        assert cosine_lr(6, 12, 2e-3, 1e-3) == pytest.approx(1.5e-3)

    def test_range_check(self):
        with pytest.raises(ConfigError):
            cosine_lr(13, 12, 1e-3)


def toy_model(kind="inceptive", seed=0, n_classes=3, task="multi-class"):
    enc = EncoderConfig(vocab_size=12, d=8, n_layers=1, n_heads=2, ffn_size=8, max_len=6)
    cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=n_classes,
                      task=task, dropout_rate=0.1)
    return SequenceClassifier(enc, cfg, kind, Rng(seed).child("init"))


def toy_data(n=16, length=6, n_classes=3, seed=0):
    rng = Rng(seed)
    ids = rng.integers(0, 12, (n, length))
    # label depends on the first token so the task is learnable
    targets = np.asarray(ids[:, 0] % n_classes)
    return ids, targets


class TestTrainEpoch:
    def test_zero_lr_leaves_parameters_unchanged(self):
        model = toy_model()
        data = toy_data()
        before = {name: p.value.copy() for name, p in model.params.items()}
        opt = init_adamw(model.params)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=1, lr=1e-9, weight_decay=0.0)
        rec = train_epoch(model, data, cfg, opt, 1, 0.0, Rng(5))
        assert rec["train_loss"] > 0
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, before[name])

    def test_same_seed_identical_trajectory(self):
        losses = []
        for _ in range(2):
            model = toy_model(seed=3)
            opt = init_adamw(model.params)
            cfg = TrainConfig(seq_len=6, batch_size=8, epochs=1, lr=1e-3)
            recs = [
                train_epoch(model, toy_data(), cfg, opt, epoch, 1e-3, Rng(7))["train_loss"]
                for epoch in range(1, 4)
            ]
            losses.append(recs)
        assert losses[0] == losses[1]

    def test_gradient_norm_clipped_every_step(self):
        model = toy_model()
        data = toy_data()
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=1, lr=1e-3, max_grad_norm=0.01)
        opt = init_adamw(model.params)
        train_epoch(model, data, cfg, opt, 1, 1e-3, Rng(9))
        # after the epoch the last batch's clipped grads are still in the store
        total = sum(float((p.grad ** 2).sum()) for _, p in model.params.items())
        assert np.sqrt(total) <= 0.01 + 1e-9

    def test_reports_gradient_telemetry(self, monkeypatch):
        import inceptive.training as training

        seen = []

        def recording_clip(params, max_norm):
            seen.append(clip_global_norm(params, max_norm))
            return seen[-1]

        monkeypatch.setattr(training, "clip_global_norm", recording_clip)
        data = toy_data()
        for max_norm, frac in ((0.01, 1.0), (1e9, 0.0)):
            seen.clear()
            model = toy_model()
            cfg = TrainConfig(seq_len=6, batch_size=8, epochs=1, lr=1e-3, max_grad_norm=max_norm)
            rec = train_epoch(model, data, cfg, init_adamw(model.params), 1, 1e-3, Rng(9))
            assert len(seen) == 2
            assert rec["grad_norm_mean"] == float(np.mean(seen))
            assert rec["grad_norm_max"] == max(seen)
            assert rec["clip_frac"] == frac

    def test_single_batch_overfit(self):
        model = toy_model(seed=11)
        ids, targets = toy_data(n=8, seed=2)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=200, lr=5e-3, weight_decay=0.0)
        opt = init_adamw(model.params)
        rng = Rng(13)
        losses = []
        for epoch in range(1, 201):
            losses.append(train_epoch(model, (ids, targets), cfg, opt, epoch, 5e-3, rng)["train_loss"])
        metrics, _ = evaluate(model, (ids, targets), cfg)
        assert metrics["accuracy"] == 1.0
        smoothed = np.convolve(losses, np.ones(20) / 20, mode="valid")
        assert (np.diff(smoothed) <= 1e-9).all()


class TestEvaluate:
    def test_perfect_predictor(self):
        model = toy_model(seed=11)
        ids, targets = toy_data(n=8, seed=2)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=60, lr=5e-3, weight_decay=0.0)
        opt = init_adamw(model.params)
        rng = Rng(13)
        for epoch in range(1, 61):
            train_epoch(model, (ids, targets), cfg, opt, epoch, 5e-3, rng)
        metrics, elapsed = evaluate(model, (ids, targets), cfg)
        if metrics["accuracy"] == 1.0:
            assert metrics["f1_micro"] == 1.0
        assert elapsed > 0

    def test_eval_is_deterministic(self):
        model = toy_model(seed=4)
        data = toy_data(seed=5)
        cfg = TrainConfig(seq_len=6, epochs=1, lr=1e-3)
        m1, _ = evaluate(model, data, cfg)
        m2, _ = evaluate(model, data, cfg)
        assert m1 == m2

    def test_empty_data_rejected(self):
        model = toy_model()
        cfg = TrainConfig(seq_len=6, epochs=1, lr=1e-3)
        with pytest.raises(InputError):
            evaluate(model, (np.zeros((0, 6), dtype=int), np.zeros(0, dtype=int)), cfg)

    def test_chance_level_constant_predictor(self):
        model = toy_model(seed=6, n_classes=2)
        for name, p in model.params.items():
            if name.startswith("head."):
                p.value[...] = 0.0
        ids, _ = toy_data(n=20, n_classes=2, seed=7)
        targets = np.array([0, 1] * 10)
        cfg = TrainConfig(seq_len=6, epochs=1, lr=1e-3)
        metrics, _ = evaluate(model, (ids, targets), cfg)
        assert metrics["accuracy"] == 0.5


class TestSelectBest:
    def test_argmax_one_based(self):
        recs = [{"accuracy": a, "f1_micro": 0.0} for a in (0.7, 0.9, 0.8)]
        assert select_best(recs, "accuracy") == 2

    def test_tie_goes_to_earliest(self):
        recs = [{"accuracy": 0.8, "f1_micro": 0.0}, {"accuracy": 0.8, "f1_micro": 0.0}]
        assert select_best(recs, "accuracy") == 1

    def test_f1_selection_ignores_accuracy_peak(self):
        recs = [
            {"accuracy": 0.9, "f1_micro": 0.4},
            {"accuracy": 0.5, "f1_micro": 0.8},
        ]
        assert select_best(recs, "f1") == 2


class TestKfold:
    def test_leave_one_out_degenerate(self):
        folds = kfold_split(10, 10, seed=0)
        assert len(folds) == 10
        assert all(len(val) == 1 for _, val in folds)

    def test_near_equal_sizes_23_over_10(self):
        folds = kfold_split(23, 10, seed=1)
        sizes = sorted(len(val) for _, val in folds)
        assert sizes == [2] * 7 + [3] * 3

    def test_partition_property(self):
        rng = Rng(2)
        for _ in range(100):
            n = int(rng.integers(2, 200, None))
            k = int(rng.integers(2, min(n, 12) + 1, None))
            folds = kfold_split(n, k, seed=int(rng.integers(0, 1000, None)))
            all_val = np.concatenate([val for _, val in folds])
            assert len(all_val) == n
            assert len(set(all_val.tolist())) == n
            for train, val in folds:
                assert set(train) | set(val) == set(range(n))
                assert not set(train) & set(val)

    def test_too_few_examples_rejected(self):
        with pytest.raises(InputError):
            kfold_split(5, 10)


class TestRunTraining:
    def test_report_structure_and_best_epoch(self):
        model = toy_model(seed=8)
        train = toy_data(n=24, seed=9)
        val = toy_data(n=8, seed=10)
        test = toy_data(n=8, seed=11)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=3, lr=2e-3)
        report, best_state = run_training(model, train, val, test, cfg, Rng(21), {"model": "toy"})
        assert len(report.epochs) == 3
        accs = [e["val"]["accuracy"] for e in report.epochs]
        assert report.best_epoch == int(np.argmax(accs)) + 1
        assert report.best_value == max(accs)
        assert "accuracy" in report.test
        assert len(report.timing["epoch_seconds"]) == 3
        assert set(best_state) == set(model.state_tensors())

    def test_best_snapshot_restored_for_test_metrics(self):
        model = toy_model(seed=12)
        train = toy_data(n=24, seed=13)
        val = toy_data(n=8, seed=14)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=4, lr=2e-3)
        report, best_state = run_training(model, train, val, val, cfg, Rng(22))
        for name, p in model.params.items():
            np.testing.assert_array_equal(p.value, best_state[name])

    def test_without_validation_tests_the_final_model(self):
        """No validation split: the epoch loop is the same, but the final
        model is tested and no snapshot is taken."""
        train, test = toy_data(n=24, seed=15), toy_data(n=8, seed=16)
        cfg = TrainConfig(seq_len=6, batch_size=8, epochs=3, lr=2e-3)
        model = toy_model(seed=14)
        report, best_state = run_training(model, train, None, test, cfg, Rng(23))
        assert best_state is None
        assert (report.best_epoch, report.best_value) == (0, 0.0)
        assert [e["epoch"] for e in report.epochs] == [1, 2, 3]
        assert all("val" not in e for e in report.epochs)
        assert report.test == evaluate(model, test, cfg)[0]
        # the same trajectory as a run with validation, up to its last epoch
        ref_model = toy_model(seed=14)
        ref, _ = run_training(ref_model, train, test, test, cfg, Rng(23))
        assert report.epochs == [{k: v for k, v in e.items() if k != "val"} for e in ref.epochs]
        assert report.test == ref.epochs[-1]["val"]


class TestHeadOnly:
    def test_frozen_input_training_runs(self):
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=2, dropout_rate=0.0)
        model = HeadOnlyClassifier(cfg, "inceptive", Rng(0))
        rng = Rng(1)
        h = rng.normal((12, 5, 8))
        targets = (h[:, :, 0].mean(axis=1) > 0).astype(int)
        tcfg = TrainConfig(seq_len=5, batch_size=6, epochs=100, lr=2e-2, weight_decay=0.0)
        opt = init_adamw(model.params)
        for epoch in range(1, 101):
            train_epoch(model, (h, targets), tcfg, opt, epoch, 2e-2, rng.child("t"))
        metrics, _ = evaluate(model, (h, targets), tcfg)
        assert metrics["accuracy"] == 1.0


HEADS = [("inceptive", "full"), ("inceptive", "no_attn"), ("inceptive", "no_dense"), ("baseline", "full")]


def _frozen_model(kind, variant, d):
    cfg = ModelConfig(d=d, c=3, n_heads=2, dense_dim=8, n_classes=3, dropout_rate=0.1, variant=variant)
    return HeadOnlyClassifier(cfg, kind, Rng(0))


class TestFrozenFloat32Inputs:
    """Frozen hidden states stay float32 in memory; the head widens them
    where it reads them, so training on them is bitwise training on the
    same values held as float64."""

    @staticmethod
    def _train(kind, variant, h):
        model = _frozen_model(kind, variant, h.shape[2])
        data = (h, np.arange(len(h)) % 3)
        opt = init_adamw(model.params)
        tcfg = TrainConfig(seq_len=h.shape[1], batch_size=len(h), lr=1e-2)
        for epoch in range(3):
            train_epoch(model, data, tcfg, opt, epoch, 1e-2, Rng(1))
        model.set_mode(False)
        state = {name: (p.value.tobytes(), p.grad.tobytes()) for name, p in model.params.items()}
        return state, model.forward(h).logits.tobytes()

    @pytest.mark.parametrize("kind,variant", HEADS)
    @pytest.mark.parametrize("b,length", [(4, 6), (1, 5), (4, 1)])
    def test_float32_trains_bitwise_as_float64(self, kind, variant, b, length):
        h32 = Rng(2).normal((b, length, 8)).astype(np.float32)
        assert self._train(kind, variant, h32) == self._train(kind, variant, h32.astype(np.float64))

    @pytest.mark.parametrize("variant", ["full", "no_attn", "no_dense"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_one_position_still_raises_in_train_mode(self, variant, dtype):
        model = _frozen_model("inceptive", variant, 8)
        model.set_mode(True)
        with pytest.raises(DegenerateBatchError):
            model.forward(np.ones((1, 1, 8), dtype=dtype), Rng(3))

    def test_train_step_peak_memory(self):
        """Traced peak of one train step (forward, loss, backward) at
        B=8, L=64, d=96: no higher for float32 input than for float64, and
        at most 11.5 (B, L, d_r) float64 tensors. A float64 copy of the
        input beside the enriched buffer and two attention-adjoint
        temporaries at once read 12.9 (float64) and 13.7 (float32)."""
        cfg = ModelConfig(d=96, c=8, n_heads=4, dense_dim=32, n_classes=3, dropout_rate=0.1)
        unit = 8 * 64 * cfg.d_r * 8
        peaks = {}
        for dtype in (np.float64, np.float32):
            model = HeadOnlyClassifier(cfg, "inceptive", Rng(0))
            model.set_mode(True)
            h = Rng(1).normal((8, 64, 96)).astype(dtype)
            tracemalloc.start()
            try:
                mp = model.forward(h, Rng(2))
                _, dlogits = softmax_cross_entropy(mp.logits, np.arange(8) % 3)
                model.params.zero_grads()
                model.backward(mp, dlogits)
                peaks[dtype] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[np.float32] <= peaks[np.float64] <= 11.5 * unit, {k.__name__: v / unit for k, v in peaks.items()}

    def test_many_head_train_step_peak_memory(self):
        """Traced peak of one train step at B=8, L=128, d=32, c=8, h=8, where
        one (B, h, L, L) float64 array is 16 (B, L, d_r) float64 tensors: at
        most 28 such tensors. Caching the weight rows and forming the whole
        score gradient read 39.1; rows recomputed per chunk of examples read
        22.4, so the bound leaves 25% of headroom above that."""
        cfg = ModelConfig(d=32, c=8, n_heads=8, dense_dim=32, n_classes=3, dropout_rate=0.1)
        unit = 8 * 128 * cfg.d_r * 8
        model = HeadOnlyClassifier(cfg, "inceptive", Rng(0))
        model.set_mode(True)
        h = Rng(1).normal((8, 128, 32))
        tracemalloc.start()
        try:
            mp = model.forward(h, Rng(2))
            _, dlogits = softmax_cross_entropy(mp.logits, np.arange(8) % 3)
            model.params.zero_grads()
            model.backward(mp, dlogits)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 28 * unit, peak / unit


class TestEpochPeakMemory:
    """Traced peaks of whole epochs: each loop holds one batch's pass while
    the next batch's forward runs."""

    @staticmethod
    def _epoch_peak(monkeypatch, name):
        """Traced peak of one ``train_epoch`` or ``evaluate`` over 3 batches
        of B=16, L=64, d=96, c=8, h=4, in (B, L, d_r) float64 units. Weight
        rows come 2 examples per chunk, 8 chunks per batch."""
        cfg = ModelConfig(d=96, c=8, n_heads=4, dense_dim=32, n_classes=3, dropout_rate=0.1)
        b, length = 16, 64
        monkeypatch.setattr(layers, "_SCORE_CHUNK", 2 * cfg.n_heads * length * length)
        model = HeadOnlyClassifier(cfg, "inceptive", Rng(0))
        data = (Rng(1).normal((3 * b, length, cfg.d)), np.arange(3 * b) % 3)
        tcfg = TrainConfig(seq_len=length, batch_size=b)
        opt = init_adamw(model.params)
        tracemalloc.start()
        try:
            if name == "train_epoch":
                train_epoch(model, data, tcfg, opt, 0, 1e-3, Rng(2))
            else:
                evaluate(model, data, tcfg)
            return tracemalloc.get_traced_memory()[1] / (b * length * cfg.d_r * 8)
        finally:
            tracemalloc.stop()

    def test_evaluate_peak_memory(self, monkeypatch):
        """An eval-mode pass keeps no backward state and forms its queries
        and keys one chunk at a time: 3.18 units. Full queries and keys and
        the batch-norm cache, kept until the next batch's forward, read
        6.93. The bound leaves 25% of headroom."""
        peak = self._epoch_peak(monkeypatch, "evaluate")
        assert peak <= 4.0, peak

    def test_train_epoch_peak_memory(self, monkeypatch):
        """A train pass keeps its whole query-key buffer, and the backward
        overwrites it with its own gradient: 6.88 units. With a second
        buffer for that gradient it read 8.88 (8.63 while each weight
        gradient had its own GEMM). The bound leaves 10% of headroom."""
        peak = self._epoch_peak(monkeypatch, "train_epoch")
        assert peak <= 7.56, peak


class TestZeroVarianceBatch:
    """All-zero hidden states make every convolution output 0, so each
    concat channel's batch variance is exactly 0 and batch norm divides by
    its epsilon alone. A train step must stay finite."""

    @pytest.mark.parametrize("variant", ["full", "no_attn", "no_dense"])
    def test_train_step_on_zero_inputs_is_finite(self, variant):
        model = _frozen_model("inceptive", variant, 8)
        model.set_mode(True)
        mp = model.forward(np.zeros((4, 6, 8)), Rng(3))
        assert not mp.head.inception[0].any()  # the batch norm's centred input
        assert np.isfinite(mp.logits).all()
        _, dlogits = softmax_cross_entropy(mp.logits, np.arange(4) % 3)
        model.params.zero_grads()
        model.backward(mp, dlogits)
        for name, p in model.params.items():
            assert np.isfinite(p.grad).all(), name
        assert np.isfinite(clip_global_norm(model.params, 1.0))
        for name, value in model.head.buffers().items():
            assert np.isfinite(value).all(), name


ENCODER_NAMES = [
    "encoder.tok_embed", "encoder.pos_embed",
    "encoder.block0.ln1.scale", "encoder.block0.ln1.shift",
    "encoder.block0.attn.w_q", "encoder.block0.attn.w_k", "encoder.block0.attn.w_v", "encoder.block0.attn.w_o",
    "encoder.block0.ln2.scale", "encoder.block0.ln2.shift",
    "encoder.block0.ffn.w1", "encoder.block0.ffn.b1", "encoder.block0.ffn.w2", "encoder.block0.ffn.b2",
]
BRANCH_NAMES = [f"head.inception.branch_k{k}.{p}" for k in (2, 3, 5, 7) for p in ("weight", "bn.scale", "bn.shift")]
ATTN_NAMES = ["head.attn.w_q", "head.attn.w_k", "head.attn.w_v", "head.attn.w_o"]
DENSE_NAMES = ["head.dense.weight", "head.dense.bias", "head.dense.ln.scale", "head.dense.ln.shift"]
CLASSIFIER_NAMES = ["head.classifier.weight", "head.classifier.bias"]
BUFFER_NAMES = [f"head.inception.branch_k{k}.bn.{s}" for k in (2, 3, 5, 7) for s in ("running_mean", "running_var")]
HEAD_ORDER = {
    ("inceptive", "full"): BRANCH_NAMES + ATTN_NAMES + DENSE_NAMES + CLASSIFIER_NAMES + BUFFER_NAMES,
    ("inceptive", "no_attn"): BRANCH_NAMES + DENSE_NAMES + CLASSIFIER_NAMES + BUFFER_NAMES,
    ("inceptive", "no_dense"): BRANCH_NAMES + ATTN_NAMES + CLASSIFIER_NAMES + BUFFER_NAMES,
    ("baseline", "full"): ["head.cls.weight", "head.cls.bias"],
}


class TestStateTensorOrder:
    """Checkpoint bytes and ``clip_global_norm``'s summation order follow
    ``state_tensors()``'s key order: encoder parameters, then head
    parameters in init order, then the batch-norm buffers."""

    @pytest.mark.parametrize("kind,variant", HEADS)
    def test_token_model_order(self, kind, variant):
        enc = EncoderConfig(vocab_size=12, d=8, n_layers=1, n_heads=2, ffn_size=8, max_len=6)
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3, variant=variant)
        model = SequenceClassifier(enc, cfg, kind, Rng(0))
        assert list(model.state_tensors()) == ENCODER_NAMES + HEAD_ORDER[kind, variant]

    @pytest.mark.parametrize("kind,variant", HEADS)
    def test_frozen_model_order(self, kind, variant):
        assert list(_frozen_model(kind, variant, 8).state_tensors()) == HEAD_ORDER[kind, variant]


class TestAdjointsReadTheirForwardCache:
    """Every norm and ReLU runs once per train step, in the forward: each
    adjoint reads its forward's cache or output and never re-runs it."""

    WATCHED = ("layer_norm", "relu", "batchnorm_apply")

    def test_one_token_step_runs_each_norm_and_relu_once(self, monkeypatch):
        import inceptive.encoder
        import inceptive.head
        import inceptive.layers

        calls = dict.fromkeys(self.WATCHED, 0)
        # counted through each module namespace that binds the name, as perfbench's tracer wraps them
        for module in (inceptive.layers, inceptive.head, inceptive.encoder):
            for name in self.WATCHED:
                if hasattr(module, name):
                    def counted(*args, _name=name, _f=getattr(module, name), **kwargs):
                        calls[_name] += 1
                        return _f(*args, **kwargs)

                    monkeypatch.setattr(module, name, counted)
        enc = EncoderConfig(vocab_size=12, d=8, n_layers=2, n_heads=2, ffn_size=8, max_len=6)
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3, variant="full")
        model = SequenceClassifier(enc, cfg, "inceptive", Rng(0))
        tcfg = TrainConfig(seq_len=6, batch_size=16, epochs=1, lr=1e-3)
        train_epoch(model, toy_data(n=16), tcfg, init_adamw(model.params), 1, 1e-3, Rng(1))
        # layer norm: two per encoder block and the dense block's; ReLU: one per encoder block,
        # the inception's and the dense block's
        assert calls == {"layer_norm": 5, "relu": 4, "batchnorm_apply": 1}

    def test_no_backward_calls_a_forward(self):
        import inceptive
        import inceptive.head
        import inceptive.layers

        for path in pathlib.Path(inceptive.__file__).parent.glob("*.py"):
            for fn in ast.walk(ast.parse(path.read_text())):
                if isinstance(fn, ast.FunctionDef) and fn.name.endswith("backward"):
                    called = {
                        node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                        for node in ast.walk(fn)
                        if isinstance(node, ast.Call)
                    }
                    assert not called & set(self.WATCHED), (path.name, fn.name)
        assert not hasattr(inceptive.layers, "_bn_stats")
        assert not hasattr(inceptive.head, "_InceptionCache")
