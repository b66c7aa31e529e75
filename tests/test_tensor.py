import re
import tracemalloc

import numpy as np
import pytest

from inceptive.encoder import EncoderConfig
from inceptive.errors import ConfigError, DimensionError, FormatError, NumericError
from inceptive.head import KERNEL_SIZES, ModelConfig
from inceptive.model import SequenceClassifier
from inceptive import tensor
from inceptive.tensor import (
    BinaryReader,
    ParamStore,
    Rng,
    clip_global_norm,
    finite_float32,
    glorot_uniform,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)
from inceptive.training import adamw_step, init_adamw


class TestRng:
    def test_same_seed_same_stream(self):
        a = Rng(7).random(16)
        b = Rng(7).random(16)
        assert np.array_equal(a, b)

    def test_children_are_independent_and_reproducible(self):
        r = Rng(3)
        a1 = r.child("weights").random(8)
        a2 = Rng(3).child("weights").random(8)
        b = Rng(3).child("dropout").random(8)
        assert np.array_equal(a1, a2)
        assert not np.array_equal(a1, b)

    def test_child_tags_mix_ints_and_strings(self):
        a = Rng(0).child("epoch", 3).random(4)
        b = Rng(0).child("epoch", 4).random(4)
        assert not np.array_equal(a, b)


class TestParamStore:
    def test_grad_shapes_match_and_order_is_stable(self):
        store = ParamStore()
        store.add("b.w", np.ones((2, 3)))
        store.add("a.w", np.ones(4))
        assert store.names() == ["b.w", "a.w"]
        for name, p in store.items():
            assert p.grad.shape == p.value.shape
            assert not p.grad.any()

    def test_duplicate_name_rejected(self):
        store = ParamStore()
        store.add("w", np.ones(1))
        with pytest.raises(ConfigError):
            store.add("w", np.ones(1))

    def test_load_values_validates_names_and_shapes(self):
        store = ParamStore()
        store.add("w", np.ones((2, 2)))
        with pytest.raises(DimensionError):
            store.load_values({"w": np.ones((2, 3))})
        with pytest.raises(DimensionError):
            store.load_values({"v": np.ones((2, 2))})


class TestParamArena:
    def _store(self):
        store = ParamStore()
        store.add("w", Rng(1).normal((3, 4)))
        store.add("b", Rng(2).normal(5))
        store.grad("b")[...] = 2.0
        return store

    def test_packing_keeps_values_and_grads_as_views(self):
        store = self._store()
        before = {name: (p.value.copy(), p.grad.copy()) for name, p in store.items()}
        values, grads = store.arena()
        assert values.size == grads.size == 17
        for name, p in store.items():
            sl = store.slice_of(name)
            assert np.shares_memory(p.value, values[sl]) and np.shares_memory(p.grad, grads[sl])
            assert np.array_equal(p.value, before[name][0]) and np.array_equal(p.grad, before[name][1])
            assert np.array_equal(values[sl], p.value.ravel())
        assert store.slice_of("b") == slice(12, 17)

    def test_training_sweeps_pack_the_store(self):
        store = self._store()
        init_adamw(store)
        values, grads = store.arena()
        for _, p in store.items():
            assert np.shares_memory(p.value, values) and np.shares_memory(p.grad, grads)
        store.grad("w")[...] = 1.0
        store.zero_grads()
        assert not grads.any()

    def test_add_after_packing_raises(self):
        store = self._store()
        store.arena()
        with pytest.raises(ConfigError):
            store.add("late", np.ones(2))
        assert "late" not in store

    def test_load_values_writes_through(self):
        store = self._store()
        values, _ = store.arena()
        store.load_values({"w": np.full((3, 4), 7.0), "b": np.arange(5.0)})
        assert np.array_equal(values, np.concatenate([np.full(12, 7.0), np.arange(5.0)]))

    def test_load_state_writes_through(self):
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3)
        model = SequenceClassifier(None, cfg, "inceptive", Rng(3))
        init_adamw(model.params)
        saved = model.state_tensors()
        values, _ = model.params.arena()
        values[...] = 0.0
        model.load_state(saved)
        for name, p in model.params.items():
            assert np.array_equal(values[model.params.slice_of(name)], saved[name].ravel())

    def test_clip_scales_the_packed_grads(self):
        store = self._store()
        _, grads = store.arena()
        norm = clip_global_norm(store, 1.0)
        assert norm == pytest.approx(np.sqrt(5 * 4.0))
        assert np.linalg.norm(grads) == pytest.approx(1.0)


def _earlier_init(enc: EncoderConfig | None, cfg: ModelConfig, kind: str, rng: Rng) -> dict[str, np.ndarray]:
    """Parameter values as the per-parameter initialisers drew them before the
    store allocated its buffers up front: one ``rng.uniform(-a, a, shape)``
    per weight, in declaration order, ones and zeros for the rest."""
    out: dict[str, np.ndarray] = {}

    def glorot(r, name, shape, fan_in, fan_out):
        a = np.sqrt(6.0 / (fan_in + fan_out))
        out[name] = r.uniform(-a, a, shape)

    if enc is not None:
        r, d, dh, f = rng.child("encoder"), enc.d, enc.head_dim, enc.ffn_size
        glorot(r, "encoder.tok_embed", (enc.vocab_size, d), enc.vocab_size, d)
        glorot(r, "encoder.pos_embed", (enc.max_len, d), enc.max_len, d)
        for i in range(enc.n_layers):
            b = f"encoder.block{i}."
            out[b + "ln1.scale"], out[b + "ln1.shift"] = np.ones(d), np.zeros(d)
            for name in ("attn.w_q", "attn.w_k", "attn.w_v"):
                glorot(r, b + name, (enc.n_heads, d, dh), d, dh)
            glorot(r, b + "attn.w_o", (enc.n_heads * dh, d), enc.n_heads * dh, d)
            out[b + "ln2.scale"], out[b + "ln2.shift"] = np.ones(d), np.zeros(d)
            glorot(r, b + "ffn.w1", (d, f), d, f)
            out[b + "ffn.b1"] = np.zeros(f)
            glorot(r, b + "ffn.w2", (f, d), f, d)
            out[b + "ffn.b2"] = np.zeros(d)
    r, n = rng.child("head"), cfg.n_classes
    if kind == "baseline":
        glorot(r, "head.cls.weight", (cfg.d, n), cfg.d, n)
        out["head.cls.bias"] = np.zeros(n)
        return out
    for k in KERNEL_SIZES:
        b = f"head.inception.branch_k{k}."
        glorot(r, b + "weight", (cfg.c, k, cfg.d), k * cfg.d, k * cfg.c)
        out[b + "bn.scale"], out[b + "bn.shift"] = np.ones(cfg.c), np.zeros(cfg.c)
    if cfg.has_attention:
        h, da = cfg.n_heads, cfg.resolved_head_dim
        for name in ("attn.w_q", "attn.w_k", "attn.w_v"):
            glorot(r, "head." + name, (h, cfg.d_r, da), cfg.d_r, da)
        glorot(r, "head.attn.w_o", (h * da, cfg.d_r), h * da, cfg.d_r)
    if cfg.has_dense:
        m = cfg.dense_dim
        glorot(r, "head.dense.weight", (cfg.d_r, m), cfg.d_r, m)
        out["head.dense.bias"], out["head.dense.ln.scale"], out["head.dense.ln.shift"] = np.zeros(m), np.ones(m), np.zeros(m)
    glorot(r, "head.classifier.weight", (cfg.classifier_in, n), cfg.classifier_in, n)
    out["head.classifier.bias"] = np.zeros(n)
    return out


DESK_ENC = EncoderConfig(vocab_size=33, d=16, n_layers=2, n_heads=2, ffn_size=32, max_len=32)
STORE_CASES = {
    **{f"desk_{v}": (DESK_ENC, ModelConfig(d=16, c=16, dense_dim=8, n_classes=4, variant=v), "inceptive")
       for v in ("full", "no_attn", "no_dense")},
    "desk_baseline": (DESK_ENC, ModelConfig(d=16, c=16, dense_dim=8, n_classes=4), "baseline"),
    "paper_head": (None, ModelConfig(d=768, c=32, n_heads=8, dense_dim=512, n_classes=4), "inceptive"),
}


class TestStoreBornPacked:
    @pytest.mark.parametrize("case", sorted(STORE_CASES))
    def test_values_are_bitwise_the_per_parameter_draws(self, case):
        enc, cfg, kind = STORE_CASES[case]
        store = SequenceClassifier(enc, cfg, kind, Rng(11)).params
        want = _earlier_init(enc, cfg, kind, Rng(11))
        assert store.names() == list(want)
        values, grads = store.arena()
        assert values.size == sum(v.size for v in want.values())
        for name, p in store.items():
            assert p.value.tobytes() == want[name].tobytes(), name
            assert np.shares_memory(p.value, values) and np.shares_memory(p.grad, grads)
        assert not grads.any()

    def test_views_read_before_init_adamw_are_the_ones_adamw_steps(self):
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3)
        store = SequenceClassifier(None, cfg, "inceptive", Rng(3)).params
        views = {name: (store.value(name), store.grad(name)) for name in store.names()}
        before = {name: value.copy() for name, (value, _) in views.items()}
        state = init_adamw(store)
        for _, grad in views.values():
            grad[...] = 0.25
        adamw_step(store, state, 0.1, 0.0)
        for name, (value, grad) in views.items():
            assert value is store.value(name) and grad is store.grad(name)
            assert not np.array_equal(value, before[name]), name

    def test_init_adamw_allocates_only_the_moments(self):
        cfg = ModelConfig(d=64, c=8, n_heads=2, dense_dim=32, n_classes=3)
        store = SequenceClassifier(None, cfg, "inceptive", Rng(4)).params
        tracemalloc.start()
        try:
            state = init_adamw(store)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = store.arena()[0].size
        assert state.m_flat.size == state.v_flat.size == size
        assert peak <= 2 * 8 * size + 4096

    def test_add_copies_and_a_read_closes_the_store(self):
        w = np.ones(3)
        store = ParamStore()
        store.add("w", w)
        store.value("w")[0] = 5.0
        assert w[0] == 1.0
        with pytest.raises(ConfigError, match="packed"):
            store.add("late", np.ones(2))

    def test_failed_load_values_writes_nothing(self):
        store = ParamStore()
        store.add("a", np.zeros(2))
        store.add("b", np.zeros(3))
        with pytest.raises(DimensionError, match="shape mismatch for b"):
            store.load_values({"a": np.ones(2), "b": np.ones(4)})
        assert not store.arena()[0].any()

    def test_failed_load_state_leaves_the_model_unchanged(self):
        cfg = ModelConfig(d=8, c=2, n_heads=2, head_dim=4, dense_dim=4, n_classes=3)
        model = SequenceClassifier(None, cfg, "inceptive", Rng(5))
        before = model.state_tensors()
        params_only = {name: value + 1.0 for name, value in before.items() if name in model.params}
        with pytest.raises(DimensionError, match="buffer"):
            model.load_state(params_only)
        bad_buffer = {name: value + 1.0 for name, value in before.items()}
        name = next(n for n in bad_buffer if n.endswith("running_var"))
        bad_buffer[name] = np.ones(cfg.c + 1)
        with pytest.raises(DimensionError, match=name):
            model.load_state(bad_buffer)
        after = model.state_tensors()
        assert list(after) == list(before)
        for name, value in before.items():
            assert np.array_equal(after[name], value), name


class TestInit:
    def test_glorot_bound(self):
        w = glorot_uniform(Rng(0), (200,), fan_in=3, fan_out=3)
        assert np.abs(w).max() <= 1.0

    def test_same_seed_bit_identical(self):
        a = glorot_uniform(Rng(9).child("w"), (4, 4), 4, 4)
        b = glorot_uniform(Rng(9).child("w"), (4, 4), 4, 4)
        assert np.array_equal(a, b)


class TestClipGlobalNorm:
    def _store(self, grads):
        store = ParamStore()
        for i, g in enumerate(grads):
            store.add(f"p{i}", np.zeros_like(np.asarray(g, dtype=float)))
        for i, g in enumerate(grads):
            store.grad(f"p{i}")[...] = g
        return store

    def test_scales_above_threshold(self):
        store = self._store([[3.0], [4.0]])
        norm = clip_global_norm(store, 1.0)
        assert norm == pytest.approx(5.0)
        assert store.grad("p0")[0] == pytest.approx(0.6)
        assert store.grad("p1")[0] == pytest.approx(0.8)

    def test_below_threshold_unchanged(self):
        store = self._store([[0.3]])
        assert clip_global_norm(store, 1.0) == pytest.approx(0.3)
        assert store.grad("p0")[0] == 0.3

    def test_zero_grads(self):
        store = self._store([[0.0, 0.0]])
        assert clip_global_norm(store, 1.0) == 0.0

    def test_idempotent(self):
        store = self._store([Rng(2).normal(10)])
        clip_global_norm(store, 1.0)
        once = store.grad("p0").copy()
        clip_global_norm(store, 1.0)
        np.testing.assert_allclose(store.grad("p0"), once, rtol=1e-12)

    def test_nan_grad_raises(self):
        store = self._store([[np.nan]])
        with pytest.raises(NumericError):
            clip_global_norm(store, 1.0)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf])
    def test_infinite_grad_raises_naming_it(self, bad):
        store = self._store([[0.5], [1.0, bad], [np.nan]])
        with pytest.raises(NumericError, match="non-finite gradient in p1"):
            clip_global_norm(store, 1.0)

    def test_overflowing_finite_norm_raises(self):
        store = self._store([[1e200, -1e200]])
        with pytest.raises(NumericError, match="overflows"):
            clip_global_norm(store, 1.0)


class TestGradCheck:
    def test_quadratic_closed_form(self):
        store = ParamStore()
        store.add("theta", np.array([3.0]))

        def f(params):
            return float(params.value("theta")[0] ** 2)

        store.grad("theta")[...] = 6.0
        assert grad_check(f, store, 1e-4) < 1e-8

    def test_constant_function_zero_error(self):
        store = ParamStore()
        store.add("theta", np.array([1.0, -2.0]))
        assert grad_check(lambda p: 5.0, store, 1e-4) == 0.0

    def test_wrong_gradient_detected(self):
        store = ParamStore()
        store.add("theta", np.array([2.0]))
        store.grad("theta")[...] = 1.0  # true derivative is 4
        assert grad_check(lambda p: float(p.value("theta")[0] ** 2), store, 1e-4) > 0.1

    def test_nonfinite_loss_raises(self):
        store = ParamStore()
        store.add("theta", np.array([0.0]))
        with pytest.raises(NumericError):
            grad_check(lambda p: float("inf"), store, 1e-4)


class TestRowMajorLayout:
    def test_reshape_round_trip_preserves_flat_order(self):
        rng = Rng(4)
        for _ in range(20):
            shape = tuple(int(v) for v in rng.integers(1, 5, 3))
            x = rng.normal(shape)
            flat = x.reshape(-1)
            k = int(rng.integers(0, flat.size, None))
            idx = np.unravel_index(k, shape)
            assert flat[k] == x[idx]
            assert np.array_equal(flat.reshape(shape), x)


def _record_offset(names: list[str], index: int, shapes: list[tuple]) -> int:
    """Byte offset of tensor record ``index`` in a checkpoint: the name index
    (u32 count, then u16 length + bytes per name), then records of magic,
    version, rank, u64 extents and a float32 payload."""
    off = 4 + sum(2 + len(n) for n in names)
    for shape in shapes[:index]:
        off += 12 + 8 * len(shape) + 4 * int(np.prod(shape))
    return off


class TestTensorIO:
    def test_round_trip_f32_payload(self, tmp_path):
        x = Rng(8).normal((3, 4, 5))
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"t": x})
        back = load_checkpoint(path)["t"]
        assert back.shape == (3, 4, 5)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x.astype(np.float32).astype(np.float64))

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.ckpt"
        save_checkpoint(path, {"t": np.ones(2)})
        blob = bytearray(path.read_bytes())
        at = _record_offset(["t"], 0, [(2,)])
        blob[at : at + 4] = b"XXXX"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="bad tensor magic") as err:
            load_checkpoint(path)
        assert err.value.offset == at == 7
        assert str(err.value) == f"{path}: bad tensor magic (byte offset 7)"

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.ckpt"
        save_checkpoint(path, {"t": np.ones((2, 2))})
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError, match="truncated payload") as err:
            load_checkpoint(path)
        # the payload starts after the 7-byte name index and the 28-byte record header
        assert err.value.offset == 7 + 28

    def test_checkpoint_round_trip_preserves_names_and_order(self, tmp_path):
        tensors = {"b.weight": Rng(0).normal((2, 3)), "a.bias": Rng(1).normal(4)}
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, tensors)
        back = load_checkpoint(path)
        assert list(back) == ["b.weight", "a.bias"]
        for name in tensors:
            np.testing.assert_array_equal(
                back[name], tensors[name].astype(np.float32).astype(np.float64)
            )

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_payload_rejected_at_its_offset(self, tmp_path, bad):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.ones(3), "w": np.ones((2, 3))})
        blob = bytearray(path.read_bytes())
        # element (1, 1) of w: fifth value of the second record's payload
        at = _record_offset(["a", "w"], 1, [(3,), (2, 3)]) + 12 + 2 * 8 + 4 * 4
        blob[at : at + 4] = np.float32(bad).astype("<f4").tobytes()
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="non-finite") as err:
            load_checkpoint(path)
        assert err.value.offset == at == 86

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, 1e39])
    def test_save_rejects_values_float32_cannot_hold(self, tmp_path, bad):
        w = np.ones((2, 3))
        w[1, 2] = bad
        path = tmp_path / "model.ckpt"
        with pytest.raises(NumericError, match=r"tensor w \(1, 2\)"):
            save_checkpoint(path, {"a": np.ones(3), "w": w})
        assert not path.exists()

    def test_checkpoint_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_checkpoint(path)

    def test_repeated_name_rejected_at_its_entry(self, tmp_path):
        """An index naming ``w`` twice would otherwise load the second record
        under ``w`` and drop the first without a word."""
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2), "v": np.full(2, 5.0)})
        blob = bytearray(path.read_bytes())
        at = 4 + (2 + 1) + 2  # the second name's bytes
        assert blob[at : at + 1] == b"v"
        blob[at : at + 1] = b"w"
        path.write_bytes(bytes(blob))
        with pytest.raises(FormatError, match="repeated name 'w' in name index") as err:
            load_checkpoint(path)
        assert err.value.offset == at == 9

    def test_empty_file_is_a_truncated_header_at_offset_zero(self, tmp_path):
        """``mmap`` refuses a 0-byte file; the loader reads it as an empty buffer."""
        path = tmp_path / "empty.ckpt"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="truncated checkpoint header") as err:
            load_checkpoint(path)
        assert err.value.offset == 0

    def test_failed_save_leaves_the_old_file_and_no_temporary(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.ones(3)})
        before = path.read_bytes()
        w = np.ones((2, 3))
        w[0, 1] = np.nan
        with pytest.raises(NumericError, match=r"tensor w \(0, 1\)"):
            save_checkpoint(path, {"a": np.zeros(3), "w": w})
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_save_writes_record_by_record(self, tmp_path):
        """No copy of the whole file is formed: the traced peak of a 4 MB save
        is one record's float32 copy plus the scan's fixed-size temporaries."""
        tensors = {f"t{i}": Rng(i).normal(1 << 17) for i in range(8)}
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            save_checkpoint(path, tensors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        size = path.stat().st_size
        assert size > 4 * 8 << 17
        assert peak < size / 2

    def test_load_holds_only_the_float64_output(self, tmp_path):
        """The file is mapped, not read: the traced peak is the returned
        arrays, and none of them is a view of the map."""
        tensors = {f"t{i}": Rng(i).normal((256, 512)) for i in range(8)}
        path = tmp_path / "big.ckpt"
        save_checkpoint(path, tensors)
        tracemalloc.start()
        try:
            back = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out_bytes = sum(arr.nbytes for arr in back.values())
        assert out_bytes == 8 * 8 * 256 * 512
        assert peak <= out_bytes + (256 << 10)
        for name, arr in back.items():
            assert arr.flags.owndata and arr.dtype == np.float64
            np.testing.assert_array_equal(arr, tensors[name].astype(np.float32))


class TestChunkedScan:
    """Values are checked ``_SCAN_CHUNK`` at a time; a chunk of 4 puts the
    bad values below in the first, a middle and the last (partial) chunk."""

    @pytest.mark.parametrize("first_bad", [0, 5, 13])
    def test_reader_reports_the_first_bad_value_at_its_offset(self, monkeypatch, first_bad):
        monkeypatch.setattr(tensor, "_SCAN_CHUNK", 4)
        data = np.ones(14, dtype="<f4")
        data[first_bad] = np.nan
        data[13] = np.inf
        r = BinaryReader(b"head" + data.tobytes())
        r.take(4, "head")
        with pytest.raises(FormatError, match=r"non-finite value (nan|inf) in payload") as err:
            r.array("<f4", (2, 7), "payload")
        assert err.value.offset == 4 + 4 * first_bad
        labels = np.array([0, 1, 2, 1, 0, 3, 2], dtype="<u4")
        r = BinaryReader(labels.tobytes())
        with pytest.raises(FormatError, match=r"value 3 in labels") as err:
            r.array("<u4", (7,), "labels", limit=3)
        assert err.value.offset == 4 * 5

    @pytest.mark.parametrize("first_bad", [(0, 0), (1, 2), (2, 4)])
    def test_finite_float32_names_the_first_bad_index(self, monkeypatch, first_bad):
        monkeypatch.setattr(tensor, "_SCAN_CHUNK", 4)
        x = np.ones((3, 5))
        at = np.ravel_multi_index(first_bad, x.shape)
        x.reshape(-1)[at:] = np.nan  # every later value is bad too
        x[first_bad] = 1e39
        with pytest.raises(NumericError, match=rf"x {re.escape(str(first_bad))} = 1e\+39 is not"):
            finite_float32(x, "x")
        y = np.arange(15, dtype=np.float32).reshape(3, 5)
        assert finite_float32(y, "y") is y
        assert finite_float32(y.T, "y").flags.c_contiguous
