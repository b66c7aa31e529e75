import numpy as np
import pytest

from inceptive.errors import ConfigError, DimensionError, FormatError, NumericError
from inceptive.tensor import (
    ParamStore,
    Rng,
    clip_global_norm,
    glorot_uniform,
    grad_check,
    load_checkpoint,
    save_checkpoint,
)


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
