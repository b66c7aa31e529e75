import numpy as np
import pytest

from inceptive.errors import ConfigError, DimensionError, FormatError, NumericError
from inceptive.tensor import (
    ParamStore,
    Rng,
    clip_global_norm,
    concat_features,
    glorot_uniform,
    grad_check,
    load_checkpoint,
    load_tensor,
    matmul,
    save_checkpoint,
    save_tensor,
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


class TestMatmul:
    def test_identity(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.array_equal(matmul(a, np.eye(2)), a)

    def test_hand_expansion(self):
        out = matmul(np.array([[1.0, 2.0]]), np.array([[3.0], [4.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 11.0

    def test_shape_mismatch_names_both_shapes(self):
        with pytest.raises(DimensionError, match=r"\(2, 3\).*\(4, 3\)"):
            matmul(np.zeros((2, 3)), np.zeros((4, 3)))

    def test_batched_lhs(self):
        a = Rng(0).normal((3, 2, 4))
        b = Rng(1).normal((4, 5))
        out = matmul(a, b)
        assert out.shape == (3, 2, 5)
        np.testing.assert_allclose(out[1], a[1] @ b)

    def test_against_triple_loop_oracle(self):
        rng = Rng(11)
        for _ in range(100):
            m, k, n = (int(v) for v in rng.integers(1, 9, 3))
            a = rng.normal((m, k))
            b = rng.normal((k, n))
            expect = np.zeros((m, n))
            for i in range(m):
                for j in range(n):
                    for t in range(k):
                        expect[i, j] += a[i, t] * b[t, j]
            assert np.abs(matmul(a, b) - expect).max() < 1e-9


class TestConcatFeatures:
    def test_channel_slices_are_bitwise(self):
        rng = Rng(5)
        parts = [rng.normal((2, 3, c)) for c in (1, 4, 2)]
        out = concat_features(parts)
        assert out.shape == (2, 3, 7)
        assert np.array_equal(out[..., 0:1], parts[0])
        assert np.array_equal(out[..., 1:5], parts[1])
        assert np.array_equal(out[..., 5:7], parts[2])

    def test_single_part_identity(self):
        x = Rng(1).normal((2, 2, 3))
        assert np.array_equal(concat_features([x]), x)

    def test_four_branch_widths(self):
        parts = [np.zeros((1, 5, 32)) for _ in range(4)]
        assert concat_features(parts).shape == (1, 5, 128)

    def test_index_bookkeeping(self):
        a = np.array([[[1.0], [2.0]]])
        b = np.array([[[10.0], [20.0]]])
        out = concat_features([a, b])
        assert out.tolist() == [[[1.0, 10.0], [2.0, 20.0]]]

    def test_mismatched_length_rejected(self):
        with pytest.raises(DimensionError):
            concat_features([np.zeros((1, 2, 3)), np.zeros((1, 3, 3))])

    def test_empty_list_rejected(self):
        with pytest.raises(DimensionError):
            concat_features([])


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


class TestTensorIO:
    def test_round_trip_f32_payload(self, tmp_path):
        x = Rng(8).normal((3, 4, 5))
        path = tmp_path / "t.itns"
        save_tensor(path, x)
        back = load_tensor(path)
        assert back.shape == (3, 4, 5)
        assert back.dtype == np.float64
        np.testing.assert_array_equal(back, x.astype(np.float32).astype(np.float64))

    def test_bad_magic_reports_offset(self, tmp_path):
        path = tmp_path / "bad.itns"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(FormatError, match="offset 0"):
            load_tensor(path)

    def test_truncated_payload_reports_offset(self, tmp_path):
        x = np.ones((2, 2))
        path = tmp_path / "t.itns"
        save_tensor(path, x)
        blob = path.read_bytes()
        path.write_bytes(blob[:-4])
        with pytest.raises(FormatError, match="truncated payload"):
            load_tensor(path)

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
        x = np.ones((2, 3))
        x[1, 1] = bad
        path = tmp_path / "t.itns"
        save_tensor(path, x)
        with pytest.raises(FormatError, match="non-finite") as err:
            load_tensor(path)
        # header: magic, version, rank, two extents; then element 4 of the payload
        assert err.value.offset == 4 + 8 + 2 * 8 + 4 * 4
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"a": np.ones(3), "w": x})
        blob = path.read_bytes()
        with pytest.raises(FormatError, match="non-finite") as err:
            load_checkpoint(path)
        # the bad value's bytes sit at the reported offset of the whole file
        assert not np.isfinite(np.frombuffer(blob, "<f4", 1, err.value.offset)[0])

    def test_checkpoint_trailing_garbage_rejected(self, tmp_path):
        path = tmp_path / "model.ckpt"
        save_checkpoint(path, {"w": np.ones(2)})
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(FormatError):
            load_checkpoint(path)
