import os
import struct
import tracemalloc

import numpy as np
import pytest

from inceptive.encoder import (
    EncoderConfig,
    embed,
    encode,
    encode_forward,
    encode_backward,
    embed_backward,
    init_encoder_params,
    load_embeddings,
    save_embeddings,
)
from inceptive.errors import (
    ConfigError,
    DimensionError,
    FormatError,
    LabelError,
    NumericError,
    VocabularyError,
)
from inceptive.tensor import Rng, grad_check


@pytest.fixture
def small_cfg():
    return EncoderConfig(vocab_size=11, d=8, n_layers=1, n_heads=2, ffn_size=12, max_len=6)


class TestConfig:
    def test_heads_must_divide_hidden(self):
        with pytest.raises(ConfigError):
            EncoderConfig(vocab_size=10, d=10, n_heads=3)


class TestEmbed:
    def test_zero_tables_give_zero_output(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(0))
        store.value("encoder.tok_embed")[...] = 0.0
        store.value("encoder.pos_embed")[...] = 0.0
        out = embed(small_cfg, store, np.zeros((2, 4), dtype=int))
        assert not out.any()

    def test_repeated_token_differs_only_by_position(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(1))
        ids = np.full((1, 4), 5)
        out = embed(small_cfg, store, ids)
        pos = store.value("encoder.pos_embed")[:4]
        rows = out[0] - pos
        for i in range(1, 4):
            np.testing.assert_allclose(rows[i], rows[0])

    def test_batch_shape_at_full_width(self):
        cfg = EncoderConfig(vocab_size=50, d=768, n_layers=0, n_heads=2, max_len=128)
        store = init_encoder_params(cfg, Rng(2))
        out = embed(cfg, store, np.zeros((32, 128), dtype=int))
        assert out.shape == (32, 128, 768)

    def test_out_of_vocabulary_id_rejected(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(3))
        ids = np.zeros((1, 3), dtype=int)
        ids[0, 1] = 11
        with pytest.raises(VocabularyError, match="11"):
            embed(small_cfg, store, ids)

    def test_backward_scatters_into_tables(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(4))
        ids = np.array([[1, 1, 2]])
        dx = np.ones((1, 3, 8))
        embed_backward(small_cfg, store, ids, dx)
        dtok = store.grad("encoder.tok_embed")
        np.testing.assert_allclose(dtok[1], 2.0)  # id 1 appears twice
        np.testing.assert_allclose(dtok[2], 1.0)
        assert not dtok[3:].any()


class TestEncode:
    def test_zero_layers_is_identity(self):
        cfg = EncoderConfig(vocab_size=5, d=4, n_layers=0, n_heads=2, max_len=4)
        store = init_encoder_params(cfg, Rng(0))
        x = Rng(1).normal((2, 3, 4))
        assert np.array_equal(encode(cfg, store, x), x)

    def test_output_shape_for_any_depth(self):
        for n_layers in (0, 1, 3):
            cfg = EncoderConfig(vocab_size=5, d=8, n_layers=n_layers, n_heads=2, ffn_size=8, max_len=4)
            store = init_encoder_params(cfg, Rng(0))
            out = encode(cfg, store, Rng(1).normal((2, 4, 8)))
            assert out.shape == (2, 4, 8)

    def test_single_token_attention_weight_is_one(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(5))
        _, cache = encode_forward(small_cfg, store, Rng(6).normal((2, 1, 8)))
        np.testing.assert_allclose(cache.last_attention_weights, 1.0)

    def test_deterministic(self, small_cfg):
        store = init_encoder_params(small_cfg, Rng(7))
        x = Rng(8).normal((2, 4, 8))
        assert np.array_equal(encode(small_cfg, store, x), encode(small_cfg, store, x))

    def test_backward_matches_finite_differences(self, small_cfg):
        rng = Rng(9)
        store = init_encoder_params(small_cfg, rng.child("params"))
        x = rng.child("x").normal((2, 4, 8))
        proj = rng.child("proj").normal((2, 4, 8))

        def f(params):
            return float((encode(small_cfg, params, x) * proj).sum())

        h, cache = encode_forward(small_cfg, store, x)
        store.zero_grads()
        encode_backward(small_cfg, store, cache, proj)
        assert grad_check(f, store, 1e-5) < 1e-4


class TestEmbeddingFile:
    def test_round_trip_class_labels(self, tmp_path):
        h = Rng(0).normal((2, 4, 3))
        labels = np.array([1, 0])
        path = tmp_path / "e.iemb"
        save_embeddings(path, h, labels, n_classes=2)
        h2, labels2 = load_embeddings(path)
        np.testing.assert_array_equal(h2, h.astype(np.float32).astype(np.float64))
        np.testing.assert_array_equal(labels2, labels)

    def test_payload_is_the_files_float32_read_only(self, tmp_path):
        """The hidden states come back as the float32 values on disk, not a
        float64 copy; the head widens them where it reads them."""
        path = tmp_path / "e.iemb"
        for labels in (np.array([1, 0]), np.array([[1, 0, 1], [0, 1, 1]])):
            h = Rng(2).normal((2, 5, 3))
            save_embeddings(path, h, labels, n_classes=2 if labels.ndim == 1 else 3)
            h2, _ = load_embeddings(path)
            assert h2.dtype == np.float32 and not h2.flags.writeable
            assert h2.tobytes() == h.astype("<f4").tobytes()

    def test_save_copies_no_float32_payload(self, tmp_path):
        """The traced peak of saving float32 states stays under half their
        size, and the file holds the layout's bytes in order."""
        h = Rng(3).normal((8, 64, 512)).astype(np.float32)
        labels = np.arange(8) % 3
        path = tmp_path / "e.iemb"
        tracemalloc.start()
        try:
            save_embeddings(path, h, labels, n_classes=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= h.nbytes // 2
        header = b"IEMB" + struct.pack("<IIIIBI", 1, 8, 64, 512, 0, 3)
        assert path.read_bytes() == header + labels.astype("<u4").tobytes() + h.astype("<f4").tobytes()

    def test_save_scan_peak_is_bounded(self, tmp_path):
        """The finiteness check runs in fixed-size chunks, so saving 8.4 MB of
        float32 states peaks under 512 KB traced, and the bytes are the
        layout's in order."""
        h = Rng(4).normal((32, 128, 512)).astype(np.float32)
        labels = np.arange(32) % 3
        path = tmp_path / "e.iemb"
        tracemalloc.start()
        try:
            save_embeddings(path, h, labels, n_classes=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024
        header = b"IEMB" + struct.pack("<IIIIBI", 1, 32, 128, 512, 0, 3)
        assert path.read_bytes() == header + labels.astype("<u4").tobytes() + h.tobytes()

    def test_dataset_scale_payload_is_mapped(self, tmp_path):
        """A 64 MB file loads with a traced peak under 4 MB: the payload is a
        read-only float32 view of the file, byte-equal to what was saved."""
        h = np.arange(2**24, dtype=np.float32).reshape(128, 128, 1024)
        path = tmp_path / "big.iemb"
        save_embeddings(path, h, np.arange(128) % 4, n_classes=4)
        assert path.stat().st_size >= 64 * 2**20
        tracemalloc.start()
        try:
            h2, labels = load_embeddings(path, n_classes=4, d=1024)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20
        assert h2.dtype == np.float32 and not h2.flags.writeable and h2.shape == h.shape
        assert np.array_equal(h2.view("<u4"), h.view("<u4"))
        assert labels.tolist() == (np.arange(128) % 4).tolist()

    def test_rewrite_replaces_the_file_under_loaded_arrays(self, tmp_path):
        """The writer renames a sibling file over the target, so an array
        mapped from the old file keeps its values, and no temporary remains."""
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        h, _ = load_embeddings(path)
        save_embeddings(path, np.full((2, 4, 3), 7.0), np.array([1, 0]), n_classes=2)
        assert (h == 1.0).all()
        h2, labels2 = load_embeddings(path)
        assert (h2 == 7.0).all() and labels2.tolist() == [1, 0]
        assert os.listdir(tmp_path) == ["e.iemb"]
        (tmp_path / "dir.iemb").mkdir()
        with pytest.raises(IsADirectoryError):  # the rename fails; its temporary is removed
            save_embeddings(tmp_path / "dir.iemb", np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        assert sorted(os.listdir(tmp_path)) == ["dir.iemb", "e.iemb"]

    def test_empty_file_is_a_bad_magic_at_offset_zero(self, tmp_path):
        """``mmap`` refuses a 0-byte file; the loader reads it as an empty buffer."""
        path = tmp_path / "e.iemb"
        path.write_bytes(b"")
        with pytest.raises(FormatError, match="bad embedding-file magic") as err:
            load_embeddings(path)
        assert err.value.offset == 0

    def test_width_checked_against_d_before_the_payload(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        assert load_embeddings(path, d=3)[0].shape == (2, 4, 3)
        blob = path.read_bytes()
        at = 4 + 21 + 4 * 2 + 4 * 5  # hidden state (0, 1, 2)
        path.write_bytes(blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4 :])
        with pytest.raises(FormatError, match="embedding width 3 vs configured d=8") as err:
            load_embeddings(path, n_classes=2, d=8)
        assert err.value.offset == 16
        with pytest.raises(FormatError, match="non-finite") as err:
            load_embeddings(path, n_classes=2, d=3)
        assert err.value.offset == at

    def test_round_trip_multilabel(self, tmp_path):
        h = Rng(1).normal((3, 2, 4))
        labels = np.array([[1, 0, 1], [0, 0, 1], [1, 1, 0]], dtype=float)
        path = tmp_path / "e.iemb"
        save_embeddings(path, h, labels, n_classes=3)
        h2, labels2 = load_embeddings(path)
        assert h2.shape == (3, 2, 4)
        np.testing.assert_array_equal(labels2, labels)

    def test_truncated_payload_detected(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 4])  # drop one float: 23 of 24 remain
        with pytest.raises(FormatError, match="truncated payload"):
            load_embeddings(path)

    def test_bad_magic_reports_offset_zero(self, tmp_path):
        path = tmp_path / "e.iemb"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(FormatError, match="offset 0"):
            load_embeddings(path)

    def test_save_rejects_values_float32_cannot_hold(self, tmp_path):
        path = tmp_path / "e.iemb"
        for bad in (np.nan, np.inf, -np.inf, 1e300, -1e39):
            h = np.ones((2, 3, 4))
            h[1, 2, 0] = bad
            with pytest.raises(NumericError, match=r"\(1, 2, 0\)"):
                save_embeddings(path, h, np.array([0, 1]), n_classes=2)
            assert not path.exists()
        edge = np.full((1, 1, 2), float(np.finfo(np.float32).max))
        save_embeddings(path, edge, np.array([0]), n_classes=2)
        assert np.isfinite(load_embeddings(path)[0]).all()

    def test_load_rejects_non_finite_payload_at_its_offset(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        blob = path.read_bytes()
        payload_at = 4 + 21 + 4 * 2  # magic, header, two class indices
        at = payload_at + 4 * 17  # hidden state (1, 1, 2)
        for bad in (np.nan, np.inf, -np.inf):
            path.write_bytes(blob[:at] + np.float32(bad).tobytes() + blob[at + 4 :])
            with pytest.raises(FormatError, match=f"offset {at}\\)"):
                load_embeddings(path)

    def test_wide_hidden_states_accepted(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.zeros((1, 2, 768)), np.array([0]), n_classes=2)
        h, _ = load_embeddings(path)
        assert h.shape == (1, 2, 768)

    def test_labels_outside_the_label_space_rejected_at_their_offset(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((4, 2, 3)), np.array([0, 1, 2, 3]), n_classes=4)
        blob = path.read_bytes()
        labels_at = 4 + 21
        at = labels_at + 4 * 2  # the class index 2 of [0, 1, 2, 3]
        for label in (4, 9, 2**32 - 1):
            path.write_bytes(blob[:at] + np.uint32(label).tobytes() + blob[at + 4 :])
            with pytest.raises(FormatError, match=f"value {label} in class-index labels") as err:
                load_embeddings(path)
            assert err.value.offset == at
        multi = np.array([[1, 0, 1], [0, 1, 1]])
        save_embeddings(path, np.ones((2, 2, 3)), multi, n_classes=3)
        blob = path.read_bytes()
        at = labels_at + 3 * 1 + 2  # row 1, label 2
        for byte in (2, 255):
            path.write_bytes(blob[:at] + bytes([byte]) + blob[at + 1 :])
            with pytest.raises(FormatError, match="multi-label rows") as err:
                load_embeddings(path)
            assert err.value.offset == at

    @pytest.mark.parametrize("field", [8, 12, 16])  # B, L, d
    def test_zero_extent_rejected_at_its_header_field(self, tmp_path, field):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        blob = path.read_bytes()
        path.write_bytes(blob[:field] + bytes(4) + blob[field + 4 :])
        with pytest.raises(FormatError, match="is 0") as err:
            load_embeddings(path)
        assert err.value.offset == field

    def test_label_space_checked_against_n_classes(self, tmp_path):
        path = tmp_path / "e.iemb"
        save_embeddings(path, np.ones((2, 4, 3)), np.array([0, 1]), n_classes=2)
        assert load_embeddings(path, n_classes=2)[1].tolist() == [0, 1]
        with pytest.raises(FormatError, match="C=2") as err:
            load_embeddings(path, n_classes=4)
        assert err.value.offset == 21

    def test_save_refuses_fractional_labels(self, tmp_path):
        """Writing the labels as integers would truncate 0.7 to 0 and 1.9 to 1."""
        path = tmp_path / "e.iemb"
        for labels in ([0.7, 1.9], [1.0, 0.5], [[0.5, 1.0], [1.0, 0.0]], [[1.0, 0.0], [0.0, 0.2]]):
            with pytest.raises(LabelError, match="integers"):
                save_embeddings(path, np.ones((2, 4, 3)), np.array(labels), n_classes=2)
        assert not path.exists()
        save_embeddings(path, np.ones((2, 4, 3)), np.array([1.0, 0.0]), n_classes=2)
        assert load_embeddings(path)[1].tolist() == [1, 0]

    def test_format_errors_name_the_file(self, tmp_path):
        path = tmp_path / "val.iemb"
        path.write_bytes(b"NOPE" + b"\x00" * 30)
        with pytest.raises(FormatError) as err:
            load_embeddings(path)
        assert str(err.value) == f"{path}: bad embedding-file magic (byte offset 0)"
        assert err.value.offset == 0

    def test_save_refuses_zero_extents_and_labels_outside_the_label_space(self, tmp_path):
        path = tmp_path / "e.iemb"
        for shape in ((0, 4, 3), (2, 0, 3), (2, 4, 0)):
            with pytest.raises(DimensionError):
                save_embeddings(path, np.ones(shape), np.zeros(shape[0], dtype=int), n_classes=2)
        for labels in ([0, 2], [-1, 0], [[0, 2], [1, 0]]):
            with pytest.raises(LabelError):
                save_embeddings(path, np.ones((2, 4, 3)), np.array(labels), n_classes=2)
        assert not path.exists()
