import numpy as np
import pytest

from inceptive.data import (
    CLS_ID,
    PAD_ID,
    UNK_ID,
    SyntheticSpec,
    build_vocab,
    encode_batch,
    generate_synthetic,
    load_dataset,
    load_jsonl,
    load_vocab,
    save_jsonl,
    save_vocab,
    split_records,
    tokenize,
)
from inceptive.errors import ConfigError, InputError


class TestVocab:
    def test_frequency_order_after_reserved(self):
        records = [{"text": "b b b a a c"}]
        vocab = build_vocab(records)
        assert vocab["<pad>"] == PAD_ID
        assert vocab["<unk>"] == UNK_ID
        assert vocab["<cls>"] == CLS_ID
        assert vocab["b"] == 3
        assert vocab["a"] == 4
        assert vocab["c"] == 5

    def test_round_trip(self, tmp_path):
        vocab = build_vocab([{"text": "x y x"}])
        path = tmp_path / "vocab.json"
        save_vocab(path, vocab)
        assert load_vocab(path) == vocab


class TestDatasetFiles:
    def test_jsonl_round_trip_identity(self, tmp_path):
        records = [{"text": "a b", "label": 1}, {"text": "c", "label": 0}]
        path = tmp_path / "d.jsonl"
        save_jsonl(path, records)
        once = load_jsonl(path)
        save_jsonl(path, once)
        assert load_jsonl(path) == once == records

    def test_label_range_validated(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_jsonl(path, [{"text": "a", "label": 5}])
        with pytest.raises(InputError, match=":1"):
            load_dataset(path, n_classes=3, multilabel=False)

    def test_multilabel_sorted_unique_validated(self, tmp_path):
        path = tmp_path / "d.jsonl"
        save_jsonl(path, [{"text": "a", "labels": [2, 1]}])
        with pytest.raises(InputError, match="sorted"):
            load_dataset(path, n_classes=3, multilabel=True)

    def test_bad_json_names_line(self, tmp_path):
        path = tmp_path / "d.jsonl"
        path.write_text('{"text": "a", "label": 0}\nnot json\n')
        with pytest.raises(InputError, match=":2"):
            load_jsonl(path)

    @pytest.mark.parametrize("line,multilabel,match", [
        (b'["a", 0]', False, "JSON object"),
        (b'{"text": 5, "label": 0}', False, "string text"),
        (b'{"text": "a", "label": true}', False, "label must be an int"),
        (b'{"text": "a", "labels": [true]}', True, "int labels"),
        (b'{"text": "a", "labels": [0.5]}', True, "int labels"),
        (b'{"text": "caf\xe9", "label": 0}', False, "UTF-8"),
    ])
    def test_bad_record_names_its_line(self, tmp_path, line, multilabel, match):
        path = tmp_path / "d.jsonl"
        path.write_bytes(b'{"text": "a", "label": 0, "labels": [0]}\n\n' + line + b"\n")
        with pytest.raises(InputError, match=f"d.jsonl:3: .*{match}"):
            load_dataset(path, n_classes=3, multilabel=multilabel)

    @pytest.mark.parametrize("content", [
        b'{"<pad>": 0, "<unk>": "x"}',
        b'{"<pad>": 0, "<unk>": -5}',
        b'{"<pad>": 0, "<unk>": 99999999999}',
        b'{"<pad>": 0, "<unk>": 0}',
        b'{"<pad>": 0, "<unk>": true}',
        b'{"<pad>": 0, "<unk>": 1.0}',
        b"{}",
        b'["<pad>"]',
        b'{"caf\xe9": 0}',
    ])
    def test_vocab_ids_must_be_0_to_n_minus_1(self, tmp_path, content):
        path = tmp_path / "vocab.json"
        path.write_bytes(content)
        with pytest.raises(InputError, match="vocab"):
            load_vocab(path)


class TestEncodeBatch:
    def test_cls_prefix_padding_and_unknowns(self):
        vocab = {"<pad>": 0, "<unk>": 1, "<cls>": 2, "a": 3}
        ids, targets = encode_batch(
            [{"text": "a zzz", "label": 1}], vocab, seq_len=5, n_classes=2, multilabel=False
        )
        assert ids.tolist() == [[CLS_ID, 3, UNK_ID, PAD_ID, PAD_ID]]
        assert targets.tolist() == [1]

    def test_truncation_to_seq_len(self):
        vocab = {"<pad>": 0, "<unk>": 1, "<cls>": 2, "a": 3}
        ids, _ = encode_batch(
            [{"text": "a a a a a a", "label": 0}], vocab, seq_len=4, n_classes=1 + 1, multilabel=False
        )
        assert ids.shape == (1, 4)
        assert ids.tolist() == [[CLS_ID, 3, 3, 3]]

    def test_multilabel_binary_matrix(self):
        vocab = {"<pad>": 0, "<unk>": 1, "<cls>": 2}
        _, targets = encode_batch(
            [{"text": "x", "labels": [0, 2]}], vocab, seq_len=3, n_classes=4, multilabel=True
        )
        assert targets.tolist() == [[1.0, 0.0, 1.0, 0.0]]


class TestSyntheticPhraseCue:
    def test_same_seed_identical_bytes(self, tmp_path):
        spec = SyntheticSpec(n_examples=50, seq_len=16, vocab_size=32, n_classes=4, seed=3)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        save_jsonl(pa, a.records)
        save_jsonl(pb, b.records)
        assert pa.read_bytes() == pb.read_bytes()

    def test_noiseless_examples_contain_exactly_their_cue(self):
        spec = SyntheticSpec(n_examples=100, seq_len=16, vocab_size=32, n_classes=2,
                             noise_rate=0.0, seed=5)
        data = generate_synthetic(spec)
        cue_tokens = [set(c) for c in data.cue_phrases]
        for rec, log in zip(data.records, data.cues):
            toks = tokenize(rec["text"])
            label = rec["label"]
            phrase = data.cue_phrases[label]
            pos = log["position"]
            assert toks[pos : pos + len(phrase)] == phrase
            other = cue_tokens[1 - label]
            assert not other & set(toks)  # no stray cue tokens when noiseless

    def test_cue_lengths_cycle_kernel_widths(self):
        spec = SyntheticSpec(n_examples=1, seq_len=16, vocab_size=40, n_classes=4, seed=0)
        assert [len(c) for c in generate_synthetic(spec).cue_phrases] == [2, 3, 5, 7]

    def test_vocab_too_small_rejected(self):
        spec = SyntheticSpec(n_examples=1, seq_len=16, vocab_size=17, n_classes=4, seed=0)
        with pytest.raises(ConfigError, match="disjoint cue"):
            generate_synthetic(spec)

    def test_text_length_leaves_room_for_aggregation_slot(self):
        spec = SyntheticSpec(n_examples=10, seq_len=12, vocab_size=32, n_classes=2, seed=1)
        for rec in generate_synthetic(spec).records:
            assert len(tokenize(rec["text"])) == 11


class TestSyntheticMultilabel:
    def test_label_lists_sorted_unique(self):
        spec = SyntheticSpec(task="dispersed-multilabel", n_examples=200, seq_len=16,
                             vocab_size=32, n_classes=6, avg_labels_per_example=2.0, seed=7)
        for rec in generate_synthetic(spec).records:
            labels = rec["labels"]
            assert labels == sorted(set(labels))
            assert len(labels) >= 1

    def test_average_label_count_matches_spec(self):
        spec = SyntheticSpec(task="dispersed-multilabel", n_examples=10_000, seq_len=16,
                             vocab_size=64, n_classes=23, avg_labels_per_example=1.66, seed=8)
        data = generate_synthetic(spec)
        mean = np.mean([len(r["labels"]) for r in data.records])
        assert abs(mean - 1.66) / 1.66 < 0.05

    def test_each_active_label_plants_its_cue_token(self):
        spec = SyntheticSpec(task="dispersed-multilabel", n_examples=50, seq_len=16,
                             vocab_size=32, n_classes=4, noise_rate=0.0, seed=9)
        data = generate_synthetic(spec)
        for rec in data.records:
            toks = set(tokenize(rec["text"]))
            for label in rec["labels"]:
                assert data.cue_phrases[label][0] in toks


class TestSplit:
    def test_deterministic_80_10_10(self):
        records = [{"text": str(i), "label": 0} for i in range(100)]
        train, val, test = split_records(records)
        assert (len(train), len(val), len(test)) == (80, 10, 10)
        assert train[0]["text"] == "0"
        assert test[-1]["text"] == "99"

    def test_tiny_split_rejected(self):
        with pytest.raises(InputError):
            split_records([{"text": "a", "label": 0}] * 3)
