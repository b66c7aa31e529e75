import json
import os

import numpy as np
import pytest

from inceptive.cli import main
from inceptive.harness import DataBundle, _pooled_rows, load_config
from inceptive.errors import ConfigError
from inceptive.tensor import Rng, load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Small synthetic dataset plus a config that trains in seconds."""
    root = tmp_path_factory.mktemp("cli")
    data_dir = root / "data"
    rc = main([
        "synth", "--task", "phrase-cue-multiclass", "--n", "120", "--seq-len", "12",
        "--vocab-size", "32", "--classes", "2", "--noise", "0.0", "--seed", "3",
        "--out", str(data_dir),
    ])
    assert rc == 0
    config = {
        "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
        "task": "multi-class", "dropout_rate": 0.1,
        "enc_layers": 1, "enc_heads": 2, "ffn_size": 8,
        "seq_len": 12, "batch_size": 16, "epochs": 2, "lr": 0.002, "weight_decay": 0.001,
        "train_path": "data/train.jsonl", "val_path": "data/val.jsonl",
        "test_path": "data/test.jsonl", "vocab_path": "data/vocab.json",
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    return root, cfg_path


class TestSynth:
    def test_outputs_exist(self, workspace):
        root, _ = workspace
        for name in ("train.jsonl", "val.jsonl", "test.jsonl", "vocab.json", "cues.jsonl"):
            assert (root / "data" / name).exists()

    def test_same_seed_same_bytes(self, tmp_path):
        args = ["synth", "--n", "50", "--seq-len", "10", "--vocab-size", "32",
                "--classes", "2", "--seed", "9"]
        assert main(args + ["--out", str(tmp_path / "a")]) == 0
        assert main(args + ["--out", str(tmp_path / "b")]) == 0
        for name in ("train.jsonl", "vocab.json"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


class TestTrain:
    def test_single_run_writes_report_checkpoint_summary(self, workspace):
        root, cfg = workspace
        out = root / "train_out"
        rc = main(["train", "--config", str(cfg), "--runs", "1", "--seed", "0",
                   "--model", "inceptive", "--variant", "full", "--out", str(out)])
        assert rc == 0
        assert (out / "run_00.json").exists()
        assert (out / "run_00.ckpt").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert summary["model"] == "inceptive"
        assert len(summary["runs"]) == 1
        report = json.loads((out / "run_00.json").read_text())
        assert len(report["epochs"]) == 2
        assert "timing" in report

    def test_reports_identical_apart_from_timing(self, workspace):
        root, cfg = workspace
        out_a, out_b = root / "det_a", root / "det_b"
        for out in (out_a, out_b):
            rc = main(["train", "--config", str(cfg), "--runs", "1", "--seed", "7",
                       "--model", "inceptive", "--out", str(out)])
            assert rc == 0
        rep_a = json.loads((out_a / "run_00.json").read_text())
        rep_b = json.loads((out_b / "run_00.json").read_text())
        for epoch in rep_a["epochs"]:
            assert 0 < epoch["grad_norm_mean"] <= epoch["grad_norm_max"]
            assert 0.0 <= epoch["clip_frac"] <= 1.0
        rep_a.pop("timing")
        rep_b.pop("timing")
        assert json.dumps(rep_a, sort_keys=True) == json.dumps(rep_b, sort_keys=True)
        assert (out_a / "run_00.ckpt").read_bytes() == (out_b / "run_00.ckpt").read_bytes()

    def test_baseline_comparator_runs(self, workspace):
        root, cfg = workspace
        out = root / "base_out"
        rc = main(["train", "--config", str(cfg), "--runs", "1", "--model", "baseline",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["model"] == "baseline"

    def test_ablation_variant_runs(self, workspace):
        root, cfg = workspace
        out = root / "abl_out"
        rc = main(["train", "--config", str(cfg), "--runs", "1", "--variant", "no_attn",
                   "--out", str(out)])
        assert rc == 0
        assert json.loads((out / "summary.json").read_text())["variant"] == "no_attn"


class TestEvalAndAttnmap:
    def test_eval_checkpoint(self, workspace):
        root, cfg = workspace
        out = root / "train_out"
        if not (out / "run_00.ckpt").exists():
            assert main(["train", "--config", str(cfg), "--runs", "1", "--out", str(out)]) == 0
        rc = main(["eval", "--config", str(cfg), "--checkpoint", str(out / "run_00.ckpt"),
                   "--out", str(root / "eval_out")])
        assert rc == 0
        payload = json.loads((root / "eval_out" / "eval.json").read_text())
        assert "accuracy" in payload["test"]

    def test_attnmap_exports_csv_heatmap_summary(self, workspace):
        root, cfg = workspace
        out = root / "train_out"
        maps = root / "maps"
        rc = main(["attnmap", "--config", str(cfg), "--checkpoint", str(out / "run_00.ckpt"),
                   "--out", str(maps), "--limit", "4"])
        assert rc == 0
        csv = (maps / "example_000.csv").read_text().strip().split("\n")
        assert csv[0] == "position,received"
        assert len(csv) == 13  # header + one row per position
        received = np.array([float(line.split(",")[1]) for line in csv[1:]])
        assert received.sum() == pytest.approx(1.0, abs=1e-9)
        assert (maps / "heatmap.pgm").read_text().startswith("P2")
        summary = json.loads((maps / "attnmap_summary.json").read_text())
        assert summary["examples"] == 4

    def test_checkpoint_config_mismatch_is_data_error(self, workspace):
        root, cfg = workspace
        out = root / "train_out"
        bad_cfg = json.loads((root / "config.json").read_text())
        bad_cfg["c"] = 3  # changes conv widths; checkpoint no longer fits
        bad_path = root / "bad_config.json"
        bad_path.write_text(json.dumps(bad_cfg))
        rc = main(["attnmap", "--config", str(bad_path), "--checkpoint", str(out / "run_00.ckpt"),
                   "--out", str(root / "bad_maps")])
        assert rc == 3

    def test_non_finite_checkpoint_is_data_error(self, workspace):
        root, cfg = workspace
        out = root / "train_out"
        if not (out / "run_00.ckpt").exists():
            assert main(["train", "--config", str(cfg), "--runs", "1", "--out", str(out)]) == 0
        tensors = load_checkpoint(out / "run_00.ckpt")
        tensors["head.attn.w_q"][0, 0, 0] = 12345.0  # marks the value's bytes
        bad = root / "nan.ckpt"
        save_checkpoint(bad, tensors)
        mark = np.float32(12345.0).tobytes()
        blob = bad.read_bytes()
        assert blob.count(mark) == 1
        bad.write_bytes(blob.replace(mark, np.float32(np.nan).tobytes()))
        maps = root / "nan_maps"
        rc = main(["attnmap", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(maps)])
        assert rc == 3
        assert not maps.exists()


    def test_attnmap_without_attention_is_config_error(self, workspace, capsys):
        root, cfg = workspace
        out = root / "abl_out"
        if not (out / "run_00.ckpt").exists():
            assert main(["train", "--config", str(cfg), "--runs", "1", "--variant", "no_attn",
                         "--out", str(out)]) == 0
        maps = root / "no_attn_maps"
        rc = main(["attnmap", "--config", str(cfg), "--variant", "no_attn",
                   "--checkpoint", str(out / "run_00.ckpt"), "--out", str(maps)])
        assert rc == 2
        assert "no_attn" in capsys.readouterr().err
        assert not maps.exists()

    def test_corrupt_checkpoint_extent_and_name_are_data_errors(self, workspace, capsys):
        root, cfg = workspace
        out = root / "train_out"
        if not (out / "run_00.ckpt").exists():
            assert main(["train", "--config", str(cfg), "--runs", "1", "--out", str(out)]) == 0
        blob = (out / "run_00.ckpt").read_bytes()
        tensors = load_checkpoint(out / "run_00.ckpt")
        names = list(tensors)
        # first record of rank >= 2: its extents become (2**40, 2**24, 1, ...),
        # whose product wraps to 0 in u64 arithmetic
        at = 4 + sum(2 + len(n) for n in names)
        for name in names:
            if tensors[name].ndim >= 2:
                break
            at += 12 + 8 * tensors[name].ndim + 4 * tensors[name].size
        extents = [2**40, 2**24] + [1] * (tensors[name].ndim - 2)
        overflow = blob[: at + 12] + np.array(extents, dtype="<u8").tobytes()
        overflow += blob[at + 12 + 8 * len(extents) :]
        bad_name = blob[:6] + b"\xff" + blob[7:]  # first byte of the first name
        for label, corrupt, offset in (("extent", overflow, at + 12 + 8 * len(extents)),
                                       ("name", bad_name, 6)):
            bad = root / f"{label}.ckpt"
            bad.write_bytes(corrupt)
            evals = root / f"{label}_eval"
            rc = main(["eval", "--config", str(cfg), "--checkpoint", str(bad), "--out", str(evals)])
            assert rc == 3
            assert f"(byte offset {offset})" in capsys.readouterr().err
            assert not evals.exists()


class TestXval:
    def test_paired_folds_and_recomputable_summary(self, workspace):
        root, cfg = workspace
        out = root / "xval_out"
        rc = main(["xval", "--config", str(cfg), "--k", "3", "--seed", "1", "--out", str(out)])
        assert rc == 0
        results = json.loads((out / "xval.json").read_text())
        assert set(results["models"]) == {"baseline", "inceptive"}
        keys = {"epoch", "train_loss", "lr", "grad_norm_mean", "grad_norm_max", "clip_frac"}
        for record in results["models"].values():
            assert len(record["folds"]) == 3
            assert record["mean"] == pytest.approx(np.mean(record["folds"]), abs=1e-12)
            assert record["std"] == pytest.approx(np.std(record["folds"]), abs=1e-12)
            assert len(record["epochs"]) == 3  # one list per fold
            for fold_epochs in record["epochs"]:
                assert [set(e) for e in fold_epochs] == [keys, keys]
                assert [e["epoch"] for e in fold_epochs] == [1, 2]


    def test_reads_only_train_and_val(self, workspace):
        """With the test split's file gone, xval writes the same bytes."""
        root, cfg = workspace
        no_test = json.loads(cfg.read_text())
        no_test["test_path"] = "data/missing.jsonl"
        cfg2 = root / "config_no_test.json"
        cfg2.write_text(json.dumps(no_test))
        outs = [root / "xval_a", root / "xval_b"]
        for config, out in zip((cfg, cfg2), outs):
            assert main(["xval", "--config", str(config), "--k", "3", "--seed", "2", "--out", str(out)]) == 0
        assert (outs[0] / "xval.json").read_bytes() == (outs[1] / "xval.json").read_bytes()

    def test_pooled_rows_equal_the_concatenated_rows(self):
        rng = Rng(5)
        bundle = DataBundle(
            (rng.normal((6, 3, 2)).astype(np.float32), np.arange(6)),
            (rng.normal((4, 3, 2)).astype(np.float32), np.arange(6, 10)),
            None,
        )
        for idx in (np.array([9, 0, 6, 5, 7]), np.arange(10)[::-1], np.array([1, 2]), np.array([8])):
            for got, part in zip(_pooled_rows(bundle, idx), zip(bundle.train, bundle.val)):
                want = np.concatenate(part)[idx]
                assert got.dtype == want.dtype and np.array_equal(got, want)


class TestStats:
    def test_all_wins_fixture(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(str(63.0 + i * 0.1) for i in range(10)))
        b.write_text("\n".join(str(72.0 + i * 0.1) for i in range(10)))
        assert main(["stats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "p = 0.001953125" in out
        assert "gain = +" in out

    def test_gain_formatting_matches_hand_value(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(["63.50"] * 10))
        b.write_text("\n".join(["72.34"] * 10))
        assert main(["stats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "gain = +13.92%" in out
        assert "p = 0.001953125" in out

    def test_identical_lists_degenerate_error(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        a.write_text("1.0\n2.0\n")
        rc = main(["stats", str(a), str(a)])
        assert rc == 3
        assert "data error" in capsys.readouterr().err

    @pytest.mark.parametrize("bad", [b"nan", b"inf", b"-inf", b"2\xff"])
    def test_non_finite_or_non_utf8_score_names_its_line(self, tmp_path, capsys, bad):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_bytes(b"score\n1.0\n" + bad + b"\n3.0\n")
        b.write_text("score\n2.0\n3.0\n4.0\n")
        assert main(["stats", str(a), str(b)]) == 3
        assert "a.csv:3: not a" in capsys.readouterr().err

    def test_zero_first_mean_leaves_gain_undefined(self, tmp_path, capsys):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("\n".join(["-1.0", "1.0"] * 5))
        b.write_text("\n".join(str(2.0 + i) for i in range(10)))
        assert main(["stats", str(a), str(b)]) == 0
        out = capsys.readouterr().out
        assert "gain = undefined" in out
        assert "W = " in out and "p = 0.001953125" in out

    def test_length_mismatch_rejected(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text("1.0\n2.0\n")
        b.write_text("1.0\n")
        assert main(["stats", str(a), str(b)]) == 3


class TestEmbeddingsMode:
    def test_frozen_embeddings_route_to_the_head(self, tmp_path):
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        rng = Rng(31)
        d = 12
        for name, n in (("train", 64), ("val", 16), ("test", 16)):
            h = rng.child(name).normal((n, 6, d))
            labels = (h[:, :, 0].mean(axis=1) > 0).astype(int)
            save_embeddings(tmp_path / f"{name}.iemb", h, labels, n_classes=2)
        config = {
            "d": d, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
            "task": "multi-class", "dropout_rate": 0.0,
            "seq_len": 6, "batch_size": 16, "epochs": 2, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        rc = main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(out)])
        assert rc == 0
        report = json.loads((out / "run_00.json").read_text())
        assert "accuracy" in report["test"]

        # eval and attnmap read only the test split
        (tmp_path / "train.iemb").unlink()
        (tmp_path / "val.iemb").unlink()
        ckpt = str(out / "run_00.ckpt")
        assert main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt, "--out", str(out)]) == 0
        assert "accuracy" in json.loads((out / "eval.json").read_text())["test"]
        assert main(["attnmap", "--config", str(cfg_path), "--checkpoint", ckpt,
                     "--out", str(tmp_path / "maps")]) == 0

    def test_embedding_width_must_match_config(self, tmp_path):
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        for name in ("train", "val", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", Rng(0).normal((4, 3, 5)),
                            np.array([0, 1, 0, 1]), n_classes=2)
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
            "seq_len": 3, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--runs", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 3

    @pytest.mark.parametrize("key,value", [("d", 0), ("n_classes", 1)])
    def test_bad_model_value_exits_2_before_reading_a_split(self, tmp_path, capsys, key, value):
        """The model config is checked before the embedding files, which
        would otherwise refuse it as a data error first."""
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        for name in ("train", "val", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", Rng(7).child(name).normal((8, 3, 8)),
                            np.arange(8) % 4, n_classes=4)
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 4,
            "seq_len": 3, "batch_size": 4, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb", key: value,
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(out)]) == 2
        assert "config error:" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_must_fit_the_configured_label_space(self, tmp_path, capsys):
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        rng = Rng(5)
        for name in ("train", "val", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", rng.child(name).normal((8, 3, 8)),
                            np.arange(8) % 4, n_classes=4)
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 4,
            "seq_len": 3, "batch_size": 4, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(out)]) == 0
        ckpt = str(out / "run_00.ckpt")
        test_file = tmp_path / "test.iemb"
        blob = test_file.read_bytes()
        labels_at = 4 + 21
        nines = np.array([0, 1, 2, 3, 9, 9, 9, 9], dtype="<u4").tobytes()
        for case, where in (("labels", labels_at + 16), ("C=2", 21)):
            if case == "labels":  # patched in, since the writer refuses them
                test_file.write_bytes(blob[:labels_at] + nines + blob[labels_at + 32 :])
            else:
                save_embeddings(test_file, np.ones((8, 3, 8)), np.arange(8) % 2, n_classes=2)
            evals = tmp_path / "eval_out"
            rc = main(["eval", "--config", str(cfg_path), "--checkpoint", ckpt, "--out", str(evals)])
            assert rc == 3
            assert f"(byte offset {where})" in capsys.readouterr().err
            assert not evals.exists()

    def test_a_bad_split_is_named(self, tmp_path, capsys):
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        for name in ("train", "val", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", Rng(6).child(name).normal((8, 3, 8)),
                            np.arange(8) % 4, n_classes=4)
        val = tmp_path / "val.iemb"
        blob = val.read_bytes()
        at = 4 + 21 + 4 * 2  # the third class index
        val.write_bytes(blob[:at] + np.uint32(9).tobytes() + blob[at + 4 :])
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 4,
            "seq_len": 3, "batch_size": 4, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")])
        assert rc == 3
        err = capsys.readouterr().err
        assert f"{val}: out-of-range (limit 4) value 9 in class-index labels (byte offset {at})" in err

    def test_width_mismatch_is_named_before_the_payload_scan(self, tmp_path, capsys):
        """A split of the wrong width is refused at its header's d field,
        even when its payload also holds a NaN the scan would report."""
        from inceptive.encoder import save_embeddings
        from inceptive.tensor import Rng

        for name in ("train", "val", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", Rng(8).child(name).normal((4, 3, 5)),
                            np.array([0, 1, 0, 1]), n_classes=2)
        train = tmp_path / "train.iemb"
        blob = train.read_bytes()
        at = 4 + 21 + 4 * 4 + 4 * 7  # hidden state (0, 1, 2)
        train.write_bytes(blob[:at] + np.float32(np.nan).tobytes() + blob[at + 4 :])
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
            "seq_len": 3, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert f"data error: {train}: embedding width 5 vs configured d=8 (byte offset 16)" in err
        assert not out.exists()

    def test_zero_byte_split_is_a_data_error_naming_it(self, tmp_path, capsys):
        from inceptive.encoder import save_embeddings

        for name in ("train", "test"):
            save_embeddings(tmp_path / f"{name}.iemb", np.ones((4, 3, 8)), np.array([0, 1, 0, 1]),
                            n_classes=2)
        val = tmp_path / "val.iemb"
        val.write_bytes(b"")
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
            "seq_len": 3, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--runs", "1", "--out", str(tmp_path / "out")])
        assert rc == 3
        assert f"data error: {val}: bad embedding-file magic (byte offset 0)" in capsys.readouterr().err

    def test_empty_split_is_data_error(self, tmp_path, capsys):
        from inceptive.encoder import save_embeddings

        save_embeddings(tmp_path / "full.iemb", np.ones((4, 3, 8)), np.array([0, 1, 0, 1]),
                        n_classes=2)
        blob = (tmp_path / "full.iemb").read_bytes()
        (tmp_path / "train.iemb").write_bytes(blob[:8] + bytes(4) + blob[12:25])  # B = 0
        for name in ("val", "test"):
            (tmp_path / f"{name}.iemb").write_bytes(blob)
        config = {
            "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
            "seq_len": 3, "epochs": 1, "lr": 0.01,
            "train_embeddings": "train.iemb", "val_embeddings": "val.iemb",
            "test_embeddings": "test.iemb",
        }
        cfg_path = tmp_path / "config.json"
        cfg_path.write_text(json.dumps(config))
        rc = main(["train", "--config", str(cfg_path), "--runs", "1",
                   "--out", str(tmp_path / "out")])
        assert rc == 3
        assert "(byte offset 8)" in capsys.readouterr().err


class TestExitCodes:
    @pytest.mark.parametrize("key,value", [
        ("d", "8"), ("d", 8.0), ("d", True), ("epochs", 1.5), ("lr", "x"), ("lr", float("nan")),
        ("dropout_rate", None), ("train_path", 3), ("batch_size", 0), ("weight_decay", -1),
        ("lr_min", 1.0), ("enc_heads", 0), ("enc_layers", -1), ("ffn_size", 0),
        ("seq_len", -1), ("seq_len", 0), ("max_grad_norm", 0.0), ("n_classes", 1),
        ("task", "multi-cl\xe9ss"),  # written as Latin-1 below: the file is not UTF-8
    ])
    def test_bad_config_value_exits_2(self, workspace, capsys, key, value):
        root, cfg_path = workspace
        cfg = json.loads(cfg_path.read_text())
        cfg[key] = value
        bad = root / "bad_value.json"
        bad.write_bytes(json.dumps(cfg, ensure_ascii=False).encode("latin-1"))
        rc = main(["train", "--config", str(bad), "--runs", "1", "--out", str(root / "bad_value")])
        assert rc == 2
        assert "config error" in capsys.readouterr().err

    @pytest.mark.parametrize("args", [
        ["train", "--runs", "0"],
        ["train", "--runs", "1", "--seed", "-1"],
        ["xval", "--seed", "-1"],
        ["xval", "--k", "1"],
        ["xval", "--k", "0"],
        ["attnmap", "--limit", "0"],
        ["attnmap", "--limit", "-2"],
        ["synth", "--seed", "-1"],
    ], ids=lambda args: "_".join(a.removeprefix("--") for a in args))
    def test_out_of_range_argument_exits_2(self, workspace, capsys, args):
        """Refused before any output is written."""
        root, cfg = workspace
        out = root / "bad_argument"
        if args[0] == "attnmap":
            args = [*args, "--checkpoint", str(root / "missing.ckpt")]
        if args[0] != "synth":
            args = [*args, "--config", str(cfg)]
        assert main([*args, "--out", str(out)]) == 2
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below_file"])
    @pytest.mark.parametrize("command", ["synth", "train", "xval", "eval", "attnmap"])
    def test_out_naming_a_file_exits_2(self, workspace, capsys, command, below):
        """Refused before any work: the checkpoint named here does not exist,
        and the file at (or above) ``--out`` is left as it was."""
        root, cfg = workspace
        target = root / f"taken_{command}_{below}"
        target.write_bytes(b"not a directory\n")
        args = [command, "--out", str(target / "sub" if below else target)]
        if command != "synth":
            args += ["--config", str(cfg)]
        if command in ("eval", "attnmap"):
            args += ["--checkpoint", str(root / "missing.ckpt")]
        assert main(args) == 2
        assert "config error" in capsys.readouterr().err
        assert target.read_bytes() == b"not a directory\n"

    @pytest.mark.parametrize("command", ["eval", "attnmap"])
    def test_seed_is_refused_where_nothing_is_drawn(self, workspace, capsys, command):
        root, cfg = workspace
        with pytest.raises(SystemExit) as exc:
            main([command, "--config", str(cfg), "--checkpoint", str(root / "missing.ckpt"),
                  "--seed", "1", "--out", str(root / "seeded")])
        assert exc.value.code == 2
        assert "--seed" in capsys.readouterr().err
        assert not (root / "seeded").exists()

    def test_unknown_config_key_exits_2(self, workspace, capsys):
        root, _ = workspace
        bad = root / "typo.json"
        bad.write_text(json.dumps({"dd": 8, "train_path": "x", "val_path": "x",
                                   "test_path": "x", "vocab_path": "x"}))
        rc = main(["train", "--config", str(bad), "--runs", "1", "--out", str(root / "x")])
        assert rc == 2
        assert "unknown config key: dd" in capsys.readouterr().err

    def test_missing_dataset_exits_3(self, workspace):
        root, _ = workspace
        cfg = json.loads((root / "config.json").read_text())
        cfg["train_path"] = "data/missing.jsonl"
        path = root / "missing.json"
        path.write_text(json.dumps(cfg))
        assert main(["train", "--config", path.as_posix(), "--runs", "1",
                     "--out", str(root / "y")]) == 3

    def test_config_paths_resolve_relative_to_config_file(self, workspace):
        root, cfg_path = workspace
        settings = load_config(cfg_path)
        assert settings.paths["train_path"] == os.path.join(str(root), "data/train.jsonl")

    def test_missing_path_group_rejected(self, tmp_path):
        path = tmp_path / "c.json"
        path.write_text(json.dumps({"d": 8, "c": 2}))
        with pytest.raises(ConfigError):
            load_config(path)
