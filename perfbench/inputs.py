"""Seeded inputs for the three workloads, written through the library's own
writers before any timing starts, plus a SHA-256 fingerprint of the bytes.

* ``desk_train``: the planted phrase-cue multiclass set of the acceptance
  protocol (JSONL splits and vocabulary) and its config.
* ``paper_train`` / ``paper_eval``: frozen hidden states at paper scale in the
  ``IEMB`` embedding format, each token being Gaussian noise plus a
  class-specific direction. ``paper_eval`` also gets a checkpoint whose
  tensors are the seeded initialisation with a planted read-out: value and
  output projections pass the enriched features through, and the dense and
  classifier weights score the class directions. The checkpoint therefore
  classifies the test set without any training, so its bytes do not depend
  on the training code under test.
"""

from __future__ import annotations

import hashlib
import json
import os

import numpy as np

from inceptive.data import SyntheticSpec, generate_synthetic, save_jsonl, save_vocab, split_records
from inceptive.encoder import save_embeddings
from inceptive.harness import build_model, load_config, load_data
from inceptive.tensor import Rng, save_checkpoint

# Shapes per workload. ``tiny`` shrinks every extent for the self-test.
SHAPES = {
    "full": {
        "desk": {
            "n": 2000, "seq_len": 32, "vocab_size": 32, "classes": 4, "noise": 0.2,
            "d": 16, "c": 16, "n_heads": 2, "dense_dim": 8,
            "enc_layers": 2, "enc_heads": 2, "ffn_size": 32, "epochs": 6, "lr": 0.002,
        },
        "paper": {
            "d": 768, "seq_len": 128, "classes": 4, "c": 32, "n_heads": 8, "dense_dim": 512,
            "n_train": 96, "n_val": 32, "n_test": 64, "epochs": 2, "lr": 1e-4, "signal": 3.0,
        },
    },
    "tiny": {
        "desk": {
            "n": 400, "seq_len": 16, "vocab_size": 32, "classes": 4, "noise": 0.2,
            "d": 8, "c": 4, "n_heads": 2, "dense_dim": 8,
            "enc_layers": 1, "enc_heads": 2, "ffn_size": 16, "epochs": 3, "lr": 0.005,
        },
        "paper": {
            "d": 16, "seq_len": 8, "classes": 4, "c": 4, "n_heads": 2, "dense_dim": 8,
            "n_train": 64, "n_val": 32, "n_test": 64, "epochs": 3, "lr": 3e-3, "signal": 3.0,
        },
    },
}


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def make_desk(root: str, seed: int, shape: dict) -> str:
    """Synthetic token data like ``inceptive synth``; returns the config path."""
    spec = SyntheticSpec(
        task="phrase-cue-multiclass",
        n_examples=shape["n"],
        seq_len=shape["seq_len"],
        vocab_size=shape["vocab_size"],
        n_classes=shape["classes"],
        noise_rate=shape["noise"],
        seed=seed,
    )
    data = generate_synthetic(spec)
    train, val, test = split_records(data.records)
    save_jsonl(os.path.join(root, "train.jsonl"), train)
    save_jsonl(os.path.join(root, "val.jsonl"), val)
    save_jsonl(os.path.join(root, "test.jsonl"), test)
    save_vocab(os.path.join(root, "vocab.json"), data.vocab)
    config = {
        "d": shape["d"], "c": shape["c"], "n_heads": shape["n_heads"], "dense_dim": shape["dense_dim"],
        "n_classes": shape["classes"], "task": "multi-class", "dropout_rate": 0.1,
        "enc_layers": shape["enc_layers"], "enc_heads": shape["enc_heads"], "ffn_size": shape["ffn_size"],
        "seq_len": shape["seq_len"], "batch_size": 32, "epochs": shape["epochs"], "lr": shape["lr"],
        "weight_decay": 0.001,
        "train_path": "train.jsonl", "val_path": "val.jsonl", "test_path": "test.jsonl",
        "vocab_path": "vocab.json",
    }
    path = os.path.join(root, "config.json")
    _write_json(path, config)
    return path


def _class_directions(rng: Rng, classes: int, d: int) -> np.ndarray:
    dirs = rng.normal((classes, d))
    return dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def make_paper(root: str, seed: int, shape: dict) -> str:
    """Frozen hidden states with a planted class signal; returns the config
    path."""
    rng = Rng(seed).child("paper")
    d, length, classes = shape["d"], shape["seq_len"], shape["classes"]
    dirs = _class_directions(rng.child("directions"), classes, d)
    np.save(os.path.join(root, "directions.npy"), dirs)
    for split in ("train", "val", "test"):
        part = rng.child(split)
        n = shape[f"n_{split}"]
        labels = part.integers(0, classes, n)
        h = part.normal((n, length, d))
        h += shape["signal"] * dirs[labels][:, None, :]
        save_embeddings(os.path.join(root, f"{split}.iemb"), h, labels, classes)
    config = {
        "d": d, "c": shape["c"], "n_heads": shape["n_heads"], "dense_dim": shape["dense_dim"],
        "n_classes": classes, "task": "multi-class", "dropout_rate": 0.1,
        "seq_len": length, "batch_size": 32, "epochs": shape["epochs"], "lr": shape["lr"],
        "weight_decay": 0.001,
        "train_embeddings": "train.iemb", "val_embeddings": "val.iemb", "test_embeddings": "test.iemb",
    }
    path = os.path.join(root, "config.json")
    _write_json(path, config)
    return path


def make_checkpoint(root: str, config_path: str, seed: int) -> str:
    """Seeded initial tensors of the ``full`` head with a planted read-out
    of the class directions, saved through ``save_checkpoint``."""
    settings = load_config(config_path)
    model = build_model(settings, load_data(settings), "inceptive", "full", Rng(seed).child("checkpoint"))
    tensors = model.state_tensors()
    dirs = np.load(os.path.join(root, "directions.npy"))
    classes, d = dirs.shape
    w_v = tensors["head.attn.w_v"]
    heads, d_r, d_head = w_v.shape
    w_v[...] = 0.0
    for i in range(heads):  # head i carries enriched features [i*d_head, (i+1)*d_head)
        cols = np.arange(i * d_head, min((i + 1) * d_head, d_r))
        w_v[i, cols, cols - i * d_head] = 1.0
    w_o = tensors["head.attn.w_o"]
    w_o[...] = np.eye(heads * d_head, d_r)
    dense = tensors["head.dense.weight"]
    dense[:, :classes] = 0.0
    dense[:d, :classes] = dirs.T
    cls_w = tensors["head.classifier.weight"]
    cls_w[...] = 0.0
    cls_w[:classes, :classes] = np.eye(classes)
    path = os.path.join(root, "model.ckpt")
    save_checkpoint(path, tensors)
    return path


def fingerprint(root: str) -> str:
    """SHA-256 over every input file's relative path and bytes, in path
    order."""
    digest = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(root):
        dirnames.sort()
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, root).encode("utf-8") + b"\0")
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()


def make_inputs(workload: str, root: str, seed: int, scale: str) -> dict:
    """Write every input of ``workload`` under ``root``; returns the paths
    the workload uses and the fingerprint of the bytes."""
    os.makedirs(root, exist_ok=True)
    shapes = SHAPES[scale]
    if workload == "desk_train":
        paths = {"config": make_desk(root, seed, shapes["desk"])}
    else:
        paths = {"config": make_paper(root, seed, shapes["paper"])}
        if workload == "paper_eval":
            paths["checkpoint"] = make_checkpoint(root, paths["config"], seed)
    paths["sha256"] = fingerprint(root)
    return paths
