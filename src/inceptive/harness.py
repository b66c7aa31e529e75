"""End-to-end run orchestration behind the command-line surface: config
parsing, data loading, multi-run training with summaries, cross-validation,
attention-map export, and the paired significance helper.

The config file is a flat JSON object; unknown keys are rejected so typos
fail loudly. Paths inside the config resolve relative to the config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .data import encode_batch, load_dataset, load_vocab
from .encoder import EncoderConfig, load_embeddings
from .errors import ConfigError, DimensionError, InputError
from .head import ModelConfig, received_entropy, write_attention_csv, write_attention_pgm
from .metrics import wilcoxon_signed_rank
from .model import HeadOnlyClassifier, SequenceClassifier
from .tensor import Rng, load_checkpoint, save_checkpoint
from .training import (
    TrainConfig,
    cosine_lr,
    evaluate,
    init_adamw,
    kfold_split,
    run_training,
    selection_value,
    train_epoch,
)

__all__ = [
    "RunSettings",
    "load_config",
    "DataBundle",
    "load_data",
    "build_model",
    "run_train",
    "run_xval",
    "run_eval",
    "run_attnmap",
    "run_stats",
]

_MODEL_KEYS = {
    "d": 32,
    "c": 8,
    "n_heads": 2,
    "head_dim": None,
    "dense_dim": 64,
    "n_classes": 2,
    "task": "multi-class",
    "dropout_rate": 0.1,
}
_ENCODER_KEYS = {"enc_layers": 2, "enc_heads": 4, "ffn_size": 64}
_TRAIN_KEYS = {
    "seq_len": 128,
    "batch_size": 32,
    "epochs": 12,
    "lr": 1e-5,
    "lr_min": 0.0,
    "weight_decay": 1e-3,
    "sigmoid_threshold": 0.5,
    "max_grad_norm": 1.0,
    "selection_metric": None,
}
_PATH_KEYS = (
    "train_path",
    "val_path",
    "test_path",
    "vocab_path",
    "train_embeddings",
    "val_embeddings",
    "test_embeddings",
)


@dataclass
class RunSettings:
    model: dict
    encoder: dict
    train: TrainConfig
    paths: dict[str, str]

    @property
    def multilabel(self) -> bool:
        return self.model["task"] == "multi-label"

    @property
    def embeddings_mode(self) -> bool:
        return "train_embeddings" in self.paths

    def model_config(self, variant: str = "full") -> ModelConfig:
        return ModelConfig(variant=variant, **self.model)


def load_config(path) -> RunSettings:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    known = set(_MODEL_KEYS) | set(_ENCODER_KEYS) | set(_TRAIN_KEYS) | set(_PATH_KEYS)
    for key in raw:
        if key not in known:
            raise ConfigError(f"unknown config key: {key}")
    model = {k: raw.get(k, default) for k, default in _MODEL_KEYS.items()}
    encoder = {k: raw.get(k, default) for k, default in _ENCODER_KEYS.items()}
    train_kwargs = {k: raw.get(k, default) for k, default in _TRAIN_KEYS.items()}
    if train_kwargs["selection_metric"] is None:
        train_kwargs["selection_metric"] = "f1" if model["task"] == "multi-label" else "accuracy"
    base = os.path.dirname(os.path.abspath(path))
    paths = {k: os.path.join(base, raw[k]) for k in _PATH_KEYS if k in raw}
    token_keys = {"train_path", "val_path", "test_path", "vocab_path"}
    emb_keys = {"train_embeddings", "val_embeddings", "test_embeddings"}
    have = set(paths)
    if not (token_keys <= have or emb_keys <= have):
        raise ConfigError(
            "config must carry either train/val/test/vocab paths or the three embeddings paths"
        )
    return RunSettings(model, encoder, TrainConfig(**train_kwargs), paths)


_SPLITS = ("train", "val", "test")


@dataclass
class DataBundle:
    """Encoded ``(inputs, labels)`` per split; a split that was not asked
    for is ``None``."""

    train: tuple[np.ndarray, np.ndarray] | None
    val: tuple[np.ndarray, np.ndarray] | None
    test: tuple[np.ndarray, np.ndarray] | None
    vocab: dict[str, int] | None = None

    @property
    def head_only(self) -> bool:
        return self.vocab is None


def load_data(settings: RunSettings, splits: tuple[str, ...] = _SPLITS) -> DataBundle:
    """Read and encode the named splits (all three by default), plus the
    vocabulary in token mode."""
    n_classes = settings.model["n_classes"]
    multilabel = settings.multilabel
    parts = dict.fromkeys(_SPLITS)
    if settings.embeddings_mode:
        for split in splits:
            path = settings.paths[f"{split}_embeddings"]
            h, labels = load_embeddings(path, n_classes)
            if h.shape[2] != settings.model["d"]:
                raise DimensionError(
                    f"{path}: embedding width {h.shape[2]} vs configured d={settings.model['d']}"
                )
            parts[split] = (h, labels)
        return DataBundle(**parts)
    vocab = load_vocab(settings.paths["vocab_path"])
    for split in splits:
        records = load_dataset(settings.paths[f"{split}_path"], n_classes, multilabel)
        parts[split] = encode_batch(records, vocab, settings.train.seq_len, n_classes, multilabel)
    return DataBundle(**parts, vocab=vocab)


def build_model(settings: RunSettings, bundle: DataBundle, kind: str, variant: str, rng: Rng):
    cfg = settings.model_config(variant)
    if bundle.head_only:
        return HeadOnlyClassifier(cfg, kind, rng)
    enc_cfg = EncoderConfig(
        vocab_size=max(bundle.vocab.values()) + 1,
        d=cfg.d,
        n_layers=settings.encoder["enc_layers"],
        n_heads=settings.encoder["enc_heads"],
        ffn_size=settings.encoder["ffn_size"],
        max_len=settings.train.seq_len,
    )
    return SequenceClassifier(enc_cfg, cfg, kind, rng)


def _write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")


def run_train(
    settings: RunSettings,
    kind: str = "inceptive",
    variant: str = "full",
    runs: int = 10,
    seed: int = 0,
    out_dir: str = "out",
) -> dict:
    """Train ``runs`` independently seeded models; write one report and one
    best-epoch checkpoint per run plus a mean/std summary and the per-run
    score list used by the significance test."""
    bundle = load_data(settings)
    os.makedirs(out_dir, exist_ok=True)
    scores = []
    for i in range(runs):
        run_seed = seed + i
        rng = Rng(run_seed)
        model = build_model(settings, bundle, kind, variant, rng.child("init"))
        meta = {
            "model": kind,
            "variant": variant if kind == "inceptive" else None,
            "seed": run_seed,
            "run": i,
            "selection_metric": settings.train.selection_metric,
        }
        report, best_state = run_training(
            model, bundle.train, bundle.val, bundle.test, settings.train, rng.child("train"), meta
        )
        with open(os.path.join(out_dir, f"run_{i:02d}.json"), "w", encoding="utf-8") as fh:
            fh.write(report.to_json() + "\n")
        save_checkpoint(os.path.join(out_dir, f"run_{i:02d}.ckpt"), best_state)
        scores.append(selection_value(report.test, settings.train.selection_metric))
    summary = {
        "model": kind,
        "variant": variant if kind == "inceptive" else None,
        "metric": settings.train.selection_metric,
        "runs": scores,
        "mean": float(np.mean(scores)),
        "std": float(np.std(scores)),
    }
    _write_json(os.path.join(out_dir, "summary.json"), summary)
    with open(os.path.join(out_dir, "scores.csv"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(repr(float(s)) for s in scores) + "\n")
    return summary


def _xval_pool(settings: RunSettings, bundle: DataBundle):
    xs = np.concatenate([bundle.train[0], bundle.val[0]], axis=0)
    ys = np.concatenate([bundle.train[1], bundle.val[1]], axis=0)
    return xs, ys


def run_xval(
    settings: RunSettings,
    variant: str = "full",
    k: int = 10,
    seed: int = 0,
    out_dir: str = "out",
) -> dict:
    """K-fold comparison of the baseline and enrichment models on identical
    fold assignments. Each fold trains for the configured epochs and scores
    the final model on the held-out part (no within-fold selection)."""
    bundle = load_data(settings)
    xs, ys = _xval_pool(settings, bundle)
    folds = kfold_split(len(xs), k, seed)
    results: dict = {"k": k, "seed": seed, "metric": settings.train.selection_metric, "models": {}}
    for kind in ("baseline", "inceptive"):
        fold_scores = []
        for fold_i, (train_idx, val_idx) in enumerate(folds):
            rng = Rng(seed).child("fold", fold_i, kind)
            model = build_model(settings, bundle, kind, variant, rng.child("init"))
            opt = init_adamw(model.params)
            data = (xs[train_idx], ys[train_idx])
            for epoch in range(1, settings.train.epochs + 1):
                lr = cosine_lr(epoch - 1, settings.train.epochs, settings.train.lr, settings.train.lr_min)
                train_epoch(model, data, settings.train, opt, epoch, lr, rng.child("train"))
            metrics, _ = evaluate(model, (xs[val_idx], ys[val_idx]), settings.train)
            fold_scores.append(selection_value(metrics, settings.train.selection_metric))
        results["models"][kind] = {
            "folds": fold_scores,
            "mean": float(np.mean(fold_scores)),
            "std": float(np.std(fold_scores)),
        }
    os.makedirs(out_dir, exist_ok=True)
    _write_json(os.path.join(out_dir, "xval.json"), results)
    return results


def _restore(settings: RunSettings, bundle: DataBundle, kind: str, variant: str, checkpoint: str):
    model = build_model(settings, bundle, kind, variant, Rng(0))
    model.load_state(load_checkpoint(checkpoint))
    return model


def run_eval(
    settings: RunSettings, kind: str, variant: str, checkpoint: str, out_dir: str | None = None
) -> dict:
    """Test-set metrics for a trained checkpoint."""
    bundle = load_data(settings, ("test",))
    model = _restore(settings, bundle, kind, variant, checkpoint)
    metrics, infer_time = evaluate(model, bundle.test, settings.train)
    payload = {"test": metrics, "timing": {"inference_seconds": infer_time}}
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, "eval.json"), payload)
    return payload


def run_attnmap(
    settings: RunSettings,
    kind: str,
    variant: str,
    checkpoint: str,
    out_dir: str,
    limit: int = 16,
) -> dict:
    """Export received-attention profiles for the first test examples: one
    ``position,received`` CSV per example, a grayscale heatmap with one row
    per example, and a summary with per-example entropy."""
    bundle = load_data(settings, ("test",))
    model = _restore(settings, bundle, kind, variant, checkpoint)
    model.set_mode(False)
    inputs = bundle.test[0][:limit]
    if len(inputs) == 0:
        raise InputError("no test examples to map")
    mp = model.forward(inputs, None)
    received = model.attention_export(mp)
    os.makedirs(out_dir, exist_ok=True)
    for i in range(received.shape[0]):
        write_attention_csv(os.path.join(out_dir, f"example_{i:03d}.csv"), received[i])
    write_attention_pgm(os.path.join(out_dir, "heatmap.pgm"), received)
    entropy = received_entropy(received)
    summary = {
        "model": kind,
        "examples": int(received.shape[0]),
        "mean_received": [float(v) for v in received.mean(axis=0)],
        "position0_mean": float(received[:, 0].mean()),
        "entropy_mean": float(entropy.mean()),
        "entropy": [float(v) for v in entropy],
    }
    _write_json(os.path.join(out_dir, "attnmap_summary.json"), summary)
    return summary


def _read_score_csv(path) -> np.ndarray:
    values = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # tolerate a header row
                    continue
                raise InputError(f"{path}:{lineno}: not a number: {text!r}")
    if not values:
        raise InputError(f"{path}: no scores found")
    return np.array(values)


def run_stats(path_a, path_b) -> dict:
    """Paired signed-rank test between two per-run score lists, plus the
    relative gain of the second list's mean over the first."""
    a = _read_score_csv(path_a)
    b = _read_score_csv(path_b)
    if len(a) != len(b):
        raise InputError(f"score lists differ in length: {len(a)} vs {len(b)}")
    w, p = wilcoxon_signed_rank(a, b)
    gain = (float(np.mean(b)) - float(np.mean(a))) / float(np.mean(a)) * 100.0
    return {"W": w, "p": p, "gain_percent": gain, "mean_a": float(np.mean(a)), "mean_b": float(np.mean(b))}
