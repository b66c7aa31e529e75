"""End-to-end run orchestration behind the command-line surface: config
parsing, data loading, multi-run training with summaries, cross-validation,
attention-map export, and the paired significance helper.

The config file is a flat JSON object; unknown keys are rejected so typos
fail loudly. Paths inside the config resolve relative to the config file.
"""

from __future__ import annotations

import json
import os
from dataclasses import asdict, dataclass

import numpy as np

from .data import encode_batch, load_dataset, load_vocab
from .encoder import EncoderConfig, load_embeddings
from .errors import ConfigError, DimensionError, InputError
from .head import ModelConfig, received_entropy, write_attention_csv, write_attention_pgm
from .metrics import wilcoxon_signed_rank
from .model import SequenceClassifier
from .tensor import Rng, load_checkpoint, save_checkpoint
from .training import TrainConfig, evaluate, kfold_split, run_training, selection_value

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


# the type of the keys whose default is None
_NULLABLE = {"head_dim": int, "selection_metric": str}


def _check_type(key: str, value, default) -> None:
    """``value`` must have its default's type: a float key takes an int too,
    a bool is neither, and a None default also takes None."""
    if value is None and default is None:
        return
    want = _NULLABLE.get(key, type(default))
    if isinstance(value, bool) or not isinstance(value, (int, float) if want is float else want):
        raise ConfigError(f"config key {key} must be {want.__name__}, got {value!r}")
    if want is float and not -np.inf < value < np.inf:
        raise ConfigError(f"config key {key} must be finite, got {value!r}")


def load_config(path) -> RunSettings:
    with open(path, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"{path}: invalid UTF-8 JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    defaults = {**_MODEL_KEYS, **_ENCODER_KEYS, **_TRAIN_KEYS, **dict.fromkeys(_PATH_KEYS, "")}
    for key, value in raw.items():
        if key not in defaults:
            raise ConfigError(f"unknown config key: {key}")
        _check_type(key, value, defaults[key])
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
    enc_cfg = None if bundle.head_only else EncoderConfig(
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
    if runs < 1:
        raise ConfigError(f"runs must be >= 1, got {runs}")
    bundle = load_data(settings)
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
        os.makedirs(out_dir, exist_ok=True)
        _write_json(os.path.join(out_dir, f"run_{i:02d}.json"), asdict(report))
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


def run_xval(
    settings: RunSettings,
    variant: str = "full",
    k: int = 10,
    seed: int = 0,
    out_dir: str = "out",
) -> dict:
    """K-fold comparison of the baseline and enrichment models on identical
    fold assignments. Each fold trains for the configured epochs and scores
    the final model on the held-out part (no within-fold selection); each
    fold's epoch records are kept beside its score."""
    bundle = load_data(settings)
    xs = np.concatenate([bundle.train[0], bundle.val[0]], axis=0)
    ys = np.concatenate([bundle.train[1], bundle.val[1]], axis=0)
    folds = kfold_split(len(xs), k, seed)
    results: dict = {"k": k, "seed": seed, "metric": settings.train.selection_metric, "models": {}}
    for kind in ("baseline", "inceptive"):
        fold_scores, fold_epochs = [], []
        for fold_i, (train_idx, val_idx) in enumerate(folds):
            rng = Rng(seed).child("fold", fold_i, kind)
            model = build_model(settings, bundle, kind, variant, rng.child("init"))
            train, held_out = (xs[train_idx], ys[train_idx]), (xs[val_idx], ys[val_idx])
            report, _ = run_training(model, train, None, held_out, settings.train, rng.child("train"))
            fold_scores.append(selection_value(report.test, settings.train.selection_metric))
            fold_epochs.append(report.epochs)
        results["models"][kind] = {
            "folds": fold_scores,
            "mean": float(np.mean(fold_scores)),
            "std": float(np.std(fold_scores)),
            "epochs": fold_epochs,
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
    if limit < 1:
        raise ConfigError(f"limit must be >= 1, got {limit}")
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
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.decode("utf-8", errors="replace").strip()  # a bad byte is then not a number
            if not text:
                continue
            try:
                values.append(float(text))
            except ValueError:
                if lineno == 1:  # tolerate a header row
                    continue
                raise InputError(f"{path}:{lineno}: not a number: {text!r}")
            if not np.isfinite(values[-1]):
                raise InputError(f"{path}:{lineno}: not a finite number: {text!r}")
    if not values:
        raise InputError(f"{path}: no scores found")
    return np.array(values)


def run_stats(path_a, path_b) -> dict:
    """Paired signed-rank test between two per-run score lists, plus the
    relative gain of the second list's mean over the first (``None`` when
    the first mean is 0)."""
    a = _read_score_csv(path_a)
    b = _read_score_csv(path_b)
    if len(a) != len(b):
        raise InputError(f"score lists differ in length: {len(a)} vs {len(b)}")
    w, p = wilcoxon_signed_rank(a, b)
    mean_a, mean_b = float(np.mean(a)), float(np.mean(b))
    gain = (mean_b - mean_a) / mean_a * 100.0 if mean_a != 0 else None
    return {"W": w, "p": p, "gain_percent": gain, "mean_a": mean_a, "mean_b": mean_b}
