"""Dataset files, vocabularies, batching, and synthetic task generators.

Datasets are JSON lines (``{"text": ..., "label": int}`` for single-label
tasks, ``{"text": ..., "labels": [ints]}`` for multi-label) with a companion
vocabulary file mapping token to id in frequency order after the reserved
entries. Batching prepends the reserved aggregation token, then truncates
or zero-pads to the configured sequence length.

The synthetic generators plant class cues into filler text: the multi-class
task embeds one contiguous cue phrase per example, and the multi-label task
scatters one cue token per active label. ``noise_rate`` is the probability
that a background position draws from the full vocabulary (which can
collide with cue tokens); the rest of the background comes from a cue-free
filler pool, so a noise rate of zero makes the task exactly solvable.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InputError
from .tensor import Rng

__all__ = [
    "PAD_ID",
    "UNK_ID",
    "CLS_ID",
    "RESERVED_TOKENS",
    "tokenize",
    "build_vocab",
    "save_vocab",
    "load_vocab",
    "save_jsonl",
    "load_jsonl",
    "load_dataset",
    "encode_batch",
    "SyntheticSpec",
    "SyntheticData",
    "generate_synthetic",
    "split_records",
]

PAD_ID, UNK_ID, CLS_ID = 0, 1, 2
RESERVED_TOKENS = ("<pad>", "<unk>", "<cls>")


def tokenize(text: str) -> list[str]:
    return text.split()


def build_vocab(records: list[dict], max_size: int | None = None) -> dict[str, int]:
    """Token to id, most frequent first after the reserved entries; ties
    break alphabetically so the file is reproducible."""
    counts = Counter()
    for rec in records:
        counts.update(tokenize(rec["text"]))
    ordered = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    if max_size is not None:
        ordered = ordered[: max(0, max_size - len(RESERVED_TOKENS))]
    vocab = {tok: i for i, tok in enumerate(RESERVED_TOKENS)}
    for tok, _ in ordered:
        vocab[tok] = len(vocab)
    return vocab


def save_vocab(path, vocab: dict[str, int]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(vocab, fh, indent=0)
        fh.write("\n")


def load_vocab(path) -> dict[str, int]:
    """Token to id; the ids must be the distinct integers ``0..n-1``."""
    with open(path, encoding="utf-8") as fh:
        try:
            vocab = json.load(fh)
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise InputError(f"vocabulary file {path} is not UTF-8 JSON: {exc}") from exc
    if not isinstance(vocab, dict):
        raise InputError(f"vocabulary file {path} must hold a JSON object")
    ids = sorted(v for v in vocab.values() if type(v) is int)
    if not ids or ids != list(range(len(vocab))):
        raise InputError(f"vocabulary file {path}: ids must be the distinct integers 0..{len(vocab) - 1}")
    return vocab


def save_jsonl(path, records: list[dict]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True) + "\n")


def _jsonl_records(path):
    """Each non-blank line's number and its JSON object; a line that is not
    UTF-8 JSON or not an object raises ``InputError`` at ``path:line``."""
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.strip():
                continue
            try:
                rec = json.loads(raw.decode("utf-8"))
            except (UnicodeDecodeError, json.JSONDecodeError) as exc:
                raise InputError(f"{path}:{lineno}: invalid UTF-8 JSON: {exc}") from exc
            if not isinstance(rec, dict):
                raise InputError(f"{path}:{lineno}: record must be a JSON object")
            yield lineno, rec


def load_jsonl(path) -> list[dict]:
    return [rec for _, rec in _jsonl_records(path)]


def load_dataset(path, n_classes: int, multilabel: bool) -> list[dict]:
    """Load and validate records against the configured label space; errors
    name the file's line."""
    records = []
    for lineno, rec in _jsonl_records(path):
        if not isinstance(rec.get("text"), str):
            raise InputError(f"{path}:{lineno}: record needs a string text field")
        if multilabel:
            labels = rec.get("labels")
            if not isinstance(labels, list) or any(type(v) is not int for v in labels):
                raise InputError(f"{path}:{lineno}: multi-label record needs a list of int labels")
            if labels != sorted(set(labels)):
                raise InputError(f"{path}:{lineno}: labels must be duplicate-free and sorted")
            if labels and (min(labels) < 0 or max(labels) >= n_classes):
                raise InputError(f"{path}:{lineno}: label outside [0, {n_classes})")
        else:
            label = rec.get("label")
            if type(label) is not int or not 0 <= label < n_classes:
                raise InputError(f"{path}:{lineno}: label must be an int in [0, {n_classes})")
        records.append(rec)
    return records


def encode_batch(
    records: list[dict],
    vocab: dict[str, int],
    seq_len: int,
    n_classes: int,
    multilabel: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Token ids (with the aggregation token first) and targets as arrays."""
    if not records:
        raise InputError("cannot encode an empty record list")
    ids = np.full((len(records), seq_len), PAD_ID, dtype=np.int64)
    for row, rec in enumerate(records):
        toks = [CLS_ID] + [vocab.get(t, UNK_ID) for t in tokenize(rec["text"])]
        toks = toks[:seq_len]
        ids[row, : len(toks)] = toks
    if multilabel:
        targets = np.zeros((len(records), n_classes), dtype=np.float64)
        for row, rec in enumerate(records):
            targets[row, rec["labels"]] = 1.0
    else:
        targets = np.array([rec["label"] for rec in records], dtype=np.int64)
    return ids, targets


# --- synthetic tasks --------------------------------------------------------------

_DEFAULT_CUE_LENGTHS = (2, 3, 5, 7)


@dataclass
class SyntheticSpec:
    """Generator knobs.

    ``seq_len`` counts the reserved first aggregation position, so each
    example carries ``seq_len - 1`` text tokens. For the multi-label task
    ``avg_labels_per_example`` sets the mean number of active labels
    (1 plus a Poisson draw, capped at the class count).
    """

    task: str = "phrase-cue-multiclass"
    n_examples: int = 1000
    seq_len: int = 32
    vocab_size: int = 64
    n_classes: int = 4
    avg_labels_per_example: float = 1.5
    cue_lengths: tuple[int, ...] | None = None
    noise_rate: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.task not in ("phrase-cue-multiclass", "dispersed-multilabel"):
            raise ConfigError(f"unknown synthetic task {self.task!r}")
        if self.n_classes < 2 or self.n_examples < 1:
            raise ConfigError("need n_classes >= 2 and n_examples >= 1")
        if not 0.0 <= self.noise_rate <= 1.0:
            raise ConfigError("noise_rate must be in [0, 1]")
        if self.avg_labels_per_example < 1.0:
            raise ConfigError("avg_labels_per_example must be >= 1")
        if self.cue_lengths is not None:
            bad = [n for n in self.cue_lengths if not 2 <= n <= 7]
            if bad:
                raise ConfigError(f"cue lengths must lie in [2, 7], got {bad}")
            if len(self.cue_lengths) != self.n_classes:
                raise ConfigError("need one cue length per class")

    def resolved_cue_lengths(self) -> tuple[int, ...]:
        if self.task == "dispersed-multilabel":
            return (1,) * self.n_classes
        if self.cue_lengths is not None:
            return tuple(self.cue_lengths)
        return tuple(_DEFAULT_CUE_LENGTHS[i % len(_DEFAULT_CUE_LENGTHS)] for i in range(self.n_classes))


@dataclass
class SyntheticData:
    records: list[dict]
    vocab: dict[str, int]
    cues: list[dict] = field(default_factory=list)
    cue_phrases: list[list[str]] = field(default_factory=list)


def _allocate_cues(spec: SyntheticSpec) -> tuple[list[list[str]], list[str]]:
    words = [f"w{i:03d}" for i in range(spec.vocab_size)]
    lengths = spec.resolved_cue_lengths()
    text_len = spec.seq_len - 1
    for n in lengths:
        if n > text_len:
            raise ConfigError(f"cue length {n} does not fit in {text_len} text tokens")
    needed = sum(lengths)
    if needed + 1 > len(words):
        raise ConfigError(
            f"vocabulary of {spec.vocab_size} cannot host {needed} disjoint cue tokens plus filler"
        )
    cues, at = [], 0
    for n in lengths:
        cues.append(words[at : at + n])
        at += n
    return cues, words[at:]


def _background(spec: SyntheticSpec, rng: Rng, size: int, filler: list[str], words_total: int) -> list[str]:
    noisy = rng.random(size) < spec.noise_rate
    fill_idx = rng.integers(0, len(filler), size)
    any_idx = rng.integers(0, words_total, size)
    out = []
    for i in range(size):
        out.append(f"w{any_idx[i]:03d}" if noisy[i] else filler[fill_idx[i]])
    return out


def generate_synthetic(spec: SyntheticSpec) -> SyntheticData:
    """Deterministic dataset for the given spec, with exact per-example cue
    bookkeeping for diagnostics."""
    rng = Rng(spec.seed).child("synthetic")
    cues, filler = _allocate_cues(spec)
    text_len = spec.seq_len - 1
    records, cue_log = [], []
    if spec.task == "phrase-cue-multiclass":
        labels = rng.integers(0, spec.n_classes, spec.n_examples)
        for i in range(spec.n_examples):
            label = int(labels[i])
            phrase = cues[label]
            pos = int(rng.integers(0, text_len - len(phrase) + 1, None))
            toks = _background(spec, rng.child("bg", i), text_len, filler, spec.vocab_size)
            toks[pos : pos + len(phrase)] = phrase
            records.append({"text": " ".join(toks), "label": label})
            cue_log.append({"example": i, "label": label, "position": pos, "length": len(phrase)})
    else:
        lam = spec.avg_labels_per_example - 1.0
        for i in range(spec.n_examples):
            k = 1 + (int(rng.poisson(lam, None)) if lam > 0 else 0)
            k = min(k, spec.n_classes)
            active = sorted(int(v) for v in rng.choice(spec.n_classes, k, replace=False))
            toks = _background(spec, rng.child("bg", i), text_len, filler, spec.vocab_size)
            positions = rng.choice(text_len, k, replace=False)
            placed = []
            for label, pos in zip(active, positions):
                toks[int(pos)] = cues[label][0]
                placed.append({"label": label, "position": int(pos)})
            records.append({"text": " ".join(toks), "labels": active})
            cue_log.append({"example": i, "cues": placed})
    vocab = build_vocab(records)
    return SyntheticData(records, vocab, cue_log, cues)


def split_records(
    records: list[dict], fractions: tuple[float, float, float] = (0.8, 0.1, 0.1)
) -> tuple[list[dict], list[dict], list[dict]]:
    """Deterministic train/validation/test cut of an already-shuffled list."""
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise ConfigError(f"split fractions must sum to 1, got {fractions}")
    n = len(records)
    n_train = int(round(fractions[0] * n))
    n_val = int(round(fractions[1] * n))
    train = records[:n_train]
    val = records[n_train : n_train + n_val]
    test = records[n_train + n_val :]
    if not train or not val or not test:
        raise InputError(f"split of {n} records left an empty part")
    return train, val, test
