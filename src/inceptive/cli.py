"""Command-line surface.

Subcommands: ``synth``, ``train``, ``xval``, ``eval``, ``attnmap``,
``stats``. Exit codes: 0 success, 2 configuration error, 3 data error,
4 numeric error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from .data import SyntheticSpec, generate_synthetic, save_jsonl, save_vocab, split_records
from .errors import ConfigError, DataError, NumericError
from .harness import load_config, run_attnmap, run_eval, run_stats, run_train, run_xval


def _common_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", required=True, help="flat JSON config file")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--model", choices=("inceptive", "baseline"), default="inceptive")
    p.add_argument("--variant", choices=("full", "no_attn", "no_dense"), default="full")
    p.add_argument("--out", default="out", help="output directory")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="inceptive")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("synth", help="generate a synthetic dataset with planted cues")
    p.add_argument("--task", choices=("phrase-cue-multiclass", "dispersed-multilabel"),
                   default="phrase-cue-multiclass")
    p.add_argument("--n", type=int, default=1000, help="number of examples")
    p.add_argument("--seq-len", type=int, default=32)
    p.add_argument("--vocab-size", type=int, default=64)
    p.add_argument("--classes", type=int, default=4)
    p.add_argument("--avg-labels", type=float, default=1.5)
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default="out")

    p = sub.add_parser("train", help="run seeded training runs and summarize")
    _common_flags(p)
    p.add_argument("--runs", type=int, default=10)

    p = sub.add_parser("xval", help="k-fold comparison of baseline and inceptive models")
    _common_flags(p)
    p.add_argument("--k", type=int, default=10)

    p = sub.add_parser("eval", help="evaluate a checkpoint on the test split")
    _common_flags(p)
    p.add_argument("--checkpoint", required=True)

    p = sub.add_parser("attnmap", help="export received-attention maps for a checkpoint")
    _common_flags(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--limit", type=int, default=16, help="number of test examples to map")

    p = sub.add_parser("stats", help="paired signed-rank test between two score CSVs")
    p.add_argument("scores_a")
    p.add_argument("scores_b")
    return parser


def _cmd_synth(args) -> None:
    spec = SyntheticSpec(
        task=args.task,
        n_examples=args.n,
        seq_len=args.seq_len,
        vocab_size=args.vocab_size,
        n_classes=args.classes,
        avg_labels_per_example=args.avg_labels,
        noise_rate=args.noise,
        seed=args.seed,
    )
    data = generate_synthetic(spec)
    train, val, test = split_records(data.records)
    os.makedirs(args.out, exist_ok=True)
    save_jsonl(os.path.join(args.out, "train.jsonl"), train)
    save_jsonl(os.path.join(args.out, "val.jsonl"), val)
    save_jsonl(os.path.join(args.out, "test.jsonl"), test)
    save_vocab(os.path.join(args.out, "vocab.json"), data.vocab)
    save_jsonl(os.path.join(args.out, "cues.jsonl"), data.cues)
    print(f"wrote {len(train)}/{len(val)}/{len(test)} examples to {args.out}")


def _cmd_train(args) -> None:
    settings = load_config(args.config)
    summary = run_train(settings, args.model, args.variant, args.runs, args.seed, args.out)
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_xval(args) -> None:
    settings = load_config(args.config)
    results = run_xval(settings, args.variant, args.k, args.seed, args.out)
    print(json.dumps(results, indent=2, sort_keys=True))


def _cmd_eval(args) -> None:
    settings = load_config(args.config)
    payload = run_eval(settings, args.model, args.variant, args.checkpoint, args.out)
    print(json.dumps(payload, indent=2, sort_keys=True))


def _cmd_attnmap(args) -> None:
    settings = load_config(args.config)
    summary = run_attnmap(settings, args.model, args.variant, args.checkpoint, args.out, args.limit)
    print(json.dumps(summary, indent=2, sort_keys=True))


def _cmd_stats(args) -> None:
    result = run_stats(args.scores_a, args.scores_b)
    print(f"W = {result['W']}")
    print(f"p = {result['p']}")
    gain = result["gain_percent"]
    print("gain = undefined" if gain is None else f"gain = {gain:+.2f}%")


_DISPATCH = {
    "synth": _cmd_synth,
    "train": _cmd_train,
    "xval": _cmd_xval,
    "eval": _cmd_eval,
    "attnmap": _cmd_attnmap,
    "stats": _cmd_stats,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _DISPATCH[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (DataError, FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 4
    return 0


if __name__ == "__main__":
    sys.exit(main())
