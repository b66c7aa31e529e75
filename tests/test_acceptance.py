"""Acceptance checks for the whole package, one printed PASS/FAIL line per
check (run with ``pytest tests/test_acceptance.py -v -s`` to see them).

Checks 6, 7, and 12 share one module-scoped fixture that runs the full
desk-scale protocol: a planted phrase-cue dataset (4 classes, sequence
length 32, 2000 examples, noiseless cues, 20% background token noise) and
ten seeded 12-epoch runs each of the enrichment model, the first-token
baseline, and both ablation variants, all through the command-line
harness. Check 12 exports attention maps from all ten paired enrichment
and baseline checkpoints and reads the generator's cue log to locate each
test example's planted cue span.
"""

import json
import time

import numpy as np
import pytest

from inceptive.cli import main
from inceptive.head import (
    ModelConfig,
    head_backward,
    head_forward,
    init_head_params,
    make_head_state,
    multi_head_attention,
    shape_probe,
)
from inceptive.harness import load_config, run_attnmap, run_train
from inceptive.layers import conv1d_forward, conv_branch
from inceptive.metrics import (
    _average_ranks,
    average_precision,
    roc_auc,
    wilcoxon_signed_rank,
)
from inceptive.tensor import ParamStore, Rng, grad_check
from inceptive.training import adamw_step, cosine_lr, init_adamw, softmax_cross_entropy


def report(num, name, ok, detail):
    print(f"\nACCEPTANCE {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"acceptance {num} {name}: {detail}"


# --- 1: gradient correctness -----------------------------------------------------


def test_01_gradient_correctness():
    cfg = ModelConfig(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3,
                      dropout_rate=0.0)
    rng = Rng(42)
    store = init_head_params(cfg, rng.child("params"))
    state = make_head_state(cfg, store)
    state.set_mode(True)
    hidden = rng.child("hidden").normal((2, 8, 16))
    targets = np.array([0, 2])

    def loss_fn(params):
        out = head_forward(cfg, params, state, hidden)
        return softmax_cross_entropy(out.logits, targets)[0]

    t0 = time.perf_counter()
    out = head_forward(cfg, store, state, hidden)
    _, dlogits = softmax_cross_entropy(out.logits, targets)
    store.zero_grads()
    head_backward(cfg, store, state, out, dlogits)
    err = grad_check(loss_fn, store, 1e-5)
    elapsed = time.perf_counter() - t0
    report(1, "gradient-correctness", err < 1e-4 and elapsed < 60,
           f"max rel err {err:.2e}, {elapsed:.1f}s over {len(store)} tensors")


# --- 2: convolution oracle --------------------------------------------------------


def test_02_conv_oracle_equivalence():
    rng = Rng(202)
    worst = 0.0
    for case in range(200):
        k = (2, 3, 5, 7)[case % 4]
        length = int(rng.integers(1, 65, None))
        d = int(rng.integers(1, 17, None))
        c = int(rng.integers(1, 4, None))
        branch = conv_branch(k, rng.normal((c, k, d)), rng.normal(c))
        h = rng.normal((2, length, d))
        out = conv1d_forward(branch, h)
        assert out.shape[1] == length
        padded = np.zeros((2, length + k - 1, d))
        padded[:, branch.pad_left : branch.pad_left + length, :] = h
        oracle = np.zeros_like(out)
        for bi in range(2):
            for i in range(length):
                for f in range(c):
                    acc = branch.bias[f]
                    for j in range(k):
                        acc += branch.weight[f, j, :] @ padded[bi, i + j, :]
                    oracle[bi, i, f] = acc
        worst = max(worst, float(np.abs(out - oracle).max()))
    report(2, "conv-oracle-equivalence", worst < 1e-9,
           f"200 cases, max abs diff {worst:.2e}, output length preserved")


# --- 3: shape chain ---------------------------------------------------------------


def test_03_shape_chain():
    cfg = ModelConfig(d=768, c=32, n_heads=8, dense_dim=512, n_classes=4)
    shapes = shape_probe(cfg, batch=2, length=8)
    expect = {
        "hidden": (2, 8, 768),
        "conv_concat": (2, 8, 128),
        "enriched": (2, 8, 896),
        "attended": (2, 8, 896),
        "pooled": (2, 896),
        "dense": (2, 512),
        "logits": (2, 4),
    }
    ok = all(shapes[k] == v for k, v in expect.items())
    chain = " -> ".join(str(shapes[k]) for k in expect)
    report(3, "shape-chain", ok, chain)


# --- 4: residual preservation -----------------------------------------------------


def test_04_residual_preservation():
    cfg = ModelConfig(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3,
                      dropout_rate=0.3)
    rng = Rng(404)
    store = init_head_params(cfg, rng.child("params"))
    state = make_head_state(cfg, store)
    state.set_mode(False)  # eval mode: dropout is the identity
    ok = True
    for case in range(50):
        h = rng.child("h", case).normal((2, 6, 16))
        out = head_forward(cfg, store, state, h)
        ok = ok and np.array_equal(out.r[..., :16], h)
    report(4, "residual-preservation", ok, "50 eval-mode cases, first d channels bitwise")


# --- 5: attention normalization ---------------------------------------------------


def test_05_attention_normalization():
    cfg = ModelConfig(d=16, c=4, n_heads=2, head_dim=8, dense_dim=8, n_classes=3)
    rng = Rng(505)
    store = init_head_params(cfg, rng.child("params"))
    worst_row, worst_received = 0.0, 0.0
    for case in range(20):
        r = rng.child("r", case).normal((2, 7, cfg.d_r)) * (1 + case)
        _, amap, cache = multi_head_attention(cfg, store, r)
        worst_row = max(worst_row, float(np.abs(cache.weights.sum(axis=-1) - 1).max()))
        worst_received = max(worst_received, float(np.abs(amap.sum(axis=-1) - 1).max()))
    ok = worst_row < 1e-9 and worst_received < 1e-9
    report(5, "attention-normalization", ok,
           f"row dev {worst_row:.1e}, received dev {worst_received:.1e}")


# --- shared desk-scale protocol for 6, 7, 12 --------------------------------------


@pytest.fixture(scope="module")
def protocol(tmp_path_factory):
    root = tmp_path_factory.mktemp("protocol")
    data_dir = root / "data"
    assert main([
        "synth", "--task", "phrase-cue-multiclass", "--n", "2000", "--seq-len", "32",
        "--vocab-size", "32", "--classes", "4", "--noise", "0.2", "--seed", "11",
        "--out", str(data_dir),
    ]) == 0
    config = {
        "d": 16, "c": 16, "n_heads": 2, "dense_dim": 8, "n_classes": 4,
        "task": "multi-class", "dropout_rate": 0.1,
        "enc_layers": 2, "enc_heads": 2, "ffn_size": 32,
        "seq_len": 32, "batch_size": 32, "epochs": 12, "lr": 0.002,
        "weight_decay": 0.001,
        "train_path": "data/train.jsonl", "val_path": "data/val.jsonl",
        "test_path": "data/test.jsonl", "vocab_path": "data/vocab.json",
    }
    cfg_path = root / "config.json"
    cfg_path.write_text(json.dumps(config))
    settings = load_config(cfg_path)

    out = {"root": root, "settings": settings}
    t0 = time.perf_counter()
    out["full"] = run_train(settings, "inceptive", "full", 10, 0, str(root / "run_full"))
    out["baseline"] = run_train(settings, "baseline", "full", 10, 0, str(root / "run_base"))
    out["timed_portion"] = time.perf_counter() - t0
    out["no_attn"] = run_train(settings, "inceptive", "no_attn", 10, 0, str(root / "run_noattn"))
    out["no_dense"] = run_train(settings, "inceptive", "no_dense", 10, 0, str(root / "run_nodense"))
    return out


def test_06_synthetic_task_learnability(protocol):
    full = protocol["full"]["runs"]
    base = protocol["baseline"]["runs"]
    elapsed = protocol["timed_portion"]
    ok = (
        max(full) >= 0.90
        and float(np.mean(full)) >= 0.90
        and float(np.mean(full)) >= float(np.mean(base))
        and elapsed < 600
    )
    report(6, "synthetic-task-learnability", ok,
           f"enrichment mean {np.mean(full):.4f} (min {min(full):.3f}) vs baseline mean "
           f"{np.mean(base):.4f}; 20 runs in {elapsed:.0f}s")


def test_07_ablation_direction(protocol):
    full = protocol["full"]["runs"]
    wins = {}
    for tag in ("no_attn", "no_dense"):
        abl = protocol[tag]["runs"]
        wins[tag] = sum(f >= a for f, a in zip(full, abl))
    ok = wins["no_attn"] >= 7 and wins["no_dense"] >= 7
    report(7, "ablation-direction", ok,
           f"paired seeds: full>=no_attn {wins['no_attn']}/10 "
           f"(means {np.mean(full):.4f} vs {np.mean(protocol['no_attn']['runs']):.4f}), "
           f"full>=no_dense {wins['no_dense']}/10 "
           f"(means {np.mean(full):.4f} vs {np.mean(protocol['no_dense']['runs']):.4f})")


# --- 8: exact signed-rank test ----------------------------------------------------


def _recursive_count(ranks, w_obs):
    total = sum(ranks)

    def count(i, t):
        if i == len(ranks):
            return 1 if min(t, total - t) <= w_obs + 1e-12 else 0
        return count(i + 1, t + ranks[i]) + count(i + 1, t)

    return count(0, 0.0)


def test_08_wilcoxon_exactness():
    _, p10 = wilcoxon_signed_rank(np.arange(10.0) + 5.0, np.arange(10.0))
    exact_ok = p10 == 0.001953125
    rng = Rng(808)
    oracle_ok = True
    for trial in range(40):
        n = int(rng.integers(1, 13, None))
        a = np.round(rng.random(n), 1)
        b = np.round(rng.random(n), 1)
        diffs = (a - b)[(a - b) != 0]
        if len(diffs) == 0:
            continue
        w, p = wilcoxon_signed_rank(a, b)
        ranks = list(_average_ranks(np.abs(diffs)))
        oracle_ok = oracle_ok and p == _recursive_count(ranks, w) / 2 ** len(diffs)
    report(8, "wilcoxon-exactness", exact_ok and oracle_ok,
           f"n=10 all-positive p = {p10}; recursive-count oracle agrees for n <= 12")


# --- 9: optimizer and schedule units ----------------------------------------------


def test_09_optimizer_schedule_units():
    store = ParamStore()
    store.add("w", np.array([[1.0]]))
    store.grad("w")[...] = 1.0
    adamw_step(store, init_adamw(store), lr=0.1, weight_decay=0.01)
    theta = float(store.value("w")[0, 0])
    adam_ok = abs(theta - 0.899) < 1e-6
    cosine_ok = cosine_lr(0, 12, 3e-3, 1e-5) == 3e-3 and cosine_lr(12, 12, 3e-3, 1e-5) == 1e-5
    report(9, "optimizer-schedule-units", adam_ok and cosine_ok,
           f"single step 1 -> {theta:.9f}; cosine endpoints exact")


# --- 10: ranking-metric oracles ---------------------------------------------------


def test_10_metric_oracles():
    rng = Rng(1010)
    auc_ok, ap_ok = True, True
    for _ in range(200):
        n = int(rng.integers(2, 51, None))
        scores = np.round(rng.random(n), 2)
        truths = rng.integers(0, 2, n)
        if truths.min() == truths.max():
            truths[0] = 1 - truths[0]
        pos = scores[truths == 1]
        neg = scores[truths == 0]
        wins = sum(1.0 if p > q else 0.5 if p == q else 0.0 for p in pos for q in neg)
        auc_ok = auc_ok and roc_auc(scores, truths) == wins / (len(pos) * len(neg))

        order = sorted(range(n), key=lambda i: (-scores[i], i))
        if truths.sum() == 0:
            truths[0] = 1
        tp, ap, r_prev = 0, 0.0, 0.0
        for rank, idx in enumerate(order, start=1):
            if truths[idx]:
                tp += 1
            r_k = tp / truths.sum()
            ap += (r_k - r_prev) * (tp / rank)
            r_prev = r_k
        ap_ok = ap_ok and average_precision(scores, truths) == ap
    report(10, "metric-oracles", auc_ok and ap_ok,
           "AUC pairwise and AP threshold oracles match exactly on 200 fixtures")


# --- 11: run determinism ----------------------------------------------------------


def test_11_train_determinism(tmp_path):
    data_dir = tmp_path / "data"
    assert main(["synth", "--n", "160", "--seq-len", "12", "--vocab-size", "32",
                 "--classes", "2", "--noise", "0.1", "--seed", "5", "--out", str(data_dir)]) == 0
    config = {
        "d": 8, "c": 2, "n_heads": 2, "head_dim": 4, "dense_dim": 4, "n_classes": 2,
        "task": "multi-class", "dropout_rate": 0.1,
        "enc_layers": 1, "enc_heads": 2, "ffn_size": 8,
        "seq_len": 12, "batch_size": 16, "epochs": 3, "lr": 0.002, "weight_decay": 0.001,
        "train_path": "data/train.jsonl", "val_path": "data/val.jsonl",
        "test_path": "data/test.jsonl", "vocab_path": "data/vocab.json",
    }
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(config))
    stripped = []
    for out in ("a", "b"):
        assert main(["train", "--config", str(cfg_path), "--runs", "2", "--seed", "3",
                     "--out", str(tmp_path / out)]) == 0
        blobs = []
        for i in range(2):
            rep = json.loads((tmp_path / out / f"run_{i:02d}.json").read_text())
            rep.pop("timing")
            blobs.append(json.dumps(rep, sort_keys=True))
        blobs.append((tmp_path / out / "scores.csv").read_text())
        blobs.append((tmp_path / out / "run_00.ckpt").read_bytes())
        stripped.append(blobs)
    ok = stripped[0] == stripped[1]
    report(11, "train-determinism", ok,
           "two invocations, identical reports/scores/checkpoints apart from timing")


# --- 12: attention-distribution contrast -------------------------------------------


def _cue_spans(data_dir):
    """``[lo, hi)`` map positions of each test example's planted cue phrase.

    The test split is the last part of the generator's record order, so test
    example ``i`` is cue-log record ``len(cues) - len(test) + i``; ``+1`` skips
    the aggregation slot prepended at encoding.
    """
    cues = [json.loads(line) for line in (data_dir / "cues.jsonl").read_text().splitlines()]
    test = [json.loads(line) for line in (data_dir / "test.jsonl").read_text().splitlines()]
    offset = len(cues) - len(test)
    spans = []
    for i, rec in enumerate(test):
        log = cues[offset + i]
        assert log["label"] == rec["label"], f"cue log misaligned at test example {i}"
        spans.append((log["position"] + 1, log["position"] + 1 + log["length"]))
    return spans


def _map_stats(settings, kind, checkpoint, out_dir, spans):
    """First-position mass, entropy and mean cue-span mass of one checkpoint's
    received-attention maps. The per-example rows are read back from the
    exported ``example_*.csv`` files."""
    summary = run_attnmap(settings, kind, "full", str(checkpoint), str(out_dir), limit=len(spans))
    received = np.array([
        np.loadtxt(out_dir / f"example_{i:03d}.csv", delimiter=",", skiprows=1)[:, 1]
        for i in range(summary["examples"])
    ])
    cue = np.mean([received[i, lo:hi].sum() for i, (lo, hi) in enumerate(spans)])
    return summary["position0_mean"], summary["entropy_mean"], float(cue)


def attention_contrast(settings, data_dir, pairs, out_root):
    """Judge check 12 on paired ``(full, baseline)`` checkpoints.

    Asserted, each in at least 7 of 10 pairs as in check 7: the baseline's
    first-position mass exceeds the enrichment head's, and the enrichment
    map's mass on the planted cue span exceeds the baseline's; also the
    enrichment map's mean cue-span mass exceeds the span's uniform share.
    Entropy is reported, not asserted. Returns ``(ok, detail)``.
    """
    spans = _cue_spans(data_dir)
    rows = []
    for i, (full_ckpt, base_ckpt) in enumerate(pairs):
        rows.append((
            _map_stats(settings, "inceptive", full_ckpt, out_root / f"maps_full_{i:02d}", spans),
            _map_stats(settings, "baseline", base_ckpt, out_root / f"maps_base_{i:02d}", spans),
        ))
    full = np.array([r[0] for r in rows])
    base = np.array([r[1] for r in rows])
    pos0_wins = int((base[:, 0] > full[:, 0]).sum())
    cue_wins = int((full[:, 2] > base[:, 2]).sum())
    flatter = int((full[:, 1] > base[:, 1]).sum())
    uniform = float(np.mean([hi - lo for lo, hi in spans])) / settings.train.seq_len
    _, p_pos0 = wilcoxon_signed_rank(base[:, 0], full[:, 0])
    _, p_cue = wilcoxon_signed_rank(full[:, 2], base[:, 2])
    ok = pos0_wins >= 7 and cue_wins >= 7 and full[:, 2].mean() > uniform
    detail = (
        f"paired seeds: first-position mass baseline>enrichment {pos0_wins}/{len(rows)} "
        f"(means {base[:, 0].mean():.4f} vs {full[:, 0].mean():.4f}, p={p_pos0:.4f}); "
        f"cue-span mass enrichment>baseline {cue_wins}/{len(rows)} "
        f"(means {full[:, 2].mean():.3f} vs {base[:, 2].mean():.3f}, p={p_cue:.4f}, "
        f"uniform share {uniform:.3f}); entropy, not asserted: enrichment>baseline "
        f"{flatter}/{len(rows)} (means {full[:, 1].mean():.3f} vs {base[:, 1].mean():.3f} nats)"
    )
    return ok, detail


def test_12_attention_distribution_contrast(protocol):
    root = protocol["root"]
    pairs = [
        (root / "run_full" / f"run_{i:02d}.ckpt", root / "run_base" / f"run_{i:02d}.ckpt")
        for i in range(len(protocol["full"]["runs"]))
    ]
    ok, detail = attention_contrast(protocol["settings"], root / "data", pairs, root)
    report(12, "attention-distribution-contrast", ok, detail)
