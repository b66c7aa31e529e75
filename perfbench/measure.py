"""The measured workload process, started by ``run.py`` once the inputs
exist. It drives the library only through ``inceptive.harness`` entry
points and times them from outside.

    python3 perfbench/measure.py --workload desk_train --inputs DIR --seed 1 \
        --seconds 20 --trace 0 --result FILE [--spans FILE]

With ``--trace 0`` it measures set-up time, then runs whole units of work
(one ``run_train`` call, or one ``run_eval`` plus one ``run_attnmap`` call)
until ``--seconds`` have passed, recording only the boundary spans the
end-to-end metrics need. With ``--trace 1`` it runs the same units for half
the time with boundary spans only, then for the other half with every layer
wrapped, and reports per-layer metrics from the second half and the cost of
tracing from the comparison of the two.
"""

from __future__ import annotations

import argparse
import ctypes
import gc
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from inceptive import harness  # noqa: E402
from inceptive.model import HeadOnlyClassifier, SequenceClassifier  # noqa: E402

import spans as sp  # noqa: E402

# Set-up is measured in a round before every unit, so that it samples the
# machine over the whole run like the steps do: at least one repetition a
# round, more while the round is under SETUP_ROUND_S and has fewer than
# SETUP_ROUND_MAX, and after the last unit as many as it takes to reach
# SETUP_MIN_REPS.
SETUP_ROUND_S, SETUP_ROUND_MAX, SETUP_MIN_REPS = 0.15, 5, 5
ATTNMAP_LIMIT = 16


class SetupDone(Exception):
    """Raised at a workload's first model step to end a set-up-only call."""


def _forward_stop(*args, **kwargs):
    raise SetupDone(time.perf_counter())


def measure_setup(call) -> float:
    """Seconds from calling ``call`` to its first ``model.forward``; the call
    is abandoned there. A full garbage collection first starts every
    repetition from the same collector state."""
    gc.collect()
    saved = [(cls, cls.forward) for cls in (SequenceClassifier, HeadOnlyClassifier)]
    for cls, _ in saved:
        cls.forward = _forward_stop
    try:
        t0 = time.perf_counter()
        call()
    except SetupDone as done:
        return done.args[0] - t0
    finally:
        for cls, forward in saved:
            cls.forward = forward
    raise RuntimeError("workload returned without reaching a model step")


class Workload:
    """One unit of work per ``unit(i)`` call, through harness entry points."""

    def __init__(self, name: str, inputs: str, seed: int):
        self.name = name
        self.inputs = inputs
        self.seed = seed
        self.settings = harness.load_config(os.path.join(inputs, "config.json"))
        self.checkpoint = os.path.join(inputs, "model.ckpt")
        self.accuracy = None

    @property
    def training(self) -> bool:
        return self.name != "paper_eval"

    def _out(self, i: int, part: str = "") -> str:
        return os.path.join(self.inputs, "out", f"unit{i}{part}")

    def first_call(self):
        """The call whose set-up ``setup_s`` measures."""
        if self.training:
            return lambda: harness.run_train(self.settings, "inceptive", "full", 1, self.seed, self._out(0, "s"))
        return lambda: harness.run_eval(self.settings, "inceptive", "full", self.checkpoint, self._out(0, "s"))

    def unit(self, i: int) -> None:
        if self.training:
            out = self._out(i)
            harness.run_train(self.settings, "inceptive", "full", 1, self.seed + i, out)
            if self.accuracy is None:
                with open(os.path.join(out, "run_00.json"), encoding="utf-8") as fh:
                    self.accuracy = json.load(fh)["best_value"]
            return
        payload = harness.run_eval(self.settings, "inceptive", "full", self.checkpoint, self._out(i))
        if self.accuracy is None:
            self.accuracy = payload["test"]["accuracy"]
        harness.run_attnmap(
            self.settings, "inceptive", "full", self.checkpoint, self.attn_dir, ATTNMAP_LIMIT
        )

    @property
    def attn_dir(self) -> str:
        return os.path.join(self.inputs, "out", "attnmap")


def setup_round(work: Workload, setups: list[float]) -> None:
    """One round of set-up repetitions, appended to ``setups``."""
    t0 = time.perf_counter()
    taken = 0
    while taken == 0 or (taken < SETUP_ROUND_MAX and time.perf_counter() - t0 < SETUP_ROUND_S):
        setups.append(measure_setup(work.first_call()))
        taken += 1


def run_phase(work: Workload, tracer: sp.Tracer, seconds: float, first_unit: int, setups=None) -> dict:
    """Run whole units while at least half of the last unit's time is left
    of ``seconds`` (at least one unit), so the phase ends within half a unit
    of ``seconds``. With a ``setups`` list, a set-up round, untraced, comes
    before each unit. Returns the unit count and, if a unit raised, its
    traceback."""
    t0 = time.perf_counter()
    units, error, unit_s = 0, None, 0.0
    while units == 0 or time.perf_counter() - t0 + unit_s / 2 < seconds:
        if setups is not None:
            with tracer.paused():
                setup_round(work, setups)
        start = time.perf_counter()
        try:
            work.unit(first_unit + units)
        except Exception:  # a failing unit is counted and reported, not fatal
            error = traceback.format_exc()
            break
        finally:
            units += 1
            unit_s = time.perf_counter() - start
    tracer.uninstall()
    return {"units": units, "error": error, "wall_s": time.perf_counter() - t0}


def operations(spans: list, error: str | None) -> dict:
    """Attempted and failed operations: train steps, eval-mode batches and
    file loads, plus one loss check per training unit (every step loss
    finite and the last below the first)."""
    attempted = failed = 0
    unit_losses: list[list[float]] = []
    step_ok = True
    for s in spans:
        name, info = s[sp.NAME], s[sp.INFO]
        if name == "harness.run_train":
            unit_losses.append([])
        elif name == "model.forward" and info is not None:
            if info.train:
                step_ok = info.finite
            else:
                attempted += 1
                failed += not info.finite
        elif name == "training.loss" and info is not None:
            unit_losses[-1].append(info)
            step_ok = step_ok and math.isfinite(info)
        elif name == "training.adamw_step":
            attempted += 1
            failed += not step_ok
        elif name in ("encoder.load_embeddings", "data.load_dataset", "data.load_vocab", "tensor.load_checkpoint"):
            attempted += 1
    for losses in unit_losses:
        if losses:
            attempted += 1
            failed += not (all(math.isfinite(x) for x in losses) and losses[-1] < losses[0])
    if error is not None:
        attempted += 1
        failed += 1
    return {"attempted": attempted, "failed": failed}


def _latency(durations_s: list[float]) -> dict:
    ms = [1000.0 * x for x in durations_s]
    tail, pct = sp.tail(ms)
    return {"p50": statistics.median(ms), "tail": tail, "tail_percentile": pct, "samples": len(ms), "ms": ms}


def _train_rate(spans: list) -> float:
    """Training samples per second over whole ``train_epoch`` calls (per-step
    loop overhead included, validation excluded), leaving out the first
    epoch of the phase as cold."""
    samples: dict[int, int] = {}
    for s in spans:
        if s[sp.NAME] == "model.forward" and s[sp.INFO].train:
            samples[s[sp.PARENT]] = samples.get(s[sp.PARENT], 0) + s[sp.INFO].batch
    epochs = sorted(samples)
    warm = epochs[1:] or epochs
    return sum(samples[i] for i in warm) / sum(spans[i][sp.END] - spans[i][sp.START] for i in warm)


def unit_windows(spans: list, training: bool) -> list[tuple[float, float, int]]:
    """The units of work latency is taken over: train steps, or evaluate
    batches on a workload that does not train."""
    return sp.train_steps(spans) if training else sp.eval_batches(spans)


def end_to_end(spans: list, workload: Workload, setups: list[float]) -> tuple[dict, dict]:
    """End-to-end metrics and their sample counts. The first step and the
    first eval batch of the phase are left out as cold."""
    batch_size = workload.settings.train.batch_size
    evals = sp.eval_batches(spans)[1:]
    full_evals = [e for e in evals if e[2] == batch_size]
    eval_lat = _latency([e[1] - e[0] for e in full_evals])
    eval_rate = sum(e[2] for e in evals) / sum(e[1] - e[0] for e in evals)
    if workload.training:
        step_lat = _latency([s[1] - s[0] for s in sp.train_steps(spans)[1:]])
        rate = _train_rate(spans)
    else:
        step_lat, rate = eval_lat, eval_rate
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "step_ms_p50": (step_lat["p50"], "ms"),
        "step_ms_tail": (step_lat["tail"], "ms"),
        "samples_per_s": (rate, "samples/s"),
        "eval_batch_ms_p50": (eval_lat["p50"], "ms"),
        "eval_samples_per_s": (eval_rate, "samples/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "accuracy": (float(workload.accuracy), "fraction"),
    }
    samples = {
        "setup": setups,
        "step": step_lat,
        "eval_batch": eval_lat,
        "step_kind": "train step" if workload.training else "eval batch",
    }
    return metrics, samples


# Per-layer metrics taken over the spans inside a unit of work: a train step
# on the training workloads, an evaluate batch on paper_eval.
STEP_SELF = (
    "encoder.encode_forward", "encoder.encode_backward", "encoder.embed", "encoder.embed_backward",
    "layers.mha_forward", "layers.mha_backward", "layers.scaled_dot_product_attention",
    "layers.sdpa_backward", "layers.conv1d_forward", "layers.conv1d_backward",
    "layers.batchnorm_apply", "layers.batchnorm_backward", "layers.dropout", "layers.linear",
    "layers.linear_backward", "layers.layer_norm", "layers.layer_norm_backward",
    "head.head_forward", "head.head_backward", "head.inception_forward", "head.inception_backward",
    "head.enrich", "head.adaptive_avg_pool", "head.attention_received",
    "training.adamw_step", "training.loss", "tensor.clip_global_norm", "tensor.zero_grads",
)
STEP_CALLS = ("layers.mha_forward", "layers.conv1d_forward", "layers.batchnorm_apply", "head.attention_received")
STEP_TOTAL = ("model.forward", "model.backward")
# Per workload call (one run_train, run_eval or run_attnmap).
SETUP_SELF = (
    "encoder.load_embeddings", "tensor.load_checkpoint", "data.load_dataset", "data.encode_batch",
    "harness.load_data", "harness.build_model",
)


def per_layer(spans: list, workload: Workload, untraced_step_ms: float) -> tuple[dict, dict]:
    inside = sp.scopes(spans, workload.training)
    own = sp.self_times(spans)
    windows = unit_windows(spans, workload.training)
    if workload.training:
        roots = [
            i for i, s in enumerate(spans)
            if s[sp.PARENT] >= 0 and spans[s[sp.PARENT]][sp.NAME] == "training.train_epoch"
        ]
    else:
        roots = [
            i for i, s in enumerate(spans)
            if s[sp.PARENT] >= 0 and inside[s[sp.PARENT]] and spans[s[sp.PARENT]][sp.NAME] == "model.forward"
        ]
    n_units = len(windows)
    self_ms: dict[str, float] = {}
    total_ms: dict[str, float] = {}
    calls: dict[str, int] = {}
    clip_fired = clip_calls = 0
    for i, s in enumerate(spans):
        if not inside[i]:
            continue
        name = s[sp.NAME]
        self_ms[name] = self_ms.get(name, 0.0) + 1000.0 * own[i]
        total_ms[name] = total_ms.get(name, 0.0) + 1000.0 * (s[sp.END] - s[sp.START])
        calls[name] = calls.get(name, 0) + 1
        if name == "tensor.clip_global_norm":
            clip_calls += 1
            clip_fired += bool(s[sp.INFO])
    entry_calls = sum(s[sp.NAME] in ("harness.run_train", "harness.run_eval", "harness.run_attnmap") for s in spans)
    setup_self: dict[str, float] = {}
    for i, s in enumerate(spans):
        if s[sp.NAME] in SETUP_SELF:
            setup_self[s[sp.NAME]] = setup_self.get(s[sp.NAME], 0.0) + 1000.0 * own[i]
    eval_calls = sum(s[sp.NAME] == "training.evaluate" for s in spans)
    scoring = sum(1000.0 * own[i] for i, s in enumerate(spans) if s[sp.NAME] == "metrics.scoring")
    unit_ms = sum(1000.0 * (w[1] - w[0]) for w in windows)
    covered_ms = sum(1000.0 * (spans[i][sp.END] - spans[i][sp.START]) for i in roots)
    traced_step_ms = statistics.median([1000.0 * (w[1] - w[0]) for w in windows[1:] or windows])

    metrics: dict[str, tuple] = {}
    for name in STEP_TOTAL:
        metrics[f"{name}.ms"] = (total_ms.get(name, 0.0) / n_units, "ms")
    for name in STEP_SELF:
        metrics[f"{name}.self_ms"] = (self_ms.get(name, 0.0) / n_units, "ms")
    for name in STEP_CALLS:
        metrics[f"{name}.calls"] = (calls.get(name, 0) / n_units, "count")
    metrics["training.clip_fired_frac"] = (clip_fired / clip_calls if clip_calls else 0.0, "fraction")
    for name in SETUP_SELF:
        metrics[f"{name}.self_ms"] = (setup_self.get(name, 0.0) / entry_calls, "ms")
    metrics["metrics.scoring.self_ms"] = (scoring / eval_calls if eval_calls else 0.0, "ms")
    metrics["trace.coverage"] = (covered_ms / unit_ms, "fraction")
    metrics["trace.overhead"] = (traced_step_ms / untraced_step_ms - 1.0, "fraction")
    every_layer = {
        name: {"self_ms_per_unit": self_ms[name] / n_units, "calls_per_unit": calls[name] / n_units}
        for name in sorted(self_ms)
    }
    unit = "train step" if workload.training else "eval batch"
    return metrics, {"units_traced": n_units, "unit": unit, "all_spans_in_unit": every_layer}


def blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the loaded library; None if the
    library cannot be found or asked."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and ".so" in line}
    except OSError:
        return None
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--inputs", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--spans", default=None, help="write the traced spans here as JSON lines")
    args = parser.parse_args(argv)

    work = Workload(args.workload, args.inputs, args.seed)
    out: dict = {"blas_threads": blas_threads()}
    if args.trace == 0:
        setups: list[float] = []
        tracer = sp.Tracer().install(sp.BOUNDARY, sp.BOUNDARY_METHODS)
        phase = run_phase(work, tracer, args.seconds, 0, setups)
        while len(setups) < SETUP_MIN_REPS:
            setups.append(measure_setup(work.first_call()))
        out["ops"] = operations(tracer.spans, phase["error"])
        if phase["error"] is None:
            out["metrics"], out["samples"] = end_to_end(tracer.spans, work, setups)
    else:
        plain = sp.Tracer().install(sp.BOUNDARY, sp.BOUNDARY_METHODS)
        first = run_phase(work, plain, args.seconds / 2, 0)
        traced = sp.Tracer().install(sp.LAYERS, sp.LAYER_METHODS)
        second = run_phase(work, traced, args.seconds / 2, first["units"])
        ops = [operations(plain.spans, first["error"]), operations(traced.spans, second["error"])]
        out["ops"] = {k: ops[0][k] + ops[1][k] for k in ("attempted", "failed")}
        phase = {"error": first["error"] or second["error"]}
        if phase["error"] is None:
            untraced_ms = 1000.0 * statistics.median([w[1] - w[0] for w in unit_windows(plain.spans, work.training)[1:]])
            out["metrics"], out["samples"] = per_layer(traced.spans, work, untraced_ms)
        if args.spans:
            with open(args.spans, "w", encoding="utf-8") as fh:
                for s in traced.spans:
                    fh.write(json.dumps(s[:4]) + "\n")
    out["error"] = phase["error"]
    out["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in out.get("metrics", {}).items()}
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(out, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
