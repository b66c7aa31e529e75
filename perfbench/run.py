"""Benchmark of the inceptive library.

    python3 perfbench/run.py --workload desk_train --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout. One call generates the workload's
inputs from ``--seed``, runs the correctness gates, measures the workload in
a child process (``measure.py``) and prints every metric by name with its
unit. The last line of standard output is the result:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
A fuller record (environment, input fingerprint, gates, sample counts) is
printed on the line before it and written to ``.perfbench_out/``.

Workloads: ``desk_train`` (the acceptance protocol's shape, toy encoder
trained end to end), ``paper_train`` (the head alone on frozen d=768, L=128
hidden states) and ``paper_eval`` (checkpoint restore, eval and
attention-map export at the same shapes).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import time

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("desk_train", "paper_train", "paper_eval")
DEADLINE_S = 165.0  # the whole call must end within 180 s


def environment(nproc: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=False
        )
        commit = done.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": nproc,
        "git_commit": commit,
    }


def measure(args, inputs_dir: str, result_path: str, spans_path: str, nproc: int, timeout: float) -> dict:
    """Run ``measure.py`` as the single workload process, with BLAS limited
    to ``nproc`` threads, and return what it wrote."""
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(min(int(env.get(var) or nproc), nproc))
    cmd = [
        sys.executable, os.path.join(HERE, "measure.py"),
        "--workload", args.workload, "--inputs", inputs_dir, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace), "--result", result_path,
    ]
    if args.trace:
        cmd += ["--spans", spans_path]
    done = subprocess.run(cmd, env=env, stdout=sys.stderr, timeout=timeout, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"workload process exited with code {done.returncode}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def _without_lists(tree):
    """``tree`` with raw sample lists replaced by their length, for printing."""
    if isinstance(tree, dict):
        return {k: _without_lists(v) for k, v in tree.items() if not isinstance(v, list) or k != "ms"}
    return tree


def main(argv: list[str] | None = None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="inceptive benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every shape, for the self-test")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "inceptive", "__init__.py")):
        print(f"perfbench: no inceptive sources under {src}; run from a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    import gates
    import inputs

    nproc = len(os.sched_getaffinity(0))
    work = os.path.join(ROOT, ".perfbench_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    out_dir = os.path.join(ROOT, ".perfbench_out")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    try:
        paths = inputs.make_inputs(args.workload, os.path.join(work, "inputs"), args.seed, args.scale)
        if args.workload == "paper_eval":
            checks = [gates.batched_equals_single(paths["config"], paths["checkpoint"])]
        else:
            checks = [gates.head_gradients()]
        timeout = DEADLINE_S - (time.perf_counter() - started)
        child = measure(args, os.path.join(work, "inputs"), os.path.join(work, "result.json"),
                        stem + ".spans.jsonl", nproc, timeout)
        if args.workload == "paper_eval":
            checks.append(gates.attention_rows_sum_to_one(os.path.join(work, "inputs", "out", "attnmap")))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if not child["metrics"]:
        print(f"perfbench: the workload failed:\n{child['error']}", file=sys.stderr)
        return 1
    attempted = child["ops"]["attempted"] + len(checks)
    failed = child["ops"]["failed"] + sum(not ok for _, ok, _ in checks)
    env = environment(nproc)
    env["blas_threads"] = child["blas_threads"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "inputs_sha256": paths["sha256"],
        "environment": env,
        "gates": [{"name": n, "passed": ok, "detail": d} for n, ok, d in checks],
        "error_rate": failed / attempted,
        "samples": child["samples"],
        "wall_s": time.perf_counter() - started,
    }
    result = {
        "correct": failed == 0 and child["error"] is None,
        "attempted": attempted,
        "failed": failed,
        "metrics": child["metrics"],
    }
    with open(stem + ".json", "w", encoding="utf-8") as fh:
        json.dump({**record, "result": result}, fh, indent=2)
    for name, metric in child["metrics"].items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"error_rate = {record['error_rate']!r} fraction ({failed} of {attempted} operations failed)")
    print(json.dumps({**record, "samples": _without_lists(record["samples"])}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
