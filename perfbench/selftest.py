"""Self-test of the benchmark at tiny shapes.

    python3 perfbench/selftest.py

Runs every workload of ``BENCHMARK.json`` untraced and traced at
``--scale tiny`` for one second each, and checks each result line: every
listed metric is present with its unit and a finite value, metric names use
only ``[A-Za-z0-9_.-]``, no operation failed, and on the traced runs
``trace.coverage`` is at least 0.95. Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import math
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9_.-]+")
MIN_COVERAGE = 0.95


def check(workload: str, trace: int, expected: list[dict]) -> list[str]:
    cmd = [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload, "--seed", "3",
           "--seconds", "1", "--trace", str(trace), "--scale", "tiny"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180, check=False)
    if done.returncode != 0:
        return [f"exit code {done.returncode}: {done.stderr.strip()[-400:]}"]
    result = json.loads(done.stdout.strip().splitlines()[-1])
    problems = []
    if not result["correct"] or result["failed"] != 0 or result["attempted"] < 1:
        problems.append(f"correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
    for spec in expected:
        got = result["metrics"].get(spec["name"])
        if got is None:
            problems.append(f"missing metric {spec['name']}")
        elif got["unit"] != spec["unit"] or not math.isfinite(got["value"]):
            problems.append(f"{spec['name']}: {got}")
    for name in result["metrics"]:
        if not NAME.fullmatch(name):
            problems.append(f"bad metric name {name!r}")
    if trace and result["metrics"]["trace.coverage"]["value"] < MIN_COVERAGE:
        problems.append(f"trace.coverage {result['metrics']['trace.coverage']['value']:.4f} < {MIN_COVERAGE}")
    return problems


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    failures = 0
    for workload in (w["name"] for w in bench["workloads"]):
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            problems = check(workload, trace, bench[key])
            failures += bool(problems)
            print(f"{workload} trace={trace}: {'ok' if not problems else 'FAIL'}")
            for p in problems:
                print(f"  {p}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
