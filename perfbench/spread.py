"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py desk_train 1 2 3 4 5 6 7 8 9 10

Reads the records that ``run.py --trace 0`` left in ``.perfbench_out/`` for
the given workload and seeds, and prints per metric the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the distance between
them as a share of the median, next to the metric's bound in
``BENCHMARK.json``. Prints ``OVER`` where that share exceeds the bound.
"""

from __future__ import annotations

import json
import os
import statistics
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def main(argv: list[str]) -> int:
    workload, seeds = argv[0], argv[1:]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bounds = {m["name"]: m["bound"] for m in json.load(fh)["end_to_end"]}
    values: dict[str, list[float]] = {}
    for seed in seeds:
        path = os.path.join(ROOT, ".perfbench_out", f"{workload}-seed{seed}-trace0.json")
        with open(path, encoding="utf-8") as fh:
            for name, metric in json.load(fh)["result"]["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
    over = 0
    print(f"{workload}, {len(seeds)} seeds")
    for name, vals in values.items():
        q1, med, q3 = statistics.quantiles(vals, n=4)
        share = (q3 - q1) / statistics.median(vals)
        flag = "OVER" if share > bounds[name] and name != "setup_s" else ""
        over += bool(flag)
        print(f"  {name:20s} median {statistics.median(vals):12.6g}  q1 {q1:12.6g}  q3 {q3:12.6g}"
              f"  spread {share:7.4f}  bound {bounds[name]:5.2f} {flag}")
    return 1 if over else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
