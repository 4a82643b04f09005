"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workloads theta merge --seeds 1 2 3 4 5 --seconds 30

Runs run.py once per (workload, seed), untraced, and prints for every
end-to-end metric the median over the runs and the spread: the
distance between the first and third quartile as a share of the median
(statistics.quantiles with n=4), next to the bound in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workloads", nargs="+", required=True)
    parser.add_argument("--seeds", nargs="+", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    args = parser.parse_args()
    bounds = {m["name"]: m["bound"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for workload in args.workloads:
        values = {}
        durations = []
        for seed in args.seeds:
            t0 = time.monotonic()
            out = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
                 "--seconds", str(args.seconds), "--trace", "0"],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            ).stdout.splitlines()
            durations.append(time.monotonic() - t0)
            result = json.loads(out[-1])
            if not result["correct"]:
                print(f"{workload} seed={seed}: {result['failed']} of {result['attempted']} jobs failed")
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        print(f"{workload}: {len(args.seeds)} runs, longest {max(durations):.1f} s")
        for name, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            print(f"  {name:14s} median {med:10.4f}  spread {(q3 - q1) / med:6.3f}  bound {bounds.get(name)}"
                  f"  runs {' '.join(f'{v:.4g}' for v in vals)}")


if __name__ == "__main__":
    main()
