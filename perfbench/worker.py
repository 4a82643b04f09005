"""One cold pass of a workload in a fresh interpreter.

Run by run.py, once per pass, as
``python3 perfbench/worker.py --workload W --seed S --trace 0|1 --launched T``.
Imports pcml from the ``src`` directory of the checkout this file sits
in, builds the seeded jobs, measures them with harness.measure and
prints the pass as one JSON line.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def import_pcml():
    package = SRC / "pcml"
    if not (package / "__init__.py").is_file():
        raise SystemExit(f"worker: no pcml sources at {package}")
    sys.path.insert(0, str(SRC))
    import pcml
    import pcml.equivalence  # noqa: F401  (merge_order is not exported at the top level)

    if Path(pcml.__file__).resolve().parent != package.resolve():
        raise SystemExit(f"worker: imported pcml from {pcml.__file__}, not {package}")
    return pcml


def main(argv=None) -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--launched", type=float, required=True)
    args = parser.parse_args(argv)

    pcml = import_pcml()
    import harness
    import workloads

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer(pcml)
        tracer.install()
    jobs = workloads.build(args.workload, pcml, args.seed)
    result = harness.measure(args.workload, args.seed, jobs, args.launched, tracer)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
