"""pcml benchmark: cold-start workloads, end-to-end and per-layer metrics.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

A run repeats cold passes of one workload for about S seconds.  Each
pass is a fresh single-threaded interpreter (perfbench/worker.py), so
every lru_cache in pcml starts empty, and the same seed gives the same
jobs, and the same hash seed, in every pass.  Times are at the reference
speed (see harness.py); every metric is the median over the passes.

With --trace 0 every pass is untraced and the metrics are the
end-to-end ones.  With --trace 1 untraced and traced passes alternate;
the metrics are the per-layer ones from the traced passes, plus
trace_overhead_ratio (median traced wall_s / median untraced wall_s).

Before the result, stdout gets one REPLAY line per failed job and one
STAMP line.  The last line is the JSON result.  Exit code 2 means the
checkout has no pcml sources, 1 that a pass could not run.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from workloads import WORKLOADS


HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "pcml"
END_TO_END = {"wall_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms", "setup_s": "s", "peak_rss_mib": "MiB"}
RUN_LIMIT_S = 170  # a run must end within 180 s, a hung pass included


class PassFailed(Exception):
    pass


def run_pass(workload: str, seed: int, traced: bool, timeout: float) -> Dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--launched", repr(time.monotonic())]
    # a fixed hash seed gives every pass the same set and dict orders in pcml
    env = dict(os.environ, PYTHONHASHSEED=str(seed % 2**32))
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassFailed(f"a pass ran past {timeout:.0f} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise PassFailed(f"a pass exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_passes(workload: str, seed: int, seconds: float, trace: bool) -> List[Tuple[bool, Dict]]:
    """Cold passes until the next one would end after ``seconds``; with
    tracing, untraced and traced passes alternate, at least one each."""
    seconds = min(seconds, RUN_LIMIT_S)
    start = time.monotonic()
    passes: List[Tuple[bool, Dict]] = []
    while True:
        traced = trace and len(passes) % 2 == 1
        remaining = RUN_LIMIT_S - (time.monotonic() - start)
        passes.append((traced, run_pass(workload, seed, traced, remaining)))
        elapsed = time.monotonic() - start
        if (not trace or len(passes) >= 2) and elapsed * (len(passes) + 1) / len(passes) > seconds:
            return passes


def cpu_model() -> Optional[str]:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from .git; None outside a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest() -> str:
    """sha256 over pcml's sources, which names the code also outside git."""
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*.py")):
        digest.update(path.relative_to(PACKAGE).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def summarize(passes: List[Tuple[bool, Dict]], trace: bool) -> Dict:
    """The result object: each metric aggregated over the run's passes."""
    plain = [p for traced, p in passes if not traced]
    attempted = sum(p["attempted"] for _, p in passes)
    failed = sum(p["failed"] for _, p in passes)
    metrics: Dict[str, Dict] = {}
    if trace:
        traced = [p for is_traced, p in passes if is_traced]
        names = sorted({name for p in traced for name in p["layers"]})
        for name in names:
            values = [p["layers"][name] for p in traced if name in p["layers"]]
            metrics[name] = {"value": statistics.median(values), "unit": layer_unit(name)}
        ratio = statistics.median(p["wall_s"] for p in traced) / statistics.median(p["wall_s"] for p in plain)
        metrics["trace_overhead_ratio"] = {"value": ratio, "unit": "ratio"}
    else:
        for name, unit in END_TO_END.items():
            metrics[name] = {"value": statistics.median(p[name] for p in plain), "unit": unit}
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def report(args, passes: List[Tuple[bool, Dict]]) -> None:
    """Print the replay lines, the stamp and, last, the result."""
    replay: List[str] = []
    for _, p in passes:
        replay += [line for line in p["replay"] if line not in replay]
    for line in replay:
        print(line)
    result = summarize(passes, args.trace)
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "python": platform.python_version(), "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "git_commit": git_commit(), "source_sha256": source_digest(),
        "passes": len(passes), "jobs_per_pass": passes[0][1]["attempted"],
        "pass_wall_s": [round(p["wall_s"], 4) for _, p in passes],
        "pass_measured_wall_s": [round(p["measured_wall_s"], 4) for _, p in passes],
        "pass_reference_ms": [round(p["reference_ms"], 4) for _, p in passes],
        "fail_ratio": result["failed"] / result["attempted"],
    }
    print("STAMP " + json.dumps(stamp, sort_keys=True))
    print(json.dumps(result))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"run.py: no pcml sources at {PACKAGE}", file=sys.stderr)
        return 2
    try:
        passes = run_passes(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    report(args, passes)
    return 0


if __name__ == "__main__":
    sys.exit(main())
