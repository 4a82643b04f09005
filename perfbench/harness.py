"""Job running, checking and summary statistics; imports no pcml code.

A job is one timed call into the program.  All jobs of a pass run back
to back and only then are their results checked, so neither the
checking time nor the cache entries a check creates reach the timings.

Between jobs a fixed reference loop is timed, before the first job and
after about every REFERENCE_EVERY_S of job time.  Job times are reported
at the reference speed: each job's latency is multiplied by REFERENCE_S
over the mean of the two reference timings around it.  On a shared host
whose speed changes within a second, this takes the host's speed out of
the figures, while a change to the program's own work still moves them
in full: the reference loop runs no program code.
"""

from __future__ import annotations

import gc
import json
import math
import resource
import statistics
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple

REFERENCE_EVERY_S = 0.02
# about the reference loop's fastest time on the 2-core Xeon with Python
# 3.11.7 this was tuned on, so that scaled times there read as the times
# of its fastest phases
REFERENCE_S = 1.2e-3


class Job(NamedTuple):
    kind: str
    replay: Dict[str, Any]  # the exact inputs, JSON-serialisable
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class PassTimings(NamedTuple):
    latencies_s: List[float]  # as measured
    scaled_s: List[float]  # at the reference speed
    results: List[Any]  # the result of each job, or the exception it raised
    reference_s: List[float]  # times of the reference loop, in order


def reference_loop() -> None:
    """A fixed mix of what pcml spends its time on: Fraction arithmetic,
    tuple-keyed dict updates and small sorts."""
    acc = Fraction(0)
    counts: Dict[tuple, int] = {}
    for i in range(400):
        acc += Fraction(i % 7 + 1, i % 5 + 2)
        key = (i % 31, i * 7 % 11, i % 3)
        counts[key] = counts.get(key, 0) + 1
        sorted([key, (1, 2, 3), (i, 0, 0)])


def time_reference() -> float:
    # a collection inside the loop would time the program's heap, not the host
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = time.perf_counter()
        reference_loop()
        return time.perf_counter() - t0
    finally:
        if enabled:
            gc.enable()


def run_jobs(jobs: List[Job]) -> PassTimings:
    """Run every job once, in order, timing only the call itself, with
    reference timings before the first job, after about every
    REFERENCE_EVERY_S of job time and after the last job."""
    latencies: List[float] = []
    scaled: List[float] = []
    results: List[Any] = []
    references = [time_reference()]
    clock = time.perf_counter
    segment: List[float] = []  # latencies since the last reference timing
    since_reference = 0.0
    for index, job in enumerate(jobs):
        t0 = clock()
        try:
            out = job.run()
        except Exception as exc:  # a raising job counts as failed, the pass goes on
            out = exc
        latency = clock() - t0
        latencies.append(latency)
        results.append(out)
        segment.append(latency)
        since_reference += latency
        if since_reference >= REFERENCE_EVERY_S or index == len(jobs) - 1:
            references.append(time_reference())
            speed = 2 * REFERENCE_S / (references[-2] + references[-1])
            scaled += [x * speed for x in segment]
            segment = []
            since_reference = 0.0
    return PassTimings(latencies, scaled, results, references)


def replay_line(workload: str, seed: int, index: int, job: Job, reason: str) -> str:
    return "REPLAY " + json.dumps(
        {"workload": workload, "seed": seed, "job": index, "kind": job.kind,
         "inputs": job.replay, "reason": reason},
        sort_keys=True,
    )


def check_jobs(workload: str, seed: int, jobs: List[Job], results: List[Any]) -> List[str]:
    """Check every result; return one replay line per failed job."""
    failures = []
    for index, (job, out) in enumerate(zip(jobs, results)):
        if isinstance(out, Exception):
            reason = f"raised {type(out).__name__}: {out}"
        else:
            try:
                reason = None if job.check(out) else "wrong answer"
            except Exception as exc:
                reason = f"check raised {type(exc).__name__}: {exc}"
        if reason is not None:
            failures.append(replay_line(workload, seed, index, job, reason))
    return failures


def measure(workload: str, seed: int, jobs: List[Job], launched: float, tracer=None) -> Dict[str, Any]:
    """One pass: run the jobs (traced if a tracer is given), then check them.

    ``launched`` is the ``time.monotonic()`` reading taken just before the
    interpreter running this pass was started.  Times, per-layer ones
    included, are at the reference speed; ``measured_wall_s`` is the
    unscaled sum of job latencies.
    """
    started = time.monotonic()
    if tracer is not None:
        tracer.recording = True
    timings = run_jobs(jobs)
    if tracer is not None:
        tracer.recording = False
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # set-up ran just before the first reference timings
    setup_scale = REFERENCE_S / statistics.median(timings.reference_s[:3])
    scale = sum(timings.scaled_s) / sum(timings.latencies_s)
    layers = tracer.metrics() if tracer is not None else {}
    layers = {name: v * scale if name.endswith("_s") else v for name, v in layers.items()}
    replay = check_jobs(workload, seed, jobs, timings.results)
    scaled = timings.scaled_s
    return {
        "setup_s": (started - launched) * setup_scale,
        "wall_s": sum(scaled),
        "job_p50_ms": percentile(scaled, 0.5) * 1e3,
        "job_p90_ms": percentile(scaled, 0.9) * 1e3,
        "peak_rss_mib": peak_rss_mib,
        "measured_wall_s": sum(timings.latencies_s),
        "reference_ms": statistics.median(timings.reference_s) * 1e3,
        "attempted": len(jobs),
        "failed": len(replay),
        "replay": replay,
        "layers": layers,
    }


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]
