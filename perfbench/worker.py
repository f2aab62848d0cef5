"""One run of one workload, in a fresh process.

Usage, from the repository root:
    PYTHONPATH=src:. python3 perfbench/worker.py WORKLOAD SEED
        [--cpu N] [--cal PATH] [--trace] [--setup-only] [--flip N]

The parent (run.py) starts this script once per sample, so every sample
imports ``homq`` and builds its instances from cold caches, as a user's
first call does.  It prints one JSON object: the wall and CPU times of
the sample and of its set-up (``import homq`` plus building every
instance), peak memory, and one entry per step with its wall-clock span
and its verdict mismatch, if any.  With ``--trace`` the per-layer
counters of ``trace.Tracer`` are added.  ``--flip N`` inverts the
expected status of the first check of step N, which the oracle self-test
uses to show that a wrong verdict is caught.  ``--cpu N`` pins the
sample to CPU N.  ``--cal PATH`` reads the record of the calibration
loop on that CPU (calibrate.py) and adds the loop's rate over the set-up
and over the whole sample.
"""

import json
import os
import resource
import sys
import time

from perfbench.calibrate import Speed
from perfbench.workloads import WORKLOADS, mismatch

# calibration units the rate of a window must cover at least
MIN_UNITS = 16


def main(argv):
    start, cpu_start = time.perf_counter(), time.process_time()
    speed = Speed(argv[argv.index("--cal") + 1]) if "--cal" in argv else None
    mark = speed.read() if speed is not None else None
    workload, seed = argv[0], int(argv[1])
    trace = "--trace" in argv
    flip = int(argv[argv.index("--flip") + 1]) if "--flip" in argv else None
    if "--cpu" in argv:
        os.sched_setaffinity(0, {int(argv[argv.index("--cpu") + 1])})
    import homq.comodule  # imports every other module of the package
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(homq.__file__).startswith(src + os.sep):
        raise SystemExit(f"homq imported from {homq.__file__}, not from {src}")
    build, steps = WORKLOADS[workload](seed)
    if flip is not None:
        _flip(steps[flip])
    tracer = None
    if trace:
        from perfbench.trace import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        ctx = build()
        out = {"setup_wall_s": time.perf_counter() - start,
               "setup_cpu_s": time.process_time() - cpu_start}
        if speed is not None:
            setup_mark = speed.read_after(mark, MIN_UNITS)
            out["setup_rate"] = Speed.rate(mark, setup_mark)
        if "--setup-only" not in argv:
            out["steps"] = _run_steps(steps, ctx, start, tracer)
            out["wall_s"] = time.perf_counter() - start
            out["cpu_s"] = time.process_time() - cpu_start
            if speed is not None:
                out["rate"] = Speed.rate(
                    mark, speed.read_after(setup_mark, MIN_UNITS))
    finally:
        if tracer is not None:
            tracer.restore()
    out["peak_rss_mb"] = resource.getrusage(
        resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        out["trace"] = {"calls": dict(tracer.calls),
                        "self_ns": dict(tracer.self_ns),
                        "inclusive_ns": dict(tracer.inclusive_ns),
                        "distinct": {k: len(v)
                                     for k, v in tracer.distinct.items()},
                        "scalar": dict(tracer.scalar)}
    print(json.dumps(out))


def _run_steps(steps, ctx, start, tracer):
    clock = time.perf_counter
    results = []
    for step in steps:
        report = error = None
        before = dict(tracer.scalar) if tracer is not None else None
        t0 = clock()
        try:
            report = step.call(ctx)
        except Exception as exc:  # a refusal or a crash; the oracle decides
            error = exc
        t1 = clock()
        # serialize the report as a user would, then read the verdict
        checks = report.to_json()["checks"] if report is not None else None
        problem = mismatch(step, checks, error)
        witness_chars = sum(len(json.dumps(c["witness"], sort_keys=True))
                            for c in checks or () if "witness" in c)
        result = {"label": step.label, "family": step.family,
                  "start_s": t0 - start, "end_s": t1 - start,
                  "mismatch": problem, "witness_chars": witness_chars}
        if tracer is not None:
            result["scalar"] = {k: v - before.get(k, 0)
                                for k, v in tracer.scalar.items()}
        results.append(result)
    return results


def _flip(step):
    if step.raises:
        step.raises = "NoSuchError"
        return
    name = sorted(step.expect)[0]
    status, where = step.expect[name]
    step.expect = dict(step.expect)
    step.expect[name] = ("pass" if status == "fail" else "fail", where)


if __name__ == "__main__":
    main(sys.argv[1:])
