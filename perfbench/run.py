"""Time-to-verdict benchmark for homq.

Usage, from the repository root:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads (see workloads.py and NOTES.md): qm2-pass, qm2-fail, planes,
zn13.  Each sample is one fresh single-threaded process (worker.py) that
imports homq from ./src, builds every instance and runs the workload's
verifier calls, so caches start cold as they do for a user.  Samples run
one after another until S seconds have passed.  Each CPU the samples run
on also runs a calibration loop (calibrate.py), and every time is the
sample's CPU time rescaled to the reference host speed of that loop.

--trace 0 prints the end-to-end metrics, as medians over the samples:
run_s (one full sample), setup_s (import plus instance building; extra
set-up-only samples are added to its median) and peak_rss_mb.
--trace 1 alternates untraced and traced samples and prints the
per-layer metrics; it fails if the traced counts differ between samples.
Either way every verdict is checked against the oracle, spans of every
sample and step are written to .perfbench/, and the last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

import argparse
import contextlib
import json
import os
import statistics
import subprocess
import sys
import time

import calibrate

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(ROOT, "perfbench", "worker.py")
CALIBRATE = os.path.join(ROOT, "perfbench", "calibrate.py")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("qm2-pass", "qm2-fail", "planes", "zn13")
SETUP_ONLY_ROUNDS = 10
MIN_TRACED_SAMPLES = 2
SAMPLE_TIMEOUT_S = 170
# Samples run in pairs, one per CPU, each next to a calibration loop
# pinned to the same CPU.  End-to-end runs give the loop an even share
# of the CPU, so that even a 0.1 s set-up is measured against it; traced
# runs give it the lowest priority, since they only need a rough scale.
CPUS = sorted(os.sched_getaffinity(0))[:2]
CAL_NICE = {0: 0, 1: 19}

# verifier-call families: the share of untraced wall time spent in each
FAMILIES = ("hom_bialgebra", "cobraided", "oqhybe", "alpha_invariance",
            "comodule", "hybe", "power_twist")
VERIFIERS = ("hombialg.verify_hom_bialgebra", "hombialg.verify_morphism",
             "cobraid.verify_cobraided", "cobraid.verify_oqhybe",
             "cobraid.check_alpha_invariance", "comodule.verify_comodule",
             "comodule.verify_comodule_hom_algebra", "comodule.verify_hybe",
             "comodule.verify_mixed_hybe")
# per-layer counts: metric name -> traced call key
CALL_COUNTS = {
    "ncpoly.normal_word.calls": "ncpoly.Presentation.normal_word",
    "ncpoly.poly_mul.calls": "ncpoly.NCPoly.__mul__",
    "ncpoly.tensor_mul.calls": "ncpoly.TensorElement.__mul__",
    "hombialg.product.calls": "hombialg.HomBialgebra.product",
    "hombialg.delta.calls": "hombialg.HomBialgebra.delta",
    "hombialg.alpha_word.calls": "hombialg.HomBialgebra.alpha_word",
    "cobraid.word_value.calls": "cobraid.word_value",
    "cobraid.word_pair_value.calls":
        "cobraid.CobraidedHomBialgebra.word_pair_value",
    "comodule.rho_word.calls": "comodule.ComoduleAlgebra.rho_word",
    "comodule.base_rho_word.calls": "comodule.ComoduleAlgebra.base_rho_word",
    "comodule.pair_product.calls": "comodule.ComoduleAlgebra.pair_product",
    "linalg.rref.calls": "linalg.rref",
    "report.to_json.calls": "report.Report.to_json",
}
DISTINCT_COUNTS = {
    "ncpoly.normal_word.distinct": "ncpoly.Presentation.normal_word",
    "hombialg.untwisted_delta_word.distinct":
        "hombialg.HomBialgebra.untwisted_delta_word",
    "hombialg.alpha_word.distinct": "hombialg.HomBialgebra.alpha_word",
    "cobraid.word_value.distinct": "cobraid.word_value",
    "comodule.rho_word.distinct": "comodule.ComoduleAlgebra.rho_word",
    "comodule.base_rho_word.distinct":
        "comodule.ComoduleAlgebra.base_rho_word",
}
SCALAR_COUNTS = ("mul.calls", "mul.zero_operand", "mul.laurent", "add.calls",
                 "add.den_nontrivial", "nonmonomial_den", "cyclotomic.mul")
# layers every workload enters report self time in seconds; the others
# (and single verifiers) report their share of traced wall time, which is
# a true zero on workloads that never enter them
SELF_SECONDS = ("scalars", "ncpoly", "hombialg", "cobraid", "report")
SELF_SHARE = ("comodule", "linalg")


class SampleError(Exception):
    pass


@contextlib.contextmanager
def calibration(nice):
    """A calibration loop on each of CPUS; yields their record files."""
    paths = [os.path.join(OUT_DIR, f"speed-cpu{cpu}.bin") for cpu in CPUS]
    os.makedirs(OUT_DIR, exist_ok=True)
    procs = []
    try:
        for cpu, path in zip(CPUS, paths):
            calibrate.create(path)
            procs.append(subprocess.Popen(
                [sys.executable, CALIBRATE, path, str(cpu), str(nice)],
                cwd=ROOT))
        for proc, path in zip(procs, paths):  # wait for a first unit
            speed = calibrate.Speed(path)
            while speed.read()[0] == 0:
                if proc.poll() is not None:
                    raise SampleError(f"calibration loop exited with "
                                      f"{proc.returncode}")
                time.sleep(0.01)
        yield paths
    finally:
        for proc in procs:
            proc.kill()
            proc.wait()


def sample(workload, seed, *flags, cals=None):
    """One sample on each of CPUS, started together; their results.
    With ``cals`` (from calibration()), each reads its CPU's loop."""
    env = dict(os.environ,
               PYTHONPATH=os.pathsep.join([os.path.join(ROOT, "src"), ROOT]))
    deadline = time.monotonic() + SAMPLE_TIMEOUT_S
    procs = []
    try:
        for n, cpu in enumerate(CPUS):
            cal = ("--cal", cals[n]) if cals else ()
            procs.append(subprocess.Popen(
                [sys.executable, WORKER, workload, str(seed), "--cpu",
                 str(cpu), *cal, *flags], cwd=ROOT, env=env, text=True,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE))
        results = []
        for proc in procs:
            out, err = proc.communicate(
                timeout=max(0.0, deadline - time.monotonic()))
            if proc.returncode != 0:
                raise SampleError(f"worker {workload} {' '.join(flags)} "
                                  f"exited with {proc.returncode}:\n"
                                  f"{err[-2000:]}")
            results.append(json.loads(out.splitlines()[-1]))
        return results
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def median(values):
    return statistics.median(values)


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_s(smp):
    """CPU seconds of a full sample at the reference host speed."""
    return smp["cpu_s"] * smp["rate"] / calibrate.REF_RATE


def setup_s(smp):
    return smp["setup_cpu_s"] * smp["setup_rate"] / calibrate.REF_RATE


def scale(smp):
    """Reference-speed CPU seconds per wall second of a full sample."""
    return run_s(smp) / smp["wall_s"]


def verdicts(samples):
    """(attempted, failed, first mismatch) over every step of every sample."""
    steps = [s for smp in samples for s in smp["steps"]]
    bad = [s for s in steps if s["mismatch"]]
    first = f"{bad[0]['label']}: {bad[0]['mismatch']}" if bad else None
    return len(steps), len(bad), first


def end_to_end(workload, seed, seconds, cals):
    start = time.perf_counter()
    setups = [setup_s(s) for _ in range(SETUP_ONLY_ROUNDS)
              for s in sample(workload, seed, "--setup-only", cals=cals)]
    full = []
    while not full or time.perf_counter() - start < seconds:
        full += sample(workload, seed, cals=cals)
    setups += [setup_s(s) for s in full]
    runs = [run_s(s) for s in full]
    walls = [s["wall_s"] for s in full]
    print(f"{workload} seed {seed}: {len(full)} samples, run_s median "
          f"{median(runs):.4f} (min {min(runs):.4f}, max {max(runs):.4f}); "
          f"wall-clock median {median(walls):.4f} next to the loop; "
          f"setup_s median {median(setups):.4f} over {len(setups)}")
    metrics = {
        "run_s": metric(median(runs), "s"),
        "setup_s": metric(median(setups), "s"),
        "peak_rss_mb": metric(median(s["peak_rss_mb"] for s in full), "MB"),
    }
    return full, metrics, True


def per_layer(workload, seed, seconds, cals):
    start = time.perf_counter()
    plain, traced = [], []
    while (len(traced) < MIN_TRACED_SAMPLES
           or time.perf_counter() - start < seconds):
        plain += sample(workload, seed, cals=cals)
        traced += sample(workload, seed, "--trace", cals=cals)
    counts = [{k: t["trace"][k] for k in ("calls", "distinct", "scalar")}
              for t in traced]
    repeat = all(c == counts[0] for c in counts[1:])
    if not repeat:
        print(f"{workload} seed {seed}: traced counts differ between samples")
    overhead = (median(run_s(s) for s in traced)
                / median(run_s(s) for s in plain))
    metrics = {"trace.overhead": metric(overhead, "ratio")}
    metrics.update(_family_shares(plain))
    metrics.update(_layer_metrics(traced))
    print(f"{workload} seed {seed}: {len(plain)} untraced and {len(traced)} "
          f"traced samples, tracing overhead {overhead:.2f}x")
    for step in traced[0]["steps"]:
        muls = step["scalar"].get("mul.calls", 0)
        zeros = step["scalar"].get("mul.zero_operand", 0)
        if muls:
            print(f"  {step['label']}: {muls} Scalar multiplications, "
                  f"{zeros / muls:.1%} with a zero operand")
    return plain + traced, metrics, repeat


def _family_shares(samples):
    out = {}
    for family in FAMILIES:
        shares = [100 * sum(s["end_s"] - s["start_s"] for s in smp["steps"]
                            if s["family"] == family) / smp["wall_s"]
                  for smp in samples]
        out[f"verdict_share.{family}"] = metric(median(shares), "%")
    return out


def _layer_metrics(traced):
    """Median over traced samples of every per-layer metric."""
    rows = []
    for smp in traced:
        t = smp["trace"]
        calls, self_ns, distinct = t["calls"], t["self_ns"], t["distinct"]
        scalar = t["scalar"]
        wall_ns = smp["wall_s"] * 1e9
        # traced times are wall-clock; seconds are rescaled like run_s
        to_s = scale(smp) / 1e9

        def layer_ns(layer):
            return sum(v for k, v in self_ns.items()
                       if k.startswith(layer + "."))

        row = {}
        for layer in SELF_SECONDS:
            row[f"{layer}.self_s"] = (layer_ns(layer) * to_s, "s")
        for layer in SELF_SHARE:
            row[f"{layer}.self_share"] = (100 * layer_ns(layer) / wall_ns, "%")
        for name in SCALAR_COUNTS:
            row[f"scalars.{name}"] = (scalar.get(name, 0), "count")
        muls = scalar.get("mul.calls", 0)
        row["scalars.mul.useful_ratio"] = (
            (muls - scalar.get("mul.zero_operand", 0)) / muls if muls else 0.0,
            "ratio")
        for name, key in CALL_COUNTS.items():
            row[name] = (calls.get(key, 0), "count")
        for name, key in DISTINCT_COUNTS.items():
            row[name] = (distinct.get(key, 0), "count")
        nw_calls = calls.get("ncpoly.Presentation.normal_word", 0)
        row["ncpoly.normal_word.hit_ratio"] = (
            1 - distinct.get("ncpoly.Presentation.normal_word", 0) / nw_calls
            if nw_calls else 0.0, "ratio")
        row["cobraid.word_value.self_s"] = (
            self_ns.get("cobraid.word_value", 0) * to_s, "s")
        row["verifiers.self_s"] = (
            sum(self_ns.get(k, 0) for k in VERIFIERS) * to_s, "s")
        for key in VERIFIERS:
            row[f"{key}.self_share"] = (100 * self_ns.get(key, 0) / wall_ns,
                                        "%")
        row["comodule.operator_build_share"] = (
            100 * sum(t["inclusive_ns"].get(k, 0) for k in (
                "comodule.bvw_operator", "comodule.b_alpha_operator"))
            / wall_ns, "%")
        row["report.witness_chars"] = (
            sum(s["witness_chars"] for s in smp["steps"]), "count")
        rows.append(row)
    # counts repeat exactly between traced samples (checked by the caller)
    return {name: metric(value if unit == "count"
                         else median(r[name][0] for r in rows), unit)
            for name, (value, unit) in rows[0].items()}


def write_spans(workload, seed, trace, samples):
    """One span per sample and one per verifier call, written at the end."""
    spans = []
    for n, smp in enumerate(samples):
        sid = f"s{n}"
        spans.append({"id": sid, "parent": None,
                      "name": f"{workload} sample {n}"
                              + (" traced" if "trace" in smp else ""),
                      "start_s": 0.0, "end_s": smp["wall_s"]})
        for k, step in enumerate(smp["steps"]):
            span = {"id": f"{sid}.{k}", "parent": sid, "name": step["label"],
                    "start_s": step["start_s"], "end_s": step["end_s"]}
            if "scalar" in step:
                span["scalar_counts"] = step["scalar"]
            spans.append(span)
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"spans-{workload}-seed{seed}-trace{trace}.json"
    path = os.path.join(OUT_DIR, name)
    with open(path, "w") as fh:
        json.dump(spans, fh, indent=1)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "homq", "__init__.py")):
        sys.exit(f"no program to measure: {ROOT}/src/homq is missing")

    run = per_layer if args.trace else end_to_end
    try:
        with calibration(CAL_NICE[args.trace]) as cals:
            samples, metrics, repeat = run(args.workload, args.seed,
                                           args.seconds, cals)
    except (SampleError, subprocess.TimeoutExpired) as exc:
        sys.exit(str(exc))
    write_spans(args.workload, args.seed, args.trace, samples)
    attempted, failed, first = verdicts(samples)
    print(f"error_share {failed}/{attempted} = {failed / attempted:.4f}")
    if first:
        print(f"first wrong verdict: {first}")
    print(json.dumps({"correct": failed == 0 and repeat,
                      "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
