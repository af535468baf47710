"""Benchmark of the albaxter verification lab.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload verify-default --seed 1 \
        --seconds 30 --trace 0

It builds the workload's inputs from --seed, warms up, then repeats passes
over all tasks of the workload for --seconds (and at least the workload's
minimum number of passes), checks every output against the benchmark's own
tolerance table, and prints one JSON object as the last line of stdout:
the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1.  Times are seconds at the reference host speed (see speed.py).
Details (raw times, calibration samples, failures, versions) and, when
traced, the spans go to .perfbench_out/ in the checkout.  See README.md.
"""

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = ROOT / ".perfbench_out"
SPEC_PATH = ROOT / "BENCHMARK.json"
sys.path.insert(0, str(ROOT / "src"))

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 5
SETUP_TIMEOUT_S = 60
# Minimum measured passes per workload; with the tasks per pass they fix
# the tail percentile (the highest with at least TAIL_BEYOND tasks beyond).
# Chosen so that percentile falls in the middle of the samples of one task
# (classical N=32 on chain-scale, bethe (6,2) on quantum-scale), not on the
# edge between two tasks of very different length, where it jumped by
# ~20% from run to run.
MIN_PASSES = {"verify-default": 2, "chain-scale": 5, "quantum-scale": 8}
TAIL_BEYOND = 10

# Per-layer metrics read off span names: metric -> span names summed.
CALL_METRICS = {
    "qcalc.jackson_op.calls": ("qcalc.jackson_op",),
    "qcalc.jackson_integral.calls": ("qcalc.jackson_integral",),
    "qcalc.qpochhammer_inf.calls": ("qcalc.qpochhammer_inf",),
    "algebra.laurent_mul.calls": ("algebra.LaurentPoly.__mul__",
                                  "algebra.LaurentPoly.__rmul__"),
    "algebra.multidual_mul.calls": ("algebra.MultiDual.__mul__",
                                    "algebra.MultiDual.__rmul__"),
    "classical_chain.conserved_quantities.calls":
        ("classical_chain.conserved_quantities",),
    "classical_chain.poisson_bracket.calls":
        ("classical_chain.poisson_bracket",),
    "backlund.bt_apply.calls": ("backlund.bt_apply",),
    "bethe.solve_bethe.calls": ("bethe.solve_bethe",),
}
P50_MS_METRICS = {
    "backlund.bt_apply.p50_ms": "backlund.bt_apply",
    "backlund.canonicity_check.p50_ms": "backlund.canonicity_check",
}
TOTAL_MS_METRICS = {
    "funspace.baxter_action_residual.ms": "funspace.baxter_action_residual",
    "fock.FockRep.build_ms": "fock.FockRep.__init__",
    "fock.rll_residual.ms": "fock.rll_residual",
}
ERROR_METRICS = {
    "backlund.errors": "backlund.<layer>",
    "fock.errors": "fock.<layer>",
    "bethe.solve_bethe.errors": "bethe.solve_bethe",
}
COUNTER_METRICS = ("backlund.newton_iters", "fock.dim_max")


def pin():
    """One BLAS/OpenMP thread and one CPU, for this process and the set-up
    probes it starts, before numpy loads: the numbers measure albaxter, not
    the scheduler, and the calibration kernel (speed.py) runs on the CPU it
    calibrates.  The two vCPUs of a shared host drift apart in speed."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    return p.parse_args(argv)


def measure_setup(workload, seed, cal):
    """Set-up time of fresh processes: from process start until the
    workload's first task is ready (imports plus input generation)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", workload, "--seed", str(seed), "--seconds", "0"]
    raw, scaled = [], []
    before = cal.sample()
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True) as proc:
            try:
                line = proc.stdout.readline().strip()
                t1 = time.perf_counter()
                proc.wait(timeout=SETUP_TIMEOUT_S)
            finally:
                if proc.poll() is None:
                    proc.kill()
                    proc.wait()
        if line != "ready" or proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
        after = cal.sample()
        raw.append(t1 - t0)
        scaled.append((t1 - t0) * cal.factor(before, after))
        before = after
    return raw, scaled


def run_pass(tasks, cal, tracer=None):
    """One pass over all tasks, with the calibration kernel timed at the
    start, at the end, and after every EVERY_S of task time."""
    from speed import EVERY_S
    from workloads import run_task
    if tracer is not None:
        tracer.reset()
    cals = [cal.sample()]
    results, segment = [], []
    since = 0.0
    t0 = time.perf_counter()
    for task in tasks:
        if since >= EVERY_S:
            cals.append(cal.sample())
            since = 0.0
        segment.append(len(cals) - 1)
        t_task = time.perf_counter()
        results.append(run_task(task, tracer))
        since += time.perf_counter() - t_task
    cals.append(cal.sample())
    raw_wall = time.perf_counter() - t0 - sum(cals[1:-1])
    for r, k in zip(results, segment):
        r.scale = cal.factor(cals[k], cals[k + 1])
    raw_tasks = sum(r.latency_s for r in results)
    scale = sum(r.latency_s * r.scale for r in results) / raw_tasks
    return {"wall_s": raw_wall * scale, "raw_wall_s": raw_wall,
            "scale": scale, "results": results, "calibration_s": cals}


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_passes(tasks, cal, budget_s, min_passes, tracer=None, on_pass=None):
    """Run min_passes passes, then more while another pass of median
    length still ends within budget_s.  The peak RSS is read after the
    first pass: later passes only add allocator fragmentation, which would
    tie the figure to the pass count."""
    passes, lengths = [], []
    start = time.perf_counter()
    while (len(passes) < min_passes
           or time.perf_counter() - start + statistics.median(lengths)
           <= budget_s):
        t0 = time.perf_counter()
        p = run_pass(tasks, cal, tracer)
        lengths.append(time.perf_counter() - t0)
        if not passes:
            p["peak_rss_mb"] = peak_rss_mb()
        if on_pass is not None:
            on_pass(p)
        passes.append(p)
    return passes


def tail_percentile(n):
    """Highest whole percentile with at least TAIL_BEYOND of n samples
    strictly above its rank."""
    return max(0, math.floor(100.0 * (1.0 - TAIL_BEYOND / n)))


def check_outputs(reference, passes):
    """Problems that make the run incorrect: outcomes that differ between
    passes over the same inputs, untyped exceptions, unknown check ids."""
    from workloads import TOLERANCES
    problems = []
    ref = {r.label: r.outcome() for r in reference}
    for i, p in enumerate(passes):
        for r in p["results"]:
            if r.outcome() != ref.get(r.label):
                problems.append(f"pass {i}: {r.label} outcome changed")
            if r.error and not r.typed:
                problems.append(f"{r.label} raised untyped {r.error}")
            for c, _, _ in r.ops:
                if c not in TOLERANCES:
                    problems.append(f"{r.label}: unknown check id {c}")
    return sorted(set(problems))


def failure_list(results):
    out = []
    for r in results:
        if r.error:
            out.append({"task": r.label, "error": r.error})
        bad = [c for c, _, ok in r.ops if not ok] + list(r.missing)
        if bad:
            out.append({"task": r.label, "failed_checks": bad})
    return out


def op_counts(passes):
    results = [r for p in passes for r in p["results"]]
    return (sum(r.attempted for r in results),
            sum(r.failed for r in results))


def end_to_end(passes, setup_s, min_samples):
    import numpy as np
    lat = [r.latency_s * r.scale for p in passes for r in p["results"]]
    attempted, failed = op_counts(passes)
    pct = tail_percentile(min_samples)
    metrics = {
        "setup_s": statistics.median(setup_s),
        "run_s": statistics.median(p["wall_s"] for p in passes),
        "task_p50_ms": 1e3 * statistics.median(lat),
        "task_tail_ms": 1e3 * float(np.percentile(lat, pct)),
        "ops_failed_frac": failed / attempted,
        "peak_rss_mb": passes[0]["peak_rss_mb"],
    }
    detail = {"task_tail_percentile": pct, "task_samples": len(lat)}
    return metrics, attempted, failed, detail


def per_layer(traced, untraced):
    """Per-layer metrics from the traced pass with the median time; its
    span times are scaled like the pass."""
    from tracer import LAYERS
    ranked = sorted(traced, key=lambda p: p["wall_s"])
    mid = ranked[(len(ranked) - 1) // 2]
    s, k = mid["summary"], mid["scale"]
    metrics = {f"{layer}.self_s": k * s["layer_self_s"].get(layer, 0.0)
               for layer in LAYERS if layer != "suites"}
    # the glue: suite code, task root spans and the harness between tasks
    metrics["suites.self_s"] = mid["wall_s"] - sum(metrics.values())
    for name, spans in CALL_METRICS.items():
        metrics[name] = sum(s["calls"].get(n, 0) for n in spans)
    for name, span in P50_MS_METRICS.items():
        d = s["durations_s"].get(span)
        metrics[name] = 1e3 * k * statistics.median(d) if d else 0.0
    for name, span in TOTAL_MS_METRICS.items():
        metrics[name] = 1e3 * k * sum(s["durations_s"].get(span, ()))
    for name, key in ERROR_METRICS.items():
        metrics[name] = s["errors"].get(key, 0)
    for name in COUNTER_METRICS:
        metrics[name] = mid["counters"].get(name, 0)
    metrics["trace.run_s"] = mid["wall_s"]
    metrics["trace.overhead_s"] = (
        statistics.median(p["wall_s"] for p in traced)
        - statistics.median(p["wall_s"] for p in untraced))
    metrics["trace.spans"] = len(mid["spans"])
    return metrics, mid


def environment(cpu):
    import numpy as np
    import scipy
    info = {"nproc": os.cpu_count(), "cpu": cpu,
            "python": sys.version.split()[0],
            "numpy": np.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        info["blas"] = "unknown"
    return info


def main(argv=None):
    args = parse_args(argv)
    cpu = pin()
    try:
        import speed
        import tracer as tracing
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the albaxter sources: {exc}",
              file=sys.stderr)
        return 2
    import albaxter
    if Path(albaxter.__file__).resolve().parents[1] != ROOT / "src":
        print(f"error: albaxter imported from {albaxter.__file__}, not from "
              f"{ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_probe:
        workloads.build_tasks(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    spec = json.loads(SPEC_PATH.read_text(encoding="utf-8"))

    cal = speed.Calibrator()
    setup_raw, setup_s = measure_setup(args.workload, args.seed, cal)
    tasks = workloads.build_tasks(args.workload, args.seed)

    # Warm-up: the first task of every group, once, untimed.
    warm = {}
    for t in tasks:
        warm.setdefault(t.group, t)
    for t in warm.values():
        workloads.run_task(t)

    min_passes = MIN_PASSES[args.workload]
    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "tasks_per_pass": len(tasks), "environment": environment(cpu),
              "speed_reference_s": speed.REFERENCE_S,
              "setup_raw_s": setup_raw, "setup_s": setup_s}
    spans = None
    if args.trace == 0:
        passes = run_passes(tasks, cal, args.seconds, min_passes)
        metrics, attempted, failed, extra = end_to_end(
            passes, setup_s, len(tasks) * min_passes)
        detail.update(extra)
    else:
        untraced = run_passes(tasks, cal, args.seconds / 2, 1)
        tr = tracing.Tracer()

        def keep(p):
            p.update(summary=tracing.summarize(tr.spans), spans=tr.spans,
                     counters=dict(tr.counters))

        with tracing.instrument(tr):
            traced = run_passes(tasks, cal, args.seconds / 2, 1, tr, keep)
        metrics, mid = per_layer(traced, untraced)
        spans = mid["spans"]
        passes = untraced + traced
        attempted, failed = op_counts(passes)
        detail["traced"] = [i >= len(untraced) for i in range(len(passes))]

    problems = check_outputs(passes[0]["results"], passes)
    per_task = {}
    for p in passes:
        for r in p["results"]:
            per_task.setdefault(r.label, []).append(
                (1e3 * r.latency_s * r.scale, 1e3 * r.latency_s))
    detail["task_ms_scaled_raw"] = {
        label: [statistics.median(v) for v in zip(*samples)]
        for label, samples in per_task.items()}
    detail.update(
        passes=[{k: p[k] for k in ("wall_s", "raw_wall_s", "scale",
                                   "calibration_s")} for p in passes],
        failures=failure_list(passes[0]["results"]),
        problems=problems, metrics=metrics)

    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(
        json.dumps(detail, indent=2, sort_keys=True), encoding="utf-8")
    if spans is not None:   # large: one file per workload, the latest run
        tracing.write_spans(spans, OUT_DIR / f"{args.workload}.spans.jsonl.gz")

    listed = spec["end_to_end" if args.trace == 0 else "per_layer"]
    missing = [m["name"] for m in listed if m["name"] not in metrics]
    if missing:
        print(f"error: metrics not computed: {missing}", file=sys.stderr)
        return 3
    env = detail["environment"]
    print(f"nproc={env['nproc']} numpy={env['numpy']} blas={env['blas']} "
          f"host speed scale={statistics.median(p['scale'] for p in passes):.3f}")
    for m in listed:
        print(f"{m['name']:45s} {metrics[m['name']]:.6g} {m['unit']}")
    if args.trace == 0:
        print(f"task_tail_ms is p{detail['task_tail_percentile']} of "
              f"{detail['task_samples']} task latencies")
    for p in problems:
        print(f"problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]],
                                "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
