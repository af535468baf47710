"""Compare the check outcomes of two source trees on one benchmark workload,
or on one suite at sizes the benchmark does not reach.

    python3 tools/outcome_diff.py OLD_ROOT NEW_ROOT --workload chain-scale \
        --seeds 1-50
    python3 tools/outcome_diff.py OLD_ROOT NEW_ROOT --suite classical \
        --N 512,2048 --seeds 0-9
    python3 tools/outcome_diff.py OLD_ROOT NEW_ROOT --suite bethe \
        --N 16:3,20:2,24:2 --seeds 0-199

Each root is a source checkout.  For each tree, one subprocess imports that
tree's `src/albaxter` and `perfbench/workloads.py` (read, never edited),
builds the workload's tasks at every seed of the range and runs each task
once, untimed, with BLAS pinned to one thread as the benchmark pins it.
With `--suite NAME --N LIST` the tasks are instead one call of
`suites.SUITES[NAME]` per (seed, entry), at `RunConfig(N=N, seed=seed)`
with a generator seeded by the seed, as `albaxter verify NAME --N N --seed
seed` runs it; an entry `N:m` also sets the magnon number m, as `--m m`
does.  Every residual is judged by the tree's own `workloads.judge`.

Per check id it prints how many residuals changed bits, the largest
relative change, and the worst residual/bound ratio on each tree (the bound
is the tree's own `workloads.TOLERANCES` entry), so a change that moves a
check toward its bound shows even when no flag flips.  Then it prints every
op whose pass flag flipped, with its seed, task and both residuals.  A task
that raises, or an expected check id that is missing, counts as a failed
op.  The exit status is 1 if any op went from pass to fail, and 0
otherwise.
"""

import argparse
import json
import math
import os
import subprocess
import sys
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_seeds(text):
    """'A-B' (inclusive) or 'A' as a list of ints."""
    lo, _, hi = text.partition("-")
    lo, hi = int(lo), int(hi or lo)
    if hi < lo:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return list(range(lo, hi + 1))


def parse_sizes(text):
    """'A,B:m,...' as a list of RunConfig size fields: {'N': A} for an entry
    A, {'N': B, 'm': m} for an entry B:m."""
    sizes = [entry.split(":") for entry in text.split(",")]
    if any(len(fields) > 2 for fields in sizes):
        raise argparse.ArgumentTypeError(f"entries are N or N:m, not {text!r}")
    return [dict(zip(("N", "m"), map(int, fields))) for fields in sizes]


def format_sizes(sizes):
    """The inverse of parse_sizes."""
    return ",".join(":".join(map(str, size.values())) for size in sizes)


def suite_tasks(workloads, name, sizes, seed):
    """One task per size: the suite `name` at those fields and `seed`."""
    import numpy as np
    from albaxter import suites
    from albaxter.report import RunConfig

    def task(size):
        cfg = RunConfig(**size, seed=seed)

        def run():
            recs = suites.SUITES[name](cfg, np.random.default_rng(seed))
            return [(r.check_id, r.residual) for r in recs]
        label = "/".join([name] + [f"{k}={v}" for k, v in size.items()])
        return workloads.Task(f"suite.{name}", label, run,
                              workloads.SUITE_CHECKS[name])
    return [task(size) for size in sizes]


def collect(root, workload, seeds, suite=None, sizes=()):
    """Run every task of every seed on the tree at `root`; one JSON line
    per task to stdout.  Runs inside the subprocess."""
    root = Path(root).resolve()
    sys.path[:0] = [str(root / "perfbench"), str(root / "src")]
    import albaxter
    if Path(albaxter.__file__).resolve().parents[1] != root / "src":
        sys.exit(f"albaxter imported from {albaxter.__file__}, not from "
                 f"{root / 'src'}")
    import workloads
    print(json.dumps({"tolerances": workloads.TOLERANCES}))
    for seed in seeds:
        tasks = (suite_tasks(workloads, suite, sizes, seed) if suite
                 else workloads.build_tasks(workload, seed))
        for task in tasks:
            res = workloads.run_task(task)
            print(json.dumps({"seed": seed, "task": res.label,
                              "error": res.error, "ops": res.ops,
                              "missing": list(res.missing)}))


def run_tree(root, target, seeds):
    """{(seed, task): ({check_id: (residual or None, passed)}, error)} of
    one tree and its tolerance table, from a subprocess running `collect`.
    `target` is the command-line selection: ["--workload", W] or
    ["--suite", NAME, "--N", LIST]."""
    env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
    env.pop("PYTHONPATH", None)
    cmd = [sys.executable, str(Path(__file__).resolve()), "--collect",
           str(root), *target, "--seeds", f"{seeds[0]}-{seeds[-1]}"]
    proc = subprocess.run(cmd, env=env, capture_output=True, text=True,
                          check=False)
    if proc.returncode != 0:
        sys.exit(f"collecting outcomes of {root} failed:\n{proc.stderr}")
    first, *lines = proc.stdout.splitlines()
    tasks = {}
    for line in lines:
        rec = json.loads(line)
        ops = {c: (r, p) for c, r, p in rec["ops"]}
        ops.update({c: (None, False) for c in rec["missing"]})
        tasks[rec["seed"], rec["task"]] = (ops, rec["error"])
    return tasks, json.loads(first)["tolerances"]


def worst_ratios(tasks, tolerances):
    """Per check id with a bound, the largest residual/bound over all ops;
    a missing or NaN residual reads inf."""
    worst = {}
    for ops, _ in tasks.values():
        for check, (res, _) in ops.items():
            if check in tolerances:
                ratio = (math.inf if res is None or math.isnan(res)
                         else res / tolerances[check])
                worst[check] = max(worst.get(check, 0.0), ratio)
    return worst


def relative_change(old, new):
    """|new - old| / |old|; 0 for equal bits or two NaNs, inf for a change
    from 0, to or from NaN, or to or from a missing residual."""
    if old is None or new is None:
        return 0.0 if old is new else math.inf
    if old == new or (math.isnan(old) and math.isnan(new)):
        return 0.0
    if old == 0 or math.isnan(old) or math.isnan(new):
        return math.inf
    return abs(new - old) / abs(old)


def compare(old, new):
    """Per check id [ops, changed, max relative change], the flips as
    (seed, task, check_id, old op, new op), and task-level error changes."""
    stats, flips, errors = {}, [], []
    for key in sorted(old.keys() | new.keys()):
        o_ops, o_err = old.get(key, ({}, "absent"))
        n_ops, n_err = new.get(key, ({}, "absent"))
        if o_err != n_err:
            errors.append((*key, o_err, n_err))
        for check in sorted(o_ops.keys() | n_ops.keys()):
            o = o_ops.get(check, (None, False))
            n = n_ops.get(check, (None, False))
            row = stats.setdefault(check, [0, 0, 0.0])
            row[0] += 1
            rel = relative_change(o[0], n[0])
            if rel:
                row[1] += 1
                row[2] = max(row[2], rel)
            if o[1] != n[1]:
                flips.append((*key, check, o, n))
    return stats, flips, errors


def report(stats, flips, errors, ratios=({}, {}), out=None):
    """Print the table, the error changes and the flips; `ratios` holds the
    old and the new tree's worst_ratios.  Returns the pass->fail count."""
    width = max((len(c) for c in stats), default=8)
    print(f"{'check id':{width}s}  {'ops':>6s}  {'changed':>7s}  "
          f"{'max rel change':>14s}  {'old worst/bound':>15s}  "
          f"{'new worst/bound':>15s}", file=out)
    for check, (ops, changed, rel) in sorted(stats.items()):
        old, new = (r.get(check, math.nan) for r in ratios)
        print(f"{check:{width}s}  {ops:6d}  {changed:7d}  {rel:14.3g}  "
              f"{old:15.3g}  {new:15.3g}", file=out)
    for seed, task, old_err, new_err in errors:
        print(f"error changed: seed {seed} {task}: {old_err} -> {new_err}",
              file=out)
    word = {True: "pass", False: "fail"}
    for seed, task, check, (o_res, o_ok), (n_res, n_ok) in flips:
        print(f"flip: seed {seed} {task} {check}: {word[o_ok]} -> "
              f"{word[n_ok]} ({o_res!r} -> {n_res!r})", file=out)
    down = sum(1 for f in flips if f[3][1])
    print(f"{sum(r[0] for r in stats.values())} ops, "
          f"{sum(r[1] for r in stats.values())} changed, "
          f"{down} pass->fail, {len(flips) - down} fail->pass", file=out)
    return down


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("old_root", nargs="?")
    p.add_argument("new_root", nargs="?")
    which = p.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload")
    which.add_argument("--suite", help="one suite, at the sizes of --N")
    p.add_argument("--N", type=parse_sizes, metavar="LIST",
                   help="comma-separated chain lengths N, or N:m with a "
                        "magnon number, for --suite")
    p.add_argument("--seeds", type=parse_seeds, required=True)
    p.add_argument("--collect", metavar="ROOT", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.suite and not args.N:
        p.error("--suite needs --N")
    if args.collect:
        collect(args.collect, args.workload, args.seeds, args.suite,
                args.N or ())
        return 0
    if args.old_root is None or args.new_root is None:
        p.error("OLD_ROOT and NEW_ROOT are required")
    if args.suite:
        sizes = format_sizes(args.N)
        target, title = ["--suite", args.suite, "--N", sizes], \
            f"suite {args.suite} at N={sizes}"
    else:
        target, title = ["--workload", args.workload], args.workload
    old, old_tol = run_tree(args.old_root, target, args.seeds)
    new, new_tol = run_tree(args.new_root, target, args.seeds)
    print(f"{title}, seeds {args.seeds[0]}-{args.seeds[-1]}: "
          f"{args.old_root} -> {args.new_root}")
    ratios = (worst_ratios(old, old_tol), worst_ratios(new, new_tol))
    return 1 if report(*compare(old, new), ratios) else 0


if __name__ == "__main__":
    sys.exit(main())
