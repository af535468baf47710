"""Time one representative call per layer over a geometric ladder of sizes,
fit its log-log scaling exponent, and write the result as JSON.

    python3 tools/ladder.py --out ladder.json
    python3 tools/ladder.py --N 8,16,32 --k 1 --out small.json

Five layers run: the classical layer, `suites.suite_classical`, and the
Backlund layer, `suites.suite_bt`, each at `RunConfig(N=N, seed=0)` with a
generator seeded by 0, as `albaxter verify classical --N N` and `albaxter
verify bt --N N` run them; the Backlund map alone, `backlund.bt_apply`
at mu = 0.3 on `ChainState.random(N, default_rng(0))`; one sweep point on
that state at mu = 0.3, the calls of the benchmark's sweep task
(`bt_apply`, `spectrality`, `intertwining_residual` at 0.9 + 0.4i,
`canonicity_check`, `conserved_quantities` of the target and
`max_relative_drift` against the source's, which is taken once outside the
timed call, as `albaxter bt --sweep` takes it), under the bt suite's
bounds; and the function-space layer, the three product-kernel identities
of the baxter suite (`funspace.baxter_action_residual`,
`funspace.triangular_check` over every site and `funspace.delta_action`)
at one point, at the default mu and alpha and under the suite's bounds,
without the suite's N <= 3 clamp.  Every bt, bt_map and sweep_point call
starts from an empty memo of solved maps, so each one solves its maps
anew, and every funspace call from an empty memo of
q-Pochhammer values.  Each rung takes the min of k calls after one untimed call,
whose pass flags give the rung's pass count; BLAS is pinned to one thread
before numpy loads.  The exponent is the least-squares slope of
log(seconds) against log(N) over the rungs that ran, and `local_exponents`
are the slopes between neighbouring ones: their spread shows how far the
layer is from a single power law.  A rung that raises is reported with its
error and left out of the fit; once a rung takes longer than CAP_S seconds
per call, the larger rungs are reported as skipped.
"""

import argparse
import json
import math
import os
import platform
import sys
import time
from pathlib import Path

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
if __name__ == "__main__":  # before numpy loads its BLAS
    os.environ.update(dict.fromkeys(THREAD_VARS, "1"))

import numpy as np  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from albaxter import backlund, funspace, qcalc, suites  # noqa: E402
from albaxter.classical_chain import (ChainState,  # noqa: E402
                                      conserved_quantities)
from albaxter.report import RunConfig  # noqa: E402

SEED = 0
CAP_S = 60.0  # seconds per call past which larger rungs are skipped


def classical_call(N):
    cfg = RunConfig(N=N, seed=SEED)
    return lambda: [r.passed for r in suites.suite_classical(
        cfg, np.random.default_rng(SEED))]


def bt_call(N):
    cfg = RunConfig(N=N, seed=SEED)

    def call():
        backlund._solved.clear()
        return [r.passed for r in suites.suite_bt(
            cfg, np.random.default_rng(SEED))]
    return call


def bt_map_call(N):
    state = ChainState.random(N, np.random.default_rng(SEED))

    def call():
        backlund._solved.clear()
        backlund.bt_apply(state, 0.3)  # raises BTError unless it passes
        return [True]
    return call


def sweep_point_call(N):
    state = ChainState.random(N, np.random.default_rng(SEED))
    before = conserved_quantities(state)

    def call():
        backlund._solved.clear()
        bt = backlund.bt_apply(state, 0.3)
        spec = backlund.spectrality(bt)
        return [bt.residual < 1e-11,
                backlund.intertwining_residual(bt, 0.9 + 0.4j) < 1e-10,
                float(spec.collinearity.max()) < 1e-10,
                spec.trace_residual < 1e-10,
                backlund.canonicity_check(state, 0.3) < 1e-11,
                before.max_relative_drift(conserved_quantities(bt.target))
                < 1e-10]
    return call


def funspace_call(N):
    cfg = RunConfig(seed=SEED)
    qp = qcalc.QParam(cfg.alpha)
    rng = np.random.default_rng(SEED)
    rtilde = rng.uniform(1.1, 1.9, N) + 0j
    point = rng.uniform(0.1, 0.9, N)

    def call():
        qcalc._guarded_memo.cache_clear()
        delta, shifted = funspace.delta_action(cfg.mu, qp, rtilde, point)
        return [funspace.baxter_action_residual(cfg.mu, qp, rtilde, point)
                < 1e-10,
                float(funspace.triangular_check(cfg.mu, qp, rtilde,
                                                point).max()) < 1e-11,
                abs(delta - shifted) < 1e-12]
    return call


# layer -> (the call it times, size -> that call, which returns the pass
# flags of its checks)
LAYERS = {"classical": ("suites.suite_classical", classical_call),
          "bt": ("suites.suite_bt", bt_call),
          "bt_map": ("backlund.bt_apply", bt_map_call),
          "sweep_point": ("backlund.bt_apply, spectrality, "
                          "intertwining_residual, canonicity_check, "
                          "classical_chain.conserved_quantities, "
                          "max_relative_drift", sweep_point_call),
          "funspace": ("funspace.baxter_action_residual, triangular_check, "
                       "delta_action", funspace_call)}


def time_rung(call, k):
    """(min seconds of k calls, the pass flags of a first untimed call)."""
    flags = call()
    best = math.inf
    for _ in range(k):
        t0 = time.perf_counter()
        call()
        best = min(best, time.perf_counter() - t0)
    return best, flags


def slope(points):
    """Least-squares slope of log(t) against log(N) through (N, t) points;
    None for fewer than two."""
    if len(points) < 2:
        return None
    x, y = np.log(np.array(points, dtype=float)).T
    return float(np.polyfit(x, y, 1)[0])


def ladder(layer, sizes, k, cap=CAP_S):
    """The JSON record of one layer's ladder."""
    name, make = LAYERS[layer]
    rungs, capped = [], False
    for N in sizes:
        rung = {"N": N}
        if capped:
            rung["skipped"] = f"a smaller rung took over {cap} s per call"
        else:
            try:
                with np.errstate(all="ignore"):
                    seconds, flags = time_rung(make(N), k)
            except Exception as exc:  # a raising rung is a result too
                rung["error"] = f"{type(exc).__name__}: {exc}"
            else:
                rung.update(seconds=seconds, checks=len(flags),
                            passed=sum(flags))
                capped = seconds > cap
        rungs.append(rung)
    timed = [(r["N"], r["seconds"]) for r in rungs if "seconds" in r]
    return {"call": name, "size": "N", "rungs": rungs,
            "exponent": slope(timed),
            "local_exponents": [slope(pair)
                                for pair in zip(timed, timed[1:])]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--N", default="64,256,1024,4096",
                   help="comma-separated sizes (default: %(default)s)")
    p.add_argument("--k", type=int, default=5,
                   help="timed calls per rung (default: %(default)s)")
    p.add_argument("--out", required=True, help="JSON file to write")
    args = p.parse_args(argv)
    sizes = [int(n) for n in args.N.split(",")]
    result = {
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "machine": platform.machine(),
            "nproc": os.cpu_count(),
            "blas_threads": {v: os.environ.get(v) for v in THREAD_VARS},
        },
        "k": args.k,
        "layers": {layer: ladder(layer, sizes, args.k)
                   for layer in LAYERS},
    }
    Path(args.out).write_text(json.dumps(result, indent=2) + "\n")
    for layer, rec in result["layers"].items():
        times = ", ".join(f"N={r['N']}: " + (f"{1e3 * r['seconds']:.3g} ms"
                                             if "seconds" in r else "-")
                          for r in rec["rungs"])
        exponent = rec["exponent"]
        print(f"{layer}: {times}; exponent "
              + ("-" if exponent is None else f"{exponent:.3g}"))


if __name__ == "__main__":
    main()
