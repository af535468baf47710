"""Time one representative call per layer over a geometric ladder of sizes,
fit its log-log scaling exponent, and write the result as JSON.

    python3 tools/ladder.py --out ladder.json
    python3 tools/ladder.py --N 8,16,32 --k 1 --out small.json

Three layers run: the classical layer, `suites.suite_classical`, and the
Backlund layer, `suites.suite_bt`, each at `RunConfig(N=N, seed=0)` with a
generator seeded by 0, as `albaxter verify classical --N N` and `albaxter
verify bt --N N` run them, and the Backlund map alone, `backlund.bt_apply`
at mu = 0.3 on `ChainState.random(N, default_rng(0))`.  Every bt and
bt_map call starts from an empty memo of solved maps, so each one solves
its maps anew.  Each rung takes the min of k calls after one untimed call,
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

from albaxter import backlund, suites  # noqa: E402
from albaxter.classical_chain import ChainState  # noqa: E402
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


# layer -> (the call it times, size -> that call, which returns the pass
# flags of its checks)
LAYERS = {"classical": ("suites.suite_classical", classical_call),
          "bt": ("suites.suite_bt", bt_call),
          "bt_map": ("backlund.bt_apply", bt_map_call)}


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
    p.add_argument("--N", default="64,256,1024,2048",
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
