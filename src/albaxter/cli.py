"""Command-line front end.

Subcommands:
  verify {classical,bt,quantum,bethe,baxter,all}   run check suites
  bt                                               apply a Backlund map / mu sweep
  evolve                                           RK4 trajectory CSV
  kernel                                           Baxter kernel grid CSV

Exit status: 0 all checks pass, 1 check failure, 2 configuration error.
Reports are JSON with a versioned schema; numeric tables are CSV.
`bt` writes schema albaxter-bt/2 and `evolve` one tr{j} column pair per
point of classical_chain.TRACE_POINTS; their --help lists the fields.
"""

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import backlund, bethe, classical_chain as chain, qcalc
from .report import ConfigError, Report, RunConfig
from .suites import SUITES, run_suites

STATE_SCHEMA_NOTE = '{"N": int, "q": [[re, im], ...], "r": [[re, im], ...]}'


def _build_parser():
    p = argparse.ArgumentParser(prog="albaxter",
                                description="Ablowitz-Ladik verification lab")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(sp):
        sp.add_argument("--config", metavar="PATH",
                        help="JSON run configuration")
        sp.add_argument("--N", type=int)
        sp.add_argument("--m", type=int)
        sp.add_argument("--alpha", type=float)
        sp.add_argument("--mu", type=float)
        sp.add_argument("--nmax", type=int,
                        help="cap on the total Fock occupation of the "
                        "quantum suite (the bethe suite takes m + 1)")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--tol", type=float, help="Newton tolerance")
        sp.add_argument("--out", metavar="PATH")
        sp.add_argument("--format", choices=["json", "csv"])

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    add_common(v)

    b = sub.add_parser(
        "bt", help="Backlund transformation report",
        description="JSON schema albaxter-bt/2: source, the points of the "
        "traces, and per mu: residuals, trace_before/trace_after (Tr L at "
        "each point), det_before/det_after, gamma, target.")
    add_common(b)
    b.add_argument("--state", metavar="PATH",
                   help=f"input state JSON {STATE_SCHEMA_NOTE}")
    b.add_argument("--sweep", nargs=3, type=float,
                   metavar=("LO", "HI", "STEPS"),
                   help="sweep mu over STEPS values in [LO, HI]")

    e = sub.add_parser(
        "evolve", help="integrate the equations of motion",
        description="RK4 trajectory CSV: t, q_k, r_k, Tr L at the bt report's "
        "points (tr{j}), det L, each as (re, im), and the largest relative "
        "drift of a trace or of det L from t = 0.")
    add_common(e)
    e.add_argument("--dt", type=float, default=1e-3)
    e.add_argument("--steps", type=int, default=100)

    k = sub.add_parser("kernel", help="Baxter kernel values on an r-grid")
    add_common(k)
    k.add_argument("--grid", type=int, default=16,
                   help="points per coordinate ray")
    return p


def _config_from_args(args):
    cfg = RunConfig.from_file(args.config) if args.config else RunConfig()
    overrides = {"N": args.N, "m": args.m, "alpha": args.alpha,
                 "mu": args.mu, "n_max": args.nmax, "seed": args.seed,
                 "newton_tol": args.tol, "output_path": args.out,
                 "format": args.format}
    raw = cfg.to_dict()
    raw.pop("tolerances")
    raw["newton_tol"] = cfg.newton_tol
    for key, val in overrides.items():
        if val is not None:
            raw[key] = val
    return RunConfig(**raw)


def _write_text(path, text):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _complex_pair(z):
    return [float(np.real(z)), float(np.imag(z))]


def cmd_verify(args):
    cfg = _config_from_args(args)
    names = sorted(SUITES) if args.suite == "all" else [args.suite]
    records = run_suites(names, cfg)
    report = Report(config=cfg.to_dict())
    report.extend(records)
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        print(f"{status} {c.check_id:34s} residual={c.residual:.3e} "
              f"tol={c.tolerance:.1e} ({c.wall_time:.3f}s)")
    s = report.summary()
    print(f"{s['passed']}/{s['total']} checks passed")
    if cfg.output_path:
        _write_text(cfg.output_path, report.to_json())
        if args.suite in ("bethe", "all") and cfg.format == "csv":
            _write_roots_csv(cfg)
    elif args.suite == "bethe" and cfg.format == "csv":
        _write_roots_csv(cfg)
    return 0 if report.all_passed else 1


def _write_roots_csv(cfg):
    """Roots and residuals of the configured Bethe system (columns: k,
    Re lam_k, Im lam_k, residual), in <stem>_roots.csv next to the report,
    or in bethe_roots.csv with no report path."""
    report = Path(cfg.output_path or "bethe")
    out = report.with_name(report.stem + "_roots.csv")
    bcfg = bethe.solve_bethe(cfg.N, max(cfg.m, 1), qcalc.QParam(cfg.alpha))
    per_root = bethe.bethe_residuals_roots(bcfg.roots, bcfg.N, bcfg.qp)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re_lambda", "im_lambda", "residual"])
        for k, (lam, res) in enumerate(zip(bcfg.roots, per_root), start=1):
            w.writerow([k, lam.real, lam.imag, res])
    print(f"wrote {out}")


def _bt_record(state, before, mu, cfg):  # before: the state's traces, det
    opts = backlund.SolverOptions(tol=cfg.newton_tol)
    bt = backlund.bt_apply(state, mu, opts)
    spec = backlund.spectrality(bt)
    after = chain.conserved_quantities(bt.target)
    return {
        "mu": _complex_pair(mu),
        "iters": bt.newton_iters,
        "ring_multiplier": bt.ring_multiplier,
        "residuals": {
            "bt": bt.residual,
            "intertwine": backlund.intertwining_residual(bt, 0.9 + 0.4j),
            "spectrality": float(spec.collinearity.max()),
            "trace": spec.trace_residual,
            "canonicity": backlund.canonicity_check(state, mu, opts=opts),
        },
        "trace_before": [_complex_pair(t) for t in before.trace],
        "trace_after": [_complex_pair(t) for t in after.trace],
        "det_before": _complex_pair(before.det),
        "det_after": _complex_pair(after.det),
        "gamma": [_complex_pair(g) for g in bt.gamma_site],
        "target": bt.target.to_json_dict(),
    }


def cmd_bt(args):
    cfg = _config_from_args(args)
    if args.state:
        try:
            with open(args.state, encoding="utf-8") as fh:
                state = chain.ChainState.from_json_dict(json.load(fh))
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: cannot load state: {exc}", file=sys.stderr)
            return 2
    else:
        state = chain.ChainState.random(cfg.N, np.random.default_rng(cfg.seed))

    mus = [cfg.mu]
    if args.sweep:
        lo, hi, steps = args.sweep
        if not (math.isfinite(lo) and math.isfinite(hi)
                and steps.is_integer() and steps >= 1):
            raise ConfigError("--sweep needs finite LO and HI and an "
                              "integer STEPS >= 1")
        mus = list(np.linspace(lo, hi, int(steps)))

    try:
        # an overflow stays in its record as inf or NaN, not on stderr
        with np.errstate(all="ignore"):
            before = chain.conserved_quantities(state)
            recs = [_bt_record(state, before, m, cfg) for m in mus]
    except backlund.BTError as exc:
        print(f"error: Backlund solve failed: {exc}", file=sys.stderr)
        return 1

    payload = {"schema": "albaxter-bt/2", "source": state.to_json_dict(),
               "points": [_complex_pair(p) for p in before.points],
               "records": recs}
    text = json.dumps(payload, sort_keys=True, indent=2)
    if cfg.output_path:
        _write_text(cfg.output_path, text)
        print(f"wrote {cfg.output_path}")
    else:
        print(text)
    return 0


def cmd_evolve(args):
    cfg = _config_from_args(args)
    if not (math.isfinite(args.dt) and args.dt > 0) or args.steps < 1:
        raise ConfigError("evolve needs a finite dt > 0 and steps >= 1")
    state = chain.ChainState.random(cfg.N, np.random.default_rng(cfg.seed))
    base = chain.conserved_quantities(state)

    sites = range(1, cfg.N + 1)
    names = ([f"q{k}" for k in sites] + [f"r{k}" for k in sites]
             + [f"tr{j}" for j in range(len(base.points))] + ["det"])
    header = ["t"] + [f"{v}_{p}" for v in names for p in ("re", "im")]
    header.append("drift")

    rows = []
    t = 0.0
    for step in range(args.steps + 1):
        cons = chain.conserved_quantities(state)
        rows.append([t] + [x for z in (*state.q, *state.r, *cons.trace,
                                       cons.det)
                           for x in _complex_pair(z)]
                    + [base.max_relative_drift(cons)])
        if step < args.steps:
            state = chain.rk4_step(state, args.dt)
            t += args.dt

    out = cfg.output_path or "trajectory.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)
    print(f"wrote {out}")
    return 0


def cmd_kernel(args):
    cfg = _config_from_args(args)
    if args.grid < 1:
        raise ConfigError("kernel needs --grid >= 1")
    qp = qcalc.QParam(cfg.alpha)
    rng = np.random.default_rng(cfg.seed)
    rtilde = rng.uniform(1.1, 1.9, cfg.N)
    mu = abs(cfg.mu)
    grid = np.linspace(0.1, 0.9, args.grid)
    out = cfg.output_path or "kernel_grid.csv"
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow([f"r{k}" for k in range(1, cfg.N + 1)]
                   + ["qhat_re", "qhat_im"])
        for x in grid:
            point = np.full(cfg.N, x)
            val = qcalc.qhat_kernel(mu, qp, rtilde, point)
            w.writerow(list(point) + _complex_pair(val))
    print(f"wrote {out}")
    return 0


def main(argv=None):
    parser = _build_parser()
    args = parser.parse_args(argv)
    commands = {"verify": cmd_verify, "bt": cmd_bt, "evolve": cmd_evolve,
                "kernel": cmd_kernel}
    try:
        return commands[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except chain.DegenerateStateError as exc:
        print(f"error: degenerate state rejected: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
