"""Command-line front end.

Subcommands:
  verify {classical,bt,quantum,bethe,baxter,all}   run check suites
  bt                                               apply a Backlund map / mu sweep
  evolve                                           RK4 trajectory CSV
  kernel                                           Baxter kernel grid CSV

Exit status: 0 all checks pass, 1 check failure, 2 configuration error.
Reports are JSON with a versioned schema; numeric tables are CSV.
"""

import argparse
import csv
import json
import sys

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
                        help="cap on the total Fock occupation")
        sp.add_argument("--seed", type=int)
        sp.add_argument("--tol", type=float, help="Newton tolerance")
        sp.add_argument("--out", metavar="PATH")
        sp.add_argument("--format", choices=["json", "csv"])

    v = sub.add_parser("verify", help="run verification suites")
    v.add_argument("suite", choices=sorted(SUITES) + ["all"])
    add_common(v)

    b = sub.add_parser("bt", help="Backlund transformation report")
    add_common(b)
    b.add_argument("--state", metavar="PATH",
                   help=f"input state JSON {STATE_SCHEMA_NOTE}")
    b.add_argument("--sweep", nargs=3, type=float,
                   metavar=("LO", "HI", "STEPS"),
                   help="sweep mu over STEPS values in [LO, HI]")

    e = sub.add_parser("evolve", help="integrate the equations of motion")
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
    Re lam_k, Im lam_k, residual)."""
    out = (cfg.output_path or "bethe_roots.csv")
    if out.endswith(".json"):
        out = out[:-5] + "_roots.csv"
    bcfg = bethe.solve_bethe(cfg.N, max(cfg.m, 1), qcalc.QParam(cfg.alpha))
    per_root = bethe.bethe_residuals_roots(bcfg.roots, bcfg.N, bcfg.qp)
    with open(out, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["k", "re_lambda", "im_lambda", "residual"])
        for k, (lam, res) in enumerate(zip(bcfg.roots, per_root), start=1):
            w.writerow([k, lam.real, lam.imag, res])
    print(f"wrote {out}")


def _bt_record(state, mu, cfg):
    opts = backlund.SolverOptions(tol=cfg.newton_tol)
    bt = backlund.bt_apply(state, mu, opts)
    spec = backlund.spectrality(bt)
    before = chain.conserved_quantities(state)
    after = chain.conserved_quantities(bt.target)
    return {
        "mu": _complex_pair(mu),
        "iters": bt.newton_iters,
        "residuals": {
            "bt": bt.residual,
            "intertwine": backlund.intertwining_residual(bt, 0.9 + 0.4j),
            "spectrality": float(spec.collinearity.max()),
            "trace": spec.trace_residual,
            "canonicity": backlund.canonicity_check(state, mu, opts=opts),
        },
        "H_before": [_complex_pair(h) for h in before.H],
        "H_after": [_complex_pair(h) for h in after.H],
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
        rng = np.random.default_rng(cfg.seed)
        state = chain.ChainState.random(cfg.N, rng)

    mus = [cfg.mu]
    if args.sweep:
        lo, hi, steps = args.sweep
        mus = list(np.linspace(lo, hi, int(steps)))

    try:
        recs = [_bt_record(state, m, cfg) for m in mus]
    except backlund.BTError as exc:
        print(f"error: Backlund solve failed: {exc}", file=sys.stderr)
        return 1

    payload = {"schema": "albaxter-bt/1", "source": state.to_json_dict(),
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
    if args.dt <= 0 or args.steps < 1:
        print("error: need dt > 0 and steps >= 1", file=sys.stderr)
        return 2
    rng = np.random.default_rng(cfg.seed)
    state = chain.ChainState.random(cfg.N, rng)
    base = chain.conserved_quantities(state)

    header = ["t"]
    for k in range(1, cfg.N + 1):
        header += [f"q{k}_re", f"q{k}_im"]
    for k in range(1, cfg.N + 1):
        header += [f"r{k}_re", f"r{k}_im"]
    for i in range(cfg.N + 1):
        header += [f"H{i}_re", f"H{i}_im"]
    header += ["det_re", "det_im", "drift"]

    rows = []
    t = 0.0
    for step in range(args.steps + 1):
        cons = chain.conserved_quantities(state)
        drift = max(float(np.abs(cons.H - base.H).max()),
                    abs(cons.det - base.det))
        row = [t]
        for z in state.q:
            row += _complex_pair(z)
        for z in state.r:
            row += _complex_pair(z)
        for h in cons.H:
            row += _complex_pair(h)
        row += _complex_pair(cons.det) + [drift]
        rows.append(row)
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
    try:
        if args.command == "verify":
            return cmd_verify(args)
        if args.command == "bt":
            return cmd_bt(args)
        if args.command == "evolve":
            return cmd_evolve(args)
        if args.command == "kernel":
            return cmd_kernel(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except chain.DegenerateStateError as exc:
        print(f"error: degenerate state rejected: {exc}", file=sys.stderr)
        return 1
    parser.error("unknown command")


if __name__ == "__main__":
    sys.exit(main())
