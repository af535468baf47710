import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import albaxter
from albaxter import backlund, classical_chain as chain, cli
from albaxter.report import RunConfig


def test_bt_sweep_writes_conserving_records(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = cli.main(["bt", "--N", "8", "--sweep", "0.1", "0.45", "3",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema"] == "albaxter-bt/2"
    points = np.array([complex(*p) for p in payload["points"]])
    assert np.array_equal(points, chain.TRACE_POINTS)
    recs = payload["records"]
    assert [rec["mu"][0] for rec in recs] == [0.1, 0.275, 0.45]
    for rec in recs:
        before = np.array([complex(*t) for t in rec["trace_before"]])
        after = np.array([complex(*t) for t in rec["trace_after"]])
        assert before.shape == after.shape == (3,)
        assert not {"H_before", "H_after"} & set(rec)
        drift = np.abs(after - before) / np.abs(before)
        assert drift.max() < 1e-10
    assert f"wrote {out}" in capsys.readouterr().out


def _bt_record_per_mu(state, mu, tol):
    """An `albaxter bt` record by direct calls at one mu, the source's
    conserved quantities taken anew."""
    opts = backlund.SolverOptions(tol=tol)
    bt = backlund.bt_apply(state, mu, opts)
    spec = backlund.spectrality(bt)
    before = chain.conserved_quantities(state)
    after = chain.conserved_quantities(bt.target)
    pair = lambda z: [float(np.real(z)), float(np.imag(z))]
    return {
        "mu": pair(mu),
        "iters": bt.newton_iters,
        "residuals": {
            "bt": bt.residual,
            "intertwine": backlund.intertwining_residual(bt, 0.9 + 0.4j),
            "spectrality": float(spec.collinearity.max()),
            "trace": spec.trace_residual,
            "canonicity": backlund.canonicity_check(state, mu, opts=opts),
        },
        "trace_before": [pair(t) for t in before.trace],
        "trace_after": [pair(t) for t in after.trace],
        "det_before": pair(before.det),
        "det_after": pair(after.det),
        "gamma": [pair(g) for g in bt.gamma_site],
        "target": bt.target.to_json_dict(),
    }


def test_bt_sweep_output_equals_per_mu_records(tmp_path):
    # the sweep takes the source's conserved quantities once
    out = tmp_path / "sweep.json"
    assert cli.main(["bt", "--N", "8", "--sweep", "0.1", "0.45", "3",
                     "--out", str(out)]) == 0
    backlund._solved.clear()  # the records below solve anew
    cfg = RunConfig()
    state = chain.ChainState.random(8, np.random.default_rng(cfg.seed))
    recs = [_bt_record_per_mu(state, mu, cfg.newton_tol)
            for mu in np.linspace(0.1, 0.45, 3)]
    want = json.dumps({"schema": "albaxter-bt/2",
                       "source": state.to_json_dict(),
                       "points": [[p.real, p.imag]
                                  for p in chain.TRACE_POINTS],
                       "records": recs},
                      sort_keys=True, indent=2)
    assert out.read_text(encoding="utf-8") == want


def test_bt_sweep_canonicity_at_roundoff(tmp_path):
    # band residuals on this sweep: 8e-16 to 1.5e-14 (at mu=0.1)
    out = tmp_path / "sweep.json"
    assert cli.main(["bt", "--N", "16", "--sweep", "0.1", "0.45", "4",
                     "--out", str(out)]) == 0
    recs = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert len(recs) == 4
    for rec in recs:
        assert rec["residuals"]["canonicity"] <= 2e-12


def test_verify_bt_n16_generating_function_passes(tmp_path):
    # only this record: trace_formula, gamma_eigenvalues and
    # classical_baxter still fail their absolute bounds at N=16
    out = tmp_path / "bt.json"
    cli.main(["verify", "bt", "--N", "16", "--out", str(out)])
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    [rec] = [c for c in checks if c["check_id"] == "bt.generating_function"]
    assert rec["pass"] and rec["params"] == {"N": 16, "mu": 0.3}
    assert rec["residual"] <= 1e-11 and rec["tolerance"] == 1e-6


def test_verify_bt_n64_prints_every_record(capsys):
    # the map residual there was 2.06e-12, above the 1e-12 acceptance
    cli.main(["verify", "bt", "--N", "64"])
    lines = [ln for ln in capsys.readouterr().out.splitlines()
             if ln.startswith(("PASS ", "FAIL "))]
    assert len(lines) == 10
    assert lines[0].split()[:2] == ["PASS", "bt.map_residual"]


def test_verify_baxter_writes_all_checks(tmp_path, capsys):
    out = tmp_path / "baxter.json"
    assert cli.main(["verify", "baxter", "--out", str(out)]) == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    checks = payload["checks"]
    assert len(checks) == 10
    assert len({c["check_id"] for c in checks}) == 10
    assert all(c["check_id"].startswith("baxter.") and c["pass"]
               for c in checks)
    sized = [c for c in checks if "N" in c["params"]]
    assert "baxter.trace_identity" in {c["check_id"] for c in sized}
    assert all(c["params"]["N"] == 2 for c in sized)
    assert "10/10 checks passed" in capsys.readouterr().out


def test_config_residual_tolerance_is_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerances": {"newton": 1e-12,
                                              "residual": 1e-10}}),
                   encoding="utf-8")
    assert cli.main(["verify", "baxter", "--config", str(cfg)]) == 2
    assert "tolerances.residual" in capsys.readouterr().err


def test_verify_quantum_and_bethe_exit_zero(capsys):
    assert cli.main(["verify", "quantum"]) == 0
    assert "8/8 checks passed" in capsys.readouterr().out
    assert cli.main(["verify", "bethe", "--N", "4", "--m", "2"]) == 0
    assert "7/7 checks passed" in capsys.readouterr().out


def test_verify_all_reaches_n8(capsys):
    # the graded Fock space at N=8, n_max=5 has C(13, 5) = 1287 states
    assert cli.main(["verify", "all", "--N", "8"]) == 0
    assert "42/42 checks passed" in capsys.readouterr().out


@pytest.mark.parametrize("N, m", [(4, 3), (6, 3), (8, 4)])
def test_verify_bethe_passes_at_three_and_four_roots(N, m, capsys):
    assert cli.main(["verify", "bethe", "--N", str(N), "--m", str(m)]) == 0
    assert "7/7 checks passed" in capsys.readouterr().out


def test_verify_bethe_n16_m3_completes(tmp_path):
    out = tmp_path / "bethe.json"
    cli.main(["verify", "bethe", "--N", "16", "--m", "3", "--out", str(out)])
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 7
    [rec] = [c for c in checks if c["check_id"] == "bethe.fock_eigen_residual"]
    assert rec["pass"] and rec["params"] == {"N": 16, "m": 3, "n_max": 4}


def _run_and_list_modules(code):
    """Run `code` in a fresh interpreter on the package sources and return
    the scipy modules and albaxter.algebra that it left in sys.modules."""
    code += ("; import sys; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy' or m == 'albaxter.algebra'))")
    src = Path(albaxter.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src)})
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_loads_no_scipy_and_no_algebra():
    # the generic-ring algebra serves the test oracles and the benchmark only
    assert _run_and_list_modules("import albaxter.cli") == "[]"


def test_verify_all_loads_no_scipy(tmp_path):
    # the package needs numpy only: every suite at the default config,
    # the dilogarithm of the generating function included, runs without
    # scipy
    out = tmp_path / "all.json"
    code = ("from albaxter import cli; "
            f"assert cli.main(['verify', 'all', '--out', {str(out)!r}]) == 0")
    assert _run_and_list_modules(code) == "[]"


def test_verify_bt_n512_reports_every_check(tmp_path):
    # prod_k gamma_k and mu^N gamma underflow at N=512; the three absolute
    # residuals fail as at N=16, and no error escapes
    out = tmp_path / "bt.json"
    assert cli.main(["verify", "bt", "--N", "512", "--out", str(out)]) == 1
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 10
    assert {c["check_id"] for c in checks if not c["pass"]} == {
        "bt.trace_formula", "bt.gamma_eigenvalues", "bt.classical_baxter"}


def test_bt_n512_small_mu_writes_a_record(tmp_path, capsys):
    out = tmp_path / "bt.json"
    assert cli.main(["bt", "--N", "512", "--mu", "0.17",
                     "--out", str(out)]) == 0
    [rec] = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert rec["mu"] == [0.17, 0.0] and rec["residuals"]["bt"] < 1e-12
    # det L / gamma overflows in spectrality: the trace residual keeps the
    # NaN that follows, and no numpy warning reaches stderr
    assert np.isnan(rec["residuals"]["trace"])
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("raw, message", [
    ([1, 2], "config must be a JSON object"),
    ({"seeds": 3}, "unknown config fields"),
    ({"alpha": 0.5, "eta": 1.0}, "give alpha or eta"),
    ({"alpha": "half"}, "alpha must be a number"),
    ({"eta": -1}, "eta must be positive"),
    ({"tolerances": [1e-12]}, "tolerances must be {newton}"),
    ({"tolerances": {"newton": None}}, "newton must be a number"),
    ({"N": 2.0}, "N must be an integer"),
    ({"m": -1}, "m must be a nonnegative integer"),
    ({"alpha": 1.5}, "alpha must lie in (0, 1)"),
    ({"mu": 0}, "mu must be nonzero"),
    ({"n_max": 2.5}, "n_max must be an integer"),
    ({"n_max": 0}, "n_max must be an integer"),
    ({"tolerances": {"newton": 0}}, "tolerances.newton must be positive"),
    ({"output_path": 7}, "output_path must be a string"),
    ({"format": "xml"}, "format must be"),
    ({"seed": -3}, "seed must be an integer"),
    ({"seed": "7"}, "seed must be an integer"),
    ({"sample_counts": 0}, "sample_counts must be an integer"),
    # JSON true is a Python bool, a subclass of int
    ({"N": True}, "N must be an integer"),
    ({"m": False}, "m must be a nonnegative integer"),
    ({"n_max": True}, "n_max must be an integer"),
    ({"seed": True}, "seed must be an integer"),
    ({"sample_counts": True}, "sample_counts must be an integer"),
    # json writes these as NaN and Infinity, and reads them back
    ({"mu": float("nan")}, "mu must be nonzero and finite"),
    ({"mu": float("-inf")}, "mu must be nonzero and finite"),
    ({"tolerances": {"newton": float("inf")}},
     "tolerances.newton must be positive and finite"),
    ({"tolerances": {"newton": float("nan")}},
     "tolerances.newton must be positive and finite"),
    # nor is a bool a float: true would read as 1.0
    ({"alpha": True}, "alpha must be a number"),
    ({"eta": True}, "eta must be a number"),
    ({"mu": True}, "mu must be a number"),
    ({"mu": False}, "mu must be a number"),
    ({"tolerances": {"newton": True}}, "newton must be a number"),
    ("{", "cannot read config"),
])
def test_malformed_config_exits_2(tmp_path, capsys, raw, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(raw if isinstance(raw, str) else json.dumps(raw),
                   encoding="utf-8")
    assert cli.main(["verify", "quantum", "--config", str(cfg)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err


def test_negative_seed_flag_exits_2(capsys):
    assert cli.main(["verify", "quantum", "--seed", "-3"]) == 2
    assert "seed must be an integer" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    # an infinite tolerance turned off bt_apply's acceptance gate
    ("--tol", "inf"), ("--tol", "nan"), ("--mu", "nan")])
def test_non_finite_flag_exits_2(capsys, flag, value):
    assert cli.main(["verify", "bt", flag, value]) == 2
    assert capsys.readouterr().err.startswith("config error: ")


@pytest.mark.parametrize("argv", [
    # np.linspace raised on these; 2.5 was cut to 2 values
    ["bt", "--sweep", "0.1", "0.9", "-1"],
    ["bt", "--sweep", "0.1", "0.9", "nan"],
    ["bt", "--sweep", "0.1", "0.9", "inf"],
    ["bt", "--sweep", "0.1", "0.9", "2.5"],
    ["bt", "--sweep", "0.1", "0.9", "0"],
    ["bt", "--sweep", "nan", "0.9", "3"],
    ["kernel", "--grid", "-1"],
    ["kernel", "--grid", "0"],
    # these wrote a NaN trajectory and exited 0
    ["evolve", "--dt", "nan"],
    ["evolve", "--dt", "inf"],
    ["evolve", "--dt", "0"],
    ["evolve", "--steps", "0"],
])
def test_bad_command_input_exits_2(tmp_path, capsys, argv):
    out = tmp_path / "out"
    assert cli.main(argv + ["--N", "2", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("config error: ")
    assert not out.exists()


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, np.array(rows, dtype=float)


def test_evolve_writes_conserving_trajectory(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--N", "4", "--steps", "5",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    # t, q and r as (re, im) pairs, the traces at three points and det as
    # pairs, drift
    assert len(header) == 26 and rows.shape == (6, 26)
    assert header[17:23] == ["tr0_re", "tr0_im", "tr1_re", "tr1_im",
                             "tr2_re", "tr2_im"]
    assert header[-1] == "drift" and rows[:, -1].max() < 1e-12
    assert rows[0, -1] == 0.0 and rows[-1, -1] > 0.0


def test_kernel_writes_finite_grid(tmp_path):
    out = tmp_path / "k.csv"
    assert cli.main(["kernel", "--N", "2", "--grid", "4",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["r1", "r2", "qhat_re", "qhat_im"]
    assert rows.shape == (4, 4) and np.isfinite(rows).all()


def test_verify_bethe_csv_writes_roots(tmp_path):
    # the roots go next to the JSON report, whatever its suffix
    for report, roots in (("b.json", "b_roots.csv"),
                          ("rep.txt", "rep_roots.csv")):
        out = tmp_path / report
        assert cli.main(["verify", "bethe", "--N", "4", "--m", "2",
                         "--format", "csv", "--out", str(out)]) == 0
        assert json.loads(out.read_text(encoding="utf-8"))["checks"]
        header, rows = _read_csv(tmp_path / roots)
        assert header == ["k", "re_lambda", "im_lambda", "residual"]
        assert rows.shape == (2, 4) and rows[:, 3].max() < 1e-12
