import csv
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

import albaxter
from albaxter import cli


def test_bt_sweep_writes_conserving_records(tmp_path, capsys):
    out = tmp_path / "sweep.json"
    code = cli.main(["bt", "--N", "8", "--sweep", "0.1", "0.45", "3",
                     "--out", str(out)])
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["schema"] == "albaxter-bt/1"
    recs = payload["records"]
    assert [rec["mu"][0] for rec in recs] == [0.1, 0.275, 0.45]
    for rec in recs:
        before = np.array([complex(*h) for h in rec["H_before"]])
        after = np.array([complex(*h) for h in rec["H_after"]])
        assert before.shape == (9,)
        assert before[0] == 1.0 and before[8] == 1.0
        drift = np.abs(after - before) / np.maximum(np.abs(before), 1.0)
        assert drift.max() < 1e-10
    assert f"wrote {out}" in capsys.readouterr().out


def test_bt_sweep_canonicity_at_roundoff(tmp_path):
    # exact-Jacobian deviations on this sweep: 9e-15 to 1.8e-13 (at mu=0.1)
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


def test_verify_bethe_n16_m3_completes(tmp_path):
    out = tmp_path / "bethe.json"
    cli.main(["verify", "bethe", "--N", "16", "--m", "3", "--out", str(out)])
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 7
    [rec] = [c for c in checks if c["check_id"] == "bethe.fock_eigen_residual"]
    assert rec["pass"] and rec["params"] == {"N": 16, "m": 3, "n_max": 5}


def test_cli_import_loads_no_scipy_and_no_algebra():
    # scipy loads on first use (FockRep, the dilogarithm); the generic-ring
    # algebra serves the test oracles and the benchmark only
    code = ("import sys, albaxter.cli; print(sorted(m for m in sys.modules "
            "if m.split('.')[0] == 'scipy' or m == 'albaxter.algebra'))")
    src = Path(albaxter.__file__).resolve().parents[1]
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env={"PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"


def test_verify_bt_n512_reports_every_check(tmp_path):
    # prod_k gamma_k and mu^N gamma underflow at N=512; the three absolute
    # residuals fail as at N=16, and no error escapes
    out = tmp_path / "bt.json"
    assert cli.main(["verify", "bt", "--N", "512", "--out", str(out)]) == 1
    checks = json.loads(out.read_text(encoding="utf-8"))["checks"]
    assert len(checks) == 10
    assert {c["check_id"] for c in checks if not c["pass"]} == {
        "bt.trace_formula", "bt.gamma_eigenvalues", "bt.classical_baxter"}


def test_bt_n512_small_mu_writes_a_record(tmp_path):
    out = tmp_path / "bt.json"
    assert cli.main(["bt", "--N", "512", "--mu", "0.17",
                     "--out", str(out)]) == 0
    [rec] = json.loads(out.read_text(encoding="utf-8"))["records"]
    assert rec["mu"] == [0.17, 0.0] and rec["residuals"]["bt"] < 1e-12


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = list(csv.reader(fh))
    return header, np.array(rows, dtype=float)


def test_evolve_writes_conserving_trajectory(tmp_path):
    out = tmp_path / "t.csv"
    assert cli.main(["evolve", "--N", "4", "--steps", "5",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    # t, q and r as (re, im) pairs, H_0..H_4 and det as pairs, drift
    assert len(header) == 30 and rows.shape == (6, 30)
    assert header[-1] == "drift" and rows[:, -1].max() < 1e-12


def test_kernel_writes_finite_grid(tmp_path):
    out = tmp_path / "k.csv"
    assert cli.main(["kernel", "--N", "2", "--grid", "4",
                     "--out", str(out)]) == 0
    header, rows = _read_csv(out)
    assert header == ["r1", "r2", "qhat_re", "qhat_im"]
    assert rows.shape == (4, 4) and np.isfinite(rows).all()


def test_verify_bethe_csv_writes_roots(tmp_path):
    out = tmp_path / "b.json"
    assert cli.main(["verify", "bethe", "--N", "4", "--m", "2",
                     "--format", "csv", "--out", str(out)]) == 0
    header, rows = _read_csv(tmp_path / "b_roots.csv")
    assert header == ["k", "re_lambda", "im_lambda", "residual"]
    assert rows.shape == (2, 4) and rows[:, 3].max() < 1e-12
