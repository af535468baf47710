import json

import numpy as np

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
