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
