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
