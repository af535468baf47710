import importlib.util
import json
import math
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "ladder.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ladder", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_ladder_writes_rungs_and_exponents(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--N", "8,16,32", "--k", "1",
         "--out", str(out)],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    data = json.loads(out.read_text())
    assert set(data["environment"]["blas_threads"].values()) == {"1"}
    layer = data["layers"]["classical"]
    assert layer["call"] == "suites.suite_classical"
    assert [r["N"] for r in layer["rungs"]] == [8, 16, 32]
    for rung in layer["rungs"]:
        assert rung["seconds"] > 0 and rung["checks"] == 7
        assert 0 <= rung["passed"] <= 7
    assert math.isfinite(layer["exponent"])
    assert len(layer["local_exponents"]) == 2
    layer = data["layers"]["bt"]
    assert layer["call"] == "suites.suite_bt"
    assert [r["N"] for r in layer["rungs"]] == [8, 16, 32]
    for rung in layer["rungs"]:
        assert rung["seconds"] > 0 and rung["checks"] == 10
        assert 0 <= rung["passed"] <= 10
    assert math.isfinite(layer["exponent"])
    assert len(layer["local_exponents"]) == 2
    layer = data["layers"]["bt_map"]
    assert layer["call"] == "backlund.bt_apply"
    assert [r["N"] for r in layer["rungs"]] == [8, 16, 32]
    for rung in layer["rungs"]:
        assert rung["seconds"] > 0
        assert rung["checks"] == 1 and rung["passed"] == 1
    assert math.isfinite(layer["exponent"])
    assert len(layer["local_exponents"]) == 2
    layer = data["layers"]["funspace"]
    assert layer["call"].startswith("funspace.baxter_action_residual")
    assert [r["N"] for r in layer["rungs"]] == [8, 16, 32]
    for rung in layer["rungs"]:
        assert rung["seconds"] > 0 and rung["checks"] == 3
    # the absolute trace identity passes at N = 8 only; triangularization
    # and Delta pass at every rung
    assert [r["passed"] for r in layer["rungs"]] == [3, 2, 2]
    assert math.isfinite(layer["exponent"])
    assert len(layer["local_exponents"]) == 2


def test_bt_calls_solve_anew(monkeypatch):
    # a timed call that found its maps in the memo would time no solve
    tool = _tool()
    solves = []
    polish = tool.backlund._polish
    monkeypatch.setattr(tool.backlund, "_polish",
                        lambda *args: solves.append(1) or polish(*args))
    for layer, maps in (("bt", 5), ("bt_map", 1)):
        solves.clear()
        call = tool.LAYERS[layer][1](8)
        call()
        call()
        assert len(solves) == 2 * maps, layer


def test_raising_and_capped_rungs_are_reported():
    tool = _tool()

    def make(N):
        def call():
            if N == 16:
                raise ValueError("too big")
            return []
        return call

    tool.LAYERS = {"toy": ("toy", make)}
    rec = tool.ladder("toy", [8, 16, 32], 1)
    assert rec["rungs"][1] == {"N": 16, "error": "ValueError: too big"}
    assert [("seconds" in r) for r in rec["rungs"]] == [True, False, True]
    assert len(rec["local_exponents"]) == 1
    rec = tool.ladder("toy", [8, 32, 64], 1, cap=-1.0)
    assert "seconds" in rec["rungs"][0]
    assert all("skipped" in r for r in rec["rungs"][1:])
    assert rec["exponent"] is None and rec["local_exponents"] == []
