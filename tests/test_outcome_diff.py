import argparse
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "outcome_diff.py"


def test_one_tree_against_itself_has_no_differences():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--workload", "chain-scale", "--seeds", "1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[-1] == "270 ops, 0 changed, 0 pass->fail, 0 fail->pass"
    assert not any(line.startswith(("flip:", "error changed:"))
                   for line in lines)
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert rows["sweep.intertwining"][:3] == ["40", "0", "0"]
    assert rows["classical.rmatrix_relation"][:3] == ["4", "0", "0"]
    # the worst residual/bound of each check, the same on both trees
    for check, (_, _, _, old, new) in rows.items():
        assert old == new and float(old) >= 0.0, check


def test_suite_mode_runs_one_suite_per_seed_and_size():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--suite", "classical", "--N", "2,3", "--seeds", "0-1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("suite classical at N=2,3, seeds 0-1: ")
    # seven checks, each at two sizes and two seeds
    assert lines[-1] == "28 ops, 0 changed, 0 pass->fail, 0 fail->pass"
    rows = {line.split()[0]: line.split()[1:] for line in lines[2:-1]}
    assert sorted(rows) == sorted(
        ["classical.rmatrix_relation", "classical.trace_involution",
         "classical.bracket_weight", "classical.conserved_involution",
         "classical.cyclic_trace", "classical.monodromy_det",
         "classical.rk4_drift_order"])
    assert all(row[:3] == ["4", "0", "0"] for row in rows.values())


def test_suite_mode_takes_magnon_numbers():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--suite", "bethe", "--N", "4:2,5", "--seeds", "0-1"],
        capture_output=True, text=True, timeout=300, check=False)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("suite bethe at N=4:2,5, seeds 0-1: ")
    # seven checks, each at two sizes and two seeds
    assert lines[-1] == "28 ops, 0 changed, 0 pass->fail, 0 fail->pass"
    assert _tool().parse_sizes("16:3,20") == [{"N": 16, "m": 3}, {"N": 20}]
    with pytest.raises(argparse.ArgumentTypeError):
        _tool().parse_sizes("16:3:1")


def test_suite_tasks_run_at_the_given_magnon_number(monkeypatch):
    from albaxter import bethe
    tool = _tool()
    sys.path.insert(0, str(ROOT / "perfbench"))
    try:
        import workloads
    finally:
        sys.path.remove(str(ROOT / "perfbench"))
    tasks = tool.suite_tasks(workloads, "bethe", tool.parse_sizes("6:3,4"), 0)
    assert [t.label for t in tasks] == ["bethe/N=6/m=3", "bethe/N=4"]
    solve, sizes = bethe.solve_bethe, []
    monkeypatch.setattr(bethe, "solve_bethe", lambda N, m, qp: (
        sizes.append((N, m)), solve(N, m, qp))[1])
    tasks[0].run()
    tasks[1].run()
    # the suite's own roots first, then its m = 1 roots
    assert sizes == [(6, 3), (6, 1), (4, 1), (4, 1)]


def test_suite_mode_needs_sizes():
    proc = subprocess.run(
        [sys.executable, str(TOOL), str(ROOT), str(ROOT),
         "--suite", "classical", "--seeds", "0"],
        capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert "--suite needs --N" in proc.stderr


def _tool():
    sys.path.insert(0, str(TOOL.parent))
    try:
        import outcome_diff
    finally:
        sys.path.remove(str(TOOL.parent))
    return outcome_diff


def test_flips_and_changes_are_counted(capsys):
    tool = _tool()
    old = {(1, "a"): ({"x.one": (1e-13, True), "x.two": (2e-11, False)},
                      None),
           (1, "b"): ({"x.one": (3e-13, True)}, None)}
    new = {(1, "a"): ({"x.one": (1.5e-13, True), "x.two": (5e-12, True)},
                      None),
           (1, "b"): ({}, "BTError")}
    stats, flips, errors = tool.compare(old, new)
    assert stats["x.one"] == [2, 2, float("inf")]
    assert stats["x.two"] == [1, 1, 0.75]
    assert errors == [(1, "b", None, "BTError")]
    assert [(f[1], f[2]) for f in flips] == [("a", "x.two"), ("b", "x.one")]
    assert tool.report(stats, flips, errors) == 1
    out = capsys.readouterr().out
    assert "flip: seed 1 b x.one: pass -> fail (3e-13 -> None)" in out
    assert out.splitlines()[-1] == \
        "3 ops, 3 changed, 1 pass->fail, 1 fail->pass"


def test_worst_ratio_per_check_on_each_tree(capsys):
    tool = _tool()
    tol = {"x.one": 1e-12, "x.two": 1e-10}
    old = {(1, "a"): ({"x.one": (1e-13, True), "x.two": (2e-11, True),
                       "x.free": (5.0, True)}, None),
           (2, "a"): ({"x.one": (4e-13, True), "x.two": (None, False)},
                      None)}
    new = {(1, "a"): ({"x.one": (8e-13, True), "x.two": (1e-12, True),
                       "x.free": (5.0, True)}, None),
           (2, "a"): ({"x.one": (2e-13, True), "x.two": (float("nan"),
                                                         False)}, None)}
    ratios = (tool.worst_ratios(old, tol), tool.worst_ratios(new, tol))
    assert ratios[0] == {"x.one": pytest.approx(0.4), "x.two": float("inf")}
    assert ratios[1] == {"x.one": pytest.approx(0.8), "x.two": float("inf")}
    # a check moved toward its bound without a flip still shows
    stats, flips, errors = tool.compare(old, new)
    assert tool.report(stats, flips, errors, ratios) == 0
    rows = {line.split()[0]: line.split()[1:]
            for line in capsys.readouterr().out.splitlines()[1:-1]}
    assert rows["x.one"][3:] == ["0.4", "0.8"]
    assert rows["x.two"][3:] == ["inf", "inf"]
    assert rows["x.free"][3:] == ["nan", "nan"]
