"""Self-tests of the benchmark harness.

Run from the root of a source checkout:

    python3 -m pytest -q perfbench/test_harness.py
"""

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
for p in (str(BENCH_DIR), str(ROOT / "src")):
    if p not in sys.path:
        sys.path.insert(0, p)

import pytest  # noqa: E402

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
from albaxter import backlund, funspace, qcalc, suites  # noqa: E402
from albaxter.algebra import MultiDual  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _raise(exc):
    def run_():
        raise exc
    return run_


def test_raising_task_is_exactly_one_failed_op():
    task = workloads.Task("suite.bt", "bt/x", _raise(backlund.BTError("x")),
                          workloads.SUITE_CHECKS["bt"])
    res = workloads.run_task(task)
    assert (res.attempted, res.failed) == (1, 1)
    assert res.error == "BTError" and res.typed


def test_untyped_error_makes_the_run_incorrect():
    task = workloads.Task("g", "t", _raise(KeyError("k")))
    res = workloads.run_task(task)
    assert (res.attempted, res.failed, res.typed) == (1, 1, False)
    problems = run.check_outputs([res], [{"results": [res]}])
    assert problems == ["t raised untyped KeyError"]


def test_residuals_judged_by_own_table_and_missing_ids_fail():
    # 2e-5 fails the recorded 1e-5 canonicity tolerance whatever the
    # program reports; a check id that disappears is a failed op.
    task = workloads.Task("g", "t", lambda: [("bt.canonicity", 2e-5),
                                             ("bt.map_residual", 1e-13)],
                          ("bt.canonicity", "bt.map_residual", "bt.trace_formula"))
    res = workloads.run_task(task)
    assert [ok for _, _, ok in res.ops] == [False, True]
    assert res.missing == ("bt.trace_formula",)
    assert (res.attempted, res.failed) == (3, 2)
    assert not workloads.judge("bt.map_residual", float("nan"))


def test_self_time_on_nested_spans():
    spans = [("suites.task", -1, 0.0, 10.0, None),
             ("backlund.bt_apply", 0, 1.0, 4.0, None),
             ("classical_chain.monodromy", 1, 2.0, 3.0, None),
             ("backlund.spectrality", 0, 5.0, 6.0, None),
             ("algebra.MultiDual.__mul__", 3, 5.2, 5.7, "ZeroDivisionError")]
    assert tracing.self_times(spans) == pytest.approx([6.0, 2.0, 1.0, 0.5, 0.5])
    s = tracing.summarize(spans)
    assert s["layer_self_s"] == pytest.approx(
        {"suites": 6.0, "backlund": 2.5, "classical_chain": 1.0,
         "algebra": 0.5})
    assert sum(s["layer_self_s"].values()) == pytest.approx(10.0)
    assert s["errors"] == {"algebra.MultiDual.__mul__": 1,
                           "algebra.<layer>": 1}


def test_tracer_spans_nest_and_restore_bindings():
    orig_jackson = funspace.jackson_op
    orig_suite = suites.SUITES["bt"]
    orig_mul = MultiDual.__dict__["__mul__"]
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        assert funspace.jackson_op is not orig_jackson
        assert suites.SUITES["bt"] is not orig_suite
        with tr.span(tracing.TASK_SPAN):
            qcalc.jackson_op(lambda r: r[0] ** 2, 1, qcalc.QParam(0.5), [0.7])
            MultiDual(1.0, [1.0]) * 2.0
    assert funspace.jackson_op is orig_jackson
    assert suites.SUITES["bt"] is orig_suite
    assert MultiDual.__dict__["__mul__"] is orig_mul
    names = [sp[0] for sp in tr.spans]
    assert names == [tracing.TASK_SPAN, "qcalc.jackson_op",
                     "algebra.MultiDual.__mul__"]
    assert [sp[1] for sp in tr.spans] == [-1, 0, 0]


def _fake_pass(wall, latencies, spans=(), counters=None):
    results = [workloads.TaskResult(f"t{i}", lat,
                                    ops=[("bt.map_residual", 0.0, True)])
               for i, lat in enumerate(latencies)]
    return {"wall_s": wall, "raw_wall_s": wall, "scale": 1.0,
            "results": results, "summary": tracing.summarize(list(spans)),
            "peak_rss_mb": 50.0,
            "spans": list(spans), "counters": counters or {}}


def test_metric_names_equal_benchmark_json():
    passes = [_fake_pass(1.0, [0.01 * i for i in range(1, 30)])
              for _ in range(2)]
    e2e, attempted, failed, detail = run.end_to_end(passes, [0.5, 0.6], 58)
    assert sorted(e2e) == sorted(m["name"] for m in SPEC["end_to_end"])
    assert (attempted, failed) == (58, 0)
    assert detail["task_tail_percentile"] == 82
    spans = [(tracing.TASK_SPAN, -1, 0.0, 0.9, None)]
    layer, _ = run.per_layer([_fake_pass(1.0, [0.9], spans)],
                             [_fake_pass(0.8, [0.7])])
    assert sorted(layer) == sorted(m["name"] for m in SPEC["per_layer"])
    assert layer["trace.overhead_s"] == pytest.approx(0.2)
    # self times of all layers plus the glue account for the traced pass
    selfs = [v for k, v in layer.items() if k.endswith(".self_s")]
    assert sum(selfs) == pytest.approx(layer["trace.run_s"])


def _traced_calls(workload, seed, n_tasks):
    tasks = workloads.build_tasks(workload, seed)[:n_tasks]
    tr = tracing.Tracer()
    with tracing.instrument(tr):
        results = [workloads.run_task(t, tr) for t in tasks]
    return (tracing.summarize(tr.spans)["calls"], dict(tr.counters),
            [r.outcome() for r in results])


@pytest.mark.parametrize("workload,n_tasks", [("verify-default", 10),
                                              ("chain-scale", 8),
                                              ("quantum-scale", 1)])
def test_traced_call_counts_repeat_at_one_seed(workload, n_tasks):
    first = _traced_calls(workload, 5, n_tasks)
    second = _traced_calls(workload, 5, n_tasks)
    assert first == second
    assert sum(first[0].values()) > n_tasks


def test_inputs_follow_the_seed():
    def inputs(seed):
        return [t.label for t in workloads.build_tasks("chain-scale", seed)]
    a, b = (workloads.build_tasks("quantum-scale", s) for s in (1, 2))
    assert inputs(1) == inputs(2)   # same task list ...
    ra = workloads.run_task(a[0])
    rb = workloads.run_task(b[0])
    assert ra.ops != rb.ops         # ... on different inputs
