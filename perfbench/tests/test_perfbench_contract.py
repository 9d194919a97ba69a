"""BENCHMARK.json names exactly the metrics and workloads the code emits."""

import json

import run
import tracing
from workloads import WORKLOADS

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def test_workloads_match():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)


def test_per_layer_metrics_match_the_traced_run():
    emitted = tracing.layer_metrics(tracing.Tracer(), passes=1, overhead_s=0.0)
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {name: unit for name, (_, unit) in emitted.items()}


def test_end_to_end_metrics_match_the_untraced_run():
    rows = [{"pass": 0, "kind": kind, "seconds": 0.5,
             "iterations": 3 if kind == "descend" else None}
            for kind in ("eval", "torsion", "verify", "varcheck", "descend")]
    emitted = run.end_to_end(rows, [run.Pass(0, False, 2.5, [])], [0.4, 0.5], 60.0)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {name: unit for name, (_, unit, _) in emitted.items()}
    assert emitted["descend_iter_ms"][0] == 1e3 * 0.5 / 3
    assert all(value > 0 for value, _, _ in emitted.values())
