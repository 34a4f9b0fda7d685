"""Tests of the benchmark's own code: span arithmetic, patching, names, smoke runs.

Run from the repository root:  python3 -m pytest bench/tests -q
"""

import json
import re
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import distill_lab  # noqa: E402
import run  # noqa: E402
from tracing import SITES, LayerTotals, Spans, Tracer, patch_targets  # noqa: E402
from workloads import WORKLOADS, Ops  # noqa: E402

NAME_RE = re.compile(r"[A-Za-z0-9_.-]+")


def spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as f:
        return json.load(f)


def synthetic_spans():
    # a [0, 10] > b [1, 4] > c [2, 3];  a > d [5, 9];  e [20, 22] root
    names = ["a", "b", "c", "d", "e"]
    return Spans(
        names=names,
        name=np.array([0, 1, 2, 3, 4], dtype=np.int32),
        parent=np.array([-1, 0, 1, 0, -1], dtype=np.int32),
        start=np.array([0.0, 1.0, 2.0, 5.0, 20.0]),
        end=np.array([10.0, 4.0, 3.0, 9.0, 22.0]),
        units=np.array([0.0, 3.0, 0.0, 2.0, 0.0]),
        error=np.array([0, 0, 1, 0, 0], dtype=np.int8),
    )


def test_self_time_subtracts_direct_children_only():
    spans = synthetic_spans()
    np.testing.assert_allclose(spans.self_time(), [3.0, 2.0, 1.0, 4.0, 2.0])


def test_layer_totals_by_name_and_segment():
    spans = synthetic_spans()
    every = LayerTotals.of(spans)
    assert every.self_s["a"] == 3.0 and every.incl_s["a"] == 10.0
    assert every.total("self_s", ["b", "c"]) == 3.0
    assert every.units["b"] == 3.0 and every.errors["c"] == 1.0
    assert every.root_s == 12.0
    first = LayerTotals.of(spans, [("pass", 0, 4)])
    assert first.root_s == 10.0 and first.calls["e"] == 0.0
    # self time stays relative to the full tree when a segment is selected
    assert LayerTotals.of(spans, [("pass", 1, 2)]).self_s["b"] == 2.0


def _all_targets():
    return {(id(h), a): vars(h)[a] for s in SITES for h, a in patch_targets(distill_lab, s)}


def test_every_site_is_found_under_each_lookup_name():
    for site in SITES:
        assert len(patch_targets(distill_lab, site)) == 1 + len(site.aliases), site.name


def test_wrappers_installed_in_segment_and_removed_after(tmp_path):
    original = _all_targets()
    tracer = Tracer(distill_lab)
    with tracer.segment("pass"):
        assert distill_lab.training.accumulate_token_grad is not original[
            (id(distill_lab.training), "accumulate_token_grad")]
        assert (distill_lab.training.accumulate_token_grad
                is not distill_lab.model.accumulate_token_grad)
    assert _all_targets() == original
    workload = WORKLOADS["offpolicy_grid"](3, str(tmp_path), smoke=True)
    run.measure(workload, 0.0, Ops(), Tracer(distill_lab))
    assert _all_targets() == original


def test_wrapper_counts_exceptions_and_restores_on_error():
    original = _all_targets()
    tracer = Tracer(distill_lab)
    with pytest.raises(distill_lab.errors.InvalidInputError):
        with tracer.segment("pass"):
            distill_lab.softmax([np.inf, 0.0])
    assert _all_targets() == original
    totals = LayerTotals.of(tracer.spans())
    assert totals.calls["numerics.softmax"] == 1.0
    assert totals.errors["numerics.softmax"] == 1.0


def test_metric_names_are_well_formed_and_match_the_spec():
    s = spec()
    e2e = [m["name"] for m in s["end_to_end"]]
    layer = [m["name"] for m in s["per_layer"]]
    for name in e2e + layer + [w["name"] for w in s["workloads"]]:
        assert NAME_RE.fullmatch(name), name
    assert len(set(e2e + layer)) == len(e2e + layer)
    assert [name for name, _ in run.END_TO_END] == e2e
    assert sorted(w["name"] for w in s["workloads"]) == sorted(WORKLOADS)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run(name, trace, tmp_path):
    s = spec()
    ops = Ops()
    workload = WORKLOADS[name](5, str(tmp_path), smoke=True)
    tracer = Tracer(distill_lab) if trace else None
    record = run.measure(workload, 0.0, ops, tracer)
    assert ops.failed == 0, ops.messages
    assert ops.attempted >= 1
    if trace:
        metrics = run.layer_metrics(tracer.spans(), tracer.segments, record)
        wanted = {m["name"]: m["unit"] for m in s["per_layer"]}
    else:
        metrics = run.end_to_end_metrics(record)
        wanted = {m["name"]: m["unit"] for m in s["end_to_end"]}
    assert {k: v["unit"] for k, v in metrics.items()} == wanted
    assert all(np.isfinite(v["value"]) for v in metrics.values())
    if not trace:
        assert all(metrics[k]["value"] > 0 for k in wanted)
