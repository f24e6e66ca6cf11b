"""Self-test of the benchmark: every workload at smoke size, through the
real runner, twice untraced and once traced.

    PYTHONPATH=src python -m pytest bench/test_bench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402  (bench/run.py, importable from this directory)

SPEC = run.load_spec()


@pytest.fixture(scope="module", params=[w["name"] for w in SPEC["workloads"]])
def measured(request, tmp_path_factory):
    workload = request.param
    out = tmp_path_factory.mktemp(workload)
    untraced = [run.spawn(workload, 0, out, smoke=True) for __ in range(2)]
    traced = [run.spawn(workload, 0, out, trace=True, smoke=True)]
    trace = json.loads(
        (out / f"trace-{workload}.json").read_text(encoding="utf-8")
    )
    return workload, untraced, traced, trace


def test_every_metric_is_reported_with_its_unit(measured):
    __, untraced, traced, __ = measured
    summary = run.summarize(SPEC, untraced, traced)
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert summary[section][metric["name"]]["unit"] == metric["unit"]


def test_digests_are_stable_and_tracing_does_not_change_them(measured):
    workload, untraced, traced, __ = measured
    assert len({rep["digest"] for rep in untraced + traced}) == 1
    assert run.check(workload, 0, untraced, traced, {}) == []


def test_self_times_are_nonnegative_and_within_the_work(measured):
    __, __, __, trace = measured
    spans = trace["spans"]
    assert min(spans["self_s"]) >= 0.0
    layers = [layer for layer, __ in trace["entry_points"]]
    root_fn, input_fn = layers.index("bench.work"), layers.index("bench.input")
    self_by_fn = list(zip(spans["fn"], spans["self_s"]))
    input_s = sum(s for fn, s in self_by_fn if fn == input_fn)
    layer_s = sum(s for fn, s in self_by_fn if fn not in (root_fn, input_fn))
    root = spans["fn"].index(root_fn)
    work_s = spans["end"][root] - spans["start"][root] - input_s
    assert layer_s <= work_s
