"""Tests of the benchmark itself: metric names, the tracer's cleanup, and
that every traced function still exists in perpca.

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import contextlib
import importlib
import io
import json
from pathlib import Path

import numpy as np
import pytest

from perfbench import run as bench_run
from perfbench import tracer, workloads
from perpca import stiefel

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def _last_json(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert bench_run.main(argv) == 0
    return out.getvalue(), json.loads(out.getvalue().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.NAMES)
def test_workload_emits_every_metric_at_tiny_size(workload, trace):
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    text, result = _last_json(["--workload", workload, "--seed", "3", "--seconds", "0",
                               "--trace", str(trace), "--tiny"])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert list(result["metrics"]) == [m["name"] for m in declared]
    for m in declared:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert isinstance(got["value"], (int, float))
        assert f"({m['better']} is better)" in text
        if not trace:
            assert got["value"] > 0, m["name"]
    record = json.loads((bench_run.RESULTS / f"{workload}-seed3-trace{trace}-tiny.json")
                        .read_text())
    assert record["seed"] == 3
    assert record["environment"]["thread_env"] == {v: "1" for v in bench_run.THREAD_VARS}
    assert {m: v["better"] for m, v in record["metrics"].items()} == {
        m["name"]: m["better"] for m in declared}


def test_benchmark_json_names_known_workloads():
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.NAMES)


def _originals():
    out = {}
    for module, fns in tracer.WRAPPED.items():
        mod = importlib.import_module(f"perpca.{module}")
        for fn in fns:
            out[(module, fn)] = getattr(mod, fn)
    return out


def test_tracer_restores_every_wrapped_attribute():
    before = _originals()
    table_before = dict(stiefel.RETRACTIONS)
    with tracer.Tracer() as spans:
        for (module, fn), original in before.items():
            assert getattr(importlib.import_module(f"perpca.{module}"), fn) is not original
        for key, original in table_before.items():
            assert stiefel.RETRACTIONS[key] is not original
        stiefel.RETRACTIONS["qr"](*[stiefel.random_frame(4, 2, np.random.default_rng(0))] * 2)
    assert _originals() == before
    assert stiefel.RETRACTIONS == table_before
    assert [spans.names[i] for i in spans.name_id] == ["stiefel.qr_retract"]


def test_tracer_restores_after_an_exception():
    before = _originals()
    table_before = dict(stiefel.RETRACTIONS)
    with pytest.raises(ZeroDivisionError):
        with tracer.Tracer():
            1 / 0
    assert _originals() == before
    assert stiefel.RETRACTIONS == table_before


def test_self_time_excludes_children():
    with tracer.Tracer() as spans:
        U = stiefel.random_frame(6, 2, np.random.default_rng(0))
        V = stiefel.random_frame(6, 3, np.random.default_rng(0))
        importlib.import_module("perpca.solver").correction_step(V, U)
    ids, parent, dur, self_t = spans.arrays()
    names = [spans.names[i] for i in ids]
    assert names == ["solver.correction_step", "stiefel.polar_retract"]
    assert parent.tolist() == [-1, 0]
    assert self_t[0] == pytest.approx(dur[0] - dur[1])


def test_every_function_named_in_benchmark_json_exists():
    named = set()
    for metric in SPEC["per_layer"]:
        parts = metric["name"].split(".")
        if parts[-1] in ("calls", "self_s", "us_per_call"):
            named.add((parts[0], parts[1]))
    assert named == {(m, fn) for m, fns in tracer.WRAPPED.items() for fn in fns}
    for module, fn in named:
        assert callable(getattr(importlib.import_module(f"perpca.{module}"), fn)), (module, fn)
    assert set(stiefel.RETRACTIONS) == {"polar", "qr"}


def test_tail_is_highest_percentile_with_ten_beyond_or_p90():
    value, pct, n = workloads.tail(list(range(1, 201)))
    assert (value, pct, n) == (190, 95.0, 200)
    assert sum(v > value for v in range(1, 201)) == 10
    assert workloads.tail(list(range(1, 101))) == (90, 90.0, 100)
    # below 100 samples: interpolated p90, which moves smoothly with the count
    assert workloads.tail(list(range(1, 12))) == (10.0, 90.0, 11)
    assert workloads.tail([2.0, 4.0]) == (3.8, 90.0, 2)
    assert workloads.tail([7.0]) == (7.0, 90.0, 1)
