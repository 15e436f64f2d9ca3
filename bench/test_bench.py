"""Tests of the benchmark itself, at tiny workload sizes.

Run with: python3 -m pytest bench/test_bench.py
"""

import json
import os
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

import fixtures
import run
from spans import Tracer

SPEC = run.load_spec()
NAMES = [w["name"] for w in SPEC["workloads"]]


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", NAMES)
def test_every_metric_present_with_its_unit(name, trace):
    res, lines = run.run_workload(name, seed=5, seconds=0.2, trace=trace, tiny=True)
    out = run.result_json(SPEC, trace, {name: res})
    listed = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in out["metrics"].items()} == {
        m["name"]: m["unit"] for m in listed}
    assert all(isinstance(v["value"], (int, float)) for v in out["metrics"].values())
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 4
    assert json.loads(json.dumps(out)) == out
    if not trace:
        assert all(out["metrics"][m["name"]]["value"] > 0 for m in listed)


def test_child_spans_nest_inside_their_parent():
    run.run_workload("gru-hold-sparse", seed=2, seconds=0.2, trace=True, tiny=True)
    with open(os.path.join(run.WORK, "gru-hold-sparse", "spans.json")) as fh:
        span_runs = json.load(fh)
    assert span_runs
    for spans in span_runs:
        by_id = {s["id"]: s for s in spans}
        roots = [s for s in spans if s["parent"] is None]
        assert [s["name"] for s in roots] == ["cli.main"]
        assert {"gru.delta", "gru.mxv", "gru.oracle", "runner.execute"} <= {
            s["name"] for s in spans}
        for s in spans:
            assert s["start"] <= s["end"]
            if s["parent"] is not None:
                p = by_id[s["parent"]]
                assert p["start"] <= s["start"] and s["end"] <= p["end"]


def test_self_time_is_duration_minus_children():
    tr = Tracer()
    root = tr.begin("a")
    time.sleep(0.01)
    child = tr.begin("b")
    time.sleep(0.02)
    tr.end(child)
    tr.end(root)
    a, b = tr.spans
    self_a, self_b = tr.self_times()
    assert b.parent == a.sid
    assert self_b == pytest.approx(b.end - b.start)
    assert self_a == pytest.approx((a.end - a.start) - (b.end - b.start))


def test_wrong_golden_hash_counts_as_failure():
    res, lines = run.run_workload("conv-zs80", seed=0, seconds=0.2, trace=False,
                                  tiny=True, golden="0" * 64)
    out = run.result_json(SPEC, False, {"conv-zs80": res})
    assert out["correct"] is False
    assert out["failed"] == out["attempted"] >= 4
    assert any("golden" in ln for ln in lines)


def test_open_row_walk_starts_empty_and_counts_row_changes():
    region = np.array([0, 0, 1, 0, 0])
    address = np.array([5, 6, 99999, 2048, 7])
    got = fixtures.open_row_walk(region, address)
    assert got["row_activations"] == 3
    assert got["dram_words"] == 4 and got["sram_words"] == 1
    assert got["cycles"] == 4 + 3 * fixtures.ROW_CHANGE_FACTOR


def test_fixtures_repeat_for_a_seed_and_differ_across_seeds():
    a = fixtures.conv_map_smfm(1, 2, 4, 4, 0.5)
    assert a == fixtures.conv_map_smfm(1, 2, 4, 4, 0.5)
    assert a != fixtures.conv_map_smfm(2, 2, 4, 4, 0.5)
    t1 = fixtures.trace_csv(*fixtures.memsim_trace(1, 3000))
    assert t1 == fixtures.trace_csv(*fixtures.memsim_trace(1, 3000))
    assert len(t1.splitlines()) == 3001


def test_tail_needs_ten_samples_beyond():
    assert run.tail([1.0] * 5 + [2.0]) == (100, 2.0)
    assert run.tail([float(i) for i in range(39)]) == (100, 38.0)
    assert run.tail([float(i) for i in range(40)]) == (75, 29.0)
    assert run.tail([float(i) for i in range(100)]) == (90, 89.0)


def test_refuses_to_run_without_program_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", NAMES[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


@pytest.mark.parametrize("seconds", ["0", str(run.MAX_SECONDS + 1)])
def test_rejects_seconds_that_cannot_fit_the_deadline(seconds, capsys):
    with pytest.raises(SystemExit) as exc:
        run.main(["--workload", NAMES[0], "--seconds", seconds])
    assert exc.value.code != 0
    assert "--seconds" in capsys.readouterr().err
