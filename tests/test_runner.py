"""Run orchestration: input resolution, dual-path checking, report totals."""

import hashlib

import numpy as np
import pytest

from sparsebench.codec import encode_sm, save_smfm
from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench.fxp import Q8_8, QTensor, save_qt, to_qt_bytes
from sparsebench.memmodel import MemConfig
from sparsebench.netdesc import load_network
from sparsebench.runner import (
    apply_theta,
    execute_conv,
    execute_conv_averaged,
    execute_gru,
    load_conv_input,
    load_seq_input,
    sweep_rows_csv,
    sweep_theta,
)
from sparsebench.synth import make_rng, sparse_map, uniform_seq

CONV_NET = """
name = cnn
[conv]
in_c = 2
out_c = 3
k = 3
stride = 1
pad = 1
relu = true
pool = max2x2
weights = synth:uniform,amp=0.2,seed=3
bias = zero
"""

GRU_NET = """
name = rnn
[gru]
input = 6
hidden = 8
theta = 0.0
files = synth:uniform,amp=0.1,seed=4
"""


@pytest.fixture
def conv_desc(tmp_path):
    p = tmp_path / "cnn.net"
    p.write_text(CONV_NET)
    return load_network(str(p))


@pytest.fixture
def gru_desc(tmp_path):
    p = tmp_path / "rnn.net"
    p.write_text(GRU_NET)
    return load_network(str(p))


MEM = MemConfig()


# --- input resolution -------------------------------------------------------------

def _same_map(a, b) -> bool:
    return (a.dims == b.dims and a.fmt == b.fmt and np.array_equal(a.sm, b.sm)
            and np.array_equal(a.nzvl, b.nzvl))


def test_conv_input_from_qt_smfm_and_generator(tmp_path):
    t = sparse_map(2, 6, 6, 0.5, make_rng(1))
    qt = str(tmp_path / "x.qt")
    save_qt(t, qt)
    assert _same_map(load_conv_input(qt, 0), encode_sm(t))
    smfm = str(tmp_path / "x.smfm")
    save_smfm(encode_sm(t), smfm)
    assert _same_map(load_conv_input(smfm, 0), encode_sm(t))  # the file's bitmap and values
    gen = load_conv_input("synth:map,c=2,h=6,w=6,sparsity=0.5,seed=1", 0)
    assert _same_map(gen, encode_sm(t))  # same generator, same seed
    # global seed is the fallback, URI seed wins
    assert _same_map(load_conv_input("synth:map,c=2,h=6,w=6,sparsity=0.5", 1),
                     encode_sm(t))
    with pytest.raises(ShapeMismatch, match="bad.qt: conv input must be rank 3"):
        save_qt(QTensor.zeros((4,), Q8_8), str(tmp_path / "bad.qt"))
        load_conv_input(str(tmp_path / "bad.qt"), 0)
    with pytest.raises(MalformedStream, match="generator"):
        load_conv_input("synth:noise,c=1", 0)


def test_seq_input_from_qt_and_generators(tmp_path):
    rows = np.arange(12, dtype=np.int16).reshape(3, 4)
    stored = QTensor((3, 4), Q8_8, rows)
    save_qt(stored, str(tmp_path / "s.qt"))
    seq = load_seq_input(str(tmp_path / "s.qt"), 0)
    assert seq == stored
    assert list(seq.data[1]) == [4, 5, 6, 7]
    for uri, steps in (("synth:uniform,t=5,n=3", 5),
                       ("synth:hold,t=8,n=3,hold=4", 8),
                       ("synth:ar1,t=6,n=3,rho=0.9", 6)):
        seq = load_seq_input(uri, 9)
        assert seq.dims == (steps, 3) and seq.fmt == Q8_8
    hold = load_seq_input("synth:hold,t=8,n=3,hold=4,seed=2", 0).data
    assert (hold[0] == hold[3]).all() and (hold[4] == hold[7]).all()
    with pytest.raises(ShapeMismatch, match="b.qt: sequence input must be rank 2"):
        save_qt(QTensor.zeros((2, 2, 2), Q8_8), str(tmp_path / "b.qt"))
        load_seq_input(str(tmp_path / "b.qt"), 0)
    with pytest.raises(MalformedStream, match="generator"):
        load_seq_input("synth:sine,t=5", 0)


@pytest.mark.parametrize("steps", [1, 7])
def test_gru_output_hash_is_each_steps_qt_bytes(gru_desc, steps):
    # the digest that bench/golden.json pins: sha256 over the rank-1 .qt
    # bytes of each output step, end to end
    xs = load_seq_input(f"synth:uniform,t={steps},n=6,seed=2", 0)
    report, run = execute_gru(gru_desc, xs, "sparse", MEM, seed=0)
    assert run.outputs.dims == (steps, 8) and run.outputs.fmt == Q8_8
    want = hashlib.sha256()
    for row in run.outputs.data:
        want.update(to_qt_bytes(QTensor((8,), Q8_8, row.copy())))
    assert report.extras["output_hash"] == want.hexdigest()


# --- conv execution ------------------------------------------------------------------

def test_conv_report_totals_are_consistent(conv_desc):
    x = load_conv_input("synth:map,c=2,h=10,w=10,sparsity=0.6,seed=5", 0)
    report, run = execute_conv(conv_desc, x, "sparse", MEM, seed=0)
    t = report.totals
    assert t["executed_op"] == run.counters.total_op
    assert t["dense_equivalent_op"] == 2 * t["macs_dense_equivalent"]
    assert t["efficiency_pct"] == pytest.approx(
        100.0 * t["macs_dense_equivalent"] / t["macs_executed"])
    assert report.extras["equivalence_checked"] is True
    assert len(report.extras["output_hash"]) == 64
    # figures of merit tie back to totals
    f = report.foms
    assert f["simulated_seconds"] == pytest.approx(t["cycles"] / MEM.clock_hz)
    assert f["effective_gops"] == pytest.approx(
        t["dense_equivalent_op"] / f["simulated_seconds"] / 1e9)
    assert f["gops_per_watt"] == pytest.approx(
        f["effective_gops"] / f["watts"], rel=1e-9)
    assert t["energy_pj"] == pytest.approx(
        sum(v for k, v in t["energy_breakdown_pj"].items() if k != "total_pj"))


def test_conv_modes_report_same_output_different_work(conv_desc):
    x = load_conv_input("synth:map,c=2,h=10,w=10,sparsity=0.8,seed=6", 0)
    sparse_rep, _ = execute_conv(conv_desc, x, "sparse", MEM)
    dense_rep, _ = execute_conv(conv_desc, x, "dense", MEM)
    assert sparse_rep.extras["output_hash"] == dense_rep.extras["output_hash"]
    assert sparse_rep.totals["macs_executed"] < dense_rep.totals["macs_executed"]
    assert sparse_rep.totals["dense_equivalent_op"] == (
        dense_rep.totals["dense_equivalent_op"])


def test_conv_averaged_reports_mean_and_stderr(conv_desc):
    report = execute_conv_averaged(
        conv_desc, "synth:map,c=2,h=8,w=8,sparsity=0.5", "sparse", MEM,
        seed=3, count=5)
    ex = report.extras
    assert ex["averaged_over"] == 5
    assert len(ex["per_layer_sparsity_mean"]) == 1
    assert 0.0 <= ex["per_layer_sparsity_mean"][0] <= 1.0
    assert ex["per_layer_sparsity_stderr"][0] >= 0.0
    assert report.layers[0].sparsity == ex["per_layer_sparsity_mean"][0]
    with pytest.raises(MalformedStream, match="synth"):
        execute_conv_averaged(conv_desc, "x.qt", "sparse", MEM, 0, 3)


def test_conv_averaged_is_seed_reproducible(conv_desc):
    a = execute_conv_averaged(conv_desc, "synth:map,c=2,h=8,w=8", "sparse",
                              MEM, 11, 4)
    b = execute_conv_averaged(conv_desc, "synth:map,c=2,h=8,w=8", "sparse",
                              MEM, 11, 4)
    assert a.to_json() == b.to_json()


# --- gru execution --------------------------------------------------------------------

def test_gru_zero_theta_is_checked_equivalent(gru_desc):
    xs = load_seq_input("synth:uniform,t=20,n=6,seed=2", 0)
    report, run = execute_gru(gru_desc, xs, "sparse", MEM, seed=0)
    assert report.extras["equivalence_checked"] is True
    assert report.extras["theta"] == [0.0]
    assert report.extras["steps"] == 20
    assert report.extras["weight_reduction_factor"] >= 1.0


def test_gru_theta_override_disables_checking(gru_desc):
    xs = load_seq_input("synth:uniform,t=20,n=6,seed=2", 0)
    report, run = execute_gru(gru_desc, xs, "sparse", MEM, seed=0,
                              theta_override=0.1)
    assert report.extras["theta"] == [pytest.approx(0.1, abs=1 / 256)]
    assert report.extras["equivalence_checked"] is False
    assert report.extras["weight_reduction_factor"] > 1.0
    assert report.extras["total_traffic_reduction_factor"] > 1.0
    assert 0.0 < report.extras["mean_event_rate"] < 1.0


def test_gru_layer_sparsity_tracks_event_rate(gru_desc):
    xs = load_seq_input("synth:hold,t=30,n=6,hold=10,seed=3", 0)
    report, run = execute_gru(gru_desc, xs, "sparse", MEM, seed=0,
                              theta_override=0.05)
    layer = report.layers[0]
    events = sum(s.x_events + s.h_events for s in run.step_stats[0])
    assert layer.sparsity == pytest.approx(1.0 - events / (30 * (6 + 8)))
    assert layer.kind == "gru"


def test_apply_theta_is_non_destructive(gru_desc):
    changed = apply_theta(gru_desc, 0.5)
    assert changed.gru_layers[0].theta == 128
    assert gru_desc.gru_layers[0].theta == 0
    assert changed.gru_layers[0].w_xr is gru_desc.gru_layers[0].w_xr


# --- theta sweep -----------------------------------------------------------------------

def test_sweep_reference_row_and_monotone_traffic(gru_desc):
    xs = load_seq_input("synth:hold,t=40,n=6,hold=10,seed=5", 0)
    header, rows = sweep_theta(gru_desc, xs, [0.0, 0.05, 0.2])
    assert all(h.startswith("#") for h in header)
    assert rows[0]["theta"] == 0.0
    assert rows[0]["max_abs_dev"] == 0.0
    assert rows[0]["rms_dev_pct"] == 0.0
    reductions = [r["weight_reduction_factor"] for r in rows]
    assert reductions == sorted(reductions)
    rates = [r["event_rate"] for r in rows]
    assert rates == sorted(rates, reverse=True)
    csv = sweep_rows_csv(header, rows)
    body = [l for l in csv.strip().split("\n") if not l.startswith("#")]
    assert body[0].count(",") == 5
    assert len(body) == 4
