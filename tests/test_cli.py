"""End-to-end CLI checks driven through cli.main in-process."""

import json

import pytest

from sparsebench.cli import main
from sparsebench.fxp import load_qt, save_qt
from sparsebench.synth import make_rng, sparse_map

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
def conv_net(tmp_path):
    p = tmp_path / "cnn.net"
    p.write_text(CONV_NET)
    return str(p)


@pytest.fixture
def gru_net(tmp_path):
    p = tmp_path / "rnn.net"
    p.write_text(GRU_NET)
    return str(p)


@pytest.fixture
def map_qt(tmp_path):
    p = tmp_path / "x.qt"
    save_qt(sparse_map(2, 8, 8, 0.5, make_rng(7)), str(p))
    return str(p)


# --- encode / decode / stats ----------------------------------------------------

def test_encode_decode_roundtrip(tmp_path, map_qt, capsys):
    smfm = str(tmp_path / "x.smfm")
    back = str(tmp_path / "back.qt")
    assert main(["encode", map_qt, smfm]) == 0
    stats = json.loads(capsys.readouterr().out)
    assert stats["total_pixels"] == 128
    assert stats["sparsity"] == 0.5
    assert len(stats["per_channel_sparsity"]) == 2
    assert main(["decode", smfm, back]) == 0
    assert load_qt(back) == load_qt(map_qt)


def test_stats_reads_both_container_formats(tmp_path, map_qt, capsys):
    assert main(["stats", map_qt]) == 0
    qt_out = capsys.readouterr().out
    smfm = str(tmp_path / "x.smfm")
    main(["encode", map_qt, smfm])
    capsys.readouterr()
    assert main(["stats", smfm]) == 0
    assert capsys.readouterr().out == qt_out


def test_missing_input_exits_4(tmp_path):
    assert main(["stats", str(tmp_path / "ghost.qt")]) == 4
    assert main(["encode", str(tmp_path / "ghost.qt"), "o.smfm"]) == 4


def test_wrong_rank_exits_3(tmp_path, capsys):
    from sparsebench.fxp import Q8_8, QTensor
    flat = str(tmp_path / "flat.qt")
    save_qt(QTensor.zeros((4, 4), Q8_8), flat)
    assert main(["encode", flat, str(tmp_path / "o.smfm")]) == 3


# --- run -------------------------------------------------------------------------

def test_run_conv_writes_report_and_summary(tmp_path, conv_net, capsys):
    rpt = str(tmp_path / "r.json")
    code = main(["run", "--net", conv_net,
                 "--input", "synth:map,c=2,h=12,w=12,sparsity=0.6",
                 "--report", rpt])
    assert code == 0
    summary = json.loads(capsys.readouterr().out)
    assert summary["report"] == rpt
    assert len(summary["output_hash"]) == 64
    assert summary["effective_gops"] > 0
    full = json.loads(open(rpt).read())
    assert full["extras"]["equivalence_checked"] is True
    assert full["totals"]["efficiency_pct"] > 100.0


def test_run_report_formats(tmp_path, conv_net, capsys):
    args = ["run", "--net", conv_net,
            "--input", "synth:map,c=2,h=8,w=8,sparsity=0.5"]
    assert main(args) == 0
    json.loads(capsys.readouterr().out)  # default format parses as json
    assert main(["--format", "csv"] + args) == 0
    csv_out = capsys.readouterr().out
    assert csv_out.splitlines()[0].startswith("index,kind")


def test_run_gru_with_theta_and_trace(tmp_path, gru_net, capsys):
    trace = str(tmp_path / "t.csv")
    code = main(["run", "--net", gru_net,
                 "--input", "synth:hold,t=20,n=6,hold=5",
                 "--theta", "0.05", "--trace-csv", trace])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extras"]["equivalence_checked"] is False
    assert report["extras"]["weight_reduction_factor"] > 1.0
    lines = open(trace).read().splitlines()
    assert lines[0] == "region,address,kind,tag"
    assert len(lines) > 1


def test_run_flag_combinations_rejected(conv_net, gru_net):
    conv_args = ["run", "--net", conv_net,
                 "--input", "synth:map,c=2,h=8,w=8"]
    assert main(conv_args + ["--theta", "0.1"]) == 2
    gru_args = ["run", "--net", gru_net, "--input", "synth:uniform,t=5,n=6"]
    assert main(gru_args + ["--count", "3"]) == 2
    assert main(conv_args + ["--count", "2", "--trace-csv", "t.csv"]) == 2


def test_run_count_below_one_exits_2(conv_net, capsys):
    for count in ("0", "-3"):
        assert main(["run", "--net", conv_net, "--input", "synth:map,c=2,h=8,w=8",
                     "--count", count]) == 2
        assert "--count" in capsys.readouterr().err


def test_run_averaged_conv(conv_net, capsys):
    code = main(["run", "--net", conv_net,
                 "--input", "synth:map,c=2,h=8,w=8,sparsity=0.5",
                 "--count", "4"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["extras"]["averaged_over"] == 4


def test_run_mismatched_input_exits_3(conv_net, gru_net):
    assert main(["run", "--net", conv_net,
                 "--input", "synth:map,c=5,h=8,w=8"]) == 3
    assert main(["run", "--net", gru_net,
                 "--input", "synth:uniform,t=5,n=11"]) == 3


def test_run_non_finite_theta_exits_2(gru_net, capsys):
    # nan was cast to theta 0 (with a numpy warning) and reported as
    # checked; inf was silently saturated
    for theta in ("nan", "inf", "-inf"):
        assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=5,n=6",
                     f"--theta={theta}"]) == 2
        assert "non-finite" in capsys.readouterr().err


def test_non_finite_generator_amplitude_exits_2(gru_net, capsys):
    # ar1 with amp=nan cast NaN to int16 (exit 0, a numpy warning); hold
    # and uniform with amp=inf escaped as an OverflowError traceback
    for uri in ("synth:ar1,t=5,n=6,amp=nan", "synth:ar1,t=5,n=6,amp=inf",
                "synth:hold,t=5,n=6,amp=inf", "synth:uniform,t=5,n=6,amp=nan"):
        assert main(["run", "--net", gru_net, "--input", uri]) == 2
        assert "non-finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep-theta"])
def test_zero_step_sequence_exits_2(gru_net, capsys, command):
    # exited 0 with steps 0 and a traffic reduction factor of 0.0
    extra = ["--thetas", "0"] if command == "sweep-theta" else []
    for kind in ("hold", "uniform", "ar1"):
        for mode in (["--mode", "dense"], []) if command == "run" else ([],):
            assert main([command, "--net", gru_net, "--input", f"synth:{kind},t=0,n=6"]
                        + extra + mode) == 2
            assert "t of at least 1" in capsys.readouterr().err


def test_engine_divergence_exits_5(conv_net, gru_net, monkeypatch, capsys):
    # one bit of the dense engine's output flipped: a divergence is an
    # internal invariant failure with its own exit code, not a traceback
    from sparsebench import runner
    from sparsebench.codec import encode_sm

    run_network, run_sequence = runner.run_network, runner.run_sequence

    def conv_flipped(layers, x, mode):
        run, out = run_network(layers, x, mode)
        if mode == "dense":
            t = runner.decode_sm(out)
            t.data.reshape(-1)[0] ^= 1
            out = encode_sm(t)
        return run, out

    def gru_flipped(layers, x_seq, mode):
        run = run_sequence(layers, x_seq, mode)
        if mode == "dense":
            run.outputs[0].data[0] ^= 1
        return run

    monkeypatch.setattr(runner, "run_network", conv_flipped)
    monkeypatch.setattr(runner, "run_sequence", gru_flipped)
    assert main(["run", "--net", conv_net, "--input", "synth:map,c=2,h=8,w=8"]) == 5
    assert "conv outputs diverged" in capsys.readouterr().err
    assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=5,n=6",
                 "--theta", "0"]) == 5
    assert "GRU outputs diverged" in capsys.readouterr().err


# --- sweep-theta -------------------------------------------------------------------

def test_sweep_theta_writes_csv(tmp_path, gru_net, capsys):
    out = str(tmp_path / "sweep.csv")
    code = main(["sweep-theta", "--net", gru_net,
                 "--input", "synth:hold,t=30,n=6,hold=10",
                 "--thetas", "0,0.05,0.2", "--out", out])
    assert code == 0
    assert capsys.readouterr().out.strip() == f"wrote {out}"
    lines = open(out).read().splitlines()
    comments = [l for l in lines if l.startswith("#")]
    body = [l for l in lines if not l.startswith("#")]
    assert comments and body[0].startswith("theta,")
    assert len(body) == 4


def test_sweep_theta_needs_gru(conv_net):
    assert main(["sweep-theta", "--net", conv_net,
                 "--input", "synth:map,c=2,h=8,w=8",
                 "--thetas", "0,0.1"]) == 3


# --- mem-sim ------------------------------------------------------------------------

def test_mem_sim_three_probes(tmp_path, gru_net, capsys):
    assert main(["mem-sim", "--ratio", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "50.7463"
    assert main(["mem-sim", "--stream", "768x768"]) == 0
    stream = json.loads(capsys.readouterr().out)
    assert stream["cycles"] == 618624
    assert stream["row_activations"] == 576
    trace = str(tmp_path / "t.csv")
    main(["run", "--net", gru_net, "--input", "synth:uniform,t=4,n=6",
          "--trace-csv", trace])
    capsys.readouterr()
    assert main(["mem-sim", "--trace", trace]) == 0
    costs = json.loads(capsys.readouterr().out)
    assert costs["cycles"] > 0 and costs["energy_pj"] > 0


def test_mem_sim_rejects_addresses_outside_int64(tmp_path, capsys):
    for address in ("99999999999999999999", "9223372036854775807", "-1"):
        trace = tmp_path / "t.csv"
        trace.write_text(f"region,address,kind,tag\nDRAM,{address},read,weights\n")
        assert main(["mem-sim", "--trace", str(trace)]) == 2
        assert "address" in capsys.readouterr().err
    trace.write_text("region,address,kind,tag\nDRAM,9223372036854775806,read,weights\n")
    assert main(["mem-sim", "--trace", str(trace)]) == 0
    assert json.loads(capsys.readouterr().out)["row_activations"] == 1


def test_mem_sim_requires_exactly_one_probe(tmp_path):
    assert main(["mem-sim"]) == 2
    assert main(["mem-sim", "--stream", "5x-3"]) == 2
    assert main(["mem-sim", "--ratio", "10", "--stream", "4x4"]) == 2


def test_mem_sim_config_override(tmp_path, capsys):
    cfg = tmp_path / "mem.cfg"
    cfg.write_text("row_change_factor = 1\n")
    assert main(["--config", str(cfg), "mem-sim", "--ratio", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "1.9998"


# --- report (scatter) ------------------------------------------------------------------

def test_report_scatter_outputs(tmp_path, conv_net, gru_net, capsys):
    r1 = str(tmp_path / "a.json")
    r2 = str(tmp_path / "b.json")
    main(["run", "--net", conv_net,
          "--input", "synth:map,c=2,h=12,w=12,sparsity=0.6", "--report", r1])
    main(["run", "--net", gru_net,
          "--input", "synth:uniform,t=20,n=6", "--report", r2])
    capsys.readouterr()
    csv_out = str(tmp_path / "sc.csv")
    svg_out = str(tmp_path / "sc.svg")
    code = main(["report", r1, r2, "--out-csv", csv_out,
                 "--out-svg", svg_out])
    assert code == 0
    csv = open(csv_out).read().splitlines()
    assert csv[0] == "name,gops,watts,gops_per_watt"
    assert len(csv) == 3 and csv[1].startswith("cnn")
    svg = open(svg_out).read()
    assert svg.count("<circle") == 2 and "GOp/s/W" in svg


def test_report_rejects_unreadable(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{\"layers\": []}")
    assert main(["report", str(bad), "--out-csv", str(tmp_path / "o.csv")]) == 2
    missing = str(tmp_path / "none.json")
    assert main(["report", missing, "--out-csv", str(tmp_path / "o.csv")]) == 4


# --- brain-budget ----------------------------------------------------------------------

def test_brain_budget_solves_each_unknown(capsys):
    assert main(["brain-budget"]) == 0
    assert capsys.readouterr().out.strip() == "10 W"
    cases = (
        (["--rate", "?", "--power", "10"], "1 Hz"),
        (["--fanout", "?", "--power", "10"], "10000 synapses/neuron"),
        (["--neurons", "?", "--power", "10"], "1e+10 neurons"),
        (["--esyn", "?", "--power", "10"], "1e-13 J"),
    )
    for args, expected in cases:
        assert main(["brain-budget"] + args) == 0
        assert capsys.readouterr().out.strip() == expected


def test_brain_budget_requires_one_unknown():
    assert main(["brain-budget", "--rate", "?", "--fanout", "?",
                 "--power", "10"]) == 2
    assert main(["brain-budget", "--power", "10"]) == 2


# --- determinism --------------------------------------------------------------------------

def test_same_seed_gives_byte_identical_reports(tmp_path, conv_net):
    r1, r2 = str(tmp_path / "r1.json"), str(tmp_path / "r2.json")
    args = ["--seed", "42", "run", "--net", conv_net,
            "--input", "synth:map,c=2,h=10,w=10,sparsity=0.7"]
    main(args + ["--report", r1])
    main(args + ["--report", r2])
    assert open(r1, "rb").read() == open(r2, "rb").read()
    r3 = str(tmp_path / "r3.json")
    main(["--seed", "43", "run", "--net", conv_net,
          "--input", "synth:map,c=2,h=10,w=10,sparsity=0.7",
          "--report", r3])
    assert open(r1, "rb").read() != open(r3, "rb").read()
