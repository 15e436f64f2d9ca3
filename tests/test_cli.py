"""End-to-end CLI checks driven through cli.main in-process."""

import errno
import json
import os
import stat

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from sparsebench.cli import main
from sparsebench.codec import encode_sm, to_smfm_bytes
from sparsebench.errors import MalformedStream
from sparsebench.fxp import Q2_14, Q8_8, QFormat, QTensor, load_qt, save_qt, to_qt_bytes
from sparsebench.netdesc import load_mem_config, load_network
from sparsebench.synth import ar1_seq, make_rng, random_weights, sparse_map

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


@pytest.mark.parametrize("net, uri, argv, width", [
    ("conv", "synth:map,c=5,h=8,w=8", ["run"], "2 channels"),
    ("conv", "synth:map,c=5,h=8,w=8", ["run", "--count", "2"], "2 channels"),
    ("gru", "synth:uniform,t=5,n=5", ["run"], "6 components per step"),
    ("gru", "synth:uniform,t=5,n=5", ["sweep-theta", "--thetas", "0"],
     "6 components per step")], ids=["conv", "conv-count", "gru", "sweep-theta"])
def test_an_input_the_first_layer_does_not_take_names_the_net_and_the_input(
        conv_net, gru_net, capsys, net, uri, argv, width):
    # the engines refused it naming neither the .net file nor the input
    path = conv_net if net == "conv" else gru_net
    assert main(argv[:1] + ["--net", path, "--input", uri] + argv[1:]) == 3
    assert capsys.readouterr().err == (f"error: {path}: layer 0 takes {width}, "
                                       f"input {uri} gives 5\n")


def test_run_non_finite_theta_exits_2(gru_net, capsys):
    # nan was cast to theta 0 (with a numpy warning) and reported as
    # checked; inf was silently saturated
    for theta in ("nan", "inf", "-inf"):
        assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=5,n=6",
                     f"--theta={theta}"]) == 2
        assert "non-finite" in capsys.readouterr().err


def test_run_negative_theta_exits_2(gru_net, capsys):
    # a bad flag value is an input error, not a shape error (exit 3)
    assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=3,n=6",
                 "--theta", "-0.5"]) == 2
    assert "theta must be non-negative" in capsys.readouterr().err


def test_sweep_negative_theta_exits_2(gru_net, capsys):
    assert main(["sweep-theta", "--net", gru_net, "--input", "synth:ar1,t=3,n=6",
                 "--thetas", "0,-0.5"]) == 2
    assert "theta must be non-negative" in capsys.readouterr().err


def test_net_file_negative_theta_exits_2(tmp_path, capsys):
    net = tmp_path / "neg.net"
    net.write_text(GRU_NET.replace("theta = 0.0", "theta = -1"))
    assert main(["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6"]) == 2
    assert "theta must be non-negative" in capsys.readouterr().err


def test_theta_past_q8_8_range_exits_2(tmp_path, gru_net, capsys):
    # 1000 was saturated to 127.99609375 and reported as run at that theta
    for theta in ("1000", "127.999", "1e6"):
        assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=3,n=6",
                     "--theta", theta]) == 2
        assert "past the Q8.8 range" in capsys.readouterr().err
    # a sweep of three saturating thetas printed three identical rows
    assert main(["sweep-theta", "--net", gru_net, "--input", "synth:hold,t=8,n=6,hold=2",
                 "--thetas", "127.99609375,1000,1e6"]) == 2
    assert "theta 1000 is past the Q8.8 range" in capsys.readouterr().err
    net = tmp_path / "big.net"
    net.write_text(GRU_NET.replace("theta = 0.0", "theta = 1000"))
    assert main(["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6"]) == 2
    assert "past the Q8.8 range" in capsys.readouterr().err


@pytest.mark.parametrize("argv,named", [
    (["run", "--theta", "nan"], "--theta: nan: cannot quantize a non-finite value"),
    (["sweep-theta", "--thetas", "0,200"], "--thetas: '200': theta 200 is past the Q8.8 range"),
    (["sweep-theta", "--thetas", "0,nan"], "--thetas: 'nan': cannot quantize a non-finite value"),
])
def test_a_refused_theta_names_its_flag_and_entry(gru_net, capsys, argv, named):
    # each printed the reason alone, naming neither the flag nor the entry
    argv = argv[:1] + ["--net", gru_net, "--input", "synth:ar1,t=3,n=6"] + argv[1:]
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith(f"error: {named}")


def test_largest_q8_8_theta_runs(tmp_path, gru_net, capsys):
    assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=3,n=6",
                 "--theta", "127.99609375"]) == 0
    assert json.loads(capsys.readouterr().out)["extras"]["theta"] == [127.99609375]
    net = tmp_path / "top.net"
    net.write_text(GRU_NET.replace("theta = 0.0", "theta = 127.99609375"))
    assert main(["sweep-theta", "--net", str(net), "--input", "synth:ar1,t=3,n=6",
                 "--thetas", "0,127.99609375"]) == 0


_EXPLICIT_GRU = ("name = explicit\n[gru]\ninput = 6\nhidden = 8\n"
                 + "".join(f"{m} = synth:uniform,seed=3\n"
                           for m in ("wxr", "wxu", "wxc", "whr", "whu", "whc"))
                 + "br = zero\nbu = zero\nbc = zero\n")

# .net texts whose weight generators carry a non-integer seed
_SEEDED_NETS = {
    "files": GRU_NET.replace("seed=4", "seed=4.5"),
    "matrix": _EXPLICIT_GRU.replace("wxr = synth:uniform,seed=3", "wxr = synth:uniform,seed=1.5"),
    "bias": _EXPLICIT_GRU.replace("br = zero", "br = synth:uniform,seed=2.5"),
}


@pytest.mark.parametrize("option,net,uri", [
    ("t", "gru", "synth:hold,t=2.5,n=6"),
    ("t", "gru", "synth:ar1,t=1e1,n=6"),
    ("t", "gru", "synth:uniform,t=three,n=6"),
    ("n", "gru", "synth:uniform,t=3,n=6.0"),
    ("hold", "gru", "synth:hold,t=4,n=6,hold=2.5"),
    ("seed", "gru", "synth:hold,t=4,n=6,seed=1.7"),
    ("c", "conv", "synth:map,c=2.0,h=8,w=8"),
    ("h", "conv", "synth:map,c=2,h=8.7,w=8"),
    ("w", "conv", "synth:map,c=2,h=8,w=1e1"),
    ("seed", "conv", "synth:map,c=2,h=8,w=8,seed=1.7"),
    ("seed", "files", "synth:ar1,t=3,n=6"),
    ("seed", "matrix", "synth:ar1,t=3,n=6"),
    ("seed", "bias", "synth:ar1,t=3,n=6"),
])
def test_non_integer_synth_option_exits_2(tmp_path, conv_net, gru_net, capsys,
                                          option, net, uri):
    # each was truncated: t=2.5 ran 2 steps, seed=1.7 ran as seed 1
    path = {"conv": conv_net, "gru": gru_net}.get(net)
    if path is None:
        path = str(tmp_path / "seeded.net")
        with open(path, "w") as fh:
            fh.write(_SEEDED_NETS[net])
        value, source = {"files": "4.5", "matrix": "1.5", "bias": "2.5"}[net], path
    else:
        value, source = _option_value(uri, option), uri
    assert main(["run", "--net", path, "--input", uri]) == 2
    err = capsys.readouterr().err
    assert f"{source}: " in err and f"{option} = {value!r}: not an integer" in err


def test_non_finite_generator_amplitude_exits_2(gru_net, capsys):
    # ar1 with amp=nan cast NaN to int16 (exit 0, a numpy warning); hold
    # and uniform with amp=inf escaped as an OverflowError traceback
    for uri in ("synth:ar1,t=5,n=6,amp=nan", "synth:ar1,t=5,n=6,amp=inf",
                "synth:hold,t=5,n=6,amp=inf", "synth:uniform,t=5,n=6,amp=nan"):
        assert main(["run", "--net", gru_net, "--input", uri]) == 2
        assert "non-finite" in capsys.readouterr().err


def _option_value(uri, option):
    """The text of ``option`` in a ``synth:kind,key=value,...`` URI."""
    return dict(p.split("=", 1) for p in uri.split(",")[1:])[option]


def _with_value(text, key, value):
    """A description text with its ``key = ...`` line set to ``value``."""
    lines = text.splitlines()
    at = next(i for i, ln in enumerate(lines) if ln.split("=")[0].strip() == key)
    lines[at] = f"{key} = {value}"
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("key,value,net", [
    ("in_c", "3.0", "conv"), ("out_c", "three", "conv"), ("k", "3.5", "conv"),
    ("stride", "1e0", "conv"), ("pad", "one", "conv"),
    ("input", "6.0", "gru"), ("hidden", "eight", "gru"), ("theta", "abc", "gru"),
])
def test_non_numeric_net_key_exits_2(tmp_path, capsys, key, value, net):
    # each ended in a bare "invalid literal for int() with base 10: '3.0'"
    # or "could not convert string to float: 'abc'", naming neither the
    # file nor the key
    path = tmp_path / "bad.net"
    path.write_text(_with_value(CONV_NET if net == "conv" else GRU_NET, key, value))
    uri = "synth:map,c=2,h=8,w=8" if net == "conv" else "synth:ar1,t=3,n=6"
    with pytest.raises(MalformedStream):
        load_network(str(path))
    assert main(["run", "--net", str(path), "--input", uri]) == 2
    err = capsys.readouterr().err
    assert str(path) in err and f"{key} = {value!r}" in err


@pytest.mark.parametrize("key,value", [
    ("words_per_row", "3.0"), ("burst_len", "eight"), ("cycles_seq_word", "1e0"),
    ("row_change_factor", "fifty"), ("e_dram_word", "abc"), ("e_sram_word", "1,5"),
    ("e_mac", "one"), ("clock_hz", "1GHz"),
])
def test_non_numeric_mem_key_exits_2(tmp_path, capsys, key, value):
    # a config file and a .net [mem] section both ended in a bare
    # "invalid literal for int()" or "could not convert string to float"
    cfg = tmp_path / "mem.cfg"
    cfg.write_text(f"{key} = {value}\n")
    net = tmp_path / "mem.net"
    net.write_text(GRU_NET + f"[mem]\n{key} = {value}\n")
    for source, argv in ((cfg, ["--config", str(cfg), "mem-sim", "--stream", "4x4"]),
                         (net, ["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6"])):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(source) in err and f"{key} = {value!r}" in err
    with pytest.raises(MalformedStream):
        load_mem_config(str(cfg))


@pytest.mark.parametrize("option,where,uri", [
    ("amp", "input", "synth:ar1,t=3,n=6,amp=abc"),
    ("amp", "input", "synth:ar1,t=3,n=6,amp=1_0"),
    ("rho", "input", "synth:ar1,t=3,n=6,rho=high"),
    ("amp", "input", "synth:map,c=2,h=8,w=8,amp=big"),
    ("sparsity", "input", "synth:map,c=2,h=8,w=8,sparsity=most"),
    ("amp", "files", "synth:uniform,amp=abc,seed=4"),
    ("amp", "weights", "synth:uniform,amp=abc,seed=3"),
    ("amp", "bias", "synth:uniform,amp=abc,seed=3"),
])
def test_non_numeric_synth_option_exits_2(tmp_path, capsys, option, where, uri):
    # each ended in a bare "could not convert string to float: 'abc'"
    net = tmp_path / "x.net"
    if where == "input":
        net.write_text(CONV_NET if uri.startswith("synth:map") else GRU_NET)
        argv = ["run", "--net", str(net), "--input", uri]
    else:
        net.write_text(_with_value(GRU_NET if where == "files" else CONV_NET, where, uri))
        argv = ["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    value = _option_value(uri, option)
    assert uri in err and f"{option} = {value!r}: not a number" in err
    if where != "input":
        assert f"{net}: " in err and f"{where} = {uri!r}" in err


# One case per source of a value: the key set to a text the number
# grammar refuses ("1_0" was 10, "+1" and an Arabic-Indic one were 1), or
# a key nothing reads. Each ran with exit 0, except an unknown [mem] or
# config key, which was refused in another form.
_CONV_URI = "synth:map,c=2,h=24,w=24,sparsity=0.5"
_GRU_URI = "synth:ar1,t=3,n=6,rho=0.9"
_SOURCES = {
    # source: (net text, input URI, config text, key to set, unread key, layer)
    "net-key": (CONV_NET, _CONV_URI, None, "stride", "thetta", "conv layer 0: "),
    "top-level": (GRU_NET, _GRU_URI, None, None, "seed", ""),
    "mem": (GRU_NET + "[mem]\nrow_change_factor = 50\n", _GRU_URI, None,
            "row_change_factor", "row_change", ""),
    "config": (GRU_NET, _GRU_URI, "words_per_row = 1024\n", "words_per_row", "word_per_row", ""),
    "map-input": (CONV_NET, _CONV_URI, None, "seed", "sparsty", ""),
    "seq-input": (GRU_NET, _GRU_URI, None, "t", "rh0", ""),
    "weight-uri": (CONV_NET, _CONV_URI, None, "seed", "sed", "conv layer 0: "),
    "bias-uri": (CONV_NET.replace("bias = zero", "bias = synth:uniform,seed=2"), _CONV_URI,
                 None, "seed", "ampl", "conv layer 0: "),
    "files-uri": (GRU_NET, _GRU_URI, None, "seed", "sed", "gru layer 0: "),
}


def _set_value(text, key, value, sep):
    """``text`` with the ``key<sep>...`` entry set to ``value``, or the
    entry appended to the last line when it has none."""
    head = f"{key}{sep}"
    lines = text.rstrip("\n").split("\n")
    for i, ln in enumerate(lines):
        at = ln.find(head)
        if at == 0 or (at > 0 and ln[at - 1] in ",:"):
            end = ln.find(",", at)
            lines[i] = ln[:at] + head + value + ("" if end < 0 else ln[end:])
            return "\n".join(lines) + "\n"
    lines[-1] += ("," if sep == "=" else "\n") + head + value
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("source", sorted(_SOURCES))
@pytest.mark.parametrize("value", ["1_0", "+1", "\u0661", "unread"])
def test_every_value_source_refuses_bad_numbers_and_unread_keys(tmp_path, capsys, source,
                                                                value):
    net, uri, cfg, key, unread, layer = _SOURCES[source]
    if value == "unread" or key is None:
        key, value = (unread, "0.05") if value == "unread" else ("theta", value)
    sep = "=" if "uri" in source or "input" in source else " = "
    if source == "top-level":
        net = f"{key} = {value}\n" + net
    elif source in ("net-key", "mem"):
        net = _set_value(net, key, value, sep)
    elif source == "config":
        cfg = _set_value(cfg, key, value, sep)
    elif "input" in source:
        uri = _set_value(uri, key, value, sep).rstrip("\n")
    else:
        entry = {"weight-uri": "weights", "bias-uri": "bias", "files-uri": "files"}[source]
        line = next(ln for ln in net.splitlines() if ln.startswith(entry + " = "))
        net = net.replace(line, _set_value(line, key, value, sep).rstrip("\n"))
    path = tmp_path / "v.net"
    path.write_text(net)
    argv = ["run", "--net", str(path), "--input", uri]
    where = f"{path}: {layer}"
    if cfg is not None:
        (tmp_path / "v.cfg").write_text(cfg)
        argv = ["--config", str(tmp_path / "v.cfg")] + argv
        where = f"{tmp_path / 'v.cfg'}: "
    elif "input" in source:
        where = f"{uri}: "
    elif source == "mem":
        where = f"{path}: [mem]: "
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {where}") and f"{key} = {value!r}: " in err


@pytest.mark.parametrize("key,value", [("in_c", "0"), ("stride", "0"), ("k", "0"),
                                       ("pool", "max3x3")])
def test_out_of_range_layer_value_names_file_and_layer(tmp_path, capsys, key, value):
    # ended in "non-positive dimension in (2, 0, 3, 3)" or "stride must be
    # >= 1, got 0", naming neither the file nor the layer
    path = tmp_path / "r.net"
    second = _with_value(CONV_NET.replace("name = cnn\n", ""), key, value)
    path.write_text(CONV_NET.replace("out_c = 3", "out_c = 2") + second)
    assert main(["run", "--net", str(path), "--input", "synth:map,c=2,h=8,w=8"]) == 3
    assert capsys.readouterr().err.startswith(f"error: {path}: conv layer 1: ")


def test_theta_past_range_names_its_layer(tmp_path, capsys):
    # "theta 1000 is past the Q8.8 range" named no file or layer, so the
    # bad block of a multi-layer net could not be told from the message
    path = tmp_path / "t.net"
    path.write_text(GRU_NET_2.replace("input = 8\n", "input = 8\ntheta = 1000\n"))
    assert main(["run", "--net", str(path), "--input", "synth:ar1,t=3,n=6"]) == 2
    assert capsys.readouterr().err == (
        f"error: {path}: gru layer 1: theta = '1000': "
        "theta 1000 is past the Q8.8 range (at most 127.99609375)\n")


@pytest.mark.parametrize("argv,flag", [
    (["sweep-theta", "--thetas", "0,1_0"], "--thetas: '1_0'"),
    (["mem-sim", "--stream", "4x1_0"], "--stream: '1_0'"),
    (["mem-sim", "--stream", "4x+4"], "--stream: '+4'"),
    (["brain-budget", "--rate", "1_0"], "--rate: '1_0'"),
    (["brain-budget", "--fanout", "\u0661"], "--fanout: '\u0661'"),
])
def test_hand_split_flag_numbers_use_the_grammar(gru_net, capsys, argv, flag):
    # --thetas 0,1_0 ran theta 10, --stream 4x1_0 cost 4x10 and
    # --rate 1_0 printed 100 W, each with exit 0
    if argv[0] == "sweep-theta":
        argv = argv[:1] + ["--net", gru_net, "--input", "synth:ar1,t=3,n=6"] + argv[1:]
    assert main(argv) == 2
    assert f"{flag}: not a" in capsys.readouterr().err


@pytest.mark.parametrize("stream, message", [
    ("-3x-4", "--stream: '-3': not a positive count"),
    ("0x5", "--stream: '0': not a positive count"),
    ("5x0", "--stream: '0': not a positive count"),
    ("-3x4", "--stream: '-3': not a positive count"),
    ("99999999999x99999999999",
     "--stream: '99999999999x99999999999': 9999999999800000000001 words is past int64"),
    ("9223372036854775808", "--stream: '9223372036854775808': "
                            "9223372036854775808 words is past int64"),
])
def test_stream_dimensions_are_positive_and_their_product_fits(capsys, stream, message):
    # -3x-4 cost a 12-word stream and 0x5 a 0-word one, each with exit
    # 0; -3x4 and a product past int64 exited 2 with a message that
    # named no flag
    assert main(["mem-sim", f"--stream={stream}"]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_stream_product_at_int64_max_is_costed(capsys):
    assert main(["mem-sim", "--stream", str((1 << 63) - 1)]) == 0
    assert json.loads(capsys.readouterr().out)["dram_words"] == (1 << 63) - 1


@pytest.mark.parametrize("argv", [
    ["--seed", "1_0", "mem-sim", "--ratio", "10"],
    ["mem-sim", "--ratio", "1_0"],
    ["run", "--net", "x.net", "--input", "synth:ar1", "--count", "+2"],
    ["run", "--net", "x.net", "--input", "synth:ar1", "--theta", "1_0"],
])
def test_typed_flags_use_the_grammar(capsys, argv):
    # --seed 1_0 ran seed 10 with exit 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "invalid" in capsys.readouterr().err


def test_burst_len_is_an_unknown_mem_key(tmp_path, capsys):
    # burst_len had no cycle effect and is no longer a memory-model key
    cfg = tmp_path / "mem.cfg"
    cfg.write_text("burst_len = 8\n")
    net = tmp_path / "mem.net"
    net.write_text(GRU_NET + "[mem]\nburst_len = 8\n")
    for source, argv in ((cfg, ["--config", str(cfg), "mem-sim", "--stream", "4x4"]),
                         (net, ["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6"])):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert str(source) in err and "burst_len = '8': unknown key" in err


@pytest.mark.parametrize("uri,key,value,code", [
    ("synth:map,c=2,h=0,w=8", "h", "0", 3),
    ("synth:map,c=2,h=8,w=-1", "w", "-1", 2),
    ("synth:map,c=2,h=8,w=8,sparsity=2", "sparsity", "2", 2),
    ("synth:map,c=2,h=8,w=8,seed=-3", "seed", "-3", 2),
    ("synth:ar1,t=3,n=-6", "n", "-6", 2),
    ("synth:ar1,t=3,n=0", "n", "0", 3),
    ("synth:ar1,t=3,n=6,seed=-3", "seed", "-3", 2),
    ("synth:hold,t=3,n=6,hold=0", "hold", "0", 2),
    ("synth:ar1,t=3,n=6,rho=1.5", "rho", "1.5", 2),
    ("synth:ar1,t=3,n=6,amp=-1", "amp", "-1", 2),
])
def test_refused_generator_option_names_uri_key_and_value(conv_net, gru_net, capsys,
                                                         uri, key, value, code):
    # each ended in the generator's own words ("non-positive dimension in
    # (2, 0, 8)", "expected non-negative integer", "hold must be >= 1"),
    # naming neither the URI nor the option
    net = conv_net if uri.startswith("synth:map") else gru_net
    assert main(["run", "--net", net, "--input", uri]) == code
    assert capsys.readouterr().err.startswith(f"error: {uri}: {key} = {value!r}: ")


def test_negative_global_seed_is_refused_by_the_flag_parser(capsys):
    # --seed -1 reached numpy and ended in "expected non-negative integer"
    with pytest.raises(SystemExit) as exc:
        main(["--seed", "-1", "mem-sim", "--ratio", "10"])
    assert exc.value.code == 2
    assert "argument --seed: invalid u64 value: '-1'" in capsys.readouterr().err


@pytest.mark.parametrize("amp", ["0", "-5", "0.001", "128", "1000", "1e9"])
@pytest.mark.parametrize("prefix", ["synth:map,c=2,h=8,w=8", "synth:uniform,t=3,n=6",
                                    "synth:hold,t=3,n=6"])
def test_amplitude_outside_q8_8_is_refused(conv_net, gru_net, capsys, prefix, amp):
    # amp=0, -5 and 0.001 ran at one LSB, and amp=1000 and 1e9 at the Q8.8
    # maximum, all with exit 0
    uri = f"{prefix},amp={amp}"
    net = conv_net if prefix.startswith("synth:map") else gru_net
    assert main(["run", "--net", net, "--input", uri]) == 2
    assert capsys.readouterr().err.startswith(f"error: {uri}: amp = {amp!r}: amplitude ")


def test_amplitude_range_ends_are_accepted(conv_net, capsys):
    # one LSB and the Q8.8 maximum are amplitudes, and draw different maps
    hashes = set()
    for amp in ("0.00390625", "127.99609375"):
        assert main(["run", "--net", conv_net, "--input",
                     f"synth:map,c=2,h=8,w=8,amp={amp}"]) == 0
        hashes.add(json.loads(capsys.readouterr().out)["extras"]["output_hash"])
    assert len(hashes) == 2


def _gru_net_with_files(tmp_path, files):
    p = tmp_path / "amp.net"
    p.write_text(f"name = amp\n[gru]\ninput = 32\nhidden = 8\nfiles = {files}\n")
    return str(p)


def test_non_finite_weight_amplitude_exits_2(tmp_path, capsys):
    # escaped from the weight generator as an OverflowError traceback
    for amp in ("nan", "inf"):
        net = _gru_net_with_files(tmp_path, f"synth:uniform,amp={amp}")
        assert main(["run", "--net", net, "--input", "synth:ar1,t=3,n=32"]) == 2
        assert "non-finite generator amplitude" in capsys.readouterr().err


def test_bias_amplitude_past_int32_exits_2(tmp_path, capsys):
    # amp=1000 at accumulator scale 2**22 wrapped the int32 biases with a
    # cast warning and exited 0; 511 * 2**22 still fits
    net = tmp_path / "bias.net"
    for amp, code in (("1000", 2), ("511", 0)):
        net.write_text(CONV_NET.replace("bias = zero", f"bias = synth:uniform,amp={amp}"))
        assert main(["run", "--net", str(net), "--input", "synth:map,c=2,h=8,w=8"]) == code
        assert ("overflows the int32 accumulator" in capsys.readouterr().err) == (code == 2)


def test_bias_file_past_int32_at_accumulator_scale_exits_2(tmp_path, capsys):
    # a Q16.0 bias of 2 lifted to 2**30 by a Q1.15 x Q1.15 layer wrapped
    # to INT32_MIN and the run exited 0
    save_qt(QTensor((2,), QFormat(16, 0), np.array([2, 32767], dtype=np.int16)),
            str(tmp_path / "b.qt"))
    net = tmp_path / "wide.net"
    net.write_text("[conv]\nin_c = 1\nout_c = 2\nk = 1\nact_fmt = Q1.15\nw_fmt = Q1.15\n"
                   "weights = synth:uniform,seed=1\nbias = b.qt\n")
    assert main(["run", "--net", str(net), "--input", "synth:map,c=1,h=4,w=4"]) == 2
    assert capsys.readouterr().err == (f"error: {net}: conv layer 0: bias = 'b.qt': bias at "
                                       "accumulator scale 2**30: 2147483648 is past the "
                                       "int32 range\n")


# The largest Q2.14 value, and the least amplitude that rounds past it.
_Q2_14_MAX = "1.99993896484375"
_PAST_Q2_14 = "1.999969482421875"


@pytest.mark.parametrize("key", ["weights", "files", "wxr", "wxu", "wxc", "whr", "whu", "whc"])
def test_weight_amplitude_past_the_format_exits_2(tmp_path, capsys, key):
    # amp=1000 drew 99% of the Q2.14 weights at the format's limits and
    # exited 0. The refusal is the amplitude's, not the draw's: just past
    # the maximum, where few draws reach it, every seed is refused
    if key == "weights":
        text, uri = CONV_NET, "synth:map,c=2,h=8,w=8"
    elif key == "files":
        text, uri = GRU_NET, "synth:ar1,t=3,n=6"
    else:
        text = GRU_NET.replace("files = synth:uniform,amp=0.1,seed=4", "\n".join(
            f"{m} = synth:uniform" for m in ("wxr", "wxu", "wxc", "whr", "whu", "whc")))
        text += "br = zero\nbu = zero\nbc = zero\n"
        uri = "synth:ar1,t=3,n=6"
    net = tmp_path / "w.net"
    old = f"{key} = synth:uniform" + (",amp=0.2,seed=3" if key == "weights" else
                                      ",amp=0.1,seed=4" if key == "files" else "")
    for amp, seed in [("1000", 3), *((_PAST_Q2_14, s) for s in range(5))]:
        value = f"synth:uniform,amp={amp},seed={seed}"
        net.write_text(text.replace(old, f"{key} = {value}"))
        assert main(["run", "--net", str(net), "--input", uri]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"error: {net}: ")
        assert (f"layer 0: {key} = {value!r}: amp = {amp!r}: amplitude {float(amp):g} "
                f"rounds past the Q2.14 maximum 1.99994") in err
    net.write_text(text.replace(old, f"{key} = synth:uniform,amp={_Q2_14_MAX}"))
    assert main(["run", "--net", str(net), "--input", uri]) == 0
    capsys.readouterr()


def test_weight_generator_refuses_an_amplitude_past_the_format():
    # called directly, amp=1000 put 99% of the weights at the Q2.14 limits;
    # at the largest amplitude every draw rounds to itself, unclipped
    with pytest.raises(MalformedStream, match="amplitude 1000 rounds past the Q2.14 maximum"):
        random_weights((8, 32), make_rng(0), Q2_14, 1000)
    with pytest.raises(MalformedStream, match="rounds past the Q8.8 maximum 127.996"):
        random_weights((8, 32), make_rng(0), Q8_8, 128)
    amp = float(_Q2_14_MAX)
    for seed in range(20):
        w = random_weights((64, 64), make_rng(seed), Q2_14, amp)
        draws = make_rng(seed).uniform(-amp, amp, size=64 * 64)
        assert np.array_equal(w.data.reshape(-1), np.rint(draws * Q2_14.scale))


def test_ar1_draw_past_q8_8_exits_2(gru_net, capsys):
    # amp=1000 put 85% of the Q8.8 values at the format's limits and exited
    # 0; a draw is refused when any value is past the range
    for amp in ("1000", "200"):
        uri = f"synth:ar1,t=3,n=6,amp={amp},seed=1"
        assert main(["run", "--net", gru_net, "--input", uri]) == 2
        assert capsys.readouterr().err.startswith(
            f"error: {uri}: amp = {amp!r}: ")
    with pytest.raises(MalformedStream, match="of the 300 values drawn at amplitude 1000 "
                                              "are past the Q8.8 range"):
        ar1_seq(50, 6, 0.99, make_rng(0), amp=1000)
    assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=3,n=6,amp=10,seed=1"]) == 0


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
            run.outputs.data[0, 0] ^= 1
        return run

    monkeypatch.setattr(runner, "run_network", conv_flipped)
    monkeypatch.setattr(runner, "run_sequence", gru_flipped)
    assert main(["run", "--net", conv_net, "--input", "synth:map,c=2,h=8,w=8"]) == 5
    assert "conv outputs diverged" in capsys.readouterr().err
    assert main(["run", "--net", gru_net, "--input", "synth:ar1,t=5,n=6",
                 "--theta", "0"]) == 5
    assert "GRU outputs diverged" in capsys.readouterr().err


def _wrong_column(gru, monkeypatch):
    # every event reads its neighbour's column
    mxv = gru.delta_mxv_accumulate

    def shifted(side, idx, vals, acc, proven=False):
        rolled = gru.GateStack(np.roll(side.cols, 1, axis=0), np.roll(side.cols_abs, 1, axis=0))
        return mxv(rolled, idx, vals, acc, proven)

    monkeypatch.setattr(gru, "delta_mxv_accumulate", shifted)


def _memory_without_event(gru, monkeypatch):
    # one component below the threshold has its memory advanced anyway
    encode = gru.encode_delta

    def leaky(mem, cur, theta):
        events = encode(mem, cur, theta)
        quiet = np.flatnonzero(mem != cur)
        mem[quiet[:1]] = cur[quiet[:1]]
        return events

    monkeypatch.setattr(gru, "encode_delta", leaky)


def _skipped_step_event(gru, monkeypatch):
    # a threshold step that cannot fire, and is skipped, sends an event
    monkeypatch.setattr(gru, "_NO_EVENT", (np.array([0]), np.array([1], np.int32)))


@pytest.mark.parametrize("fault, uri", [
    (_wrong_column, "synth:ar1,t=30,n=6"),
    (_memory_without_event, "synth:ar1,t=30,n=6"),
    (_skipped_step_event, "synth:hold,t=30,n=6,hold=5")])
def test_a_delta_step_fault_exits_5_above_theta_0(fault, uri, gru_net, monkeypatch, capsys):
    # at theta 0.05 no dense output is compared; the check that each
    # layer's accumulators telescope to its memories fails instead
    from sparsebench import gru

    argv = ["run", "--net", gru_net, "--input", uri, "--theta", "0.05"]
    assert main(argv) == 0
    capsys.readouterr()
    fault(gru, monkeypatch)
    assert main(argv) == 5
    assert "accumulators diverged" in capsys.readouterr().err


def test_a_wrong_proven_product_exits_5_at_every_theta(gru_net, monkeypatch, capsys):
    # the unchecked product drops its last term: above theta 0 the
    # telescoping check fails, and at theta 0 without that check the
    # comparison with the dense engine does
    from sparsebench import fxp, gru

    def dropped(acc, w, x, proven):
        if proven:
            return fxp.sat_matvec(acc, w[:, :-1], x[:-1], proven)
        return fxp.sat_matvec(acc, w, x, proven)

    monkeypatch.setattr(gru, "sat_matvec", dropped)
    argv = ["run", "--net", gru_net, "--input", "synth:ar1,t=30,n=6", "--theta"]
    assert main(argv + ["0.05"]) == 5
    assert "accumulators diverged" in capsys.readouterr().err
    monkeypatch.setattr(gru, "check_telescoped", lambda *args: None)
    assert main(argv + ["0"]) == 5
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


def test_mem_sim_bad_address_names_the_row(tmp_path, capsys):
    # ended in "invalid literal for int() with base 10: 'abc'", no row named
    trace = tmp_path / "t.csv"
    trace.write_text("region,address,kind,tag\nDRAM,1,read,weights\nDRAM,abc,read,weights\n")
    assert main(["mem-sim", "--trace", str(trace)]) == 2
    assert capsys.readouterr().err == "error: bad trace row 'DRAM,abc,read,weights'\n"


def test_mem_sim_prices_a_messy_trace_like_its_canonical_form(tmp_path, capsys):
    words = [("DRAM", 1022, "read", "weights"), ("DRAM", 1023, "read", "weights"),
             ("DRAM", 1024, "read", "weights"), ("SRAM", 3, "write", "state"),
             ("DRAM", 4000, "write", "activations"), ("DRAM", 1025, "read", "weights")]
    canonical = "region,address,kind,tag\n" + "".join(f"{r},{a},{k},{t}\n" for r, a, k, t in words)
    messy = " region,address,kind,tag\r\n\r\n" + "".join(
        f" {r} ,\t{a},{k} ,{t}\r\n\n" for r, a, k, t in words)
    trace = tmp_path / "t.csv"
    outputs = []
    for text in (canonical, messy):
        trace.write_bytes(text.encode())
        assert main(["mem-sim", "--trace", str(trace)]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["row_activations"] == 4


_TRACE_WORDS = [("DRAM", 1022, "read", "weights"), ("DRAM", 1023, "read", "weights"),
                ("SRAM", 3, "write", "state"), ("DRAM", 4000, "write", "activations"),
                ("SRAM", 4001, "read", "activations")]
# A valid per-word export in its canonical form and in messy forms that the
# ordered per-row loop parses: blank lines, spaces, CRLF, 19-digit addresses.
_TRACE_FORMS = tuple(header + "".join(line.format(r, a, k, t) for r, a, k, t in _TRACE_WORDS)
                     for header, line in (
    ("region,address,kind,tag\n", "{},{},{},{}\n"),
    (" region,address,kind,tag\r\n\r\n", " {} ,\t{},{} ,{}\r\n\n"),
    ("region,address,kind,tag\n", "{},{:019d},{},{}\n"),
    ("region,address,kind,tag\n\n", "{},922337203685477{:04d},{},{}\r\n")))
_MUTANT_CHARS = st.sampled_from(",\n\r \t-09+_\x00\u0667é") | st.characters(codec="utf-8")


@settings(max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_TRACE_FORMS), st.lists(st.tuples(
    st.sampled_from(("replace", "insert", "delete")), st.integers(0, 10**4), _MUTANT_CHARS),
    min_size=1, max_size=4))
def test_mutated_trace_csv_exits_0_or_2(tmp_path, capsys, text, edits):
    for op, at, char in edits:
        at %= len(text) + 1
        cut = at + (op != "insert")
        text = text[:at] + ("" if op == "delete" else char) + text[cut:]
    trace = tmp_path / "t.csv"
    trace.write_bytes(text.encode())
    assert main(["mem-sim", "--trace", str(trace)]) in (0, 2)
    capsys.readouterr()


# A conv map (.qt and .smfm) and a GRU sequence (.qt), each a valid
# container before mutation.
_CONTAINERS = (
    ("map.qt", to_qt_bytes(sparse_map(2, 8, 8, 0.5, make_rng(7)))),
    ("map.smfm", to_smfm_bytes(encode_sm(sparse_map(2, 8, 8, 0.5, make_rng(7))))),
    ("seq.qt", to_qt_bytes(ar1_seq(4, 6, 0.9, make_rng(8)))))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_CONTAINERS), st.lists(st.tuples(
    st.sampled_from(("replace", "insert", "delete")), st.integers(0, 10**4), st.integers(0, 255)),
    min_size=1, max_size=4))
def test_byte_mutated_containers_exit_0_2_3_or_4(tmp_path, capsys, conv_net, gru_net,
                                                 container, edits):
    name, data = container
    for op, at, byte in edits:
        at %= len(data) + 1
        cut = at + (op != "insert")
        data = data[:at] + (b"" if op == "delete" else bytes([byte])) + data[cut:]
    path = tmp_path / name
    path.write_bytes(data)
    out = str(tmp_path / ("out.qt" if name.endswith(".smfm") else "out.smfm"))
    for argv in (["stats", str(path)], ["decode" if name.endswith(".smfm") else "encode",
                                        str(path), out],
                 ["run", "--net", conv_net, "--input", str(path)],
                 ["run", "--net", gru_net, "--input", str(path)]):
        assert main(argv) in (0, 2, 3, 4)
    capsys.readouterr()


_NET_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "bench", "nets")
_FILE_KEYS = ("wxr", "wxu", "wxc", "whr", "whu", "whc", "br", "bu", "bc")
# A GRU whose weights and biases are .qt files beside it.
_FILE_NET = ("name = files\n[gru]\ninput = 6\nhidden = 8\ntheta = 0.05\n"
             + "".join(f"{key} = {key}.qt\n" for key in _FILE_KEYS))


def _bench_net(name: str) -> str:
    with open(os.path.join(_NET_DIR, name), encoding="utf-8") as fh:
        return fh.read()


_NET_CASES = (  # (net text, --input)
    (_bench_net("gru.net"), "synth:ar1,t=3,n=32"),
    (_bench_net("conv.net"), "synth:map,c=32,h=8,w=8,sparsity=0.8"),
    (_FILE_NET, "synth:ar1,t=3,n=6"))
_NET_BYTES = st.sampled_from(b"=\n[]#,:-. x0123456789_") | st.integers(0, 255)


def _too_large(text: str) -> bool:
    """A mutant with a size that could take more than a few MB to run: a
    kernel, pad or stride past 16, or another whole-number value past
    128 (the largest in the nets it is drawn from). Such a net may fit
    in memory and be slow, or fill it; a size that cannot be allocated
    at all is `test_a_net_too_large_to_allocate_exits_2`."""
    for line in text.splitlines():
        key, eq, value = line.split("#", 1)[0].partition("=")
        value = value.strip()
        if eq and value.isascii() and value.isdigit():
            if int(value) > (16 if key.strip().lower() in ("k", "pad", "stride") else 128):
                return True
    return False


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_NET_CASES), st.lists(st.tuples(
    st.sampled_from(("replace", "insert", "delete", "drop line", "repeat line", "swap lines")),
    st.integers(0, 10**4), st.integers(0, 10**4), _NET_BYTES), min_size=1, max_size=3))
def test_mutated_net_texts_exit_0_2_3_or_4(tmp_path, capsys, case, edits):
    # byte and line mutants of the bench nets and of a file-backed net run
    # to a report or end in one error line, never a traceback
    text, source = case
    data = text.encode()
    for op, at, other, byte in edits:
        lines = data.split(b"\n")
        i, j = at % len(lines), other % len(lines)
        if op == "drop line":
            del lines[i]
        elif op == "repeat line":
            lines.insert(i, lines[j])
        elif op == "swap lines":
            lines[i], lines[j] = lines[j], lines[i]
        if op.endswith(("line", "lines")):
            data = b"\n".join(lines)
            continue
        at %= len(data) + 1
        cut = at + (op != "insert")
        data = data[:at] + (b"" if op == "delete" else bytes([byte])) + data[cut:]
    assume(not _too_large(data.decode("utf-8", "replace")))
    rng = make_rng(9)
    for key in _FILE_KEYS:
        dims = (8,) if key.startswith("b") else (8, 8 if key.startswith("wh") else 6)
        save_qt(random_weights(dims, rng, Q8_8 if len(dims) == 1 else Q2_14, 0.1),
                str(tmp_path / f"{key}.qt"))
    net = tmp_path / "mutant.net"
    net.write_bytes(data)
    code = main(["run", "--net", str(net), "--input", source])
    err = capsys.readouterr().err
    assert code in (0, 2, 3, 4)
    if code:
        assert err.startswith("error: ") and err.count("\n") == 1, err
    else:
        assert err == ""


@pytest.mark.parametrize("line, big", [("k = 3", "k = 1000000"), ("pad = 1", "pad = 1000000")])
def test_a_net_too_large_to_allocate_exits_2(tmp_path, capsys, line, big):
    # the weights of a million-tap kernel, or the accumulators of a
    # million-pixel pad, need petabytes, past any address space; either
    # ended in a MemoryError traceback with exit 1
    net = tmp_path / "big.net"
    net.write_text(_bench_net("conv.net").replace(line, big, 1))
    assert main(["run", "--net", str(net), "--input", "synth:map,c=32,h=8,w=8"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: Unable to allocate") and err.count("\n") == 1


GRU_NET_2 = GRU_NET + """[gru]
input = 8
hidden = 8
files = synth:uniform,amp=0.1,seed=5
"""


@pytest.mark.parametrize("net, source", [
    ("cnn.net", "synth:map,c=2,h=12,w=12,sparsity=0.6"),
    ("rnn.net", "synth:hold,t=20,n=6,hold=5")])
def test_exported_trace_replays_to_the_report_costs(tmp_path, capsys, net, source):
    # a GRU of two layers, so the open row is carried across layers
    (tmp_path / net).write_text(CONV_NET if net == "cnn.net" else GRU_NET_2)
    trace = str(tmp_path / "t.csv")
    assert main(["run", "--net", str(tmp_path / net), "--input", source,
                 "--trace-csv", trace]) == 0
    totals = json.loads(capsys.readouterr().out)["totals"]
    assert main(["mem-sim", "--trace", trace]) == 0
    costs = json.loads(capsys.readouterr().out)
    keys = ("cycles", "row_activations", "dram_words", "sram_words")
    assert {k: costs[k] for k in keys} == {k: totals[k] for k in keys}
    assert costs["row_activations"] > 0 and costs["sram_words"] > 0


def test_mem_sim_requires_exactly_one_probe(tmp_path):
    assert main(["mem-sim"]) == 2
    assert main(["mem-sim", "--stream", "5x-3"]) == 2
    assert main(["mem-sim", "--ratio", "10", "--stream", "4x4"]) == 2


def test_mem_sim_config_override(tmp_path, capsys):
    cfg = tmp_path / "mem.cfg"
    cfg.write_text("row_change_factor = 1\n")
    assert main(["--config", str(cfg), "mem-sim", "--ratio", "10000"]) == 0
    assert capsys.readouterr().out.strip() == "1.9998"


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_mem_config_file_exits_2(tmp_path, gru_net, capsys, value):
    # e_dram_word = nan printed "energy_pj": NaN (not JSON) and exited 0;
    # clock_hz = inf died in a ZeroDivisionError traceback
    cfg = tmp_path / "mem.cfg"
    for key in ("e_dram_word", "clock_hz"):
        cfg.write_text(f"{key} = {value}\n")
        assert main(["--config", str(cfg), "mem-sim", "--stream", "4x4"]) == 2
        assert main(["--config", str(cfg), "run", "--net", gru_net,
                     "--input", "synth:ar1,t=3,n=6"]) == 2
        assert f"{key} must be positive and finite" in capsys.readouterr().err


def test_mem_config_integer_past_int64_exits_2(tmp_path, capsys):
    # died in an OverflowError traceback (exit 1) costing the trace
    cfg = tmp_path / "mem.cfg"
    cfg.write_text(f"words_per_row = {10**30}\n")
    assert main(["--config", str(cfg), "mem-sim", "--stream", "4x4"]) == 2
    assert "words_per_row must fit int64" in capsys.readouterr().err
    cfg.write_text(f"words_per_row = {2**63 - 1}\n")
    assert main(["--config", str(cfg), "mem-sim", "--stream", "4x4"]) == 0
    assert json.loads(capsys.readouterr().out)["row_activations"] == 1


def test_non_finite_net_mem_section_exits_2(tmp_path, capsys):
    # a [mem] e_mac = nan wrote NaN watts and GOp/s/W into the report, exit 0
    net = tmp_path / "mem.net"
    for key, value in (("e_mac", "nan"), ("e_sram_word", "-inf"), ("clock_hz", "inf")):
        net.write_text(GRU_NET + f"[mem]\n{key} = {value}\n")
        assert main(["run", "--net", str(net), "--input", "synth:ar1,t=3,n=6",
                     "--report", str(tmp_path / "r.json")]) == 2
        assert f"{key} must be positive and finite" in capsys.readouterr().err
    assert not (tmp_path / "r.json").exists()


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


def _scatter_report(path, name='"ok"', watts="1", gops="2"):
    path.write_text(f'{{"name": {name}, "foms": {{"watts": {watts}, "effective_gops": {gops}}}}}')
    return str(path)


# Before these checks most ended in a traceback (exit 1), NaN exited 2
# only after the CSV was printed, and true was read as watts 1.
@pytest.mark.parametrize("bad", [
    {"watts": '"1"'}, {"name": "null"}, {"name": "3"}, {"watts": "Infinity"},
    {"gops": "-Infinity"}, {"watts": "NaN"}, {"watts": "true"}, {"gops": "0"},
    {"watts": "1e-320"}, {"gops": "5e-324"}, {"watts": "1" + "0" * 400}, {"watts": "[1]"}])
def test_report_refuses_hostile_values_before_writing(tmp_path, capsys, bad):
    ok = _scatter_report(tmp_path / "ok.json")
    hostile = _scatter_report(tmp_path / "bad.json", **bad)
    out_csv, out_svg = tmp_path / "o.csv", tmp_path / "o.svg"
    for argv in (["report", ok, hostile], ["report", hostile, ok, "--out-csv", str(out_csv),
                                           "--out-svg", str(out_svg)]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1
        assert hostile in err
    assert not out_csv.exists() and not out_svg.exists()


def test_report_refuses_a_chart_span_past_the_float_range(tmp_path, capsys):
    # each report alone charts; together the GOp/s-per-W span overflows
    tiny = _scatter_report(tmp_path / "tiny.json", name='"tiny"', watts="1e-320", gops="1e-320")
    big = _scatter_report(tmp_path / "big.json", name='"big"', watts="1e300", gops="1e300")
    assert main(["report", tiny]) == 0 and main(["report", big]) == 0
    capsys.readouterr()
    assert main(["report", tiny, big]) == 2
    out, err = capsys.readouterr()
    assert out == "" and tiny in err and big in err and "float range" in err


def test_report_escapes_names_in_the_chart_outputs(tmp_path, capsys):
    import csv
    import io
    import xml.dom.minidom
    net = tmp_path / "esc.net"
    net.write_text(CONV_NET.replace("name = cnn", 'name = a<b & "c",d'))
    rpt, svg = str(tmp_path / "r.json"), str(tmp_path / "r.svg")
    assert main(["run", "--net", str(net), "--input", MAP_URI, "--report", rpt]) == 0
    capsys.readouterr()
    assert main(["report", rpt, "--out-svg", svg]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert [len(r) for r in rows] == [4, 4] and rows[1][0] == 'a<b & "c",d'
    labels = [t.firstChild.data for t in xml.dom.minidom.parse(svg).getElementsByTagName("text")]
    assert labels[-1] == 'a<b & "c",d'


def test_report_draws_a_control_character_as_the_replacement_character(tmp_path, capsys):
    # a C0 character went into the SVG as it was, which no XML parser
    # accepts; it comes from report JSON or a .net name, and stays as it
    # is in the CSV
    import xml.dom.minidom
    net = tmp_path / "ctl.net"
    net.write_text(CONV_NET.replace("name = cnn", "name = a\u0001b\u001fc\td"))
    from_net = str(tmp_path / "net.json")
    assert main(["run", "--net", str(net), "--input", MAP_URI, "--report", from_net]) == 0
    from_json = _scatter_report(tmp_path / "json.json", name='"e\\u0000f\\u0008g"')
    for rpt, want in ((from_net, "a\ufffdb\ufffdc\td"), (from_json, "e\ufffdf\ufffdg")):
        svg = str(tmp_path / "r.svg")
        capsys.readouterr()
        assert main(["report", rpt, "--out-svg", svg]) == 0
        assert capsys.readouterr().out.splitlines()[1].startswith(json.load(open(rpt))["name"])
        labels = [t.firstChild.data for t in xml.dom.minidom.parse(svg).getElementsByTagName("text")]
        assert labels[-1] == want


def test_report_refuses_a_name_utf8_cannot_encode(tmp_path, capsys):
    # a lone surrogate from a JSON escape exited 2 with the codec's
    # message, naming no file
    bad = _scatter_report(tmp_path / "bad.json", name='"a\\ud800b"')
    assert main(["report", bad, "--out-svg", str(tmp_path / "o.svg")]) == 2
    out, err = capsys.readouterr()
    assert out == "" and bad in err and "UTF-8" in err
    assert not (tmp_path / "o.svg").exists()


# --- paths that cannot be opened --------------------------------------------------

MAP_URI, SEQ_URI = "synth:map,c=2,h=8,w=8", "synth:uniform,t=3,n=6"

# Entry point: (file name, reads or writes it, argv given the bad path and
# the valid files in `ok`). Before the one file boundary, a directory
# ended in an IsADirectoryError traceback and a failed write was named by
# its temp file.
PATH_CASES = {
    "stats": ("bad.qt", "read", lambda bad, ok: ["stats", bad]),
    "encode-input": ("bad.qt", "read", lambda bad, ok: ["encode", bad, ok["out"]]),
    "encode-output": ("bad.smfm", "write", lambda bad, ok: ["encode", ok["qt"], bad]),
    "decode-input": ("bad.smfm", "read", lambda bad, ok: ["decode", bad, ok["out"]]),
    "decode-output": ("bad.qt", "write", lambda bad, ok: ["decode", ok["smfm"], bad]),
    "run-net": ("bad.net", "read", lambda bad, ok: ["run", "--net", bad, "--input", MAP_URI]),
    "run-input-qt": ("bad.qt", "read", lambda bad, ok: ["run", "--net", ok["net"], "--input", bad]),
    "run-input-smfm": ("bad.smfm", "read",
                       lambda bad, ok: ["run", "--net", ok["net"], "--input", bad]),
    "run-config": ("bad.cfg", "read", lambda bad, ok: ["--config", bad, "run", "--net", ok["net"],
                                                     "--input", MAP_URI]),
    "run-report": ("bad.json", "write", lambda bad, ok: ["run", "--net", ok["net"], "--input",
                                                       MAP_URI, "--report", bad]),
    "run-trace-csv": ("bad.csv", "write", lambda bad, ok: ["run", "--net", ok["net"], "--input",
                                                         MAP_URI, "--trace-csv", bad]),
    "sweep-theta-out": ("bad.csv", "write", lambda bad, ok: ["sweep-theta", "--net", ok["gru"],
                                                           "--input", SEQ_URI, "--thetas", "0",
                                                           "--out", bad]),
    "mem-sim-trace": ("bad.csv", "read", lambda bad, ok: ["mem-sim", "--trace", bad]),
    "report-input": ("bad.json", "read", lambda bad, ok: ["report", bad]),
    "report-out-csv": ("bad.csv", "write",
                       lambda bad, ok: ["report", ok["report"], "--out-csv", bad]),
    "report-out-svg": ("bad.svg", "write",
                       lambda bad, ok: ["report", ok["report"], "--out-svg", bad]),
    # the .net's `wxr =` value is the bad path relative to the .net
    "net-weight-file": ("wxr.qt", "read", lambda bad, ok: ["run", "--net", ok["weight_net"](bad),
                                                           "--input", SEQ_URI]),
}


def _valid_files(root, conv_net, gru_net, map_qt, capsys):
    smfm, report = str(root / "x.smfm"), str(root / "r.json")
    assert main(["encode", map_qt, smfm]) == 0
    assert main(["run", "--net", conv_net, "--input", MAP_URI, "--report", report]) == 0
    capsys.readouterr()

    def weight_net(bad):
        net = root / "w.net"
        net.write_text(f"[gru]\ninput = 6\nhidden = 8\nwxr = {bad[len(str(root)) + 1:]}\n")
        return str(net)

    return {"net": conv_net, "gru": gru_net, "qt": map_qt, "smfm": smfm, "report": report,
            "out": str(root / "out.bin"), "weight_net": weight_net}


# The OS reason each kind of bad path must be reported with.
PATH_KINDS = {"directory": errno.EISDIR, "under-a-file": errno.ENOTDIR,
              "in-a-missing-directory": errno.ENOENT}


# A missing file to read is test_missing_input_exits_4's case.
@pytest.mark.parametrize("entry,kind", [
    (entry, kind) for entry, (_, access, _) in PATH_CASES.items()
    for kind in list(PATH_KINDS)[:3 if access == "write" else 2]])
def test_path_that_cannot_be_opened_exits_4_naming_it(tmp_path, conv_net, gru_net, map_qt,
                                                     capsys, entry, kind):
    name, _, argv = PATH_CASES[entry]
    ok = _valid_files(tmp_path, conv_net, gru_net, map_qt, capsys)
    if kind == "directory":
        bad = tmp_path / name
        bad.mkdir(exist_ok=True)  # name "" is tmp_path itself
    elif kind == "under-a-file":
        (tmp_path / "plain").write_text("")
        bad = tmp_path / "plain" / (name or "w.qt")
    else:
        bad = tmp_path / "nodir" / name
    assert main(argv(str(bad), ok)) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert str(bad) in err and os.strerror(PATH_KINDS[kind]) in err and ".tmp-" not in err
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("entry", PATH_CASES)
def test_a_path_holding_a_nul_byte_exits_4_naming_it(tmp_path, conv_net, gru_net, map_qt,
                                                     capsys, entry):
    # open() refuses such a path with a ValueError, which exited 2 with
    # "embedded null byte" and most often no path
    name, access, argv = PATH_CASES[entry]
    ok = _valid_files(tmp_path, conv_net, gru_net, map_qt, capsys)
    bad = str(tmp_path / f"a\0{name}")
    assert main(argv(bad, ok)) == 4
    err = capsys.readouterr().err
    assert err.endswith(f"cannot {access} {bad!r}: embedded null byte\n")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not list(tmp_path.rglob(".tmp-*"))


@pytest.mark.parametrize("kind,key", [("conv", "weights"), ("conv", "bias")]
                         + [("gru", k) for k in ("wxr", "wxu", "wxc", "whr", "whu", "whc",
                                                 "br", "bu", "bc")])
def test_empty_tensor_value_exits_2_naming_the_key(tmp_path, capsys, kind, key):
    # an empty value was read as a path: the .net's own directory, exit 4
    if kind == "conv":
        values = {"weights": "synth:uniform,seed=1", "bias": "zero"}
        head, uri = "[conv]\nin_c = 2\nout_c = 3\nk = 3\n", MAP_URI
    else:
        values = dict.fromkeys(("wxr", "wxu", "wxc", "whr", "whu", "whc"), "synth:uniform")
        values |= dict.fromkeys(("br", "bu", "bc"), "zero")
        head, uri = "[gru]\ninput = 6\nhidden = 8\n", SEQ_URI
    values[key] = ""
    net = tmp_path / "e.net"
    net.write_text(head + "".join(f"{k} = {v}\n" for k, v in values.items()))
    assert main(["run", "--net", str(net), "--input", uri]) == 2
    assert capsys.readouterr().err == (f"error: {net}: {kind} layer 0: {key} = '': "
                                       "empty value, expected a .qt path or a synth: URI\n")


@pytest.mark.parametrize("umask,mode", [(0o022, 0o644), (0o077, 0o600)], ids=["022", "077"])
@pytest.mark.parametrize("output", ["report", "qt"])
def test_output_mode_follows_the_umask(tmp_path, conv_net, map_qt, capsys, output, umask,
                                       mode):
    # every output was left at the temp file's 0o600, whatever the umask
    out, smfm = tmp_path / f"out.{'json' if output == 'report' else 'qt'}", tmp_path / "x.smfm"
    assert main(["encode", map_qt, str(smfm)]) == 0
    old = os.umask(umask)
    try:
        if output == "report":
            code = main(["run", "--net", conv_net, "--input", MAP_URI, "--report", str(out)])
        else:
            code = main(["decode", str(smfm), str(out)])
    finally:
        os.umask(old)
    assert code == 0
    assert stat.S_IMODE(os.stat(out).st_mode) == mode


NOT_UTF8 = b"name = x\n# caf\xe9\n"


@pytest.mark.parametrize("argv", [
    lambda bad, ok: ["run", "--net", bad, "--input", MAP_URI],
    lambda bad, ok: ["--config", bad, "run", "--net", ok["net"], "--input", MAP_URI],
    lambda bad, ok: ["mem-sim", "--trace", bad],
    lambda bad, ok: ["report", bad],
], ids=["net", "config", "trace-csv", "report"])
def test_text_input_that_is_not_utf8_exits_2_naming_it(tmp_path, conv_net, gru_net, map_qt,
                                                      capsys, argv):
    ok = _valid_files(tmp_path, conv_net, gru_net, map_qt, capsys)
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(NOT_UTF8)
    assert main(argv(str(bad), ok)) == 2
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text (byte offset 14)\n"


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


def test_brain_budget_rejects_non_finite_numbers(capsys):
    # printed "nan W", "inf W" and "inf Hz" and exited 0
    for args in (["--rate", "nan"], ["--neurons", "inf"], ["--power", "inf", "--rate", "?"],
                 ["--esyn=-inf"]):
        assert main(["brain-budget"] + args) == 2
        assert "non-finite value" in capsys.readouterr().err


def test_brain_budget_rejects_an_answer_outside_the_float_range(capsys):
    # printed "inf W" and "0 Hz" and exited 0
    for args, answer in (
            (["--power", "?", "--rate", "1e300", "--fanout", "1e300", "--neurons", "1",
              "--esyn", "1e-13"], "--power: inf W"),
            (["--rate", "?", "--power", "1e-300", "--fanout", "1e300",
              "--neurons", "1e300"], "--rate: 0 Hz")):
        assert main(["brain-budget"] + args) == 2
        assert f"{answer}: the computation left the float range" in capsys.readouterr().err


def test_brain_budget_answers_inside_the_float_range_past_an_overflowing_product(capsys):
    # 1e300 * 1e300 overflowed on the way to 1 W (exit 2, "inf W"), and
    # 1e-300 * 1e-300 underflowed to a zero divisor on the way to 1e300 Hz
    # (a ZeroDivisionError traceback)
    for args, answer in (
            (["--power", "?", "--rate", "1e300", "--fanout", "1e300",
              "--neurons", "1e-300", "--esyn", "1e-300"], "1 W"),
            (["--rate", "?", "--power", "1", "--fanout", "1e-300",
              "--neurons", "1e-300", "--esyn", "1e300"], "1e+300 Hz")):
        assert main(["brain-budget"] + args) == 0
        assert capsys.readouterr().out.strip() == answer


def test_brain_budget_requires_one_unknown():
    assert main(["brain-budget", "--rate", "?", "--fanout", "?",
                 "--power", "10"]) == 2
    assert main(["brain-budget", "--power", "10"]) == 2


# --- a closed stdout --------------------------------------------------------------------

@pytest.mark.parametrize("argv", [
    ["mem-sim", "--stream", "8x8"],
    ["run", "--net", "{net}", "--input", "synth:ar1,t=3,n=6", "--report", "{dir}/r.json"],
])
def test_a_closed_stdout_ends_quietly_with_exit_141(tmp_path, gru_net, argv):
    # `| head -c1` ended in a BrokenPipeError traceback with exit 1; here
    # the reader is gone before the command starts, so every write fails
    import subprocess
    import sys
    argv = [a.format(net=gru_net, dir=tmp_path) for a in argv]
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
    read, write = os.pipe()
    os.close(read)
    try:
        proc = subprocess.run([sys.executable, "-m", "sparsebench.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE, env=env, timeout=60)
    finally:
        os.close(write)
    assert proc.returncode == 141
    assert proc.stderr == b""


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
