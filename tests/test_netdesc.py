"""Network description parsing and tensor/bias resolution."""

import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebench.errors import MalformedStream, MissingArtifact, ShapeMismatch
from sparsebench.fxp import Q8_8, QFormat, QTensor, save_qt
from sparsebench.memmodel import MemConfig
from sparsebench.netdesc import (
    integer,
    load_mem_config,
    load_network,
    number,
    parse_uri,
)

CONV_BLOCK = """
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

GRU_BLOCK = """
[gru]
input = 6
hidden = 8
theta = 0.25
files = synth:uniform,amp=0.1,seed=4
"""


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_parse_uri_types_options():
    kind, f = parse_uri("synth:map, c = 2 ,sparsity=0.8,label=x")
    assert kind == "map"
    assert f.pairs == {"c": "2", "sparsity": "0.8", "label": "x"}
    c = f.int("c")
    assert c == 2 and isinstance(c, int)
    assert f.float("sparsity") == 0.8 and f.read("label", str) == "x"
    f.done()
    kind, f = parse_uri("synth:map,c=2.0,amp=1_0")
    with pytest.raises(MalformedStream, match=r"^synth:map,c=2\.0,amp=1_0: c = '2\.0': not an integer$"):
        f.int("c")
    with pytest.raises(MalformedStream, match=r"^synth:map,c=2\.0,amp=1_0: amp = '1_0': unknown key$"):
        f.done()
    with pytest.raises(MalformedStream, match=r"^synth:: not a synth:"):
        parse_uri("synth:")
    with pytest.raises(MalformedStream, match=r"^synth:map,notanoption: bad or repeated option 'notanoption'$"):
        parse_uri("synth:map,notanoption")
    with pytest.raises(MalformedStream, match=r"^synth:map,c=1,c=2: bad or repeated option 'c=2'$"):
        parse_uri("synth:map,c=1,c=2")


def test_conv_network_loads(tmp_path):
    desc = load_network(_write(tmp_path, "cnn.net", "name = demo\n" + CONV_BLOCK))
    assert desc.name == "demo"
    assert desc.kind == "conv"
    layer = desc.conv_layers[0]
    assert (layer.in_channels, layer.out_channels) == (2, 3)
    assert layer.pool == "max2x2" and layer.relu
    assert layer.weights.dims == (3, 2, 3, 3)
    assert desc.mem == MemConfig()


def test_name_defaults_to_file_stem(tmp_path):
    desc = load_network(_write(tmp_path, "tiny.net", CONV_BLOCK))
    assert desc.name == "tiny"


def test_gru_network_loads_with_generated_weights(tmp_path):
    desc = load_network(_write(tmp_path, "rnn.net", GRU_BLOCK))
    assert desc.kind == "gru"
    spec = desc.gru_layers[0]
    assert (spec.input_size, spec.hidden_size) == (6, 8)
    assert spec.theta == 64  # 0.25 in Q8.8
    assert spec.w_hc.dims == (8, 8)
    # generation is deterministic: same file loads identical weights
    again = load_network(_write(tmp_path, "rnn2.net", GRU_BLOCK))
    assert again.gru_layers[0].w_xr == spec.w_xr


def test_mem_section_overrides(tmp_path):
    text = "[mem]\nrow_change_factor = 10\nclock_hz = 2e9\n" + CONV_BLOCK
    desc = load_network(_write(tmp_path, "m.net", text))
    assert desc.mem != MemConfig()
    assert desc.mem.row_change_factor == 10
    assert desc.mem.clock_hz == 2e9
    assert desc.mem.words_per_row == 1024  # untouched default


def test_parse_mem_config_rejects_unknown_key(tmp_path):
    path = _write(tmp_path, "u.cfg", "latency = 3\n")
    with pytest.raises(MalformedStream, match=re.escape(f"{path}: latency = '3': unknown key")):
        load_mem_config(path)


def test_mem_config_file_bare_and_sectioned(tmp_path):
    bare = _write(tmp_path, "a.cfg", "words_per_row = 256\n")
    assert load_mem_config(bare).words_per_row == 256
    sect = _write(tmp_path, "b.cfg", "[mem]\ne_dram_word = 42\n")
    assert load_mem_config(sect).e_dram_word == 42.0
    with pytest.raises(MalformedStream, match="unexpected section"):
        load_mem_config(_write(tmp_path, "c.cfg", "[conv]\nk = 3\n"))
    with pytest.raises(MissingArtifact):
        load_mem_config(str(tmp_path / "nope.cfg"))


def test_weight_files_resolve_relative_to_description(tmp_path):
    sub = tmp_path / "nets"
    sub.mkdir()
    w = QTensor.zeros((1, 1, 1, 1), QFormat(2, 14))
    save_qt(w, str(sub / "w.qt"))
    text = """
[conv]
in_c = 1
out_c = 1
k = 1
weights = w.qt
bias = zero
"""
    desc = load_network(_write(sub, "n.net", text))
    assert desc.conv_layers[0].weights == w


def test_qt_weight_validation(tmp_path):
    save_qt(QTensor.zeros((2, 1, 1, 1), QFormat(2, 14)), str(tmp_path / "bad.qt"))
    text = CONV_BLOCK.replace("synth:uniform,amp=0.2,seed=3", "bad.qt")
    with pytest.raises(ShapeMismatch, match="dims"):
        load_network(_write(tmp_path, "n.net", text))
    with pytest.raises(MissingArtifact, match="not found"):
        load_network(_write(tmp_path, "n2.net", CONV_BLOCK.replace(
            "synth:uniform,amp=0.2,seed=3", "ghost.qt")))


def test_bias_lifts_to_accumulator_scale(tmp_path):
    # Q8.8 bias of 1.0 (raw 256) lifted to a 22-bit accumulator scale
    save_qt(QTensor((1,), Q8_8, np.array([256], dtype=np.int16)),
            str(tmp_path / "b.qt"))
    text = """
[conv]
in_c = 1
out_c = 1
k = 1
weights = synth:uniform,seed=1
bias = b.qt
"""
    desc = load_network(_write(tmp_path, "n.net", text))
    assert desc.conv_layers[0].bias[0] == 256 << 14


_WIDE_BIAS_NET = """
[conv]
in_c = 1
out_c = 2
k = 1
act_fmt = Q1.15
w_fmt = Q1.15
weights = synth:uniform,seed=1
bias = b.qt
"""


@pytest.mark.parametrize("raw,lifted", [([-2, 1], [-(1 << 31), 1 << 30]),
                                        ([2, 32767], None), ([1, -3], None)])
def test_bias_lifted_past_int32_is_refused(tmp_path, raw, lifted):
    # a Q16.0 bias lifted to 2**30 wrapped: [2, 32767] loaded as
    # [-2147483648, -1073741824]; -2 lifts to INT32_MIN, the last value that fits
    save_qt(QTensor((2,), QFormat(16, 0), np.array(raw, dtype=np.int16)),
            str(tmp_path / "b.qt"))
    net = _write(tmp_path, "n.net", _WIDE_BIAS_NET)
    if lifted is not None:
        assert load_network(net).conv_layers[0].bias.tolist() == lifted
        return
    past = next(v << 30 for v in raw if not -(1 << 31) <= v << 30 < 1 << 31)
    with pytest.raises(MalformedStream) as err:
        load_network(net)
    assert str(err.value) == (f"{net}: conv layer 0: bias = 'b.qt': bias at accumulator "
                              f"scale 2**30: {past} is past the int32 range")


def test_parser_errors(tmp_path):
    with pytest.raises(MalformedStream, match="duplicate key"):
        load_network(_write(tmp_path, "d.net", CONV_BLOCK + "\n[conv]\nk = 3\nk = 5\n"))
    with pytest.raises(MalformedStream, match="expected key = value"):
        load_network(_write(tmp_path, "e.net", "[conv]\njust words\n"))
    path = _write(tmp_path, "f.net", "[conv]\nin_c = 1\n")
    with pytest.raises(MalformedStream, match=re.escape(f"{path}: conv layer 0: missing key 'out_c'")):
        load_network(path)
    with pytest.raises(MalformedStream, match="unknown section"):
        load_network(_write(tmp_path, "g.net", "[pool]\nsize = 2\n" + CONV_BLOCK))
    with pytest.raises(MalformedStream, match="no layers"):
        load_network(_write(tmp_path, "h.net", "name = empty\n"))
    path = _write(tmp_path, "i.net", CONV_BLOCK.replace("relu = true", "relu = maybe"))
    with pytest.raises(MalformedStream,
                       match=re.escape(f"{path}: conv layer 0: relu = 'maybe': expected a boolean")):
        load_network(path)
    with pytest.raises(MissingArtifact):
        load_network(str(tmp_path / "missing.net"))


def test_mixed_and_broken_chains_rejected(tmp_path):
    with pytest.raises(ShapeMismatch, match="all-conv or all-gru"):
        load_network(_write(tmp_path, "mix.net", CONV_BLOCK + GRU_BLOCK))
    two = CONV_BLOCK + CONV_BLOCK.replace("in_c = 2", "in_c = 5")
    with pytest.raises(ShapeMismatch, match="chain breaks"):
        load_network(_write(tmp_path, "chain.net", two))
    gru2 = GRU_BLOCK + GRU_BLOCK.replace("input = 6", "input = 9")
    with pytest.raises(ShapeMismatch, match="chain breaks"):
        load_network(_write(tmp_path, "gchain.net", gru2))


def test_comments_and_blank_lines_ignored(tmp_path):
    text = "# a demo\n\nname = c  # trailing comment\n" + CONV_BLOCK
    assert load_network(_write(tmp_path, "c.net", text)).name == "c"


# The number grammar, written out again as the reference: no "_", no
# leading "+", no whitespace, ASCII digits only.
_REF_INT = re.compile(r"-?[0-9]+")
_REF_FLOAT = re.compile(r"-?([0-9]+(\.[0-9]*)?|\.[0-9]+)([eE][-+]?[0-9]+)?|-?inf|-?nan")


@settings(deadline=None, max_examples=400)
@given(st.text(alphabet="0123456789-+._eE \u0661", max_size=8)
       | st.sampled_from(["inf", "-inf", "nan", "-nan", "1e+5", "+inf", "Inf", "1_000"]))
def test_number_grammar_matches_the_reference(text):
    for parse, ref, convert in ((integer, _REF_INT, int), (number, _REF_FLOAT, float)):
        if ref.fullmatch(text):
            value = parse(text)
            assert type(value) is convert and repr(value) == repr(convert(text))
        else:
            with pytest.raises(ValueError):
                parse(text)


def test_readme_net_example_loads(tmp_path):
    # the README's .net example, so the documented format cannot drift
    # from the reader
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme[readme.index("**`.net`**"):]
    block = block[block.index("```ini\n") + len("```ini\n"):]
    desc = load_network(_write(tmp_path, "demo.net", block[:block.index("```")]))
    assert (desc.name, desc.kind, len(desc.conv_layers)) == ("demo-cnn", "conv", 1)
    layer = desc.conv_layers[0]
    assert (layer.in_channels, layer.out_channels, layer.stride, layer.pad) == (32, 16, 1, 1)
    assert layer.pool == "max2x2" and layer.relu
    assert desc.mem.row_change_factor == 50


def test_repeated_mem_sources_are_rejected(tmp_path):
    # a second [mem] block dropped the first whole (row_change_factor came
    # back as 50), and a config file's [mem] key overrode the same bare key
    two = _write(tmp_path, "two.net", "[mem]\nrow_change_factor = 10\n[mem]\nclock_hz = 2e9\n"
                 + CONV_BLOCK)
    with pytest.raises(MalformedStream, match=re.escape(f"{two}:3: repeated section [mem]")):
        load_network(two)
    both = _write(tmp_path, "both.cfg", "row_change_factor = 10\n[mem]\nrow_change_factor = 20\n")
    with pytest.raises(MalformedStream,
                       match=re.escape(f"{both}: row_change_factor is set both at top level")):
        load_mem_config(both)
    twice = _write(tmp_path, "twice.cfg", "[mem]\nwords_per_row = 8\n[mem]\ne_mac = 2\n")
    with pytest.raises(MalformedStream, match=re.escape(f"{twice}:3: repeated section [mem]")):
        load_mem_config(twice)
    # distinct bare and [mem] keys still combine
    mixed = load_mem_config(_write(tmp_path, "m.cfg", "words_per_row = 8\n[mem]\ne_mac = 2\n"))
    assert (mixed.words_per_row, mixed.e_mac) == (8, 2.0)


def test_gru_files_takes_only_a_generator(tmp_path):
    # "files = <prefix>" loaded <prefix>wxr.qt and so on; it was never
    # documented and is gone
    path = _write(tmp_path, "p.net", GRU_BLOCK.replace("synth:uniform,amp=0.1,seed=4", "layer0_"))
    with pytest.raises(MalformedStream,
                       match=re.escape(f"{path}: gru layer 0: files = 'layer0_': ")):
        load_network(path)
    both = _write(tmp_path, "b.net", GRU_BLOCK + "wxr = w.qt\n")
    with pytest.raises(MalformedStream,
                       match=re.escape(f"{both}: gru layer 0: wxr = 'w.qt': unknown key")):
        load_network(both)
