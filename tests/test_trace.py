"""Access-trace recording, layer views, and CSV round-tripping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsebench.memmodel import MemConfig, cost_trace
from sparsebench.trace import COLUMNS, INT64_MAX, AccessTrace, trace_from_csv


def _add_one(region, kind, tag, address, nwords=1):
    t = AccessTrace()
    t.add(region, kind, tag, address, nwords)
    return t


def _add_array(region, kind, tag, address, nwords=1):
    t = AccessTrace()
    t.add(region, kind, tag, np.array([5, address]), np.array([1, nwords]))
    return t


def test_event_field_validation():
    for add in (_add_one, _add_array):
        with pytest.raises(ValueError, match="region"):
            add("L2", "read", "weights", 0)
        with pytest.raises(ValueError, match="kind"):
            add("DRAM", "fetch", "weights", 0)
        with pytest.raises(ValueError, match="tag"):
            add("DRAM", "read", "gradients", 0)
        with pytest.raises(ValueError, match="address"):
            add("DRAM", "read", "weights", -1)
        with pytest.raises(ValueError, match="run length"):
            add("DRAM", "read", "weights", 0, -2)
        with pytest.raises(ValueError, match="int64"):
            add("DRAM", "read", "weights", INT64_MAX - 1, 2)
        # a run may end (exclusive) at the largest int64
        assert add("DRAM", "read", "weights", INT64_MAX - 2, 2).runs()[-1][4] == INT64_MAX - 2


def test_add_rejects_unequal_arrays_and_huge_ints():
    t = AccessTrace()
    with pytest.raises(ValueError, match="run lengths"):
        t.add("DRAM", "read", "weights", np.array([1, 2]), np.array([1]))
    with pytest.raises(ValueError, match="int64"):
        t.add("DRAM", "read", "weights", 10**20)
    assert len(t) == 0


def test_add_skips_empty_runs():
    t = AccessTrace()
    t.add("DRAM", "read", "weights", 0, 0)
    assert len(t) == 0
    t.add("DRAM", "read", "weights", 0, 3)
    assert len(t) == 1 and t.runs()[0][5] == 3


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 40)), max_size=20),
       st.integers(0, 3))
def test_array_add_equals_one_add_per_run(runs, layer):
    one, many = AccessTrace(), AccessTrace()
    one.layer = many.layer = layer
    address = np.array([a for a, _ in runs], dtype=np.int64)
    nwords = np.array([n for _, n in runs], dtype=np.int64)
    one.add("SRAM", "write", "state", address, nwords)
    for a, n in runs:
        many.add("SRAM", "write", "state", a, n)
    assert np.array_equal(one.table, many.table)
    assert one.table.dtype == np.int64 and one.table.shape[1] == len(COLUMNS)
    assert [r[4:] for r in one.runs()] == [(a, n) for a, n in runs if n]
    assert all(r[:4] == ("SRAM", "write", "state", layer) for r in one.runs())


def test_array_add_with_a_scalar_run_length():
    t = AccessTrace()
    t.add("DRAM", "read", "weights", 7)
    t.add("DRAM", "read", "weights", np.array([100, 112]), 4)
    t.add("DRAM", "read", "weights", np.array([], dtype=np.int64), 4)
    assert [r[4:] for r in t.runs()] == [(7, 1), (100, 4), (112, 4)]


def _sample_trace():
    t = AccessTrace()
    t.add("DRAM", "read", "weights", 0, 4)
    t.add("DRAM", "write", "activations", 100, 2)
    t.add("SRAM", "read", "activations", 8, 3)
    t.add("SRAM", "write", "state", 50)
    return t


def test_word_count_sums_every_run():
    t = _sample_trace()
    assert t.word_count() == 10
    assert AccessTrace().word_count() == 0


def test_words_by_tag():
    cost = cost_trace(_sample_trace(), MemConfig())
    assert (cost.dram_words, cost.sram_words) == (6, 4)
    assert cost.dram_words_by_tag == {"weights": 4, "activations": 2, "state": 0}
    assert cost.sram_words_by_tag == {"weights": 0, "activations": 3, "state": 1}


def test_csv_expands_runs():
    t = AccessTrace()
    t.add("DRAM", "read", "weights", 5, 3)
    assert t.to_csv() == (
        "region,address,kind,tag\n"
        "DRAM,5,read,weights\n"
        "DRAM,6,read,weights\n"
        "DRAM,7,read,weights\n"
    )


def _word_list(t: AccessTrace) -> list[tuple]:
    out = []
    for region, kind, tag, _, address, nwords in t.runs():
        for off in range(nwords):
            out.append((region, address + off, kind, tag))
    return out


@st.composite
def traces(draw):
    t = AccessTrace()
    for _ in range(draw(st.integers(0, 12))):
        t.add(
            draw(st.sampled_from(("DRAM", "SRAM"))),
            draw(st.sampled_from(("read", "write"))),
            draw(st.sampled_from(("weights", "activations", "state"))),
            draw(st.integers(0, 5000)),
            draw(st.integers(1, 20)),
        )
    return t


@given(traces())
def test_csv_roundtrip_preserves_word_sequence(t):
    back = trace_from_csv(t.to_csv())
    assert _word_list(back) == _word_list(t)


def test_csv_file_roundtrip(tmp_path):
    t = _sample_trace()
    path = str(tmp_path / "trace.csv")
    t.write_csv(path)
    with open(path) as fh:
        back = trace_from_csv(fh.read())
    assert _word_list(back) == _word_list(t)


def test_csv_parse_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        trace_from_csv("address,region\n1,DRAM\n")
    with pytest.raises(ValueError, match="row"):
        trace_from_csv("region,address,kind,tag\nDRAM,1,read\n")
    with pytest.raises(ValueError, match="region"):
        trace_from_csv("region,address,kind,tag\nCACHE,1,read,weights\n")
    with pytest.raises(ValueError, match="address"):
        trace_from_csv("region,address,kind,tag\nDRAM,-1,read,weights\n")
    with pytest.raises(ValueError, match="int64"):
        trace_from_csv("region,address,kind,tag\nDRAM,99999999999999999999,read,weights\n")


def test_layer_views_partition_the_trace():
    t = AccessTrace()
    for layer, address in ((0, 7), (1, 40), (0, 9), (2, 3), (1, 41)):
        t.layer = layer
        t.add("DRAM", "read", "weights", address, 2)
    views = [t.select_layer(l) for l in range(3)]
    assert [[r[4] for r in v.runs()] for v in views] == [[7, 9], [40, 41], [3]]
    assert sum(len(v) for v in views) == len(t)
    assert sum(v.word_count() for v in views) == t.word_count() == 10
    assert len(t.select_layer(3)) == 0


def test_extend_concatenates_in_order():
    a, b = AccessTrace(), AccessTrace()
    a.add("DRAM", "read", "weights", 0)
    b.add("SRAM", "write", "state", 9)
    b.add("DRAM", "read", "weights", 4, 2)
    a.layer = 1
    a.extend(b)
    a.add("SRAM", "read", "activations", 3)
    assert [(r[0], r[3]) for r in a.runs()] == [
        ("DRAM", 0), ("SRAM", 1), ("DRAM", 1), ("SRAM", 1)]
    assert len(b) == 2 and b.runs()[0][3] == 0
