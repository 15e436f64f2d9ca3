"""Access-trace building, layer views, and CSV round-tripping."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _synthcases import trace_of
from sparsebench.memmodel import MemConfig, cost_trace
from sparsebench.trace import (COLUMNS, INT64_MAX, AccessTrace, trace_from_csv,
                               triple_code)

WEIGHTS = triple_code("DRAM", "read", "weights")


def _one_run(region, kind, tag, address, nwords=1):
    return trace_of([(region, kind, tag, address, nwords)])


def _two_runs(region, kind, tag, address, nwords=1):
    return trace_of([(region, kind, tag, 5, 1), (region, kind, tag, address, nwords)])


def test_event_field_validation():
    for build in (_one_run, _two_runs):
        with pytest.raises(ValueError, match="region"):
            build("L2", "read", "weights", 0)
        with pytest.raises(ValueError, match="kind"):
            build("DRAM", "fetch", "weights", 0)
        with pytest.raises(ValueError, match="tag"):
            build("DRAM", "read", "gradients", 0)
        with pytest.raises(ValueError, match="address"):
            build("DRAM", "read", "weights", -1)
        with pytest.raises(ValueError, match="run length"):
            build("DRAM", "read", "weights", 0, -2)
        with pytest.raises(ValueError, match="int64"):
            build("DRAM", "read", "weights", INT64_MAX - 1, 2)
        with pytest.raises(ValueError, match="int64"):
            build("DRAM", "read", "weights", 10**20)
        # a run may end (exclusive) at the largest int64
        assert build("DRAM", "read", "weights", INT64_MAX - 2, 2).runs()[-1][4] == INT64_MAX - 2


def test_from_columns_rejects_unequal_columns():
    # a one-entry run length column was broadcast to every address
    with pytest.raises(ValueError, match="run length column"):
        AccessTrace.from_columns(0, 0, np.array([1, 2, 3]), np.array([5]))
    # with a key, a short column was an IndexError
    key = np.arange(3)
    with pytest.raises(ValueError, match="triple column"):
        AccessTrace.from_columns(np.zeros(2, np.int64), 0, np.arange(3), np.ones(3), key)
    with pytest.raises(ValueError, match="run length column"):
        AccessTrace.from_columns(0, 0, np.arange(3), np.ones(2, np.int64), key)
    with pytest.raises(ValueError, match="layer column"):
        AccessTrace.from_columns(0, np.zeros(4, np.int64), np.arange(3), np.ones(3))
    with pytest.raises(ValueError, match="key column"):
        AccessTrace.from_columns(0, 0, np.arange(3), np.ones(3), key[:2])
    with pytest.raises(ValueError, match="run length column"):
        AccessTrace.from_columns(0, 0, np.arange(3), 1)
    with pytest.raises(ValueError, match="1-D"):
        AccessTrace.from_columns(0, 0, np.zeros((2, 2), np.int64), np.ones((2, 2)))


def test_from_columns_skips_empty_runs():
    assert len(_one_run("DRAM", "read", "weights", 0, 0)) == 0
    t = _two_runs("DRAM", "read", "weights", 0, 0)
    assert [r[4:] for r in t.runs()] == [(5, 1)]
    t = trace_of([("DRAM", "read", "weights", 0, 0), ("DRAM", "read", "weights", 0, 3)])
    assert len(t) == 1 and t.runs()[0][5] == 3


@given(st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, 40)), max_size=20),
       st.integers(0, 3))
def test_concat_of_one_run_traces_equals_one_from_columns_call(runs, layer):
    triple = triple_code("SRAM", "write", "state")
    address = np.array([a for a, _ in runs], dtype=np.int64)
    nwords = np.array([n for _, n in runs], dtype=np.int64)
    one = AccessTrace.from_columns(triple, layer, address, nwords)
    many = AccessTrace.concat(AccessTrace.from_columns(triple, layer, [a], [n])
                              for a, n in runs)
    assert np.array_equal(one.table, many.table)
    assert one.table.dtype == np.int64 and one.table.shape[1] == len(COLUMNS)
    assert [r[4:] for r in one.runs()] == [(a, n) for a, n in runs if n]
    assert all(r[:4] == ("SRAM", "write", "state", layer) for r in one.runs())


def test_from_columns_shares_a_scalar_triple_and_layer():
    t = AccessTrace.concat([
        AccessTrace.from_columns(WEIGHTS, 0, [7], [1]),
        AccessTrace.from_columns(WEIGHTS, 2, np.array([100, 112]), np.array([4, 4])),
        AccessTrace.from_columns(WEIGHTS, 2, np.array([], dtype=np.int64),
                                 np.array([], dtype=np.int64))])
    assert [r[3:] for r in t.runs()] == [(0, 7, 1), (2, 100, 4), (2, 112, 4)]


def _sample_trace():
    return trace_of([("DRAM", "read", "weights", 0, 4),
                     ("DRAM", "write", "activations", 100, 2),
                     ("SRAM", "read", "activations", 8, 3),
                     ("SRAM", "write", "state", 50, 1)])


def test_word_count_sums_every_run():
    t = _sample_trace()
    assert t.word_count() == 10
    assert AccessTrace.concat([]).word_count() == 0


def test_words_by_tag():
    cost = cost_trace(_sample_trace(), MemConfig())
    assert (cost.dram_words, cost.sram_words) == (6, 4)
    assert cost.dram_words_by_tag == {"weights": 4, "activations": 2, "state": 0}
    assert cost.sram_words_by_tag == {"weights": 0, "activations": 3, "state": 1}


def test_csv_expands_runs():
    t = _one_run("DRAM", "read", "weights", 5, 3)
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


def run_lists(min_nwords=1):
    """Lists of (region, kind, tag, address, nwords) runs."""
    return st.lists(st.tuples(
        st.sampled_from(("DRAM", "SRAM")),
        st.sampled_from(("read", "write")),
        st.sampled_from(("weights", "activations", "state")),
        st.integers(0, 5000),
        st.integers(min_nwords, 20)), max_size=12)


@given(run_lists())
def test_csv_roundtrip_preserves_word_sequence(runs):
    t = trace_of(runs)
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
    rows = ((0, 7), (1, 40), (0, 9), (2, 3), (1, 41))
    t = trace_of([("DRAM", "read", "weights", address, 2) for _, address in rows],
                 layer=[layer for layer, _ in rows])
    views = [t.select_layer(l) for l in range(3)]
    assert [[r[4] for r in v.runs()] for v in views] == [[7, 9], [40, 41], [3]]
    assert sum(len(v) for v in views) == len(t)
    assert sum(v.word_count() for v in views) == t.word_count() == 10
    assert len(t.select_layer(3)) == 0


@given(st.lists(st.tuples(run_lists(min_nwords=0), st.integers(0, 3)), max_size=5))
def test_concat_keeps_order_and_layers(parts):
    traces = [trace_of(runs, layer) for runs, layer in parts]
    before = [t.runs() for t in traces]
    joined = AccessTrace.concat(traces)
    assert [t.runs() for t in traces] == before
    assert joined.runs() == [r for t in traces for r in t.runs()]
    assert joined.runs() == [(*run[:3], layer, *run[3:])
                             for runs, layer in parts for run in runs if run[4]]
    assert [len(t) for t in traces] == [sum(1 for r in runs if r[4]) for runs, _ in parts]
