"""Access-trace building, layer views, and CSV round-tripping."""

import re

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from _synthcases import trace_of
from sparsebench.memmodel import MemConfig, cost_trace
from sparsebench.trace import (COLUMNS, INT64_MAX, AccessTrace, _canonical_columns,
                               _ordered_columns, trace_from_csv, triple_code)

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


def test_from_columns_rejects_a_code_or_layer_out_of_range():
    # code -1 was stored as SRAM/write/state, code 12 was an IndexError and
    # layer -3 was taken, until cost_trace indexed with it
    for triple, layer, column in ((-1, 0, "triple"), (12, 0, "triple"), (0, -3, "layer")):
        with pytest.raises(ValueError, match=f"{column} column"):
            AccessTrace.from_columns(triple, layer, [5], [2])
        with pytest.raises(ValueError, match=f"{column} column"):
            AccessTrace.from_columns([WEIGHTS, triple], [0, layer], [5, 9], [2, 1])
    # the last code is the last triple, region-major
    assert AccessTrace.from_columns(11, 0, [5], [2]).runs() == [("SRAM", "write", "state", 0, 5, 2)]


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
    # no two runs can merge, so the parse gives back the same table
    assert np.array_equal(back.table, t.table)


HEADER = "region,address,kind,tag\n"


def test_csv_parse_rejects_garbage():
    for text, message in (
            ("address,region\n1,DRAM\n", "expected header 'region,address,kind,tag'"),
            (HEADER + "DRAM,1,read\n", "bad trace row 'DRAM,1,read'"),
            (HEADER + "CACHE,1,read,weights\n", "unknown region 'CACHE'"),
            (HEADER + "DRAM,1,fetch,weights\n", "unknown access kind 'fetch'"),
            (HEADER + "DRAM,1,read,gradients\n", "unknown tag 'gradients'"),
            (HEADER + "DRAM,-1,read,weights\n", "negative address -1"),
            (HEADER + "DRAM,99999999999999999999,read,weights\n",
             "address run end (address + nwords) does not fit int64"),
            (HEADER + "DRAM,9999999999999999999,read,weights\n",
             "address run end (address + nwords) does not fit int64"),
            # was "invalid literal for int() with base 10: 'abc'", no row named
            (HEADER + "DRAM,abc,read,weights\n", "bad trace row 'DRAM,abc,read,weights'"),
            # a merge whose subtraction wrapped would fold the second word into
            # the first one's run and report the run end instead
            (HEADER + f"DRAM,{INT64_MAX},read,weights\nDRAM,{-INT64_MAX - 1},read,weights\n",
             f"negative address {-INT64_MAX - 1}")):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            trace_from_csv(text)


@pytest.mark.parametrize("text, row", [
    # each once parsed as a valid row: a sign int() takes, a digit separator
    # (address 10), an Arabic-Indic seven (address 7), and a vertical tab
    # that str.splitlines took for a line break
    (HEADER + "DRAM,+5,read,weights\n", "DRAM,+5,read,weights"),
    (HEADER + "DRAM,1_0,read,weights\n", "DRAM,1_0,read,weights"),
    (HEADER + "DRAM,\u0667,read,weights\n", "DRAM,\u0667,read,weights"),
    (HEADER + "DRAM,7,read,weights\vDRAM,8,read,weights\n",
     "DRAM,7,read,weights\vDRAM,8,read,weights"),
], ids=["plus-sign", "digit-separator", "non-ascii-digit", "vertical-tab"])
def test_csv_parse_rejects_loose_spellings(text, row):
    with pytest.raises(ValueError, match=f"^{re.escape(f'bad trace row {row!r}')}$"):
        trace_from_csv(text)


def _csv(words, line="{},{},{},{}\n"):
    return HEADER + "".join(line.format(r, a, k, t) for r, a, k, t in words)


def _one_word_runs(triple, address):
    """Per-word columns as a trace of one-word runs."""
    return AccessTrace.from_columns(triple, 0, address, np.ones_like(address))


def test_parse_merges_adjacent_words_into_runs():
    words = [("DRAM", a, "read", "weights") for a in (5, 6, 7, 9, 9, 8, 10)]
    words += [("SRAM", 11, "read", "weights"), ("SRAM", 12, "write", "weights"),
              ("SRAM", 13, "write", "weights")]
    t = trace_from_csv(_csv(words))
    assert [(r[0], r[1], r[4], r[5]) for r in t.runs()] == [
        ("DRAM", "read", 5, 3), ("DRAM", "read", 9, 1), ("DRAM", "read", 9, 1),
        ("DRAM", "read", 8, 1), ("DRAM", "read", 10, 1), ("SRAM", "read", 11, 1),
        ("SRAM", "write", 12, 2)]
    assert _canonical_columns(_csv(words)) is not None
    # the ordered loop merges the same way
    messy = _csv(words, " {} , {} ,{},{}\r\n")
    assert _canonical_columns(messy) is None
    assert np.array_equal(trace_from_csv(messy).table, t.table)


# The texts the whole-column parse must take, and only those.
CANONICAL = re.compile(r"region,address,kind,tag\n"
                       r"((DRAM|SRAM),[0-9]{1,18},(read|write),(weights|activations|state)\n)*"
                       r"((DRAM|SRAM),[0-9]{1,18},(read|write),(weights|activations|state))?")

LINE_STYLES = (
    "{},{},{},{}\n",
    "{},00{},{},{}\n",
    " {} ,\t{} , {},{} \n",
    "{},{},{},{}\r\n",
    "\n  \n{},{},{},{}\n",
)


def word_runs(top):
    """Runs of words, their addresses near 0 or just below ``top``."""
    return st.lists(st.tuples(
        st.sampled_from(("DRAM", "SRAM")),
        st.sampled_from(("read", "write")),
        st.sampled_from(("weights", "activations", "state")),
        st.integers(0, 64) | st.integers(top - 64, top - 4),
        st.integers(1, 4)), max_size=10)


@given(st.booleans(), st.data())
def test_column_parse_and_ordered_loop_agree(messy, data):
    # messy texts mix in non-canonical lines and 19-digit addresses
    runs = data.draw(word_runs(INT64_MAX if messy else 10**18))
    words = [(r, a + i, k, t) for r, k, t, a, n in runs for i in range(n)]
    styles = st.sampled_from(LINE_STYLES if messy else LINE_STYLES[:1])
    lines = data.draw(st.lists(styles, min_size=len(words), max_size=len(words)))
    text = HEADER + "".join(s.format(*w) for s, w in zip(lines, words))
    if data.draw(st.booleans()):
        text = text[:-1]  # no final newline
    fast, ordered = _canonical_columns(text), _ordered_columns(text)
    assert (fast is not None) == bool(CANONICAL.fullmatch(text))
    if fast is not None:
        assert all(np.array_equal(f, o) and f.dtype == o.dtype for f, o in zip(fast, ordered))
    t = trace_from_csv(text)
    assert _word_list(t) == words
    merged = []  # each word extends the run before it when it can
    for r, a, k, g in words:
        if merged and merged[-1][:3] == [r, k, g] and sum(merged[-1][4:]) == a:
            merged[-1][5] += 1
        else:
            merged.append([r, k, g, 0, a, 1])
    assert t.runs() == [tuple(run) for run in merged]
    cfg = MemConfig(words_per_row=16)
    assert cost_trace(t, cfg) == cost_trace(_one_word_runs(*ordered), cfg)


def test_leading_zeros_up_to_18_digits_stay_on_the_column_parse():
    for digits, canonical in ((18, True), (19, False)):
        text = _csv([("SRAM", "7".zfill(digits), "write", "state"),
                     ("SRAM", "8".zfill(digits), "write", "state")])
        assert (_canonical_columns(text) is not None) == canonical
        assert trace_from_csv(text).runs() == [("SRAM", "write", "state", 0, 7, 2)]


def test_non_canonical_texts_take_the_ordered_loop():
    line = "DRAM,7,read,weights"
    for text in (
            HEADER + line + "\n\n",                   # a blank line after the last newline
            HEADER + "\n" + line + "\n",
            HEADER.replace("\n", "\r\n") + line + "\n",
            HEADER + line + "\x00\n",                 # NUL bytes
            HEADER + "\x00" + line + "\n",
            HEADER + line + "\n\x00",
            HEADER + "DRAM,\u0667,read,weights\n",      # a non-ASCII digit int() reads as 7
            HEADER + "DRAM,1_0,read,weights\n",
            HEADER + "DRAM,,read,weights\n",
            HEADER + "DRAM,7,read,weights,\n",
            HEADER + "DRAM,7,read\n" + line + ",weights\n",
            HEADER + "dram,7,read,weights\n",
            HEADER + "DRAM,7,reads,weights\n",
            HEADER + "DRAM,7,read,Weights\n",
            HEADER + "DRAM,7,read,activationz\n",      # differs in the suffix's third word
            HEADER + "DRAM,7,read,weights,\nDRAM,7,read\n",
            HEADER + "DRAM,7,read,weights\v\n",
            " " + HEADER + line + "\n"):
        assert _canonical_columns(text) is None, text
        try:
            expected = _word_list(_one_word_runs(*_ordered_columns(text)))
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                trace_from_csv(text)
        else:
            assert _word_list(trace_from_csv(text)) == expected


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
