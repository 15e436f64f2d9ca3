"""Open-row DRAM cost model, energy accounting, and the power-budget solver."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import trace_of
from sparsebench.errors import Underdetermined
from sparsebench.memmodel import (
    MemConfig,
    cost_trace,
    effective_gops,
    energy_breakdown,
    gops_per_watt,
    random_vs_burst_ratio,
    schedule_dense_weight_stream,
    solve_budget,
)
from sparsebench.trace import TAGS, AccessTrace, triple_code

CFG = MemConfig()


def test_config_defaults_and_validation():
    assert CFG.words_per_row == 1024
    assert CFG.row_change_factor == 50
    with pytest.raises(ValueError):
        MemConfig(words_per_row=0)
    with pytest.raises(ValueError):
        MemConfig(row_change_factor=0)
    with pytest.raises(ValueError):
        MemConfig(e_dram_word=-1.0)


# --- open-row walk ---------------------------------------------------------------

def test_sequential_burst_costs_one_activation():
    rep = cost_trace(trace_of([("DRAM", "read", "weights", 0, 64)]), CFG)
    assert rep.row_activations == 1
    assert rep.cycles == 64 + 50 == 114
    assert rep.dram_words == 64


def test_scattered_words_cost_one_activation_each():
    t = trace_of([("DRAM", "read", "activations", i * CFG.words_per_row, 1)
                  for i in range(64)])
    rep = cost_trace(t, CFG)
    assert rep.row_activations == 64
    assert rep.cycles == 64 + 64 * 50 == 3264


def test_full_weight_matrix_stream():
    t = schedule_dense_weight_stream((768, 768))
    rep = cost_trace(t, CFG)
    assert rep.dram_words == 589824
    assert rep.row_activations == 576
    assert rep.cycles == 589824 + 576 * 50 == 618624


def test_empty_stream_is_free():
    rep = cost_trace(schedule_dense_weight_stream(()), CFG)
    assert (rep.cycles, rep.dram_words, rep.energy_pj) == (0, 0, 0.0)


def test_run_crossing_a_row_boundary():
    rep = cost_trace(trace_of([("DRAM", "read", "weights", CFG.words_per_row - 4, 8)]), CFG)
    assert rep.row_activations == 2  # initial open plus one crossing


def test_open_row_persists_between_events():
    t = trace_of([
        ("DRAM", "read", "weights", 0, 4),
        ("DRAM", "read", "weights", 4, 4),            # same row, still open
        ("DRAM", "read", "activations", CFG.words_per_row, 1),
        ("DRAM", "read", "weights", 8, 1)])           # back: row 0 re-opened
    rep = cost_trace(t, CFG)
    assert rep.row_activations == 3


def test_sram_costs_energy_but_no_cycles():
    rep = cost_trace(trace_of([("SRAM", "read", "activations", 0, 10)]), CFG)
    assert rep.cycles == 0
    assert rep.sram_words == 10
    assert rep.energy_pj == 10 * CFG.e_sram_word


def test_by_tag_breakdown():
    t = trace_of([("DRAM", "read", "weights", 0, 5),
                  ("DRAM", "write", "activations", 5, 2),
                  ("SRAM", "read", "state", 0, 3)])
    rep = cost_trace(t, CFG)
    assert rep.dram_words_by_tag["weights"] == 5
    assert rep.dram_words_by_tag["activations"] == 2
    assert rep.sram_words_by_tag["state"] == 3


@st.composite
def dram_runs(draw):
    n = draw(st.integers(1, 10))
    return [
        (draw(st.integers(0, 4096)), draw(st.integers(1, 40))) for _ in range(n)
    ]


@given(dram_runs())
def test_cost_is_invariant_to_run_chunking(runs):
    bulk = trace_of([("DRAM", "read", "weights", addr, n) for addr, n in runs])
    single = trace_of([("DRAM", "read", "weights", addr + off, 1)
                       for addr, n in runs for off in range(n)])
    small = MemConfig(words_per_row=16)
    a, b = cost_trace(bulk, small), cost_trace(single, small)
    assert (a.cycles, a.row_activations, a.dram_words, a.energy_pj) == (
        b.cycles, b.row_activations, b.dram_words, b.energy_pj)


@given(dram_runs(), dram_runs())
def test_concatenation_additivity(runs_a, runs_b):
    ta, tb, tab = (trace_of([("DRAM", "read", "weights", addr, n) for addr, n in runs])
                   for runs in (runs_a, runs_b, runs_a + runs_b))
    small = MemConfig(words_per_row=16)
    a, b, ab = cost_trace(ta, small), cost_trace(tb, small), cost_trace(tab, small)
    assert ab.dram_words == a.dram_words + b.dram_words
    # joining can only save the one activation B pays on a cold row
    assert a.row_activations + b.row_activations - ab.row_activations in (0, 1)


def _per_word_walk(runs, cfg):
    """Reference: expand (region, tag, address, nwords) runs to words and
    walk them with one open row."""
    open_row, acts = None, 0
    by_tag = {region: dict.fromkeys(TAGS, 0) for region in ("DRAM", "SRAM")}
    for region, tag, address, nwords in runs:
        for word in range(address, address + nwords):
            by_tag[region][tag] += 1
            if region == "DRAM" and word // cfg.words_per_row != open_row:
                open_row = word // cfg.words_per_row
                acts += 1
    dram, sram = (sum(words.values()) for words in by_tag.values())
    return (acts, dram, sram,
            dram * cfg.cycles_seq_word + acts * cfg.row_change_factor * cfg.cycles_seq_word,
            by_tag["DRAM"], by_tag["SRAM"])


@st.composite
def layered_runs(draw):
    n = draw(st.integers(0, 30))
    return [(draw(st.integers(0, 3)), draw(st.sampled_from(("DRAM", "SRAM"))),
             draw(st.sampled_from(("read", "write"))), draw(st.sampled_from(TAGS)),
             draw(st.integers(0, 200)), draw(st.integers(0, 40))) for _ in range(n)]


@given(layered_runs(), st.sampled_from((4, 16, 64)))
def test_total_and_each_layer_match_a_per_word_walk(runs, wpr):
    cfg = MemConfig(words_per_row=wpr)
    t = trace_of([r[1:] for r in runs], layer=[r[0] for r in runs])
    rep = cost_trace(t, cfg)

    def key(r):
        return (r.row_activations, r.dram_words, r.sram_words, r.cycles,
                r.dram_words_by_tag, r.sram_words_by_tag)

    def walk(layer_runs):  # the walk ignores the kind: it costs nothing
        return _per_word_walk([(r[1], *r[3:]) for r in layer_runs], cfg)

    assert key(rep) == walk(runs)
    assert len(rep.layers) == (max((r[0] for r in runs if r[5]), default=-1) + 1)
    for l, layer_rep in enumerate(rep.layers):
        assert key(layer_rep) == walk([r for r in runs if r[0] == l])
        assert layer_rep.layers == []
    assert sum(r.dram_words for r in rep.layers) == rep.dram_words


def _single_reads(addresses) -> AccessTrace:
    """One-word DRAM activation reads at each address, in order."""
    return AccessTrace.from_columns(triple_code("DRAM", "read", "activations"), 0,
                                    addresses, np.ones(len(addresses), np.int64))


def test_sorted_order_minimizes_cost_exhaustively():
    cfg = MemConfig(words_per_row=4)
    addresses = [13, 2, 7, 2, 9, 5]
    def cost(order):
        return cost_trace(_single_reads(order), cfg).cycles
    best = cost(sorted(addresses))
    assert all(cost(p) >= best for p in itertools.permutations(addresses))


# --- scattered-vs-burst ratio ------------------------------------------------------

def test_ratio_reference_values():
    assert random_vs_burst_ratio(1, CFG) == pytest.approx(1.0)
    assert random_vs_burst_ratio(10**4, CFG) == pytest.approx(50.746, abs=1e-3)
    assert random_vs_burst_ratio(10**7, CFG) == pytest.approx(51.0, abs=1e-3)
    assert random_vs_burst_ratio(10**5, MemConfig(row_change_factor=1)) == (
        pytest.approx(2.0, abs=1e-4))
    with pytest.raises(ValueError):
        random_vs_burst_ratio(0, CFG)


@given(st.integers(1, 10**6), st.integers(1, 200))
def test_ratio_bounded_by_asymmetry_factor(n, f):
    cfg = MemConfig(row_change_factor=f)
    r = random_vs_burst_ratio(n, cfg)
    assert 1.0 <= r <= 1 + f
    if n > 1:
        assert r > random_vs_burst_ratio(n - 1, cfg)  # monotone in n


@given(st.integers(1, 10**4))
def test_ratio_matches_explicit_cost_model(n):
    scattered = _single_reads(np.arange(n) * CFG.words_per_row)
    burst = trace_of([("DRAM", "read", "activations", 0, n)])
    got = random_vs_burst_ratio(n, CFG)
    # the analytic burst baseline charges exactly one activation; the
    # walked trace agrees as long as the run stays inside one row
    if n <= CFG.words_per_row:
        want = cost_trace(scattered, CFG).cycles / cost_trace(burst, CFG).cycles
        assert got == pytest.approx(want)


# --- energy and figures of merit ----------------------------------------------------

def test_energy_breakdown_arithmetic():
    e = energy_breakdown(macs=1000, dram_words=10, sram_words=100, cfg=CFG)
    assert e == {
        "mac_pj": 1000.0,
        "dram_pj": 1000.0,
        "sram_pj": 500.0,
        "total_pj": 2500.0,
    }


def test_effective_gops_and_per_watt():
    # 2e9 dense-equivalent Op in 1e9 cycles at 1 GHz is one second: 2 GOp/s
    assert effective_gops(2 * 10**9, 10**9, CFG) == pytest.approx(2.0)
    assert effective_gops(100, 0, CFG) == 0.0
    # 1e9 Op over 1e12 pJ (1 J) is 1 GOp/J, i.e. 1 GOp/s/W
    assert gops_per_watt(10**9, 1e12) == pytest.approx(1.0)
    assert gops_per_watt(100, 0.0) == 0.0


# --- event-driven power budget -------------------------------------------------------

def test_brain_budget_reference():
    assert solve_budget(rate_hz=1.0, fanout=1e4, neurons=1e10,
                        energy_per_syn_j=100e-15) == pytest.approx(10.0)


def test_solver_recovers_each_factor():
    assert solve_budget(10.0, fanout=1e4, neurons=1e10, energy_per_syn_j=100e-15) == (
        pytest.approx(1.0, rel=1e-12))
    assert solve_budget(10.0, rate_hz=1.0, neurons=1e10, energy_per_syn_j=100e-15) == (
        pytest.approx(1e4, rel=1e-12))
    assert solve_budget(10.0, rate_hz=1.0, fanout=1e4, energy_per_syn_j=100e-15) == (
        pytest.approx(1e10, rel=1e-12))
    assert solve_budget(10.0, rate_hz=1.0, fanout=1e4, neurons=1e10) == (
        pytest.approx(100e-15, rel=1e-12))


def test_solver_requires_exactly_one_unknown():
    with pytest.raises(Underdetermined):
        solve_budget(10.0, rate_hz=1.0, fanout=1e4, neurons=1e10,
                  energy_per_syn_j=100e-15)
    with pytest.raises(Underdetermined):
        solve_budget(10.0, rate_hz=1.0, fanout=1e4)


def test_budget_rejects_nonpositive_inputs():
    with pytest.raises(ValueError):
        solve_budget(rate_hz=0.0, fanout=1e4, neurons=1e10, energy_per_syn_j=100e-15)
    with pytest.raises(ValueError):
        solve_budget(-1.0, rate_hz=1.0, fanout=1e4, neurons=1e10)
    with pytest.raises(ValueError):
        solve_budget(10.0, rate_hz=-1.0, fanout=1e4, neurons=1e10)


@given(st.lists(st.floats(2.0**-240, 2.0**240), min_size=5, max_size=5),
       st.sampled_from(("rate_hz", "fanout", "neurons", "energy_per_syn_j")))
def test_budget_is_bit_identical_to_the_left_to_right_product(values, unknown):
    # every partial product stays within 2**+-960, in the normal range,
    # where scaling the factors by powers of two changes no rounding
    power, rate, fanout, neurons, esyn = values
    assert solve_budget(rate_hz=rate, fanout=fanout, neurons=neurons,
                        energy_per_syn_j=esyn) == rate * fanout * neurons * esyn
    factors = {"rate_hz": rate, "fanout": fanout, "neurons": neurons,
               "energy_per_syn_j": esyn}
    factors[unknown] = None
    known = [v for v in factors.values() if v is not None]
    assert solve_budget(power, **factors) == power / (known[0] * known[1] * known[2])


@given(
    st.floats(0.1, 100), st.floats(1, 1e6), st.floats(1, 1e12),
    st.floats(1e-15, 1e-9),
)
def test_budget_solver_roundtrip(rate, fanout, neurons, esyn):
    p = solve_budget(rate_hz=rate, fanout=fanout, neurons=neurons,
                     energy_per_syn_j=esyn)
    assert solve_budget(p, fanout=fanout, neurons=neurons, energy_per_syn_j=esyn) == (
        pytest.approx(rate, rel=1e-12))
