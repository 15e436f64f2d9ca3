"""Delta-gated GRU: lookup tables, event accounting, dense equivalence."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import gru_spec
from sparsebench.errors import EquivalenceFailure, MalformedStream, ShapeMismatch
from sparsebench import fxp, gru
from sparsebench.fxp import (INT32_MAX, INT32_MIN, Q8_8, OpCounter, QTensor,
                             sat_columns, sat_matvec)
from sparsebench.gru import (
    ACT_IN_MAX,
    ACT_IN_MIN,
    SIGMOID_LUT,
    SIGMOID_TABLE,
    TANH_LUT,
    TANH_TABLE,
    GateStack,
    LayerState,
    act_lookup,
    delta_mxv_accumulate,
    layer_bias_words,
    run_layer,
    run_sequence,
)
from sparsebench.synth import ar1_seq, make_rng, piecewise_constant_seq, uniform_seq


def _vec(vals):
    return QTensor((len(vals),), Q8_8, np.array(vals, dtype=np.int16))


def _half_even(v: int, shift: int) -> int:
    """v / 2**shift in Python ints, rounded to nearest, ties to even."""
    if shift == 0:
        return v
    q, r = divmod(v, 1 << shift)
    half = 1 << (shift - 1)
    return q + (r > half or (r == half and q % 2 == 1))


def _interpolated(x_raw: int, knots) -> int:
    """The lookup formula for one clamped Q8.8 argument: linear between
    the knots around it, rounded ties-to-even."""
    off = x_raw - ACT_IN_MIN
    idx, frac = off // 4, off % 4
    return _half_even(int(knots[idx]) * (4 - frac) + int(knots[idx + 1]) * frac, 8)


# --- activation tables ------------------------------------------------------------

def test_tables_have_expected_shape_and_symmetry():
    assert SIGMOID_TABLE.shape == TANH_TABLE.shape == (1025,)
    # sigmoid(-x) = 1 - sigmoid(x); tanh is odd; rounding is symmetric
    assert np.all(SIGMOID_TABLE + SIGMOID_TABLE[::-1] == 1 << 14)
    assert np.array_equal(TANH_TABLE, -TANH_TABLE[::-1])
    assert np.all(np.diff(SIGMOID_TABLE.astype(np.int32)) >= 0)
    assert np.all(np.diff(TANH_TABLE.astype(np.int32)) >= 0)


def test_output_tables_equal_the_interpolation_formula():
    # every clamped Q8.8 argument, against the per-argument formula
    assert SIGMOID_LUT.shape == TANH_LUT.shape == (ACT_IN_MAX - ACT_IN_MIN + 1,)
    for lut, knots in ((SIGMOID_LUT, SIGMOID_TABLE), (TANH_LUT, TANH_TABLE)):
        want = [_interpolated(x, knots) for x in range(ACT_IN_MIN, ACT_IN_MAX + 1)]
        assert lut.tolist() == want


@given(st.integers(-(1 << 31), (1 << 31) - 1), st.sampled_from((16, 22)))
def test_lookup_renormalizes_clamps_and_interpolates(acc, acc_frac):
    x_raw = min(max(_half_even(acc, acc_frac - 8), ACT_IN_MIN), ACT_IN_MAX)
    for lut, knots in ((SIGMOID_LUT, SIGMOID_TABLE), (TANH_LUT, TANH_TABLE)):
        got = act_lookup(np.array([acc], dtype=np.int64), acc_frac, lut)
        assert got.dtype == np.int16 and int(got[0]) == _interpolated(x_raw, knots)


def test_lookup_reference_points():
    zero = np.zeros(1, dtype=np.int64)
    assert act_lookup(zero, 22, SIGMOID_LUT)[0] == 128  # 0.5 in Q8.8
    assert act_lookup(zero, 22, TANH_LUT)[0] == 0
    big = np.array([1 << 40], dtype=np.int64)
    assert act_lookup(big, 22, SIGMOID_LUT)[0] == 256  # saturated domain
    assert act_lookup(-big, 22, SIGMOID_LUT)[0] == 0
    assert act_lookup(big, 22, TANH_LUT)[0] == 256
    assert act_lookup(-big, 22, TANH_LUT)[0] == -256


@given(st.integers(-(1 << 30), 1 << 30), st.sampled_from((16, 22)))
def test_lookup_tracks_float_reference(acc, acc_frac):
    x = max(-8.0, min(8.0, acc / (1 << acc_frac)))
    sig = act_lookup(np.array([acc], dtype=np.int64), acc_frac, SIGMOID_LUT)[0]
    tan = act_lookup(np.array([acc], dtype=np.int64), acc_frac, TANH_LUT)[0]
    assert abs(sig / 256 - 1 / (1 + np.exp(-x))) <= 1.5 / 256
    assert abs(tan / 256 - np.tanh(x)) <= 1.5 / 256


@given(st.integers(-(1 << 25), 1 << 25))
def test_lookup_is_monotone(acc):
    a = np.array([acc, acc + 1], dtype=np.int64)
    for lut in (SIGMOID_LUT, TANH_LUT):
        lo, hi = act_lookup(a, 16, lut)
        assert lo <= hi


# --- event-driven matrix accumulation ------------------------------------------------

def _events(idx, vals):
    return np.array(idx, dtype=np.int64), np.array(vals, dtype=np.int32)


def test_delta_mxv_adds_scaled_columns():
    rng = make_rng(0)
    spec = gru_spec(rng, 3, 4)
    acc = np.zeros(4, dtype=np.int64)
    assert delta_mxv_accumulate(GateStack.of([spec.w_xr]), *_events([1], [10]), acc) == 0
    assert np.array_equal(acc, spec.w_xr.data[:, 1].astype(np.int64) * 10)
    # a stack updates each block's rows with its own matrix
    stacked = np.zeros(8, dtype=np.int64)
    delta_mxv_accumulate(GateStack.of([spec.w_xc, spec.w_xr]), *_events([1], [10]),
                         stacked)
    assert np.array_equal(stacked, np.concatenate([spec.w_xc.data[:, 1],
                                                   spec.w_xr.data[:, 1]]) * 10)


def _weight_reads_by_step(trace):
    """A one-layer trace's DRAM weight reads, (address, nwords), split
    into the bias preload and then one list per step (each step ends
    with its SRAM state write)."""
    runs = trace.runs()
    steps, cur = [], []
    for region, kind, tag, _, address, nwords in runs[1:]:
        if region == "DRAM":
            cur.append((address, nwords))
        elif (kind, tag) == ("write", "state"):
            steps.append(cur)
            cur = []
    return (runs[0][4], runs[0][5]), steps


def _words(rows):
    """The word addresses of (address, nwords) rows, in order."""
    return [a for address, nwords in rows for a in range(address, address + nwords)]


def test_delta_weight_words_are_one_column_burst_per_event_and_block():
    # each event reads one h-word column burst of each stacked matrix:
    # every event of block 0, then of block 1 one matrix on, then block 2.
    # The trace holds one row per run of adjacent event columns in a
    # step and block; its per-word list is that of one burst per event.
    rng = make_rng(1)
    specs = [gru_spec(rng, 5, 4), gru_spec(rng, 4, 3)]
    x = np.zeros(5, dtype=np.int16)
    x[[0, 3]] = [7, -2]
    xs = QTensor((2, 5), Q8_8, np.stack([x, x]))
    run = run_sequence(specs, xs, "sparse")
    first = run_sequence(specs[:1], xs, "sparse").outputs
    layer0, layer1 = run.layer_traces
    preload, steps = _weight_reads_by_step(layer0)
    assert preload == (specs[0].weight_words, layer_bias_words(specs[0]))
    assert _words(steps[0]) == _words(
        [(0, 4), (12, 4), (20, 4), (32, 4), (40, 4), (52, 4)])
    # an unchanged input fetches nothing on the input side; the hidden
    # side of [W_hr; W_hu; W_hc] starts after the three 4x5 input matrices
    h_idx = np.flatnonzero(first.data[0])
    assert _words(steps[1]) == _words(
        [(60 + (m * 4 + j) * 4, 4) for m in range(3) for j in h_idx])
    # the four hidden events are adjacent: one 4*4-word row per block
    assert h_idx.tolist() == [0, 1, 2, 3]
    assert steps[1] == [(60 + m * 16, 16) for m in range(3)]
    # the next layer's weights start after this layer's weights and biases
    base = specs[0].weight_words + layer_bias_words(specs[0])
    preload, steps = _weight_reads_by_step(layer1)
    assert preload == (base + specs[1].weight_words, layer_bias_words(specs[1]))
    assert _words(steps[0]) == _words(
        [(base + (m * 4 + j) * 3, 3) for m in range(3) for j in h_idx])


def _theta0_weight_words(specs, xs):
    """Per layer and step, the DRAM weight words a theta-0 sparse run
    reads after its bias preload, from the GateStack layout: column j of
    block m of a side is the h words from (m * n + j) * h past the side's
    base. At theta 0 an input event at step t is a component that differs
    from step t-1, and a hidden event one whose output at t-1 differs from
    that at t-2; values before step 0 are 0. Outputs come from the dense
    engine."""
    words, base, ins = [], 0, xs.data
    for l, spec in enumerate(specs):
        i, h = spec.input_size, spec.hidden_size
        outs = run_sequence(specs[:l + 1], xs, "dense").outputs.data
        before = np.vstack([np.zeros((1, i), np.int16), ins])  # row t: input at t-1
        hist = np.vstack([np.zeros((2, h), np.int16), outs])  # row t: output at t-2
        sides = ((base, i), (base + 3 * h * i, h))
        layer = []
        for t in range(len(ins)):
            events = (np.flatnonzero(ins[t] != before[t]),
                      np.flatnonzero(hist[t + 1] != hist[t]))
            layer.append([w for (side, n), idx in zip(sides, events) for m in range(3)
                          for j in idx.tolist()
                          for w in range(side + (m * n + j) * h, side + (m * n + j + 1) * h)])
        words.append(layer)
        base += spec.weight_words + layer_bias_words(spec)
        ins = outs
    return words


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.integers(1, 3), st.integers(1, 10),
       st.floats(0.0, 0.9))
def test_theta0_weight_rows_are_maximal_column_runs_of_the_event_words(seed, layers,
                                                                      steps, keep):
    rng = make_rng(seed)
    sizes = rng.integers(1, 7, size=layers + 1).tolist()
    specs = [gru_spec(rng, a, b) for a, b in zip(sizes, sizes[1:])]
    data = rng.integers(-300, 301, size=(steps, sizes[0])).astype(np.int16)
    for t in range(1, steps):  # each component keeps its value with probability `keep`
        held = rng.random(sizes[0]) < keep
        data[t, held] = data[t - 1, held]
    xs = QTensor((steps, sizes[0]), Q8_8, data)
    run = run_sequence(specs, xs, "sparse")
    want = _theta0_weight_words(specs, xs)
    base = 0
    for spec, trace, layer_words in zip(specs, run.layer_traces, want):
        i, h = spec.input_size, spec.hidden_size
        h_base = base + 3 * h * i

        def block(word):  # (side, gate block) of a weight word
            if word < h_base:
                return 0, (word - base) // (h * i)
            return 1, (word - h_base) // (h * h)

        _, rows = _weight_reads_by_step(trace)
        assert [_words(r) for r in rows] == layer_words
        for step_rows in rows:
            for address, nwords in step_rows:
                assert block(address) == block(address + nwords - 1)
            for (a, n), (b, _) in zip(step_rows, step_rows[1:]):
                assert a + n != b or block(a) != block(b)
        base += spec.weight_words + layer_bias_words(spec)


def _matvec_reference(acc, w2d, xvec):
    """Independent per-column saturating accumulation."""
    out = acc.astype(np.int64).copy()
    for i in range(w2d.shape[1]):
        if xvec[i] == 0:
            continue
        out = np.clip(out + w2d[:, i].astype(np.int64) * int(xvec[i]),
                      -(1 << 31), (1 << 31) - 1)
    return out.astype(np.int32)


def _exact_bound(acc, w, x):
    """The largest ``|acc| + |w| @ |x|`` over the rows, in Python ints."""
    return max(abs(int(a)) + sum(abs(int(v)) * abs(int(e)) for v, e in zip(row, x))
               for a, row in zip(acc, w))


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_guarded_matvec_matches_column_loop(seed, stress):
    # the ordered route always, and the product when the exact bound
    # holds, so that a caller may prove it
    rng = make_rng(seed)
    h, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    scale = 32767 if stress else 500
    w = rng.integers(-scale, scale + 1, size=(h, n)).astype(np.int16)
    x = rng.integers(-scale, scale + 1, size=n).astype(np.int16)
    acc0 = rng.integers(-(1 << 30), 1 << 30, size=h).astype(np.int32)
    want = _matvec_reference(acc0, w, x)
    for proven in {False, _exact_bound(acc0, w, x) <= INT32_MAX}:
        got = acc0.copy()
        clips = sat_matvec(got, w.astype(np.float64), x, proven)
        assert np.array_equal(got, want)
        ordered = acc0.copy()
        assert sat_columns(ordered, w, x) == clips
        assert np.array_equal(ordered, want)


def test_guarded_matvec_saturating_prefix():
    # first column clips the accumulator; the algebraic total is back in
    # range, but the bound fails, so only the ordered route may run
    w = np.array([[32767, -32767]], dtype=np.int16)
    x = np.array([32767, 32767], dtype=np.int16)
    acc = np.array([INT32_MAX - 5], dtype=np.int32)
    want = _matvec_reference(acc, w, x)
    assert _exact_bound(acc, w, x) > INT32_MAX
    assert sat_matvec(acc, w.astype(np.float64), x, False) == 1
    assert np.array_equal(acc, want)


def _random_spec(rng, i, h):
    """A layer of full-scale random int16 weights and zero biases."""
    mats = [QTensor(d, Q8_8, rng.integers(-32768, 32768, size=d).astype(np.int16))
            for d in [(h, i)] * 3 + [(h, h)] * 3]
    zero = np.zeros(h, np.int32)
    return gru.GruLayerSpec(i, h, *mats, zero, zero, zero, theta=0)


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, None)))
def test_float_bound_takes_the_fast_path_exactly_when_it_holds(seed, over):
    # full-scale weights and factor bounds up to 2**16, past any int16
    # magnitude. `over` puts one accumulator row's exact bound at
    # INT32_MAX (0) or one past it (1). The float64 bound of the GRU
    # layer proof passes exactly when the bound in Python ints holds.
    rng = make_rng(seed)
    i, h = int(rng.integers(1, 5)), int(rng.integers(1, 4))
    spec = _random_spec(rng, i, h)
    div = int(rng.choice((1, 64, 1 << 12)))  # makes a passing bound reachable
    p_x = rng.integers(0, 65537, size=i) // div
    p_h = rng.integers(0, 65537, size=h) // div
    terms = [0] * (4 * h)
    for r, (wx, wh) in enumerate(zip(spec.x_side.cols.T, spec.h_side.cols.T)):
        terms[r] += sum(abs(int(v)) * int(p) for v, p in zip(wx, p_x))       # rows [xc, r, u]
        terms[h + r] += sum(abs(int(v)) * int(p) for v, p in zip(wh, p_h))   # rows [r, u, hc]
    acc = rng.integers(-(1 << 20), 1 << 20, size=4 * h)
    row = int(rng.integers(4 * h))
    if over is not None and terms[row] <= INT32_MAX:
        acc[row] = (INT32_MAX - terms[row] + over) * int(rng.choice((-1, 1)))
    exact = max(abs(int(a)) + t for a, t in zip(acc, terms))
    assert gru._bound_holds(spec, acc, p_x, p_h) == (exact <= INT32_MAX)


def test_float_bound_edge_cases():
    # |w| @ |x| = INT32_MAX - 32768: from |acc| = 32768 the bound is
    # INT32_MAX, and the proven product lands on it exactly; one more and
    # the bound fails, so only the ordered route may run, clipping or not
    # by the accumulator's sign
    w = np.array([[32767], [-32767]], dtype=np.int16)
    x = np.array([65537], dtype=np.int64)
    for acc0, proven, clips in (([32768, -32768], True, 0),
                                ([32768, -32768], False, 0),
                                ([32769, 0], False, 1),
                                ([-32769, 0], False, 0)):
        assert (_exact_bound(acc0, w, x) <= INT32_MAX) == (acc0[0] == 32768)
        acc = np.array(acc0, dtype=np.int64)
        with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
            assert sat_matvec(acc, w.astype(np.float64), x, proven) == clips
        assert ordered.called == (not proven)
        assert np.array_equal(acc, _matvec_reference(np.array(acc0), w, x))


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_delta_mxv_matches_per_event_reference(seed, full_scale):
    # unproven, the ordered per-event loop runs and must clip exactly as
    # the reference, which full-scale weights and 17-bit deltas make it
    # do; proven where the exact bound holds, the product must agree
    rng = make_rng(seed)
    h, n, blocks = int(rng.integers(1, 10)), int(rng.integers(1, 12)), int(rng.integers(1, 4))
    scale = 32767 if full_scale else 300
    mats = [QTensor((h, n), Q8_8,
                    rng.integers(-scale, scale + 1, size=(h, n)).astype(np.int16))
            for _ in range(blocks)]
    w = np.concatenate([m.data for m in mats])
    idx = np.flatnonzero(rng.random(n) < 0.6).astype(np.int64)
    vals = rng.integers(1, 2 * scale + 2, size=idx.size) * rng.choice((-1, 1), size=idx.size)
    vals = vals.astype(np.int32)
    acc0 = rng.integers(-(1 << 31), 1 << 31, size=blocks * h).astype(np.int64)
    if not full_scale:
        acc0 >>= 8
    want = acc0.copy()
    want_sats = 0
    for i, v in zip(idx.tolist(), vals.tolist()):
        wide = want + w[:, i].astype(np.int64) * v
        want = np.clip(wide, INT32_MIN, INT32_MAX)
        want_sats += int(np.count_nonzero(want != wide))
    got = acc0.copy()
    clips = delta_mxv_accumulate(GateStack.of(mats), idx, vals, got)
    assert np.array_equal(got, want)
    assert clips == want_sats
    if _exact_bound(acc0, w[:, idx], vals) <= INT32_MAX:
        got = acc0.copy()
        assert delta_mxv_accumulate(GateStack.of(mats), idx, vals, got, True) == 0
        assert np.array_equal(got, want)


def test_fast_path_taken_at_bench_scale(monkeypatch):
    # the bench's GRU layer shape and input scale never reach the ordered
    # fallback, so every gate-stack step is one matvec; the delta engine
    # proves each layer once, so its products are all proven
    def refuse(*args):
        raise AssertionError("ordered fallback ran")

    rng = make_rng(16)
    specs = [gru_spec(rng, 32, 128), gru_spec(rng, 128, 128)]
    xs = ar1_seq(20, 32, 0.99, rng)
    monkeypatch.setattr(fxp, "sat_columns", refuse)
    monkeypatch.setattr(gru, "sat_columns", refuse)
    run, proofs, calls = _proofs_and_routes(specs, xs)
    assert proofs == [True, True]
    assert len(calls) == np.count_nonzero(run.x_events) + np.count_nonzero(run.h_events)
    assert all(proven for _, proven, _ in calls)
    assert run.outputs == run_sequence(specs, xs, "dense").outputs
    assert run.counters.saturations == 0


def _clamped_add(acc, term):
    """acc += term in place, clamped to int32; returns the clips."""
    wide = acc + term
    acc[...] = np.clip(wide, INT32_MIN, INT32_MAX)
    return int(np.count_nonzero(acc != wide))


def _ordered_columns(acc, w, events):
    """acc += w[:, j] * v for (j, v) in order, clamping after each; clips."""
    return sum(_clamped_add(acc, w[:, j].astype(np.int64) * v) for j, v in events)


def _act(acc, acc_frac, knots):
    return np.array([_interpolated(min(max(_half_even(int(a), acc_frac - 8), ACT_IN_MIN),
                                       ACT_IN_MAX), knots) for a in acc], dtype=np.int64)


def _threshold(mem, cur, theta):
    """(index, change) for each component whose change since ``mem``
    strictly exceeds ``theta``; advances those memories in place."""
    events = [(j, int(c) - int(m)) for j, (m, c) in enumerate(zip(mem, cur))
              if abs(int(c) - int(m)) > theta]
    for j, _ in events:
        mem[j] = cur[j]
    return events


def _reference_gates(s, a_xc, a_r, a_u, a_hc, h_prev):
    """The gate tail in Python ints on the four int64 accumulators of one
    step: the new hidden state and the candidate sum's clips."""
    r = _act(a_r, s.acc_frac, SIGMOID_TABLE)
    u = _act(a_u, s.acc_frac, SIGMOID_TABLE)
    c_acc = a_xc.copy()
    clips = _clamped_add(c_acc, [_half_even(int(v), 8) for v in r * a_hc])
    c = _act(c_acc, s.acc_frac, TANH_TABLE)
    mix = (256 - u) * c + u * h_prev.astype(np.int64)
    return np.array([_half_even(int(v), 8) for v in mix], dtype=np.int16), clips


def _reference_gru(specs, xs, mode):
    """Per-gate GRU in Python: six matrices, four int64 accumulators and
    ordered column steps; in sparse mode the accumulators persist and
    take only threshold-crossing deltas. Every step runs the gates.
    Returns (outputs, clips, x_events, h_events, acc_clips): the events
    as (layers, steps) counts of components sent on, and per layer the
    clips of the accumulators alone, without the candidate sums'."""
    clips = 0
    acc_clips = np.zeros(len(specs), np.int64)
    x_events = np.zeros((len(specs), len(xs.data)), np.int64)
    h_events = np.zeros_like(x_events)
    layers = []
    for s in specs:
        b = [s.b_r.astype(np.int64), s.b_u.astype(np.int64), s.b_c.astype(np.int64),
             np.zeros(s.hidden_size, dtype=np.int64)]
        layers.append({"acc": b, "x_mem": np.zeros(s.input_size, np.int16),
                       "h_mem": np.zeros(s.hidden_size, np.int16),
                       "h": np.zeros(s.hidden_size, np.int16)})
    outs = []
    for t, x in enumerate(xs.data):
        cur = QTensor(x.shape, Q8_8, x)
        for l, (s, st_) in enumerate(zip(specs, layers)):
            h_prev = st_["h"]
            if mode == "dense":
                a_r, a_u, a_xc = s.b_r.astype(np.int64), s.b_u.astype(np.int64), s.b_c.astype(np.int64)
                a_hc = np.zeros(s.hidden_size, dtype=np.int64)
                x_ev = list(enumerate(cur.data.tolist()))
                h_ev = list(enumerate(h_prev.tolist()))
            else:
                a_r, a_u, a_xc, a_hc = st_["acc"]
                x_ev = _threshold(st_["x_mem"], cur.data, s.theta)
                h_ev = _threshold(st_["h_mem"], h_prev, s.theta)
            x_events[l, t], h_events[l, t] = len(x_ev), len(h_ev)
            for acc, w in ((a_r, s.w_xr), (a_u, s.w_xu), (a_xc, s.w_xc)):
                acc_clips[l] += _ordered_columns(acc, w.data, x_ev)
            for acc, w in ((a_r, s.w_hr), (a_u, s.w_hu), (a_hc, s.w_hc)):
                acc_clips[l] += _ordered_columns(acc, w.data, h_ev)
            st_["h"], step_clips = _reference_gates(s, a_xc, a_r, a_u, a_hc, h_prev)
            clips += step_clips
            cur = QTensor((s.hidden_size,), Q8_8, st_["h"].copy())
        outs.append(cur.data)
    outputs = QTensor((len(outs), specs[-1].hidden_size), Q8_8, np.stack(outs))
    return outputs, clips + int(acc_clips.sum()), x_events, h_events, acc_clips


def _edge_biases(spec, rng):
    """The spec with every bias within 16 (in value units) of the int32 edge."""
    h = spec.hidden_size

    def edge():
        return (rng.choice((-1, 1), size=h)
                * (INT32_MAX - rng.integers(0, 16 << spec.acc_frac, size=h))).astype(np.int32)

    return replace(spec, b_r=edge(), b_u=edge(), b_c=edge())


@settings(deadline=None, max_examples=8)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05)))
def test_saturating_two_layer_gru_matches_per_gate_reference(seed, theta):
    # near-full-scale weights, large inputs and biases at the int32 edge
    # clip in both layers, in the gate products and in the candidate sum
    rng = make_rng(seed)
    specs = [_edge_biases(gru_spec(rng, 6, 8, theta=theta, w_amp=1.9), rng),
             _edge_biases(gru_spec(rng, 8, 5, theta=theta, w_amp=1.9), rng)]
    xs = uniform_seq(10, 6, rng, amp=100.0)
    for mode in ("sparse", "dense"):
        want, want_clips, *_ = _reference_gru(specs, xs, mode)
        run = run_sequence(specs, xs, mode)
        assert run.outputs == want
        assert run.counters.saturations == want_clips > 0


def _margin_biases(spec, rng):
    """The spec with every bias 2**23 to 2**24 below the int32 edge in
    magnitude: a few small terms fit under it, one large term does not."""
    h = spec.hidden_size

    def near():
        return (rng.choice((-1, 1), size=h)
                * (INT32_MAX - rng.integers(1 << 23, 1 << 24, size=h))).astype(np.int32)

    return replace(spec, b_r=near(), b_u=near(), b_c=near())


@settings(deadline=None, max_examples=8)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05)))
def test_a_failing_layer_proof_orders_even_its_small_steps(seed, theta):
    # a quiet step, a step of small changes (20 raw, above theta) and then
    # large inputs: a bound on the early steps alone would hold, but the
    # first layer's proof covers its whole run and fails, so every one of
    # its products takes the ordered steps, and both modes must agree
    # with the per-gate reference
    rng = make_rng(seed)
    specs = [_margin_biases(gru_spec(rng, 6, 8, theta=theta, w_amp=1.9), rng),
             _margin_biases(gru_spec(rng, 8, 5, theta=theta, w_amp=1.9), rng)]
    small = (rng.choice((-1, 1), size=6) * 20).astype(np.int16)
    xs = QTensor((10, 6), Q8_8, np.vstack([np.zeros(6, np.int16), small,
                                           uniform_seq(8, 6, rng, amp=100.0).data]))
    for mode in ("sparse", "dense"):
        want, want_clips, *_ = _reference_gru(specs, xs, mode)
        if mode == "sparse":
            with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
                run, proofs, calls = _proofs_and_routes(specs, xs)
            products = [l for l, _, _ in calls if not proofs[l]]
            assert 0 in products and ordered.call_count == len(products)
        else:
            run, proofs, ordered_calls = _dense_routes(specs, xs)
            assert ordered_calls == sum(1 + len(xs.data) for ok in proofs if not ok)
        assert proofs[0] is False
        assert run.outputs == want
        assert run.counters.saturations == want_clips


def _skips_like_the_reference(specs, xs):
    """Both modes against the per-gate reference, which runs the gates
    on every step: outputs, clips and per-step events; dense mode skips
    nothing. Returns the sparse run's skipped steps, summed."""
    runs = {}
    for mode in ("sparse", "dense"):
        want, want_clips, want_x, want_h, _ = _reference_gru(specs, xs, mode)
        runs[mode] = run = run_sequence(specs, xs, mode)
        assert run.outputs == want
        assert run.counters.saturations == want_clips
        assert np.array_equal(run.x_events, want_x)
        assert np.array_equal(run.h_events, want_h)
    assert runs["dense"].steps_skipped == [0] * len(specs)
    return sum(runs["sparse"].steps_skipped)


def test_quiet_steps_repeat_a_saturated_fixed_point():
    # hold inputs into saturating two-layer nets: the gates settle on
    # fixed points whose candidate sum clips, and the delta engine skips
    # the quiet steps there, which must add the same clips as a computed
    # step; some generated case must skip a step
    skipped = []

    @settings(deadline=None, max_examples=10)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05)),
           st.sampled_from((_edge_biases, _margin_biases)), st.integers(1, 6),
           st.sampled_from((1.0, 100.0)))
    def case(seed, theta, biases, hold, amp):
        rng = make_rng(seed)
        specs = [biases(gru_spec(rng, 6, 8, theta=theta, w_amp=1.9), rng),
                 biases(gru_spec(rng, 8, 5, theta=theta, w_amp=1.9), rng)]
        skipped.append(_skips_like_the_reference(
            specs, piecewise_constant_seq(16, 6, hold, rng, amp=amp)))

    case()
    assert max(skipped) > 0


@settings(deadline=None, max_examples=10)
@given(st.integers(0, 2**32 - 1))
def test_quiet_steps_off_a_fixed_point_run_the_gates(seed):
    # at theta 0.1 an unsaturated net's outputs drift by less than theta
    # for steps after each change of the held input: those steps send no
    # event, but their gates do not return their own input, so they must
    # be computed, also after an earlier step sat at a fixed point
    rng = make_rng(seed)
    specs = [gru_spec(rng, 6, 8, theta=0.1), gru_spec(rng, 8, 5, theta=0.1)]
    _skips_like_the_reference(specs, piecewise_constant_seq(24, 6, 8, rng))


def test_dense_chunks_all_take_the_layer_runs_route(monkeypatch):
    # the cap holds three steps of accumulators, so the chunks are steps
    # [0:3], [3:6] and [6:8]. Large inputs in the middle chunk fail the
    # layer proof against the margin biases (and clip), so every chunk
    # takes the ordered steps, the small ones too; the small inputs alone
    # pass it and no chunk does. Each run must add up to the per-gate
    # reference
    rng = make_rng(19)
    spec = _margin_biases(gru_spec(rng, 6, 8, w_amp=0.2), rng)
    monkeypatch.setattr(gru, "SLAB_BYTES", 3 * spec.acc_bias.nbytes)
    small = uniform_seq(5, 6, rng, amp=0.08).data
    data = np.vstack([small[:3], uniform_seq(3, 6, rng, amp=100.0).data, small[3:]])
    ordered = []
    ordered_columns = fxp.sat_columns

    def columns(acc, w, x):
        if x.ndim == 2:
            ordered.append(x.T.tolist())
        return ordered_columns(acc, w, x)

    monkeypatch.setattr(gru, "sat_columns", columns)
    for rows, chunks in ((data, [data[0:3], data[3:6], data[6:8]]), (small, [])):
        ordered.clear()
        xs = QTensor(rows.shape, Q8_8, rows)
        run = run_sequence([spec], xs, "dense")
        want, want_clips, *_ = _reference_gru([spec], xs, "dense")
        assert run.outputs == want
        assert run.counters.saturations == want_clips
        assert ordered == [c.tolist() for c in chunks]


def test_steps_skipped_counts_quiet_steps_per_layer():
    # an ar1 input at theta 0 changes every step, so nothing is skipped;
    # a held input at the bench's theta leaves steps with no event at a
    # fixed point, and only such steps are skipped
    rng = make_rng(20)
    specs = [gru_spec(rng, 32, 64), gru_spec(rng, 64, 64)]
    assert run_sequence(specs, ar1_seq(30, 32, 0.99, rng), "sparse").steps_skipped == [0, 0]
    held = [replace(s, theta=gru.quantize_theta(0.03)) for s in specs]
    xs = piecewise_constant_seq(100, 32, 25, rng)
    run = run_sequence(held, xs, "sparse")
    quiet = np.count_nonzero(run.x_events + run.h_events == 0, axis=1)
    assert all(0 < n <= q for n, q in zip(run.steps_skipped, quiet))


# --- the layer proof, the delta routes and the telescoping check ---------------------

def _proofs_and_routes(specs, xs, proof=None):
    """A sparse run; returns it, each layer's `layer_no_clip` result (or
    ``proof`` in its place) and, per delta-engine ``sat_matvec`` call,
    (layer, proven, columns)."""
    proofs, calls = [], []
    layer_no_clip = gru.layer_no_clip

    def proved(*args):
        proofs.append(layer_no_clip(*args) if proof is None else proof)
        return proofs[-1]

    def routed(acc, w, x, proven):
        calls.append((len(proofs) - 1, proven, w.shape[1]))
        return fxp.sat_matvec(acc, w, x, proven)

    with mock.patch.object(gru, "layer_no_clip", proved), \
            mock.patch.object(gru, "sat_matvec", routed):
        run = run_sequence(specs, xs, "sparse")
    return run, proofs, calls


def test_gate_tables_lie_within_one():
    # the layer proof's premise: u is in [0, one] and |c| <= one
    one = 1 << Q8_8.frac_bits
    assert 0 <= SIGMOID_LUT.min() and SIGMOID_LUT.max() <= one
    assert np.abs(TANH_LUT, dtype=np.int32).max() <= one


@given(st.data())
def test_gate_output_is_within_one_or_its_previous_output(data):
    h = data.draw(st.integers(1, 6))
    acc = data.draw(st.lists(st.integers(INT32_MIN, INT32_MAX), min_size=4 * h, max_size=4 * h))
    h_prev = data.draw(st.lists(st.integers(-32768, 32767), min_size=h, max_size=h))
    h_prev = np.array(h_prev, np.int16)
    out, _ = gru._gates(gru_spec(make_rng(h), 2, h), np.array(acc, np.int64), h_prev)
    bound = np.maximum(1 << Q8_8.frac_bits, np.abs(h_prev, dtype=np.int32))
    assert np.all(np.abs(out, dtype=np.int32) <= bound)


def _integer_gates(spec, acc, h_prev):
    """The gate tail in int64 as it was before it ran in float64, kept as
    a check: clamped Q8.8 arguments into the int16 tables,
    `round_shift_even` and `sat_add`. Takes (4h,) or (4h, K)."""
    h, acc_frac = spec.hidden_size, spec.acc_frac

    def lookup(a, lut):
        x = np.clip(fxp.round_shift_even(a, acc_frac - 8), ACT_IN_MIN, ACT_IN_MAX)
        return lut[x - ACT_IN_MIN].astype(np.int64)

    ru = lookup(acc[h:3 * h], SIGMOID_LUT)
    r, u = ru[:h], ru[h:]
    c_acc = acc[:h].copy()
    sats = fxp.sat_add(c_acc, fxp.round_shift_even(r * acc[3 * h:], 8))
    c = lookup(c_acc, TANH_LUT)
    mix = (256 - u) * c + u * h_prev.astype(np.int64)
    return fxp.round_shift_even(mix, 8).astype(np.int16), sats


def _gate_spec(h, frac_bits):
    """A layer of hidden size h whose weights have ``frac_bits``: all the
    gate tail reads of a spec."""
    fmt = fxp.QFormat(16 - frac_bits, frac_bits)
    w = QTensor.zeros((h, 1), fmt)
    wh = QTensor.zeros((h, h), fmt)
    zero = np.zeros(h, np.int32)
    return gru.GruLayerSpec(1, h, w, w, w, wh, wh, wh, zero, zero, zero, theta=0)


def test_the_float_gate_tail_equals_the_integer_one_and_the_reference():
    # accumulators anywhere in int32, biased towards the edges and ties,
    # for every weight format; each column of a (4h, K) call equals its
    # own (4h,) call, and some candidate sums clip
    clipped = []
    edge = st.sampled_from((INT32_MIN, INT32_MIN + 1, -1, 0, 1, INT32_MAX - 1, INT32_MAX))

    @settings(deadline=None, max_examples=300)
    @given(st.data())
    def case(data):
        h, k = data.draw(st.integers(1, 5)), data.draw(st.integers(1, 3))
        spec = _gate_spec(h, data.draw(st.integers(0, 15)))
        accs = data.draw(st.lists(st.one_of(st.integers(INT32_MIN, INT32_MAX), edge),
                                  min_size=4 * h * k, max_size=4 * h * k))
        prevs = data.draw(st.lists(st.integers(-32768, 32767), min_size=h * k, max_size=h * k))
        acc = np.array(accs, np.int64).reshape(4 * h, k)
        h_prev = np.array(prevs, np.int16).reshape(h, k)
        out, clips = gru._gates(spec, acc, h_prev)
        assert out.dtype == np.int16
        want, want_clips = _integer_gates(spec, acc, h_prev)
        assert np.array_equal(out, want) and clips == want_clips
        column_clips = 0
        for j in range(k):
            col, col_clips = gru._gates(spec, acc[:, j], h_prev[:, j])
            ref, ref_clips = _reference_gates(spec, *np.split(acc[:, j], 4), h_prev[:, j])
            assert np.array_equal(col, out[:, j]) and np.array_equal(col, ref)
            assert col_clips == ref_clips
            column_clips += col_clips
        assert column_clips == clips
        clipped.append(clips)

    case()
    assert any(clipped)


def test_a_passing_layer_proof_means_no_accumulator_clip():
    # small nets from quiet to saturating: wherever a layer's proof
    # passes, the per-event reference clips no accumulator, and the
    # delta engine's products are proven exactly in proven layers
    proven = []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05)),
           st.sampled_from((None, _margin_biases, _edge_biases)),
           st.sampled_from((0.1, 1.9)), st.sampled_from((1.0, 100.0)))
    def case(seed, theta, biases, w_amp, amp):
        rng = make_rng(seed)
        specs = [gru_spec(rng, 5, 6, theta=theta, w_amp=w_amp),
                 gru_spec(rng, 6, 4, theta=theta, w_amp=w_amp)]
        if biases is not None:
            specs = [biases(s, rng) for s in specs]
        xs = uniform_seq(8, 5, rng, amp=amp)
        run, proofs, calls = _proofs_and_routes(specs, xs)
        want, want_clips, _, _, acc_clips = _reference_gru(specs, xs, "sparse")
        assert run.outputs == want and run.counters.saturations == want_clips
        assert all(clips == 0 for ok, clips in zip(proofs, acc_clips) if ok)
        assert all(ok == proofs[l] for l, ok, _ in calls)
        proven.extend(proofs)

    case()
    assert any(proven) and not all(proven)


def test_delta_runs_equal_with_the_layer_proof_forced_off():
    # small nets from quiet to saturating: a sparse run whose proof
    # passes takes its products in float64, and must equal the same run
    # made with every product ordered in outputs, clips, counters, events
    # and trace, and so must equal the per-event reference
    proven = []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05)),
           st.sampled_from((None, _margin_biases, _edge_biases)),
           st.sampled_from((0.1, 1.9)), st.sampled_from((1.0, 100.0)))
    def case(seed, theta, biases, w_amp, amp):
        rng = make_rng(seed)
        specs = [gru_spec(rng, 5, 6, theta=theta, w_amp=w_amp),
                 gru_spec(rng, 6, 4, theta=theta, w_amp=w_amp)]
        if biases is not None:
            specs = [biases(s, rng) for s in specs]
        xs = uniform_seq(8, 5, rng, amp=amp)
        on, proofs, _ = _proofs_and_routes(specs, xs)
        with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
            off, _, calls = _proofs_and_routes(specs, xs, proof=False)
        assert calls and ordered.call_count == len(calls)
        assert not any(ok for _, ok, _ in calls)
        for a, b in ((on.x_events, off.x_events), (on.h_events, off.h_events),
                     (on.trace.table, off.trace.table)):
            assert np.array_equal(a, b)
        assert on.outputs == off.outputs
        assert on.layer_counters == off.layer_counters
        assert on.steps_skipped == off.steps_skipped
        want, want_clips, want_x, want_h, _ = _reference_gru(specs, xs, "sparse")
        assert on.outputs == want and on.counters.saturations == want_clips
        assert np.array_equal(on.x_events, want_x) and np.array_equal(on.h_events, want_h)
        proven.extend(proofs)

    case()
    assert any(proven) and not all(proven)


def test_a_failing_layer_proof_checks_every_product():
    # margin biases and amp-100 inputs: the first layer's proof fails, so
    # every one of its products takes the ordered steps, and the clips
    # and outputs are the per-event reference's
    rng = make_rng(21)
    specs = [_margin_biases(gru_spec(rng, 6, 8, theta=0.05, w_amp=1.9), rng),
             _margin_biases(gru_spec(rng, 8, 5, theta=0.05, w_amp=1.9), rng)]
    xs = uniform_seq(10, 6, rng, amp=100.0)
    run, proofs, calls = _proofs_and_routes(specs, xs)
    assert proofs[0] is False
    assert all(ok == proofs[l] for l, ok, _ in calls)
    assert any(l == 0 for l, _, _ in calls)
    want, want_clips, *_ = _reference_gru(specs, xs, "sparse")
    assert run.outputs == want and run.counters.saturations == want_clips > 0


def _dense_routes(specs, xs, proof=None):
    """A dense run; returns it, each layer's `layer_no_clip` result (or
    ``proof`` in its place) and the number of ordered ``sat_columns``
    calls. The dense engine makes no ``sat_matvec`` call."""
    proofs = []
    layer_no_clip = gru.layer_no_clip

    def proved(*args):
        proofs.append(layer_no_clip(*args) if proof is None else proof)
        return proofs[-1]

    with mock.patch.object(gru, "layer_no_clip", proved), \
            mock.patch.object(gru, "sat_matvec", side_effect=AssertionError("sat_matvec")), \
            mock.patch.object(gru, "sat_columns", wraps=fxp.sat_columns) as ordered:
        run = run_sequence(specs, xs, "dense")
    return run, proofs, ordered.call_count


def test_dense_runs_equal_with_the_layer_proof_forced_off():
    # small nets from quiet to saturating: a dense run whose proof passes
    # takes its products in float64, and must equal the same run made
    # with every product ordered in outputs, clips, counters and trace
    proven = []

    @settings(deadline=None, max_examples=30)
    @given(st.integers(0, 2**32 - 1), st.sampled_from((None, _margin_biases, _edge_biases)),
           st.sampled_from((0.1, 1.9)), st.sampled_from((1.0, 100.0)))
    def case(seed, biases, w_amp, amp):
        rng = make_rng(seed)
        specs = [gru_spec(rng, 5, 6, w_amp=w_amp), gru_spec(rng, 6, 4, w_amp=w_amp)]
        if biases is not None:
            specs = [biases(s, rng) for s in specs]
        xs = uniform_seq(8, 5, rng, amp=amp)
        on, proofs, on_calls = _dense_routes(specs, xs)
        off, _, calls = _dense_routes(specs, xs, proof=False)
        assert calls == 2 * (1 + len(xs.data))  # one chunk and one call a step, per layer
        assert on_calls == sum(1 + len(xs.data) for ok in proofs if not ok)
        assert on.outputs == off.outputs
        assert on.layer_counters == off.layer_counters
        assert np.array_equal(on.trace.table, off.trace.table)
        want, want_clips, *_ = _reference_gru(specs, xs, "dense")
        assert on.outputs == want and on.counters.saturations == want_clips
        proven.extend(proofs)

    case()
    assert any(proven) and not all(proven)


def test_a_failing_dense_proof_checks_every_step():
    # margin biases and amp-100 inputs: the proof fails in both layers, so
    # each step's hidden side is one ordered call, besides the one call of
    # each layer's single chunk; a passing proof makes none
    rng = make_rng(26)
    specs = [_margin_biases(gru_spec(rng, 6, 8, w_amp=1.9), rng),
             _margin_biases(gru_spec(rng, 8, 5, w_amp=1.9), rng)]
    xs = uniform_seq(10, 6, rng, amp=100.0)
    run, proofs, calls = _dense_routes(specs, xs)
    assert proofs == [False, False] and calls == 2 * (1 + 10)
    want, want_clips, *_ = _reference_gru(specs, xs, "dense")
    assert run.outputs == want and run.counters.saturations == want_clips > 0
    quiet = [gru_spec(rng, 6, 8), gru_spec(rng, 8, 5)]
    run, proofs, calls = _dense_routes(quiet, xs)
    assert proofs == [True, True] and calls == 0
    want, want_clips, *_ = _reference_gru(quiet, xs, "dense")
    assert run.outputs == want and run.counters.saturations == want_clips == 0


def _unit_spec(w_xc=0, w_hr=0, b_c=0, b_r=0):
    """A layer of one hidden unit and Q2.14 raw weights: ``w_xc`` (a
    number, or a list of one per input) and ``w_hr`` as given, the
    other four zero, and the biases ``b_c`` and ``b_r``."""
    w_xc = np.atleast_2d(np.array(w_xc, np.int16))
    i = w_xc.shape[1]

    def w(v, n):
        return QTensor((1, n), fxp.Q2_14, np.broadcast_to(np.int16(v), (1, n)).copy())

    return gru.GruLayerSpec(i, 1, w(0, i), w(0, i), w(w_xc, i), w(w_hr, 1), w(0, 1),
                            w(0, 1), np.array([b_r]), np.zeros(1, np.int32),
                            np.array([b_c]), theta=0)


def _telescoped_state(spec, x_mem=0, h_mem=0, h=0):
    """A state with these memories and last output, its accumulators the
    biases plus the gate stacks times the memories."""
    x_mem = np.full(spec.input_size, x_mem, np.int16)
    h_mem = np.full(spec.hidden_size, h_mem, np.int16)
    n = spec.hidden_size
    acc = spec.acc_bias
    acc[:3 * n] += (x_mem @ spec.x_side.cols).astype(np.int64)
    acc[n:] += (h_mem @ spec.h_side.cols).astype(np.int64)
    return LayerState(x_mem, h_mem, np.full(n, h, np.int16), acc)


def test_the_layer_bounds_pass_at_int32_max_and_fail_one_above():
    # one bound for both engines: the input side |b_c| + |w_xc| P_x, the
    # hidden side |b_r| + |w_hr| P_h. P_x is the largest input or input
    # memory, P_h at least one (256), the hidden memory or the first
    # hidden value, each from a state that telescopes
    one = 1 << Q8_8.frac_bits
    for over in (0, 1):
        x_side = _unit_spec(w_xc=3, b_c=INT32_MAX - 9)
        hidden = _unit_spec(w_hr=1, b_r=INT32_MAX - 1000)
        cases = [(x_side, 3 + over, {}), (x_side, 3, {"x_mem": -3 - over}),
                 (_unit_spec(w_hr=1, b_r=INT32_MAX - one + over), 0, {}),
                 (hidden, 0, {"h_mem": -1000 - over}), (hidden, 0, {"h": -1000 - over})]
        for spec, x, memories in cases:
            state = _telescoped_state(spec, **memories)
            assert gru.telescoped(spec, state)
            assert gru.layer_no_clip(spec, np.array([[x]], np.int16), state) == (not over)
    # at the edge the run reaches INT32_MAX and clips nothing; one above, it clips
    for x, clips in ((3, 0), (4, 1)):
        xs = QTensor((1, 1), Q8_8, np.array([[x]], np.int16))
        for mode in ("sparse", "dense"):
            assert run_sequence([x_side], xs, mode).counters.saturations == clips
        want, want_clips, *_ = _reference_gru([x_side], xs, "dense")
        assert want_clips == clips
    # from accumulators one off their biases plus weights times memories
    # the bound still holds but proves nothing: every delta product of
    # the run is ordered, and no end check runs
    xs = np.array([[3], [-3], [1]], np.int16)
    for off, proven in ((0, True), (1, False)):
        state = _telescoped_state(x_side)
        state.acc[0] -= off
        assert gru.layer_no_clip(x_side, xs, state)
        assert gru.telescoped(x_side, state) == proven
        with mock.patch.object(gru, "sat_matvec", wraps=fxp.sat_matvec) as product, \
                mock.patch.object(gru, "check_telescoped",
                                  wraps=gru.check_telescoped) as check:
            run_layer(x_side, xs, state)
        assert {c.args[3] for c in product.call_args_list} == {proven}
        assert check.called == proven


def test_a_block_after_a_clipping_block_takes_the_ordered_steps():
    # three inputs of weight 32767 into the candidate sum. The first block
    # clips at INT32_MIN on its first step and returns its inputs to 0,
    # which leaves the accumulator about 2**30 above its bias and weights
    # times its memories. The second block's inputs pass the bound
    # (3 * 32767 * 21845 < 2**31), but from that state its first step
    # clips at INT32_MAX, so it must take the ordered steps: the chained
    # blocks equal one run and the per-step ordered reference
    spec = _unit_spec(w_xc=[32767] * 3)
    first = np.array([[-32767] * 3, [0] * 3], np.int16)
    second = np.array([[21845] * 3, [0] * 3], np.int16)
    whole = QTensor((4, 3), Q8_8, np.vstack([first, second]))
    want, want_clips, *_ = _reference_gru([spec], whole, "sparse")
    assert want_clips > 0
    state, outs, clips = LayerState.initial(spec), [], 0
    for block in (first, second):
        out, state, record = run_layer(spec, block, state)
        outs.append(out)
        clips += record.counter.saturations
        if block is first:
            assert not gru.telescoped(spec, state)
    assert np.array_equal(np.vstack(outs), want.data) and clips == want_clips


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_gathered_and_full_width_routes_agree_on_the_ordered_fallback(seed):
    # one stream of events on a full-scale side from accumulators near the
    # edge, unproven so every call takes the ordered steps:
    # the gathered columns and the full-width matrix over the scattered
    # deltas leave the per-event reference's accumulators and clips
    rng = make_rng(seed)
    h, n = int(rng.integers(1, 8)), int(rng.integers(1, 12))
    side = GateStack.of([QTensor((h, n), Q8_8, rng.integers(-32767, 32768, size=(h, n))
                                 .astype(np.int16)) for _ in range(3)])
    w = side.cols.T.astype(np.int64)
    stream = []
    for _ in range(5):
        idx = np.flatnonzero(rng.random(n) < 0.5)
        vals = rng.integers(1, 65536, size=idx.size) * rng.choice((-1, 1), size=idx.size)
        stream.append((idx, vals.astype(np.int32)))
    acc0 = rng.integers(INT32_MIN, INT32_MAX, size=3 * h, endpoint=True)
    want = acc0.copy()
    want_clips = sum(_ordered_columns(want, w, zip(idx.tolist(), vals.tolist()))
                     for idx, vals in stream)
    for share, width in ((0, lambda idx: idx.size), (n, lambda idx: n)):
        widths = []

        def ordered(acc, w, x):
            widths.append(w.shape[1])
            return sat_columns(acc, w, x)

        got = acc0.copy()
        with mock.patch.object(gru, "ROUTE_SHARE", share), \
                mock.patch.object(fxp, "sat_columns", ordered):
            clips = sum(delta_mxv_accumulate(side, idx, vals, got) for idx, vals in stream)
        assert np.array_equal(got, want) and clips == want_clips
        assert widths == [width(idx) for idx, _ in stream if idx.size]


@pytest.mark.parametrize("n, first", [(8, 3), (32, 11), (128, 43)])
def test_route_crossover_sits_at_its_event_count(n, first):
    # `first` events of n columns are the fewest that take the full width
    side = GateStack.of([QTensor((2, n), Q8_8, np.ones((2, n), np.int16))])
    widths = []

    def routed(acc, w, x, proven):
        widths.append(w.shape[1])
        return 0

    with mock.patch.object(gru, "sat_matvec", routed):
        for k in (first - 1, first, n):
            delta_mxv_accumulate(side, np.arange(k), np.ones(k, np.int32), np.zeros(2, np.int64))
    assert widths == [first - 1, n, n]


def test_one_run_mixes_routes():
    # held inputs at theta 0.05: a hold boundary sends every input on,
    # the steps between send a few hidden events; the run takes both
    # routes and matches the per-event reference
    rng = make_rng(23)
    specs = [gru_spec(rng, 6, 16, theta=0.05, w_amp=0.3), gru_spec(rng, 16, 16, theta=0.05)]
    xs = piecewise_constant_seq(40, 6, 5, rng)
    run, proofs, calls = _proofs_and_routes(specs, xs)
    full = [w in (6, 16) for _, _, w in calls]  # a gather takes at most 5 columns
    want, want_clips, want_x, want_h, _ = _reference_gru(specs, xs, "sparse")
    assert run.outputs == want and run.counters.saturations == want_clips
    assert np.array_equal(run.x_events, want_x) and np.array_equal(run.h_events, want_h)
    assert any(full) and not all(full)


def test_thresholds_that_cannot_fire_are_not_called():
    # a held input repeats rows and settles the gates: those threshold
    # steps cannot fire and are not called, and the run's events,
    # counters and trace rows are those of a run one step per call, which
    # calls every threshold step, and of the per-event reference
    rng = make_rng(24)
    specs = [gru_spec(rng, 6, 8, theta=0.05), gru_spec(rng, 8, 5, theta=0.05)]
    xs = piecewise_constant_seq(40, 6, 8, rng)
    with mock.patch.object(gru, "encode_delta", wraps=gru.encode_delta) as thresholds:
        run = run_sequence(specs, xs, "sparse")
    assert thresholds.call_count < 2 * len(specs) * len(xs.data)
    want, want_clips, want_x, want_h, _ = _reference_gru(specs, xs, "sparse")
    assert run.outputs == want and run.counters.saturations == want_clips
    assert np.array_equal(run.x_events, want_x) and np.array_equal(run.h_events, want_h)
    block = xs.data
    for spec in specs:
        out, _, record = run_layer(spec, block, LayerState.initial(spec))
        state, steps, rows = LayerState.initial(spec), [], []
        with mock.patch.object(gru, "encode_delta", wraps=gru.encode_delta) as thresholds:
            for t in range(len(block)):
                _, state, r = run_layer(spec, block[t:t + 1], state)
                steps.append(r)
                rows.append(r.rows[:, r.rows[0] >= 0] + [[t], [0], [0], [0]])
        assert thresholds.call_count == 2 * len(block)
        counter = OpCounter()
        for r in steps:
            counter.merge(r.counter)
        by_step = record.rows[:, np.argsort(record.rows[0], kind="stable")]
        assert counter == record.counter
        assert np.array_equal(np.concatenate([r.x_events for r in steps]), record.x_events)
        assert np.array_equal(np.concatenate([r.h_events for r in steps]), record.h_events)
        assert np.array_equal(np.concatenate(rows, axis=1), by_step[:, 1:])
        block = out


def test_a_run_with_no_accumulator_clip_is_checked_and_a_clipping_one_is_not():
    # the telescoping check runs once per layer of a run with no
    # accumulator clip; a run whose accumulators clipped cannot satisfy
    # it, and skips it
    rng = make_rng(25)
    quiet = gru_spec(rng, 6, 8, theta=0.05)
    clipping = _edge_biases(gru_spec(rng, 6, 8, theta=0.05, w_amp=1.9), rng)
    xs = uniform_seq(10, 6, rng, amp=100.0).data
    for spec, checked in ((quiet, True), (clipping, False)):
        with mock.patch.object(gru, "check_telescoped", wraps=gru.check_telescoped) as check:
            _, end, _ = run_layer(spec, xs, LayerState.initial(spec))
        assert check.called == checked
        if not checked:
            with pytest.raises(EquivalenceFailure, match="accumulators diverged"):
                gru.check_telescoped(spec, end)


# --- single-step semantics ------------------------------------------------------------

def _step(spec, state, x, mode="sparse"):
    """One step of `run_layer` on a raw int16 vector: a one-row block."""
    ys, state, record = run_layer(spec, x[None], state, mode)
    return ys[0], state, record


def test_zero_everything_stays_zero():
    rng = make_rng(3)
    spec = gru_spec(rng, 4, 4, w_amp=0.0, bias_amp=0.0)
    state = LayerState.initial(spec)
    h, state, record = _step(spec, state, _vec([0, 0, 0, 0]).data)
    assert list(h) == [0, 0, 0, 0]
    assert record.x_events[0] == record.h_events[0] == 0
    assert record.counter.macs_executed == 0


def test_step_counts_events_and_macs():
    rng = make_rng(4)
    spec = gru_spec(rng, 3, 5)
    state = LayerState.initial(spec)
    h, state, record = _step(spec, state, _vec([256, 0, -128]).data)
    counter = record.counter
    assert record.x_events[0] == 2  # two non-zero inputs vs zero memory
    assert record.h_events[0] == 0
    assert counter.macs_executed == 3 * 5 * 2  # three matrices x H per event
    assert counter.macs_dense_equivalent == 3 * 5 * (3 + 5)
    assert counter.comparisons == 3 + 5 and counter.adds == 6 * 5


def test_memory_stays_within_theta_of_stream():
    rng = make_rng(5)
    spec = gru_spec(rng, 6, 5, theta=0.1)
    xs = uniform_seq(40, 6, rng, amp=0.8)
    state = LayerState.initial(spec)
    for x in xs.data:
        h_entering = state.h.astype(np.int32)
        _, state, _ = _step(spec, state, x)
        drift = np.abs(state.x_mem.astype(np.int32) - x.astype(np.int32))
        assert drift.max(initial=0) <= spec.theta
        # the hidden memory tracks the value that entered this step; the
        # fresh output is not thresholded until the next step begins
        h_drift = np.abs(state.h_mem.astype(np.int32) - h_entering)
        assert h_drift.max(initial=0) <= spec.theta


@settings(deadline=None, max_examples=30)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0.0, 0.05, 0.25)))
def test_preactivations_telescope_to_memory_product(seed, theta):
    # the run state must always equal bias + W @ (last transmitted value),
    # no matter which events fired along the way
    rng = make_rng(seed)
    i, h = int(rng.integers(1, 12)), int(rng.integers(1, 12))
    spec = gru_spec(rng, i, h, theta=theta)
    xs = uniform_seq(15, i, rng, amp=0.9)
    state = LayerState.initial(spec)
    counter = OpCounter()
    for x in xs.data:
        _, state, record = _step(spec, state, x)
        counter.merge(record.counter)
    assert counter.saturations == 0  # equality below assumes no clipping
    xm = state.x_mem.astype(np.int64)
    hm = state.h_mem.astype(np.int64)

    def w64(m):
        return m.data.astype(np.int64)

    a_xc, a_r, a_u, a_hc = np.split(state.acc, 4)  # the [xc, r, u, hc] layout
    assert np.array_equal(a_r, spec.b_r + w64(spec.w_xr) @ xm + w64(spec.w_hr) @ hm)
    assert np.array_equal(a_u, spec.b_u + w64(spec.w_xu) @ xm + w64(spec.w_hu) @ hm)
    assert np.array_equal(a_xc, spec.b_c + w64(spec.w_xc) @ xm)
    assert np.array_equal(a_hc, w64(spec.w_hc) @ hm)


# --- dense equivalence ------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_zero_theta_matches_dense_oracle_every_step(seed):
    rng = make_rng(seed)
    i, h = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    spec = gru_spec(rng, i, h, theta=0.0)
    xs = uniform_seq(int(rng.integers(1, 25)), i, rng, amp=1.0)
    oracle = run_sequence([spec], xs, "dense").outputs
    state = LayerState.initial(spec)
    counter = OpCounter()
    for t, x in enumerate(xs.data):
        h_out, state, record = _step(spec, state, x)
        counter.merge(record.counter)
        assert np.array_equal(h_out, oracle.data[t]), f"diverged at step {t}"
    assert counter.saturations == 0


def test_run_sequence_modes_agree_at_zero_theta():
    rng = make_rng(8)
    specs = [gru_spec(rng, 6, 8), gru_spec(rng, 8, 4)]
    xs = uniform_seq(30, 6, rng, amp=1.0)
    sparse = run_sequence(specs, xs, "sparse")
    dense = run_sequence(specs, xs, "dense")
    assert sparse.outputs.dims == dense.outputs.dims == (30, 4)
    for a, b in zip(sparse.outputs.data, dense.outputs.data):
        assert (a == b).all()
    # the stack equals its layers run one after another
    first = run_sequence(specs[:1], xs, "dense").outputs
    assert dense.outputs == run_sequence(specs[1:], first, "dense").outputs


# --- sequence-level accounting ------------------------------------------------------------

def test_dense_mode_fetches_every_weight_every_step():
    rng = make_rng(9)
    specs = [gru_spec(rng, 5, 7)]
    xs = uniform_seq(12, 5, rng)
    run = run_sequence(specs, xs, "dense")
    per_step = specs[0].weight_words
    assert run.dense_weight_words == 12 * per_step
    assert run.weight_words_fetched == 12 * per_step
    assert run.weight_reduction_factor == 1.0
    assert run.counters.macs_executed == 12 * 3 * 7 * (5 + 7)
    # per step: 3h adds for the biases, 6h in the gates
    assert run.counters.total_op == 2 * run.counters.macs_executed + 12 * 9 * 7


def test_sparse_mode_fetches_only_event_columns():
    rng = make_rng(10)
    specs = [gru_spec(rng, 5, 7, theta=0.05)]
    xs = piecewise_constant_seq(40, 5, 10, rng, amp=0.8)
    run = run_sequence(specs, xs, "sparse")
    assert run.weight_words_fetched < run.dense_weight_words
    assert run.weight_reduction_factor > 1.0
    # one event fetches one column of each of the three gate matrices
    events = sum(s.x_events + s.h_events for layer in run.step_stats for s in layer)
    assert run.weight_words_fetched == 3 * 7 * events
    traced = sum(r[5] for r in run.trace.runs() if r[:3] == ("DRAM", "read", "weights"))
    # plus the one bias preload
    assert traced == run.weight_words_fetched + layer_bias_words(specs[0])
    # per step: i + h threshold compares, 6h adds in the gates
    assert run.counters.total_op == 2 * run.counters.macs_executed + 40 * (6 * 7 + 5 + 7)


def test_event_columns_hit_expected_addresses():
    rng = make_rng(11)
    i, h = 4, 3
    spec = gru_spec(rng, i, h, theta=0.0)
    x = np.zeros(i, dtype=np.int16)
    x[2] = 256
    run = run_sequence([spec], QTensor((1, i), Q8_8, x), "sparse")
    reads = [(r[4], r[5]) for r in run.trace.runs()
             if r[0] == "DRAM" and r[2] == "weights"]
    # bias preload burst, then column 2 of each input-side matrix
    assert reads[0] == (spec.weight_words, layer_bias_words(spec))
    assert reads[1:4] == [(2 * h, h), (h * i + 2 * h, h), (2 * h * i + 2 * h, h)]


def test_event_timeline_sums_layers():
    rng = make_rng(12)
    specs = [gru_spec(rng, 4, 5), gru_spec(rng, 5, 6)]
    xs = uniform_seq(7, 4, rng)
    run = run_sequence(specs, xs, "sparse")
    tl = run.event_timeline()
    assert len(tl) == 7
    ex, eh = tl[0]
    assert ex == sum(run.step_stats[l][0].x_events for l in range(2))
    assert eh == sum(run.step_stats[l][0].h_events for l in range(2))


def test_per_layer_traces_partition_the_run_trace():
    rng = make_rng(13)
    specs = [gru_spec(rng, 4, 5), gru_spec(rng, 5, 6)]
    xs = uniform_seq(9, 4, rng)
    run = run_sequence(specs, xs, "sparse")
    merged_words = run.trace.word_count()
    assert merged_words == sum(t.word_count() for t in run.layer_traces)
    assert sum(len(t) for t in run.layer_traces) == len(run.trace)
    for l, t in enumerate(run.layer_traces):
        assert len(t) > 0 and {r[3] for r in t.runs()} == {l}


@pytest.mark.parametrize("mode", ["sparse", "dense"])
def test_run_trace_is_step_major_across_layers(mode):
    # each layer runs over the whole sequence before the next, but the
    # trace interleaves them step by step: per step, layer 0, 1, 2
    rng = make_rng(18)
    specs = [gru_spec(rng, 4, 5), gru_spec(rng, 5, 6), gru_spec(rng, 6, 3)]
    run = run_sequence(specs, uniform_seq(7, 4, rng), mode)
    writes = [r[3] for r in run.trace.runs() if r[:3] == ("SRAM", "write", "state")]
    assert writes == [n % 3 for n in range(3 * 7)]


def test_sequence_validation():
    rng = make_rng(14)
    seq = QTensor.zeros((2, 4), Q8_8)
    with pytest.raises(ShapeMismatch, match="layer 1"):
        run_sequence([gru_spec(rng, 4, 5), gru_spec(rng, 6, 4)], seq)
    with pytest.raises(ValueError, match="mode"):
        run_sequence([gru_spec(rng, 4, 5)], seq, "eager")
    spec = gru_spec(rng, 4, 5)
    with pytest.raises(ValueError, match="mode"):
        run_layer(spec, np.zeros((1, 4), np.int16), LayerState.initial(spec), "Sparse")
    # a sequence is one (steps, input_size) Q8.8 tensor: a single step
    # vector, a stack of sequences, a wrong width or format is refused
    bad = (QTensor.zeros((4,), Q8_8), QTensor.zeros((2, 3, 4), Q8_8),
           QTensor.zeros((2, 5), Q8_8), QTensor.zeros((2, 4), fxp.Q2_14))
    for mode in ("sparse", "dense"):
        for x_seq in bad:
            with pytest.raises(ShapeMismatch, match="input sequence dims"):
                run_sequence([spec], x_seq, mode)


def test_spec_validation():
    rng = make_rng(15)
    good = gru_spec(rng, 3, 4)
    with pytest.raises(ShapeMismatch, match="w_hr"):
        gru_spec(rng, 3, 4).__class__(
            3, 4, good.w_xr, good.w_xu, good.w_xc,
            good.w_xr, good.w_hu, good.w_hc,  # (4,3) where (4,4) expected
            good.b_r, good.b_u, good.b_c, good.theta)
    with pytest.raises(MalformedStream, match="non-negative"):
        gru_spec(rng, 3, 4).__class__(
            3, 4, good.w_xr, good.w_xu, good.w_xc, good.w_hr, good.w_hu,
            good.w_hc, good.b_r, good.b_u, good.b_c, -1)


@pytest.mark.parametrize("name", ["b_r", "b_u", "b_c"])
def test_spec_refuses_an_int64_bias_past_int32(name):
    # np.asarray(bias, dtype=np.int32) wrapped it silently
    good = gru_spec(make_rng(15), 3, 4)
    for value in (INT32_MAX + 1, INT32_MIN - 1):
        with pytest.raises(MalformedStream, match=f"{name}: {value} is past the int32 range"):
            replace(good, **{name: np.full(4, value, dtype=np.int64)})
    edge = replace(good, **{name: np.array([INT32_MIN, INT32_MAX, 0, 0], dtype=np.int64)})
    assert getattr(edge, name).dtype == np.int32


def test_spec_refuses_theta_past_the_q8_8_range():
    good = gru_spec(make_rng(15), 3, 4)
    assert replace(good, theta=fxp.INT16_MAX).theta == fxp.INT16_MAX
    with pytest.raises(MalformedStream, match="theta must be non-negative"):
        replace(good, theta=fxp.INT16_MAX + 1)


# The gate tail's shifts: 8 (the Q8.8 products of r and u) and
# acc_frac - 8, the weight format's frac_bits, from 0 to 15.
@settings(max_examples=500)
@given(st.sampled_from(range(16)), st.integers(-(2**53) + 1, 2**53 - 1), st.booleans())
def test_rint_shift_equals_round_shift_even_below_2_53(shift, v, tie):
    if tie and shift:
        v = (v >> shift << shift) | (1 << (shift - 1))  # an exact half step, still < 2**53
    values = np.array([v, -v], dtype=np.int64)
    assert gru._rint_shift(values, shift).tolist() == fxp.round_shift_even(values, shift).tolist()
