"""Delta-gated GRU: lookup tables, event accounting, dense equivalence."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import gru_spec
from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench import fxp, gru
from sparsebench.fxp import (INT32_MAX, INT32_MIN, Q8_8, OpCounter, QScalar,
                             QTensor, sat_columns, sat_matvec)
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


def test_delta_mxv_traces_one_column_burst_per_event():
    # each event reads one h-word column burst of each stacked matrix:
    # every event of block 0, then of block 1 one matrix on, then block 2
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
    assert steps[0] == [(0, 4), (12, 4), (20, 4), (32, 4), (40, 4), (52, 4)]
    # an unchanged input fetches nothing on the input side; the hidden
    # side of [W_hr; W_hu; W_hc] starts after the three 4x5 input matrices
    h_idx = np.flatnonzero(first.data[0])
    assert steps[1] == [(60 + (m * 4 + j) * 4, 4) for m in range(3) for j in h_idx]
    # the next layer's weights start after this layer's weights and biases
    base = specs[0].weight_words + layer_bias_words(specs[0])
    preload, steps = _weight_reads_by_step(layer1)
    assert preload == (base + specs[1].weight_words, layer_bias_words(specs[1]))
    assert steps[0] == [(base + (m * 4 + j) * 3, 3) for m in range(3) for j in h_idx]


def _matvec_reference(acc, w2d, xvec):
    """Independent per-column saturating accumulation."""
    out = acc.astype(np.int64).copy()
    for i in range(w2d.shape[1]):
        if xvec[i] == 0:
            continue
        out = np.clip(out + w2d[:, i].astype(np.int64) * int(xvec[i]),
                      -(1 << 31), (1 << 31) - 1)
    return out.astype(np.int32)


def _float_operands(w):
    wf = w.astype(np.float64)
    return wf, np.abs(wf)


@given(st.integers(0, 2**32 - 1), st.booleans())
def test_guarded_matvec_matches_column_loop(seed, stress):
    rng = make_rng(seed)
    h, n = int(rng.integers(1, 8)), int(rng.integers(1, 8))
    scale = 32767 if stress else 500
    w = rng.integers(-scale, scale + 1, size=(h, n)).astype(np.int16)
    x = rng.integers(-scale, scale + 1, size=n).astype(np.int16)
    acc0 = rng.integers(-(1 << 30), 1 << 30, size=h).astype(np.int32)
    want = _matvec_reference(acc0, w, x)
    got = acc0.copy()
    clips = sat_matvec(got, *_float_operands(w), x)
    assert np.array_equal(got, want)
    ordered = acc0.copy()
    assert sat_columns(ordered, w, x) == clips
    assert np.array_equal(ordered, want)


def test_guarded_matvec_saturating_prefix():
    # first column clips the accumulator; the exact-matmul shortcut must
    # not be taken even though the algebraic total is back in range
    w = np.array([[32767, -32767]], dtype=np.int16)
    x = np.array([32767, 32767], dtype=np.int16)
    acc = np.array([INT32_MAX - 5], dtype=np.int32)
    want = _matvec_reference(acc, w, x)
    assert sat_matvec(acc, *_float_operands(w), x) == 1
    assert np.array_equal(acc, want)


@settings(max_examples=150)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("int16", "delta17", "huge")),
       st.sampled_from((0, 1, None)))
def test_float_bound_takes_the_fast_path_exactly_when_it_holds(seed, x_kind, over):
    # full-scale weights; 17-bit deltas; or int64 entries of 2**53 and up,
    # which float64 rounds. `over` puts one row's exact bound at INT32_MAX
    # (0) or INT32_MAX + 1 (1). The ordered fallback must run exactly when
    # the exact integer bound exceeds INT32_MAX, and either route must
    # match the per-column reference.
    rng = make_rng(seed)
    h, n = int(rng.integers(1, 6)), int(rng.integers(1, 5))
    scale = 500 if x_kind == "huge" else 32767  # huge products must fit int64
    w = rng.integers(-scale, scale + 1, size=(h, n)).astype(np.int16)
    if x_kind == "huge":
        x = (rng.integers(1 << 53, (1 << 53) + (1 << 20), size=n)
             * rng.choice((-1, 1), size=n)).astype(np.int64)
    else:
        top = 65535 if x_kind == "delta17" else 32767
        x = rng.integers(-top, top + 1, size=n).astype(np.int64)
        x //= int(rng.choice((1, n, 1 << 8)))  # makes a passing bound reachable
    acc0 = rng.integers(-(1 << 20), 1 << 20, size=h).astype(np.int64)
    terms = [sum(abs(int(w[r, j])) * abs(int(x[j])) for j in range(n)) for r in range(h)]
    row = int(rng.integers(h))
    if over is not None and terms[row] <= INT32_MAX:
        acc0[row] = (INT32_MAX - terms[row] + over) * int(rng.choice((-1, 1)))
    exact = [abs(int(a)) + t for a, t in zip(acc0, terms)]
    want = _matvec_reference(acc0, w, x)
    got = acc0.copy()
    with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
        clips = sat_matvec(got, *_float_operands(w), x)
    assert ordered.called == (max(exact) > INT32_MAX)
    assert np.array_equal(got, want)
    if not ordered.called:
        assert clips == 0


def test_float_bound_edge_cases():
    w = np.array([[32767], [-32767]], dtype=np.int16)
    x = np.array([65537], dtype=np.int64)  # |w| @ |x| = INT32_MAX - 32768
    for acc0, fallback, clips in (([32768, -32768], False, 0),    # bound == INT32_MAX
                                  ([32769, 0], True, 1),          # INT32_MAX + 1, clips
                                  ([-32769, 0], True, 0)):        # INT32_MAX + 1, no clip
        acc = np.array(acc0, dtype=np.int64)
        with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
            assert sat_matvec(acc, *_float_operands(w), x) == clips
        assert ordered.called == fallback
        assert np.array_equal(acc, _matvec_reference(np.array(acc0), w, x))
    # 2**53 + 1 rounds to 2**53 in float64; against a non-zero weight the
    # bound fails and the ordered loop runs on the exact int64 values
    acc = np.array([0], dtype=np.int64)
    big = np.array([(1 << 53) + 1, 1], dtype=np.int64)
    with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
        assert sat_matvec(acc, *_float_operands(np.array([[1, -1]])), big) == 1
    assert ordered.called and acc[0] == INT32_MAX - 1


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_delta_mxv_matches_per_event_reference(seed, full_scale):
    # full-scale weights and 17-bit deltas make the bound fail, so the
    # ordered per-event loop runs and must clip exactly as the reference
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


def test_fast_path_taken_at_bench_scale(monkeypatch):
    # the bench's GRU layer shape and input scale never reach the ordered
    # fallback, so every gate-stack step is one bound-checked matvec
    def refuse(*args):
        raise AssertionError("ordered fallback ran")

    rng = make_rng(16)
    spec = gru_spec(rng, 32, 128)
    xs = ar1_seq(20, 32, 0.99, rng)
    monkeypatch.setattr(fxp, "sat_columns", refuse)
    run = run_sequence([spec], xs, "sparse")
    assert run.outputs == run_sequence([spec], xs, "dense").outputs
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


def _reference_gru(specs, xs, mode):
    """Per-gate GRU in Python: six matrices, four int64 accumulators and
    ordered column steps; in sparse mode the accumulators persist and
    take only threshold-crossing deltas. Returns (outputs, clips)."""
    clips = 0
    layers = []
    for s in specs:
        b = [s.b_r.astype(np.int64), s.b_u.astype(np.int64), s.b_c.astype(np.int64),
             np.zeros(s.hidden_size, dtype=np.int64)]
        layers.append({"acc": b, "x_mem": np.zeros(s.input_size, np.int16),
                       "h_mem": np.zeros(s.hidden_size, np.int16),
                       "h": np.zeros(s.hidden_size, np.int16)})
    outs = []
    for x in xs.data:
        cur = QTensor(x.shape, Q8_8, x)
        for s, st_ in zip(specs, layers):
            h_prev = st_["h"]
            if mode == "dense":
                a_r, a_u, a_xc = s.b_r.astype(np.int64), s.b_u.astype(np.int64), s.b_c.astype(np.int64)
                a_hc = np.zeros(s.hidden_size, dtype=np.int64)
                x_ev = list(enumerate(cur.data.tolist()))
                h_ev = list(enumerate(h_prev.tolist()))
            else:
                a_r, a_u, a_xc, a_hc = st_["acc"]
                x_ev = _threshold(st_["x_mem"], cur.data, s.theta.raw)
                h_ev = _threshold(st_["h_mem"], h_prev, s.theta.raw)
            for acc, w in ((a_r, s.w_xr), (a_u, s.w_xu), (a_xc, s.w_xc)):
                clips += _ordered_columns(acc, w.data, x_ev)
            for acc, w in ((a_r, s.w_hr), (a_u, s.w_hu), (a_hc, s.w_hc)):
                clips += _ordered_columns(acc, w.data, h_ev)
            r = _act(a_r, s.acc_frac, SIGMOID_TABLE)
            u = _act(a_u, s.acc_frac, SIGMOID_TABLE)
            c_acc = a_xc.copy()
            clips += _clamped_add(c_acc, [_half_even(int(v), 8) for v in r * a_hc])
            c = _act(c_acc, s.acc_frac, TANH_TABLE)
            mix = (256 - u) * c + u * h_prev.astype(np.int64)
            st_["h"] = np.array([_half_even(int(v), 8) for v in mix], dtype=np.int16)
            cur = QTensor((s.hidden_size,), Q8_8, st_["h"].copy())
        outs.append(cur.data)
    return QTensor((len(outs), specs[-1].hidden_size), Q8_8, np.stack(outs)), clips


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
        want, want_clips = _reference_gru(specs, xs, mode)
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
def test_fast_and_ordered_routes_mix_within_one_run(seed, theta):
    # a quiet step, a step of small changes (20 raw, above theta) and then
    # large inputs: the bound holds at the early steps (dense: the zero
    # step; sparse: the small input deltas) and fails later, so both
    # routes run in one sequence and must agree with the per-gate reference
    rng = make_rng(seed)
    specs = [_margin_biases(gru_spec(rng, 6, 8, theta=theta, w_amp=1.9), rng),
             _margin_biases(gru_spec(rng, 8, 5, theta=theta, w_amp=1.9), rng)]
    small = (rng.choice((-1, 1), size=6) * 20).astype(np.int16)
    xs = QTensor((10, 6), Q8_8, np.vstack([np.zeros(6, np.int16), small,
                                           uniform_seq(8, 6, rng, amp=100.0).data]))
    for mode in ("sparse", "dense"):
        want, want_clips = _reference_gru(specs, xs, mode)
        with mock.patch.object(gru, "sat_matvec", wraps=fxp.sat_matvec) as routed, \
                mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
            run = run_sequence(specs, xs, mode)
        assert run.outputs == want
        assert run.counters.saturations == want_clips
        assert 0 < ordered.call_count < routed.call_count


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
        assert drift.max(initial=0) <= spec.theta.raw
        # the hidden memory tracks the value that entered this step; the
        # fresh output is not thresholded until the next step begins
        h_drift = np.abs(state.h_mem.astype(np.int32) - h_entering)
        assert h_drift.max(initial=0) <= spec.theta.raw


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
            good.w_hc, good.b_r, good.b_u, good.b_c, QScalar(-1, Q8_8))
