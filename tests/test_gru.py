"""Delta-gated GRU: lookup tables, event accounting, dense equivalence."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import gru_spec
from sparsebench.codec import DeltaStream
from sparsebench.errors import IndexOutOfRange, ShapeMismatch
from sparsebench import fxp
from sparsebench.fxp import (INT32_MAX, Q8_8, OpCounter, QScalar, QTensor,
                             sat_columns, sat_matvec)
from sparsebench.gru import (
    SIGMOID_TABLE,
    TANH_TABLE,
    DeltaState,
    act_lookup,
    delta_mxv_accumulate,
    deltagru_step,
    gru_dense_oracle,
    layer_bias_words,
    run_sequence,
)
from sparsebench.synth import ar1_seq, make_rng, piecewise_constant_seq, uniform_seq


def _vec(vals):
    return QTensor((len(vals),), Q8_8, np.array(vals, dtype=np.int16))


# --- activation tables ------------------------------------------------------------

def test_tables_have_expected_shape_and_symmetry():
    assert SIGMOID_TABLE.shape == TANH_TABLE.shape == (1025,)
    # sigmoid(-x) = 1 - sigmoid(x); tanh is odd; rounding is symmetric
    assert np.all(SIGMOID_TABLE + SIGMOID_TABLE[::-1] == 1 << 14)
    assert np.array_equal(TANH_TABLE, -TANH_TABLE[::-1])
    assert np.all(np.diff(SIGMOID_TABLE.astype(np.int32)) >= 0)
    assert np.all(np.diff(TANH_TABLE.astype(np.int32)) >= 0)


def test_lookup_reference_points():
    zero = np.zeros(1, dtype=np.int64)
    assert act_lookup(zero, 22, SIGMOID_TABLE)[0] == 128  # 0.5 in Q8.8
    assert act_lookup(zero, 22, TANH_TABLE)[0] == 0
    big = np.array([1 << 40], dtype=np.int64)
    assert act_lookup(big, 22, SIGMOID_TABLE)[0] == 256  # saturated domain
    assert act_lookup(-big, 22, SIGMOID_TABLE)[0] == 0
    assert act_lookup(big, 22, TANH_TABLE)[0] == 256
    assert act_lookup(-big, 22, TANH_TABLE)[0] == -256


@given(st.integers(-(1 << 30), 1 << 30), st.sampled_from((16, 22)))
def test_lookup_tracks_float_reference(acc, acc_frac):
    x = max(-8.0, min(8.0, acc / (1 << acc_frac)))
    sig = act_lookup(np.array([acc], dtype=np.int64), acc_frac, SIGMOID_TABLE)[0]
    tan = act_lookup(np.array([acc], dtype=np.int64), acc_frac, TANH_TABLE)[0]
    assert abs(sig / 256 - 1 / (1 + np.exp(-x))) <= 1.5 / 256
    assert abs(tan / 256 - np.tanh(x)) <= 1.5 / 256


@given(st.integers(-(1 << 25), 1 << 25))
def test_lookup_is_monotone(acc):
    a = np.array([acc, acc + 1], dtype=np.int64)
    for table in (SIGMOID_TABLE, TANH_TABLE):
        lo, hi = act_lookup(a, 16, table)
        assert lo <= hi


# --- event-driven matrix accumulation ------------------------------------------------

def test_delta_mxv_adds_scaled_columns():
    rng = make_rng(0)
    w = gru_spec(rng, 3, 4).w_xr
    acc = np.zeros(4, dtype=np.int32)
    stream = DeltaStream(3, np.array([1], dtype=np.int64),
                         np.array([10], dtype=np.int32))
    delta_mxv_accumulate(w, stream, acc)
    assert np.array_equal(acc, w.data[:, 1].astype(np.int32) * 10)


def test_delta_mxv_traces_one_column_burst_per_event():
    from sparsebench.trace import AccessTrace

    rng = make_rng(1)
    spec = gru_spec(rng, 5, 4)
    trace = AccessTrace()
    stream = DeltaStream(5, np.array([0, 3], dtype=np.int64),
                         np.array([7, -2], dtype=np.int32))
    delta_mxv_accumulate(spec.w_xr, stream, np.zeros(4, dtype=np.int32),
                         trace=trace, weight_base=100)
    assert trace.runs() == [("DRAM", "read", "weights", 0, 100, 4),
                            ("DRAM", "read", "weights", 0, 112, 4)]
    empty = DeltaStream(5, np.array([], dtype=np.int64), np.array([], dtype=np.int32))
    delta_mxv_accumulate(spec.w_xr, empty, np.zeros(4, dtype=np.int32),
                         trace=trace, weight_base=100)
    assert len(trace) == 2


def test_delta_mxv_bounds_checks():
    rng = make_rng(2)
    w = gru_spec(rng, 3, 4).w_xr
    bad_len = DeltaStream(5, np.array([], dtype=np.int64),
                          np.array([], dtype=np.int32))
    with pytest.raises(ShapeMismatch):
        delta_mxv_accumulate(w, bad_len, np.zeros(4, dtype=np.int32))
    for bad in (3, -1):
        # numpy would wrap -1 to the last column; the check must come
        # before any accumulator is touched
        oob = DeltaStream(3, np.array([0, bad], dtype=np.int64),
                          np.array([1, 1], dtype=np.int32))
        acc = np.zeros(4, dtype=np.int32)
        with pytest.raises(IndexOutOfRange):
            delta_mxv_accumulate(w, oob, acc)
        assert not acc.any()


def _matvec_reference(acc, w2d, xvec):
    """Independent per-column saturating accumulation."""
    out = acc.astype(np.int64).copy()
    for i in range(w2d.shape[1]):
        if xvec[i] == 0:
            continue
        out = np.clip(out + w2d[:, i].astype(np.int64) * int(xvec[i]),
                      -(1 << 31), (1 << 31) - 1)
    return out.astype(np.int32)


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
    clips = sat_matvec(got, w, x)
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
    assert sat_matvec(acc, w, x) == 1
    assert np.array_equal(acc, want)


@settings(deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.booleans())
def test_delta_mxv_matches_per_event_reference(seed, full_scale):
    # full-scale weights and 17-bit deltas make the bound fail, so the
    # ordered per-event loop runs and must clip exactly as the reference
    rng = make_rng(seed)
    h, n = int(rng.integers(1, 10)), int(rng.integers(1, 12))
    scale = 32767 if full_scale else 300
    w = QTensor((h, n), Q8_8,
                rng.integers(-scale, scale + 1, size=(h, n)).astype(np.int16))
    idx = np.flatnonzero(rng.random(n) < 0.6).astype(np.int64)
    vals = rng.integers(1, 2 * scale + 2, size=idx.size) * rng.choice((-1, 1), size=idx.size)
    stream = DeltaStream(n, idx, vals.astype(np.int32))
    acc0 = rng.integers(-(1 << 31), 1 << 31, size=h).astype(np.int32)
    if not full_scale:
        acc0 >>= 8
    want = acc0.astype(np.int64)
    want_sats = 0
    for i, v in zip(idx.tolist(), stream.values.tolist()):
        wide = want + w.data[:, i].astype(np.int64) * v
        want = np.clip(wide, -(1 << 31), (1 << 31) - 1)
        want_sats += int(np.count_nonzero(want != wide))
    got = acc0.copy()
    counter = OpCounter()
    delta_mxv_accumulate(w, stream, got, counter)
    assert np.array_equal(got, want)
    assert counter.saturations == want_sats
    assert counter.macs_executed == h * idx.size


def test_fast_path_taken_at_bench_scale(monkeypatch):
    # the bench's GRU layer shape and input scale never reach the ordered
    # fallback, so every matrix step is one bound-checked matvec
    def refuse(*args):
        raise AssertionError("ordered fallback ran")

    rng = make_rng(16)
    spec = gru_spec(rng, 32, 128)
    xs = ar1_seq(20, 32, 0.99, rng)
    monkeypatch.setattr(fxp, "sat_columns", refuse)
    run = run_sequence([spec], xs, "sparse")
    assert run.outputs == gru_dense_oracle(spec, xs)
    assert run.counters.saturations == 0


# --- single-step semantics ------------------------------------------------------------

def test_zero_everything_stays_zero():
    rng = make_rng(3)
    spec = gru_spec(rng, 4, 4, w_amp=0.0, bias_amp=0.0)
    state = DeltaState.initial(spec)
    h, state, stats = deltagru_step(spec, state, _vec([0, 0, 0, 0]))
    assert list(h.data) == [0, 0, 0, 0]
    assert stats.x_events == stats.h_events == 0
    assert stats.macs_executed == 0


def test_step_counts_events_and_macs():
    rng = make_rng(4)
    spec = gru_spec(rng, 3, 5)
    state = DeltaState.initial(spec)
    h, state, stats = deltagru_step(spec, state, _vec([256, 0, -128]))
    assert stats.x_events == 2  # two non-zero inputs vs zero memory
    assert stats.h_events == 0
    assert stats.macs_executed == 3 * 5 * 2  # three matrices x H per event
    assert stats.weight_words == stats.macs_executed


def test_memory_stays_within_theta_of_stream():
    rng = make_rng(5)
    spec = gru_spec(rng, 6, 5, theta=0.1)
    xs = uniform_seq(40, 6, rng, amp=0.8)
    state = DeltaState.initial(spec)
    for x in xs:
        h_entering = state.h_prev.data.astype(np.int32)
        _, state, _ = deltagru_step(spec, state, x)
        drift = np.abs(state.x_mem.data.astype(np.int32)
                       - x.data.astype(np.int32))
        assert drift.max(initial=0) <= spec.theta.raw
        # the hidden memory tracks the value that entered this step; the
        # fresh output is not thresholded until the next step begins
        h_drift = np.abs(state.h_mem.data.astype(np.int32) - h_entering)
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
    state = DeltaState.initial(spec)
    counter = OpCounter()
    for x in xs:
        _, state, _ = deltagru_step(spec, state, x, counter)
    assert counter.saturations == 0  # equality below assumes no clipping
    xm = state.x_mem.data.astype(np.int64)
    hm = state.h_mem.data.astype(np.int64)

    def w64(m):
        return m.data.astype(np.int64)

    assert np.array_equal(state.a_r, spec.b_r + w64(spec.w_xr) @ xm
                          + w64(spec.w_hr) @ hm)
    assert np.array_equal(state.a_u, spec.b_u + w64(spec.w_xu) @ xm
                          + w64(spec.w_hu) @ hm)
    assert np.array_equal(state.a_xc, spec.b_c + w64(spec.w_xc) @ xm)
    assert np.array_equal(state.a_hc, w64(spec.w_hc) @ hm)


# --- dense equivalence ------------------------------------------------------------------

@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1))
def test_zero_theta_matches_dense_oracle_every_step(seed):
    rng = make_rng(seed)
    i, h = int(rng.integers(1, 16)), int(rng.integers(1, 16))
    spec = gru_spec(rng, i, h, theta=0.0)
    xs = uniform_seq(int(rng.integers(1, 25)), i, rng, amp=1.0)
    oracle = gru_dense_oracle(spec, xs)
    state = DeltaState.initial(spec)
    counter = OpCounter()
    for t, x in enumerate(xs):
        h_out, state, _ = deltagru_step(spec, state, x, counter)
        assert h_out == oracle[t], f"diverged at step {t}"
    assert counter.saturations == 0


def test_run_sequence_modes_agree_at_zero_theta():
    rng = make_rng(8)
    specs = [gru_spec(rng, 6, 8), gru_spec(rng, 8, 4)]
    xs = uniform_seq(30, 6, rng, amp=1.0)
    sparse = run_sequence(specs, xs, "sparse")
    dense = run_sequence(specs, xs, "dense")
    assert len(sparse.outputs) == len(dense.outputs) == 30
    for a, b in zip(sparse.outputs, dense.outputs):
        assert a == b
    assert dense.outputs[-1] == gru_dense_oracle(
        specs[1], gru_dense_oracle(specs[0], xs))[-1]


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


def test_sparse_mode_fetches_only_event_columns():
    rng = make_rng(10)
    specs = [gru_spec(rng, 5, 7, theta=0.05)]
    xs = piecewise_constant_seq(40, 5, 10, rng, amp=0.8)
    run = run_sequence(specs, xs, "sparse")
    assert run.weight_words_fetched < run.dense_weight_words
    assert run.weight_reduction_factor > 1.0
    fetched = sum(s.weight_words for layer in run.step_stats for s in layer)
    assert fetched == run.weight_words_fetched
    traced = sum(r[5] for r in run.trace.runs() if r[:3] == ("DRAM", "read", "weights"))
    assert traced == run.weight_words_fetched + run.init_words


def test_event_columns_hit_expected_addresses():
    rng = make_rng(11)
    i, h = 4, 3
    spec = gru_spec(rng, i, h, theta=0.0)
    x = np.zeros(i, dtype=np.int16)
    x[2] = 256
    run = run_sequence([spec], [QTensor((i,), Q8_8, x)], "sparse")
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


def test_sequence_validation():
    rng = make_rng(14)
    with pytest.raises(ShapeMismatch, match="layer 1"):
        run_sequence([gru_spec(rng, 4, 5), gru_spec(rng, 6, 4)], [])
    with pytest.raises(ValueError, match="mode"):
        run_sequence([gru_spec(rng, 4, 5)], [], "eager")
    spec = gru_spec(rng, 4, 5)
    with pytest.raises(ShapeMismatch, match="input dims"):
        deltagru_step(spec, DeltaState.initial(spec), _vec([0, 0]))


def test_spec_validation():
    rng = make_rng(15)
    good = gru_spec(rng, 3, 4)
    with pytest.raises(ShapeMismatch, match="w_hr"):
        gru_spec(rng, 3, 4).__class__(
            3, 4, good.w_xr, good.w_xu, good.w_xc,
            good.w_xr, good.w_hu, good.w_hc,  # (4,3) where (4,4) expected
            good.b_r, good.b_u, good.b_c, good.theta)
    with pytest.raises(ShapeMismatch, match="non-negative"):
        gru_spec(rng, 3, 4).__class__(
            3, 4, good.w_xr, good.w_xu, good.w_xc, good.w_hr, good.w_hu,
            good.w_hc, good.b_r, good.b_u, good.b_c, QScalar(-1, Q8_8))
