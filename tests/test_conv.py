"""Zero-skipping convolution against the dense reference, plus fused pooling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import conv_case
from sparsebench import conv as conv_mod
from sparsebench import fxp
from sparsebench.codec import decode_sm, encode_sm, measure_sparsity
from sparsebench.conv import (
    ConvLayerSpec,
    conv_dense_oracle,
    conv_dense_run,
    conv_zeroskip,
    fused_relu_pool,
    run_network,
)
from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench.fxp import INT32_MAX, INT32_MIN, Q2_14, Q8_8, OpCounter, QTensor
from sparsebench.synth import make_rng, random_weights, sparse_map


def _layer(in_c=1, out_c=1, k=3, stride=1, pad=0, w_vals=None, bias=None,
           relu=False, pool="none"):
    if w_vals is None:
        w_vals = np.full((out_c, in_c, k, k), 256, dtype=np.int16)  # all 1.0
    weights = QTensor((out_c, in_c, k, k), Q8_8,
                      np.asarray(w_vals, dtype=np.int16))
    if bias is None:
        bias = np.zeros(out_c, dtype=np.int32)
    return ConvLayerSpec(in_c, out_c, k, k, stride, pad, weights, bias,
                         relu, pool, Q8_8)


def _ones_input(c=1, h=3, w=3, raw=256):
    return QTensor((c, h, w), Q8_8, np.full((c, h, w), raw, dtype=np.int16))


# --- reference values -----------------------------------------------------------

def test_all_ones_3x3_sums_to_nine():
    out = conv_dense_oracle(_layer(), _ones_input())
    assert out.dims == (1, 1, 1)
    assert out.data[0, 0, 0] == 2304  # 9.0 in Q8.8


def test_bias_enters_at_accumulator_scale():
    # 1x1 kernel of 1.0, bias 1.0 (raw 65536 at scale 2^16), input 2.0
    spec = _layer(k=1, w_vals=[[[[256]]]], bias=np.array([65536], dtype=np.int32))
    out = conv_dense_oracle(spec, _ones_input(h=1, w=1, raw=512))
    assert out.data[0, 0, 0] == 768  # 3.0


def test_zeroskip_matches_on_reference_layer():
    x = _ones_input()
    res = conv_zeroskip(_layer(), encode_sm(x))
    assert decode_sm(res.output) == conv_dense_oracle(_layer(), x)
    assert res.pixels_visited == 9


def test_output_saturates_at_16_bits():
    out = conv_dense_oracle(_layer(k=3), _ones_input(h=5, w=5, raw=32767))
    assert out.data[0, 2, 2] == 32767


# --- fused ReLU + pooling ---------------------------------------------------------

def test_fused_relu_pool_reference():
    acc = np.array([[[1, -2], [3, -4]]], dtype=np.int32)
    out = fused_relu_pool(acc, relu=True, pool="max2x2", counter=OpCounter())
    assert out.shape == (1, 1, 1) and out[0, 0, 0] == 3


def test_fused_pool_drops_odd_edges():
    acc = np.arange(15, dtype=np.int32).reshape(1, 3, 5)
    out = fused_relu_pool(acc, relu=False, pool="max2x2", counter=OpCounter())
    assert out.shape == (1, 1, 2)
    assert out.tolist() == [[[6, 8]]]


def test_fused_comparison_counts():
    c = OpCounter()
    fused_relu_pool(np.zeros((2, 4, 4), dtype=np.int32), True, "max2x2", c)
    assert c.comparisons == 2 * 2 * 2 * 3 + 2 * 2 * 2  # 3 per window + 1 relu
    c2 = OpCounter()
    fused_relu_pool(np.zeros((2, 4, 4), dtype=np.int32), True, "none", c2)
    assert c2.comparisons == 32


@given(st.integers(0, 2**32 - 1), st.booleans(), st.integers(1, 3),
       st.integers(1, 9), st.integers(1, 9), st.sampled_from((np.int32, np.int64)))
def test_fused_equals_two_pass_reference(seed, relu, c, h, w, dtype):
    # the engines pass int64 accumulators, clamped to the int32 range
    rng = make_rng(seed)
    acc = rng.integers(-(2**31), 2**31, size=(c, h, w)).astype(dtype)
    fused = fused_relu_pool(acc, relu, "max2x2", OpCounter())
    assert fused.dtype == np.int64
    two_pass = np.maximum(acc, 0) if relu else acc
    ph, pw = h // 2, w // 2
    if ph == 0 or pw == 0:
        assert fused.shape == (c, ph, pw)
        return
    ref = two_pass[:, : 2 * ph, : 2 * pw].reshape(c, ph, 2, pw, 2).max(axis=(2, 4))
    assert np.array_equal(fused, ref)


# --- sparse/dense equivalence -----------------------------------------------------

@settings(deadline=None, max_examples=60)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1, 2)),
    pool=st.booleans(),
    relu=st.booleans(),
    sparsity=st.sampled_from((0.0, 0.25, 0.5, 0.8, 1.0)),
    seed=st.integers(0, 2**32 - 1),
)
def test_zeroskip_bit_exact_vs_dense(k, stride, pad, pool, relu, sparsity, seed):
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool,
                        relu=relu, sparsity=sparsity)
    res = conv_zeroskip(spec, encode_sm(x))
    assert decode_sm(res.output) == conv_dense_oracle(spec, x)


def test_zeroskip_bit_exact_under_saturation():
    # amplitudes chosen so accumulators clip; the shared term order keeps
    # both paths identical anyway
    total_sats = 0
    for seed in range(20):
        rng = make_rng(seed)
        spec, x = conv_case(rng, sparsity=0.5, w_amp=100.0, x_amp=120.0,
                            bias_amp=30000.0)
        res = conv_zeroskip(spec, encode_sm(x))
        want = conv_dense_oracle(spec, x)
        assert decode_sm(res.output) == want
        total_sats += res.counters.saturations
    assert total_sats > 0  # the stress amplitudes really do clip


@settings(deadline=None, max_examples=40)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1, 2)),
    pool=st.booleans(),
    relu=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_zeroskip_fallback_bit_exact_at_full_scale(k, stride, pad, pool, relu, seed):
    # full-scale weights and inputs: the layer proof almost always
    # fails, so the ordered per-step clamp runs and must still equal the
    # oracle, one step per (channel, tap) that some pixel feeds an output
    # through, and no shift-add product is taken (an amplitude of
    # 127.99609375 is the Q8.8 maximum)
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool, relu=relu,
                        sparsity=0.5, w_amp=127.99609375, x_amp=127.99609375,
                        bias_amp=30000.0)
    with mock.patch.object(conv_mod, "sat_add", wraps=fxp.sat_add) as step, \
            mock.patch.object(conv_mod, "_shift_add", wraps=conv_mod._shift_add) as product:
        res = conv_zeroskip(spec, encode_sm(x))
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters.saturations == counter.saturations
    # the layer's bound, in Python ints: per output channel, |bias| plus
    # each (channel, tap) weight's magnitude times the channel's largest
    # |value|
    peak = [max(abs(int(v)) for v in ch.reshape(-1)) for ch in x.data]
    bound = max(abs(int(b)) + sum(abs(int(wv)) * peak[ch]
                                  for ch, taps in enumerate(row) for wv in taps.reshape(-1))
                for b, row in zip(spec.bias, spec.weights.data))
    assert product.called == (bound <= INT32_MAX)
    assert step.call_count == (len(_hit_pairs(spec, x)) if bound > INT32_MAX else 0)


def _hit_pairs(spec, x):
    """By (channel, kernel row, kernel column), in term order, how many
    non-zero pixels of ``x`` feed an output through it, where any do."""
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    s, p = spec.stride, spec.pad

    def feeds(pos, k, n_out):
        o, r = divmod(pos + p - k, s)
        return r == 0 and 0 <= o < n_out

    hits = {}
    for ic, ky, kx in np.ndindex(c, spec.kernel_h, spec.kernel_w):
        n = sum(feeds(int(yy), ky, h_out) and feeds(int(xx), kx, w_out)
                for yy, xx in zip(*np.nonzero(x.data[ic])))
        if n:
            hits[ic, ky, kx] = n
    return hits


def test_zeroskip_fallback_without_clipping(monkeypatch):
    # biases next to the int32 limits defeat the bound, but every term
    # moves away from the limit, so the ordered fallback never clips
    w = np.ones((2, 2, 3, 3), dtype=np.int16)
    w[1] = -1
    spec = _layer(in_c=2, out_c=2, k=3, pad=1, w_vals=w,
                  bias=np.array([INT32_MAX - 10, -INT32_MAX + 10], dtype=np.int32))
    x = _ones_input(c=2, h=4, w=4, raw=-300)
    clips = []
    real_step = fxp.sat_add

    def step(acc, term):
        clips.append(real_step(acc, term))
        return clips[-1]

    monkeypatch.setattr(conv_mod, "sat_add", step)
    res = conv_zeroskip(spec, encode_sm(x))
    monkeypatch.undo()
    # one step per (channel, tap): every tap of a padded 4x4 map hits
    assert len(clips) == 2 * 9 and sum(clips) == 0
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    # only the 16-bit output conversion saturates, in both engines alike
    assert res.counters.saturations == counter.saturations


def test_fast_path_taken_at_bench_scale(monkeypatch):
    # the bench conv layer (32->16, 3x3, Q2.14 weights of amplitude 0.2)
    # on a map of values up to 1.0 is proven clip-free: the ordered
    # clamp never runs
    rng = make_rng(17)
    spec = ConvLayerSpec(32, 16, 3, 3, 1, 1,
                         random_weights((16, 32, 3, 3), rng, Q2_14, 0.2),
                         np.zeros(16, dtype=np.int32), True, "max2x2", Q8_8)
    x = sparse_map(32, 24, 24, 0.8, rng, amp=1.0)
    # both engines' ordered steps are conv's sat_add
    monkeypatch.setattr(conv_mod, "sat_add", _refuse)
    res = conv_zeroskip(spec, encode_sm(x))
    counter = OpCounter()
    want = conv_dense_oracle(spec, x, counter)
    monkeypatch.undo()
    assert decode_sm(res.output) == want
    assert res.counters.saturations == counter.saturations == 0


def _refuse(*args):
    raise AssertionError("ordered fallback ran")


def _accumulators(spec, sfm, slab_bytes=conv_mod.SLAB_BYTES, proof=None, **patches):
    """conv_zeroskip's result and the int64 accumulators it renormalized,
    with the product chunk cap set, the layer proof's answer replaced by
    ``proof`` unless it is None, and the given conv module attributes
    patched."""
    layer_no_clip = conv_mod.layer_no_clip

    def proved(*args):
        return layer_no_clip(*args) if proof is None else proof

    with mock.patch.object(conv_mod, "_finish_layer", wraps=conv_mod._finish_layer) as fin, \
            mock.patch.object(conv_mod, "layer_no_clip", proved), \
            mock.patch.multiple(conv_mod, SLAB_BYTES=slab_bytes, **patches):
        res = conv_zeroskip(spec, sfm)
    return res, fin.call_args.args[1]


@settings(deadline=None, max_examples=80)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2, 3)),
    pad=st.sampled_from((0, 1, 2)),
    pool=st.booleans(),
    relu=st.booleans(),
    sparsity=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    in_c=st.integers(1, 7),
    chunk=st.integers(1, 3),
    empty=st.integers(-1, 6),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_path_equals_the_ordered_loop(k, stride, pad, pool, relu, sparsity,
                                           in_c, chunk, empty, seed):
    # the chunk cap is set so one product holds `chunk` taps' results
    # (a phase's last chunk fewer), and channel `empty` may be all zero.
    # The proven run takes no ordered step; with the layer proof forced
    # off, the run takes no product and one ordered step per (channel,
    # tap) that some pixel feeds an output through, in term order
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool, relu=relu,
                        sparsity=sparsity, in_c=in_c)
    if 0 <= empty < in_c:
        data = x.data.copy()
        data[empty] = 0
        x = QTensor(x.dims, x.fmt, data)
    sfm = encode_sm(x)
    h_out, w_out = spec.out_dims(*x.dims[1:])
    tap_bytes = (8 * spec.out_channels * (h_out + (k - 1) // stride)
                 * (w_out + (k - 1) // stride))
    slab = chunk * tap_bytes + int(rng.integers(tap_bytes))
    fast, fast_acc = _accumulators(spec, sfm, slab, sat_add=_refuse)
    step = mock.Mock(wraps=fxp.sat_add)
    ordered, ordered_acc = _accumulators(spec, sfm, slab, proof=False, sat_add=step,
                                         _shift_add=_refuse)
    # each step adds one (channel, tap)'s terms to just the outputs its
    # pixels feed
    assert [call.args[1].shape for call in step.call_args_list] == [
        (spec.out_channels, n) for n in _hit_pairs(spec, x).values()]
    assert fast_acc.dtype == ordered_acc.dtype == np.int64
    assert np.array_equal(fast_acc, ordered_acc)
    assert fast.counters == ordered.counters
    assert np.array_equal(fast.accesses.table, ordered.accesses.table)
    assert decode_sm(fast.output) == decode_sm(ordered.output) == conv_dense_oracle(spec, x)


@settings(deadline=None, max_examples=80)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2, 3)),
    pad=st.sampled_from((0, 1, 2)),
    sparsity=st.sampled_from((0.0, 0.5, 0.8)),
    in_c=st.integers(1, 5),
    amps=st.sampled_from(((0.5, 4.0, 2.0), (100.0, 120.0, 30000.0),
                          (127.99609375, 127.99609375, 30000.0))),
    seed=st.integers(0, 2**32 - 1),
)
def test_ordered_route_clips_as_the_oracle_at_every_stride_phase(k, stride, pad, sparsity,
                                                                 in_c, amps, seed):
    # with its proof forced off, the zero-skip's ordered steps over the
    # hit lists leave the oracle's int64 accumulators and clip counts, by
    # whichever route the oracle takes; at the larger amplitudes some
    # intermediate sums clip
    rng = make_rng(seed)
    w_amp, x_amp, bias_amp = amps
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, sparsity=sparsity, in_c=in_c,
                        w_amp=w_amp, x_amp=x_amp, bias_amp=bias_amp)
    res, acc = _accumulators(spec, encode_sm(x), proof=False, _shift_add=_refuse)
    want, counter, want_acc = _oracle(spec, x)
    assert acc.dtype == want_acc.dtype == np.int64
    assert np.array_equal(acc, want_acc)
    assert res.counters.saturations == counter.saturations
    assert decode_sm(res.output) == want


def test_ordered_route_takes_channel_then_tap_order():
    # one 2x2 output window of a 2x2 kernel over two channels: channel 0's
    # four terms are T = 32767 * 32767 and channel 1's -T. In (channel,
    # tap) order the third and fourth terms clip at INT32_MAX and the sum
    # ends at INT32_MAX - 4T; in (tap, channel) order the terms cancel in
    # pairs and nothing clips
    t = 32767 * 32767
    w = np.full((1, 2, 2, 2), 32767, dtype=np.int16)
    w[0, 1] = -32767
    spec = _layer(in_c=2, out_c=1, k=2, w_vals=w)
    x = _ones_input(c=2, h=2, w=2, raw=32767)
    res, acc = _accumulators(spec, encode_sm(x))
    assert acc.tolist() == [[[INT32_MAX - 4 * t]]]
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters.saturations == counter.saturations == 2 + 1  # then 16 bits


@pytest.mark.parametrize("over", [0, 1])
def test_bound_at_int32_max_is_the_last_one_on_the_fast_path(over):
    # pad 0: each output takes all 18 terms, 18 * 3641 * 32767 = INT32_MAX - 1,
    # so with bias +-1 the bound and channel 0's sum are INT32_MAX exactly;
    # one more and the ordered loop runs, one step per (channel, tap),
    # channel 0 clipping at every output
    w = np.full((2, 2, 3, 3), 3641, dtype=np.int16)
    w[1] = -3641
    spec = _layer(in_c=2, out_c=2, k=3, w_vals=w,
                  bias=np.array([1 + over, -1 - over], dtype=np.int32))
    x = _ones_input(c=2, h=4, w=4, raw=32767)
    step = mock.Mock(wraps=fxp.sat_add)
    product = mock.Mock(wraps=conv_mod._shift_add)
    res, acc = _accumulators(spec, encode_sm(x), sat_add=step, _shift_add=product)
    assert step.call_count == 18 * over and product.called == (not over)
    assert acc.tolist() == [[[INT32_MAX] * 2] * 2, [[-INT32_MAX - over] * 2] * 2]
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters == counter  # a full pad-0 map executes every MAC
    assert res.counters.saturations == 8 + 4 * over  # all 8 outputs clip to 16 bits


def test_layer_proof_reads_each_channels_largest_magnitude():
    # a 1x1 kernel over three channels: channel 0 is empty, channel 1
    # holds -32768 against a weight of -32768 (a term of +2**30), and
    # channel 2 holds 1. The bias puts the sum past INT32_MAX, so the
    # proof must take channel 1's peak as 32768 and send the run to the
    # ordered steps, one per filled channel, which clip at both terms of
    # every output
    w = np.array([[[[0]], [[-32768]], [[1]]]], dtype=np.int16)
    spec = _layer(in_c=3, out_c=1, k=1, w_vals=w,
                  bias=np.array([(1 << 30) + 4], dtype=np.int32))
    data = np.zeros((3, 2, 2), dtype=np.int16)
    data[1], data[2] = -32768, 1
    x = QTensor((3, 2, 2), Q8_8, data)
    step = mock.Mock(wraps=fxp.sat_add)
    res, acc = _accumulators(spec, encode_sm(x), sat_add=step, _shift_add=_refuse)
    assert step.call_count == 2 and acc.tolist() == [[[INT32_MAX] * 2] * 2]
    assert [call.args[1].tolist() for call in step.call_args_list] == [
        [[1 << 30] * 4], [[1] * 4]]
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters.saturations == counter.saturations == 4 + 4 + 4


def test_one_large_channel_orders_every_group():
    # channel 0's values are 1 and channel 1's 32767, so with the bias
    # the layer's bound fails, and every (channel, tap) of both channels
    # takes an ordered step, channel 0's nine before channel 1's nine;
    # channel 1 clips where all nine taps land
    w = np.full((2, 2, 3, 3), 3641, dtype=np.int16)
    w[1] = -3641
    spec = _layer(in_c=2, out_c=2, k=3, pad=1, w_vals=w,
                  bias=np.array([1_200_000_000, -1_200_000_000], dtype=np.int32))
    data = np.full((2, 4, 4), 32767, dtype=np.int16)
    data[0] = 1
    x = QTensor((2, 4, 4), Q8_8, data)
    step = mock.Mock(wraps=fxp.sat_add)
    res, acc = _accumulators(spec, encode_sm(x), sat_add=step, _shift_add=_refuse)
    peaks = [int(call.args[1].max()) for call in step.call_args_list]
    assert peaks == [3641] * 9 + [3641 * 32767] * 9
    # an edge tap of a padded 3x3 kernel feeds 3 of the 4 rows or columns
    assert [call.args[1].shape[1] for call in step.call_args_list[:9]] == [
        9, 12, 9, 12, 16, 12, 9, 12, 9]
    assert acc[0].max() == INT32_MAX and acc[1].min() == fxp.INT32_MIN
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters.saturations == counter.saturations


def test_all_zero_input_executes_nothing():
    rng = make_rng(7)
    spec, x = conv_case(rng, sparsity=1.0)
    res = conv_zeroskip(spec, encode_sm(x))
    assert res.counters.macs_executed == 0
    assert res.pixels_visited == 0
    assert decode_sm(res.output) == conv_dense_oracle(spec, x)


# --- the dense oracle's proven product ------------------------------------------------

# The oracle takes its product when no output's bound passes conv's
# INT32_MAX; patched to -1 there, no bound holds and every group runs
# the ordered steps, whose clamp reads fxp's own INT32_MAX.
_ORDERED = {"INT32_MAX": -1}


def _oracle(spec, x, slab_bytes=conv_mod.SLAB_BYTES, **patches):
    """conv_dense_oracle's output, counter and the int64 accumulators it
    renormalized, with the slab cap set and the given conv module
    attributes patched."""
    counter = OpCounter()
    with mock.patch.object(conv_mod, "_finish_layer", wraps=conv_mod._finish_layer) as fin, \
            mock.patch.multiple(conv_mod, SLAB_BYTES=slab_bytes, **patches):
        out = conv_dense_oracle(spec, x, counter)
    return out, counter, fin.call_args.args[1]


@settings(deadline=None, max_examples=80)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1, 2)),
    pool=st.booleans(),
    relu=st.booleans(),
    sparsity=st.sampled_from((0.0, 0.5, 0.8)),
    in_c=st.integers(1, 7),
    group=st.integers(1, 3),
    amps=st.sampled_from(((0.5, 4.0, 2.0), (100.0, 120.0, 30000.0),
                          (127.99609375, 127.99609375, 30000.0))),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_oracle_equals_the_ordered_loop(k, stride, pad, pool, relu, sparsity,
                                             in_c, group, amps, seed):
    # the slab cap is set so each group holds `group` channels (the last
    # group fewer when `group` does not divide in_c); at the larger
    # amplitudes the layer proof fails and every (channel, tap) takes
    # the ordered step, some of them clipping
    rng = make_rng(seed)
    w_amp, x_amp, bias_amp = amps
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool, relu=relu,
                        sparsity=sparsity, in_c=in_c, w_amp=w_amp, x_amp=x_amp,
                        bias_amp=bias_amp)
    h_out, w_out = spec.out_dims(*x.dims[1:])
    channel_bytes = 8 * k * k * h_out * w_out
    slab = group * channel_bytes + int(rng.integers(channel_bytes))
    fast, fast_counter, fast_acc = _oracle(spec, x, slab)
    ordered, ordered_counter, ordered_acc = _oracle(spec, x, **_ORDERED)
    assert fast_acc.dtype == ordered_acc.dtype == np.int64
    assert np.array_equal(fast_acc, ordered_acc)
    assert fast_counter == ordered_counter
    assert fast == ordered


@pytest.mark.parametrize("over", [0, 1])
def test_oracle_bound_at_int32_max_is_the_last_one_on_the_product(over):
    # as for the zero-skip engine: 18 * 3641 * 32767 = INT32_MAX - 1, so with
    # bias +-1 every output's bound is INT32_MAX exactly; one more and the
    # ordered steps run, channel 0 clipping at every output
    w = np.full((2, 2, 3, 3), 3641, dtype=np.int16)
    w[1] = -3641
    spec = _layer(in_c=2, out_c=2, k=3, w_vals=w,
                  bias=np.array([1 + over, -1 - over], dtype=np.int32))
    x = _ones_input(c=2, h=4, w=4, raw=32767)
    step = mock.Mock(wraps=fxp.sat_add)
    out, counter, acc = _oracle(spec, x, sat_add=step)
    assert step.called == bool(over)
    assert acc.tolist() == [[[INT32_MAX] * 2] * 2, [[-INT32_MAX - over] * 2] * 2]
    assert counter.saturations == 8 + 4 * over  # all 8 outputs clip to 16 bits
    assert (out, counter) == _oracle(spec, x, **_ORDERED)[:2]


def test_oracle_accumulator_at_int32_min_blocks_the_product():
    # one channel per group. The layer bound, 2e9 + 32768 * 32767 + 1,
    # passes INT32_MAX, so the run takes the ordered step per (channel,
    # tap): channel 0's term pushes the bias past INT32_MIN and clips,
    # and channel 1's -1 terms, taken from an accumulator at INT32_MIN,
    # clip again. A product from there would carry the accumulators
    # below INT32_MIN unclamped
    w = np.array([[[[-32768]], [[-1]]]], dtype=np.int16)
    spec = _layer(in_c=2, out_c=1, k=1, w_vals=w,
                  bias=np.array([-2_000_000_000], dtype=np.int32))
    data = np.ones((2, 2, 2), dtype=np.int16)
    data[0] = 32767
    x = QTensor((2, 2, 2), Q8_8, data)
    step = mock.Mock(wraps=fxp.sat_add)
    out, counter, acc = _oracle(spec, x, 8 * 4, sat_add=step)
    assert step.call_count == 2
    assert [call.args[1].max() for call in step.call_args_list] == [-32768 * 32767, -1]
    assert acc.tolist() == [[[fxp.INT32_MIN] * 2] * 2]
    assert counter.saturations == 4 + 4 + 4  # two clipping groups, then 16 bits
    assert (out, counter) == _oracle(spec, x, **_ORDERED)[:2]


@settings(deadline=None, max_examples=60)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1, 2)),
    sparsity=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    in_c=st.integers(1, 5),
    planted=st.integers(0, 2**5 - 1),
    edge=st.sampled_from((None, -1, 0, 1)),
    seed=st.integers(0, 2**32 - 1),
)
def test_both_engines_take_the_route_of_one_layer_proof(k, stride, pad, sparsity, in_c,
                                                        planted, edge, seed):
    # each engine asks `layer_no_clip` once per layer run, on each
    # channel's largest |value|. A channel of the `planted` mask holds
    # -32768, whose int16 magnitude wraps; with ``edge`` set, output
    # channel 0's bias puts its bound at INT32_MAX + edge. Both engines
    # must get the answer of the bound in Python ints. Without the proof
    # the zero-skip takes one ordered step per (channel, tap) that some
    # pixel feeds an output through and the oracle one per (channel,
    # tap); with it, neither takes a step
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, sparsity=sparsity, in_c=in_c)
    data = x.data.copy()
    for ch in range(in_c):
        if planted >> ch & 1:
            data[ch].reshape(-1)[rng.integers(data[ch].size)] = -32768
    x = QTensor(x.dims, x.fmt, data)
    peak = [max(abs(int(v)) for v in ch.reshape(-1)) for ch in data]
    terms = [sum(abs(int(wv)) * peak[ch] for ch, taps in enumerate(row) for wv in taps.reshape(-1))
             for row in spec.weights.data]
    if edge is not None:
        spec.bias[0] = min(max(INT32_MAX + edge - terms[0], 0), INT32_MAX)
    bound = max(abs(int(b)) + t for b, t in zip(spec.bias, terms))
    proofs = []
    layer_no_clip = conv_mod.layer_no_clip

    def recorded(*args):
        proofs.append(layer_no_clip(*args))
        return proofs[-1]

    with mock.patch.object(conv_mod, "layer_no_clip", recorded):
        with mock.patch.object(conv_mod, "sat_add", wraps=fxp.sat_add) as step:
            res = conv_zeroskip(spec, encode_sm(x))
        with mock.patch.object(conv_mod, "sat_add", wraps=fxp.sat_add) as oracle_step:
            want = conv_dense_oracle(spec, x)
    assert proofs == [bound <= INT32_MAX] * 2
    assert step.call_count == (0 if proofs[1] else len(_hit_pairs(spec, x)))
    assert oracle_step.call_count == (0 if proofs[1] else in_c * k * k)
    assert decode_sm(res.output) == want

# --- work accounting ---------------------------------------------------------------

def _brute_force_real_macs(spec, x):
    """Count (output, tap) pairs whose input pixel exists and is non-zero."""
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    n = 0
    for oy in range(h_out):
        for ox in range(w_out):
            for ky in range(spec.kernel_h):
                for kx in range(spec.kernel_w):
                    y = oy * spec.stride + ky - spec.pad
                    xq = ox * spec.stride + kx - spec.pad
                    if 0 <= y < h and 0 <= xq < w:
                        for ic in range(c):
                            if x.data[ic, y, xq] != 0:
                                n += spec.out_channels
    return n


@settings(deadline=None, max_examples=25)
@given(st.integers(0, 2**32 - 1))
def test_executed_macs_match_brute_force(seed):
    rng = make_rng(seed)
    spec, x = conv_case(rng, max_hw=7, max_c=3)
    res = conv_zeroskip(spec, encode_sm(x))
    assert res.counters.macs_executed == _brute_force_real_macs(spec, x)
    assert res.pixels_visited == encode_sm(x).nnz


def test_dense_equivalent_counts_every_tap():
    spec, _ = conv_case(make_rng(3), k=3, stride=1, pad=0, pool=False)
    h, w = 8, 9
    assert spec.dense_equivalent_macs(h, w) == (
        6 * 7 * spec.out_channels * 9 * spec.in_channels)


def test_full_input_without_pad_reaches_parity():
    rng = make_rng(11)
    spec, x = conv_case(rng, pad=0, sparsity=0.0)
    res = conv_zeroskip(spec, encode_sm(x))
    assert res.counters.macs_executed == res.counters.macs_dense_equivalent


# --- trace contract ------------------------------------------------------------------

def test_pooled_layer_never_writes_full_resolution():
    rng = make_rng(5)
    spec, x = conv_case(rng, k=3, stride=1, pad=1, pool=True, relu=True,
                        sparsity=0.5, max_hw=10)
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    full_res_words = spec.out_channels * h_out * w_out
    res = conv_zeroskip(spec, encode_sm(x))
    writes = [(region, nwords) for region, kind, tag, _, _, nwords in res.accesses.runs()
              if kind == "write" and tag == "activations"]
    assert writes, "layer must write its output"
    assert all(nwords < full_res_words for _, nwords in writes)
    pooled_words = res.output.total_pixels
    assert ("SRAM", pooled_words) in writes
    assert ("DRAM", res.output.payload_words) in writes


def test_traffic_scales_with_compression():
    rng = make_rng(9)
    spec, x = conv_case(rng, sparsity=0.8, pool=False)
    sfm = encode_sm(x)
    sparse = conv_zeroskip(spec, sfm)
    dense = conv_dense_run(spec, sfm)
    def dram_input_words(trace):
        return sum(r[5] for r in trace.runs() if r[:3] == ("DRAM", "read", "activations"))

    s_in = dram_input_words(sparse.accesses)
    d_in = dram_input_words(dense.accesses)
    assert s_in == sfm.payload_words
    assert d_in == x.size
    assert s_in < d_in
    assert decode_sm(sparse.output) == decode_sm(dense.output)


# --- layer spec validation ------------------------------------------------------------

def test_spec_rejects_bad_geometry():
    with pytest.raises(ShapeMismatch, match="fit"):
        _layer(k=5).out_dims(3, 3)
    with pytest.raises(ShapeMismatch, match="pool"):
        _layer(k=3, pool="max2x2").pooled_dims(3, 3)
    with pytest.raises(ShapeMismatch, match="stride"):
        _layer(stride=0)
    with pytest.raises(ShapeMismatch, match="pool mode"):
        _layer(pool="avg")
    with pytest.raises(ShapeMismatch, match="bias"):
        _layer(bias=np.zeros(3, dtype=np.int32))


@pytest.mark.parametrize("value", [INT32_MAX + 1, INT32_MIN - 1])
def test_spec_refuses_an_int64_bias_past_int32(value):
    # np.asarray(bias, dtype=np.int32) wrapped it silently
    with pytest.raises(MalformedStream, match=f"bias: {value} is past the int32 range"):
        _layer(bias=np.array([value], dtype=np.int64))
    edge = INT32_MAX if value > 0 else INT32_MIN
    assert _layer(bias=np.array([edge], dtype=np.int64)).bias.tolist() == [edge]


def test_engines_reject_wrong_channel_count():
    spec = _layer(in_c=2)
    x = _ones_input(c=1)
    with pytest.raises(ShapeMismatch):
        conv_dense_oracle(spec, x)
    with pytest.raises(ShapeMismatch):
        conv_zeroskip(spec, encode_sm(x))


# --- stacked networks -------------------------------------------------------------------

def test_network_modes_agree_and_advance_weight_base():
    rng = make_rng(21)
    from sparsebench.synth import random_weights, sparse_map

    layers = []
    in_c = 2
    for out_c in (3, 2, 4):
        layers.append(ConvLayerSpec(
            in_c, out_c, 3, 3, 1, 1,
            random_weights((out_c, in_c, 3, 3), rng, Q8_8, 0.5),
            np.zeros(out_c, dtype=np.int32), True, "none", Q8_8))
        in_c = out_c
    x = sparse_map(2, 10, 10, 0.6, rng, amp=2.0)

    sparse_run, sparse_out = run_network(layers, encode_sm(x), "sparse")
    dense_run, dense_out = run_network(layers, encode_sm(x), "dense")
    assert decode_sm(sparse_out) == decode_sm(dense_out)
    assert sparse_run.counters.macs_executed <= dense_run.counters.macs_executed

    weight_reads = [(r[3], r[4]) for r in sparse_run.trace.runs()
                    if r[:3] == ("DRAM", "read", "weights")]
    sizes = [l.weight_words + l.bias_words for l in layers]
    assert weight_reads == [(0, 0), (1, sizes[0]), (2, sizes[0] + sizes[1])]
    # every row carries its layer's index, in layer order
    layer_col = [r[3] for r in sparse_run.trace.runs()]
    assert layer_col == sorted(layer_col)
    assert [len(sparse_run.trace.select_layer(i)) for i in range(3)] == [
        len(r.accesses) for r in sparse_run.layer_results]
    assert sparse_run.peak_live_bytes == max(
        r.live_bytes for r in sparse_run.layer_results)
    assert len(sparse_run.per_layer_sparsity) == 3


@settings(deadline=None, max_examples=40)
@given(st.integers(0, 2**32 - 1), st.sampled_from(("sparse", "dense")))
def test_per_layer_sparsity_is_the_output_maps_zero_share(seed, mode):
    # the zero share from each output map's counts is the one measured on
    # the decoded output, to the last bit; inputs of sparsity 0 and 1 included
    rng = make_rng(seed)
    spec, x = conv_case(rng)
    out_c = int(rng.integers(1, 4))
    second = ConvLayerSpec(spec.out_channels, out_c, 1, 1, 1, 0,
                           random_weights((out_c, spec.out_channels, 1, 1), rng, Q8_8, 0.5),
                           np.zeros(out_c, dtype=np.int32), True, "none", Q8_8)
    run, _ = run_network([spec, second], encode_sm(x), mode)
    assert run.per_layer_sparsity == [
        measure_sparsity(decode_sm(r.output)).sparsity for r in run.layer_results]


def test_network_rejects_broken_chain_and_bad_mode():
    rng = make_rng(2)
    from sparsebench.synth import random_weights, sparse_map

    l1 = ConvLayerSpec(2, 3, 3, 3, 1, 1,
                       random_weights((3, 2, 3, 3), rng, Q8_8, 0.5),
                       np.zeros(3, dtype=np.int32), False, "none", Q8_8)
    l2 = ConvLayerSpec(4, 2, 3, 3, 1, 1,
                       random_weights((2, 4, 3, 3), rng, Q8_8, 0.5),
                       np.zeros(2, dtype=np.int32), False, "none", Q8_8)
    x = encode_sm(sparse_map(2, 8, 8, 0.5, rng))
    with pytest.raises(ShapeMismatch, match="layer 1"):
        run_network([l1, l2], x)
    with pytest.raises(ValueError, match="mode"):
        run_network([l1], x, "fast")
