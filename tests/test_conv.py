"""Zero-skipping convolution against the dense reference, plus fused pooling."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _synthcases import conv_case
from sparsebench import conv as conv_mod
from sparsebench import fxp
from sparsebench.codec import decode_sm, encode_sm
from sparsebench.conv import (
    ConvLayerSpec,
    conv_dense_oracle,
    conv_dense_run,
    conv_zeroskip,
    fused_relu_pool,
    run_network,
)
from sparsebench.errors import ShapeMismatch
from sparsebench.fxp import INT32_MAX, Q2_14, Q8_8, OpCounter, QTensor
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
       st.integers(1, 9), st.integers(1, 9))
def test_fused_equals_two_pass_reference(seed, relu, c, h, w):
    rng = make_rng(seed)
    acc = rng.integers(-(2**31), 2**31, size=(c, h, w)).astype(np.int32)
    fused = fused_relu_pool(acc, relu, "max2x2", OpCounter())
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
    # full-scale weights and inputs: the no-clip bound almost always
    # fails, so the ordered per-step clamp runs and must still equal the
    # oracle; the slab cap is set so all channels form one group (an
    # input amplitude of 127.99609375 is the Q8.8 maximum)
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool, relu=relu,
                        sparsity=0.5, w_amp=128.0, x_amp=127.99609375, bias_amp=30000.0)
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    one_group = 8 * c * k * k * h_out * w_out
    with mock.patch.object(conv_mod, "_SLAB_BYTES", one_group), \
            mock.patch.object(fxp, "sat_add", wraps=fxp.sat_add) as step:
        res = conv_zeroskip(spec, encode_sm(x))
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters.saturations == counter.saturations
    # the group's bound: per output channel, |bias| plus each (channel,
    # tap) weight's magnitude times the largest |value| that tap reads
    padded = np.pad(np.abs(x.data.astype(np.int64)), ((0, 0), (pad, pad), (pad, pad)))
    reach = [padded[:, ky:ky + stride * (h_out - 1) + 1:stride,
                    kx:kx + stride * (w_out - 1) + 1:stride].max(axis=(1, 2))
             for ky in range(k) for kx in range(k)]
    row_peak = np.stack(reach, axis=1).reshape(-1)  # (channel, tap) order
    w_abs = np.abs(spec.weights.data.astype(np.int64)).reshape(spec.out_channels, -1)
    proven = (np.abs(spec.bias.astype(np.int64)) + w_abs @ row_peak).max() <= INT32_MAX
    assert step.called == (not proven and res.counters.macs_executed > 0)


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

    monkeypatch.setattr(fxp, "sat_add", step)
    res = conv_zeroskip(spec, encode_sm(x))
    monkeypatch.undo()
    assert clips and sum(clips) == 0
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
    x = sparse_map(32, 24, 24, 0.8, rng, Q8_8, amp=1.0)
    monkeypatch.setattr(fxp, "sat_add", _refuse)
    res = conv_zeroskip(spec, encode_sm(x))
    monkeypatch.undo()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x)
    assert res.counters.saturations == 0


def _refuse(*args):
    raise AssertionError("ordered fallback ran")


def _accumulators(spec, sfm, slab_bytes=conv_mod._SLAB_BYTES, **patches):
    """conv_zeroskip's result and the int64 accumulators it renormalized,
    with the slab cap set and the given fxp module attributes patched."""
    with mock.patch.object(conv_mod, "_finish_layer", wraps=conv_mod._finish_layer) as fin, \
            mock.patch.object(conv_mod, "_SLAB_BYTES", slab_bytes), \
            mock.patch.multiple(fxp, **patches):
        res = conv_zeroskip(spec, sfm)
    return res, fin.call_args.args[1]


@settings(deadline=None, max_examples=80)
@given(
    k=st.sampled_from((1, 3, 5)),
    stride=st.sampled_from((1, 2)),
    pad=st.sampled_from((0, 1, 2)),
    pool=st.booleans(),
    relu=st.booleans(),
    sparsity=st.sampled_from((0.0, 0.5, 0.8, 1.0)),
    in_c=st.integers(1, 7),
    group=st.integers(1, 3),
    empty_group=st.integers(-1, 3),
    seed=st.integers(0, 2**32 - 1),
)
def test_fast_path_equals_the_ordered_loop(k, stride, pad, pool, relu, sparsity,
                                           in_c, group, empty_group, seed):
    # the slab cap is set so each group holds `group` channels (the last
    # group fewer when `group` does not divide in_c), and one group's
    # channels may all be zero
    rng = make_rng(seed)
    spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool, relu=relu,
                        sparsity=sparsity, in_c=in_c)
    data = x.data.copy()
    data[max(0, empty_group * group):(empty_group + 1) * group] = 0
    sfm = encode_sm(QTensor(x.dims, x.fmt, data))
    h_out, w_out = spec.out_dims(*x.dims[1:])
    channel_bytes = 8 * k * k * h_out * w_out
    slab = group * channel_bytes + int(rng.integers(channel_bytes))
    fast, fast_acc = _accumulators(spec, sfm, slab, sat_add=_refuse)
    ordered, ordered_acc = _accumulators(spec, sfm, no_clip=lambda *args: False)
    assert fast_acc.dtype == ordered_acc.dtype == np.int64
    assert np.array_equal(fast_acc, ordered_acc)
    assert fast.counters == ordered.counters
    assert np.array_equal(fast.accesses.table, ordered.accesses.table)
    assert decode_sm(fast.output) == decode_sm(ordered.output) == conv_dense_oracle(
        spec, decode_sm(sfm))


@pytest.mark.parametrize("over", [0, 1])
def test_bound_at_int32_max_is_the_last_one_on_the_fast_path(over):
    # pad 0: each output takes all 18 terms, 18 * 3641 * 32767 = INT32_MAX - 1,
    # so with bias +-1 the bound and channel 0's sum are INT32_MAX exactly;
    # one more and the ordered loop runs, channel 0 clipping at every output
    w = np.full((2, 2, 3, 3), 3641, dtype=np.int16)
    w[1] = -3641
    spec = _layer(in_c=2, out_c=2, k=3, w_vals=w,
                  bias=np.array([1 + over, -1 - over], dtype=np.int32))
    x = _ones_input(c=2, h=4, w=4, raw=32767)
    step = mock.Mock(wraps=fxp.sat_add)
    res, acc = _accumulators(spec, encode_sm(x), sat_add=step)
    assert step.called == bool(over)
    assert acc.tolist() == [[[INT32_MAX] * 2] * 2, [[-INT32_MAX - over] * 2] * 2]
    counter = OpCounter()
    assert decode_sm(res.output) == conv_dense_oracle(spec, x, counter)
    assert res.counters == counter  # a full pad-0 map executes every MAC
    assert res.counters.saturations == 8 + 4 * over  # all 8 outputs clip to 16 bits


def test_one_group_proven_and_the_next_ordered():
    # one channel per group: channel 0's values are 1, so its group is
    # proven; channel 1's are 32767, and with the bias and channel 0's
    # sums in the accumulators its bound fails, so it takes the ordered
    # steps, clipping where all nine taps land
    w = np.full((2, 2, 3, 3), 3641, dtype=np.int16)
    w[1] = -3641
    spec = _layer(in_c=2, out_c=2, k=3, pad=1, w_vals=w,
                  bias=np.array([1_200_000_000, -1_200_000_000], dtype=np.int32))
    data = np.full((2, 4, 4), 32767, dtype=np.int16)
    data[0] = 1
    x = QTensor((2, 4, 4), Q8_8, data)
    ordered = mock.Mock(wraps=fxp.sat_columns)
    with mock.patch.object(conv_mod, "sat_matvec", wraps=fxp.sat_matvec) as routed:
        res, acc = _accumulators(spec, encode_sm(x), 8 * 9 * 16, sat_columns=ordered)
    assert routed.call_count == 2 and ordered.call_count == 1
    assert ordered.call_args.args[2].max() == 32767  # the second group's slab
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
    x = sparse_map(2, 10, 10, 0.6, rng, Q8_8, amp=2.0)

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
