"""Zero-skipping convolution engine with fused ReLU and max-pooling.

Two computation paths share one fixed-point pipeline (32-bit saturating
accumulators, ties-to-even renormalization):

* conv_dense_oracle: gather-style reference that multiplies every
  (output position, kernel element) pair, padded zeros included.
* conv_zeroskip: input-stationary scatter from the non-zero pixels of a
  compressed input to only the accumulators each one feeds. Skipped
  pixels cost no modeled MAC: the MAC count is the (non-zero pixel,
  tap) hits times the output channels. On the host, each group of
  input channels goes through `fxp.sat_matvec`, the one primitive that
  may drop the per-term clamp: one float64 BLAS product, zeros
  included, when its bound holds, and the ordered steps otherwise.

Both define each output as its terms added in the same order (input
channel, then kernel row, then kernel column), clamped after each, and
adding zero to a saturating accumulator is the identity, so the two
paths agree bit-exactly even when intermediate sums clip. The oracle
always clamps, with its own `sat_add` loop, so the check stays
independent of `sat_matvec`.

ReLU and 2x2 pooling are fused after accumulation: the window maximum
is taken on the 32-bit plane and clamped once, so no full-resolution
post-activation map is ever written to the modeled memory.
"""

from dataclasses import dataclass

import numpy as np

from .codec import (SparseFeatureMap, SparsityStats, decode_sm, encode_sm,
                    measure_sparsity, nonzero_arrays)
from .errors import ShapeMismatch
from .fxp import OpCounter, QFormat, QTensor, renormalize_array, sat_add, sat_matvec
from .trace import AccessTrace, triple_code

POOL_MODES = ("none", "max2x2")

# A layer run's six trace rows, in order (see _layer_result).
_LAYER_TRIPLES = np.array([triple_code(*t) for t in (
    ("DRAM", "read", "weights"), ("DRAM", "read", "activations"),
    ("SRAM", "read", "weights"), ("SRAM", "read", "activations"),
    ("SRAM", "write", "activations"), ("DRAM", "write", "activations"))])

# The zero-skip engine's float64 slab (see conv_zeroskip) is capped near
# this size; each channel group holds at least one channel.
_SLAB_BYTES = 2 << 20


@dataclass
class ConvLayerSpec:
    in_channels: int
    out_channels: int
    kernel_h: int
    kernel_w: int
    stride: int
    pad: int
    weights: QTensor              # (out_c, in_c, kh, kw)
    bias: np.ndarray              # int32, accumulator scale, length out_c
    relu: bool
    pool: str                     # "none" | "max2x2"
    out_fmt: QFormat

    def __post_init__(self):
        expect = (self.out_channels, self.in_channels, self.kernel_h, self.kernel_w)
        if self.weights.dims != expect:
            raise ShapeMismatch(
                f"weight dims {self.weights.dims} do not match layer {expect}")
        if self.stride < 1:
            raise ShapeMismatch(f"stride must be >= 1, got {self.stride}")
        if self.pad < 0:
            raise ShapeMismatch(f"pad must be >= 0, got {self.pad}")
        if self.pool not in POOL_MODES:
            raise ShapeMismatch(f"unknown pool mode {self.pool!r}")
        self.bias = np.asarray(self.bias, dtype=np.int32)
        if self.bias.shape != (self.out_channels,):
            raise ShapeMismatch(
                f"bias length {self.bias.shape} does not match out_channels")

    def out_dims(self, h: int, w: int) -> tuple[int, int]:
        """Post-convolution spatial dims, before pooling."""
        h_out = (h + 2 * self.pad - self.kernel_h) // self.stride + 1
        w_out = (w + 2 * self.pad - self.kernel_w) // self.stride + 1
        if h_out < 1 or w_out < 1:
            raise ShapeMismatch(
                f"kernel {self.kernel_h}x{self.kernel_w} does not fit input {h}x{w}")
        return h_out, w_out

    def pooled_dims(self, h: int, w: int) -> tuple[int, int]:
        """Final spatial dims; 2x2 pooling floors away odd edges."""
        h_out, w_out = self.out_dims(h, w)
        if self.pool == "max2x2":
            h_out, w_out = h_out // 2, w_out // 2
            if h_out < 1 or w_out < 1:
                raise ShapeMismatch("output too small to pool 2x2")
        return h_out, w_out

    @property
    def weight_words(self) -> int:
        return self.out_channels * self.in_channels * self.kernel_h * self.kernel_w

    @property
    def bias_words(self) -> int:
        return 2 * self.out_channels  # 32-bit biases, 16-bit words

    def dense_equivalent_macs(self, h: int, w: int) -> int:
        h_out, w_out = self.out_dims(h, w)
        return (h_out * w_out * self.out_channels
                * self.kernel_h * self.kernel_w * self.in_channels)


@dataclass
class LayerRunResult:
    output: SparseFeatureMap
    counters: OpCounter
    accesses: AccessTrace
    output_sparsity: SparsityStats
    pixels_visited: int = 0   # input pixels read: nnz for zero-skip, all for dense
    live_bytes: int = 0       # input + output + weight buffer footprint


def fused_relu_pool(acc: np.ndarray, relu: bool, pool: str,
                    counter: OpCounter) -> np.ndarray:
    """Reduce a (C, H, W) 32-bit accumulator plane by 2x2 max and/or ReLU
    in one pass.

    Pooling takes the window maximum first and clamps once: max commutes
    with the monotone clamp, so this equals relu-then-pool while doing a
    quarter of the clamps. Odd trailing rows or columns are dropped when
    pooling.
    """
    out = acc
    if pool == "max2x2":
        c, h, w = acc.shape
        ph, pw = h // 2, w // 2
        out = acc[:, : 2 * ph, : 2 * pw].reshape(c, ph, 2, pw, 2).max(axis=(2, 4))
        counter.comparisons += 3 * out.size
    if relu:
        out = np.maximum(out, 0)
        counter.comparisons += out.size
    return out.astype(np.int64)


def _layer_result(spec: ConvLayerSpec, layer: int, weight_base: int,
                  counter: OpCounter, out_tensor: QTensor, out_sfm: SparseFeatureMap,
                  in_words: int, out_words: int, values_read: int) -> LayerRunResult:
    """A layer run and its traffic, rows in the given layer: weights and
    input stream in from DRAM, SRAM serves values_read input values and a
    weight per MAC, output values land in SRAM and stream out to DRAM.
    Accumulators are untraced."""
    params = spec.weight_words + spec.bias_words
    in_base = weight_base + params
    trace = AccessTrace.from_columns(
        _LAYER_TRIPLES, layer, [weight_base, in_base, 0, 0, 0, in_base + in_words],
        [params, in_words, counter.macs_executed, values_read, out_tensor.size, out_words])
    live = 2 * (in_words + out_words + params)
    return LayerRunResult(out_sfm, counter, trace, measure_sparsity(out_tensor),
                          values_read, live)


def _finish_layer(spec: ConvLayerSpec, acc: np.ndarray, h: int, w: int,
                  in_fmt: QFormat, counter: OpCounter) -> QTensor:
    """Shared tail: fused ReLU/pool on accumulators, then renormalize."""
    reduced = fused_relu_pool(acc, spec.relu, spec.pool, counter)
    frac_in = in_fmt.frac_bits + spec.weights.fmt.frac_bits
    vals = renormalize_array(reduced, frac_in, spec.out_fmt, counter)
    ph, pw = spec.pooled_dims(h, w)
    return QTensor((spec.out_channels, ph, pw), spec.out_fmt,
                   vals.reshape(-1).copy())


def conv_dense_oracle(spec: ConvLayerSpec, x: QTensor,
                      counter: OpCounter | None = None) -> QTensor:
    """Reference convolution over every position, padded zeros included.

    Accumulation order per output is (in channel, kernel row, kernel
    column) with saturation after every term, matching the zero-skip
    path exactly.
    """
    if len(x.dims) != 3 or x.dims[0] != spec.in_channels:
        raise ShapeMismatch(
            f"input dims {x.dims} do not match {spec.in_channels} channels")
    counter = counter if counter is not None else OpCounter()
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    s, p = spec.stride, spec.pad
    acc = np.broadcast_to(
        spec.bias[:, None, None], (spec.out_channels, h_out, w_out)
    ).astype(np.int32).copy()
    counter.adds += acc.size
    # A padded zero adds a zero term, which cannot clip, so every tap
    # takes its strided window of the padded input over the whole plane.
    xv = np.pad(x.data.reshape(c, h, w).astype(np.int64), ((0, 0), (p, p), (p, p)))
    wv = spec.weights.data.reshape(spec.weights.dims).astype(np.int64)
    for ic in range(c):
        for ky in range(spec.kernel_h):
            for kx in range(spec.kernel_w):
                xs = xv[ic, ky: ky + (h_out - 1) * s + 1: s, kx: kx + (w_out - 1) * s + 1: s]
                counter.saturations += sat_add(acc, wv[:, ic, ky, kx][:, None, None] * xs[None])
    n_dense = spec.dense_equivalent_macs(h, w)
    counter.macs_executed += n_dense
    counter.macs_dense_equivalent += n_dense
    return _finish_layer(spec, acc, h, w, x.fmt, counter)


def _tap_targets(pos: np.ndarray, k: int, pad: int, stride: int,
                 n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Output coordinate that each input coordinate feeds through kernel
    offset k, and whether that output exists."""
    o, r = np.divmod(pos + pad - k, stride)
    return o, (r == 0) & (o >= 0) & (o < n_out)


def _tap_hits(spec: ConvLayerSpec, ys: np.ndarray, xs: np.ndarray,
              h_out: int, w_out: int):
    """For each kernel tap in (row, column) order: its index ky * kw + kx,
    the pixels (of ``ys``, ``xs``) that feed an output through it, and
    those outputs' flat positions. Distinct pixels of one channel feed
    distinct outputs under one tap."""
    s, p = spec.stride, spec.pad
    rows = [_tap_targets(ys, ky, p, s, h_out) for ky in range(spec.kernel_h)]
    cols = [_tap_targets(xs, kx, p, s, w_out) for kx in range(spec.kernel_w)]
    for ky, (oy, row_ok) in enumerate(rows):
        row_pos = oy * w_out
        for kx, (ox, col_ok) in enumerate(cols):
            hit = np.flatnonzero(row_ok & col_ok)
            yield ky * spec.kernel_w + kx, hit, row_pos[hit] + ox[hit]


def conv_zeroskip(spec: ConvLayerSpec, sfm: SparseFeatureMap,
                  weight_base: int = 0, layer: int = 0) -> LayerRunResult:
    """Accumulate from the non-zero pixels of a compressed input.

    Each non-zero pixel feeds exactly the output positions whose
    receptive field contains it, for every output channel; no other
    term is formed or counted as a MAC. In one (input channel, kernel
    tap), distinct pixels feed distinct outputs, so each group of input
    channels' hits are scattered into a zeroed slab with one row per
    (channel, tap) and one column per output position, and no two hits
    share a cell. With ``W2`` the weights as (out_c, in_c * kh * kw), one
    ``sat_matvec(acc, W2[:, rows], |W2|[:, rows], slab)`` per group adds
    them to the accumulators, which start at the bias. Rows ascending,
    over ascending groups, are the oracle's (channel, kernel row, kernel
    column) term order, so the result is bit-identical to the dense
    oracle on the decoded input, whether a group takes the proven
    product or the ordered steps. Its trace rows carry ``layer``.
    """
    if sfm.dims[0] != spec.in_channels:
        raise ShapeMismatch(
            f"input dims {sfm.dims} do not match {spec.in_channels} channels")
    counter = OpCounter()
    c, h, w = sfm.dims
    h_out, w_out = spec.out_dims(h, w)
    taps, n_out = spec.kernel_h * spec.kernel_w, h_out * w_out
    counter.adds += spec.out_channels * n_out

    cs, ys, xs, vals = nonzero_arrays(sfm)
    starts = np.searchsorted(cs, np.arange(c + 1)).tolist()
    w2 = spec.weights.data.reshape(spec.out_channels, -1).astype(np.float64)
    w2_abs = np.abs(w2)
    acc = np.repeat(spec.bias.astype(np.int64)[:, None], n_out, axis=1)
    group = max(1, _SLAB_BYTES // (8 * taps * n_out))
    buf = np.empty((min(group, c) * taps, n_out))  # one slab, reused
    for c0 in range(0, c, group):
        c1 = min(c0 + group, c)
        a, b = starts[c0], starts[c1]
        if a == b:
            continue
        v = vals[a:b]
        cell = (cs[a:b] - c0) * (taps * n_out)  # each pixel's first slab cell
        slab = buf[:(c1 - c0) * taps]
        slab.fill(0)
        flat = slab.reshape(-1)
        for tap, hit, pos in _tap_hits(spec, ys[a:b], xs[a:b], h_out, w_out):
            flat[cell[hit] + tap * n_out + pos] = v[hit]
            counter.macs_executed += hit.size * spec.out_channels
        rows = slice(c0 * taps, c1 * taps)
        counter.saturations += sat_matvec(acc, w2[:, rows], w2_abs[:, rows], slab)

    counter.macs_dense_equivalent += spec.dense_equivalent_macs(h, w)
    out_tensor = _finish_layer(spec, acc.reshape(spec.out_channels, h_out, w_out),
                               h, w, sfm.fmt, counter)
    out_sfm = encode_sm(out_tensor)
    # The input and the pooled output travel compressed.
    return _layer_result(spec, layer, weight_base, counter, out_tensor, out_sfm,
                         sfm.payload_words, out_sfm.payload_words, sfm.nnz)


def conv_dense_run(spec: ConvLayerSpec, sfm: SparseFeatureMap,
                   weight_base: int = 0, layer: int = 0) -> LayerRunResult:
    """Dense-mode layer run: same math, no skipping, uncompressed traffic."""
    x = decode_sm(sfm)
    counter = OpCounter()
    out_tensor = conv_dense_oracle(spec, x, counter)
    return _layer_result(spec, layer, weight_base, counter, out_tensor,
                         encode_sm(out_tensor), x.size, out_tensor.size, x.size)


@dataclass
class ConvNetRun:
    """A network run: each layer's result. The run's counters, trace and
    peak buffer footprint are derived from them."""

    layer_results: list[LayerRunResult]

    @property
    def counters(self) -> OpCounter:
        """The layer counters summed."""
        total = OpCounter()
        for r in self.layer_results:
            total.merge(r.counters)
        return total

    @property
    def trace(self) -> AccessTrace:
        """Every layer's rows, layer after layer."""
        return AccessTrace.concat(r.accesses for r in self.layer_results)

    @property
    def peak_live_bytes(self) -> int:
        return max((r.live_bytes for r in self.layer_results), default=0)

    @property
    def per_layer_sparsity(self) -> list[float]:
        return [r.output_sparsity.sparsity for r in self.layer_results]


def run_network(layers: list[ConvLayerSpec], x: SparseFeatureMap,
                mode: str = "sparse") -> tuple[ConvNetRun, SparseFeatureMap]:
    """Run stacked conv layers on a compressed map, as given to both
    engines; only one layer's buffers are live at a time.

    Each layer's trace rows carry its index.
    """
    if mode not in ("sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    dims = x.dims
    for i, spec in enumerate(layers):
        if dims[0] != spec.in_channels:
            raise ShapeMismatch(
                f"layer {i} expects {spec.in_channels} channels, chain gives {dims[0]}")
        ph, pw = spec.pooled_dims(dims[1], dims[2])
        dims = (spec.out_channels, ph, pw)

    engine = conv_zeroskip if mode == "sparse" else conv_dense_run
    results = []
    cur = x
    weight_base = 0
    for i, spec in enumerate(layers):
        res = engine(spec, cur, weight_base, i)
        weight_base += spec.weight_words + spec.bias_words
        results.append(res)
        cur = res.output
    return ConvNetRun(results), cur
