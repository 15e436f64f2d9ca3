"""Zero-skipping convolution engine with fused ReLU and max-pooling.

Two engines share one fixed-point pipeline (32-bit saturating
accumulators, ties-to-even renormalization) and one no-clip proof per
layer run (`layer_no_clip`): `conv_dense_oracle`, an output-stationary
gather over every (output, tap) pair, padded zeros included, and
`conv_zeroskip`, an input-stationary shift-and-add from only the
non-zero pixels of a compressed input. Both define each output as its
terms added in (input channel, kernel row, kernel column) order, clamped
after each, and adding zero to a saturating accumulator is the
identity, so they agree bit-exactly even when sums clip; equal inputs
give equal peaks, so both take the same route. Their products share
only `sat_add`, so the sparse == dense check tests each by the other.

ReLU and 2x2 pooling are fused after accumulation: the window maximum
is taken on the 32-bit plane and clamped once, so no full-resolution
post-activation map is ever written to the modeled memory.
"""

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .codec import SparseFeatureMap, decode_sm, encode_sm, nonzero_arrays
from .errors import ShapeMismatch
from .fxp import (INT32_MAX, SLAB_BYTES, OpCounter, QFormat, QTensor, int32_array,
                  renormalize_array, sat_add)
from .trace import AccessTrace, triple_code

POOL_MODES = ("none", "max2x2")

# A layer run's six trace rows, in order (see _layer_result).
_LAYER_TRIPLES = np.array([triple_code(*t) for t in (
    ("DRAM", "read", "weights"), ("DRAM", "read", "activations"),
    ("SRAM", "read", "weights"), ("SRAM", "read", "activations"),
    ("SRAM", "write", "activations"), ("DRAM", "write", "activations"))])


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
        self.bias = int32_array(self.bias, "bias")
        if self.bias.shape != (self.out_channels,):
            raise ShapeMismatch(
                f"bias length {self.bias.shape} does not match out_channels")

    def out_dims(self, h: int, w: int) -> tuple[int, int]:
        """Post-convolution spatial dims, before pooling."""
        h_out = (h + 2 * self.pad - self.kernel_h) // self.stride + 1
        w_out = (w + 2 * self.pad - self.kernel_w) // self.stride + 1
        if h_out < 1 or w_out < 1:
            raise ShapeMismatch(
                f"kernel {self.kernel_h}x{self.kernel_w} does not fit a {h}x{w} plane "
                f"padded by {self.pad}")
        return h_out, w_out

    def pooled_dims(self, h: int, w: int) -> tuple[int, int]:
        """Final spatial dims; 2x2 pooling floors away odd edges."""
        h_out, w_out = self.out_dims(h, w)
        if self.pool == "max2x2":
            if h_out < 2 or w_out < 2:
                raise ShapeMismatch(f"its {h_out}x{w_out} output is too small to pool 2x2")
            h_out, w_out = h_out // 2, w_out // 2
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
        _, h, w = acc.shape
        a = acc[:, : h - h % 2, : w - w % 2]  # each window's four corners, strided
        out = np.maximum(np.maximum(a[:, 0::2, 0::2], a[:, 0::2, 1::2]),
                         np.maximum(a[:, 1::2, 0::2], a[:, 1::2, 1::2]))
        counter.comparisons += 3 * out.size
    if relu:
        out = np.maximum(out, 0)
        counter.comparisons += out.size
    return out.astype(np.int64)


def _layer_result(spec: ConvLayerSpec, layer: int, weight_base: int,
                  counter: OpCounter, out: SparseFeatureMap, in_words: int,
                  out_words: int, values_read: int) -> LayerRunResult:
    """A layer run and its traffic, rows in the given layer: weights and
    input stream in from DRAM, SRAM serves values_read input values and a
    weight per MAC, the output map's values (all its pixels) land in SRAM
    and stream out to DRAM. Accumulators are untraced."""
    params = spec.weight_words + spec.bias_words
    in_base = weight_base + params
    trace = AccessTrace.from_columns(
        _LAYER_TRIPLES, layer, [weight_base, in_base, 0, 0, 0, in_base + in_words],
        [params, in_words, counter.macs_executed, values_read, out.total_pixels, out_words])
    live = 2 * (in_words + out_words + params)
    return LayerRunResult(out, counter, trace, values_read, live)


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

    With `layer_no_clip` on each channel's largest |value| in ``x`` (a
    padded zero adds a zero term, so the bound caps the oracle's
    prefixes too), each group of input channels (`_channel_groups`) is
    copied into an im2col matrix, one row per (channel, kernel row,
    kernel column) and one column per output position, whose float64
    product with the weights is exact and clips nothing (the `fxp`
    accumulator comment). Otherwise each (channel, kernel row, kernel
    column), in term order, takes the ordered `sat_add` step over the
    whole output plane.
    """
    if len(x.dims) != 3 or x.dims[0] != spec.in_channels:
        raise ShapeMismatch(
            f"input dims {x.dims} do not match {spec.in_channels} channels")
    counter = counter if counter is not None else OpCounter()
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    s, p = spec.stride, spec.pad
    kh, kw = spec.kernel_h, spec.kernel_w
    taps = kh * kw
    acc = np.repeat(spec.bias.astype(np.int64)[:, None], h_out * w_out, axis=1)
    acc3 = acc.reshape(spec.out_channels, h_out, w_out)  # a view
    counter.adds += acc.size
    # A padded zero adds a zero term, which cannot clip, so every tap
    # takes its strided window of the padded input over the whole plane.
    xv = np.zeros((c, h + 2 * p, w + 2 * p), np.int64)  # np.pad costs ~10x this
    xv[:, p:p + h, p:p + w] = x.data
    wv = spec.weights.data.astype(np.int64)
    # int32, since abs(-32768) overflows int16
    peak = np.abs(x.data.reshape(c, -1), dtype=np.int32).max(axis=1)
    if layer_no_clip(spec, peak):
        # (channel, kernel row, kernel column, output row, output column)
        windows = sliding_window_view(xv, (kh, kw), axis=(1, 2))[:, ::s, ::s]
        windows = windows.transpose(0, 3, 4, 1, 2)
        w2 = wv.reshape(spec.out_channels, -1).astype(np.float64)
        groups, buf = _channel_groups(c, taps, h_out * w_out)
        for c0, c1 in groups:
            im2col = buf[:(c1 - c0) * taps]
            im2col.reshape(c1 - c0, kh, kw, h_out, w_out)[...] = windows[c0:c1]
            np.add(acc, w2[:, c0 * taps:c1 * taps] @ im2col, out=acc, casting="unsafe")
    else:
        for ic, ky, kx in np.ndindex(c, kh, kw):  # term order
            xs = xv[ic, ky: ky + (h_out - 1) * s + 1: s, kx: kx + (w_out - 1) * s + 1: s]
            counter.saturations += sat_add(acc3, wv[:, ic, ky, kx][:, None, None] * xs[None])
    n_dense = spec.dense_equivalent_macs(h, w)
    counter.macs_executed += n_dense
    counter.macs_dense_equivalent += n_dense
    return _finish_layer(spec, acc3, h, w, x.fmt, counter)


def _channel_groups(c: int, taps: int, n_out: int) -> tuple[list[tuple[int, int]], np.ndarray]:
    """The oracle's consecutive input channel ranges ``(c0, c1)``, each
    one's im2col matrix near ``SLAB_BYTES`` (at least one channel), and
    one buffer that holds the largest."""
    group = max(1, SLAB_BYTES // (8 * taps * n_out))
    buf = np.empty((min(group, c) * taps, n_out))
    return [(c0, min(c0 + group, c)) for c0 in range(0, c, group)], buf


def _tap_targets(pos: np.ndarray, k: int, pad: int, stride: int,
                 n_out: int) -> tuple[np.ndarray, np.ndarray]:
    """Output coordinate that each input coordinate feeds through kernel
    offset k, and whether that output exists."""
    o, r = np.divmod(pos + pad - k, stride)
    return o, (r == 0) & (o >= 0) & (o < n_out)


def _tap_hits(spec: ConvLayerSpec, ys: np.ndarray, xs: np.ndarray,
              h_out: int, w_out: int):
    """For each kernel tap in (row, column) order that some pixel (of
    ``ys``, ``xs``) feeds an output through: its index ky * kw + kx, those
    pixels, and their outputs' flat positions, distinct within a channel."""
    s, p = spec.stride, spec.pad
    rows = [_tap_targets(ys, ky, p, s, h_out) for ky in range(spec.kernel_h)]
    cols = [_tap_targets(xs, kx, p, s, w_out) for kx in range(spec.kernel_w)]
    for ky, (oy, row_ok) in enumerate(rows):
        row_pos = oy * w_out
        for kx, (ox, col_ok) in enumerate(cols):
            hit = np.flatnonzero(row_ok & col_ok)
            if hit.size:
                yield ky * spec.kernel_w + kx, hit, row_pos[hit] + ox[hit]


def _shift_add(spec: ConvLayerSpec, dims: tuple[int, int, int], pixels, h_out: int,
               w_out: int) -> np.ndarray:
    """The bias plus every term of every output, in float64, from the
    (c, y, x, value) ``pixels`` of a map of ``dims``, input-stationary:
    padded row ``oy * s + ky`` is row ``oy + ky // s`` of stride phase
    ``ky % s``, the sub-lattice ``plane[:, ky % s::s]`` of the padded
    float64 plane (at stride 1 the whole plane, no copy); columns
    likewise. The taps of a phase multiply its sub-lattice once, one
    product per chunk of taps that fits near ``SLAB_BYTES`` (at least
    one), and each tap's result is added at its offset as one flat
    window of accumulators laid out as the sub-lattice (its rows and
    columns past the outputs collect no output's terms)."""
    (c, h, w), (cs, ys, xs, vals) = dims, pixels
    s, p, kh, kw, out_c = spec.stride, spec.pad, spec.kernel_h, spec.kernel_w, spec.out_channels
    hm, wm = h_out + (kh - 1) // s, w_out + (kw - 1) // s  # the rows and columns any output reads
    rows = s * -(-max(h + 2 * p, s * hm) // s)  # padded, and hm rows in every phase
    cols = s * -(-max(w + 2 * p, s * wm) // s)
    plane = np.zeros((c, rows, cols))
    plane.reshape(-1)[(cs * rows + ys + p) * cols + xs + p] = vals
    # (tap, out_c, in_c): the weights each tap applies
    w_tap = spec.weights.data.transpose(2, 3, 0, 1).reshape(kh * kw, out_c, c).astype(np.float64)
    size = min(-(-kh // s) * -(-kw // s), max(1, SLAB_BYTES // (8 * out_c * hm * wm)))  # taps
    buf = np.empty((size * out_c, hm * wm))
    acc = np.repeat(spec.bias.astype(np.float64), hm * wm)  # flat (out_c, hm, wm)
    for py, px in np.ndindex(min(s, kh), min(s, kw)):
        lat = np.ascontiguousarray(plane[:, py::s, px::s][:, :hm, :wm]).reshape(c, hm * wm)
        taps = [(ky, kx) for ky in range(py, kh, s) for kx in range(px, kw, s)]
        for t0 in range(0, len(taps), size):
            chunk = taps[t0:t0 + size]
            wt = w_tap[[ky * kw + kx for ky, kx in chunk]].reshape(-1, c)
            prod = np.matmul(wt, lat, out=buf[:len(wt)]).reshape(len(chunk), -1)
            for (ky, kx), term in zip(chunk, prod):
                off = ky // s * wm + kx // s
                acc[:acc.size - off] += term[off:]  # an output's reads stay in its channel
    return acc.reshape(out_c, hm, wm)[:, :h_out, :w_out]


def layer_no_clip(spec: ConvLayerSpec, peak: np.ndarray) -> bool:
    """True when no ordered prefix of any output's terms can clip in a
    layer run, by either engine, whose input channel c holds no value
    larger than ``peak[c]`` in magnitude.

    An output takes at most one term per (input channel, tap), at most
    ``|W2[o, (c, tap)]| peak[c]`` in magnitude (a padded zero or a
    skipped pixel adds zero), so every prefix of its terms is within
    ``|bias| + |W2| @ repeat(peak, taps)``. That bound is computed in
    float64 and is exact when it passes (the `fxp` accumulator comment).
    """
    taps = spec.kernel_h * spec.kernel_w
    w2_abs = np.abs(spec.weights.data.reshape(spec.out_channels, -1), dtype=np.float64)
    bound = w2_abs @ np.repeat(peak, taps)
    bound += np.abs(spec.bias, dtype=np.float64)
    return bool(bound.max() <= INT32_MAX)


def conv_zeroskip(spec: ConvLayerSpec, sfm: SparseFeatureMap,
                  weight_base: int = 0, layer: int = 0) -> LayerRunResult:
    """Accumulate from the non-zero pixels of a compressed input, each
    into just the outputs it feeds; the MACs are those (pixel, tap) hits
    times the output channels. `layer_no_clip` on each channel's peak
    value picks the route. With it, `_shift_add` adds every term: each
    product entry sums some of one output's terms, so it and each
    partial sum is an exact integer below 2**31 (the `fxp` accumulator
    comment). Without it, each (input channel, kernel row, kernel
    column), in term order, is one ordered `sat_add` step over only the
    outputs that channel's pixels feed through that tap (`_tap_hits`):
    they are distinct, and a skipped zero adds zero, so every clamp is
    the oracle's. Its trace rows carry ``layer``.
    """
    if sfm.dims[0] != spec.in_channels:
        raise ShapeMismatch(
            f"input dims {sfm.dims} do not match {spec.in_channels} channels")
    counter = OpCounter()
    c, h, w = sfm.dims
    h_out, w_out = spec.out_dims(h, w)
    counter.adds += spec.out_channels * h_out * w_out

    cs, ys, xs, vals = nonzero_arrays(sfm)
    starts = np.searchsorted(cs, np.arange(c + 1))  # each channel's run of pixels
    filled = np.flatnonzero(np.diff(starts))
    peak = np.zeros(c)
    if filled.size:
        peak[filled] = np.maximum.reduceat(np.abs(vals), starts[filled])
    s, p = spec.stride, spec.pad
    # how many kernel rows (columns) each input row (column) feeds an output through
    n_rows = sum(_tap_targets(np.arange(h), ky, p, s, h_out)[1] for ky in range(spec.kernel_h))
    n_cols = sum(_tap_targets(np.arange(w), kx, p, s, w_out)[1] for kx in range(spec.kernel_w))
    counter.macs_executed += spec.out_channels * int(n_rows[ys] @ n_cols[xs])
    if layer_no_clip(spec, peak):
        acc = _shift_add(spec, sfm.dims, (cs, ys, xs, vals), h_out, w_out).astype(np.int64)
    else:
        acc = np.repeat(spec.bias.astype(np.int64)[:, None], h_out * w_out, axis=1)
        wv = spec.weights.data.reshape(spec.out_channels, c, -1).astype(np.int64)
        for ic in filled.tolist():
            a, b = starts[ic], starts[ic + 1]
            for tap, hit, pos in _tap_hits(spec, ys[a:b], xs[a:b], h_out, w_out):
                fed = acc[:, pos]  # a copy: distinct outputs, written back
                counter.saturations += sat_add(fed, np.outer(wv[:, ic, tap], vals[a + hit]))
                acc[:, pos] = fed

    counter.macs_dense_equivalent += spec.dense_equivalent_macs(h, w)
    acc = acc.reshape(spec.out_channels, h_out, w_out)
    out = encode_sm(_finish_layer(spec, acc, h, w, sfm.fmt, counter))
    # The input and the pooled output travel compressed.
    return _layer_result(spec, layer, weight_base, counter, out,
                         sfm.payload_words, out.payload_words, sfm.nnz)


def conv_dense_run(spec: ConvLayerSpec, sfm: SparseFeatureMap,
                   weight_base: int = 0, layer: int = 0) -> LayerRunResult:
    """Dense-mode layer run: same math, no skipping, uncompressed traffic."""
    x = decode_sm(sfm)
    counter = OpCounter()
    out = encode_sm(conv_dense_oracle(spec, x, counter))
    return _layer_result(spec, layer, weight_base, counter, out,
                         x.size, out.total_pixels, x.size)


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
        """Each layer output's share of zero pixels, from its map's counts."""
        return [(r.output.total_pixels - r.output.nnz) / r.output.total_pixels
                for r in self.layer_results]


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
