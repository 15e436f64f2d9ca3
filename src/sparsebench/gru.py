"""Delta-threshold GRU: sparse updates driven by significant changes.

The cell keeps pre-activation accumulators instead of recomputing gate
inputs each step. Inputs and hidden states are compared against the
last transmitted value; only components whose change exceeds theta emit
events, and each event adds one weight-matrix column (times the delta)
into the accumulators. With theta 0 the accumulated deltas telescope to
the dense matrix products, so outputs match the dense GRU bit-exactly
as long as nothing saturates.

Gate math, entirely in fixed point with shared lookup tables:

    r = sigmoid(W_xr x + W_hr h + b_r)
    u = sigmoid(W_xu x + W_hu h + b_u)
    c = tanh(W_xc x + b_c + r * (W_hc h))
    h' = (1 - u) * c + u * h

Activations are Q8.8; sigmoid and tanh are piecewise-linear lookups
over 1024 intervals on [-8, 8] with Q2.14 knot values, interpolated and
rounded ties-to-even, so every platform computes identical bits. The
interpolation is tabulated once, at import, for each of the 4096
arguments the Q8.8 domain clamp leaves.

Each layer's six matrices are used as two gate stacks, one per input
side, so a step makes one bound-checked matvec per side. The four
pre-activation accumulators live in one int64 vector laid out
[xc, r, u, hc]: the input side [W_xc; W_xr; W_xu] updates its first
three quarters and the hidden side [W_hr; W_hu; W_hc] its last three.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .codec import encode_delta
from .errors import MalformedStream, ShapeMismatch
from .fxp import (INT16_MAX, OpCounter, Q8_8, QScalar, QTensor, quantize,
                  round_shift_even, sat_add, sat_matvec)
from .trace import AccessTrace, triple_code

ACT_FMT = Q8_8
TABLE_LO = -8.0
TABLE_STEP = 1.0 / 64.0
TABLE_KNOTS = 1025
ACT_IN_MIN = -2048  # Q8.8 raw for -8.0
ACT_IN_MAX = 2047


def _build_table(fn) -> np.ndarray:
    xs = TABLE_LO + TABLE_STEP * np.arange(TABLE_KNOTS)
    vals = np.rint(fn(xs) * (1 << 14))
    return np.clip(vals, -32768, 32767).astype(np.int16)


SIGMOID_TABLE = _build_table(lambda x: 1.0 / (1.0 + np.exp(-x)))
TANH_TABLE = _build_table(np.tanh)


def _interpolate(knots: np.ndarray) -> np.ndarray:
    """The activation at every Q8.8 argument from ACT_IN_MIN to ACT_IN_MAX:
    linear between adjacent knots, four arguments to a knot interval,
    rounded ties-to-even."""
    off = np.arange(ACT_IN_MAX - ACT_IN_MIN + 1, dtype=np.int64)
    idx, frac = off >> 2, off & 3
    t = knots.astype(np.int64)
    return round_shift_even(t[idx] * (4 - frac) + t[idx + 1] * frac, 8).astype(np.int16)


SIGMOID_LUT = _interpolate(SIGMOID_TABLE)
TANH_LUT = _interpolate(TANH_TABLE)


def _rint_shift(values: np.ndarray, shift: int) -> np.ndarray:
    """values / 2**shift rounded to nearest, ties to even, as float64.

    For |values| < 2**53 the scaling by a power of two is exact and
    ``np.rint`` rounds ties to even, so this equals
    ``round_shift_even(values, shift)`` in fewer numpy calls. The gate
    tail only rounds int32 accumulators and products of them with Q8.8
    values (below 2**40).
    """
    return np.rint(values * 2.0 ** -shift)


def act_lookup(acc: np.ndarray, acc_frac: int, lut: np.ndarray) -> np.ndarray:
    """Evaluate a lookup activation on 32-bit accumulators, yielding Q8.8.

    The accumulator is renormalized to a Q8.8 raw argument (ties-to-even),
    clamped to the table domain, and looked up in ``lut`` (SIGMOID_LUT
    or TANH_LUT).
    """
    x = _rint_shift(acc, acc_frac - 8)
    x -= ACT_IN_MIN
    np.minimum(x, ACT_IN_MAX - ACT_IN_MIN, out=x)
    np.maximum(x, 0, out=x)
    return lut[x.astype(np.intp)]


@dataclass(frozen=True)
class GateStack:
    """One input side of a layer's weights, its matrices stacked by rows
    for one matvec, stored by column: row j of ``cols`` is column j of
    the stacked matrix, in float64 (exact, the values are int16), and
    ``cols_abs`` = |cols| for the no-clip bound.

    In memory the side's matrices of h rows and n columns lie one after
    another, each column-major, so column j of block m is a burst of h
    words at offset (m * n + j) * h from the side's base. The order of
    the stacked rows is the accumulator layout; it does not move the
    addresses.
    """

    cols: np.ndarray
    cols_abs: np.ndarray

    @classmethod
    def of(cls, mats) -> "GateStack":
        cols = np.ascontiguousarray(np.concatenate([m.data for m in mats]).T, np.float64)
        return cls(cols, np.abs(cols))


def quantize_theta(value: float) -> QScalar:
    """A delta threshold in Q8.8, rounded to nearest even; a value past
    the format's range raises ``MalformedStream`` instead of saturating."""
    over = OpCounter()
    theta = quantize(value, ACT_FMT, over)
    if over.saturations:
        raise MalformedStream(f"theta {value:g} is past the Q8.8 range "
                              f"(at most {INT16_MAX / ACT_FMT.scale})")
    return theta


@dataclass
class GruLayerSpec:
    input_size: int
    hidden_size: int
    w_xr: QTensor
    w_xu: QTensor
    w_xc: QTensor
    w_hr: QTensor
    w_hu: QTensor
    w_hc: QTensor
    b_r: np.ndarray   # int32, accumulator scale
    b_u: np.ndarray
    b_c: np.ndarray
    theta: QScalar

    def __post_init__(self):
        i, h = self.input_size, self.hidden_size
        for name, m, dims in (("w_xr", self.w_xr, (h, i)), ("w_xu", self.w_xu, (h, i)),
                              ("w_xc", self.w_xc, (h, i)), ("w_hr", self.w_hr, (h, h)),
                              ("w_hu", self.w_hu, (h, h)), ("w_hc", self.w_hc, (h, h))):
            if m.dims != dims:
                raise ShapeMismatch(f"{name} dims {m.dims}, expected {dims}")
            if m.fmt != self.w_xr.fmt:
                raise ShapeMismatch("all weight matrices must share one Q-format")
        for name in ("b_r", "b_u", "b_c"):
            b = np.asarray(getattr(self, name), dtype=np.int32)
            if b.shape != (h,):
                raise ShapeMismatch(f"{name} length {b.shape}, expected ({h},)")
            setattr(self, name, b)
        if self.theta.fmt != ACT_FMT:
            raise ShapeMismatch("theta must be Q8.8")
        if self.theta.raw < 0:
            raise MalformedStream("theta must be non-negative")

    @property
    def acc_frac(self) -> int:
        return ACT_FMT.frac_bits + self.w_xr.fmt.frac_bits

    @property
    def weight_words(self) -> int:
        i, h = self.input_size, self.hidden_size
        return 3 * h * i + 3 * h * h

    # The gate stacks are built on first use, once per spec; the weight
    # tensors must not change after that.
    @cached_property
    def x_side(self) -> GateStack:
        """[W_xc; W_xr; W_xu]: updates accumulator rows [xc, r, u]."""
        return GateStack.of((self.w_xc, self.w_xr, self.w_xu))

    @cached_property
    def h_side(self) -> GateStack:
        """[W_hr; W_hu; W_hc]: updates accumulator rows [r, u, hc]."""
        return GateStack.of((self.w_hr, self.w_hu, self.w_hc))

    @property
    def acc_bias(self) -> np.ndarray:
        """A fresh accumulator before any product: [b_c, b_r, b_u, 0]."""
        zero = np.zeros(self.hidden_size, dtype=np.int32)
        return np.concatenate([self.b_c, self.b_r, self.b_u, zero]).astype(np.int64)


class LayerState(NamedTuple):
    """One layer's run state on raw arrays: the transmitted input and
    hidden memories, the last output, and the int64 pre-activation
    accumulator laid out [xc, r, u, hc]. Dense mode reads and replaces
    ``h`` only."""

    x_mem: np.ndarray
    h_mem: np.ndarray
    h: np.ndarray
    acc: np.ndarray

    @classmethod
    def initial(cls, spec: GruLayerSpec) -> "LayerState":
        i, h = spec.input_size, spec.hidden_size
        return cls(np.zeros(i, np.int16), np.zeros(h, np.int16), np.zeros(h, np.int16),
                   spec.acc_bias)


@dataclass
class StepStats:
    """One layer-step's event counts: input and hidden components sent on
    (all of them in dense mode)."""

    x_events: int = 0
    h_events: int = 0


def delta_mxv_accumulate(side: GateStack, idx: np.ndarray, vals: np.ndarray,
                         acc: np.ndarray) -> int:
    """acc[j] += sum over events of W[j, idx] * val, saturating per
    event; returns the clips.

    ``idx`` must be strictly increasing and inside the side's columns,
    as `encode_delta` returns them: numpy would wrap a negative index to
    the last column, and the ordered fallback runs in index order. The event
    columns of W and |W| are gathered and go through one ``sat_matvec``:
    one float64 matvec when no prefix can clip, else the ordered loop
    over the events in index order, which is stream order. One event
    reads one column of each stacked matrix; columns are stored
    column-major, so each read is a single burst of contiguous words,
    which is what keeps delta-driven fetches DRAM-friendly.
    """
    if not idx.size:
        return 0
    return sat_matvec(acc, side.cols[idx].T, side.cols_abs[idx].T, vals)


def _gates(spec: GruLayerSpec, acc: np.ndarray, h_prev: np.ndarray
           ) -> tuple[np.ndarray, int]:
    """Shared elementwise tail on an [xc, r, u, hc] accumulator; returns
    the new hidden state, raw int16, and the clips of the candidate sum."""
    h = spec.hidden_size
    acc_frac = spec.acc_frac
    ru = act_lookup(acc[h:3 * h], acc_frac, SIGMOID_LUT)  # int16; products widen
    r, u = ru[:h], ru[h:]
    c_acc = acc[:h].copy()
    sats = sat_add(c_acc, _rint_shift(r * acc[3 * h:], 8).astype(np.int64))
    c = act_lookup(c_acc, acc_frac, TANH_LUT).astype(np.int64)
    one = 1 << ACT_FMT.frac_bits
    mix = (one - u) * c + u * h_prev.astype(np.int64)
    return _rint_shift(mix, ACT_FMT.frac_bits).astype(np.int16), sats


@dataclass
class LayerRecord:
    """What one layer did over a block of steps: its op counter, the
    events per step, and its access rows as int64 columns (step, triple
    code, address, nwords), in order within each step. A step of -1 is
    the sparse bias preload, before every step."""

    counter: OpCounter
    x_events: np.ndarray
    h_events: np.ndarray
    rows: np.ndarray


def _row_block(groups) -> np.ndarray:
    """(step, triple code, address, nwords) groups laid end to end as
    one (4, rows) int64 block; each group is in step order, and a stable
    sort by step puts each step's rows in group order."""
    sizes = [np.size(g[0]) for g in groups]
    rows = np.empty((4, sum(sizes)), np.int64)
    pos = 0
    for group, n in zip(groups, sizes):
        for column, values in zip(rows, group):
            column[pos:pos + n] = values
        pos += n
    return rows


_WEIGHTS = triple_code("DRAM", "read", "weights")
_ACT_READ = triple_code("SRAM", "read", "activations")
_STATE_READ = triple_code("SRAM", "read", "state")
_STATE_WRITE = triple_code("SRAM", "write", "state")


def run_layer(spec: GruLayerSpec, xs: np.ndarray, state: LayerState,
              mode: str = "sparse", weight_base: int = 0
              ) -> tuple[np.ndarray, LayerState, LayerRecord]:
    """Run one layer over a (steps, input_size) int16 block; returns its
    (steps, hidden_size) int16 outputs, the state after the last step
    and the layer's record. ``state`` is updated in place.

    Sparse: each step thresholds the input and the previous output
    against their memories (`encode_delta`), adds the event columns of
    each side through `delta_mxv_accumulate`, and applies the gates.
    The bias preload is the one row before the first step.
    Dense: each step recomputes the pre-activations from the biases
    with one bound-checked ``sat_matvec`` per side over its full gate
    stack and full vector, and fetches every weight and bias word; the
    delta engine's products are over sparse deltas, so the theta-0
    check compares two different computations.
    """
    if mode not in ("sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    steps = len(xs)
    i, h = spec.input_size, spec.hidden_size
    xside, hside = spec.x_side, spec.h_side
    x_mem, h_mem, h_prev, acc = state
    out = np.empty((steps, h), np.int16)
    sats = 0
    counter = OpCounter(adds=6 * h * steps)
    t_all = np.arange(steps)
    if mode == "sparse":
        theta = spec.theta.raw
        acc_x, acc_h = acc[:3 * h], acc[h:]
        x_idx, h_idx = [], []
        for t in range(steps):
            xi, xv = encode_delta(x_mem, xs[t], theta)
            hi, hv = encode_delta(h_mem, h_prev, theta)
            sats += delta_mxv_accumulate(xside, xi, xv, acc_x)
            sats += delta_mxv_accumulate(hside, hi, hv, acc_h)
            out[t], clips = _gates(spec, acc, h_prev)
            sats += clips
            h_prev = out[t]
            x_idx.append(xi)
            h_idx.append(hi)
        ex = np.array([a.size for a in x_idx], np.int64)
        eh = np.array([a.size for a in h_idx], np.int64)
        x_idx, h_idx = np.concatenate(x_idx), np.concatenate(h_idx)
        x_step, h_step = np.repeat(t_all, ex), np.repeat(t_all, eh)
        counter.macs_executed = 3 * h * (x_idx.size + h_idx.size)
        counter.comparisons = (i + h) * steps
        h_base = weight_base + 3 * h * i
        rows = _row_block(
            [(-1, _WEIGHTS, weight_base + spec.weight_words, layer_bias_words(spec))]
            + [(x_step, _WEIGHTS, weight_base + (m * i + x_idx) * h, h) for m in range(3)]
            + [(h_step, _WEIGHTS, h_base + (m * h + h_idx) * h, h) for m in range(3)]
            + [(t_all, _ACT_READ, 0, i), (t_all, _STATE_READ, 0, 5 * h),
               (t_all, _STATE_WRITE, 0, ex + eh + 5 * h)])
    else:
        bias = spec.acc_bias
        for t in range(steps):
            pre = bias.copy()
            sats += sat_matvec(pre[:3 * h], xside.cols.T, xside.cols_abs.T, xs[t])
            sats += sat_matvec(pre[h:], hside.cols.T, hside.cols_abs.T, h_prev)
            out[t], clips = _gates(spec, pre, h_prev)
            sats += clips
            h_prev = out[t]
        ex, eh = np.full(steps, i), np.full(steps, h)
        counter.macs_executed = spec.weight_words * steps
        counter.adds += 3 * h * steps
        rows = _row_block([
            (t_all, _WEIGHTS, weight_base, spec.weight_words + layer_bias_words(spec)),
            (t_all, _ACT_READ, 0, i), (t_all, _STATE_READ, 0, h),
            (t_all, _STATE_WRITE, 0, h)])
    counter.macs_dense_equivalent = spec.weight_words * steps
    counter.saturations = sats
    state = LayerState(x_mem, h_mem, h_prev.copy(), acc)
    return out, state, LayerRecord(counter, ex, eh, rows)


def layer_bias_words(spec: GruLayerSpec) -> int:
    return 6 * spec.hidden_size  # three 32-bit bias vectors in 16-bit words


@dataclass
class GruSeqRun:
    """A sequence run: the final layer's (steps, hidden) Q8.8 outputs,
    per-layer event counts and op counters, and the access trace.

    Every executed MAC reads one weight word, so the weight words
    fetched are the executed MACs and the dense-equivalent weight words
    the dense-equivalent MACs.
    """

    outputs: QTensor
    x_events: np.ndarray  # (layers, steps): input components sent on
    h_events: np.ndarray  # (layers, steps): hidden components sent on
    layer_counters: list[OpCounter]
    trace: AccessTrace

    @property
    def counters(self) -> OpCounter:
        """The layer counters summed."""
        total = OpCounter()
        for c in self.layer_counters:
            total.merge(c)
        return total

    @property
    def weight_words_fetched(self) -> int:
        return self.counters.macs_executed

    @property
    def dense_weight_words(self) -> int:
        return self.counters.macs_dense_equivalent

    @property
    def weight_reduction_factor(self) -> float:
        """Dense-equivalent weight words over actually fetched ones."""
        fetched = self.weight_words_fetched
        if fetched == 0:
            return float("inf") if self.dense_weight_words else 1.0
        return self.dense_weight_words / fetched

    @cached_property
    def step_stats(self) -> list[list[StepStats]]:
        """Per layer, per step: the event counts."""
        return [[StepStats(x, h) for x, h in zip(xl.tolist(), hl.tolist())]
                for xl, hl in zip(self.x_events, self.h_events)]

    @property
    def layer_traces(self) -> list[AccessTrace]:
        """Each layer's rows of the run trace, in run order."""
        return [self.trace.select_layer(l) for l in range(len(self.layer_counters))]

    def event_timeline(self) -> list[tuple[int, int]]:
        """Per step: (input events, hidden events) summed over layers."""
        return list(zip(self.x_events.sum(axis=0).tolist(),
                        self.h_events.sum(axis=0).tolist()))


def run_sequence(specs: list[GruLayerSpec], x_seq: QTensor,
                 mode: str = "sparse") -> GruSeqRun:
    """Run stacked GRU layers over a (steps, input_size) Q8.8 sequence,
    counting work and traffic.

    Sparse mode threshold-gates inputs and hidden states and fetches
    only the weight columns that events touch, after preloading each
    layer's biases once; dense mode streams every matrix fully each
    step. Both count dense-equivalent MACs, so the reduction factor is a
    straight ratio.

    The layers only feed forward, so each runs over the whole sequence
    before the next (`run_layer`). The trace stays step-major: each
    layer's rows are keyed by step and interleaved by one stable sort,
    bias preloads first, then by (step, layer).
    """
    if mode not in ("sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    for l in range(1, len(specs)):
        if specs[l].input_size != specs[l - 1].hidden_size:
            raise ShapeMismatch(
                f"layer {l} input {specs[l].input_size} != "
                f"layer {l - 1} hidden {specs[l - 1].hidden_size}")
    if x_seq.dims[1:] != (specs[0].input_size,) or x_seq.fmt != ACT_FMT:
        raise ShapeMismatch(f"input sequence dims {x_seq.dims} {x_seq.fmt}, "
                            f"expected (steps, {specs[0].input_size}) Q8.8")

    block = x_seq.data
    records = []
    base = 0
    for spec in specs:
        block, _, record = run_layer(spec, block, LayerState.initial(spec), mode, base)
        records.append(record)
        base += spec.weight_words + layer_bias_words(spec)

    layer = np.repeat(np.arange(len(specs)), [r.rows.shape[1] for r in records])
    step, triple, address, nwords = np.concatenate([r.rows for r in records], axis=1)
    trace = AccessTrace.from_columns(triple, layer, address, nwords,
                                     key=(step + 1) * len(specs) + layer)
    return GruSeqRun(
        outputs=QTensor(block.shape, ACT_FMT, block),
        x_events=np.stack([r.x_events for r in records]),
        h_events=np.stack([r.h_events for r in records]),
        layer_counters=[r.counter for r in records],
        trace=trace)
