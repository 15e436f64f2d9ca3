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

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .codec import DeltaStream, encode_delta
from .errors import IndexOutOfRange, MalformedStream, ShapeMismatch
from .fxp import (OpCounter, Q8_8, QScalar, QTensor, round_shift_even,
                  sat_add, sat_matvec)
from .trace import AccessTrace

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


def act_lookup(acc: np.ndarray, acc_frac: int, lut: np.ndarray) -> np.ndarray:
    """Evaluate a lookup activation on 32-bit accumulators, yielding Q8.8.

    The accumulator is renormalized to a Q8.8 raw argument (ties-to-even),
    clamped to the table domain, and looked up in ``lut`` (SIGMOID_LUT
    or TANH_LUT).
    """
    x_raw = round_shift_even(acc, acc_frac - 8)
    return lut[np.maximum(np.minimum(x_raw, ACT_IN_MAX), ACT_IN_MIN) - ACT_IN_MIN]


@dataclass(frozen=True)
class GateStack:
    """One input side of a layer's weights, its matrices stacked by rows
    for one matvec: float64 ``w`` (exact, the values are int16) and
    ``w_abs`` = |w| for the no-clip bound.

    In memory the side's ``blocks`` matrices of h rows and n columns lie
    one after another, each column-major, so column j of block m is a
    burst of h words at offset (m * n + j) * h from the side's base. The
    order of the stacked rows is the accumulator layout; it does not
    move the addresses.
    """

    w: np.ndarray
    w_abs: np.ndarray
    blocks: int

    @classmethod
    def of(cls, mats) -> "GateStack":
        w = np.concatenate([m.data for m in mats]).astype(np.float64)
        return cls(w, np.abs(w), len(mats))


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
            raise ShapeMismatch("theta must be non-negative")

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


@dataclass
class DeltaState:
    """Per-sequence run state: transmitted memories and the int64
    pre-activation accumulator, laid out [xc, r, u, hc]."""

    x_mem: QTensor
    h_mem: QTensor
    h_prev: QTensor
    acc: np.ndarray

    @classmethod
    def initial(cls, spec: GruLayerSpec) -> "DeltaState":
        i, h = spec.input_size, spec.hidden_size
        return cls(
            x_mem=QTensor.zeros((i,), ACT_FMT),
            h_mem=QTensor.zeros((h,), ACT_FMT),
            h_prev=QTensor.zeros((h,), ACT_FMT),
            acc=spec.acc_bias,
        )


@dataclass
class StepStats:
    x_events: int = 0
    h_events: int = 0
    macs_executed: int = 0
    weight_words: int = 0
    saturations: int = 0


def delta_mxv_accumulate(side: GateStack, deltas: DeltaStream, acc: np.ndarray,
                         counter: OpCounter | None = None,
                         trace: AccessTrace | None = None,
                         weight_base: int = 0) -> np.ndarray:
    """acc[j] += sum over events of W[j, idx] * val, saturating per event.

    The events are scattered into a zero vector of the input width and
    go through one ``sat_matvec``: one float64 matvec when no prefix can
    clip, else the ordered loop over the events in index order, which
    is stream order because stream indices are strictly increasing
    (checked). Zero entries add nothing in either route. One event
    reads one column of each stacked matrix; columns are stored
    column-major, so each read is a single burst of contiguous words,
    which is what keeps delta-driven fetches DRAM-friendly.
    """
    rows, n = side.w.shape
    if deltas.length != n:
        raise ShapeMismatch(f"stream length {deltas.length} vs {n} columns")
    idx = deltas.indices
    bad = idx[(idx < 0) | (idx >= n)]
    if bad.size:
        raise IndexOutOfRange(f"event index {int(bad[0])} outside [0, {n}) columns")
    if np.any(idx[1:] <= idx[:-1]):
        raise MalformedStream("event indices are not strictly increasing")
    sats = 0
    if idx.size:
        x = np.zeros(n, dtype=np.int64)
        x[idx] = deltas.values
        sats = sat_matvec(acc, side.w, side.w_abs, x)
        if trace is not None:
            words = rows // side.blocks
            cols = np.arange(side.blocks)[:, None] * n + idx
            trace.add("DRAM", "read", "weights", (weight_base + cols * words).ravel(), words)
    if counter is not None:
        counter.macs_executed += rows * deltas.event_count
        counter.saturations += sats
    return acc


def _gates(spec: GruLayerSpec, acc: np.ndarray, h_prev_raw,
           counter: OpCounter | None = None) -> tuple[np.ndarray, int]:
    """Shared elementwise tail on an [xc, r, u, hc] accumulator; returns
    (h_raw int16, saturation count)."""
    h = spec.hidden_size
    acc_frac = spec.acc_frac
    ru = act_lookup(acc[h:3 * h], acc_frac, SIGMOID_LUT).astype(np.int64)
    r, u = ru[:h], ru[h:]
    c_acc = acc[:h].copy()
    sats = sat_add(c_acc, round_shift_even(r * acc[3 * h:], 8))
    c = act_lookup(c_acc, acc_frac, TANH_LUT).astype(np.int64)
    one = 1 << ACT_FMT.frac_bits
    mix = (one - u) * c + u * h_prev_raw.astype(np.int64)
    h_raw = round_shift_even(mix, ACT_FMT.frac_bits).astype(np.int16)
    if counter is not None:
        counter.adds += 6 * h
        counter.saturations += sats
    return h_raw, sats


def _dense_step(spec: GruLayerSpec, h_prev: np.ndarray, xv: np.ndarray,
                counter: OpCounter | None = None) -> np.ndarray:
    """One dense GRU step from raw vectors; returns the new raw hidden.

    Each side is one bound-checked ``sat_matvec`` over its full gate
    stack and full vector; the delta engine's products are over sparse
    deltas, so the theta-0 check still compares two different
    computations.
    """
    h = spec.hidden_size
    acc = spec.acc_bias
    xs, hs = spec.x_side, spec.h_side
    sats = sat_matvec(acc[:3 * h], xs.w, xs.w_abs, xv)
    sats += sat_matvec(acc[h:], hs.w, hs.w_abs, h_prev)
    if counter is not None:
        counter.macs_executed += 3 * h * (spec.input_size + h)
        counter.macs_dense_equivalent += 3 * h * (spec.input_size + h)
        counter.adds += 3 * h
        counter.saturations += sats
    h_new, _ = _gates(spec, acc, h_prev, counter)
    return h_new


def gru_dense_oracle(spec: GruLayerSpec, x_seq: list[QTensor],
                     counter: OpCounter | None = None) -> list[QTensor]:
    """Reference GRU: gate pre-activations recomputed densely every step."""
    h = spec.hidden_size
    h_prev = np.zeros(h, dtype=np.int16)
    outs: list[QTensor] = []
    for x in x_seq:
        if x.dims != (spec.input_size,) or x.fmt != ACT_FMT:
            raise ShapeMismatch(f"input dims {x.dims}, expected ({spec.input_size},) Q8.8")
        h_prev = _dense_step(spec, h_prev, x.data, counter)
        outs.append(QTensor((h,), ACT_FMT, h_prev.copy()))
    return outs


def deltagru_step(spec: GruLayerSpec, state: DeltaState, x: QTensor,
                  counter: OpCounter | None = None,
                  trace: AccessTrace | None = None,
                  weight_base: int = 0) -> tuple[QTensor, DeltaState, StepStats]:
    """One delta-gated step: threshold, accumulate events, apply gates."""
    if x.dims != (spec.input_size,) or x.fmt != ACT_FMT:
        raise ShapeMismatch(f"input dims {x.dims}, expected ({spec.input_size},) Q8.8")
    i, h = spec.input_size, spec.hidden_size
    stats = StepStats()
    dx, x_mem = encode_delta(state.x_mem, x, spec.theta)
    dh, h_mem = encode_delta(state.h_mem, state.h_prev, spec.theta)
    stats.x_events = dx.event_count
    stats.h_events = dh.event_count
    if counter is not None:
        counter.comparisons += i + h
        counter.macs_dense_equivalent += 3 * h * (i + h)

    acc = state.acc.copy()
    step_counter = OpCounter()
    delta_mxv_accumulate(spec.x_side, dx, acc[:3 * h], step_counter, trace, weight_base)
    delta_mxv_accumulate(spec.h_side, dh, acc[h:], step_counter, trace,
                         weight_base + 3 * h * i)

    stats.macs_executed = step_counter.macs_executed
    stats.weight_words = step_counter.macs_executed
    stats.saturations = step_counter.saturations
    if counter is not None:
        counter.macs_executed += step_counter.macs_executed
        counter.saturations += step_counter.saturations

    h_raw, gate_sats = _gates(spec, acc, state.h_prev.data, counter)
    stats.saturations += gate_sats
    h_out = QTensor((h,), ACT_FMT, h_raw.copy())
    new_state = DeltaState(x_mem, h_mem, h_out, acc)
    if trace is not None:
        trace.add("SRAM", "read", "activations", 0, i)
        trace.add("SRAM", "read", "state", 0, 5 * h)
        trace.add("SRAM", "write", "state", 0,
                  stats.x_events + stats.h_events + 5 * h)
    return h_out, new_state, stats


def layer_bias_words(spec: GruLayerSpec) -> int:
    return 6 * spec.hidden_size  # three 32-bit bias vectors in 16-bit words


@dataclass
class GruSeqRun:
    outputs: list[QTensor] = field(default_factory=list)
    step_stats: list[list[StepStats]] = field(default_factory=list)
    counters: OpCounter = field(default_factory=OpCounter)
    trace: AccessTrace = field(default_factory=AccessTrace)
    weight_words_fetched: int = 0
    dense_weight_words: int = 0
    init_words: int = 0

    @property
    def weight_reduction_factor(self) -> float:
        """Dense-equivalent weight words over actually fetched ones."""
        if self.weight_words_fetched == 0:
            return float("inf") if self.dense_weight_words else 1.0
        return self.dense_weight_words / self.weight_words_fetched

    @property
    def layer_traces(self) -> list[AccessTrace]:
        """Each layer's rows of the run trace, in run order."""
        return [self.trace.select_layer(l) for l in range(len(self.step_stats))]

    def event_timeline(self) -> list[tuple[int, int]]:
        """Per step: (input events, hidden events) summed over layers."""
        if not self.step_stats:
            return []
        steps = len(self.step_stats[0])
        out = []
        for t in range(steps):
            ex = sum(layer[t].x_events for layer in self.step_stats)
            eh = sum(layer[t].h_events for layer in self.step_stats)
            out.append((ex, eh))
        return out


def run_sequence(specs: list[GruLayerSpec], x_seq: list[QTensor],
                 mode: str = "sparse") -> GruSeqRun:
    """Run stacked GRU layers over a sequence, counting work and traffic.

    Sparse mode threshold-gates inputs and hidden states and fetches
    only the weight columns that events touch; dense mode streams every
    matrix fully each step. Dense-equivalent weight words are reported
    either way so the reduction factor is a straight ratio.
    """
    if mode not in ("sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    for l in range(1, len(specs)):
        if specs[l].input_size != specs[l - 1].hidden_size:
            raise ShapeMismatch(
                f"layer {l} input {specs[l].input_size} != "
                f"layer {l - 1} hidden {specs[l - 1].hidden_size}")

    run = GruSeqRun()
    run.step_stats = [[] for _ in specs]
    bases = []
    base = 0
    for spec in specs:
        bases.append(base)
        base += spec.weight_words + layer_bias_words(spec)

    steps = len(x_seq)
    run.dense_weight_words = steps * sum(s.weight_words for s in specs)

    trace = run.trace  # each layer sets its layer column before adding
    if mode == "sparse":
        states = [DeltaState.initial(s) for s in specs]
        for l, (spec, b) in enumerate(zip(specs, bases)):
            trace.layer = l
            trace.add("DRAM", "read", "weights",
                      b + spec.weight_words, layer_bias_words(spec))
            run.init_words += layer_bias_words(spec)
        for x in x_seq:
            cur = x
            for l, spec in enumerate(specs):
                trace.layer = l
                cur, states[l], stats = deltagru_step(
                    spec, states[l], cur, run.counters, trace, bases[l])
                run.step_stats[l].append(stats)
                run.weight_words_fetched += stats.weight_words
            run.outputs.append(cur)
    else:
        h_prevs = [np.zeros(s.hidden_size, dtype=np.int16) for s in specs]
        for x in x_seq:
            if x.dims != (specs[0].input_size,) or x.fmt != ACT_FMT:
                raise ShapeMismatch(
                    f"input dims {x.dims}, expected ({specs[0].input_size},) Q8.8")
            cur = x.data
            for l, spec in enumerate(specs):
                i, h = spec.input_size, spec.hidden_size
                trace.layer = l
                trace.add("DRAM", "read", "weights", bases[l],
                          spec.weight_words + layer_bias_words(spec))
                trace.add("SRAM", "read", "activations", 0, i)
                trace.add("SRAM", "read", "state", 0, h)
                trace.add("SRAM", "write", "state", 0, h)
                h_prevs[l] = _dense_step(spec, h_prevs[l], cur, run.counters)
                cur = h_prevs[l]
                run.step_stats[l].append(StepStats(
                    x_events=i, h_events=h,
                    macs_executed=3 * h * (i + h),
                    weight_words=spec.weight_words))
                run.weight_words_fetched += spec.weight_words
            run.outputs.append(QTensor((specs[-1].hidden_size,), ACT_FMT,
                                       h_prevs[-1].copy()))
    return run
