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
side. The four pre-activation accumulators live in one int64 vector
laid out [xc, r, u, hc]: the input side [W_xc; W_xr; W_xu] updates its
first three quarters and the hidden side [W_hr; W_hu; W_hc] its last
three. Both engines prove once per layer run, with one bound
(`layer_no_clip`), that no accumulator can clip, and then take every
product of the run as one float64 product; without the proof, every
product of the run is the ordered steps (`fxp.sat_columns`). The delta
engine asks for the proof only from a state whose accumulators equal
the biases plus the weights times the memories (`telescoped`): the
deltas sent on a component telescope to its memory, so every prefix of
such a run is again biases plus weights times memory values, as bounded
as a dense step. It makes one product per side and computed step, over
the gathered event columns or, when events are dense, over the full
stored matrix, and none on a quiet step whose output it already knows;
a run with no accumulator clip ends by checking that its state still
telescopes (`check_telescoped`). The dense engine takes the input side
of a chunk of steps in one product, since it does not depend on the
recurrence, and the hidden side one step at a time. Both engines share
one gate tail (`_gates`), taken in float64 and exact.
"""

from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .codec import encode_delta
from .errors import EquivalenceFailure, MalformedStream, ShapeMismatch
from .fxp import (INT16_MAX, INT32_MAX, INT32_MIN, SLAB_BYTES, OpCounter, Q8_8, QTensor,
                  int32_array, quantize_array, round_shift_even, sat_columns, sat_matvec)
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
# The tables the gate tail looks up (`_gates`), in float64 and exact:
# sigmoid in value units (raw / one, a multiple of 2**-8 in [0, 1]) and
# tanh raw.
_SIGMOID_VALUE = SIGMOID_LUT / (1 << ACT_FMT.frac_bits)
_TANH_RAW = TANH_LUT.astype(np.float64)


def _rint_shift(values: np.ndarray, shift: int) -> np.ndarray:
    """values / 2**shift rounded to nearest, ties to even, as float64.

    For |values| < 2**53 the scaling by a power of two is exact and
    ``np.rint`` rounds ties to even, so this equals
    ``round_shift_even(values, shift)`` in fewer numpy calls. The gate
    tail only renormalizes int32 accumulators and candidate sums (below
    2**33) with it.
    """
    x = values * 2.0 ** -shift
    return np.rint(x, out=x)


def act_lookup(acc: np.ndarray, acc_frac: int, lut: np.ndarray) -> np.ndarray:
    """Evaluate a lookup activation on accumulators at scale 2**acc_frac.

    The accumulator, integer-valued and of any dtype, is renormalized to
    a Q8.8 raw argument in float64 (`_rint_shift`): below 2**53 each
    value is exact, the scale 2**(8 - acc_frac) is a power of two and
    ``np.rint`` rounds ties to even, as ``round_shift_even`` does. The
    argument is clamped to the table domain by the index clamp of
    ``np.take`` and looked up in ``lut``, one entry per argument from
    ACT_IN_MIN to ACT_IN_MAX: SIGMOID_LUT or TANH_LUT for raw int16, or
    the gate tail's float64 copies, which `_gates` looks up through here.
    """
    x = _rint_shift(acc, acc_frac - 8)
    x -= ACT_IN_MIN
    return lut.take(x.astype(np.intp), mode="clip")


@dataclass(frozen=True)
class GateStack:
    """One input side of a layer's weights, its matrices stacked by rows
    for one matvec, stored by column: row j of ``cols`` is column j of
    the stacked matrix, in float64 (exact, the values are int16), and
    ``cols_abs`` = |cols| for the layer proofs (`_bound_holds`).

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


def quantize_theta(value: float) -> int:
    """A delta threshold as a raw Q8.8 integer (``ACT_FMT``, the units it is
    compared in), rounded to nearest even; a value that is not finite, is
    past the format's range or rounds below 0 raises ``MalformedStream``
    instead of saturating."""
    over = OpCounter()
    theta = int(quantize_array(value, ACT_FMT, over))
    if over.saturations:
        raise MalformedStream(f"theta {value:g} is past the Q8.8 range "
                              f"(at most {INT16_MAX / ACT_FMT.scale})")
    if theta < 0:
        raise MalformedStream(f"theta must be non-negative, got {value:g}")
    return theta


@dataclass
class GruLayerSpec:
    """One layer: six weight matrices in one Q-format, three int32 biases
    at accumulator scale, and ``theta``, the delta threshold, as a raw
    Q8.8 integer (the activations' units) in [0, INT16_MAX]."""

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
    theta: int

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
            b = int32_array(getattr(self, name), name)
            if b.shape != (h,):
                raise ShapeMismatch(f"{name} length {b.shape}, expected ({h},)")
            setattr(self, name, b)
        if not 0 <= self.theta <= INT16_MAX:
            raise MalformedStream(f"theta must be non-negative and at most {INT16_MAX} "
                                  f"raw Q8.8, got {self.theta}")

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


# A side's events are taken over the full stored matrix once they are
# at least one in ROUTE_SHARE of its columns, and gathered below that.
# Measured with one BLAS thread: at h=128 the full width was the faster
# from 43 of 128 columns and about 10 of 32; at h=8 at every count.
ROUTE_SHARE = 3


def delta_mxv_accumulate(side: GateStack, idx: np.ndarray, vals: np.ndarray,
                         acc: np.ndarray, proven: bool = False) -> int:
    """acc[j] += sum over events of W[j, idx] * val, saturating per
    event; returns the clips.

    ``idx`` must be strictly increasing and inside the side's columns,
    as `encode_delta` returns them: numpy would wrap a negative index to
    the last column, and the ordered fallback runs in index order. The
    events go through one ``sat_matvec``. Below one event in
    ``ROUTE_SHARE`` columns it takes the gathered event columns and the
    event values; above, the full stored matrix and the deltas scattered
    into a zero vector. Both are exact and equal: a zero entry adds a
    zero term to the product, and ``sat_columns`` skips its row, so the
    ordered steps are the same. ``proven`` means the caller proved that
    no prefix of any of its calls can clip (`layer_no_clip`): the
    events are then one float64 product; otherwise they run as the
    ordered loop in index order, which is stream order. One event reads
    one column of each stacked matrix; columns are stored column-major,
    so each read is a burst of contiguous words, and events on adjacent
    columns read one longer burst (`run_layer` traces it as one row),
    which is what keeps delta-driven fetches DRAM-friendly.
    """
    if not idx.size:
        return 0
    n = len(side.cols)
    if ROUTE_SHARE * idx.size >= n:
        x = np.zeros(n)
        x[idx] = vals
        cols = slice(None)
    else:
        x, cols = vals, idx
    return sat_matvec(acc, side.cols[cols].T, x, proven)


def _bound_holds(spec: GruLayerSpec, acc: np.ndarray, p_x: np.ndarray,
                 p_h: np.ndarray) -> bool:
    """True when ``|acc| + |W_x| p_x`` on rows [0:3h] plus ``|W_h| p_h``
    on rows [h:4h] is at most INT32_MAX in every row.

    ``p_x`` and ``p_h`` are non-negative integer bounds on the magnitude
    of each input and hidden term's factor. The bound is computed in
    float64 and is exact whenever it passes (the `fxp` accumulator
    comment).
    """
    h = spec.hidden_size
    bound = np.abs(acc, dtype=np.float64)
    bound[:3 * h] += p_x @ spec.x_side.cols_abs
    bound[h:] += p_h @ spec.h_side.cols_abs
    return bool(bound.max() <= INT32_MAX)


def layer_no_clip(spec: GruLayerSpec, xs: np.ndarray, state: LayerState) -> bool:
    """True when no partial sum of any step of a run of ``xs`` from
    ``state`` can clip an accumulator, in any order of one step's terms,
    for a dense run from any state and a delta run from a telescoped one.

    The bound is ``|bias| + |W_x| P_x`` on rows [0:3h] plus ``|W_h|
    P_h`` on rows [h:4h] (`_bound_holds`), ``P_j`` bounding every value
    component j takes in the run. ``P_x[j]`` is the largest ``|x_mem[j]|``
    or ``|xs[t, j]|``, in int32 because ``abs(-32768)`` overflows int16.
    ``P_h[j] = max(one, |h_mem[j]|, |h[j]|)``: a hidden value is the
    run's first ``h_prev`` or a gate output, and ``|h'| <= max(one,
    |h_prev|)``, since ``u`` is a ``SIGMOID_LUT`` value in [0, one] and
    ``|c| <= one`` a ``TANH_LUT`` one, so ``|(one - u) c + u h_prev| <=
    one max(one, |h_prev|)`` before the rounding shift by ``log2(one)``.

    A dense step's partial sums are the bias plus some terms ``W_j v_j``
    with ``|v_j| <= P_j``. A delta run from a telescoped state is at
    ``bias + W m`` after each step with no clip before it, m the
    memories: a memory holds its start value or a value it was sent, and
    the deltas sent on it telescope. A partial sum of a step adds some
    of its deltas ``m'_j - m_j``, so it is ``bias + W m''``, each
    ``m''_j`` an old or new memory value. So every prefix is within the
    bound, and if that is at most INT32_MAX nothing clips, by induction.
    The delta engine takes a step's product ``W d`` on its own, and its
    partial sums may pass 2**31 (``|d_j| <= 2 P_j``), but they are
    integers below 2**32 by the bound, so the float64 product is exact.
    From a state that does not telescope the bound proves nothing.
    """
    p_x = np.maximum(np.abs(state.x_mem, dtype=np.int32),
                     np.abs(xs, dtype=np.int32).max(axis=0, initial=0))
    p_h = np.full(spec.hidden_size, 1 << ACT_FMT.frac_bits, np.int32)
    for v in (state.h_mem, state.h):
        np.maximum(p_h, np.abs(v, dtype=np.int32), out=p_h)
    return _bound_holds(spec, spec.acc_bias, p_x, p_h)


def telescoped(spec: GruLayerSpec, state: LayerState) -> bool:
    """True when each accumulator of ``state`` equals its bias plus the
    weights times the memories, gate by gate: ``acc = bias + W_x x_mem +
    W_h h_mem``.

    A delta run from such a state with no accumulator clip ends in one:
    the deltas it sends on a component telescope to its memory's change,
    at any theta and with quiet steps skipped. The products are taken in
    int64 (each term at most 2**30) from the spec's own matrices, not
    from the gate stacks, ``sat_matvec`` or the layer proof, so the check
    at the end of a run (`check_telescoped`) tests `encode_delta`,
    `delta_mxv_accumulate`, its routes, the column layout and the
    quiet-step skip. It does not test the gate tail. Only the columns from
    a memory's first nonzero entry to its last are multiplied (a zero
    entry adds zero terms), so a start from zero memories takes none.
    """
    cx, ch = (slice(nz[0], nz[-1] + 1) if nz.size else slice(0)
              for nz in (np.flatnonzero(state.x_mem), np.flatnonzero(state.h_mem)))
    x, h = state.x_mem[cx].astype(np.int64), state.h_mem[ch].astype(np.int64)
    xc, r, u, hc = np.split(state.acc, 4)
    return (np.array_equal(xc, spec.b_c + spec.w_xc.data[:, cx] @ x)
            and np.array_equal(r, spec.b_r + spec.w_xr.data[:, cx] @ x + spec.w_hr.data[:, ch] @ h)
            and np.array_equal(u, spec.b_u + spec.w_xu.data[:, cx] @ x + spec.w_hu.data[:, ch] @ h)
            and np.array_equal(hc, spec.w_hc.data[:, ch] @ h))


def check_telescoped(spec: GruLayerSpec, state: LayerState) -> None:
    """Raise ``EquivalenceFailure`` unless ``state`` telescopes
    (`telescoped`): `run_layer` calls it after a delta run that started
    from a telescoped state and clipped no accumulator."""
    if not telescoped(spec, state):
        raise EquivalenceFailure(
            "delta GRU accumulators diverged from the biases plus the weights "
            "times the memories; this is a bug")


def _gates(spec: GruLayerSpec, acc: np.ndarray, h_prev: np.ndarray
           ) -> tuple[np.ndarray, int]:
    """Shared elementwise tail on an [xc, r, u, hc] accumulator; returns
    the new hidden state, raw int16, and the clips of the candidate sum.
    ``acc`` may be (4h, K) with ``h_prev`` (h, K): K columns at once.

    It runs in float64 and is exact. Every value is an integer or a
    multiple of 2**-8 below 2**53 in magnitude: the int32 accumulators
    (converted once), the sigmoid in value units ``k / 256`` with k a
    raw SIGMOID_LUT value in [0, 256], ``r * hc`` (below 2**40 raw), the
    candidate sum (below 2**33 before its clip), the raw tanh and the
    mix. So each product is exact, each scale is a power of two, and
    ``np.rint`` rounds the exact value to nearest, ties to even, which
    is the integer gates' ``round_shift_even`` by 8:

        c_acc = clamp32(xc + rint(r * hc))      (clips counted)
        h'    = rint(c + u * (h_prev - c))       = ((256 - k) c + k h_prev) / 256
    """
    h = spec.hidden_size
    acc_frac = spec.acc_frac
    a = acc.astype(np.float64)
    ru = act_lookup(a[h:3 * h], acc_frac, _SIGMOID_VALUE)
    r, u = ru[:h], ru[h:]
    cand = np.rint(r * a[3 * h:])
    cand += a[:h]
    sats = 0
    if cand.min() < INT32_MIN or cand.max() > INT32_MAX:
        clipped = np.clip(cand, INT32_MIN, INT32_MAX)
        sats = int(np.count_nonzero(clipped != cand))
        cand = clipped
    c = act_lookup(cand, acc_frac, _TANH_RAW)
    mix = h_prev - c
    mix *= u
    mix += c
    return np.rint(mix, out=mix).astype(np.int16), sats


@dataclass
class LayerRecord:
    """What one layer did over a block of steps: its op counter, the
    events per step, its access rows as int64 columns (step, triple
    code, address, nwords), in order within each step, and the quiet
    steps whose gate tail it skipped (sparse mode only). A step of -1 is
    the sparse bias preload, before every step. A sparse weight row is
    one run of adjacent event columns of one step and gate block."""

    counter: OpCounter
    x_events: np.ndarray
    h_events: np.ndarray
    rows: np.ndarray
    steps_skipped: int


def _column_runs(step: np.ndarray, idx: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Events as runs of adjacent columns: (step, first column, columns)
    per run. ``idx`` holds each step's event columns in increasing order,
    ``step`` their steps in order; a run ends where the next event is in
    another step or not on the next column."""
    new = np.ones(idx.size, bool)
    new[1:] = (idx[1:] != idx[:-1] + 1) | (step[1:] != step[:-1])
    first = np.flatnonzero(new)
    return step[first], idx[first], np.diff(first, append=idx.size)


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


# The events of a threshold step that cannot fire (`run_layer`).
_NO_EVENT = (np.empty(0, np.intp), np.empty(0, np.int32))

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
    The bias preload is the one row before the first step. Each step's
    weight reads are one row per gate block and run of adjacent event
    columns (`_column_runs`): events on columns j to j+k-1 of block m
    read the k*h contiguous words from (m*n + j)*h, so the per-word list
    is that of one h-word burst per event and block. A step with
    no event after a computed step whose gates returned their own
    ``h_prev`` is skipped: with no event the accumulator is unchanged,
    and the gate tail is a function of (accumulator, ``h_prev``) alone,
    so it would return ``h_prev`` and the same candidate-sum clips
    again. The skipped step repeats both and makes no
    `delta_mxv_accumulate` or gate call; its thresholds, counters and
    trace rows are those of any step. After any step every component is
    within theta of its memory, so a threshold step cannot fire, and is
    not called, on an input row equal to the row before it or on an
    ``h_prev`` the last gate call returned unchanged. If ``state``
    telescopes (`telescoped`), one bound before the first step
    (`layer_no_clip`) lets every delta product be one float64 product;
    without it, or from a state that does not telescope, every one is
    the ordered loop. A run from a telescoped state with no accumulator
    clip ends in `check_telescoped`, so a bug in the delta steps fails
    at any theta.
    Dense: each step recomputes the pre-activations from the biases
    over the full gate stacks and full vectors, and fetches every
    weight and bias word. The input side does not depend on the
    recurrence, so a chunk of steps (an int64 block of one accumulator
    row per step, capped near ``SLAB_BYTES``) takes it at once, on the
    matrix of its inputs; each step is its own accumulator row. The
    same bound before the first step (`layer_no_clip`) proves that no
    partial sum of any step's terms can clip. Then each chunk's input
    side and each step's hidden side ``W_h @ h_prev`` is one float64
    product, added to its accumulator rows in place, exact by the `fxp`
    accumulator comment; without the proof both are ordered
    ``sat_columns`` steps. These products are taken here, not through
    ``sat_matvec``, so that a fault in its unchecked branch, which the
    delta engine uses, cannot be made by both engines alike and pass
    the theta-0 comparison. The delta engine's products are over sparse
    deltas, so that check compares two different computations.
    """
    if mode not in ("sparse", "dense"):
        raise ValueError(f"unknown mode {mode!r}")
    steps = len(xs)
    i, h = spec.input_size, spec.hidden_size
    xside, hside = spec.x_side, spec.h_side
    x_mem, h_mem, h_prev, acc = state
    out = np.empty((steps, h), np.int16)
    sats = skipped = 0
    counter = OpCounter(adds=6 * h * steps)
    t_all = np.arange(steps)
    if mode == "sparse":
        theta = spec.theta
        start_ok = telescoped(spec, state)
        proven = start_ok and layer_no_clip(spec, xs, state)
        acc_x, acc_h = acc[:3 * h], acc[h:]
        x_idx, h_idx = [], []
        x_same = np.zeros(steps, bool)  # the input row equals the one before
        x_same[1:] = (xs[1:] == xs[:-1]).all(axis=1)
        acc_sats = 0
        fixed = False  # the last `_gates` call returned its own h_prev
        for t in range(steps):
            xi, xv = _NO_EVENT if x_same[t] else encode_delta(x_mem, xs[t], theta)
            hi, hv = _NO_EVENT if fixed else encode_delta(h_mem, h_prev, theta)
            if fixed and not xi.size:
                out[t] = h_prev  # and `clips` stays that call's
                skipped += 1
            else:
                acc_sats += delta_mxv_accumulate(xside, xi, xv, acc_x, proven)
                acc_sats += delta_mxv_accumulate(hside, hi, hv, acc_h, proven)
                out[t], clips = _gates(spec, acc, h_prev)
                fixed = np.array_equal(out[t], h_prev)
            sats += clips
            h_prev = out[t]
            x_idx.append(xi)
            h_idx.append(hi)
        sats += acc_sats
        if start_ok and not acc_sats:
            check_telescoped(spec, state)
        ex = np.array([a.size for a in x_idx], np.int64)
        eh = np.array([a.size for a in h_idx], np.int64)
        x_idx, h_idx = np.concatenate(x_idx), np.concatenate(h_idx)
        counter.macs_executed = 3 * h * (x_idx.size + h_idx.size)
        counter.comparisons = (i + h) * steps
        x_step, x_col, x_run = _column_runs(np.repeat(t_all, ex), x_idx)
        h_step, h_col, h_run = _column_runs(np.repeat(t_all, eh), h_idx)
        h_base = weight_base + 3 * h * i
        rows = _row_block(
            [(-1, _WEIGHTS, weight_base + spec.weight_words, layer_bias_words(spec))]
            + [(x_step, _WEIGHTS, weight_base + (m * i + x_col) * h, x_run * h)
               for m in range(3)]
            + [(h_step, _WEIGHTS, h_base + (m * h + h_col) * h, h_run * h)
               for m in range(3)]
            + [(t_all, _ACT_READ, 0, i), (t_all, _STATE_READ, 0, 5 * h),
               (t_all, _STATE_WRITE, 0, ex + eh + 5 * h)])
    else:
        bias = spec.acc_bias
        proven = layer_no_clip(spec, xs, state)
        hw = hside.cols.T
        chunk = max(1, SLAB_BYTES // bias.nbytes)
        for t0 in range(0, steps, chunk):
            block = xs[t0:t0 + chunk]
            pre = np.tile(bias, (len(block), 1))  # one accumulator row per step
            if proven:
                np.add(pre[:, :3 * h], block @ xside.cols, out=pre[:, :3 * h],
                       casting="unsafe")
            else:
                sats += sat_columns(pre[:, :3 * h].T, xside.cols.T, block.T)
            for t, acc_t in enumerate(pre, t0):
                if proven:
                    np.add(acc_t[h:], hw @ h_prev, out=acc_t[h:], casting="unsafe")
                else:
                    sats += sat_columns(acc_t[h:], hw, h_prev)
                out[t], clips = _gates(spec, acc_t, h_prev)
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
    return out, state, LayerRecord(counter, ex, eh, rows, skipped)


def layer_bias_words(spec: GruLayerSpec) -> int:
    return 6 * spec.hidden_size  # three 32-bit bias vectors in 16-bit words


@dataclass
class GruSeqRun:
    """A sequence run: the final layer's (steps, hidden) Q8.8 outputs,
    per-layer event counts, quiet steps skipped and op counters, and the
    access trace.

    Every executed MAC reads one weight word, so the weight words
    fetched are the executed MACs and the dense-equivalent weight words
    the dense-equivalent MACs.
    """

    outputs: QTensor
    x_events: np.ndarray  # (layers, steps): input components sent on
    h_events: np.ndarray  # (layers, steps): hidden components sent on
    steps_skipped: list[int]  # per layer: quiet steps with no gate call
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
        steps_skipped=[r.steps_skipped for r in records],
        layer_counters=[r.counter for r in records],
        trace=trace)
