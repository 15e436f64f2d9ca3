"""Fixed-point numeric core: Q-format arrays, saturating MAC arithmetic,
operation counting, the header ".qt" and ".smfm" files open with, and
the ".qt" tensor file format.

Every stored value is a 16-bit two's-complement integer with a declared
Q-format (int_bits.frac_bits summing to 16). Accumulation uses 32-bit
saturating accumulators; conversion back to 16 bits rounds to nearest,
ties to even. All arithmetic is integer, so results are bit-reproducible
across platforms and runs.

Saturation never raises: the clamp is applied silently and counted on the
``OpCounter`` passed to the operation, so callers can assert that a run
stayed inside range.
"""

from dataclasses import dataclass, fields
import hashlib
import math
import re
import struct

import numpy as np

from ._binio import Reader, atomic_write, read_bytes
from .errors import MalformedStream, ShapeMismatch

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1
INT64_MAX = (1 << 63) - 1

QT_MAGIC = b"QTSR"
QT_VERSION = 0x01


@dataclass(frozen=True)
class QFormat:
    """16-bit fixed-point format: int_bits (incl. sign) + frac_bits == 16."""

    int_bits: int
    frac_bits: int

    def __post_init__(self):
        if self.int_bits + self.frac_bits != 16:
            raise ValueError(f"Q{self.int_bits}.{self.frac_bits}: bits must sum to 16")
        if self.frac_bits < 0 or self.int_bits < 1:
            raise ValueError(f"Q{self.int_bits}.{self.frac_bits}: invalid split")

    @property
    def scale(self) -> int:
        return 1 << self.frac_bits

    @classmethod
    def parse(cls, text: str) -> "QFormat":
        """Parse "Q8.8"-style notation: `[Qq][0-9]+.[0-9]+`, blanks around it."""
        m = re.fullmatch(r"[Qq]([0-9]+)\.([0-9]+)", text.strip())
        if m is None:
            raise ValueError(f"bad Q-format {text!r}, expected e.g. 'Q8.8'")
        return cls(int(m[1]), int(m[2]))

    def __str__(self) -> str:
        return f"Q{self.int_bits}.{self.frac_bits}"


Q8_8 = QFormat(8, 8)
Q2_14 = QFormat(2, 14)


@dataclass
class OpCounter:
    """Arithmetic-event tally for a run.

    A MAC counts as 2 Op; ``adds`` collects every remaining single-Op
    arithmetic event (additions, subtractions, standalone multiplies) and
    ``comparisons`` every compare (ReLU clamps, pooling maxes, delta
    thresholds). ``macs_dense_equivalent`` is what a non-skipping engine
    would have executed for the same layer; ``saturations`` is a
    diagnostic, not an Op. Activation-table lookups are not counted.
    """

    macs_executed: int = 0
    macs_dense_equivalent: int = 0
    adds: int = 0
    comparisons: int = 0
    saturations: int = 0

    @property
    def total_op(self) -> int:
        return 2 * self.macs_executed + self.adds + self.comparisons

    @property
    def dense_equivalent_op(self) -> int:
        """MAC-only convention: the numerator of effective throughput."""
        return 2 * self.macs_dense_equivalent

    def merge(self, other: "OpCounter") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))


class QTensor:
    """Dense fixed-point tensor.

    Shapes are (N), (T, N), (C, H, W) or (O, I, KH, KW); the canonical
    flat order is C order (for feature maps: channel-major, then
    row-major, index = c*H*W + y*W + x).
    """

    __slots__ = ("dims", "fmt", "data")

    def __init__(self, dims: tuple[int, ...], fmt: QFormat, data: np.ndarray):
        dims = tuple(int(d) for d in dims)
        if not 1 <= len(dims) <= 4:
            raise ShapeMismatch(f"unsupported rank {len(dims)}")
        if any(d <= 0 for d in dims):
            raise ShapeMismatch(f"non-positive dimension in {dims}")
        if data.dtype != np.int16:
            raise ValueError("QTensor data must be int16")
        if data.size != math.prod(dims):
            raise ShapeMismatch(f"data length {data.size} != product of {dims}")
        self.dims = dims
        self.fmt = fmt
        self.data = np.ascontiguousarray(data.reshape(dims))

    @classmethod
    def zeros(cls, dims: tuple[int, ...], fmt: QFormat) -> "QTensor":
        return cls(dims, fmt, np.zeros(dims, dtype=np.int16))

    @property
    def flat(self) -> np.ndarray:
        return self.data.reshape(-1)

    @property
    def size(self) -> int:
        return self.data.size

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, QTensor)
            and self.dims == other.dims
            and self.fmt == other.fmt
            and bool(np.array_equal(self.data, other.data))
        )

    def __repr__(self) -> str:
        return f"QTensor(dims={self.dims}, fmt={self.fmt})"

    def sha256(self) -> str:
        """Digest of the canonical serialization; used for output equality."""
        return hashlib.sha256(to_qt_bytes(self)).hexdigest()


# --- real <-> raw conversion --------------------------------------------------

def quantize_array(values: np.ndarray, fmt: QFormat, counter: OpCounter | None = None) -> np.ndarray:
    """Round to nearest even and saturate to 16 bits; a NaN or infinite
    value has no fixed-point meaning and raises ``MalformedStream``."""
    arr = np.asarray(values, dtype=np.float64)
    if not np.isfinite(arr).all():
        raise MalformedStream(f"cannot quantize a non-finite value to {fmt}")
    with np.errstate(over="ignore"):  # a product past float64 range saturates like any other
        scaled = np.rint(arr * fmt.scale)
    if counter is not None:
        counter.saturations += int(np.count_nonzero((scaled < INT16_MIN) | (scaled > INT16_MAX)))
    return np.clip(scaled, INT16_MIN, INT16_MAX).astype(np.int16)


def int32_array(values, what: str) -> np.ndarray:
    """``values`` (integers) as int32; a value past int32 raises
    ``MalformedStream`` naming ``what`` instead of wrapping."""
    wide = np.asarray(values, dtype=np.int64)
    past = wide[(wide < INT32_MIN) | (wide > INT32_MAX)]
    if past.size:
        raise MalformedStream(f"{what}: {past[0]} is past the int32 range")
    return wide.astype(np.int32)


# --- accumulator arithmetic ---------------------------------------------------

# The saturating accumulator every engine uses. An engine's exact result
# is its terms added in a fixed order, clamped to int32 after each one
# (the ordered step, `sat_add`). An engine may drop the clamps only for
# a whole layer run, and only after it has proven, before the run's
# first term, that no ordered prefix of any accumulator's terms can
# clip: `conv.layer_no_clip`, which serves both conv engines, and
# `gru.layer_no_clip`, which serves both GRU engines. Each proof bounds
# every prefix by a sum of magnitudes, ``|acc| + |W| @ P`` with P a
# bound on each factor's magnitude. Then every product of the run is
# one float64 BLAS product, and without the proof every product is the
# ordered steps (`sat_columns`, or a conv engine's `sat_add` per
# (channel, tap)); there is no route in between. `sat_matvec` is that
# choice for the delta GRU. Both conv engines and the dense GRU take
# their own products (an entry may sum any subset of one accumulator's
# terms), so no check rests on one shared unchecked branch.
#
# Why a passing bound makes the float64 product exact. Each bound is
# computed in float64 from integers far below 2**53 (int16 weights, and
# factor bounds, biases and accumulators of at most 32 bits). Its terms
# are non-negative and rounding to nearest is monotone, so each computed
# partial sum, in any summation order the BLAS picks (fused multiply-adds
# included), is at least each term or partial sum it adds up: a computed
# bound at or below INT32_MAX caps every computed step. By induction over
# the steps, each exact value is then an integer below 2**31, since one
# of 2**31 or more would round to at least 2**31; so each is represented
# exactly and the computed bound is the exact one. Every partial sum of
# the signed product ``acc + W @ x``, in any order, is at most that bound
# in magnitude, so it too is an exact integer below 2**31. (The delta
# GRU's product of deltas, taken before it is added, stays below 2**32
# instead; `gru.layer_no_clip` says why.)

# An engine that takes a block of terms at once (a conv oracle channel
# group or zero-skip chunk of taps, a dense GRU chunk of steps) caps its
# work matrix near this many bytes, so memory stays bounded on large
# inputs; a block holds at least one channel, tap or step.
SLAB_BYTES = 2 << 20


def sat_add(acc: np.ndarray, term) -> int:
    """Ordered step: ``acc += term`` in place, clamped to int32.

    ``acc`` is an int32 or int64 array or view; returns the number of
    elements that clipped.
    """
    wide = np.add(acc, term, dtype=np.int64)
    clips = 0
    if wide.min(initial=0) < INT32_MIN or wide.max(initial=0) > INT32_MAX:
        clipped = np.clip(wide, INT32_MIN, INT32_MAX)
        clips = int(np.count_nonzero(clipped != wide))
        wide = clipped
    acc[...] = wide
    return clips


def sat_columns(acc: np.ndarray, w: np.ndarray, x: np.ndarray) -> int:
    """``acc += w @ x`` as ordered steps ``outer(w[:, j], x[j])``, j
    ascending, each one clamped to int32 (`sat_add`).

    ``w`` and ``x`` hold integer values (any dtype); ``x`` is a vector,
    or a (rows, cols) matrix with ``acc`` (out, cols). Rows of ``x``
    that are all zero are skipped, and the zero entries of other rows
    add zero: both are the identity on an accumulator in int32 range.
    Returns the number of clips.

    The steps are int64, so each term plus the accumulator must fit:
    with A = max(max|acc|, 2**31), an upper bound on |acc| before every
    step (each step clamps it into int32), every row must have
    A + max|w[:, j]| * max|x[j]| <= INT64_MAX, checked in Python ints.
    Otherwise ``ValueError`` is raised before ``acc`` is touched.
    """
    acc2 = acc.reshape(len(acc), -1)  # a view; a vector is one column
    x2 = np.reshape(x, (len(x), -1))
    peak = [max(-int(lo), int(hi)) for lo, hi in
            zip(x2.min(axis=1, initial=0).tolist(), x2.max(axis=1, initial=0).tolist())]
    nz = [j for j, p in enumerate(peak) if p]
    cols = w.T[nz].astype(np.int64)
    if nz:
        room = INT64_MAX - max(-int(acc.min(initial=0)), int(acc.max(initial=0)), 1 << 31)
        for j, lo, hi in zip(nz, cols.min(axis=1).tolist(), cols.max(axis=1).tolist()):
            if max(-lo, hi) * peak[j] > room:
                raise ValueError(f"a term {max(-lo, hi)} * {peak[j]} overflows the int64 step")
    rows = x2[nz].astype(np.int64)
    return sum(sat_add(acc2, np.multiply.outer(col, row)) for col, row in zip(cols, rows))


def sat_matvec(acc: np.ndarray, w: np.ndarray, x: np.ndarray, proven: bool) -> int:
    """``acc += w @ x``, the ordered, clamped sum; returns the clips.

    ``w`` is an integer-valued float64 matrix and ``x`` an integer-valued
    vector, or a (rows, cols) matrix with ``acc`` (out, cols). With
    ``proven``, the caller has proven that no prefix of these terms,
    from this ``acc``, can clip (see the comment above): ``w @ x`` is one
    float64 product, exact, and added in place with no clip. Otherwise
    the ordered `sat_columns` steps run.
    """
    if proven:
        np.add(acc, w @ x.astype(np.float64, copy=False), out=acc, casting="unsafe")
        return 0
    return sat_columns(acc, w, x)


def round_shift_even(values: np.ndarray, shift: int) -> np.ndarray:
    """Divide int64 values by 2**shift, rounding to nearest, ties to even.

    shift <= 0 multiplies exactly instead.
    """
    v = np.asarray(values, dtype=np.int64)
    if shift <= 0:
        return v << (-shift)
    q = v >> shift
    # Round up past half, or at half when q is odd: remainder + (q & 1) > half.
    r = v & ((1 << shift) - 1)
    r += q & 1
    q += r > (1 << (shift - 1))
    return q


def renormalize_array(acc: np.ndarray, frac_in: int, out_fmt: QFormat,
                      counter: OpCounter | None = None) -> np.ndarray:
    """Round accumulators at scale 2**frac_in (sums of products whose
    fractional bits add up to frac_in) to ``out_fmt``: ties to even, then
    saturated to 16 bits."""
    shifted = round_shift_even(acc, frac_in - out_fmt.frac_bits)
    if counter is not None:
        counter.saturations += int(np.count_nonzero((shifted < INT16_MIN) | (shifted > INT16_MAX)))
    return np.clip(shifted, INT16_MIN, INT16_MAX).astype(np.int16)


# --- .qt file format ----------------------------------------------------------
# magic "QTSR", version 0x01, u8 int_bits, u8 frac_bits, u8 rank,
# rank x u32 LE dims, then i16 LE values in canonical order.

def qt_header(dims: tuple[int, ...], fmt: QFormat) -> bytes:
    """The .qt bytes that come before the values of a tensor."""
    return QT_MAGIC + struct.pack(
        f"<BBBB{len(dims)}I", QT_VERSION, fmt.int_bits, fmt.frac_bits, len(dims), *dims)


def to_qt_bytes(t: QTensor) -> bytes:
    return qt_header(t.dims, t.fmt) + t.flat.astype("<i2").tobytes()


def read_head(r: Reader, magic: bytes, version: int) -> QFormat:
    """The Q-format of a container that opens with ``magic``, u8 ``version``,
    u8 int_bits, u8 frac_bits; an error names the offset of the bad field."""
    got = r.take(len(magic), "magic")
    if got != magic:
        raise MalformedStream(f"bad magic {got!r}, expected {magic!r}", 0)
    got = r.u8("version")
    if got != version:
        raise MalformedStream(f"unsupported version {got}", r.pos - 1)
    int_bits = r.u8("int_bits")
    frac_bits = r.u8("frac_bits")
    try:
        return QFormat(int_bits, frac_bits)
    except ValueError as exc:
        raise MalformedStream(str(exc), r.pos - 2) from exc


def from_qt_bytes(data: bytes) -> QTensor:
    r = Reader(data)
    fmt = read_head(r, QT_MAGIC, QT_VERSION)
    rank = r.u8("rank")
    if not 1 <= rank <= 4:
        raise MalformedStream(f"unsupported rank {rank}", r.pos - 1)
    dims = tuple(r.u32(f"dim {i}") for i in range(rank))
    if any(d == 0 for d in dims):
        raise MalformedStream(f"zero dimension in {dims}", r.pos - 4)
    n = math.prod(dims)  # Python ints: a huge header cannot wrap
    values = np.frombuffer(r.take(2 * n, "values"), dtype="<i2").astype(np.int16)
    r.expect_end()
    return QTensor(dims, fmt, values)


def save_qt(t: QTensor, path: str) -> None:
    atomic_write(path, to_qt_bytes(t))


def load_qt(path: str) -> QTensor:
    return from_qt_bytes(read_bytes(path))
