"""Fixed-point numeric core: Q-format values, saturating MAC arithmetic,
operation counting, and the ".qt" tensor file format.

Every stored value is a 16-bit two's-complement integer with a declared
Q-format (int_bits.frac_bits summing to 16). Accumulation uses 32-bit
saturating accumulators; conversion back to 16 bits rounds to nearest,
ties to even. All arithmetic is integer, so results are bit-reproducible
across platforms and runs.

Saturation never raises: the clamp is applied silently and counted on the
``OpCounter`` passed to the operation, so callers can assert that a run
stayed inside range.
"""

from dataclasses import dataclass, field, fields
import hashlib
import struct

import numpy as np

from ._binio import Reader, atomic_write
from .errors import MalformedStream, ShapeMismatch

INT16_MIN = -(1 << 15)
INT16_MAX = (1 << 15) - 1
INT32_MIN = -(1 << 31)
INT32_MAX = (1 << 31) - 1

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
        """Parse "Q8.8"-style notation."""
        t = text.strip()
        if not t.startswith(("Q", "q")) or "." not in t:
            raise ValueError(f"bad Q-format {text!r}, expected e.g. 'Q8.8'")
        i, f = t[1:].split(".", 1)
        return cls(int(i), int(f))

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


@dataclass(frozen=True)
class QScalar:
    """One 16-bit fixed-point value."""

    raw: int
    fmt: QFormat

    def __post_init__(self):
        if not INT16_MIN <= self.raw <= INT16_MAX:
            raise ValueError(f"raw {self.raw} outside 16-bit range")

    @property
    def value(self) -> float:
        return self.raw / self.fmt.scale


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
        if data.size != int(np.prod(dims)):
            raise ShapeMismatch(f"data length {data.size} != product of {dims}")
        self.dims = dims
        self.fmt = fmt
        self.data = np.ascontiguousarray(data.reshape(dims))

    @classmethod
    def zeros(cls, dims: tuple[int, ...], fmt: QFormat) -> "QTensor":
        return cls(dims, fmt, np.zeros(dims, dtype=np.int16))

    @classmethod
    def from_float(cls, values, fmt: QFormat, counter: OpCounter | None = None) -> "QTensor":
        arr = np.asarray(values, dtype=np.float64)
        return cls(arr.shape, fmt, quantize_array(arr, fmt, counter))

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


# --- scalar <-> raw conversion ------------------------------------------------

def quantize(value: float, fmt: QFormat, counter: OpCounter | None = None) -> QScalar:
    """Quantize a real value: round to nearest even, saturate to 16 bits."""
    raw = int(quantize_array(np.asarray(value, dtype=np.float64), fmt, counter))
    return QScalar(raw, fmt)


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


def dequantize(q: QScalar) -> float:
    """Exact real value of a fixed-point scalar."""
    return q.raw / q.fmt.scale


# --- accumulator arithmetic ---------------------------------------------------

def mac_accumulate(acc: int, a_raw: int, b_raw: int, counter: OpCounter | None = None) -> int:
    """One multiply-accumulate into a 32-bit saturating accumulator."""
    result = acc + a_raw * b_raw
    if counter is not None:
        counter.macs_executed += 1
        if not INT32_MIN <= result <= INT32_MAX:
            counter.saturations += 1
    return min(max(result, INT32_MIN), INT32_MAX)


# The saturating accumulator every engine uses. An engine's exact result
# is its terms added in a fixed order, clamped to int32 after each one
# (the ordered step). If |acc| + sum |terms| <= INT32_MAX, no prefix of
# that order can leave int32: every clamp is the identity, term order no
# longer matters, and one plain sum is bit-identical (the proven fast
# path). The dense conv oracle runs the ordered step only. The dense GRU
# oracle takes the fast path too, but over full matrices and full
# vectors, while the delta engine's products are over sparse deltas;
# so the theta-0 check still tests that the accumulated deltas
# telescope to the direct products, not the fast path against itself.

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


def no_clip(acc: np.ndarray, w: np.ndarray, x: np.ndarray) -> bool:
    """True when ``|acc| + |w| @ |x| <= INT32_MAX`` in every element.

    ``|w| @ |x|`` bounds the sum of the magnitudes of the terms
    ``w[:, j] * x[j]``, so no ordered prefix of them can clip. An engine
    whose terms are not materialized passes an upper bound per column
    in ``x`` (for example a channel's largest value).
    """
    bound = (np.abs(np.asarray(acc, dtype=np.int64))
             + np.abs(np.asarray(w, dtype=np.int64)) @ np.abs(np.asarray(x, dtype=np.int64)))
    return bool(bound.max(initial=0) <= INT32_MAX)


def sat_columns(acc: np.ndarray, w: np.ndarray, x: np.ndarray) -> int:
    """``acc += w @ x`` as ordered steps ``w[:, j] * x[j]``, j ascending.

    ``w`` holds integer values (any dtype) and ``x`` is an integer vector.
    Zero entries of ``x`` are skipped: adding zero to an in-range
    accumulator is the identity. Returns the number of clips.
    """
    nz = np.flatnonzero(x)
    cols = w.T[nz].astype(np.int64)
    return sum(sat_add(acc, col * v) for col, v in zip(cols, x[nz].tolist()))


def sat_matvec(acc: np.ndarray, w: np.ndarray, w_abs: np.ndarray,
               x: np.ndarray) -> int:
    """``sat_columns`` with the proven fast path; same result and clip
    count either way.

    ``w`` is an integer-valued float64 matrix, ``w_abs`` its ``|w|``, and
    ``x`` an integer vector. The ``no_clip`` bound is computed here in
    float64, as one BLAS matvec, and is exact whenever it passes. Its
    terms are non-negative and rounding to nearest is monotone, so each
    computed partial sum, in any summation order the BLAS picks (fused
    multiply-adds included), is at least each term or partial sum it
    adds up; a computed bound at or below INT32_MAX caps every computed
    step there. Step by step, from exact integer inputs: an exact value
    of 2**31 or more would round to at least 2**31, so each exact value
    is an integer below 2**31 < 2**53 and is represented exactly. An
    ``x`` entry of 2**53 or more is rounded when converted, but against
    a non-zero weight its term is at least 2**53 and fails the bound;
    against a zero weight the term is 0 either way.

    When the bound holds, ``w @ x`` is one float64 matvec and exact too:
    every partial sum of its signed terms, in any order, is bounded in
    magnitude by the exact bound, so it is an integer below 2**31.
    Otherwise the ordered int64 ``sat_columns`` loop runs.
    """
    xf = x.astype(np.float64)
    bound = np.abs(acc.astype(np.float64)) + w_abs @ np.abs(xf)
    if bound.max(initial=0) <= INT32_MAX:
        acc += (w @ xf).astype(np.int64)
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


def renormalize(acc: int, in_fmt_a: QFormat, in_fmt_b: QFormat, out_fmt: QFormat,
                counter: OpCounter | None = None) -> QScalar:
    """Round a 32-bit product-scale accumulator down to a 16-bit value.

    The accumulator holds sums of a*b products, i.e. it lives at scale
    2**(fa+fb); the result is rounded (ties to even) and saturated into
    ``out_fmt``.
    """
    raw = renormalize_array(np.asarray(acc, dtype=np.int64),
                            in_fmt_a.frac_bits + in_fmt_b.frac_bits, out_fmt, counter)
    return QScalar(int(raw), out_fmt)


def renormalize_array(acc: np.ndarray, frac_in: int, out_fmt: QFormat,
                      counter: OpCounter | None = None) -> np.ndarray:
    shifted = round_shift_even(acc, frac_in - out_fmt.frac_bits)
    if counter is not None:
        counter.saturations += int(np.count_nonzero((shifted < INT16_MIN) | (shifted > INT16_MAX)))
    return np.clip(shifted, INT16_MIN, INT16_MAX).astype(np.int16)


# --- .qt file format ----------------------------------------------------------
# magic "QTSR", version 0x01, u8 int_bits, u8 frac_bits, u8 rank,
# rank x u32 LE dims, then i16 LE values in canonical order.

def to_qt_bytes(t: QTensor) -> bytes:
    head = QT_MAGIC + struct.pack(
        "<BBBB", QT_VERSION, t.fmt.int_bits, t.fmt.frac_bits, len(t.dims)
    )
    dims = struct.pack(f"<{len(t.dims)}I", *t.dims)
    values = t.flat.astype("<i2").tobytes()
    return head + dims + values


def from_qt_bytes(data: bytes) -> QTensor:
    r = Reader(data)
    magic = r.take(4, "magic")
    if magic != QT_MAGIC:
        raise MalformedStream(f"bad magic {magic!r}, expected {QT_MAGIC!r}", 0)
    version = r.u8("version")
    if version != QT_VERSION:
        raise MalformedStream(f"unsupported version {version}", r.pos - 1)
    int_bits = r.u8("int_bits")
    frac_bits = r.u8("frac_bits")
    try:
        fmt = QFormat(int_bits, frac_bits)
    except ValueError as exc:
        raise MalformedStream(str(exc), r.pos - 2) from exc
    rank = r.u8("rank")
    if not 1 <= rank <= 4:
        raise MalformedStream(f"unsupported rank {rank}", r.pos - 1)
    dims = tuple(r.u32(f"dim {i}") for i in range(rank))
    if any(d == 0 for d in dims):
        raise MalformedStream(f"zero dimension in {dims}", r.pos - 4)
    n = int(np.prod(dims))
    values = np.frombuffer(r.take(2 * n, "values"), dtype="<i2").astype(np.int16)
    r.expect_end()
    return QTensor(dims, fmt, values)


def save_qt(t: QTensor, path: str) -> None:
    atomic_write(path, to_qt_bytes(t))


def load_qt(path: str) -> QTensor:
    with open(path, "rb") as fh:
        return from_qt_bytes(fh.read())
