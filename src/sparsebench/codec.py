"""Sparsity-map compression and delta-event streams.

A feature map is stored as a one-bit-per-pixel sparsity map (SM) plus a
non-zero value list (NZVL) holding the 16-bit values of the marked
pixels, in canonical order. Inactive pixels therefore cost 1 bit, active
ones 17. The SM is packed LSB-first within each byte and zero-padded to
a byte boundary. Every read of a map takes one checked scan of its
bitmap (`_set_pixels`: byte length, zero padding bits, one marked pixel
per value): loading a `.smfm` only checks, `decode_sm` scatters the
values to the marked pixels, and `nonzero_arrays` lists their positions.

Delta events are the (index, value) pairs for the components of a
vector whose change since the last transmitted value strictly exceeds a
threshold. `encode_delta` is the one threshold step, on raw int16
arrays: the full change is transmitted as an int32 delta (a difference
of 16-bit numbers can need 17 bits), indices come in increasing order,
and the per-component memory advances in place only where an event fires.
"""

from dataclasses import dataclass
import struct

import numpy as np

from ._binio import Reader, atomic_write, read_bytes
from .errors import MalformedStream, ShapeMismatch
from .fxp import QFormat, QTensor, read_head

SMFM_MAGIC = b"SMFM"
SMFM_VERSION = 0x01


@dataclass
class SparseFeatureMap:
    """SM bitmap + non-zero value list encoding of a (C, H, W) tensor."""

    dims: tuple[int, int, int]
    fmt: QFormat
    sm: np.ndarray    # packed uint8 bitmap, LSB-first, padded to a byte
    nzvl: np.ndarray  # int16 values of the set pixels, canonical order

    @property
    def total_pixels(self) -> int:
        c, h, w = self.dims
        return c * h * w

    @property
    def nnz(self) -> int:
        return int(self.nzvl.size)

    @property
    def payload_bits(self) -> int:
        """Information content: 1 bit per pixel + 16 per non-zero value."""
        return self.total_pixels + 16 * self.nnz

    @property
    def payload_words(self) -> int:
        """Payload rounded up to 16-bit words (the traced traffic unit)."""
        return (self.payload_bits + 15) // 16

    @property
    def dense_bits(self) -> int:
        return 16 * self.total_pixels

    @property
    def compression_ratio(self) -> float:
        return self.dense_bits / self.payload_bits


@dataclass
class SparsityStats:
    total_pixels: int
    zero_pixels: int
    per_channel_sparsity: list[float]

    @property
    def sparsity(self) -> float:
        return self.zero_pixels / self.total_pixels


def encode_sm(t: QTensor) -> SparseFeatureMap:
    """Compress a feature map losslessly into SM + NZVL form."""
    if len(t.dims) != 3:
        raise ShapeMismatch(f"expected a (C, H, W) tensor, got dims {t.dims}")
    flat = t.flat
    mask = flat != 0
    sm = np.packbits(mask, bitorder="little")
    return SparseFeatureMap(t.dims, t.fmt, sm, flat[np.flatnonzero(mask)])  # ~4x a mask gather


def _set_pixels(s: SparseFeatureMap) -> np.ndarray:
    """Flat indices of the pixels the bitmap marks, ascending, after the
    map's checks: the bitmap's byte length, zero padding bits, and one
    marked pixel per value-list entry. The one read of a bitmap."""
    n = s.total_pixels
    if s.sm.size != (n + 7) // 8:
        raise MalformedStream(
            f"sparsity map has {s.sm.size} bytes, expected {(n + 7) // 8}")
    bits = np.unpackbits(s.sm, bitorder="little")
    if np.any(bits[n:]):
        raise MalformedStream("non-zero padding bits after sparsity map")
    idx = np.flatnonzero(bits[:n].view(bool))  # ~4x faster than on the uint8 bits
    if idx.size != s.nzvl.size:
        raise MalformedStream(
            f"sparsity map marks {idx.size} pixels but value list has {s.nzvl.size}")
    return idx


def decode_sm(s: SparseFeatureMap) -> QTensor:
    """Expand back to a dense tensor; exact inverse of encode_sm."""
    flat = np.zeros(s.total_pixels, dtype=np.int16)
    flat[_set_pixels(s)] = s.nzvl
    return QTensor(s.dims, s.fmt, flat)


def nonzero_arrays(s: SparseFeatureMap) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """(c, y, x, raw) arrays of the non-zero pixels in canonical order,
    from the checked bitmap."""
    c, h, w = s.dims
    cs, rem = np.divmod(_set_pixels(s), h * w)
    ys, xs = np.divmod(rem, w)
    return cs, ys, xs, s.nzvl.astype(np.int64)


def measure_sparsity(t: QTensor) -> SparsityStats:
    """Exact zero-pixel counts, total and per leading-dimension slice."""
    total = t.size
    zeros = int(np.count_nonzero(t.data == 0))
    per_channel = []
    if len(t.dims) >= 2:
        slice_size = total // t.dims[0]
        flat = t.data.reshape(t.dims[0], slice_size)
        per_channel = [
            float(np.count_nonzero(row == 0)) / slice_size for row in flat
        ]
    else:
        per_channel = [zeros / total]
    return SparsityStats(total, zeros, per_channel)


def encode_delta(mem: np.ndarray, cur: np.ndarray, theta_raw: int
                 ) -> tuple[np.ndarray, np.ndarray]:
    """The threshold step on raw int16 vectors: components with
    |cur - mem| strictly greater than ``theta_raw`` (>= 0) fire. Their
    memory advances to cur in place; the rest keep their old memory, so
    sub-threshold drift accumulates until it crosses the threshold.

    Returns the events as (indices, int32 deltas), indices increasing.
    """
    d = cur.astype(np.int32)
    d -= mem
    idx = (np.abs(d) > theta_raw).nonzero()[0]
    mem[idx] = cur[idx]
    return idx, d[idx]


# --- .smfm file format --------------------------------------------------------
# magic "SMFM", version 0x01, u8 int_bits, u8 frac_bits, u32 C, u32 H,
# u32 W, u32 nnz, packed SM bytes, nnz x i16 LE. All little-endian.

def to_smfm_bytes(s: SparseFeatureMap) -> bytes:
    c, h, w = s.dims
    head = SMFM_MAGIC + struct.pack(
        "<BBBIIII", SMFM_VERSION, s.fmt.int_bits, s.fmt.frac_bits, c, h, w, s.nnz
    )
    return head + s.sm.tobytes() + s.nzvl.astype("<i2").tobytes()


def from_smfm_bytes(data: bytes) -> SparseFeatureMap:
    r = Reader(data)
    fmt = read_head(r, SMFM_MAGIC, SMFM_VERSION)
    c = r.u32("C")
    h = r.u32("H")
    w = r.u32("W")
    if c == 0 or h == 0 or w == 0:
        raise MalformedStream(f"zero dimension in ({c}, {h}, {w})", r.pos - 12)
    nnz = r.u32("nnz")
    n = c * h * w
    if nnz > n:
        raise MalformedStream(f"nnz {nnz} exceeds pixel count {n}", r.pos - 4)
    sm = np.frombuffer(r.take((n + 7) // 8, "sparsity map"), dtype=np.uint8).copy()
    nzvl = np.frombuffer(r.take(2 * nnz, "value list"), dtype="<i2").astype(np.int16)
    r.expect_end()
    if np.any(nzvl == 0):
        raise MalformedStream("zero value in non-zero value list")
    s = SparseFeatureMap((c, h, w), fmt, sm, nzvl)
    _set_pixels(s)  # checks the padding bits and the marked count
    return s


def save_smfm(s: SparseFeatureMap, path: str) -> None:
    atomic_write(path, to_smfm_bytes(s))


def load_smfm(path: str) -> SparseFeatureMap:
    return from_smfm_bytes(read_bytes(path))
