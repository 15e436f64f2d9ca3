"""Memory access traces.

Engines emit an ordered stream of runs; the cost model walks the stream.
A trace is one int64 table, a row per run of n sequential words, with
the columns in COLUMNS: the code of the run's (region, kind, tag), its
index in region-major order (`triple_code`), the layer that made the
access, address and nwords. The semantics are always the flattened
per-word list (address, ..., address+nwords-1), the CSV export's rows.
"""

import itertools
import re

import numpy as np

from ._binio import atomic_write
from .fxp import INT64_MAX

REGIONS = ("DRAM", "SRAM")
KINDS = ("read", "write")
TAGS = ("weights", "activations", "state")
COLUMNS = ("triple", "layer", "address", "nwords")
_HEADER = "region,address,kind,tag"  # of the per-word CSV, one line per word
_ADDRESS = re.compile("-?[0-9]+")  # a CSV address field; a negative one is named later

# Every (region, kind, tag) triple, region-major: a triple's code is its index.
_TRIPLES = list(itertools.product(REGIONS, KINDS, TAGS))
_TRIPLE_INDEX = {triple: i for i, triple in enumerate(_TRIPLES)}


def triple_code(region: str, kind: str, tag: str) -> int:
    """The index of a (region, kind, tag) triple, the code the columnar
    entry points take."""
    for what, value, names in (("region", region, REGIONS),
                               ("access kind", kind, KINDS), ("tag", tag, TAGS)):
        if value not in names:
            raise ValueError(f"unknown {what} {value!r}")
    return _TRIPLE_INDEX[region, kind, tag]


def _int64(values) -> np.ndarray:
    """An int64 array of addresses or run lengths; a value outside int64 is
    a ValueError, like an address run that ends past it."""
    try:
        return np.asarray(values, np.int64)
    except OverflowError:
        raise ValueError("address run end (address + nwords) does not fit int64") from None


def _rows(triple, layer, address, nwords, key=None) -> np.ndarray:
    """Checked table rows from whole columns, one entry per run; zero-length
    runs are dropped. ``triple`` and ``layer`` may be ints shared by every
    row; every other column is 1-D and as long as ``address``. With a
    ``key``, the rows are ordered by a stable sort on it."""
    address, nwords = _int64(address), _int64(nwords)
    triple, layer = np.asarray(triple, np.int64), np.asarray(layer, np.int64)
    if address.ndim != 1:
        raise ValueError(f"address column must be 1-D, got shape {address.shape}")
    columns = [("run length", nwords)] + [
        (what, c) for what, c in (("triple", triple), ("layer", layer)) if c.ndim]
    if key is not None:
        columns.append(("key", key))
    for what, column in columns:
        if np.shape(column) != address.shape:
            raise ValueError(f"{what} column of shape {np.shape(column)} "
                             f"for {address.size} addresses")
    if not 0 <= triple.min(initial=0) <= triple.max(initial=0) < len(_TRIPLES):
        raise ValueError(f"triple column holds a code outside [0, {len(_TRIPLES)})")
    if layer.min(initial=0) < 0:
        raise ValueError(f"layer column holds negative layer {layer.min()}")
    if address.min(initial=0) < 0:
        raise ValueError(f"negative address {address.min()}")
    if nwords.min(initial=0) < 0:
        raise ValueError(f"negative run length {nwords.min()}")
    if np.any(address > INT64_MAX - nwords):  # both non-negative: no wrap here
        raise ValueError("address run end (address + nwords) does not fit int64")
    if key is None:
        keep = nwords > 0
        order = slice(None) if keep.all() else keep.nonzero()[0]
    else:
        order = np.argsort(key, kind="stable")
        order = order[nwords[order] > 0]
    address = address[order]
    rows = np.empty((address.size, len(COLUMNS)), np.int64)
    rows[:, 0] = triple[order] if triple.ndim else triple
    rows[:, 1] = layer[order] if layer.ndim else layer
    rows[:, 2] = address
    rows[:, 3] = nwords[order]
    return rows


class AccessTrace:
    """An ordered, checked table of access runs. Build one from columns
    (`from_columns`) or from traces laid end to end (`concat`)."""

    def __init__(self, table: np.ndarray):
        self.table = table  # (runs, len(COLUMNS)) int64, in trace order

    @classmethod
    def from_columns(cls, triple, layer, address, nwords, key=None) -> "AccessTrace":
        """A trace from whole int64 columns, one entry per run: triple
        codes (`triple_code`), layer, address and run length; ``triple``
        and ``layer`` may be ints shared by every row. Rows keep the order
        given, or with a ``key`` are ordered by a stable sort on it, so rows
        with equal keys keep their order. Zero-length runs are dropped; a
        malformed column raises ValueError."""
        return cls(_rows(triple, layer, address, nwords, key))

    @classmethod
    def concat(cls, traces) -> "AccessTrace":
        """The rows of already-built traces, end to end, layers as they are."""
        tables = [t.table for t in traces]
        return cls(np.concatenate(tables) if tables
                   else np.empty((0, len(COLUMNS)), np.int64))

    def select_layer(self, layer: int) -> "AccessTrace":
        """The rows of one layer, in order."""
        return AccessTrace(self.table[self.table[:, 1] == layer])

    def __len__(self) -> int:
        return len(self.table)

    def word_count(self) -> int:
        return int(self.table[:, 3].sum())

    def runs(self) -> list[tuple[str, str, str, int, int, int]]:
        """The rows with region, kind and tag as names."""
        return [(*_TRIPLES[triple], layer, address, nwords)
                for triple, layer, address, nwords in self.table.tolist()]

    def to_csv(self) -> str:
        """One row per word access: region,address,kind,tag."""
        lines = [_HEADER]
        for region, kind, tag, _, address, nwords in self.runs():
            lines.extend(f"{region},{a},{kind},{tag}"
                         for a in range(address, address + nwords))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        atomic_write(path, self.to_csv().encode())


def trace_from_csv(text: str) -> AccessTrace:
    """Parse the CSV export format back into a trace. Consecutive words with
    the same (region, kind, tag) and the next address become one run, which
    leaves the trace's cost unchanged (it does not depend on run chunking).
    A text in the canonical export format is parsed as whole columns; any
    other text goes through the ordered per-row loop."""
    triple, address = _canonical_columns(text) or _ordered_columns(text)
    return _merged_runs(triple, address)


def _ordered_columns(text: str) -> tuple[np.ndarray, np.ndarray]:
    """Per-word triple and address columns, one row at a time: rows end at
    "\n" (a "\r" before it is dropped), blank lines are skipped, fields
    may carry surrounding whitespace, an address is an optional "-" and
    ASCII digits, and a malformed row raises ValueError."""
    lines = [ln.removesuffix("\r") for ln in text.split("\n")]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].strip() != _HEADER:
        raise ValueError(f"expected header {_HEADER!r}")
    triples, addresses = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad trace row {ln!r}")
        region, address, kind, tag = map(str.strip, parts)
        triples.append(triple_code(region, kind, tag))
        if not _ADDRESS.fullmatch(address):
            raise ValueError(f"bad trace row {ln!r}")
        addresses.append(int(address))
    del lines  # the parsed text can go before the columns are built
    address = _int64(addresses)
    del addresses
    return np.array(triples, dtype=np.int64), address


def _le_word(b: bytes) -> int:
    return int.from_bytes(b, "little")


# A canonical data line is a region prefix, 1-18 ASCII digits (below 10**18,
# so int64 holds them) and a ",kind,tag\n" suffix. The six suffixes have
# distinct lengths, so a line's length past its second comma names the only
# suffix it can hold; the parse then compares bytes as 8-byte words, three of
# them (_SPAN bytes) past that comma, enough for the longest suffix.
_MAX_DIGITS = 18
_SPAN = 24
_PREFIX_WORDS = [_le_word(f"{r},".encode()) for r in REGIONS]
_PREFIX_MASK = _le_word(b"\xff" * len("DRAM,"))
_SUFFIXES = [f",{k},{t}\n".encode() for k in KINDS for t in TAGS]
_SUFFIX_BY_LENGTH = np.full(_SPAN + 1, -1, dtype=np.int64)
_SUFFIX_BY_LENGTH[[len(s) for s in _SUFFIXES]] = range(len(_SUFFIXES))
# Row w: the word at offset 8w of each suffix, and the mask of the suffix
# bytes that word holds.
_SUFFIX_WORDS = np.array([[_le_word(s[i:i + 8]) for s in _SUFFIXES]
                          for i in range(0, _SPAN, 8)], dtype=np.uint64)
_SUFFIX_MASKS = np.array([[_le_word(b"\xff" * len(s[i:i + 8])) for s in _SUFFIXES]
                          for i in range(0, _SPAN, 8)], dtype=np.uint64)


def _canonical_columns(text: str) -> tuple[np.ndarray, np.ndarray] | None:
    """Per-word triple and address columns of a text in the canonical export
    format, parsed as whole columns: the header line, then only lines
    "DRAM|SRAM,<1-18 digits>,read|write,weights|activations|state", each
    ending in "\n" (the last newline may be missing). None for any other
    text, which `_ordered_columns` then parses."""
    if not text.startswith(_HEADER + "\n") or not text.isascii():
        return None
    if not text.endswith("\n"):
        text += "\n"
    buf = text.encode("ascii") + bytes(_SPAN)  # so every word read below is in range
    data = np.frombuffer(buf, dtype=np.uint8)
    # The little-endian 8-byte word that starts at each byte: a view, no copy.
    words = np.ndarray((len(buf) - 7,), "<u8", buf, 0, (1,))
    ends = np.flatnonzero(data == ord("\n"))[1:]  # past the header's
    commas = np.flatnonzero(data == ord(","))[3:]
    n = ends.size
    if commas.size != 3 * n:
        return None
    comma = commas[1::3]  # each line's second comma, if each line has three
    starts = np.empty(n, dtype=np.int64)
    starts[:1] = len(_HEADER) + 1
    starts[1:] = ends[:-1] + 1
    # Each line must be a prefix, then digits up to its `comma`, then the
    # suffix from there to its newline. A line that passes these three exact
    # checks is canonical, so it has three commas and `comma` is its second.
    prefix = words[starts] & _PREFIX_MASK
    region = prefix == _PREFIX_WORDS[1]
    if not np.all(region | (prefix == _PREFIX_WORDS[0])):
        return None
    suffix = _SUFFIX_BY_LENGTH[np.clip(ends + 1 - comma, 0, _SUFFIX_BY_LENGTH.size - 1)]
    if np.any(suffix < 0):
        return None
    for w, (mask, expected) in enumerate(zip(_SUFFIX_MASKS, _SUFFIX_WORDS)):
        if np.any(words[comma + 8 * w] & mask[suffix] != expected[suffix]):
            return None
    digits = comma - starts - len("DRAM,")
    if digits.min(initial=1) < 1 or digits.max(initial=1) > _MAX_DIGITS:
        return None
    address = np.zeros(n, dtype=np.int64)
    for k in range(int(digits.max(initial=0)), 0, -1):  # most significant first
        digit = np.where(digits >= k, data[comma - k] - ord("0"), 0)
        if digit.max() > 9:  # a byte below "0" wraps past 9 as well
            return None
        address *= 10
        address += digit
    return region * len(_SUFFIXES) + suffix, address  # the triple code


def _merged_runs(triple: np.ndarray, address: np.ndarray) -> AccessTrace:
    """The trace of per-word columns, each word that has its predecessor's
    triple and the next address merged into its run. A negative address
    always starts a run, so the subtraction cannot wrap and from_columns
    rejects it as it is."""
    starts = np.ones(address.size, dtype=bool)
    starts[1:] = ((triple[1:] != triple[:-1]) | (address[1:] - 1 != address[:-1])
                  | (address[1:] < 0))
    first = np.flatnonzero(starts)
    return AccessTrace.from_columns(triple[first], 0, address[first],
                                    np.diff(first, append=address.size))
