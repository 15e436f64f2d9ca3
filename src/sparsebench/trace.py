"""Memory access traces.

Engines emit an ordered stream of runs; the cost model walks the stream.
A trace is one int64 table, a row per run of n sequential words, with
the columns in COLUMNS: region, kind and tag as indices into REGIONS,
KINDS and TAGS, the layer that made the access, address and nwords.
The semantics are always the flattened per-word list (address, ...,
address+nwords-1), which is what the CSV export produces.
"""

import itertools

import numpy as np

from ._binio import atomic_write_text

REGIONS = ("DRAM", "SRAM")
KINDS = ("read", "write")
TAGS = ("weights", "activations", "state")
COLUMNS = ("region", "kind", "tag", "layer", "address", "nwords")
INT64_MAX = 2**63 - 1

# Every (region, kind, tag) triple: its index, and its three column codes.
_TRIPLES = list(itertools.product(REGIONS, KINDS, TAGS))
_TRIPLE_INDEX = {triple: i for i, triple in enumerate(_TRIPLES)}
_TRIPLE_CODES = np.array([(REGIONS.index(r), KINDS.index(k), TAGS.index(t))
                          for r, k, t in _TRIPLES], dtype=np.int64)


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
    rows = np.empty((address[order].size, len(COLUMNS)), np.int64)
    codes = triple[order] if triple.ndim else triple
    for j in range(3):  # column by column: no (rows, 3) temporary
        rows[:, j] = _TRIPLE_CODES[codes, j]
    rows[:, 3] = layer[order] if layer.ndim else layer
    rows[:, 4] = address[order]
    rows[:, 5] = nwords[order]
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
        return AccessTrace(self.table[self.table[:, 3] == layer])

    def __len__(self) -> int:
        return len(self.table)

    def word_count(self) -> int:
        return int(self.table[:, 5].sum())

    def runs(self) -> list[tuple[str, str, str, int, int, int]]:
        """The rows with region, kind and tag as names."""
        return [(REGIONS[r], KINDS[k], TAGS[t], layer, address, nwords)
                for r, k, t, layer, address, nwords in self.table.tolist()]

    def to_csv(self) -> str:
        """One row per word access: region,address,kind,tag."""
        lines = ["region,address,kind,tag"]
        for region, kind, tag, _, address, nwords in self.runs():
            lines.extend(f"{region},{a},{kind},{tag}"
                         for a in range(address, address + nwords))
        return "\n".join(lines) + "\n"

    def write_csv(self, path: str) -> None:
        atomic_write_text(path, self.to_csv())


def trace_from_csv(text: str) -> AccessTrace:
    """Parse the CSV export format back into a trace, one row per word."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].strip() != "region,address,kind,tag":
        raise ValueError("expected header 'region,address,kind,tag'")
    triples, addresses = [], []
    for ln in lines[1:]:
        parts = ln.split(",")
        if len(parts) != 4:
            raise ValueError(f"bad trace row {ln!r}")
        region, address, kind, tag = map(str.strip, parts)
        triples.append(triple_code(region, kind, tag))
        addresses.append(int(address))
    del lines  # the parsed text can go before the table is built
    address = _int64(addresses)
    del addresses
    return AccessTrace.from_columns(np.array(triples, dtype=np.int64), 0, address,
                                    np.ones_like(address))
