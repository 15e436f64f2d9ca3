"""Memory access traces.

Engines emit an ordered stream of runs; the cost model walks the stream.
A trace is one int64 table, a row per run of n sequential words, with
the columns in COLUMNS: region, kind and tag as indices into REGIONS,
KINDS and TAGS, the layer that made the access, address and nwords.
The semantics are always the flattened per-word list (address, ...,
address+nwords-1), which is what the CSV export produces.
"""

import itertools
import operator

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


def _rows(triple, layer, address: np.ndarray, nwords: np.ndarray,
          order: np.ndarray | None = None) -> np.ndarray:
    """Checked table rows from whole columns, taken in ``order`` (default:
    as given); zero-length runs are dropped. ``triple`` and ``layer`` may
    be ints shared by every row."""
    if address.min(initial=0) < 0:
        raise ValueError(f"negative address {address.min()}")
    if nwords.min(initial=0) < 0:
        raise ValueError(f"negative run length {nwords.min()}")
    if np.any(address > INT64_MAX - nwords):  # both non-negative: no wrap here
        raise ValueError("address run end (address + nwords) does not fit int64")
    if order is None:
        keep = nwords > 0
        order = slice(None) if keep.all() else keep.nonzero()[0]
    else:
        order = order[nwords[order] > 0]
    rows = np.empty((address[order].size, len(COLUMNS)), np.int64)
    codes = triple[order] if np.ndim(triple) else triple
    for j in range(3):  # column by column: no (rows, 3) temporary
        rows[:, j] = _TRIPLE_CODES[codes, j]
    rows[:, 3] = layer[order] if np.ndim(layer) else layer
    rows[:, 4] = address[order]
    rows[:, 5] = nwords[order]
    return rows


class AccessTrace:
    """An ordered table of access runs. Rows that `add` appends wait in
    Python lists until `table` is read, so a small append makes no numpy call."""

    def __init__(self, table: np.ndarray | None = None):
        self.layer = 0  # the layer column of every row appended from now on
        self._table = np.empty((0, len(COLUMNS)), np.int64) if table is None else table
        self._pending = ([], [], [], [])  # triple, layer, address, nwords

    @classmethod
    def from_columns(cls, triple: np.ndarray, layer: np.ndarray, address: np.ndarray,
                     nwords: np.ndarray, key: np.ndarray) -> "AccessTrace":
        """A trace from whole int64 columns, one entry per run: triple
        codes (`triple_code`), layer, address and run length. The rows
        are ordered by a stable sort on ``key``, so rows with equal keys
        keep their order. The checks are `add`'s; zero-length runs are
        dropped."""
        return cls(_rows(triple, layer, address, nwords, np.argsort(key, kind="stable")))

    def add(self, region: str, kind: str, tag: str, address, nwords=1) -> None:
        """Append runs of nwords words at address: ints, or a 1-D int array
        of addresses (one row each, in order) with an int or an equally
        long array of run lengths. Zero-length runs are dropped."""
        triple = triple_code(region, kind, tag)
        if isinstance(address, np.ndarray):
            address = address.tolist()
            nwords = (nwords.tolist() if isinstance(nwords, np.ndarray)
                      else [nwords] * len(address))
            if len(nwords) != len(address):
                raise ValueError(f"{len(address)} addresses but {len(nwords)} run lengths")
        else:
            address, nwords = [address], [nwords]
        if min(address, default=0) < 0:
            raise ValueError(f"negative address {min(address)}")
        if min(nwords, default=0) < 0:
            raise ValueError(f"negative run length {min(nwords)}")
        if max(map(operator.add, address, nwords), default=0) > INT64_MAX:
            raise ValueError("address run end (address + nwords) does not fit int64")
        for column, values in zip(self._pending, ([triple] * len(address),
                                                  [self.layer] * len(address),
                                                  address, nwords)):
            column += values

    @property
    def table(self) -> np.ndarray:
        """The (runs, len(COLUMNS)) int64 table, in append order."""
        if self._pending[0]:
            pending, self._pending = self._pending, ([], [], [], [])
            rows = _rows(*(np.array(column, dtype=np.int64) for column in pending))
            del pending
            self._table = np.concatenate([self._table, rows]) if len(self._table) else rows
        return self._table

    def extend(self, other: "AccessTrace") -> None:
        """Append other's rows in order, in this trace's current layer."""
        rows = other.table.copy()
        rows[:, 3] = self.layer
        self._table = np.concatenate([self.table, rows])

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
    try:
        address = np.array(addresses, dtype=np.int64)
    except OverflowError:
        raise ValueError("address run end (address + nwords) does not fit int64") from None
    del addresses
    return AccessTrace(_rows(np.array(triples, dtype=np.int64), 0, address,
                             np.ones_like(address)))
