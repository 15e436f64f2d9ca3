"""DRAM/SRAM cost model with open-row burst semantics.

DRAM is modeled as a single rank with one open row: a word in the open
row costs cycles_seq_word, and touching any other row first pays a row
activation of row_change_factor * cycles_seq_word. SRAM accesses cost
no cycles (fully pipelined) but do cost energy, so cycle totals are
attributable to DRAM alone.

cost_trace prices a trace in one vectorised call: the run's total, the
open row carried across layers, and each layer's cost on its own.

Energy defaults are explicit model parameters, not measured values;
only their ratios carry meaning (a DRAM word is ~100x a MAC, SRAM ~5x).
"""

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .errors import Underdetermined
from .trace import INT64_MAX, REGIONS, TAGS, AccessTrace, triple_code


@dataclass(frozen=True)
class MemConfig:
    words_per_row: int = 1024
    cycles_seq_word: int = 1
    row_change_factor: int = 50
    e_dram_word: float = 100.0   # pJ
    e_sram_word: float = 5.0     # pJ
    e_mac: float = 1.0           # pJ
    clock_hz: float = 1e9

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0 < value < math.inf:  # NaN fails both comparisons
                raise ValueError(f"{f.name} must be positive and finite, got {value}")
            if isinstance(value, int) and value > INT64_MAX:  # costed as int64
                raise ValueError(f"{f.name} must fit int64, got {value}")
        if self.row_change_factor < 1:
            raise ValueError("row_change_factor must be >= 1")


@dataclass
class MemCostReport:
    cycles: int = 0
    row_activations: int = 0
    dram_words: int = 0
    sram_words: int = 0
    energy_pj: float = 0.0
    dram_words_by_tag: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TAGS})
    sram_words_by_tag: dict[str, int] = field(default_factory=lambda: {t: 0 for t in TAGS})
    layers: list["MemCostReport"] = field(default_factory=list)


def _activations(first: np.ndarray, last: np.ndarray, group: np.ndarray) -> np.ndarray:
    """Row activations of each DRAM run: the row boundaries it crosses, plus
    one unless it starts in the row the previous run of its group left open."""
    opens = np.ones(first.size, dtype=np.int64)
    opens[1:] = (first[1:] != last[:-1]) | (group[1:] != group[:-1])
    return opens + last - first


def _report(row_activations: int, words: np.ndarray, cfg: MemConfig) -> MemCostReport:
    """Costs from a row activation count and (region, tag) word counts."""
    dram, sram = (dict(zip(TAGS, w)) for w in words.tolist())
    dram_words, sram_words = sum(dram.values()), sum(sram.values())
    return MemCostReport(
        cycles=(dram_words + row_activations * cfg.row_change_factor) * cfg.cycles_seq_word,
        row_activations=row_activations, dram_words=dram_words, sram_words=sram_words,
        energy_pj=dram_words * cfg.e_dram_word + sram_words * cfg.e_sram_word,
        dram_words_by_tag=dram, sram_words_by_tag=sram)


def cost_trace(trace: AccessTrace, cfg: MemConfig) -> MemCostReport:
    """Cost the whole trace, walking every DRAM run in order, and in
    `layers[l]` the runs of layer l alone, the open row starting empty.
    Each run is costed arithmetically (see _activations)."""
    region, _, tag, layer, address, nwords = trace.table.T
    n_layers = int(layer.max(initial=-1)) + 1
    words = np.zeros((n_layers, len(REGIONS), len(TAGS)), dtype=np.int64)
    np.add.at(words, (layer, region, tag), nwords)
    dram = region == REGIONS.index("DRAM")
    first = address[dram] // cfg.words_per_row
    last = (address[dram] + nwords[dram] - 1) // cfg.words_per_row
    group = layer[dram]
    total = int(_activations(first, last, np.zeros_like(group)).sum())
    # A stable sort by layer puts each layer's runs together, in trace order.
    order = np.argsort(group, kind="stable")
    activations = np.zeros(n_layers, dtype=np.int64)
    np.add.at(activations, group[order],
              _activations(first[order], last[order], group[order]))
    rep = _report(total, words.sum(axis=0), cfg)
    rep.layers = [_report(int(a), w, cfg) for a, w in zip(activations, words)]
    return rep


def schedule_dense_weight_stream(dims: tuple[int, ...], cfg: MemConfig,
                                 base_address: int = 0) -> AccessTrace:
    """Fully sequential read of a contiguously laid-out weight region."""
    return AccessTrace.from_columns(triple_code("DRAM", "read", "weights"), 0,
                                    [base_address], [math.prod(dims) if dims else 0])


def random_vs_burst_ratio(n_words: int, cfg: MemConfig) -> float:
    """Worst-case scattered cycles over ideal streaming cycles for n words.

    Scattered: every word lands in a different row, n*(1+f) word costs.
    The streaming baseline is one uninterrupted burst: n word costs plus
    a single row activation, n+f. The ratio tends to 1+f as n grows,
    which is the row-change asymmetry the model is built around; it is
    deliberately independent of words_per_row (a long stream's interior
    row crossings are a layout detail, not part of the asymmetry).
    """
    if n_words <= 0:
        raise ValueError("n_words must be positive")
    f = cfg.row_change_factor
    return n_words * (1 + f) / (n_words + f)


def energy_breakdown(macs: int, dram_words: int, sram_words: int,
                     cfg: MemConfig) -> dict[str, float]:
    """Energy in picojoules split by source, plus the total."""
    mac_pj = macs * cfg.e_mac
    dram_pj = dram_words * cfg.e_dram_word
    sram_pj = sram_words * cfg.e_sram_word
    return {
        "mac_pj": mac_pj,
        "dram_pj": dram_pj,
        "sram_pj": sram_pj,
        "total_pj": mac_pj + dram_pj + sram_pj,
    }


def effective_gops(dense_equivalent_op: int, cycles: int, cfg: MemConfig) -> float:
    """Dense-equivalent Op per simulated second, in GOp/s.

    Uses the effective-throughput convention: the numerator counts the
    work a dense engine would have done, so skipping raises the figure.
    """
    if cycles == 0:
        return 0.0
    seconds = cycles / cfg.clock_hz
    return dense_equivalent_op / seconds / 1e9


def gops_per_watt(dense_equivalent_op: int, energy_pj: float) -> float:
    """Dense-equivalent GOp/s per watt; clock-independent (Op per energy)."""
    if energy_pj == 0:
        return 0.0
    joules = energy_pj * 1e-12
    return dense_equivalent_op / joules / 1e9


def _frexp_product(values) -> tuple[float, int]:
    """The product of positive floats as (mantissa, exponent): their
    `math.frexp` mantissas multiplied left to right, their exponents
    summed. Each mantissa is in [0.5, 1), so no partial product leaves
    the float range; and rounding is the same at every power-of-two
    scale, so the mantissa product is the left-to-right product of the
    values scaled exactly, whenever that stays in the normal range."""
    mantissa, exponent = 1.0, 0
    for v in values:
        m, e = math.frexp(v)
        mantissa *= m
        exponent += e
    return mantissa, exponent


def _ldexp(mantissa: float, exponent: int) -> float:
    """``mantissa * 2**exponent``, rounded once; inf past the float range."""
    try:
        return math.ldexp(mantissa, exponent)
    except OverflowError:
        return math.inf


def brain_budget(rate_hz: float, fanout: float, neurons: float,
                 energy_per_syn_j: float) -> float:
    """Total power of an event-driven system: rate * fanout * count * energy.

    With 1 Hz mean rate, 1e4 fan-out, 1e10 neurons and 100 fJ per
    synaptic update this gives the canonical ~10 W brain budget. No
    partial product leaves the float range (see `_frexp_product`), so
    the answer is inf or 0 only when it lies past that range itself.
    """
    factors = (("rate_hz", rate_hz), ("fanout", fanout),
               ("neurons", neurons), ("energy_per_syn_j", energy_per_syn_j))
    for name, v in factors:
        if v <= 0:
            raise ValueError(f"{name} must be positive")
    return _ldexp(*_frexp_product(v for _, v in factors))


def solve_for(power_w: float, rate_hz: float | None = None,
              fanout: float | None = None, neurons: float | None = None,
              energy_per_syn_j: float | None = None) -> float:
    """Invert the power product for the single missing factor, on
    `_frexp_product` mantissas like `brain_budget`."""
    if power_w <= 0:
        raise ValueError("power_w must be positive")
    factors = {"rate_hz": rate_hz, "fanout": fanout, "neurons": neurons,
               "energy_per_syn_j": energy_per_syn_j}
    missing = [k for k, v in factors.items() if v is None]
    if len(missing) != 1:
        raise Underdetermined(
            f"need exactly one unknown, got {len(missing)}: {missing or 'none'}")
    known = {k: v for k, v in factors.items() if v is not None}
    for k, v in known.items():
        if v <= 0:
            raise ValueError(f"{k} must be positive")
    m, e = _frexp_product(known.values())
    power_m, power_e = math.frexp(power_w)
    return _ldexp(power_m / m, power_e - e)
