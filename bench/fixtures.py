"""Seeded benchmark inputs, written by the benchmark's own code.

Nothing here calls into sparsebench: the .smfm writer follows the file
format in the README, and the memory-trace CSV is generated directly in
the per-word `region,address,kind,tag` format, so a change to the
program's encoder or to its `--trace-csv` export cannot change these
inputs.
"""

import struct

import numpy as np

# DRAM model constants the expected mem-sim figures are computed with.
# They are the MemConfig defaults; the benchmark keeps its own copy so
# that a silent change of the modeled numbers fails the output check.
WORDS_PER_ROW = 1024
CYCLES_SEQ_WORD = 1
ROW_CHANGE_FACTOR = 50
E_DRAM_WORD_PJ = 100.0
E_SRAM_WORD_PJ = 5.0


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def conv_map_smfm(seed: int, c: int, h: int, w: int, sparsity: float) -> bytes:
    """A Q8.8 (C, H, W) map with exactly round(sparsity * pixels) zeros,
    non-zero values uniform in [-1, 1], serialized as .smfm bytes."""
    rng = make_rng(seed)
    n = c * h * w
    vals = rng.integers(1, 257, size=n) * rng.choice((-1, 1), size=n)
    vals[rng.permutation(n)[: int(round(sparsity * n))]] = 0
    mask = vals != 0
    head = b"SMFM" + struct.pack("<BBBIIII", 1, 8, 8, c, h, w,
                                 int(np.count_nonzero(mask)))
    return (head + np.packbits(mask, bitorder="little").tobytes()
            + vals[mask].astype("<i2").tobytes())


def memsim_trace(seed: int, n_words: int, space: int = 1 << 22,
                 dram_single_share: float = 0.29):
    """Per-word access trace as (region, address, kind, tag) arrays.

    Half the words are DRAM weight-read bursts of 64-511 words that stay
    inside one DRAM row; the other half are single-word activation reads
    and writes, DRAM with probability `dram_single_share`, scattered over
    `space` words. Bursts and single words are interleaved in random
    order. Region 0 is DRAM, kind 0 is read, tag 0 is weights.
    """
    rng = make_rng(seed)
    burst_total = n_words // 2
    lens = []
    left = burst_total
    while left > 0:
        n = min(left, int(rng.integers(64, 512)))
        lens.append(n)
        left -= n
    n_single = n_words - burst_total
    # One item per burst or single word, shuffled together.
    is_burst = np.zeros(len(lens) + n_single, dtype=bool)
    is_burst[: len(lens)] = True
    is_burst = is_burst[rng.permutation(is_burst.size)]
    item_len = np.ones(is_burst.size, dtype=np.int64)
    item_len[is_burst] = lens

    rows = rng.integers(0, space // WORDS_PER_ROW, size=len(lens))
    offs = np.array([rng.integers(0, WORDS_PER_ROW - n + 1) for n in lens],
                    dtype=np.int64)
    burst_start = rows * WORDS_PER_ROW + offs
    item_start = rng.integers(0, space, size=is_burst.size)
    item_start[is_burst] = burst_start
    item_region = (rng.random(is_burst.size) >= dram_single_share).astype(np.int8)
    item_region[is_burst] = 0
    item_kind = rng.integers(0, 2, size=is_burst.size).astype(np.int8)
    item_kind[is_burst] = 0
    item_tag = np.where(is_burst, 0, 1).astype(np.int8)

    first = np.repeat(np.cumsum(item_len) - item_len, item_len)
    within = np.arange(n_words) - first
    address = np.repeat(item_start, item_len) + within
    return (np.repeat(item_region, item_len), address,
            np.repeat(item_kind, item_len), np.repeat(item_tag, item_len))


def trace_csv(region, address, kind, tag) -> str:
    regions, kinds, tags = ("DRAM", "SRAM"), ("read", "write"), ("weights", "activations")
    lines = ["region,address,kind,tag"]
    lines += [f"{regions[r]},{a},{kinds[k]},{tags[t]}" for r, a, k, t in
              zip(region.tolist(), address.tolist(), kind.tolist(), tag.tolist())]
    return "\n".join(lines) + "\n"


def open_row_walk(region, address) -> dict:
    """Cost a per-word trace with one open DRAM row that starts empty.

    Every DRAM word outside the open row pays one row activation; SRAM
    words cost energy only.
    """
    rows = address[region == 0] // WORDS_PER_ROW
    dram = int(rows.size)
    acts = int(dram > 0) + int(np.count_nonzero(rows[1:] != rows[:-1]))
    sram = int(region.size) - dram
    return {
        "cycles": dram * CYCLES_SEQ_WORD + acts * ROW_CHANGE_FACTOR * CYCLES_SEQ_WORD,
        "row_activations": acts,
        "dram_words": dram,
        "sram_words": sram,
        "energy_pj": dram * E_DRAM_WORD_PJ + sram * E_SRAM_WORD_PJ,
    }
