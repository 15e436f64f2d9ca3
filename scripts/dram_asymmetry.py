"""Show how scattered DRAM access inflates cost versus burst reads.

Prints the random-vs-burst cycle ratio over a range of transfer sizes
(converging to 1 + row_change_factor), then costs one concrete word set
in scattered and sorted order.

Usage: python3 scripts/dram_asymmetry.py
"""

import argparse
import sys

import numpy as np

from sparsebench.cli import EXIT_CODES
from sparsebench.memmodel import MemConfig, cost_trace, random_vs_burst_ratio
from sparsebench.netdesc import integer, u64
from sparsebench.synth import make_rng
from sparsebench.trace import AccessTrace, triple_code


def count(text: str) -> int:
    """A `netdesc.integer` of at least 1."""
    value = integer(text)
    if value < 1:
        raise ValueError("not a positive count")
    return value


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=u64, default=0)
    ap.add_argument("--words", type=count, default=4096,
                    help="size of the concrete demo word set")
    args = ap.parse_args(argv)

    cfg = MemConfig()
    print("n_words,random_vs_burst_ratio")
    for n in (10, 100, 1_000, 10_000, 100_000, 1_000_000):
        print(f"{n},{random_vs_burst_ratio(n, cfg):.4f}")

    rng = make_rng(args.seed)
    addrs = rng.integers(0, 64 * cfg.words_per_row, args.words)

    def cycles(order):
        t = AccessTrace.from_columns(triple_code("DRAM", "read", "weights"), 0, order,
                                     np.ones_like(order))
        return cost_trace(t, cfg)

    scattered = cycles(addrs)
    ordered = cycles(np.sort(addrs))
    print(f"\n{args.words} single-word reads over 64 rows:")
    print(f"scattered order: {scattered.cycles} cycles, "
          f"{scattered.row_activations} row activations")
    print(f"sorted order:    {ordered.cycles} cycles, "
          f"{ordered.row_activations} row activations")
    print(f"sorting saves {scattered.cycles / ordered.cycles:.1f}x")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except tuple(t for t, _ in EXIT_CODES) as exc:  # one error line, the CLI's exit code
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(next(code for t, code in EXIT_CODES if isinstance(exc, t)))
