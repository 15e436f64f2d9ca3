"""Sweep feature-map sparsity; measure zero-skip efficiency and codec ratio.

Emits one CSV row per sparsity level. With no padding every kernel tap is
real, so expected efficiency is 100/(1 - sparsity) percent.

Usage: python3 scripts/sparsity_efficiency_sweep.py --out sweep.csv
"""

import argparse
import sys

from sparsebench.cli import emit, guarded, numbers
from sparsebench.codec import encode_sm
from sparsebench.conv import ConvLayerSpec, conv_zeroskip
from sparsebench.fxp import Q8_8
from sparsebench.netdesc import count, u64
from sparsebench.synth import make_rng, random_bias, random_weights, sparse_map


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=u64, default=0)
    ap.add_argument("--size", type=count, default=64, help="square map side")
    ap.add_argument("--channels", type=count, default=32)
    ap.add_argument("--out-channels", type=count, default=16)
    ap.add_argument("--levels", default="0,0.25,0.5,0.6,0.7,0.75,0.8,0.9,0.95")
    ap.add_argument("--out", help="write CSV here instead of stdout")
    args = ap.parse_args(argv)
    levels = numbers("--levels", args.levels)

    rng = make_rng(args.seed)
    spec = ConvLayerSpec(
        in_channels=args.channels, out_channels=args.out_channels,
        kernel_h=3, kernel_w=3, stride=1, pad=0, relu=True, pool="none",
        out_fmt=Q8_8,
        weights=random_weights((args.out_channels, args.channels, 3, 3),
                               rng, Q8_8, 0.5),
        bias=random_bias(args.out_channels, rng, acc_frac=16, amp=2.0))

    lines = ["sparsity,efficiency_pct,expected_pct,compression_ratio,"
             "executed_macs,dense_macs"]
    for level in levels:
        x = sparse_map(args.channels, args.size, args.size, level, rng, amp=4.0)
        sfm = encode_sm(x)
        res = conv_zeroskip(spec, sfm)
        c = res.counters
        eff = (100.0 * c.macs_dense_equivalent / c.macs_executed
               if c.macs_executed else float("inf"))
        expected = 100.0 / (1.0 - level) if level < 1.0 else float("inf")
        lines.append(f"{level:.2f},{eff:.2f},{expected:.2f},{sfm.compression_ratio:.4f},"
                     f"{c.macs_executed},{c.macs_dense_equivalent}")
    emit("\n".join(lines) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(guarded(main))
