"""Trade GRU output accuracy against weight traffic by sweeping theta.

Runs a network over a slowly changing synthetic sequence at each delta
threshold and reports deviation from the theta=0 run next to the weight
traffic reduction factor.

Usage: python3 scripts/theta_tradeoff.py --net demo.net --out sweep.csv
       python3 scripts/theta_tradeoff.py            (built-in demo network)
"""

import argparse
import sys

import numpy as np

from sparsebench.cli import guarded, sweep_thetas
from sparsebench.fxp import Q2_14
from sparsebench.gru import GruLayerSpec
from sparsebench.netdesc import NetworkDesc, load_network, u64
from sparsebench.synth import make_rng, random_weights


def demo_network(seed: int) -> NetworkDesc:
    # update gate biased hard off: the state snaps to each new candidate
    # and then sits still, the regime delta thresholding rewards
    rng = make_rng(seed)
    i = h = 32
    wx = [random_weights((h, i), rng, Q2_14, 0.25) for _ in range(3)]
    wh = [random_weights((h, h), rng, Q2_14, 0.02) for _ in range(3)]
    acc_scale = 1 << 22
    spec = GruLayerSpec(
        i, h, wx[0], wx[1], wx[2], wh[0], wh[1], wh[2],
        np.zeros(h, dtype=np.int32),
        np.full(h, -7 * acc_scale, dtype=np.int32),
        (rng.uniform(-0.3, 0.3, h) * acc_scale).astype(np.int32),
        theta=0)
    return NetworkDesc(name="demo-gru", kind="gru", gru_layers=[spec])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--net", help="network file; omit for a built-in demo")
    ap.add_argument("--input",
                    default="synth:hold,t=200,n=32,hold=10,amp=1.0,seed=11")
    ap.add_argument("--thetas",
                    default="0,0.0039,0.0078,0.0156,0.0312,0.0625,0.125,0.25")
    ap.add_argument("--seed", type=u64, default=8)
    ap.add_argument("--out", help="write CSV here instead of stdout")
    args = ap.parse_args(argv)
    desc = load_network(args.net) if args.net else demo_network(args.seed)
    return sweep_thetas(desc, args)


if __name__ == "__main__":
    sys.exit(guarded(main))
