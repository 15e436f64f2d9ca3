"""Shared case builders for the engine and trace test suites."""

import numpy as np

from sparsebench.conv import ConvLayerSpec
from sparsebench.fxp import Q8_8, QTensor, quantize_array
from sparsebench.gru import GruLayerSpec
from sparsebench.synth import random_bias, random_weights, sparse_map
from sparsebench.trace import AccessTrace, triple_code

KERNELS = (1, 3, 5)
STRIDES = (1, 2)
PADS = (0, 1, 2)
SPARSITIES = (0.0, 0.25, 0.5, 0.8, 1.0)


def conv_case(rng, *, k=None, stride=None, pad=None, pool=None, relu=None,
              sparsity=None, max_hw=10, max_c=4, in_c=None,
              w_amp=0.5, x_amp=4.0, bias_amp=2.0):
    """Random conv layer plus an input map sized so the kernel fits."""
    k = int(rng.choice(KERNELS)) if k is None else k
    stride = int(rng.choice(STRIDES)) if stride is None else stride
    pad = int(rng.choice(PADS)) if pad is None else pad
    pool = bool(rng.integers(2)) if pool is None else pool
    relu = bool(rng.integers(2)) if relu is None else relu
    if sparsity is None:
        sparsity = float(rng.choice(SPARSITIES))
    in_c = int(rng.integers(1, max_c + 1)) if in_c is None else in_c
    out_c = int(rng.integers(1, max_c + 1))
    need_out = 2 if pool else 1
    lo = max(1, (need_out - 1) * stride + k - 2 * pad)
    h = int(rng.integers(lo, max_hw + 1))
    w = int(rng.integers(lo, max_hw + 1))
    weights = random_weights((out_c, in_c, k, k), rng, Q8_8, w_amp)
    bias = random_bias(out_c, rng, acc_frac=16, amp=bias_amp)
    spec = ConvLayerSpec(in_c, out_c, k, k, stride, pad, weights, bias,
                         relu, "max2x2" if pool else "none", Q8_8)
    x = sparse_map(in_c, h, w, sparsity, rng, amp=x_amp)
    return spec, x


def gru_spec(rng, input_size, hidden_size, *, theta=0.0,
             w_amp=0.1, bias_amp=0.5):
    """Random GRU layer; default amplitudes keep accumulators unsaturated."""
    i, h = input_size, hidden_size
    mats = [random_weights(d, rng, amp=w_amp)
            for d in ((h, i), (h, i), (h, i), (h, h), (h, h), (h, h))]
    acc_frac = Q8_8.frac_bits + mats[0].fmt.frac_bits
    biases = [random_bias(h, rng, acc_frac, bias_amp) for _ in range(3)]
    return GruLayerSpec(i, h, *mats, *biases, theta=int(quantize_array(theta, Q8_8)))


def trace_of(runs, layer=0) -> AccessTrace:
    """A trace of (region, kind, tag, address, nwords) runs, in order, from
    one `AccessTrace.from_columns` call; ``layer`` is an int or a list with
    one entry per run."""
    triple = np.array([triple_code(*r[:3]) for r in runs], dtype=np.int64)
    return AccessTrace.from_columns(triple, layer, [r[3] for r in runs],
                                    [r[4] for r in runs])
