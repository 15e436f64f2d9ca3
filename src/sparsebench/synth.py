"""Seeded synthetic workload generators.

Everything here is driven by an explicit numpy Generator so runs are
reproducible from a single seed. Sparse maps get an exact zero count
(round(sparsity * pixels)), not a per-pixel coin flip, which makes
sparsity-dependent assertions tight. Maps and sequences are activations,
always Q8.8 (`gru.ACT_FMT`); weights take the layer's format.
"""

import math

import numpy as np

from .errors import MalformedStream
from .fxp import (INT16_MAX, INT32_MAX, OpCounter, Q2_14, Q8_8, QFormat, QTensor,
                  quantize_array)


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def amp_raw(amp: float) -> int:
    """``amp`` in raw Q8.8 units. It must round to at least one LSB and
    not past the format's range: an amplitude is never replaced."""
    over = OpCounter()
    raw = int(quantize_array(np.float64(amp), Q8_8, over))
    if raw < 1 or over.saturations:
        raise MalformedStream(f"amplitude {amp:g} is outside [{1 / Q8_8.scale}, "
                              f"{INT16_MAX / Q8_8.scale}] in {Q8_8}")
    return raw


def sparse_map(c: int, h: int, w: int, sparsity: float,
               rng: np.random.Generator, amp: float = 1.0) -> QTensor:
    """Random (C, H, W) Q8.8 map with exactly round(sparsity * pixels) zeros.

    Non-zero values are uniform in [-amp, amp] excluding zero.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    n = c * h * w
    n_zero = int(round(sparsity * n))
    a = amp_raw(amp)
    vals = rng.integers(1, a + 1, size=n, dtype=np.int64)
    vals *= rng.choice((-1, 1), size=n)
    flat = vals.astype(np.int16)
    zero_at = rng.permutation(n)[:n_zero]
    flat[zero_at] = 0
    return QTensor((c, h, w), Q8_8, flat)


def uniform_seq(steps: int, size: int, rng: np.random.Generator,
                amp: float = 1.0) -> QTensor:
    """A (steps, size) Q8.8 sequence of independent uniform vectors in [-amp, amp]."""
    a = amp_raw(amp)
    data = rng.integers(-a, a + 1, size=(steps, size), dtype=np.int64)
    return QTensor((steps, size), Q8_8, data.astype(np.int16))


def piecewise_constant_seq(steps: int, size: int, hold: int,
                           rng: np.random.Generator, amp: float = 1.0) -> QTensor:
    """A (steps, size) Q8.8 sequence: a fresh uniform vector every `hold`
    steps, held constant between."""
    if hold < 1:
        raise ValueError("hold must be >= 1")
    a = amp_raw(amp)
    fresh = rng.integers(-a, a + 1, size=(-(-steps // hold), size), dtype=np.int64)
    data = np.repeat(fresh.astype(np.int16), hold, axis=0)[:steps]
    return QTensor((steps, size), Q8_8, data)


def ar1_seq(steps: int, size: int, rho: float, rng: np.random.Generator,
            amp: float = 0.5) -> QTensor:
    """A (steps, size) Q8.8 sequence of band-limited slow noise: stationary
    AR(1) with coefficient rho.

    The float state has stationary standard deviation amp; each step is
    quantized independently, so consecutive vectors differ by small
    amounts almost everywhere.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    _check_finite_amp(amp)
    state = rng.normal(0.0, amp, size=size)
    noise = rng.normal(0.0, amp * np.sqrt(1.0 - rho * rho), size=(steps, size))
    states = np.empty((steps, size))
    for t in range(steps):
        states[t] = state
        state = rho * state + noise[t]
    over = OpCounter()
    data = quantize_array(states, Q8_8, over)
    if over.saturations:
        raise MalformedStream(f"{over.saturations} of the {states.size} values drawn at "
                              f"amplitude {amp:g} are past the {Q8_8} range")
    return QTensor((steps, size), Q8_8, data)


def _check_finite_amp(amp: float) -> None:
    if not math.isfinite(amp):
        raise MalformedStream(f"non-finite generator amplitude {amp}")


def random_weights(dims: tuple[int, ...], rng: np.random.Generator,
                   fmt: QFormat = Q2_14, amp: float = 0.1) -> QTensor:
    """Uniform random weight tensor in [-amp, amp], rounded to ``fmt``.

    An ``amp`` that rounds past ``fmt``'s largest value is refused, so no
    draw is clipped; whether a draw would be depends on the seed, the
    refusal does not.
    """
    _check_finite_amp(amp)
    if np.rint(abs(amp) * fmt.scale) > INT16_MAX:
        raise MalformedStream(f"amplitude {amp:g} rounds past the {fmt} maximum "
                              f"{INT16_MAX / fmt.scale:g}")
    vals = rng.uniform(-amp, amp, size=int(np.prod(dims)))
    return QTensor(dims, fmt, quantize_array(vals, fmt))


def random_bias(n: int, rng: np.random.Generator, acc_frac: int,
                amp: float = 0.1) -> np.ndarray:
    """Uniform random bias vector already at accumulator scale (int32).

    Every value must fit int32, so ``|amp| * 2**acc_frac`` may not pass
    INT32_MAX.
    """
    _check_finite_amp(amp)
    if abs(amp) * (1 << acc_frac) > INT32_MAX:
        raise MalformedStream(
            f"bias amplitude {amp} overflows the int32 accumulator at 2**{acc_frac}")
    vals = rng.uniform(-amp, amp, size=n)
    return np.rint(vals * (1 << acc_frac)).astype(np.int32)
