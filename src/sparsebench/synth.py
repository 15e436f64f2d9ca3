"""Seeded synthetic workload generators.

Everything here is driven by an explicit numpy Generator so runs are
reproducible from a single seed. Sparse maps get an exact zero count
(round(sparsity * pixels)), not a per-pixel coin flip, which makes
sparsity-dependent assertions tight.
"""

import numpy as np

from .fxp import Q2_14, Q8_8, QFormat, QTensor, quantize_array


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


def _amp_raw(amp: float, fmt: QFormat) -> int:
    return max(1, int(quantize_array(np.float64(amp), fmt)))


def sparse_map(c: int, h: int, w: int, sparsity: float,
               rng: np.random.Generator, fmt: QFormat = Q8_8,
               amp: float = 1.0) -> QTensor:
    """Random (C, H, W) map with exactly round(sparsity * pixels) zeros.

    Non-zero values are uniform in [-amp, amp] excluding zero.
    """
    if not 0.0 <= sparsity <= 1.0:
        raise ValueError(f"sparsity must be in [0, 1], got {sparsity}")
    n = c * h * w
    n_zero = int(round(sparsity * n))
    a = _amp_raw(amp, fmt)
    vals = rng.integers(1, a + 1, size=n, dtype=np.int64)
    vals *= rng.choice((-1, 1), size=n)
    flat = vals.astype(np.int16)
    zero_at = rng.permutation(n)[:n_zero]
    flat[zero_at] = 0
    return QTensor((c, h, w), fmt, flat)


def uniform_seq(steps: int, size: int, rng: np.random.Generator,
                fmt: QFormat = Q8_8, amp: float = 1.0) -> list[QTensor]:
    """Independent uniform vectors in [-amp, amp]."""
    a = _amp_raw(amp, fmt)
    return [
        QTensor((size,), fmt,
                rng.integers(-a, a + 1, size=size, dtype=np.int64).astype(np.int16))
        for _ in range(steps)
    ]


def piecewise_constant_seq(steps: int, size: int, hold: int,
                           rng: np.random.Generator, fmt: QFormat = Q8_8,
                           amp: float = 1.0) -> list[QTensor]:
    """A fresh uniform vector every `hold` steps, held constant between."""
    if hold < 1:
        raise ValueError("hold must be >= 1")
    a = _amp_raw(amp, fmt)
    out: list[QTensor] = []
    cur = None
    for t in range(steps):
        if t % hold == 0:
            cur = rng.integers(-a, a + 1, size=size, dtype=np.int64).astype(np.int16)
        out.append(QTensor((size,), fmt, cur.copy()))
    return out


def ar1_seq(steps: int, size: int, rho: float, rng: np.random.Generator,
            fmt: QFormat = Q8_8, amp: float = 0.5) -> list[QTensor]:
    """Band-limited slow noise: stationary AR(1) with coefficient rho.

    The float state has stationary standard deviation amp; each step is
    quantized independently, so consecutive vectors differ by small
    amounts almost everywhere.
    """
    if not 0.0 <= rho < 1.0:
        raise ValueError("rho must be in [0, 1)")
    state = rng.normal(0.0, amp, size=size)
    drive = amp * np.sqrt(1.0 - rho * rho)
    out: list[QTensor] = []
    for _ in range(steps):
        out.append(QTensor((size,), fmt, quantize_array(state, fmt)))
        state = rho * state + rng.normal(0.0, drive, size=size)
    return out


def random_weights(dims: tuple[int, ...], rng: np.random.Generator,
                   fmt: QFormat = Q2_14, amp: float = 0.1) -> QTensor:
    """Uniform random weight tensor in [-amp, amp]."""
    vals = rng.uniform(-amp, amp, size=int(np.prod(dims)))
    return QTensor(dims, fmt, quantize_array(vals, fmt))


def random_bias(n: int, rng: np.random.Generator, acc_frac: int,
                amp: float = 0.1) -> np.ndarray:
    """Uniform random bias vector already at accumulator scale (int32)."""
    vals = rng.uniform(-amp, amp, size=n)
    return np.rint(vals * (1 << acc_frac)).astype(np.int32)
