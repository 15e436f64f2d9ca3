"""Headline behavior checks, one test per claim.

Each test prints a single PASS line with its measured numbers (visible
under pytest -s; pytest -v shows the per-claim verdict either way):

  1. zero-skip convolution is bit-identical to the dense oracle
  2. skipping zeros multiplies efficiency by 1/(1 - sparsity)
  3. delta-threshold GRU at theta 0 equals the dense GRU everywhere
  4. slow inputs cut weight traffic by large factors at tiny error
  5. scattered DRAM access costs ~50x burst; sorted order is optimal
  6. bitmap compression reaches 16/(1 + 0.2*16) at 80% sparsity
  7. the synaptic power budget solver round-trips every factor
  8. fused pooling never writes a full-resolution activation map
  9. equal seeds give byte-identical reports from separate processes
"""

import itertools
import json
import subprocess
import sys
import time

import numpy as np
import pytest

from _synthcases import conv_case, gru_spec
from sparsebench.codec import (decode_sm, encode_sm, from_smfm_bytes,
                               to_smfm_bytes)
from sparsebench.conv import (ConvLayerSpec, conv_dense_oracle, conv_zeroskip,
                              fused_relu_pool)
from sparsebench.fxp import Q2_14, Q8_8, OpCounter, quantize_array
from sparsebench.gru import GruLayerSpec, run_sequence
from sparsebench.memmodel import (MemConfig, cost_trace, random_vs_burst_ratio,
                                  solve_budget)
from sparsebench.netdesc import NetworkDesc
from sparsebench.runner import load_seq_input, sweep_theta
from sparsebench.synth import (make_rng, random_bias, random_weights,
                               sparse_map, uniform_seq)
from sparsebench.trace import AccessTrace, triple_code


def test_zero_skip_bit_identical_on_500_conv_configs():
    grid = list(itertools.product((1, 3, 5), (1, 2), (0, 1, 2),
                                  (False, True), (0.0, 0.25, 0.5, 0.8, 1.0)))
    t0 = time.monotonic()
    n = 500
    for i, (k, stride, pad, pool, sparsity) in enumerate(
            itertools.islice(itertools.cycle(grid), n)):
        rng = make_rng(1000 + i)
        spec, x = conv_case(rng, k=k, stride=stride, pad=pad, pool=pool,
                            relu=bool(i % 2), sparsity=sparsity)
        res = conv_zeroskip(spec, encode_sm(x))
        assert decode_sm(res.output) == conv_dense_oracle(spec, x), (
            f"config {i}: k={k} stride={stride} pad={pad} pool={pool} "
            f"sparsity={sparsity}")
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    print(f"PASS zero-skip equivalence: {n}/{n} configs bit-identical "
          f"in {elapsed:.1f}s")


def test_zero_skip_efficiency_scales_with_sparsity():
    rng = make_rng(2)
    # 64x64x32 input plane, 3x3 kernels, no padding: every tap is real,
    # so expected efficiency is exactly 1/(1 - sparsity)
    spec = ConvLayerSpec(
        in_channels=32, out_channels=16, kernel_h=3, kernel_w=3,
        stride=1, pad=0, relu=True, pool="none", out_fmt=Q8_8,
        weights=random_weights((16, 32, 3, 3), rng, Q8_8, 0.5),
        bias=random_bias(16, rng, acc_frac=16, amp=2.0))
    measured = {}
    for sparsity, lo, hi in ((0.75, 380.0, 420.0), (0.80, 475.0, 525.0)):
        x = sparse_map(32, 64, 64, sparsity, rng, amp=4.0)
        res = conv_zeroskip(spec, encode_sm(x))
        eff = 100.0 * res.counters.macs_dense_equivalent / res.counters.macs_executed
        assert lo <= eff <= hi, f"sparsity {sparsity}: efficiency {eff:.1f}%"
        measured[sparsity] = eff
    print(f"PASS efficiency: 75% zeros -> {measured[0.75]:.1f}%, "
          f"80% zeros -> {measured[0.80]:.1f}% (targets 400/500 +-5%)")


def test_zero_threshold_gru_matches_dense_oracle_on_100_specs():
    t0 = time.monotonic()
    n = 100
    for i in range(n):
        rng = make_rng(3000 + i)
        input_size = int(rng.integers(1, 65))
        hidden_size = int(rng.integers(1, 65))
        steps = int(rng.integers(1, 51))
        spec = gru_spec(rng, input_size, hidden_size)
        xs = uniform_seq(steps, input_size, rng, amp=1.0)
        want = run_sequence([spec], xs, "dense").outputs
        run = run_sequence([spec], xs, "sparse")
        assert run.outputs.dims == want.dims
        for t, (a, b) in enumerate(zip(run.outputs.data, want.data)):
            assert (a == b).all(), (
                f"spec {i} (I={input_size} H={hidden_size}): "
                f"first mismatch at step {t}")
    elapsed = time.monotonic() - t0
    print(f"PASS delta-GRU equivalence: {n}/{n} specs bit-exact at every "
          f"timestep in {elapsed:.1f}s")


def _slow_input_gru() -> NetworkDesc:
    # Update-gate bias held hard negative makes the state snap to its new
    # candidate within a step of each input change; weak recurrent weights
    # keep it there. That is the regime delta thresholding rewards.
    rng = make_rng(8)
    i, h = 32, 32
    wx = [random_weights((h, i), rng, Q2_14, 0.25) for _ in range(3)]
    wh = [random_weights((h, h), rng, Q2_14, 0.02) for _ in range(3)]
    acc_scale = 1 << 22
    b_r = np.zeros(h, dtype=np.int32)
    b_u = np.full(h, -7 * acc_scale, dtype=np.int32)
    b_c = (rng.uniform(-0.3, 0.3, h) * acc_scale).astype(np.int32)
    spec = GruLayerSpec(i, h, wx[0], wx[1], wx[2], wh[0], wh[1], wh[2],
                        b_r, b_u, b_c, theta=int(quantize_array(0.0, Q8_8)))
    return NetworkDesc(name="slow", kind="gru", gru_layers=[spec])


def test_weight_traffic_reduction_on_slowly_changing_inputs():
    desc = _slow_input_gru()

    hold = load_seq_input("synth:hold,t=200,n=32,hold=10,amp=1.0,seed=11", 0)
    _, rows = sweep_theta(desc, hold, [2 / 256])
    r = rows[0]
    assert r["rms_dev_pct"] < 1.0, f"hold-10 rms dev {r['rms_dev_pct']:.3f}%"
    assert r["weight_reduction_factor"] >= 5.0
    hold_factor = r["weight_reduction_factor"]
    hold_rms = r["rms_dev_pct"]

    drift = load_seq_input("synth:ar1,t=200,n=32,rho=0.99,amp=1.0,seed=12", 0)
    _, rows = sweep_theta(desc, drift, [0.25])
    r = rows[0]
    assert 5.0 <= r["weight_reduction_factor"] <= 100.0, (
        f"slow-noise reduction {r['weight_reduction_factor']:.2f}x")
    print(f"PASS weight traffic: hold-10 reduction {hold_factor:.1f}x at "
          f"{hold_rms:.3f}% rms dev; slow-noise reduction "
          f"{r['weight_reduction_factor']:.1f}x (targets >=5x and 5-100x)")


def test_dram_scattered_vs_burst_cost_asymmetry():
    cfg = MemConfig()
    for n in (10_000, 100_000, 1_000_000, 10_000_000):
        ratio = random_vs_burst_ratio(n, cfg)
        assert abs(ratio - 50.0) <= 0.02 * 50.0, f"n={n}: ratio {ratio:.3f}"

    # exhaustive: no ordering of a small address set beats sorted order
    small = MemConfig(words_per_row=4)
    read = triple_code("DRAM", "read", "activations")
    rng = make_rng(5)
    checked = 0
    for size in range(2, 9):
        addrs = [int(a) for a in rng.integers(0, 40, size)]
        def cost(order):
            t = AccessTrace.from_columns(read, 0, order, np.ones(len(order), np.int64))
            return cost_trace(t, small).cycles
        best = cost(sorted(addrs))
        for perm in itertools.permutations(addrs):
            assert cost(perm) >= best, f"{perm} beats sorted {sorted(addrs)}"
            checked += 1
    print(f"PASS dram asymmetry: ratio within 50 +-2% for n>=1e4; sorted "
          f"order minimal over {checked} permutations")


def test_compression_ratio_and_lossless_roundtrip():
    rng = make_rng(6)
    x = sparse_map(16, 250, 250, 0.80, rng)  # 10^6 pixels, 80% zeros
    sfm = encode_sm(x)
    dense_bits = 16 * x.size
    payload_bits = x.size + 16 * sfm.nnz
    ratio = dense_bits / payload_bits
    want = 16.0 / (1.0 + 0.2 * 16.0)
    assert abs(ratio - want) / want < 0.01, f"ratio {ratio:.4f}"

    n = 10_000
    for i in range(n):
        r = make_rng(7000 + i)
        t = sparse_map(int(r.integers(1, 3)), int(r.integers(1, 7)),
                       int(r.integers(1, 7)), float(r.uniform(0, 1)), r)
        back = decode_sm(from_smfm_bytes(to_smfm_bytes(encode_sm(t))))
        assert back == t
    print(f"PASS compression: {ratio:.4f}x vs {want:.4f}x target; "
          f"{n}/{n} byte-level roundtrips lossless")


def test_synaptic_power_budget_solver_round_trips():
    rate, fanout, neurons, esyn = 1.0, 1e4, 1e10, 100e-15
    power = solve_budget(rate_hz=rate, fanout=fanout, neurons=neurons,
                         energy_per_syn_j=esyn)
    assert power == pytest.approx(10.0, rel=1e-12)
    recovered = (
        solve_budget(power, rate_hz=None, fanout=fanout, neurons=neurons,
                  energy_per_syn_j=esyn),
        solve_budget(power, rate_hz=rate, fanout=None, neurons=neurons,
                  energy_per_syn_j=esyn),
        solve_budget(power, rate_hz=rate, fanout=fanout, neurons=None,
                  energy_per_syn_j=esyn),
        solve_budget(power, rate_hz=rate, fanout=fanout, neurons=neurons,
                  energy_per_syn_j=None),
    )
    for got, want in zip(recovered, (rate, fanout, neurons, esyn)):
        assert got == pytest.approx(want, rel=1e-12)
    print("PASS power budget: 1 Hz x 1e4 x 1e10 x 100 fJ = 10 W; all four "
          "factors recovered to rel err < 1e-12")


def test_pooled_layer_never_writes_full_resolution_activations():
    rng = make_rng(9)
    spec, x = conv_case(rng, k=3, stride=1, pad=1, pool=True, relu=True,
                        sparsity=0.5, max_hw=12)
    res = conv_zeroskip(spec, encode_sm(x))
    c, h, w = x.dims
    h_out, w_out = spec.out_dims(h, w)
    full_res_words = spec.out_channels * h_out * w_out
    writes = [nwords for _, kind, tag, _, _, nwords in res.accesses.runs()
              if kind == "write" and tag == "activations"]
    assert writes, "pooled layer wrote no activations at all"
    for nwords in writes:
        assert nwords < full_res_words
    total = sum(writes)
    assert total < full_res_words

    n = 200
    for i in range(n):
        r = make_rng(9000 + i)
        plane = r.integers(-(1 << 30), 1 << 30,
                           (1, int(r.integers(2, 9)), int(r.integers(2, 9))),
                           dtype=np.int64).astype(np.int32)
        fused = fused_relu_pool(plane, relu=True, pool="max2x2", counter=OpCounter())
        two_pass = np.maximum(plane, 0)
        ph, pw = two_pass.shape[1] // 2, two_pass.shape[2] // 2
        two_pass = two_pass[:, :ph * 2, :pw * 2].reshape(1, ph, 2, pw, 2)
        two_pass = two_pass.max(axis=(2, 4))
        assert (fused == two_pass).all()
    print(f"PASS fused pooling: all activation writes below full resolution; "
          f"{n}/{n} planes match the two-pass reference")


def test_reports_byte_identical_across_processes_for_equal_seeds(tmp_path):
    net = tmp_path / "net.net"
    net.write_text("""
name = det
[conv]
in_c = 2
out_c = 3
k = 3
stride = 1
pad = 1
relu = true
pool = max2x2
weights = synth:uniform,amp=0.2,seed=3
bias = zero
""")

    def run(seed, out):
        code = subprocess.run(
            [sys.executable, "-c",
             "import sys; from sparsebench.cli import main; "
             "sys.exit(main(sys.argv[1:]))",
             "--seed", str(seed), "run", "--net", str(net),
             "--input", "synth:map,c=2,h=16,w=16,sparsity=0.7",
             "--report", str(out)],
            capture_output=True, text=True).returncode
        assert code == 0
        return out.read_bytes()

    a = run(42, tmp_path / "a.json")
    b = run(42, tmp_path / "b.json")
    c = run(43, tmp_path / "c.json")
    assert a == b
    assert a != c
    print("PASS determinism: equal seeds give byte-identical reports from "
          "two fresh interpreter processes; different seed differs")
