"""Pinned report bytes for small CLI runs.

Each case runs the CLI in-process and hashes what it writes. Each hash
was recorded on the code before the change that added its case; any
change to a modeled number, a report field or the trace export changes
them, and must come with a note saying why.
"""

import hashlib

import pytest

from sparsebench.cli import main

CONV_NET = """
name = golden-cnn
[conv]
in_c = 3
out_c = 4
k = 3
stride = 1
pad = 1
relu = true
pool = max2x2
weights = synth:uniform,amp=0.3,seed=3
bias = zero
[conv]
in_c = 4
out_c = 5
k = 3
stride = 1
pad = 1
relu = true
pool = none
weights = synth:uniform,amp=0.3,seed=4
bias = zero
"""

GRU_NET = """
name = golden-rnn
[gru]
input = 6
hidden = 10
theta = 0.0
files = synth:uniform,amp=0.2,seed=4
[gru]
input = 10
hidden = 8
theta = 0.0
files = synth:uniform,amp=0.2,seed=5
"""

MAP = "synth:map,c=3,h=12,w=12,sparsity=0.6,amp=2.0"

# Q8.8 weights of amplitude 100 on a map of amplitude 120: accumulators
# clip in both layers, so both engines take their ordered steps.
SAT_NET = """
name = golden-sat-cnn
[conv]
in_c = 3
out_c = 4
k = 3
stride = 1
pad = 1
relu = true
pool = max2x2
w_fmt = Q8.8
weights = synth:uniform,amp=100,seed=3
bias = synth:uniform,amp=30000,seed=5
[conv]
in_c = 4
out_c = 2
k = 3
stride = 2
pad = 0
relu = false
pool = none
w_fmt = Q8.8
weights = synth:uniform,amp=100,seed=4
bias = zero
"""

SAT_MAP = "synth:map,c=3,h=12,w=12,sparsity=0.6,amp=120"

NETS = {"conv": CONV_NET, "gru": GRU_NET, "conv-sat": SAT_NET}

# name: (net, CLI arguments, file written, sha256 of that file). The seven
# report hashes recorded first were re-recorded when `MemConfig.burst_len`,
# which had no cycle effect, left the config: each is the previous
# report's hash with its two `burst_len` lines (value and provenance)
# removed. The two saturating cases were recorded on the ordered-only
# dense oracle, before it took a proven product.
CASES = {
    "conv-sparse": (
        "conv", ["--input", MAP], "report.json",
        "7e2f86c5da365d9094d6e2009e6e939b7c93928319490b2ca96936b2a280c8e7"),
    "conv-dense": (
        "conv", ["--input", MAP, "--mode", "dense"], "report.json",
        "d0094a903f5540ee61e79dfab68e340241e0712cbacda49bd604ceae160e0376"),
    "conv-count3": (
        "conv", ["--input", MAP, "--count", "3"], "report.json",
        "b48e55b25498cf69f09dea3c46ae4aa765150b0025556b19390d8f4ffaa95ffa"),
    "gru-theta0": (
        "gru", ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--theta", "0"], "report.json",
        "cecc09619b096cf660202613689aedbaeeb23eeb534f292bd0568d79657569d7"),
    "gru-theta0.03": (
        "gru", ["--input", "synth:hold,t=40,n=6,hold=5", "--theta", "0.03"], "report.json",
        "479d89a573a6904360156d4caa9dbe4db2e47c5d75f29ab178de884c2ce4ba51"),
    "gru-theta0-dense": (
        "gru", ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--theta", "0", "--mode", "dense"],
        "report.json",
        "283d669fd679f7a0c8179c3b3a889b3d42146f23bae46d32a1c65009d5aa4dcc"),
    "gru-theta0.03-dense": (
        "gru", ["--input", "synth:hold,t=40,n=6,hold=5", "--theta", "0.03", "--mode", "dense"],
        "report.json",
        "a8d3dc73e2951fc4aeb9ab2d80331f6b8f8115d3698b1401cb5f0c1b9d329b6d"),
    "conv-sat-sparse": (
        "conv-sat", ["--input", SAT_MAP], "report.json",
        "4b6688bc937f1a69d7184f7688dadc9255615d13756279932dcc210b12fd232d"),
    "conv-sat-dense": (
        "conv-sat", ["--input", SAT_MAP, "--mode", "dense"], "report.json",
        "324c606b29acaecd06ec2cd502b1ae5963db2e3eb865601411a4cfb3c958e770"),
    "conv-trace-csv": (
        "conv", ["--input", MAP], "trace.csv",
        "20846048dfa265a1d1b1c7ef117bf3884ed4e1d027a35cabfb324a0bd139570e"),
    "gru-trace-csv": (
        "gru", ["--input", "synth:hold,t=10,n=6,hold=5", "--theta", "0.03"], "trace.csv",
        "ddcbf216cb3de8b279feac511127d958cd71413ddf622b06856dea57d5c0a451"),
    # At theta 0 most events sit next to another event's column, so this
    # pins the per-word list of merged weight rows. Recorded while the
    # delta engine still wrote one row per event.
    "gru-trace-csv-theta0": (
        "gru", ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--theta", "0"], "trace.csv",
        "cf32352540ff823e793bb4d474d83df37aa58571180f2b3564348f64eb4fa6c6"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_recorded_hash(tmp_path, name):
    net, args, out, want = CASES[name]
    path = tmp_path / f"{net}.net"
    path.write_text(NETS[net])
    target = tmp_path / out
    flag = "--trace-csv" if out.endswith(".csv") else "--report"
    assert main(["--seed", "42", "run", "--net", str(path), *args, flag, str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == want


# The theta sweep's CSV on the golden GRU net, recorded before the gate
# tail moved to float64.
SWEEP_ARGS = ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--thetas", "0,0.02,0.05,0.2,0.5"]
SWEEP_SHA256 = "9a8e7f7b1e48ac3abf88fc00d79b52eea75f7f48244d1d9fad853fc3d1edc05b"


def test_sweep_csv_bytes_match_the_recorded_hash(tmp_path):
    path = tmp_path / "gru.net"
    path.write_text(GRU_NET)
    target = tmp_path / "sweep.csv"
    assert main(["--seed", "42", "sweep-theta", "--net", str(path), *SWEEP_ARGS,
                 "--out", str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == SWEEP_SHA256
