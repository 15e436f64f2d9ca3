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

# name: (net, CLI arguments, file written, sha256 of that file)
CASES = {
    "conv-sparse": (
        "conv", ["--input", MAP], "report.json",
        "3c0896290286a17e9c4ec08e8ec556b6bd68b47dbe2142e2ca97bcf0c8bc1d7c"),
    "conv-dense": (
        "conv", ["--input", MAP, "--mode", "dense"], "report.json",
        "2fe37289ae997557d697df7e0ce17164573ef31ccc7cd89885fdb2046e1f2b8e"),
    "conv-count3": (
        "conv", ["--input", MAP, "--count", "3"], "report.json",
        "6b3f5505d9beeeb61052912239fc7af818f5d8bee8541c96dca268c6c83e99b6"),
    "gru-theta0": (
        "gru", ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--theta", "0"], "report.json",
        "139f733b5d6e2d329204dbc8e893e8403ea43761926121019830b01976d87fee"),
    "gru-theta0.03": (
        "gru", ["--input", "synth:hold,t=40,n=6,hold=5", "--theta", "0.03"], "report.json",
        "706a08bd8ce76b8a21cba586bd5a2c84fa8f795f788046379b2ae643bf86eeca"),
    "gru-theta0-dense": (
        "gru", ["--input", "synth:ar1,t=30,n=6,rho=0.99", "--theta", "0", "--mode", "dense"],
        "report.json",
        "a2b86127a4053a31a4662f2598a6b720da07857abbefea5bd14c6a19e73d67bd"),
    "gru-theta0.03-dense": (
        "gru", ["--input", "synth:hold,t=40,n=6,hold=5", "--theta", "0.03", "--mode", "dense"],
        "report.json",
        "9b481d4860d3addb5713ecbdf8c6a5486a9b5df70f032986e26c58dffd020e58"),
    "conv-trace-csv": (
        "conv", ["--input", MAP], "trace.csv",
        "20846048dfa265a1d1b1c7ef117bf3884ed4e1d027a35cabfb324a0bd139570e"),
    "gru-trace-csv": (
        "gru", ["--input", "synth:hold,t=10,n=6,hold=5", "--theta", "0.03"], "trace.csv",
        "ddcbf216cb3de8b279feac511127d958cd71413ddf622b06856dea57d5c0a451"),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_report_bytes_match_the_recorded_hash(tmp_path, name):
    net, args, out, want = CASES[name]
    path = tmp_path / f"{net}.net"
    path.write_text(CONV_NET if net == "conv" else GRU_NET)
    target = tmp_path / out
    flag = "--trace-csv" if out.endswith(".csv") else "--report"
    assert main(["--seed", "42", "run", "--net", str(path), *args, flag, str(target)]) == 0
    assert hashlib.sha256(target.read_bytes()).hexdigest() == want
