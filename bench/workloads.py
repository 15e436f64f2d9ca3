"""The benchmark's workloads: CLI arguments, fixtures and output checks.

Every workload is one `sparsebench` command line. `prepare` writes the
workload's inputs for a seed into a work directory and returns the job
the worker process runs: the argv, where the output lands, and what the
output must satisfy.
"""

import os

import fixtures

HERE = os.path.dirname(os.path.abspath(__file__))
NETS = os.path.join(HERE, "nets")

# Full sizes, and the tiny sizes the benchmark's own tests run at.
SIZES = {
    False: {"map": (32, 64, 64), "ar1_t": 100, "hold_t": 600, "trace_words": 100_000},
    True: {"map": (32, 8, 8), "ar1_t": 6, "hold_t": 12, "trace_words": 4_000},
}


def prepare(name: str, seed: int, workdir: str, tiny: bool = False) -> dict:
    """Write the inputs of workload `name` for `seed`; return its job."""
    size = SIZES[tiny]
    report = os.path.join(workdir, "report.json")
    job = {"workload": name, "seed": seed, "report": report,
           "expect_equivalence": False, "expected_cost": None}
    if name == "conv-zs80":
        fmap = os.path.join(workdir, "input.smfm")
        with open(fmap, "wb") as fh:
            fh.write(fixtures.conv_map_smfm(seed, *size["map"], sparsity=0.8))
        job["net"] = os.path.join(NETS, "conv.net")
        job["argv"] = ["--seed", str(seed), "run", "--net", job["net"],
                       "--input", fmap, "--report", report]
        job["expect_equivalence"] = True
    elif name in ("gru-ar1-t0", "gru-hold-sparse"):
        if name == "gru-ar1-t0":
            uri, theta = f"synth:ar1,t={size['ar1_t']},n=32,rho=0.99", "0"
            job["expect_equivalence"] = True
        else:
            uri, theta = f"synth:hold,t={size['hold_t']},n=32,hold=25", "0.03"
        job["net"] = os.path.join(NETS, "gru.net")
        job["argv"] = ["--seed", str(seed), "run", "--net", job["net"],
                       "--input", uri, "--theta", theta, "--report", report]
    elif name == "memsim-replay":
        cols = fixtures.memsim_trace(seed, size["trace_words"])
        csv_path = os.path.join(workdir, "trace.csv")
        with open(csv_path, "w", encoding="utf-8") as fh:
            fh.write(fixtures.trace_csv(*cols))
        job["net"] = None
        job["report"] = None
        job["argv"] = ["--seed", str(seed), "mem-sim", "--trace", csv_path]
        job["expected_cost"] = fixtures.open_row_walk(cols[0], cols[1])
    else:
        raise ValueError(f"unknown workload {name!r}")
    return job
