"""sparsebench benchmark: CLI workloads timed end to end, split by layer.

Usage, from the root of a checkout:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of the workloads in BENCHMARK.json, or `all` to run each in
turn. The seed feeds the program's `--seed` and every fixture generator.
With `--trace 0` the last stdout line carries the end-to-end metrics
listed in BENCHMARK.json; the lines above it print each workload's
set-up time, fastest, median and tail run time, work per host second,
peak RSS and fail rate. With `--trace 1` it carries the per-layer metrics of a traced
run (host self time by module, exact counts, and the simulated model.*
counts). All times are host seconds; model.* numbers are simulated.

Load shape: a closed loop, one client, one workload at a time, in one
single-threaded measuring process (BLAS threads pinned to 1) that runs
one untimed warm-up and then the timed runs. Set-up is timed in
separate fresh processes; fixtures are generated before either.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
GOLDEN = os.path.join(HERE, "golden.json")

SETUP_PROBES = 15          # timed fresh processes; one untimed probe runs first
PROBE_TIMEOUT_S = 60
DEADLINE_S = 170           # the whole invocation stays under 180 s
MAX_SECONDS = 120          # leaves DEADLINE_S room for fixtures, set-up and warm-up
TAIL_BEYOND = 10           # a tail percentile needs this many samples above it

MODEL_NOTE = ("model.* counts are simulated and unvalidated: the repository holds "
              "no hardware reference results, so no error figure is given. The "
              "modeled DRAM open row starts empty on every cost_trace call.")


class BenchError(Exception):
    pass


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=SRC, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return env


def setup_seconds(net: str | None) -> list[float]:
    """Host seconds from a fresh process's start to 'ready', for each of
    SETUP_PROBES processes."""
    argv = [sys.executable, os.path.join(HERE, "setup_probe.py")] + ([net] if net else [])
    times = []
    for i in range(SETUP_PROBES + 1):
        t0 = time.perf_counter()
        with subprocess.Popen(argv, stdout=subprocess.PIPE, text=True,
                              env=child_env(), cwd=ROOT) as p:
            timer = threading.Timer(PROBE_TIMEOUT_S, p.kill)
            timer.start()
            try:
                line = p.stdout.readline()
                elapsed = time.perf_counter() - t0
                p.stdout.read()
            finally:
                timer.cancel()
        if p.returncode != 0 or line.strip() != "ready":
            raise BenchError(f"set-up probe failed with status {p.returncode}")
        if i:
            times.append(elapsed)
    return times


def tail(samples: list[float]) -> tuple[int, float]:
    """Highest of p99/p95/p90/p75 with TAIL_BEYOND samples above it
    (nearest rank); with too few samples for any, the maximum (p100)."""
    s = sorted(samples)
    for p in (99, 95, 90, 75):
        k = math.ceil(p / 100 * len(s)) - 1
        if len(s) - 1 - k >= TAIL_BEYOND:
            return p, s[k]
    return 100, s[-1]


def measure(job: dict, timeout: float) -> dict:
    job_path = os.path.join(job["workdir"], "job.json")
    with open(job_path, "w", encoding="utf-8") as fh:
        json.dump(job, fh)
    try:
        proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), job_path],
                              capture_output=True, text=True, env=child_env(),
                              cwd=ROOT, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"measuring process exceeded {timeout:.0f} s") from exc
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"measuring process failed with status {proc.returncode}")
    result = json.loads(lines[-1])
    if "samples" not in result:
        raise BenchError("no run produced output: " + "; ".join(result["failures"]))
    return result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False, golden: str | None = None) -> tuple[dict, list[str]]:
    """Measure one workload; returns (metric values, report lines).

    `golden` is the output_hash every run must produce; by default the
    recorded one applies at the recorded seed and full size.
    """
    start = time.perf_counter()
    workdir = os.path.join(WORK, name)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    job = workloads.prepare(name, seed, workdir, tiny)
    if golden is None and not tiny:
        with open(GOLDEN, encoding="utf-8") as fh:
            rec = json.load(fh)
        if seed == rec["seed"]:
            golden = rec["output_hash"].get(name)
    job.update(src=SRC, workdir=workdir, seconds=seconds, trace=trace, golden=golden,
               spans_out=os.path.join(workdir, "spans.json"))
    probes = None if trace else setup_seconds(job["net"])
    r = measure(job, DEADLINE_S - (time.perf_counter() - start))

    n, failed = len(r["samples"]), len(r["failures"])
    p50 = statistics.median(r["samples"])
    lines = [f"== {name}  seed {seed}  (times are host seconds; model.* is simulated)",
             f"   fail_rate      {failed}/{r['attempted']} = {failed / r['attempted']:.4g} ratio",
             f"   output_hash    {r['output_hash']}",
             f"   model_digest   {r['model_digest']}"]
    if trace:
        values = dict(r["model"], **r["layers"])
        width = max(map(len, values))
        runs = values["runner.oracle_runs"]
        for k in sorted(values):
            shown = f"{values[k]:.6g}"
            if k == "runner.oracle_useful":
                shown = (f"{values['runner.oracle_fired']:.0f}/{runs:.0f}" if runs
                         else "n/a: no oracle ran (the JSON value is 0)")
            lines.append(f"   {k:<{width}}  {shown}")
    else:
        pct, tail_s = tail(r["samples"])
        work = "trace words" if job["report"] is None else "dense-equivalent MACs"
        setup = min(probes)
        values = {"setup_s": setup, "run_s.min": min(r["samples"]), "run_s.p50": p50,
                  "run_s.tail": tail_s, "work_per_s": r["work"] / p50,
                  "peak_rss_mb": r["peak_rss_mb"]}
        lines[1:1] = [
            f"   setup_s        {setup:.6g} s   fastest of {SETUP_PROBES} fresh processes"
            f" (median {statistics.median(probes):.6g} s)",
            f"   run_s.min      {values['run_s.min']:.6g} s   fastest of n={n} timed runs",
            f"   run_s.p50      {p50:.6g} s   median of n={n} timed runs",
            f"   run_s.tail     {tail_s:.6g} s   p{pct} of n={n}"
            + (f" (fewer than {4 * TAIL_BEYOND} samples: the maximum)" if pct == 100 else ""),
            f"   work_per_s     {values['work_per_s']:.6g} 1/s   {work} per host second",
            f"   peak_rss_mb    {r['peak_rss_mb']:.6g} MB   ru_maxrss of the measuring process",
        ]
    for f in r["failures"]:
        lines.append(f"   FAILED: {f}")
    return {"values": values, "attempted": r["attempted"], "failed": failed}, lines


def result_json(spec: dict, trace: bool, results: dict[str, dict]) -> dict:
    """The contract's result object; metrics are prefixed by workload
    only when several workloads ran."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    metrics = {}
    for name, res in results.items():
        for m in listed:
            key = m["name"] if len(results) == 1 else f"{name}/{m['name']}"
            metrics[key] = {"value": res["values"][m["name"]], "unit": m["unit"]}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not 0 < args.seconds <= MAX_SECONDS:
        p.error(f"--seconds must be above 0 and at most {MAX_SECONDS}, so that a "
                f"workload ends within {DEADLINE_S} s")
    if not os.path.isfile(os.path.join(SRC, "sparsebench", "cli.py")):
        print(f"error: no sparsebench sources under {SRC}", file=sys.stderr)
        return 2
    spec = load_spec()
    names = [w["name"] for w in spec["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if any(n not in names for n in chosen):
        print(f"error: unknown workload {args.workload!r}; choose from {names} or all",
              file=sys.stderr)
        return 2
    results = {}
    print(MODEL_NOTE)
    for name in chosen:
        try:
            results[name], lines = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except BenchError as exc:
            print(f"error: {name}: {exc}", file=sys.stderr)
            return 1
        print("\n".join(lines), flush=True)
    print(json.dumps(result_json(spec, bool(args.trace), results)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
