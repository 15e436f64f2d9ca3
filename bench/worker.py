"""Measuring process: runs one workload's CLI command in a warm process.

Usage: python3 bench/worker.py JOB.json

The job (written by run.py) names the argv, the seconds to measure,
whether to trace, and the output checks. The process runs one untimed
warm-up, then timed runs of `sparsebench.cli.main(argv)` until the
time is used, checking every run's output. With tracing on it
alternates untraced and traced runs, so the per-layer split and the
tracing overhead come from the same window. The last line of stdout is
a JSON result; spans are written to the job's `spans_out` at the end.
"""

import contextlib
import gc
import hashlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

from spans import Patch, Tracer

MIN_SAMPLES = 3
MIN_TRACED_PAIRS = 2

# Span name -> per-layer self-time metric.
SELF_TIME_METRIC = {
    "cli.main": "cli.self_s",
    "netdesc.load_network": "netdesc.load_network_s",
    "runner.load_input": "runner.load_input_s",
    "runner.execute": "runner.self_s",
    "conv.run_network": "conv.run_network_s",
    "conv.zeroskip": "conv.zeroskip_s",
    "conv.oracle": "conv.oracle_s",
    "codec.load_smfm": "codec.load_smfm_s",
    "codec.encode_sm": "codec.encode_sm_s",
    "codec.decode_sm": "codec.decode_sm_s",
    "codec.encode_delta": "codec.encode_delta_s",
    "gru.delta": "gru.delta_s",
    "gru.mxv": "gru.mxv_s",
    "gru.oracle": "gru.oracle_s",
    "trace.from_csv": "trace.from_csv_s",
    "memmodel.cost_trace": "memmodel.cost_trace_s",
    "report.write": "report.write_s",
}


def _gru_mode(specs, x_seq, mode="sparse"):
    return "gru.delta" if mode == "sparse" else "gru.oracle"


def _count_trace(tr, trace, layer_traces):
    tr.count("trace.records", len(trace))
    tr.count("trace.records_layer_sum", sum(len(t) for t in layer_traces))
    tr.count("trace.words", trace.word_count())


def _on_execute(capture):
    def hook(tr, result, args, kwargs):
        report, run = result
        tr.count("runner.oracle_runs")
        tr.count("runner.oracle_fired", int(bool(report.extras["equivalence_checked"])))
        if capture is not None:
            capture["run"] = run
    return hook


def _on_run_network(tr, result, args, kwargs):
    run, _ = result
    _count_trace(tr, run.trace, [r.accesses for r in run.layer_results])


def _on_run_sequence(tr, run, args, kwargs):
    _count_trace(tr, run.trace, run.layer_traces)
    if _gru_mode(*args, **kwargs) == "gru.delta":
        tr.count("gru.events", sum(s.x_events + s.h_events
                                   for layer in run.step_stats for s in layer))


def _on_zeroskip(tr, res, args, kwargs):
    tr.count("conv.pixels_visited", res.pixels_visited)
    tr.count("conv.macs_executed", res.counters.macs_executed)


def _on_from_csv(tr, trace, args, kwargs):
    _count_trace(tr, trace, [])


def _on_cost_trace(tr, rep, args, kwargs):
    tr.count("memmodel.records_costed", len(args[0]))


def targets(capture: dict | None) -> dict:
    """The wrapped public functions, by the module that defines them."""
    from sparsebench import codec, conv, gru, memmodel, netdesc, report, runner, trace
    execute = ("runner.execute", _on_execute(capture))
    return {
        (netdesc, "load_network"): ("netdesc.load_network", None),
        (runner, "load_conv_input"): ("runner.load_input", None),
        (runner, "load_seq_input"): ("runner.load_input", None),
        (runner, "execute_conv"): execute,
        (runner, "execute_gru"): execute,
        (conv, "run_network"): ("conv.run_network", _on_run_network),
        (conv, "conv_zeroskip"): ("conv.zeroskip", _on_zeroskip),
        (conv, "conv_dense_run"): ("conv.oracle", None),
        (codec, "load_smfm"): ("codec.load_smfm", None),
        (codec, "encode_sm"): ("codec.encode_sm", None),
        (codec, "decode_sm"): ("codec.decode_sm", None),
        (codec, "encode_delta"): ("codec.encode_delta", None),
        (gru, "run_sequence"): (_gru_mode, _on_run_sequence),
        (gru, "delta_mxv_accumulate"): ("gru.mxv", None),
        (memmodel, "cost_trace"): ("memmodel.cost_trace", _on_cost_trace),
        (trace, "trace_from_csv"): ("trace.from_csv", _on_from_csv),
        (report.RunReport, "write"): ("report.write", None),
    }


class Runner:
    """Runs the job's command and checks each run's output."""

    def __init__(self, job: dict, main):
        self.job = job
        self.main = main
        self.reference: bytes | None = None
        self.attempted = 0
        self.failures: list[str] = []

    def once(self, tracer: Tracer | None = None) -> float:
        """One checked run; returns its host seconds."""
        gc.collect()
        out = io.StringIO()
        self.attempted += 1
        with contextlib.redirect_stdout(out):
            t0 = time.perf_counter()
            try:
                if tracer is None:
                    rc = self.main(self.job["argv"])
                else:
                    root = tracer.begin("cli.main")
                    try:
                        rc = self.main(self.job["argv"])
                    finally:
                        tracer.end(root)
            except Exception:
                rc = None
                traceback.print_exc()
            elapsed = time.perf_counter() - t0
        problem = self.check(rc, out.getvalue())
        if problem:
            self.failures.append(problem)
            print(f"run {self.attempted}: {problem}", file=sys.stderr)
        return elapsed

    def check(self, rc, stdout: str) -> str | None:
        if rc != 0:
            return f"exit status {rc!r}"
        if self.job["report"] is None:
            data = stdout.encode()
        else:
            try:
                with open(self.job["report"], "rb") as fh:
                    data = fh.read()
            except FileNotFoundError:
                return "no report written"
            os.remove(self.job["report"])
        if self.reference is None:
            self.reference = data
        elif data != self.reference:
            return "output bytes differ from the first run"
        try:
            doc = json.loads(data)
        except ValueError:
            return "output is not JSON"
        if self.job["expected_cost"] is not None:
            for key, want in self.job["expected_cost"].items():
                if doc.get(key) != want:
                    return f"{key} {doc.get(key)!r}, open-row walk gives {want!r}"
        if self.job["expect_equivalence"] and doc["extras"]["equivalence_checked"] is not True:
            return "equivalence_checked is not true"
        golden = self.job.get("golden")
        if golden is not None and output_hash(self.job, data) != golden:
            return f"output_hash {output_hash(self.job, data)} != golden {golden}"
        return None


def output_hash(job: dict, data: bytes) -> str:
    """The report's output_hash, or the digest of mem-sim's printed costs."""
    if job["report"] is None:
        return hashlib.sha256(data).hexdigest()
    return json.loads(data)["extras"]["output_hash"]


def model_counts(job: dict, data: bytes, run) -> dict:
    """Simulated counts of the workload: identical across speed-only changes.

    Per-layer row activations come from costing each layer's own trace,
    with the DRAM open row starting empty as the program does.
    """
    from sparsebench.memmodel import MemConfig, cost_trace
    doc = json.loads(data)
    keys = ("cycles", "row_activations", "dram_words", "sram_words", "energy_pj")
    if job["report"] is None:
        model = {f"model.{k}": doc[k] for k in keys}
        model.update({"model.macs_executed": 0, "model.saturations": 0,
                      "model.event_rate": 0, "model.weight_reduction": 0})
        layers, layer_traces, mem = [], [], None
    else:
        t, ex = doc["totals"], doc["extras"]
        model = {f"model.{k}": t[k] for k in keys + ("macs_executed", "saturations")}
        model["model.event_rate"] = ex.get("mean_event_rate", 0)
        model["model.weight_reduction"] = ex.get("weight_reduction_factor", 0)
        layers = doc["layers"]
        layer_traces = (run.layer_traces if doc["net_kind"] == "gru"
                        else [r.accesses for r in run.layer_results])
        mem = MemConfig(**doc["config"]["mem"])
    for i in range(2):
        model[f"model.L{i}.cycles"] = layers[i]["cycles"] if i < len(layers) else 0
        model[f"model.L{i}.row_activations"] = (
            cost_trace(layer_traces[i], mem).row_activations if i < len(layer_traces) else 0)
    return model


def layer_metrics(tracer: Tracer) -> dict:
    """Per-layer metrics of one traced run."""
    m = {name: 0.0 for name in SELF_TIME_METRIC.values()}
    calls: dict[str, int] = {}
    for span, self_s in zip(tracer.spans, tracer.self_times()):
        calls[span.name] = calls.get(span.name, 0) + 1
        if span.name in SELF_TIME_METRIC:
            m[SELF_TIME_METRIC[span.name]] += self_s
    c = tracer.counts
    for key in ("conv.pixels_visited", "gru.events", "trace.records",
                "trace.records_layer_sum", "trace.words", "memmodel.records_costed"):
        m[key] = c.get(key, 0)
    m["gru.mxv_calls"] = calls.get("gru.mxv", 0)
    m["memmodel.cost_trace_calls"] = calls.get("memmodel.cost_trace", 0)
    macs = c.get("conv.macs_executed", 0)
    m["conv.ns_per_mac"] = 1e9 * m["conv.zeroskip_s"] / macs if macs else 0.0
    delta_engine_s = m["gru.delta_s"] + m["gru.mxv_s"] + m["codec.encode_delta_s"]
    m["gru.ns_per_event"] = 1e9 * delta_engine_s / m["gru.events"] if m["gru.events"] else 0.0
    recs = m["memmodel.records_costed"]
    m["memmodel.ns_per_record"] = 1e9 * m["memmodel.cost_trace_s"] / recs if recs else 0.0
    # No oracle runs (mem-sim) is reported as 0; run.py prints it as n/a.
    m["runner.oracle_runs"] = runs = c.get("runner.oracle_runs", 0)
    m["runner.oracle_fired"] = c.get("runner.oracle_fired", 0)
    m["runner.oracle_useful"] = m["runner.oracle_fired"] / runs if runs else 0.0
    return m


def measure(job: dict) -> dict:
    sys.path.insert(0, job["src"])
    import sparsebench
    from sparsebench import cli
    if not os.path.abspath(sparsebench.__file__).startswith(job["src"] + os.sep):
        raise SystemExit(f"sparsebench imported from {sparsebench.__file__}, "
                         f"not from {job['src']}")
    runner = Runner(job, cli.main)

    # Warm-up: untimed, checked, and wrapped to capture the run object
    # the simulated counts are read from.
    capture: dict = {}
    with Patch(Tracer(), targets(capture)) as tracer:
        runner.once(tracer)
    data = runner.reference
    if data is None:
        return {"attempted": runner.attempted, "failures": runner.failures}
    model = model_counts(job, data, capture.pop("run", None))
    if job["report"] is None:
        work = model["model.dram_words"] + model["model.sram_words"]
    else:
        work = json.loads(data)["totals"]["macs_dense_equivalent"]

    samples, traced, layer_runs, span_runs = [], [], [], []
    deadline = time.perf_counter() + job["seconds"]
    while True:
        samples.append(runner.once())
        if job["trace"]:
            tracer = Tracer()
            with Patch(tracer, targets(None)):
                traced.append(runner.once(tracer))
            layer_runs.append(layer_metrics(tracer))
            span_runs.append(tracer.to_json())
        per_round = statistics.median(samples) + (statistics.median(traced) if traced else 0)
        enough = MIN_TRACED_PAIRS if job["trace"] else MIN_SAMPLES
        if len(samples) >= enough and time.perf_counter() + per_round > deadline:
            break

    result = {
        "attempted": runner.attempted,
        "failures": runner.failures,
        "samples": samples,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "work": work,
        "output_hash": output_hash(job, data),
        "model": model,
        "model_digest": hashlib.sha256(
            json.dumps(model, sort_keys=True).encode()).hexdigest()[:16],
    }
    if job["trace"]:
        layers = {k: statistics.median(r[k] for r in layer_runs) for k in layer_runs[0]}
        layers["bench.tracing_overhead_s"] = (statistics.median(traced)
                                              - statistics.median(samples))
        result["layers"] = layers
        with open(job["spans_out"], "w", encoding="utf-8") as fh:
            json.dump(span_runs, fh)
    return result


if __name__ == "__main__":
    with open(sys.argv[1], encoding="utf-8") as fh:
        job = json.load(fh)
    print(json.dumps(measure(job)))
