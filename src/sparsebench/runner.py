"""Run orchestration: input loading, engine dispatch, report assembly.

Every run executes both the sparse and the dense path and compares their
outputs. Conv runs compare output hashes, and the equality must hold
always. GRU runs compare output tensors, and the equality must hold at
theta 0 in the saturation-free regime; otherwise the check is skipped
(and reported as unchecked). At any theta the delta engine also checks
each layer run's accumulators against its memories
(`gru.check_telescoped`). A divergence is a hard failure, never a
warning.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from . import synth
from .codec import SparseFeatureMap, decode_sm, encode_sm, load_smfm
from .conv import ConvNetRun, run_network
from .errors import EquivalenceFailure, MalformedStream, ShapeMismatch
from .fxp import OpCounter, QTensor, load_qt, qt_header
from .gru import ACT_FMT, GruSeqRun, quantize_theta, run_sequence
from .memmodel import (MemConfig, MemCostReport, cost_trace, effective_gops,
                       energy_breakdown, gops_per_watt)
from .netdesc import NetworkDesc, integer, number, parse_uri, u64
from .report import LayerReport, RunReport, config_dict
from .trace import AccessTrace


def sequence_hash(seq: QTensor) -> str:
    """sha256 of a (steps, n) sequence's steps as rank-1 .qt bytes, end to end."""
    h = hashlib.sha256()
    head = qt_header(seq.dims[1:], seq.fmt)
    for row in seq.data.astype("<i2"):
        h.update(head + row.tobytes())
    return h.hexdigest()


def _checked(parse, ok, why: str):
    """A Fields parse: ``parse(text)``, refused with ``why`` unless ``ok``
    holds for the value, so a generator never sees a value it refuses."""
    def read(text: str):
        value = parse(text)
        if not ok(value):
            raise MalformedStream(why)
        return value
    return read


def _size(text: str) -> int:
    """A generated tensor dimension. Zero is a shape error (exit 3), as a
    zero layer dimension is; a negative one an input error."""
    n = integer(text)
    if n < 0:
        raise MalformedStream("negative dimension")
    if n == 0:
        raise ShapeMismatch("zero dimension")
    return n


def _amp(text: str) -> float:
    """A map, uniform or hold amplitude, refused unless it is one Q8.8 LSB
    to the Q8.8 maximum (`synth.amp_raw`)."""
    amp = number(text)
    synth.amp_raw(amp)
    return amp


_SPARSITY = _checked(number, lambda v: 0 <= v <= 1, "sparsity must be in [0, 1]")
_STEPS = _checked(integer, lambda v: v >= 1, "sequence generator needs t of at least 1")
_HOLD = _checked(integer, lambda v: v >= 1, "hold must be >= 1")
_RHO = _checked(number, lambda v: 0 <= v < 1, "rho must be in [0, 1)")
_SIGMA = _checked(number, lambda v: 0 <= v < math.inf,
                  "a non-finite or negative ar1 standard deviation")


def _map_generator(uri: str, seed: int):
    """Draws compressed maps from one seeded stream. synth:map options:
    c, h, w, sparsity, amp, seed (the URI seed wins over the global one)."""
    kind, f = parse_uri(uri)
    if kind != "map":
        raise MalformedStream(f"{uri}: unknown conv input generator {kind!r}")
    rng = synth.make_rng(f.read("seed", u64, seed))
    dims = f.read("c", _size, 1), f.read("h", _size, 32), f.read("w", _size, 32)
    sparsity, amp = f.read("sparsity", _SPARSITY, 0.5), f.read("amp", _amp, 1.0)
    f.done()
    return lambda: encode_sm(synth.sparse_map(*dims, sparsity, rng, amp=amp))


def load_conv_input(uri: str, seed: int) -> SparseFeatureMap:
    """Resolve a conv input to the compressed map the engines read: a
    .smfm as loaded, or a rank-3 .qt or one synth:map draw encoded once."""
    if uri.startswith("synth:"):
        return _map_generator(uri, seed)()
    if uri.endswith(".smfm"):
        return load_smfm(uri)
    t = load_qt(uri)
    if len(t.dims) != 3:
        raise MalformedStream(f"conv input must be rank 3, got dims {t.dims}")
    return encode_sm(t)


def load_seq_input(uri: str, seed: int) -> QTensor:
    """Resolve a sequence input to one (steps, size) tensor: a rank-2 .qt
    as loaded, or a generator's draw in Q8.8.

    Generators: synth:uniform,t=..,n=..; synth:hold,t=..,n=..,hold=..;
    synth:ar1,t=..,n=..,rho=..; all take amp and seed. t, n, hold and
    seed are integers; a value the generator would refuse and any other
    key are errors naming the URI, key and value.
    """
    if uri.startswith("synth:"):
        kind, f = parse_uri(uri)
        rng = synth.make_rng(f.read("seed", u64, seed))
        t, n = f.read("t", _STEPS, 50), f.read("n", _size, 32)
        if kind == "uniform":
            gen, args = synth.uniform_seq, ()
        elif kind == "hold":
            gen, args = synth.piecewise_constant_seq, (f.read("hold", _HOLD, 10),)
        elif kind == "ar1":
            gen, args = synth.ar1_seq, (f.read("rho", _RHO, 0.99),)
        else:
            raise MalformedStream(f"{uri}: unknown sequence generator {kind!r}")
        amp = f.read("amp", _SIGMA if kind == "ar1" else _amp, 0.5)
        f.done()
        try:
            return gen(t, n, *args, rng, amp=amp)
        except MalformedStream as exc:  # an ar1 draw past Q8.8
            raise f.refuse("amp", exc) from None
    t = load_qt(uri)
    if len(t.dims) != 2:
        raise MalformedStream(f"sequence input must be rank 2, got dims {t.dims}")
    return t


def check_width(desc: NetworkDesc, width: int, uri: str) -> None:
    """Refuse, before any engine runs, an input of ``width`` channels
    (conv) or components per step (gru) that the first layer of
    ``desc`` does not take; the error names the net (its ``.net`` path,
    or its name when it was built in code) and the input ``uri``."""
    if desc.kind == "conv":
        want, what = desc.conv_layers[0].in_channels, "channels"
    else:
        want, what = desc.gru_layers[0].input_size, "components per step"
    if width != want:
        raise ShapeMismatch(f"{desc.source or desc.name}: layer 0 takes {want} {what}, "
                            f"input {uri} gives {width}")


def _bytes(words_by_tag: dict[str, int]) -> dict[str, int]:
    return {t: 2 * w for t, w in words_by_tag.items()}


def _efficiency(dense_macs: int, macs: int) -> float | None:
    return None if macs == 0 else 100.0 * dense_macs / macs


def _fill_totals(report: RunReport, counters: OpCounter, cost: MemCostReport,
                 mem: MemConfig) -> None:
    energy = energy_breakdown(counters.macs_executed, cost.dram_words,
                              cost.sram_words, mem)
    dense_op = counters.dense_equivalent_op
    report.totals = {
        "macs_dense_equivalent": counters.macs_dense_equivalent,
        "macs_executed": counters.macs_executed,
        "dense_equivalent_op": dense_op,
        "executed_op": counters.total_op,
        "efficiency_pct": _efficiency(counters.macs_dense_equivalent,
                                      counters.macs_executed),
        "adds": counters.adds,
        "comparisons": counters.comparisons,
        "saturations": counters.saturations,
        "cycles": cost.cycles,
        "row_activations": cost.row_activations,
        "dram_words": cost.dram_words,
        "sram_words": cost.sram_words,
        "dram_bytes_by_tag": _bytes(cost.dram_words_by_tag),
        "sram_bytes_by_tag": _bytes(cost.sram_words_by_tag),
        "energy_pj": energy["total_pj"],
        "energy_breakdown_pj": energy,
    }
    seconds = cost.cycles / mem.clock_hz
    watts = (energy["total_pj"] * 1e-12 / seconds) if seconds > 0 else 0.0
    report.foms = {
        "simulated_seconds": seconds,
        "effective_gops": effective_gops(dense_op, cost.cycles, mem),
        "watts": watts,
        "gops_per_watt": gops_per_watt(dense_op, energy["total_pj"]),
    }


def _layer_report(idx: int, kind: str, c: OpCounter, sparsity: float,
                  cost: MemCostReport, mem: MemConfig) -> LayerReport:
    """One layer's row, its traffic and cycles from its own cost."""
    energy = energy_breakdown(c.macs_executed, cost.dram_words, cost.sram_words, mem)
    return LayerReport(
        index=idx, kind=kind, dense_equivalent_op=c.dense_equivalent_op,
        executed_op=c.total_op,
        efficiency_pct=_efficiency(c.macs_dense_equivalent, c.macs_executed),
        sparsity=sparsity, dram_bytes_by_tag=_bytes(cost.dram_words_by_tag),
        sram_bytes_by_tag=_bytes(cost.sram_words_by_tag), cycles=cost.cycles,
        energy_pj=energy["total_pj"])


def _report(desc: NetworkDesc, mode: str, mem: MemConfig, seed: int | None,
            layer_counters: list[OpCounter], sparsity: list[float],
            trace: AccessTrace) -> RunReport:
    """Report layers and totals of a run from each layer's op counter and
    sparsity; the trace is costed once."""
    cost = cost_trace(trace, mem)
    report = RunReport(desc.name, mode, desc.kind, seed, config_dict(mem))
    counters = OpCounter()
    for i, (c, s, layer_cost) in enumerate(zip(layer_counters, sparsity, cost.layers)):
        report.layers.append(_layer_report(i, desc.kind, c, s, layer_cost, mem))
        counters.merge(c)
    _fill_totals(report, counters, cost, mem)
    return report


def _checked_conv_run(desc: NetworkDesc, x: SparseFeatureMap,
                      mode: str) -> tuple[ConvNetRun, str]:
    """Run both engines, require equal outputs; return the mode's run and
    the output hash."""
    sparse_run, sparse_out = run_network(desc.conv_layers, x, "sparse")
    dense_run, dense_out = run_network(desc.conv_layers, x, "dense")
    sparse_hash = decode_sm(sparse_out).sha256()
    dense_hash = decode_sm(dense_out).sha256()
    if sparse_hash != dense_hash:
        raise EquivalenceFailure(
            "sparse and dense conv outputs diverged; this is a bug, not a config error")
    return (sparse_run if mode == "sparse" else dense_run), sparse_hash


def execute_conv(desc: NetworkDesc, x: SparseFeatureMap, mode: str,
                 mem: MemConfig, seed: int | None = None
                 ) -> tuple[RunReport, ConvNetRun]:
    run, output_hash = _checked_conv_run(desc, x, mode)
    report = _report(desc, mode, mem, seed, [r.counters for r in run.layer_results],
                     run.per_layer_sparsity, run.trace)
    report.extras = {
        "output_hash": output_hash,
        "equivalence_checked": True,
        "peak_live_bytes": run.peak_live_bytes,
        "per_layer_sparsity": run.per_layer_sparsity,
        "pixels_visited": [r.pixels_visited for r in run.layer_results],
    }
    return report, run


def execute_conv_averaged(desc: NetworkDesc, uri: str, mode: str,
                          mem: MemConfig, seed: int, count: int
                          ) -> RunReport:
    """Run `count` generated inputs and average the sparsity table.

    One generator stream drives all inputs, so the batch is reproducible
    from the single seed. Op and traffic columns are sums; sparsity
    columns are means with their standard errors.
    """
    if not uri.startswith("synth:"):
        raise MalformedStream("averaging over --count needs a synth: input")
    draw = _map_generator(uri, seed)
    n_layers = len(desc.conv_layers)
    per_layer: list[list[float]] = [[] for _ in range(n_layers)]
    layer_counters = [OpCounter() for _ in range(n_layers)]
    traces = []
    peak = 0
    for _ in range(count):  # one input's run alive at a time
        x = draw()
        check_width(desc, x.dims[0], uri)
        run_i, _ = _checked_conv_run(desc, x, mode)
        peak = max(peak, run_i.peak_live_bytes)
        traces.append(run_i.trace)
        for l, r in enumerate(run_i.layer_results):
            per_layer[l].append(r.output_sparsity.sparsity)
            layer_counters[l].merge(r.counters)
    means = [float(np.mean(v)) for v in per_layer]
    stderr = [float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
              for v in per_layer]
    report = _report(desc, mode, mem, seed, layer_counters, means,
                     AccessTrace.concat(traces))
    report.extras = {
        "averaged_over": count,
        "per_layer_sparsity_mean": means,
        "per_layer_sparsity_stderr": stderr,
        "peak_live_bytes": peak,
        "equivalence_checked": True,
    }
    return report


def apply_theta(desc: NetworkDesc, theta: float) -> NetworkDesc:
    th = quantize_theta(theta)
    return replace(desc, gru_layers=[replace(s, theta=th) for s in desc.gru_layers])


def execute_gru(desc: NetworkDesc, x_seq: QTensor, mode: str,
                mem: MemConfig, seed: int | None = None,
                theta_override: float | None = None
                ) -> tuple[RunReport, GruSeqRun]:
    if theta_override is not None:
        desc = apply_theta(desc, theta_override)
    sparse_run = run_sequence(desc.gru_layers, x_seq, "sparse")
    dense_run = run_sequence(desc.gru_layers, x_seq, "dense")
    all_zero_theta = all(s.theta == 0 for s in desc.gru_layers)
    saturation_free = (sparse_run.counters.saturations == 0
                       and dense_run.counters.saturations == 0)
    checked = all_zero_theta and saturation_free
    if checked and sparse_run.outputs != dense_run.outputs:
        raise EquivalenceFailure(
            "delta and dense GRU outputs diverged at theta 0; this is a bug")
    run = sparse_run if mode == "sparse" else dense_run
    steps = x_seq.dims[0]
    sparsity = [1.0 - int(xe.sum() + he.sum()) / (steps * (spec.input_size + spec.hidden_size))
                for spec, xe, he in zip(desc.gru_layers, run.x_events, run.h_events)]
    report = _report(desc, mode, mem, seed, run.layer_counters, sparsity, run.trace)
    dense_total_words = dense_run.trace.word_count()
    total_words = report.totals["dram_words"] + report.totals["sram_words"]
    report.extras = {
        "output_hash": sequence_hash(run.outputs),
        "equivalence_checked": checked,
        "theta": [s.theta / ACT_FMT.scale for s in desc.gru_layers],
        "steps": steps,
        "weight_words_fetched": run.weight_words_fetched,
        "dense_weight_words": run.dense_weight_words,
        "weight_reduction_factor": run.weight_reduction_factor,
        "total_words": total_words,
        "dense_total_words": dense_total_words,
        "total_traffic_reduction_factor": dense_total_words / total_words,
        "mean_event_rate": _mean_event_rate(run, desc),
    }
    return report, run


def _mean_event_rate(run: GruSeqRun, desc: NetworkDesc) -> float:
    units = sum(s.input_size + s.hidden_size for s in desc.gru_layers)
    events = int(run.x_events.sum() + run.h_events.sum())
    return events / (run.x_events.shape[1] * units)


def output_values(run: GruSeqRun) -> np.ndarray:
    """Final-layer outputs as a (steps, hidden) float array."""
    return run.outputs.data / ACT_FMT.scale


def sweep_theta(desc: NetworkDesc, x_seq: QTensor,
                thetas: list[float]) -> tuple[list[str], list[dict]]:
    """One sparse run per theta, measured against the theta-0 run.

    Deviations are in activation value units; rms_dev_pct is relative to
    the rms of the theta-0 outputs.
    """
    ref_run = run_sequence(apply_theta(desc, 0.0).gru_layers, x_seq, "sparse")
    ref = output_values(ref_run)
    rms_ref = float(np.sqrt(np.mean(ref ** 2)))
    rows = []
    for theta in thetas:
        run = run_sequence(apply_theta(desc, theta).gru_layers, x_seq, "sparse")
        vals = output_values(run)
        dev = vals - ref
        rms = float(np.sqrt(np.mean(dev ** 2)))
        rows.append({
            "theta": theta,
            "max_abs_dev": float(np.max(np.abs(dev))),
            "rms_dev": rms,
            "rms_dev_pct": (100.0 * rms / rms_ref) if rms_ref > 0 else
                           (0.0 if rms == 0 else float("inf")),
            "weight_reduction_factor": run.weight_reduction_factor,
            "event_rate": _mean_event_rate(run, desc),
        })
    header = [
        "# deviation columns compare final-layer outputs against the theta=0 run",
        "# on the same input; per-theta trajectories diverge, so event rates are",
        "# per-step averages, not per-step matches",
        "# weight-traffic reduction typically lands in 5x-100x depending on input",
        "# statistics",
    ]
    return header, rows


def sweep_rows_csv(header: list[str], rows: list[dict]) -> str:
    cols = ["theta", "max_abs_dev", "rms_dev", "rms_dev_pct",
            "weight_reduction_factor", "event_rate"]
    lines = list(header)
    lines.append(",".join(cols))
    for r in rows:
        lines.append(",".join(f"{r[c]:.6g}" for c in cols))
    return "\n".join(lines) + "\n"
