"""Run orchestration: input loading, engine dispatch, report assembly.

Every run executes both the sparse and the dense path and compares
output hashes: for conv networks the equality must hold always; for GRU
networks it must hold at theta 0 in the saturation-free regime, and is
skipped (and reported as unchecked) otherwise. A divergence is a hard
failure, never a warning.
"""

import hashlib
import math
from dataclasses import replace

import numpy as np

from . import synth
from .codec import decode_sm, load_smfm
from .conv import ConvNetRun, run_network
from .errors import EquivalenceFailure, MalformedStream
from .fxp import OpCounter, Q8_8, QTensor, load_qt, quantize, to_qt_bytes
from .gru import ACT_FMT, GruSeqRun, run_sequence
from .memmodel import (MemConfig, MemCostReport, cost_trace, effective_gops,
                       energy_breakdown, gops_per_watt)
from .netdesc import NetworkDesc, parse_uri
from .report import LayerReport, RunReport, config_dict
from .trace import AccessTrace


def hash_tensors(tensors: list[QTensor]) -> str:
    h = hashlib.sha256()
    for t in tensors:
        h.update(to_qt_bytes(t))
    return h.hexdigest()


def _map_generator(uri: str, seed: int):
    """Draws maps from one seeded stream. synth:map options: c, h, w,
    sparsity, amp, seed (the URI seed wins over the global one)."""
    kind, o = parse_uri(uri)
    if kind != "map":
        raise MalformedStream(f"unknown conv input generator {kind!r}")
    rng = synth.make_rng(int(o.get("seed", seed)))
    dims = (int(o.get("c", 1)), int(o.get("h", 32)), int(o.get("w", 32)))
    sparsity, amp = float(o.get("sparsity", 0.5)), float(o.get("amp", 1.0))
    return lambda: synth.sparse_map(*dims, sparsity, rng, amp=amp)


def load_conv_input(uri: str, seed: int) -> QTensor:
    """Resolve a conv input: .qt, .smfm, or synth:map,... (one draw)."""
    if uri.startswith("synth:"):
        return _map_generator(uri, seed)()
    if uri.endswith(".smfm"):
        return decode_sm(load_smfm(uri))
    t = load_qt(uri)
    if len(t.dims) != 3:
        raise MalformedStream(f"conv input must be rank 3, got dims {t.dims}")
    return t


def load_seq_input(uri: str, seed: int) -> list[QTensor]:
    """Resolve a sequence input: rank-2 .qt (steps x size) or a generator.

    Generators: synth:uniform,t=..,n=..; synth:hold,t=..,n=..,hold=..;
    synth:ar1,t=..,n=..,rho=..; all take amp and seed.
    """
    if uri.startswith("synth:"):
        kind, o = parse_uri(uri)
        rng = synth.make_rng(int(o.get("seed", seed)))
        t, n = int(o.get("t", 50)), int(o.get("n", 32))
        if t < 1:
            raise MalformedStream(f"sequence generator needs t of at least 1, got {t}")
        amp = float(o.get("amp", 0.5))
        if kind == "uniform":
            return synth.uniform_seq(t, n, rng, amp=amp)
        if kind == "hold":
            return synth.piecewise_constant_seq(t, n, int(o.get("hold", 10)),
                                                rng, amp=amp)
        if kind == "ar1":
            return synth.ar1_seq(t, n, float(o.get("rho", 0.99)), rng, amp=amp)
        raise MalformedStream(f"unknown sequence generator {kind!r}")
    t = load_qt(uri)
    if len(t.dims) != 2:
        raise MalformedStream(f"sequence input must be rank 2, got dims {t.dims}")
    steps, n = t.dims
    flat = t.data.reshape(steps, n)
    return [QTensor((n,), t.fmt, flat[i].copy()) for i in range(steps)]


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


def _layer_report(idx: int, kind: str, dense_macs: int, macs: int,
                  executed_op: int, sparsity: float | None,
                  cost: MemCostReport, mem: MemConfig) -> LayerReport:
    """One layer's row, its traffic and cycles from its own cost."""
    energy = energy_breakdown(macs, cost.dram_words, cost.sram_words, mem)
    return LayerReport(
        index=idx, kind=kind, dense_equivalent_op=2 * dense_macs,
        executed_op=executed_op, efficiency_pct=_efficiency(dense_macs, macs),
        sparsity=sparsity, dram_bytes_by_tag=_bytes(cost.dram_words_by_tag),
        sram_bytes_by_tag=_bytes(cost.sram_words_by_tag), cycles=cost.cycles,
        energy_pj=energy["total_pj"])


def _conv_report(desc: NetworkDesc, mode: str, mem: MemConfig, seed: int | None,
                 layer_counters: list[OpCounter], sparsity: list[float],
                 trace: AccessTrace) -> RunReport:
    """Report layers and totals of a conv run; the trace is costed once."""
    cost = cost_trace(trace, mem)
    report = RunReport(desc.name, mode, "conv", seed, config_dict(mem))
    counters = OpCounter()
    for i, (c, s, layer_cost) in enumerate(zip(layer_counters, sparsity, cost.layers)):
        report.layers.append(_layer_report(i, "conv", c.macs_dense_equivalent,
                                           c.macs_executed, c.total_op, s, layer_cost, mem))
        counters.merge(c)
    _fill_totals(report, counters, cost, mem)
    return report


def _checked_conv_run(desc: NetworkDesc, x: QTensor,
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


def execute_conv(desc: NetworkDesc, x: QTensor, mode: str,
                 mem: MemConfig, seed: int | None = None
                 ) -> tuple[RunReport, ConvNetRun]:
    run, output_hash = _checked_conv_run(desc, x, mode)
    report = _conv_report(desc, mode, mem, seed,
                          [r.counters for r in run.layer_results],
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
    trace = AccessTrace()
    n_layers = len(desc.conv_layers)
    per_layer: list[list[float]] = [[] for _ in range(n_layers)]
    layer_counters = [OpCounter() for _ in range(n_layers)]
    peak = 0
    for _ in range(count):
        run_i, _ = _checked_conv_run(desc, draw(), mode)
        peak = max(peak, run_i.peak_live_bytes)
        for l, r in enumerate(run_i.layer_results):
            per_layer[l].append(r.output_sparsity.sparsity)
            layer_counters[l].merge(r.counters)
            trace.layer = l
            trace.extend(r.accesses)
    means = [float(np.mean(v)) for v in per_layer]
    stderr = [float(np.std(v, ddof=1) / math.sqrt(len(v))) if len(v) > 1 else 0.0
              for v in per_layer]
    report = _conv_report(desc, mode, mem, seed, layer_counters, means, trace)
    report.extras = {
        "averaged_over": count,
        "per_layer_sparsity_mean": means,
        "per_layer_sparsity_stderr": stderr,
        "peak_live_bytes": peak,
        "equivalence_checked": True,
    }
    return report


def _gru_layer_report(idx: int, run: GruSeqRun, desc: NetworkDesc,
                      cost: MemCostReport, mem: MemConfig,
                      mode: str) -> LayerReport:
    spec = desc.gru_layers[idx]
    stats = run.step_stats[idx]
    steps = len(stats)
    i, h = spec.input_size, spec.hidden_size
    macs = sum(s.macs_executed for s in stats)
    dense_macs = steps * 3 * h * (i + h)
    events = sum(s.x_events + s.h_events for s in stats)
    if mode == "sparse":
        executed_op = 2 * macs + steps * (6 * h + i + h)
    else:
        executed_op = 2 * macs + steps * 9 * h
    sparsity = (1.0 - events / (steps * (i + h))) if steps else None
    return _layer_report(idx, "gru", dense_macs, macs, executed_op, sparsity,
                         cost, mem)


def apply_theta(desc: NetworkDesc, theta: float) -> NetworkDesc:
    th = quantize(theta, Q8_8)
    return replace(desc, gru_layers=[replace(s, theta=th) for s in desc.gru_layers])


def execute_gru(desc: NetworkDesc, x_seq: list[QTensor], mode: str,
                mem: MemConfig, seed: int | None = None,
                theta_override: float | None = None
                ) -> tuple[RunReport, GruSeqRun]:
    if theta_override is not None:
        desc = apply_theta(desc, theta_override)
    sparse_run = run_sequence(desc.gru_layers, x_seq, "sparse")
    dense_run = run_sequence(desc.gru_layers, x_seq, "dense")
    all_zero_theta = all(s.theta.raw == 0 for s in desc.gru_layers)
    saturation_free = (sparse_run.counters.saturations == 0
                       and dense_run.counters.saturations == 0)
    checked = all_zero_theta and saturation_free
    if checked and hash_tensors(sparse_run.outputs) != hash_tensors(dense_run.outputs):
        raise EquivalenceFailure(
            "delta and dense GRU outputs diverged at theta 0; this is a bug")
    run = sparse_run if mode == "sparse" else dense_run
    cost = cost_trace(run.trace, mem)
    # A layer with no traffic (a dense run of no steps) has no rows.
    n_layers = len(desc.gru_layers)
    layer_costs = cost.layers + [MemCostReport()] * (n_layers - len(cost.layers))
    report = RunReport(desc.name, mode, "gru", seed, config_dict(mem))
    report.layers = [_gru_layer_report(i, run, desc, layer_costs[i], mem, mode)
                     for i in range(n_layers)]
    _fill_totals(report, run.counters, cost, mem)
    dense_total_words = dense_run.trace.word_count()
    total_words = cost.dram_words + cost.sram_words
    report.extras = {
        "output_hash": hash_tensors(run.outputs),
        "equivalence_checked": checked,
        "theta": [s.theta.value for s in desc.gru_layers],
        "steps": len(x_seq),
        "weight_words_fetched": run.weight_words_fetched,
        "dense_weight_words": run.dense_weight_words,
        "weight_reduction_factor": run.weight_reduction_factor,
        "total_words": total_words,
        "dense_total_words": dense_total_words,
        "total_traffic_reduction_factor": (
            dense_total_words / total_words if total_words else float("inf")),
        "mean_event_rate": _mean_event_rate(run, desc),
    }
    return report, run


def _mean_event_rate(run: GruSeqRun, desc: NetworkDesc) -> float:
    steps = len(run.step_stats[0]) if run.step_stats else 0
    if steps == 0:
        return 0.0
    units = sum(s.input_size + s.hidden_size for s in desc.gru_layers)
    events = sum(s.x_events + s.h_events
                 for layer in run.step_stats for s in layer)
    return events / (steps * units)


def output_values(run: GruSeqRun) -> np.ndarray:
    """Final-layer outputs as a (steps, hidden) float array."""
    if not run.outputs:
        return np.zeros((0, 0))
    scale = float(ACT_FMT.scale)
    return np.stack([t.data.astype(np.float64) / scale for t in run.outputs])


def sweep_theta(desc: NetworkDesc, x_seq: list[QTensor], thetas: list[float],
                mem: MemConfig) -> tuple[list[str], list[dict]]:
    """One sparse run per theta, measured against the theta-0 run.

    Deviations are in activation value units; rms_dev_pct is relative to
    the rms of the theta-0 outputs.
    """
    ref_run = run_sequence(apply_theta(desc, 0.0).gru_layers, x_seq, "sparse")
    ref = output_values(ref_run)
    rms_ref = float(np.sqrt(np.mean(ref ** 2))) if ref.size else 0.0
    rows = []
    for theta in thetas:
        run = run_sequence(apply_theta(desc, theta).gru_layers, x_seq, "sparse")
        vals = output_values(run)
        dev = vals - ref
        rms = float(np.sqrt(np.mean(dev ** 2))) if dev.size else 0.0
        rows.append({
            "theta": theta,
            "max_abs_dev": float(np.max(np.abs(dev))) if dev.size else 0.0,
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
