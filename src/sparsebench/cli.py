"""Command line front end.

Subcommands: encode, decode, stats, run, sweep-theta, mem-sim, report,
brain-budget. Exit codes: 0 ok, 2 input or format error, 3 shape error,
4 missing artifact, 5 the sparse and dense engines disagreed where they
must agree (an internal invariant failure, a bug).
"""

import argparse
import json
import math
import sys

from ._binio import atomic_write_text
from .codec import decode_sm, encode_sm, load_smfm, measure_sparsity, save_smfm
from .errors import (EquivalenceFailure, MalformedStream, MissingArtifact,
                     ShapeMismatch, Underdetermined)
from .fxp import load_qt, save_qt
from .memmodel import (MemConfig, brain_budget, cost_trace,
                       random_vs_burst_ratio, schedule_dense_weight_stream,
                       solve_for)
from .netdesc import integer, load_mem_config, load_network, number, u64
from .report import load_report_dict, scatter_csv, scatter_svg
from .runner import (execute_conv, execute_conv_averaged, execute_gru,
                     load_conv_input, load_seq_input, sweep_rows_csv,
                     sweep_theta)
from .trace import trace_from_csv


def _print_stats(stats, fmt: str) -> None:
    if fmt == "csv":
        print("total_pixels,zero_pixels,sparsity")
        print(f"{stats.total_pixels},{stats.zero_pixels},{stats.sparsity:.6g}")
        print("channel,sparsity")
        for i, s in enumerate(stats.per_channel_sparsity):
            print(f"{i},{s:.6g}")
    else:
        print(json.dumps({
            "total_pixels": stats.total_pixels,
            "zero_pixels": stats.zero_pixels,
            "sparsity": stats.sparsity,
            "per_channel_sparsity": stats.per_channel_sparsity,
        }, sort_keys=True, indent=2))


def cmd_encode(args) -> int:
    t = load_qt(args.input)
    if len(t.dims) != 3:
        raise ShapeMismatch(f"encode needs a rank-3 tensor, got dims {t.dims}")
    save_smfm(encode_sm(t), args.output)
    _print_stats(measure_sparsity(t), args.format)
    return 0


def cmd_decode(args) -> int:
    t = decode_sm(load_smfm(args.input))
    save_qt(t, args.output)
    _print_stats(measure_sparsity(t), args.format)
    return 0


def cmd_stats(args) -> int:
    if args.input.endswith(".smfm"):
        t = decode_sm(load_smfm(args.input))
    else:
        t = load_qt(args.input)
    _print_stats(measure_sparsity(t), args.format)
    return 0


def _flag(flag: str, parse, text: str):
    """``parse(text)`` of one entry of a hand-split flag value; a text it
    refuses is an input error naming the flag and the entry."""
    try:
        return parse(text)
    except ValueError as exc:
        raise MalformedStream(f"{flag}: {text!r}: {exc}") from None


def _resolve_mem(args, desc) -> MemConfig:
    if args.config:
        return load_mem_config(args.config)
    return desc.mem


def cmd_run(args) -> int:
    if args.count < 1:
        raise MalformedStream(f"--count must be at least 1, got {args.count}")
    desc = load_network(args.net)
    mem = _resolve_mem(args, desc)
    if desc.kind == "conv":
        if args.theta is not None:
            raise MalformedStream("--theta applies to gru networks only")
        if args.count > 1:
            report = execute_conv_averaged(desc, args.input, args.mode, mem,
                                           args.seed, args.count)
            run = None
        else:
            x = load_conv_input(args.input, args.seed)
            report, run = execute_conv(desc, x, args.mode, mem, args.seed)
    else:
        if args.count > 1:
            raise MalformedStream("--count averaging applies to conv networks only")
        x_seq = load_seq_input(args.input, args.seed)
        report, run = execute_gru(desc, x_seq, args.mode, mem, args.seed,
                                  theta_override=args.theta)
    if args.trace_csv:
        if run is None:
            raise MalformedStream("--trace-csv is unavailable with --count")
        run.trace.write_csv(args.trace_csv)
    if args.report:
        fmt = "csv" if args.report.endswith(".csv") else "json"
        report.write(args.report, fmt)
        summary = {
            "report": args.report,
            "output_hash": report.extras.get("output_hash"),
            "effective_gops": report.foms["effective_gops"],
            "gops_per_watt": report.foms["gops_per_watt"],
        }
        print(json.dumps(summary, sort_keys=True, indent=2))
    elif args.format == "csv":
        sys.stdout.write(report.to_csv())
    else:
        sys.stdout.write(report.to_json())
    return 0


def cmd_sweep_theta(args) -> int:
    desc = load_network(args.net)
    if desc.kind != "gru":
        raise ShapeMismatch("sweep-theta needs a gru network")
    thetas = [_flag("--thetas", number, s.strip()) for s in args.thetas.split(",") if s.strip()]
    if not thetas:
        raise MalformedStream("empty theta list")
    x_seq = load_seq_input(args.input, args.seed)
    header, rows = sweep_theta(desc, x_seq, thetas)
    text = sweep_rows_csv(header, rows)
    if args.out:
        atomic_write_text(args.out, text)
        print(f"wrote {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def _print_cost(rep, fmt: str) -> None:
    fields = ("cycles", "row_activations", "dram_words", "sram_words", "energy_pj")
    if fmt == "csv":
        print(",".join(fields))
        print(",".join(f"{getattr(rep, f):.6g}" if f == "energy_pj"
                       else str(getattr(rep, f)) for f in fields))
    else:
        print(json.dumps({f: getattr(rep, f) for f in fields},
                         sort_keys=True, indent=2))


def cmd_mem_sim(args) -> int:
    cfg = load_mem_config(args.config) if args.config else MemConfig()
    chosen = [x for x in (args.trace, args.ratio, args.stream) if x is not None]
    if len(chosen) != 1:
        raise MalformedStream("choose exactly one of --trace, --ratio, --stream")
    if args.trace is not None:
        with open(args.trace, "r", encoding="utf-8") as fh:
            try:
                trace = trace_from_csv(fh.read())
            except ValueError as exc:
                raise MalformedStream(str(exc)) from exc
        _print_cost(cost_trace(trace, cfg), args.format)
    elif args.ratio is not None:
        if args.ratio < 1:
            raise MalformedStream("--ratio needs a positive word count")
        print(f"{random_vs_burst_ratio(args.ratio, cfg):.6g}")
    else:
        dims = tuple(_flag("--stream", integer, p) for p in args.stream.lower().split("x"))
        trace = schedule_dense_weight_stream(dims, cfg)
        _print_cost(cost_trace(trace, cfg), args.format)
    return 0


def cmd_report(args) -> int:
    points = []
    for path in args.reports:
        try:
            d = load_report_dict(path)
            points.append((d["name"], d["foms"]["watts"],
                           d["foms"]["effective_gops"]))
        except (json.JSONDecodeError, KeyError, TypeError) as exc:
            raise MalformedStream(f"unreadable report {path}: {exc}") from exc
    for name, watts, gops in points:
        if watts <= 0 or gops <= 0:
            raise MalformedStream(
                f"report {name!r} has non-positive watts or gops")
    csv_text = scatter_csv(points)
    if args.out_csv:
        atomic_write_text(args.out_csv, csv_text)
    else:
        sys.stdout.write(csv_text)
    if args.out_svg:
        atomic_write_text(args.out_svg, scatter_svg(points))
    return 0


_BRAIN_UNITS = {
    "rate": "Hz", "fanout": "synapses/neuron", "neurons": "neurons",
    "esyn": "J", "power": "W",
}


def cmd_brain_budget(args) -> int:
    raw = {k: getattr(args, k) for k in _BRAIN_UNITS}
    unknowns = [k for k, v in raw.items() if v == "?"]
    if len(unknowns) != 1:
        raise Underdetermined(
            f"need exactly one '?', got {len(unknowns)}")
    vals = {}
    for k, v in raw.items():
        if v != "?":
            vals[k] = _flag(f"--{k}", number, v)
            if not math.isfinite(vals[k]):
                raise MalformedStream(f"--{k}: non-finite value {v!r}")
    unknown = unknowns[0]
    if unknown == "power":
        solved = brain_budget(vals["rate"], vals["fanout"], vals["neurons"],
                              vals["esyn"])
    else:
        kw = {"rate_hz": vals.get("rate"), "fanout": vals.get("fanout"),
              "neurons": vals.get("neurons"), "energy_per_syn_j": vals.get("esyn")}
        solved = solve_for(vals["power"], **kw)
    if not 0 < solved < math.inf:  # finite inputs whose product left the float range
        raise MalformedStream(f"--{unknown}: {solved:.6g} {_BRAIN_UNITS[unknown]}: "
                              "the computation left the float range")
    print(f"{solved:.6g} {_BRAIN_UNITS[unknown]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="sparsebench",
        description="Fixed-point sparse DNN inference engines with a "
                    "DRAM burst/row cost model")
    p.add_argument("--config", help="memory model config file")
    p.add_argument("--seed", type=u64, default=0, help="seed for all randomness")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    sub = p.add_subparsers(dest="command", required=True)

    s = sub.add_parser("encode", help="compress a .qt feature map to .smfm")
    s.add_argument("input")
    s.add_argument("output")
    s.set_defaults(func=cmd_encode)

    s = sub.add_parser("decode", help="expand a .smfm back to .qt")
    s.add_argument("input")
    s.add_argument("output")
    s.set_defaults(func=cmd_decode)

    s = sub.add_parser("stats", help="print sparsity statistics of a tensor file")
    s.add_argument("input")
    s.set_defaults(func=cmd_stats)

    s = sub.add_parser("run", help="run a network and emit a report")
    s.add_argument("--net", required=True)
    s.add_argument("--input", required=True,
                   help=".qt/.smfm path or synth: generator URI")
    s.add_argument("--mode", choices=("sparse", "dense"), default="sparse")
    s.add_argument("--theta", type=number, default=None,
                   help="override every gru layer's delta threshold")
    s.add_argument("--report", help="write the full report here")
    s.add_argument("--count", type=integer, default=1,
                   help="average over N generated inputs (conv only)")
    s.add_argument("--trace-csv", help="dump the access trace as CSV")
    s.set_defaults(func=cmd_run)

    s = sub.add_parser("sweep-theta", help="trade accuracy against traffic")
    s.add_argument("--net", required=True)
    s.add_argument("--input", required=True)
    s.add_argument("--thetas", required=True, help="comma-separated list")
    s.add_argument("--out", help="write the CSV here instead of stdout")
    s.set_defaults(func=cmd_sweep_theta)

    s = sub.add_parser("mem-sim", help="cost a trace or probe the DRAM model")
    s.add_argument("--trace", help="trace CSV to cost")
    s.add_argument("--ratio", type=integer,
                   help="scattered vs streaming cycle ratio for N words")
    s.add_argument("--stream", help="cost a sequential RxC weight stream")
    s.set_defaults(func=cmd_mem_sim)

    s = sub.add_parser("report", help="scatter chart from run reports")
    s.add_argument("reports", nargs="+")
    s.add_argument("--out-csv")
    s.add_argument("--out-svg")
    s.set_defaults(func=cmd_report)

    s = sub.add_parser("brain-budget",
                       help="event-driven power budget; pass ? for the unknown")
    s.add_argument("--rate", default="1")
    s.add_argument("--fanout", default="1e4")
    s.add_argument("--neurons", default="1e10")
    s.add_argument("--esyn", default="100e-15")
    s.add_argument("--power", default="?")
    s.set_defaults(func=cmd_brain_budget)
    return p


# Exit code by exception type, in match order: the first row the error
# is an instance of wins, so the catch-all ValueError comes last.
EXIT_CODES = (
    (MalformedStream, 2),
    (Underdetermined, 2),
    (ShapeMismatch, 3),
    (MissingArtifact, 4),
    (FileNotFoundError, 4),
    (EquivalenceFailure, 5),
    (ValueError, 2),
)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(t for t, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in EXIT_CODES if isinstance(exc, t))


if __name__ == "__main__":
    sys.exit(main())
