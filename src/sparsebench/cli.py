"""Command line front end.

Subcommands: encode, decode, stats, run, sweep-theta, mem-sim, report,
brain-budget. Exit codes: 0 ok, 2 input or format error, 3 shape error,
4 a file that is missing or cannot be read or written, 5 the sparse and
dense engines disagreed where they must agree (an internal invariant
failure, a bug), 141 stdout closed before the output was written.

The example scripts share this boundary: `guarded` maps an error to its
exit code, `numbers` parses a comma-separated flag, `sweep_thetas` runs a
theta sweep and `emit` writes an output file or stdout.
"""

import argparse
import json
import math
import os
import sys

from ._binio import atomic_write, read_text
from .codec import decode_sm, encode_sm, load_smfm, measure_sparsity, save_smfm
from .errors import (EquivalenceFailure, MalformedStream, MissingArtifact,
                     ShapeMismatch, Underdetermined)
from .fxp import INT64_MAX, load_qt, save_qt
from .gru import quantize_theta
from .memmodel import (MemConfig, cost_trace, random_vs_burst_ratio,
                       schedule_dense_weight_stream, solve_budget)
from .netdesc import count, integer, load_mem_config, load_network, number, u64
from .report import scatter_axes, scatter_csv, scatter_svg
from .runner import (check_width, execute_conv, execute_conv_averaged, execute_gru,
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


def _flag(flag: str, parse, text: str, check=None):
    """``parse(text)`` of one entry of a hand-split flag value, also passed
    to ``check`` when one is given; an entry either refuses (ValueError or
    MalformedStream) is an input error naming the flag and the entry."""
    try:
        value = parse(text)
        if check is not None:
            check(value)
        return value
    except (ValueError, MalformedStream) as exc:
        raise MalformedStream(f"{flag}: {text!r}: {exc}") from None


def cmd_run(args) -> int:
    if args.count < 1:
        raise MalformedStream(f"--count must be at least 1, got {args.count}")
    desc = load_network(args.net)
    mem = load_mem_config(args.config) if args.config else desc.mem
    if desc.kind == "conv":
        if args.theta is not None:
            raise MalformedStream("--theta applies to gru networks only")
        if args.count > 1:
            report = execute_conv_averaged(desc, args.input, args.mode, mem,
                                           args.seed, args.count)
            run = None
        else:
            x = load_conv_input(args.input, args.seed)
            check_width(desc, x.dims[0], args.input)
            report, run = execute_conv(desc, x, args.mode, mem, args.seed)
    else:
        if args.count > 1:
            raise MalformedStream("--count averaging applies to conv networks only")
        if args.theta is not None:
            _flag("--theta", quantize_theta, args.theta)
        x_seq = load_seq_input(args.input, args.seed)
        check_width(desc, x_seq.dims[1], args.input)
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


def numbers(flag: str, text: str, check=None) -> list[float]:
    """The `netdesc.number`s of a comma-separated flag value; an entry that
    `number` or ``check`` (when given) refuses, or no entry at all, is an
    input error naming the flag."""
    values = [_flag(flag, number, s.strip(), check) for s in text.split(",") if s.strip()]
    if not values:
        raise MalformedStream(f"{flag}: empty list")
    return values


def emit(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out`` and say so, or to stdout when no
    file is given."""
    if out:
        atomic_write(out, text.encode())
        print(f"wrote {out}")
    else:
        sys.stdout.write(text)


def sweep_thetas(desc, args) -> int:
    """Sweep the gru network ``desc`` over ``args.thetas`` on the sequence
    ``args.input`` (seeded by ``args.seed``); emit the CSV to ``args.out``."""
    if desc.kind != "gru":
        raise ShapeMismatch("a theta sweep needs a gru network")
    thetas = numbers("--thetas", args.thetas, quantize_theta)
    x_seq = load_seq_input(args.input, args.seed)
    check_width(desc, x_seq.dims[1], args.input)
    emit(sweep_rows_csv(*sweep_theta(desc, x_seq, thetas)), args.out)
    return 0


def cmd_sweep_theta(args) -> int:
    return sweep_thetas(load_network(args.net), args)


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
        _print_cost(cost_trace(trace_from_csv(read_text(args.trace)), cfg), args.format)
    elif args.ratio is not None:
        if args.ratio < 1:
            raise MalformedStream("--ratio needs a positive word count")
        print(f"{random_vs_burst_ratio(args.ratio, cfg):.6g}")
    else:
        dims = tuple(_flag("--stream", count, p) for p in args.stream.lower().split("x"))
        words = math.prod(dims)
        if words > INT64_MAX:
            raise MalformedStream(f"--stream: {args.stream!r}: {words} words is past int64")
        trace = schedule_dense_weight_stream(dims)
        _print_cost(cost_trace(trace, cfg), args.format)
    return 0


def _scatter_point(path: str) -> tuple[str, float, float]:
    """(name, watts, GOp/s) of one run report: a string name and two
    finite numbers above 0, or an input error naming the file."""
    try:
        d = json.loads(read_text(path))
        point = (d["name"], d["foms"]["watts"], d["foms"]["effective_gops"])
    except (ValueError, KeyError, TypeError, RecursionError) as exc:  # nested too deep
        raise MalformedStream(f"unreadable report {path}: {exc}") from exc
    if not isinstance(point[0], str):
        raise MalformedStream(f"report {path}: name {point[0]!r} is not a string")
    try:
        point[0].encode()
    except UnicodeEncodeError:  # a lone surrogate, from a JSON escape
        raise MalformedStream(f"report {path}: name {point[0]!r} is not "
                              "UTF-8 encodable text") from None
    for key, v in zip(("watts", "effective_gops"), point[1:]):
        if isinstance(v, bool) or not isinstance(v, (int, float)) or not 0 < v < math.inf:
            raise MalformedStream(f"report {path}: {key} {v!r} is not a finite number above 0")
    return point


def cmd_report(args) -> int:
    points = [_scatter_point(path) for path in args.reports]
    try:
        scatter_axes(points)  # refused before anything is written
    except ValueError as exc:
        raise MalformedStream(f"report {', '.join(args.reports)}: {exc}") from None
    csv_text = scatter_csv(points)
    if args.out_csv:
        atomic_write(args.out_csv, csv_text.encode())
    else:
        sys.stdout.write(csv_text)
    if args.out_svg:
        atomic_write(args.out_svg, scatter_svg(points).encode())
    return 0


# brain-budget flag: (unit, `solve_budget` keyword).
_BRAIN_FLAGS = {
    "rate": ("Hz", "rate_hz"), "fanout": ("synapses/neuron", "fanout"),
    "neurons": ("neurons", "neurons"), "esyn": ("J", "energy_per_syn_j"),
    "power": ("W", "power_w"),
}


def cmd_budget(args) -> int:
    unknowns = [k for k in _BRAIN_FLAGS if getattr(args, k) == "?"]
    if len(unknowns) != 1:
        raise Underdetermined(f"need exactly one '?', got {len(unknowns)}")
    known = {}
    for k, (_, keyword) in _BRAIN_FLAGS.items():
        v = getattr(args, k)
        if v != "?":
            known[keyword] = _flag(f"--{k}", number, v)
            if not math.isfinite(known[keyword]):
                raise MalformedStream(f"--{k}: non-finite value {v!r}")
    solved = solve_budget(**known)
    unit = _BRAIN_FLAGS[unknowns[0]][0]
    if not 0 < solved < math.inf:  # finite inputs whose product left the float range
        raise MalformedStream(f"--{unknowns[0]}: {solved:.6g} {unit}: "
                              "the computation left the float range")
    print(f"{solved:.6g} {unit}")
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
    s.set_defaults(func=cmd_budget)
    return p


# Exit code by exception type, in match order: the first row the error
# is an instance of wins, so the catch-all ValueError comes last.
EXIT_CODES = (
    (MalformedStream, 2),
    (Underdetermined, 2),
    (ShapeMismatch, 3),
    (MissingArtifact, 4),
    (EquivalenceFailure, 5),
    (MemoryError, 2),  # a net or input whose arrays cannot be allocated
    (ValueError, 2),
)


# The exit code of a command whose stdout was closed before its output
# was written (a reader such as `head` that stops early): 128 + SIGPIPE,
# what a shell reports for a process that signal ended.
EXIT_CLOSED_STDOUT = 141


def guarded(fn, *args) -> int:
    """``fn(*args)``, with an error it raises printed as one ``error:`` line
    and returned as its exit code.

    Its output is flushed here, so that a closed stdout is seen here too:
    then nothing is printed and the code is ``EXIT_CLOSED_STDOUT``. As
    the ``signal`` module's notes on SIGPIPE advise, stdout is pointed at
    the null device, so the flush at interpreter exit cannot fail again.
    """
    try:
        code = fn(*args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_STDOUT
    except tuple(t for t, _ in EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for t, code in EXIT_CODES if isinstance(exc, t))


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return guarded(args.func, args)


if __name__ == "__main__":
    sys.exit(main())
