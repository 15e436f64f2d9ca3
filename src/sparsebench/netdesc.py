"""Network description files.

A description is a small line-based text format: `key = value` pairs,
grouped under repeatable `[conv]` / `[gru]` blocks plus an optional
`[mem]` block, with `#` comments. Repeated layer blocks are why this is
not configparser INI.

    name = demo
    [mem]
    row_change_factor = 50
    [conv]
    in_c = 1
    out_c = 4
    k = 3
    stride = 1
    pad = 1
    relu = true
    pool = max2x2
    act_fmt = Q8.8
    w_fmt = Q2.14
    weights = layer0_w.qt
    bias = layer0_b.qt

Weight entries are either a ".qt" path (relative to the description
file) or a generator URI like `synth:uniform,amp=0.1,seed=7`, which
makes fully self-contained demo networks possible. A network is either
all-conv or all-gru; mixing is rejected.
"""

import os
from dataclasses import dataclass, field, fields

import numpy as np

from . import synth
from .conv import ConvLayerSpec
from .errors import MalformedStream, MissingArtifact, ShapeMismatch
from .fxp import QFormat, QTensor, load_qt
from .gru import ACT_FMT, GruLayerSpec, quantize_theta
from .memmodel import MemConfig

_MEM_FIELDS = {f.name: type(f.default) for f in fields(MemConfig)}


@dataclass
class NetworkDesc:
    name: str
    kind: str  # "conv" | "gru"
    conv_layers: list[ConvLayerSpec] = field(default_factory=list)
    gru_layers: list[GruLayerSpec] = field(default_factory=list)
    mem: MemConfig = field(default_factory=MemConfig)


def parse_uri(value: str) -> tuple[str, dict]:
    """Split `synth:kind,key=val,...` into its kind and typed options."""
    body = value[len("synth:"):]
    parts = [p for p in body.split(",") if p]
    if not parts:
        raise MalformedStream(f"empty synth URI {value!r}")
    kind, opts = parts[0], {}
    for p in parts[1:]:
        if "=" not in p:
            raise MalformedStream(f"bad synth option {p!r} in {value!r}")
        k, v = p.split("=", 1)
        try:
            opts[k.strip()] = int(v)
        except ValueError:
            try:
                opts[k.strip()] = float(v)
            except ValueError:
                opts[k.strip()] = v.strip()
    return kind, opts


def int_option(opts: dict, key: str, default: int, uri: str) -> int:
    """An integer option of a parsed synth URI, or ``default`` when it is
    absent; any other value (``2.5``, ``1e1``, text) raises
    ``MalformedStream`` instead of being truncated."""
    value = opts.get(key, default)
    if type(value) is not int:
        raise MalformedStream(f"synth option {key}={value!r} in {uri!r} must be an integer")
    return value


def float_option(opts: dict, key: str, default: float, uri: str) -> float:
    """A numeric option of a parsed synth URI as a float, or ``default``
    when it is absent; text raises ``MalformedStream``."""
    value = opts.get(key, default)
    if type(value) not in (int, float):
        raise MalformedStream(f"synth option {key}={value!r} in {uri!r} must be a number")
    return float(value)


def _number(pairs: dict, key: str, kind: type, default, where: str):
    """``pairs[key]``, or ``default`` when it is absent, as ``kind`` (int
    or float); text that is not one raises ``MalformedStream`` naming
    ``where``, the key and the value."""
    value = pairs.get(key, default)
    try:
        return kind(value)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise MalformedStream(f"{where}: {key} = {value!r} is not {noun}") from None


def _parse_blocks(text: str, path: str) -> tuple[dict, list[tuple[str, dict]]]:
    """Return (top-level pairs, ordered list of (section, pairs))."""
    top: dict = {}
    blocks: list[tuple[str, dict]] = []
    cur = top
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            cur = {}
            blocks.append((section, cur))
            continue
        if "=" not in line:
            raise MalformedStream(f"{path}:{ln}: expected key = value, got {raw.strip()!r}")
        k, v = line.split("=", 1)
        key = k.strip().lower()
        if key in cur:
            raise MalformedStream(f"{path}:{ln}: duplicate key {key!r}")
        cur[key] = v.strip()
    return top, blocks


def _bool(v: str, what: str) -> bool:
    low = v.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise MalformedStream(f"{what}: expected a boolean, got {v!r}")


def parse_mem_config(pairs: dict, where: str = "[mem]") -> MemConfig:
    """A MemConfig from ``key = value`` text pairs, defaults elsewhere; a
    key, value or config that is not valid raises ``MalformedStream``
    naming ``where``."""
    for k in pairs:
        if k not in _MEM_FIELDS:
            raise MalformedStream(f"{where}: unknown mem config key {k!r}")
    kwargs = {k: _number(pairs, k, _MEM_FIELDS[k], None, where) for k in pairs}
    try:
        return MemConfig(**kwargs)
    except ValueError as exc:
        raise MalformedStream(f"{where}: {exc}") from None


def load_mem_config(path: str) -> MemConfig:
    """Standalone config file: bare keys or a [mem] section."""
    if not os.path.exists(path):
        raise MissingArtifact(f"config file not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        top, blocks = _parse_blocks(fh.read(), path)
    pairs = dict(top)
    for section, body in blocks:
        if section != "mem":
            raise MalformedStream(f"{path}: unexpected section [{section}]")
        pairs.update(body)
    return parse_mem_config(pairs, path)


def _load_tensor(value: str, base_dir: str, fmt: QFormat,
                 dims: tuple[int, ...], what: str) -> QTensor:
    """Load a weight tensor from a .qt path or generate it from a URI."""
    if value.startswith("synth:"):
        kind, opts = parse_uri(value)
        if kind != "uniform":
            raise MalformedStream(f"{what}: unknown weight generator {kind!r}")
        rng = synth.make_rng(int_option(opts, "seed", 0, value))
        return synth.random_weights(dims, rng, fmt, float_option(opts, "amp", 0.1, value))
    path = os.path.join(base_dir, value)
    if not os.path.exists(path):
        raise MissingArtifact(f"{what}: file not found: {path}")
    t = load_qt(path)
    if t.dims != dims:
        raise ShapeMismatch(f"{what}: dims {t.dims}, expected {dims}")
    if t.fmt != fmt:
        raise ShapeMismatch(f"{what}: format {t.fmt}, declared {fmt}")
    return t


def _load_bias(value: str, base_dir: str, n: int, acc_frac: int, what: str) -> np.ndarray:
    """Load a bias vector and lift it to accumulator scale."""
    if value.startswith("synth:"):
        kind, opts = parse_uri(value)
        if kind != "uniform":
            raise MalformedStream(f"{what}: unknown bias generator {kind!r}")
        rng = synth.make_rng(int_option(opts, "seed", 0, value))
        return synth.random_bias(n, rng, acc_frac, float_option(opts, "amp", 0.1, value))
    if value.lower() == "zero":
        return np.zeros(n, dtype=np.int32)
    path = os.path.join(base_dir, value)
    if not os.path.exists(path):
        raise MissingArtifact(f"{what}: file not found: {path}")
    t = load_qt(path)
    if t.dims != (n,):
        raise ShapeMismatch(f"{what}: dims {t.dims}, expected ({n},)")
    if t.fmt.frac_bits > acc_frac:
        raise ShapeMismatch(
            f"{what}: bias frac_bits {t.fmt.frac_bits} exceeds accumulator scale {acc_frac}")
    return t.data.astype(np.int32) << (acc_frac - t.fmt.frac_bits)


def _require(pairs: dict, keys: tuple[str, ...], section: str, path: str) -> None:
    missing = [k for k in keys if k not in pairs]
    if missing:
        raise MalformedStream(f"{path}: [{section}] missing keys {missing}")


def _conv_layer(pairs: dict, base_dir: str, path: str, idx: int) -> ConvLayerSpec:
    _require(pairs, ("in_c", "out_c", "k", "weights", "bias"), "conv", path)
    what = f"conv layer {idx}"
    in_c, out_c, kh = (_number(pairs, k, int, None, f"{path}: {what}")
                       for k in ("in_c", "out_c", "k"))
    kw = kh
    act_fmt = QFormat.parse(pairs.get("act_fmt", "Q8.8"))
    w_fmt = QFormat.parse(pairs.get("w_fmt", "Q2.14"))
    acc_frac = act_fmt.frac_bits + w_fmt.frac_bits
    weights = _load_tensor(pairs["weights"], base_dir, w_fmt,
                           (out_c, in_c, kh, kw), what + " weights")
    bias = _load_bias(pairs["bias"], base_dir, out_c, acc_frac, what + " bias")
    return ConvLayerSpec(
        in_channels=in_c, out_channels=out_c, kernel_h=kh, kernel_w=kw,
        stride=_number(pairs, "stride", int, 1, f"{path}: {what}"),
        pad=_number(pairs, "pad", int, 0, f"{path}: {what}"),
        weights=weights, bias=bias,
        relu=_bool(pairs.get("relu", "true"), what + " relu"),
        pool=pairs.get("pool", "none"),
        out_fmt=act_fmt,
    )


_GRU_MATS = ("wxr", "wxu", "wxc", "whr", "whu", "whc")
_GRU_BIASES = ("br", "bu", "bc")


def _gru_layer(pairs: dict, base_dir: str, path: str, idx: int) -> GruLayerSpec:
    _require(pairs, ("input", "hidden"), "gru", path)
    what = f"gru layer {idx}"
    i, h = (_number(pairs, k, int, None, f"{path}: {what}") for k in ("input", "hidden"))
    w_fmt = QFormat.parse(pairs.get("w_fmt", "Q2.14"))
    acc_frac = ACT_FMT.frac_bits + w_fmt.frac_bits
    theta = quantize_theta(_number(pairs, "theta", float, 0.0, f"{path}: {what}"))
    dims = {"wxr": (h, i), "wxu": (h, i), "wxc": (h, i),
            "whr": (h, h), "whu": (h, h), "whc": (h, h)}
    vals = {}
    if "files" in pairs:
        base_val = pairs["files"]
        if base_val.startswith("synth:"):
            kind, opts = parse_uri(base_val)
            if kind != "uniform":
                raise MalformedStream(f"{what}: unknown generator {kind!r}")
            seed = int_option(opts, "seed", 0, base_val)
            amp = float_option(opts, "amp", 0.1, base_val)
            for j, m in enumerate(_GRU_MATS):
                vals[m] = synth.random_weights(
                    dims[m], synth.make_rng(seed * 16 + j), w_fmt, amp)
            for j, b in enumerate(_GRU_BIASES):
                vals[b] = synth.random_bias(
                    h, synth.make_rng(seed * 16 + 8 + j), acc_frac, amp)
        else:
            for m in _GRU_MATS:
                vals[m] = _load_tensor(base_val + m + ".qt", base_dir, w_fmt,
                                       dims[m], f"{what} {m}")
            for b in _GRU_BIASES:
                vals[b] = _load_bias(base_val + b + ".qt", base_dir, h,
                                     acc_frac, f"{what} {b}")
    else:
        _require(pairs, _GRU_MATS + _GRU_BIASES, "gru", path)
        for m in _GRU_MATS:
            vals[m] = _load_tensor(pairs[m], base_dir, w_fmt, dims[m], f"{what} {m}")
        for b in _GRU_BIASES:
            vals[b] = _load_bias(pairs[b], base_dir, h, acc_frac, f"{what} {b}")
    return GruLayerSpec(
        input_size=i, hidden_size=h,
        w_xr=vals["wxr"], w_xu=vals["wxu"], w_xc=vals["wxc"],
        w_hr=vals["whr"], w_hu=vals["whu"], w_hc=vals["whc"],
        b_r=vals["br"], b_u=vals["bu"], b_c=vals["bc"],
        theta=theta,
    )


def load_network(path: str) -> NetworkDesc:
    if not os.path.exists(path):
        raise MissingArtifact(f"network description not found: {path}")
    with open(path, "r", encoding="utf-8") as fh:
        top, blocks = _parse_blocks(fh.read(), path)
    base_dir = os.path.dirname(os.path.abspath(path))
    name = top.get("name", os.path.splitext(os.path.basename(path))[0])

    mem = MemConfig()
    conv_layers: list[ConvLayerSpec] = []
    gru_layers: list[GruLayerSpec] = []
    for section, pairs in blocks:
        if section == "mem":
            mem = parse_mem_config(pairs, f"{path}: [mem]")
        elif section == "conv":
            conv_layers.append(_conv_layer(pairs, base_dir, path, len(conv_layers)))
        elif section == "gru":
            gru_layers.append(_gru_layer(pairs, base_dir, path, len(gru_layers)))
        else:
            raise MalformedStream(f"{path}: unknown section [{section}]")

    if conv_layers and gru_layers:
        raise ShapeMismatch(f"{path}: a network is either all-conv or all-gru")
    if not conv_layers and not gru_layers:
        raise MalformedStream(f"{path}: no layers declared")

    if conv_layers:
        for a, b in zip(conv_layers, conv_layers[1:]):
            if b.in_channels != a.out_channels:
                raise ShapeMismatch(
                    f"{path}: conv chain breaks: {a.out_channels} -> {b.in_channels}")
        kind = "conv"
    else:
        for a, b in zip(gru_layers, gru_layers[1:]):
            if b.input_size != a.hidden_size:
                raise ShapeMismatch(
                    f"{path}: gru chain breaks: {a.hidden_size} -> {b.input_size}")
        kind = "gru"
    return NetworkDesc(name, kind, conv_layers, gru_layers, mem)
