"""Network description files, memory config files and synth: URIs.

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

Every block, config file and `synth:` URI is read through one `Fields`:
numbers by one strict grammar (`integer`, `number`), a key nothing reads
is an error, and an error names the file or URI, layer, key and value.
"""

import os
import re
from dataclasses import dataclass, field, fields

import numpy as np

from . import synth
from ._binio import read_text
from .conv import ConvLayerSpec
from .errors import MalformedStream, ShapeMismatch, SparseBenchError
from .fxp import Q2_14, Q8_8, QFormat, QTensor, int32_array, load_qt
from .gru import ACT_FMT, GruLayerSpec, quantize_theta
from .memmodel import MemConfig

_INT = re.compile(r"-?[0-9]+")
_FLOAT = re.compile(r"-?(?:(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][-+]?[0-9]+)?|inf|nan)")


def integer(text: str) -> int:
    """An integer written `-?[0-9]+`; anything else raises ValueError."""
    if not _INT.fullmatch(text):
        raise ValueError("not an integer")
    return int(text)


def u64(text: str) -> int:
    """An `integer` in [0, 2**64), as every seed is."""
    value = integer(text)
    if not 0 <= value < 1 << 64:
        raise ValueError("not an integer in [0, 2**64)")
    return value


def count(text: str) -> int:
    """An `integer` of at least 1."""
    value = integer(text)
    if value < 1:
        raise ValueError("not a positive count")
    return value


def number(text: str) -> float:
    """A float written as a decimal with an optional exponent, or `inf` or
    `nan`, each with an optional `-`; anything else raises ValueError. No
    `_`, leading `+`, whitespace or non-ASCII digit is a number."""
    if not _FLOAT.fullmatch(text):
        raise ValueError("not a number")
    return float(text)


def _bool(text: str) -> bool:
    low = text.lower()
    if low in ("true", "yes", "1", "on"):
        return True
    if low in ("false", "no", "0", "off"):
        return False
    raise ValueError("expected a boolean")


def _at(where: str, exc: Exception) -> SparseBenchError:
    """``exc`` with ``where`` in front of its message, as the same
    SparseBenchError type; a ValueError becomes MalformedStream."""
    kind = type(exc) if isinstance(exc, SparseBenchError) else MalformedStream
    return kind(f"{where}: {exc}" if where else str(exc))


class Fields:
    """The `key = value` texts of one source (a block, a file or a URI),
    which errors name as ``where`` ("" when the caller names it). Each
    value is read once by a parser; ``done`` rejects the keys nothing read."""

    def __init__(self, pairs: dict[str, str], where: str):
        self.pairs, self.where, self._read = pairs, where, set()

    def read(self, key: str, parse, default=...):
        """``parse(text)`` of ``key``'s text, or ``default`` when it is
        absent (a required key without one). An error raised by ``parse``
        is raised again naming the source, key and value."""
        self._read.add(key)
        if key not in self.pairs:
            if default is ...:
                raise _at(self.where, MalformedStream(f"missing key {key!r}"))
            return default
        try:
            return parse(self.pairs[key])
        except (SparseBenchError, ValueError) as exc:
            raise self.refuse(key, exc) from None

    def refuse(self, key: str, exc: Exception) -> SparseBenchError:
        """``exc`` naming the source, ``key`` and its value."""
        return _at(self.where, _at(f"{key} = {self.pairs[key]!r}", exc))

    def int(self, key: str, default=...):
        return self.read(key, integer, default)

    def float(self, key: str, default=...):
        return self.read(key, number, default)

    def done(self) -> None:
        for key, text in self.pairs.items():
            if key not in self._read:
                raise _at(self.where, MalformedStream(f"{key} = {text!r}: unknown key"))


@dataclass
class NetworkDesc:
    name: str
    kind: str  # "conv" | "gru"
    conv_layers: list[ConvLayerSpec] = field(default_factory=list)
    gru_layers: list[GruLayerSpec] = field(default_factory=list)
    mem: MemConfig = field(default_factory=MemConfig)
    source: str = ""  # the .net path it was loaded from; "" when built in code


def parse_uri(uri: str, where: str | None = None) -> tuple[str, Fields]:
    """Split `synth:kind,key=val,...` into its kind and a Fields of the
    stripped option texts, named in errors as ``where`` (the URI itself
    unless the caller names it)."""
    where = uri if where is None else where
    parts = [p for p in uri[len("synth:"):].split(",") if p]
    if not uri.startswith("synth:") or not parts:
        raise _at(where, MalformedStream("not a synth:kind,key=value,... URI"))
    pairs: dict[str, str] = {}
    for p in parts[1:]:
        k, eq, v = p.partition("=")
        if not eq or k.strip() in pairs:
            raise _at(where, MalformedStream(f"bad or repeated option {p!r}"))
        pairs[k.strip()] = v.strip()
    return parts[0], Fields(pairs, where)


def _uniform(uri: str, draw):
    """``draw(seed, amp)`` with the seed and amplitude of a `synth:uniform`
    weight or bias URI; an amplitude the generator refuses is named."""
    kind, f = parse_uri(uri, "")
    if kind != "uniform":
        raise MalformedStream(f"unknown weight generator {kind!r}")
    seed, amp = f.read("seed", u64, 0), f.float("amp", 0.1)
    f.done()
    try:
        return draw(seed, amp)
    except MalformedStream as exc:
        raise f.refuse("amp", exc) from None


def _parse_blocks(text: str, path: str) -> tuple[dict, list[tuple[str, dict]]]:
    """Return (top-level pairs, ordered list of (section, pairs)); a
    section other than a layer may appear once."""
    top: dict = {}
    blocks: list[tuple[str, dict]] = []
    cur = top
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip().lower()
            if section not in ("conv", "gru") and any(s == section for s, _ in blocks):
                raise MalformedStream(f"{path}:{ln}: repeated section [{section}]")
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


def _mem_config(f: Fields) -> MemConfig:
    """A MemConfig from a block's texts, defaults elsewhere."""
    kwargs = {m.name: f.read(m.name, integer if type(m.default) is int else number,
                             m.default) for m in fields(MemConfig)}
    f.done()
    try:
        return MemConfig(**kwargs)
    except ValueError as exc:
        raise _at(f.where, exc) from None


def load_mem_config(path: str) -> MemConfig:
    """Standalone config file: bare keys, one [mem] section, or both with
    no key set twice."""
    pairs, blocks = _parse_blocks(read_text(path), path)
    for section, body in blocks:
        if section != "mem":
            raise MalformedStream(f"{path}: unexpected section [{section}]")
        if both := sorted(body.keys() & pairs.keys()):
            raise MalformedStream(f"{path}: {both[0]} is set both at top level and in [mem]")
        pairs.update(body)
    return _mem_config(Fields(pairs, path))


def _load_file(value: str, base_dir: str) -> QTensor:
    """The .qt file a tensor value names, relative to ``base_dir``."""
    if not value:
        raise MalformedStream("empty value, expected a .qt path or a synth: URI")
    return load_qt(os.path.join(base_dir, value))


def _load_tensor(value: str, base_dir: str, fmt: QFormat, dims: tuple[int, ...]) -> QTensor:
    """Load a weight tensor from a .qt path or generate it from a URI."""
    if value.startswith("synth:"):
        return _uniform(value, lambda seed, amp: synth.random_weights(
            dims, synth.make_rng(seed), fmt, amp))
    t = _load_file(value, base_dir)
    if t.dims != dims:
        raise ShapeMismatch(f"dims {t.dims}, expected {dims}")
    if t.fmt != fmt:
        raise ShapeMismatch(f"format {t.fmt}, declared {fmt}")
    return t


def _load_bias(value: str, base_dir: str, n: int, acc_frac: int) -> np.ndarray:
    """Load a bias vector and lift it to accumulator scale, where every
    value must fit int32."""
    if value.startswith("synth:"):
        return _uniform(value, lambda seed, amp: synth.random_bias(
            n, synth.make_rng(seed), acc_frac, amp))
    if value.lower() == "zero":
        return np.zeros(n, dtype=np.int32)
    t = _load_file(value, base_dir)
    if t.dims != (n,):
        raise ShapeMismatch(f"dims {t.dims}, expected ({n},)")
    if t.fmt.frac_bits > acc_frac:
        raise ShapeMismatch(
            f"bias frac_bits {t.fmt.frac_bits} exceeds accumulator scale {acc_frac}")
    return int32_array(t.data.astype(np.int64) << (acc_frac - t.fmt.frac_bits),
                       f"bias at accumulator scale 2**{acc_frac}")


def _conv_layer(f: Fields, base_dir: str) -> ConvLayerSpec:
    in_c, out_c, k = f.int("in_c"), f.int("out_c"), f.int("k")
    act_fmt = f.read("act_fmt", QFormat.parse, Q8_8)
    w_fmt = f.read("w_fmt", QFormat.parse, Q2_14)
    acc_frac = act_fmt.frac_bits + w_fmt.frac_bits
    spec = ConvLayerSpec(
        in_channels=in_c, out_channels=out_c, kernel_h=k, kernel_w=k,
        stride=f.int("stride", 1), pad=f.int("pad", 0),
        weights=f.read("weights", lambda v: _load_tensor(v, base_dir, w_fmt,
                                                         (out_c, in_c, k, k))),
        bias=f.read("bias", lambda v: _load_bias(v, base_dir, out_c, acc_frac)),
        relu=f.read("relu", _bool, True),
        pool=f.read("pool", str, "none"),
        out_fmt=act_fmt,
    )
    f.done()
    return spec


# In GruLayerSpec's field order.
_GRU_MATS = ("wxr", "wxu", "wxc", "whr", "whu", "whc")
_GRU_BIASES = ("br", "bu", "bc")


def _gru_layer(f: Fields, base_dir: str) -> GruLayerSpec:
    i, h = f.int("input"), f.int("hidden")
    w_fmt = f.read("w_fmt", QFormat.parse, Q2_14)
    acc_frac = ACT_FMT.frac_bits + w_fmt.frac_bits
    theta = f.read("theta", lambda v: quantize_theta(number(v)), quantize_theta(0.0))
    dims = dict.fromkeys(_GRU_MATS[:3], (h, i)) | dict.fromkeys(_GRU_MATS[3:], (h, h))

    def generated(seed: int, amp: float) -> dict:
        vals = {m: synth.random_weights(dims[m], synth.make_rng(seed * 16 + j), w_fmt, amp)
                for j, m in enumerate(_GRU_MATS)}
        vals.update({b: synth.random_bias(h, synth.make_rng(seed * 16 + 8 + j), acc_frac, amp)
                     for j, b in enumerate(_GRU_BIASES)})
        return vals

    vals = f.read("files", lambda uri: _uniform(uri, generated), None)
    if vals is None:
        vals = {m: f.read(m, lambda v: _load_tensor(v, base_dir, w_fmt, dims[m]))
                for m in _GRU_MATS}
        vals.update({b: f.read(b, lambda v: _load_bias(v, base_dir, h, acc_frac))
                     for b in _GRU_BIASES})
    f.done()
    return GruLayerSpec(i, h, *(vals[k] for k in _GRU_MATS + _GRU_BIASES), theta)


def load_network(path: str) -> NetworkDesc:
    top, blocks = _parse_blocks(read_text(path), path)
    base_dir = os.path.dirname(os.path.abspath(path))
    f = Fields(top, path)
    name = f.read("name", str, os.path.splitext(os.path.basename(path))[0])
    f.done()

    mem = MemConfig()
    layers: dict[str, list] = {"conv": [], "gru": []}
    build = {"conv": _conv_layer, "gru": _gru_layer}
    for section, pairs in blocks:
        if section == "mem":
            mem = _mem_config(Fields(pairs, f"{path}: [mem]"))
        elif section in build:
            where = f"{path}: {section} layer {len(layers[section])}"
            try:
                layers[section].append(build[section](Fields(pairs, ""), base_dir))
            except (SparseBenchError, ValueError) as exc:
                raise _at(where, exc) from None
        else:
            raise MalformedStream(f"{path}: unknown section [{section}]")
    conv_layers, gru_layers = layers["conv"], layers["gru"]
    if conv_layers and gru_layers:
        raise ShapeMismatch(f"{path}: a network is either all-conv or all-gru")
    if not conv_layers and not gru_layers:
        raise MalformedStream(f"{path}: no layers declared")
    kind = "conv" if conv_layers else "gru"
    widths = ([(s.in_channels, s.out_channels) for s in conv_layers]
              or [(s.input_size, s.hidden_size) for s in gru_layers])
    for (_, out), (into, _) in zip(widths, widths[1:]):
        if into != out:
            raise ShapeMismatch(f"{path}: {kind} chain breaks: {out} -> {into}")
    return NetworkDesc(name, kind, conv_layers, gru_layers, mem, path)
