"""Fixed-point scalar/tensor arithmetic and the .qt container."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench.fxp import (
    Q2_14,
    Q8_8,
    OpCounter,
    QFormat,
    QScalar,
    QTensor,
    dequantize,
    from_qt_bytes,
    load_qt,
    mac_accumulate,
    quantize,
    quantize_array,
    renormalize,
    renormalize_array,
    round_shift_even,
    save_qt,
    sat_add,
    to_qt_bytes,
)

INT16_MIN, INT16_MAX = -(1 << 15), (1 << 15) - 1
INT32_MIN, INT32_MAX = -(1 << 31), (1 << 31) - 1

formats = st.integers(min_value=1, max_value=16).map(lambda i: QFormat(i, 16 - i))
raw16 = st.integers(min_value=INT16_MIN, max_value=INT16_MAX)


# --- QFormat ------------------------------------------------------------------

def test_format_parse_and_str():
    fmt = QFormat.parse("Q8.8")
    assert (fmt.int_bits, fmt.frac_bits) == (8, 8)
    assert str(fmt) == "Q8.8"
    assert QFormat.parse(" q2.14 ") == Q2_14


def test_format_rejects_bad_splits():
    with pytest.raises(ValueError):
        QFormat(8, 7)
    with pytest.raises(ValueError):
        QFormat(0, 16)
    with pytest.raises(ValueError):
        QFormat.parse("8.8")


def test_format_scale():
    assert Q8_8.scale == 256
    assert Q2_14.scale == 16384


# --- quantize / dequantize ----------------------------------------------------

def test_quantize_reference_values():
    assert quantize(1.5, Q8_8).raw == 384
    assert quantize(200.0, Q8_8).raw == 32767  # saturates above 127.996
    assert quantize(-200.0, Q8_8).raw == -32768
    assert quantize(0.0, Q8_8).raw == 0


def test_quantize_ties_to_even():
    # 1.5/256 and 2.5/256 are exact half-steps in Q8.8
    assert quantize(1.5 / 256, Q8_8).raw == 2
    assert quantize(2.5 / 256, Q8_8).raw == 2


def test_quantize_counts_saturations():
    c = OpCounter()
    quantize_array(np.array([0.5, 300.0, -300.0]), Q8_8, c)
    assert c.saturations == 2
    # a finite value whose scaled product leaves float64 saturates too,
    # without an overflow warning
    assert quantize_array(np.array([1e308, -1e308]), Q8_8, c).tolist() == [32767, -32768]
    assert c.saturations == 4


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
def test_quantize_rejects_non_finite(bad):
    # nan used to be cast to 0 and inf saturated, with no error
    with pytest.raises(MalformedStream, match="non-finite"):
        quantize(bad, Q8_8)
    c = OpCounter()
    with pytest.raises(MalformedStream, match="non-finite"):
        quantize_array(np.array([0.5, bad]), Q8_8, c)
    assert c.saturations == 0


@given(formats, st.floats(min_value=-0.99, max_value=0.99))
def test_quantize_roundtrip_error_within_half_step(fmt, frac_of_range):
    v = frac_of_range * (INT16_MAX - 1) / fmt.scale
    q = quantize(v, fmt)
    assert abs(dequantize(q) - v) <= 0.5 / fmt.scale + 1e-12


@given(formats, raw16)
def test_dequantize_quantize_is_identity_on_grid(fmt, raw):
    assert quantize(raw / fmt.scale, fmt).raw == raw


def test_qscalar_range_check():
    with pytest.raises(ValueError):
        QScalar(32768, Q8_8)


# --- accumulator ops ----------------------------------------------------------

def test_mac_reference_value():
    c = OpCounter()
    assert mac_accumulate(0, 256, 256, c) == 65536  # 1.0 * 1.0 in Q8.8
    assert c.macs_executed == 1
    assert c.saturations == 0


def test_mac_saturates_and_flags():
    c = OpCounter()
    assert mac_accumulate(INT32_MAX, 32767, 32767, c) == INT32_MAX
    assert mac_accumulate(INT32_MIN, -32768, 32767, c) == INT32_MIN
    assert c.saturations == 2


@given(st.integers(INT32_MIN, INT32_MAX), raw16, raw16)
def test_mac_matches_clamped_integer_math(acc, a, b):
    want = min(max(acc + a * b, INT32_MIN), INT32_MAX)
    assert mac_accumulate(acc, a, b) == want


def test_sat_add_counts():
    acc = np.zeros(3, dtype=np.int32)
    clips = sat_add(acc, np.array([0, 1 << 40, -(1 << 40)], dtype=np.int64))
    assert list(acc) == [0, INT32_MAX, INT32_MIN]
    assert clips == 2
    # in place through a view, on an int64 accumulator too
    wide = np.zeros((2, 3), dtype=np.int64)
    assert sat_add(wide[:, 1], np.array([INT32_MAX, 1], dtype=np.int64)) == 0
    assert sat_add(wide[:, 1], np.array([1, -2], dtype=np.int64)) == 1
    assert wide.tolist() == [[0, INT32_MAX, 0], [0, -1, 0]]


# --- rounding shift -----------------------------------------------------------

def _round_half_even(v: int, shift: int) -> int:
    q, r = divmod(v, 1 << shift)
    half = 1 << (shift - 1)
    if r > half or (r == half and (q & 1)):
        return q + 1
    return q


def test_round_shift_reference_values():
    assert round_shift_even(np.int64(65536), 8) == 256
    assert round_shift_even(np.int64(32768), 8) == 128
    assert round_shift_even(np.int64(196736), 8) == 768  # 768.5 ties to even
    assert round_shift_even(np.int64(196737), 8) == 769
    assert round_shift_even(np.int64(-384), 8) == -2  # -1.5 ties to even


@given(st.integers(-(1 << 62), 1 << 62), st.integers(1, 30))
def test_round_shift_matches_half_even_reference(v, shift):
    assert int(round_shift_even(np.int64(v), shift)) == _round_half_even(v, shift)


@given(st.integers(-(1 << 40), 1 << 40), st.integers(0, 8))
def test_round_shift_nonpositive_multiplies(v, shift):
    assert int(round_shift_even(np.int64(v), -shift)) == v << shift


# --- renormalize ----------------------------------------------------------------

def test_renormalize_reference_values():
    assert renormalize(65536, Q8_8, Q8_8, Q8_8).raw == 256
    assert renormalize(32768, Q8_8, Q8_8, Q8_8).raw == 128
    assert renormalize(196736, Q8_8, Q8_8, Q8_8).raw == 768


def test_renormalize_saturates_to_16_bits():
    c = OpCounter()
    assert renormalize(INT32_MAX, Q8_8, Q8_8, Q8_8, c).raw == 32767
    assert renormalize(INT32_MIN, Q8_8, Q8_8, Q8_8, c).raw == -32768
    assert c.saturations == 2


def test_renormalize_widening_format():
    # Q8.8 x Q2.14 accumulator is at scale 2**22; out in Q8.8 shifts by 14.
    assert renormalize(1 << 22, Q8_8, Q2_14, Q8_8).raw == 256


@given(raw16, st.integers(1, 14))
def test_renormalize_array_matches_scalar(raw, frac_lost):
    acc = np.array([raw << frac_lost], dtype=np.int64)
    got = renormalize_array(acc, 8 + frac_lost, Q8_8)
    assert int(got[0]) == raw


# --- OpCounter ------------------------------------------------------------------

def test_op_totals_use_two_op_macs():
    c = OpCounter(macs_executed=5, macs_dense_equivalent=20, adds=3, comparisons=2)
    assert c.total_op == 15
    assert c.dense_equivalent_op == 40


def test_counter_merge_sums_fields():
    a = OpCounter(macs_executed=1, adds=2, saturations=1)
    b = OpCounter(macs_executed=4, comparisons=7, macs_dense_equivalent=9)
    a.merge(b)
    assert (a.macs_executed, a.macs_dense_equivalent, a.adds,
            a.comparisons, a.saturations) == (5, 9, 2, 7, 1)


# --- QTensor and .qt serialization ----------------------------------------------

def test_tensor_canonical_order_and_flat():
    data = np.arange(12, dtype=np.int16)
    t = QTensor((2, 2, 3), Q8_8, data)
    assert t.data[1, 0, 1] == 7  # c*H*W + y*W + x
    assert list(t.flat) == list(range(12))
    assert t.size == 12


def test_tensor_shape_validation():
    with pytest.raises(ShapeMismatch):
        QTensor((2, 0), Q8_8, np.zeros(0, dtype=np.int16))
    with pytest.raises(ShapeMismatch):
        QTensor((2, 3), Q8_8, np.zeros(5, dtype=np.int16))
    with pytest.raises(ValueError):
        QTensor((2,), Q8_8, np.zeros(2, dtype=np.int32))


@st.composite
def tensors(draw):
    fmt = draw(formats)
    rank = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, 4)) for _ in range(rank))
    n = int(np.prod(dims))
    vals = draw(st.lists(raw16, min_size=n, max_size=n))
    return QTensor(dims, fmt, np.array(vals, dtype=np.int16))


@given(tensors())
def test_qt_bytes_roundtrip(t):
    back = from_qt_bytes(to_qt_bytes(t))
    assert back == t
    assert back.sha256() == t.sha256()


def test_qt_file_roundtrip(tmp_path):
    t = QTensor.from_float([[1.5, -2.0], [0.25, 100.0]], Q8_8)
    path = str(tmp_path / "t.qt")
    save_qt(t, path)
    assert load_qt(path) == t


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda b: b"XXXX" + b[4:], "magic"),
        (lambda b: b[:4] + b"\x02" + b[5:], "version"),
        (lambda b: b[:5] + b"\x05\x05" + b[7:], "sum to 16"),
        (lambda b: b[:7] + b"\x05" + b[8:], "rank"),
        (lambda b: b[:-1], "truncated"),
        (lambda b: b + b"\x00", "trailing"),
    ],
)
def test_qt_bytes_rejects_malformed(mutate, msg):
    blob = to_qt_bytes(QTensor.zeros((2, 3), Q8_8))
    with pytest.raises(MalformedStream, match=msg):
        from_qt_bytes(mutate(blob))


def test_malformed_error_reports_offset():
    with pytest.raises(MalformedStream, match=r"byte offset 0"):
        from_qt_bytes(b"XXXXrest")
