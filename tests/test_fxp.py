"""Fixed-point scalar/tensor arithmetic and the .qt container."""

import struct
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsebench import fxp
from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench.fxp import (
    Q2_14,
    Q8_8,
    OpCounter,
    QFormat,
    QTensor,
    from_qt_bytes,
    load_qt,
    quantize_array,
    renormalize_array,
    round_shift_even,
    save_qt,
    sat_add,
    sat_columns,
    sat_matvec,
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
    # each parsed as Q8.8 (or Q10.6) through int()
    for text in ("Q+8.8", "Q8.+8", "Q1_0.6", "Q\u0668.8", "Q8 .8", "Q8.8.0"):
        with pytest.raises(ValueError, match="bad Q-format"):
            QFormat.parse(text)


def test_format_scale():
    assert Q8_8.scale == 256
    assert Q2_14.scale == 16384


# --- quantize_array ----------------------------------------------------------------

def test_quantize_reference_values():
    assert int(quantize_array(1.5, Q8_8)) == 384
    assert int(quantize_array(200.0, Q8_8)) == 32767  # saturates above 127.996
    assert int(quantize_array(-200.0, Q8_8)) == -32768
    assert int(quantize_array(0.0, Q8_8)) == 0


def test_quantize_ties_to_even():
    # 1.5/256 and 2.5/256 are exact half-steps in Q8.8
    assert int(quantize_array(1.5 / 256, Q8_8)) == 2
    assert int(quantize_array(2.5 / 256, Q8_8)) == 2


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
        quantize_array(bad, Q8_8)
    c = OpCounter()
    with pytest.raises(MalformedStream, match="non-finite"):
        quantize_array(np.array([0.5, bad]), Q8_8, c)
    assert c.saturations == 0


@given(formats, st.floats(min_value=-0.99, max_value=0.99))
def test_quantize_roundtrip_error_within_half_step(fmt, frac_of_range):
    v = frac_of_range * (INT16_MAX - 1) / fmt.scale
    q = int(quantize_array(v, fmt))
    assert abs(q / fmt.scale - v) <= 0.5 / fmt.scale + 1e-12


@given(formats, raw16)
def test_dequantize_quantize_is_identity_on_grid(fmt, raw):
    q = int(quantize_array(raw / fmt.scale, fmt))
    assert q == raw
    assert quantize_array(np.array([q / fmt.scale]), fmt).tolist() == [raw]


# --- accumulator ops ----------------------------------------------------------

# A MAC is one sat_add of a product into a 32-bit accumulator.

def test_mac_reference_value():
    acc = np.zeros(1, dtype=np.int64)
    assert sat_add(acc, 256 * 256) == 0  # 1.0 * 1.0 in Q8.8
    assert acc.tolist() == [65536]


def test_mac_saturates_and_flags():
    acc = np.array([INT32_MAX, INT32_MIN], dtype=np.int64)
    assert sat_add(acc, np.array([32767 * 32767, -32768 * 32767])) == 2
    assert acc.tolist() == [INT32_MAX, INT32_MIN]
    # landing exactly on either edge is not a clip
    acc = np.array([INT32_MAX - 1, INT32_MIN + 1], dtype=np.int64)
    assert sat_add(acc, np.array([1, -1])) == 0
    assert acc.tolist() == [INT32_MAX, INT32_MIN]


@given(st.integers(INT32_MIN, INT32_MAX), raw16, raw16)
def test_mac_matches_clamped_integer_math(acc, a, b):
    want = min(max(acc + a * b, INT32_MIN), INT32_MAX)
    arr = np.array([acc], dtype=np.int32)
    assert sat_add(arr, np.int64(a * b)) == int(want != acc + a * b)
    assert arr.tolist() == [want]


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


def test_sat_columns_refuses_a_term_that_would_wrap_int64():
    # |acc| can reach 2**31 before any step, so a term fits the int64 step
    # up to INT64_MAX - 2**31; the largest such term matches Python ints
    room = (1 << 63) - 1 - (1 << 31)
    for w in (1, 32767, -32768):
        x = room // abs(w)
        acc = np.array([5, -5], dtype=np.int64)
        clips = sat_columns(acc, np.array([[w], [-w]], dtype=np.int64),
                            np.array([x], dtype=np.int64))
        want = [max(INT32_MIN, min(INT32_MAX, a + s * w * x)) for a, s in ((5, 1), (-5, -1))]
        assert acc.tolist() == want and clips == 2
        acc = np.array([5, -5], dtype=np.int64)
        with pytest.raises(ValueError, match="overflows"):
            sat_columns(acc, np.array([[w], [-w]], dtype=np.int64),
                        np.array([x + 1], dtype=np.int64))
        assert acc.tolist() == [5, -5]
    # a wider accumulator leaves less room
    acc = np.array([1 << 40], dtype=np.int64)
    with pytest.raises(ValueError, match="overflows"):
        sat_columns(acc, np.array([[1]]), np.array([(1 << 63) - (1 << 40)], dtype=np.int64))
    assert sat_columns(acc, np.array([[1]]), np.array([(1 << 63) - 1 - (1 << 40)])) == 1
    assert acc[0] == INT32_MAX
    # a full-scale weight against 2**49 + 12345 used to wrap to INT32_MIN
    acc = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="overflows"):
        sat_columns(acc, np.array([[32767]], dtype=np.int16),
                    np.array([(1 << 49) + 12345], dtype=np.int64))
    assert acc[0] == 0
    # on a matrix the guard takes each row's peak, here in its second column
    acc = np.zeros((1, 2), dtype=np.int64)
    with pytest.raises(ValueError, match="overflows"):
        sat_columns(acc, np.array([[1]]), np.array([[1, room + 1]], dtype=np.int64))
    assert acc.tolist() == [[0, 0]]
    assert sat_columns(acc, np.array([[1]]), np.array([[-1, room]], dtype=np.int64)) == 1
    assert acc.tolist() == [[-1, INT32_MAX]]


def _ordered_reference(acc, w, x):
    """acc += w @ x in Python ints as ordered steps: rows j of x ascending,
    each term w[i, j] * x[j, k] added to acc[i, k] and clamped to int32.
    Returns the accumulators and the number of clamps that changed one."""
    out = [[int(a) for a in row] for row in acc]
    clips = 0
    for j in range(len(x)):
        for i, row in enumerate(out):
            for k, a in enumerate(row):
                wide = a + int(w[i][j]) * int(x[j][k])
                row[k] = min(max(wide, INT32_MIN), INT32_MAX)
                clips += row[k] != wide
    return out, clips


@settings(max_examples=250, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from((0, 1, None)), st.booleans(),
       st.sampled_from(("int32", "int64")), st.booleans())
def test_sat_matvec_on_a_matrix_is_the_ordered_clamped_sum(seed, over, aligned, acc_type,
                                                           float_x):
    # random int16 w (out, n) and x (n, cols). `over` puts one output
    # row's exact bound, its largest |acc| plus |w| @ the row peaks of
    # |x|, at INT32_MAX (0) or one past it (1). With `aligned`, one
    # column holds every row peak of x and that row's weights and
    # accumulator share its sign, so one element's sum is the bound
    # itself: exactly INT32_MAX, or clipping once at the last term. The
    # ordered steps run unless the call is proven, which a caller may
    # state only when the bound holds; either way the result is the
    # ordered, clamped sum.
    rng = np.random.default_rng(seed)
    out, n, cols = (int(v) for v in rng.integers(1, (5, 7, 5)))
    w = rng.integers(INT16_MIN, INT16_MAX + 1, size=(out, n))
    x = rng.integers(INT16_MIN, INT16_MAX + 1, size=(n, cols))
    x //= int(rng.choice((1, n, 1 << 8)))  # makes a passing bound reachable
    acc = rng.integers(-(1 << 20), 1 << 20, size=(out, cols))
    r, k = int(rng.integers(out)), int(rng.integers(cols))
    peak = [int(v) for v in np.abs(x).max(axis=1)]
    if aligned:
        w[r] = np.abs(w[r])
        x[:, k] = peak
    terms = [sum(abs(int(a)) * p for a, p in zip(row, peak)) for row in w]
    if over is not None and 0 < terms[r] <= INT32_MAX:
        top = INT32_MAX - terms[r] + over
        acc[r] = rng.integers(-top, top + 1, size=cols)
        acc[r, k] = top if aligned else top * int(rng.choice((-1, 1)))
    exact = [max(abs(int(a)) for a in row) + t for row, t in zip(acc, terms)]
    want, want_clips = _ordered_reference(acc, w, x)
    wf = w.astype(np.float64)
    xs = x.astype(np.float64) if float_x else x
    for proven in {False, max(exact) <= INT32_MAX}:
        got = acc.astype(acc_type)
        with mock.patch.object(fxp, "sat_columns", wraps=fxp.sat_columns) as ordered:
            clips = sat_matvec(got, wf, xs, proven)
        assert ordered.called == (not proven)
        assert got.tolist() == want
        assert clips == want_clips


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
    # Q8.8 x Q8.8 products are at scale 2**16; 768.5 and -1.5 tie to even
    acc = np.array([65536, 32768, 196736, 196737, -384], dtype=np.int64)
    assert renormalize_array(acc, 16, Q8_8).tolist() == [256, 128, 768, 769, -2]


def test_renormalize_saturates_to_16_bits():
    c = OpCounter()
    got = renormalize_array(np.array([INT32_MAX, INT32_MIN, 0]), 16, Q8_8, c)
    assert got.tolist() == [32767, -32768, 0]
    assert got.dtype == np.int16
    assert c.saturations == 2


def test_renormalize_widening_format():
    # Q8.8 x Q2.14 accumulator is at scale 2**22; out in Q8.8 shifts by 14.
    assert renormalize_array(np.array([1 << 22]), 22, Q8_8).tolist() == [256]


@given(st.integers(INT32_MIN, INT32_MAX), st.integers(1, 22))
def test_renormalize_array_matches_scalar(acc, frac_lost):
    # ties to even, then saturation, against the scalar reference
    want = min(max(_round_half_even(acc, frac_lost), INT16_MIN), INT16_MAX)
    c = OpCounter()
    got = renormalize_array(np.array([acc], dtype=np.int64), 8 + frac_lost, Q8_8, c)
    assert got.tolist() == [want]
    assert c.saturations == int(want != _round_half_even(acc, frac_lost))


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
    t = QTensor((2, 2), Q8_8, quantize_array(np.array([[1.5, -2.0], [0.25, 100.0]]), Q8_8))
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


@pytest.mark.parametrize("dims", [(65536,) * 4, (2**32 - 1, 2**32 - 1, 3, 1)])
def test_qt_huge_header_reports_truncated_values(dims):
    # the element count wrapped in int64: 65536**4 became 0 ("trailing
    # data", then a bare reshape error), the other a negative byte offset
    head = b"QTSR" + struct.pack("<BBBB", 1, 8, 8, len(dims))
    blob = head + struct.pack("<4I", *dims) + b"\x00" * 8
    with pytest.raises(MalformedStream, match="truncated stream while reading values") as exc:
        from_qt_bytes(blob)
    assert exc.value.offset == len(head) + 16


def test_malformed_error_reports_offset():
    with pytest.raises(MalformedStream, match=r"byte offset 0"):
        from_qt_bytes(b"XXXXrest")
