"""Bitmap + value-list feature-map codec and delta-event encoding."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from sparsebench.codec import (
    decode_sm,
    encode_delta,
    encode_sm,
    from_smfm_bytes,
    load_smfm,
    measure_sparsity,
    nonzero_arrays,
    save_smfm,
    to_smfm_bytes,
)
from sparsebench.errors import MalformedStream, ShapeMismatch
from sparsebench.fxp import Q8_8, QScalar, QTensor

raw16 = st.integers(min_value=-32768, max_value=32767)


def _map(values, dims):
    return QTensor(dims, Q8_8, np.array(values, dtype=np.int16).reshape(dims))


@st.composite
def feature_maps(draw):
    c = draw(st.integers(1, 3))
    h = draw(st.integers(1, 6))
    w = draw(st.integers(1, 6))
    vals = draw(
        st.lists(
            st.one_of(st.just(0), raw16), min_size=c * h * w, max_size=c * h * w
        )
    )
    return _map(vals, (c, h, w))


# --- sparsity map packing -------------------------------------------------------

def test_bitmap_reference_bytes():
    s = encode_sm(_map([0, 5, 0, 3], (1, 1, 4)))
    assert list(s.sm) == [0b1010]  # LSB first: pixel 1 and pixel 3 set
    assert list(s.nzvl) == [5, 3]
    assert s.nnz == 2
    assert s.payload_bits == 4 + 2 * 16 == 36


def test_payload_for_100_pixel_map():
    vals = [0] * 100
    for i in range(20):
        vals[i * 5] = i + 1
    s = encode_sm(_map(vals, (1, 10, 10)))
    assert s.payload_bits == 100 + 20 * 16 == 420
    assert s.compression_ratio == pytest.approx(1600 / 420)
    assert s.compression_ratio == pytest.approx(3.8095, abs=1e-4)


def test_payload_words_round_up():
    s = encode_sm(_map([1, 2, 3], (1, 1, 3)))
    assert s.payload_bits == 3 + 48
    assert s.payload_words == 4  # 51 bits -> 4 16-bit words


def test_encode_rejects_non_3d():
    with pytest.raises(ShapeMismatch):
        encode_sm(QTensor.zeros((4,), Q8_8))


@given(feature_maps())
def test_roundtrip_lossless(t):
    assert decode_sm(encode_sm(t)) == t


@given(feature_maps())
def test_payload_formula(t):
    s = encode_sm(t)
    n = t.size
    nnz = int(np.count_nonzero(t.flat))
    assert s.payload_bits == n + 16 * nnz
    assert s.payload_words == (s.payload_bits + 15) // 16
    assert s.dense_bits == 16 * n


def _nonzero_list(s):
    return list(zip(*(a.tolist() for a in nonzero_arrays(s))))


def test_nonzero_arrays_reference():
    s = encode_sm(_map([0, 5, 0, 3], (1, 1, 4)))
    assert _nonzero_list(s) == [(0, 0, 1, 5), (0, 0, 3, 3)]


@given(feature_maps())
def test_nonzero_arrays_canonical_order_and_values(t):
    s = encode_sm(t)
    got = _nonzero_list(s)
    c, h, w = t.dims
    flat_positions = [ci * h * w + yi * w + xi for ci, yi, xi, _ in got]
    assert flat_positions == sorted(flat_positions)
    assert len(set(flat_positions)) == len(flat_positions)
    dense = t.flat
    assert all(dense[p] == v for p, (_, _, _, v) in zip(flat_positions, got))
    assert len(got) == s.nnz


def test_decode_rejects_bad_bitmap_length():
    s = encode_sm(_map([1, 0, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, np.array([1, 0], dtype=np.uint8), s.nzvl)
    with pytest.raises(MalformedStream, match="bytes"):
        decode_sm(bad)


def test_decode_rejects_set_padding_bits():
    s = encode_sm(_map([1, 0, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, np.array([0b10001], dtype=np.uint8), s.nzvl)
    with pytest.raises(MalformedStream, match="padding"):
        decode_sm(bad)


def test_decode_rejects_popcount_mismatch():
    s = encode_sm(_map([1, 2, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, s.sm, s.nzvl[:1])
    with pytest.raises(MalformedStream, match="value list"):
        decode_sm(bad)


# --- sparsity measurement -------------------------------------------------------

def test_measure_sparsity_per_channel():
    t = _map([0, 0, 0, 5, 1, 2, 3, 4], (2, 2, 2))
    st_ = measure_sparsity(t)
    assert st_.total_pixels == 8
    assert st_.zero_pixels == 3
    assert st_.sparsity == pytest.approx(0.375)
    assert st_.per_channel_sparsity == [0.75, 0.0]


# --- delta events ----------------------------------------------------------------

def _vec(vals):
    return QTensor((len(vals),), Q8_8, np.array(vals, dtype=np.int16))


def test_delta_reference_events():
    prev, cur = _vec([128, 128]), _vec([205, 141])
    stream, mem = encode_delta(prev, cur, QScalar(64, Q8_8))  # theta = 0.25
    assert stream.events() == [(0, 77)]
    assert list(mem.data) == [205, 128]  # untransmitted unit keeps old memory


def test_delta_threshold_is_strict():
    prev, cur = _vec([0, 0]), _vec([64, 65])
    stream, mem = encode_delta(prev, cur, QScalar(64, Q8_8))
    assert stream.events() == [(1, 65)]
    assert list(mem.data) == [0, 65]


def test_delta_rejects_negative_theta_and_bad_shapes():
    with pytest.raises(ValueError):
        encode_delta(_vec([0]), _vec([0]), QScalar(-1, Q8_8))
    with pytest.raises(ShapeMismatch):
        encode_delta(_vec([0, 0]), _vec([0]), QScalar(0, Q8_8))


vectors = st.lists(raw16, min_size=1, max_size=32)


@given(vectors, st.data())
def test_delta_zero_theta_fires_on_every_change(prev_vals, data):
    cur_vals = data.draw(
        st.lists(raw16, min_size=len(prev_vals), max_size=len(prev_vals))
    )
    prev, cur = _vec(prev_vals), _vec(cur_vals)
    stream, mem = encode_delta(prev, cur, QScalar(0, Q8_8))
    changed = [i for i, (a, b) in enumerate(zip(prev_vals, cur_vals)) if a != b]
    assert stream.indices.tolist() == changed
    assert mem == cur or mem.data.tolist() == cur_vals


@given(vectors, st.data(), st.integers(0, 200), st.integers(0, 200))
def test_delta_event_count_monotone_in_theta(prev_vals, data, t_lo, t_hi):
    cur_vals = data.draw(
        st.lists(raw16, min_size=len(prev_vals), max_size=len(prev_vals))
    )
    lo, hi = sorted((t_lo, t_hi))
    prev, cur = _vec(prev_vals), _vec(cur_vals)
    s_lo, _ = encode_delta(prev, cur, QScalar(lo, Q8_8))
    s_hi, _ = encode_delta(prev, cur, QScalar(hi, Q8_8))
    assert s_hi.event_count <= s_lo.event_count


@given(vectors, st.data(), st.integers(0, 500))
def test_delta_memory_advances_only_on_events(prev_vals, data, theta):
    cur_vals = data.draw(
        st.lists(raw16, min_size=len(prev_vals), max_size=len(prev_vals))
    )
    prev, cur = _vec(prev_vals), _vec(cur_vals)
    stream, mem = encode_delta(prev, cur, QScalar(theta, Q8_8))
    fired = set(stream.indices.tolist())
    for i in range(len(prev_vals)):
        if i in fired:
            assert mem.data[i] == cur.data[i]
            assert abs(int(cur.data[i]) - int(prev.data[i])) > theta
        else:
            assert mem.data[i] == prev.data[i]
            assert abs(int(cur.data[i]) - int(prev.data[i])) <= theta


# --- .smfm container -------------------------------------------------------------

@given(feature_maps())
def test_smfm_bytes_roundtrip(t):
    s = encode_sm(t)
    back = from_smfm_bytes(to_smfm_bytes(s))
    assert back.dims == s.dims and back.fmt == s.fmt
    assert decode_sm(back) == t


def test_smfm_file_roundtrip(tmp_path):
    t = _map([0, 5, 0, 3, 1, 0], (1, 2, 3))
    path = str(tmp_path / "m.smfm")
    save_smfm(encode_sm(t), path)
    assert decode_sm(load_smfm(path)) == t


@pytest.mark.parametrize(
    "mutate, msg",
    [
        (lambda b: b"YYYY" + b[4:], "magic"),
        (lambda b: b[:4] + b"\x09" + b[5:], "version"),
        (lambda b: b[:-1], "truncated"),
        (lambda b: b + b"\x00", "trailing"),
    ],
)
def test_smfm_rejects_malformed(mutate, msg):
    blob = to_smfm_bytes(encode_sm(_map([0, 5, 0, 3], (1, 1, 4))))
    with pytest.raises(MalformedStream, match=msg):
        from_smfm_bytes(mutate(blob))


def test_smfm_rejects_zero_in_value_list():
    blob = bytearray(to_smfm_bytes(encode_sm(_map([0, 5, 0, 3], (1, 1, 4)))))
    blob[-2:] = b"\x00\x00"  # overwrite last NZVL entry with 0
    with pytest.raises(MalformedStream, match="zero"):
        from_smfm_bytes(bytes(blob))


def test_smfm_rejects_zero_dimension():
    blob = bytearray(to_smfm_bytes(encode_sm(_map([1], (1, 1, 1)))))
    blob[11:15] = (0).to_bytes(4, "little")  # H = 0 (u32 after magic/fmt/C)
    with pytest.raises(MalformedStream, match="dimension"):
        from_smfm_bytes(bytes(blob))
