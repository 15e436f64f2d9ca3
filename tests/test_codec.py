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
from sparsebench.fxp import Q8_8, QTensor

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
def test_encoded_map_does_not_alias_the_tensor(t):
    # the value list is gathered by index, a copy: changing the tensor
    # after encoding leaves the map as encoded
    s = encode_sm(t)
    before = to_smfm_bytes(s)
    t.data[...] = np.where(t.data == 1, 2, 1)  # every pixel changes
    assert not np.shares_memory(s.nzvl, t.data)
    assert to_smfm_bytes(s) == before


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


def _loaded(s):
    return from_smfm_bytes(to_smfm_bytes(s))


# Each read of a map takes the one checked bitmap scan. A .smfm holds
# exactly the bitmap bytes its dims need, so a load meets only the other
# two faults.
READERS = pytest.mark.parametrize("read", [decode_sm, nonzero_arrays],
                                  ids=["decode_sm", "nonzero_arrays"])
LOADERS = pytest.mark.parametrize("read", [decode_sm, nonzero_arrays, _loaded],
                                  ids=["decode_sm", "nonzero_arrays", "from_smfm_bytes"])


@READERS
def test_decode_rejects_bad_bitmap_length(read):
    s = encode_sm(_map([1, 0, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, np.array([1, 0], dtype=np.uint8), s.nzvl)
    with pytest.raises(MalformedStream, match="bytes"):
        read(bad)


@LOADERS
def test_decode_rejects_set_padding_bits(read):
    s = encode_sm(_map([1, 0, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, np.array([0b10001], dtype=np.uint8), s.nzvl)
    with pytest.raises(MalformedStream, match="padding"):
        read(bad)


@LOADERS
def test_decode_rejects_popcount_mismatch(read):
    s = encode_sm(_map([1, 2, 0, 0], (1, 1, 4)))
    bad = type(s)(s.dims, s.fmt, s.sm, s.nzvl[:1])
    with pytest.raises(MalformedStream, match="value list"):
        read(bad)


def test_loading_a_map_checks_it_without_decoding(monkeypatch):
    from sparsebench import codec

    def decoded(s):
        raise AssertionError("from_smfm_bytes decoded the map")

    t = _map([0, 5, 0, 3, 0, 0, 7], (1, 1, 7))  # one padding bit
    data = to_smfm_bytes(encode_sm(t))
    monkeypatch.setattr(codec, "decode_sm", decoded)
    s = from_smfm_bytes(data)
    assert list(s.sm) == [0b1001010] and list(s.nzvl) == [5, 3, 7]


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
    return np.array(vals, dtype=np.int16)


def test_delta_reference_events():
    mem, cur = _vec([128, 128]), _vec([205, 141])
    idx, vals = encode_delta(mem, cur, 64)  # theta = 0.25
    assert list(zip(idx.tolist(), vals.tolist())) == [(0, 77)]
    assert list(mem) == [205, 128]  # untransmitted unit keeps old memory


def test_delta_threshold_is_strict():
    mem, cur = _vec([0, 0]), _vec([64, 65])
    idx, vals = encode_delta(mem, cur, 64)
    assert list(zip(idx.tolist(), vals.tolist())) == [(1, 65)]
    assert list(mem) == [0, 65]


vectors = st.lists(raw16, min_size=1, max_size=32)


def _pair(prev_vals, data):
    """A memory from ``prev_vals`` and a current vector of the same length."""
    cur_vals = data.draw(
        st.lists(raw16, min_size=len(prev_vals), max_size=len(prev_vals))
    )
    return _vec(prev_vals), _vec(cur_vals)


@given(vectors, st.data())
def test_delta_zero_theta_fires_on_every_change(prev_vals, data):
    mem, cur = _pair(prev_vals, data)
    changed = np.flatnonzero(mem != cur).tolist()
    idx, _ = encode_delta(mem, cur, 0)
    assert idx.tolist() == changed
    assert np.array_equal(mem, cur)


@given(vectors, st.data(), st.integers(0, 200), st.integers(0, 200))
def test_delta_event_count_monotone_in_theta(prev_vals, data, t_lo, t_hi):
    mem, cur = _pair(prev_vals, data)
    lo, hi = sorted((t_lo, t_hi))
    i_lo, _ = encode_delta(mem.copy(), cur, lo)
    i_hi, _ = encode_delta(mem.copy(), cur, hi)
    assert i_hi.size <= i_lo.size


@given(vectors, st.data(), st.integers(0, 500))
def test_delta_memory_advances_only_on_events(prev_vals, data, theta):
    mem, cur = _pair(prev_vals, data)
    prev = mem.copy()
    idx, _ = encode_delta(mem, cur, theta)
    fired = set(idx.tolist())
    for i in range(len(prev_vals)):
        if i in fired:
            assert mem[i] == cur[i]
            assert abs(int(cur[i]) - int(prev[i])) > theta
        else:
            assert mem[i] == prev[i]
            assert abs(int(cur[i]) - int(prev[i])) <= theta


@given(vectors, st.data(), st.integers(0, 70000))
def test_delta_events_are_a_valid_stream(prev_vals, data, theta):
    # what delta_mxv_accumulate relies on: indices strictly increasing
    # inside [0, n) (numpy would wrap a negative one, and the ordered
    # fallback runs in index order), and each value the full int32
    # change, never zero
    mem, cur = _pair(prev_vals, data)
    prev = mem.copy()
    idx, vals = encode_delta(mem, cur, theta)
    n = len(prev_vals)
    assert idx.ndim == 1 and idx.shape == vals.shape
    assert np.all(idx[1:] > idx[:-1])
    assert np.all((0 <= idx) & (idx < n))
    assert vals.dtype == np.int32 and np.all(vals != 0)
    assert vals.tolist() == [int(cur[i]) - int(prev[i]) for i in idx.tolist()]


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
