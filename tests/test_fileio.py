"""CPT1 tensor file and parameter text file round-trips."""

import struct

import numpy as np
import pytest
from numpy.testing import assert_allclose

from cpchan.fileio import load_params, load_tensor, save_params, save_tensor
from cpchan.simchannel import ChannelGenConfig, draw_channel


def test_tensor_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    t = rng.standard_normal((3, 4, 5)) + 1j * rng.standard_normal((3, 4, 5))
    path = tmp_path / "t.cpt"
    save_tensor(path, t)
    assert_allclose(load_tensor(path), t)


def test_tensor_roundtrip_keeps_non_finite_parts(tmp_path):
    """Each stored (re, im) pair comes back as written, an infinite or NaN
    part included, and the loaded tensor is writable."""
    t = np.array([complex(0.0, np.inf), complex(-np.inf, 1.0), complex(np.nan, 2.0), 3 - 4j])
    path = tmp_path / "t.cpt"
    save_tensor(path, t)
    back = load_tensor(path)
    assert np.array_equal(back.real, t.real, equal_nan=True)
    assert np.array_equal(back.imag, t.imag, equal_nan=True)
    back[0] = 0.0


def test_tensor_header_layout(tmp_path):
    t = np.array([[1 + 2j, 3 + 4j]])  # 1 x 2
    path = tmp_path / "t.cpt"
    save_tensor(path, t)
    raw = path.read_bytes()
    assert raw[:4] == b"CPT1"
    assert raw[4] == 2
    assert struct.unpack("<2Q", raw[5:21]) == (1, 2)
    payload = struct.unpack("<4d", raw[21:])
    assert payload == (1.0, 2.0, 3.0, 4.0)


def test_tensor_order4_roundtrip(tmp_path):
    rng = np.random.default_rng(1)
    t = rng.standard_normal((2, 3, 2, 2)) + 1j * rng.standard_normal((2, 3, 2, 2))
    path = tmp_path / "h.cpt"
    save_tensor(path, t)
    assert_allclose(load_tensor(path), t)


def test_tensor_bad_magic(tmp_path):
    path = tmp_path / "bad.cpt"
    path.write_bytes(b"NOPE" + bytes(10))
    with pytest.raises(ValueError, match="CPT1"):
        load_tensor(path)


def test_tensor_truncated_payload(tmp_path):
    rng = np.random.default_rng(2)
    t = rng.standard_normal((4, 4)) + 0j
    path = tmp_path / "t.cpt"
    save_tensor(path, t)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(ValueError, match="payload"):
        load_tensor(path)


def test_tensor_truncated_header(tmp_path):
    path = tmp_path / "t.cpt"
    save_tensor(path, np.ones((2, 3, 4)))
    path.write_bytes(path.read_bytes()[:12])
    with pytest.raises(ValueError, match=r"t\.cpt: header truncated"):
        load_tensor(path)


def test_params_roundtrip(tmp_path):
    chan = draw_channel(ChannelGenConfig(l=5, seed=3))
    path = tmp_path / "params.txt"
    save_params(path, chan)
    back = load_params(path)
    assert back.l == chan.l
    for p, q in zip(chan.paths, back.paths):
        assert p == q


def test_params_field_count_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(ValueError, match="6 fields"):
        load_params(path)


def test_params_bad_number_names_line(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("1.0 2.0 3.0 x 5.0 6.0\n")
    with pytest.raises(ValueError, match=r"bad\.txt:1: could not convert"):
        load_params(path)


def test_params_not_utf8_names_file(tmp_path):
    path = tmp_path / "latin.txt"
    path.write_bytes(b"\x80 1.0 2.0 3.0 4.0 5.0\n")
    with pytest.raises(ValueError, match=r"latin\.txt: 'utf-8' codec"):
        load_params(path)
