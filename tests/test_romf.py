import os
import struct
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from romcast import romf


def test_round_trip_preserves_values_and_order(tmp_path):
    path = tmp_path / "arrays.romf"
    arrays = {
        "mean": np.arange(5.0),
        "eofs": np.linspace(-1, 1, 12).reshape(3, 4),
        "cube": np.arange(24.0).reshape(2, 3, 4),
        "scalar": np.array(3.5),
    }
    romf.write_arrays(path, arrays)
    loaded = romf.read_arrays(path)
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "one.romf"
    romf.write_arrays(path, {"ab": np.array([1.0, 2.0])})
    raw = path.read_bytes()
    expected = b"ROMF"
    expected += struct.pack("<I", 1)  # version
    expected += struct.pack("<I", 2) + b"ab"  # name
    expected += struct.pack("<I", 0)  # dtype code f64
    expected += struct.pack("<I", 1) + struct.pack("<I", 2)  # rank, dims
    expected += struct.pack("<d", 1.0) + struct.pack("<d", 2.0)
    assert raw == expected


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "junk.romf"
    path.write_bytes(b"NOPE" + b"\x00" * 16)
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "cut.romf"
    romf.write_arrays(path, {"x": np.arange(10.0)})
    path.write_bytes(path.read_bytes()[:-4])
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "future.romf"
    path.write_bytes(b"ROMF" + struct.pack("<I", 99))
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def _container(name, dims, payload=b"\0" * 8):
    """A version-1 file of one record, with dims and payload as given."""
    raw = b"ROMF" + struct.pack("<I", 1)
    raw += struct.pack("<I", len(name)) + name + struct.pack("<I", 0)
    raw += struct.pack(f"<{len(dims) + 1}I", len(dims), *dims)
    return raw + payload


def test_non_utf8_name_rejected(tmp_path):
    path = tmp_path / "name.romf"
    path.write_bytes(_container(b"\xff\xfe", [1]))
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


@pytest.mark.parametrize("dims", [[2**31, 2**31], [0, 2**32 - 1, 2**32 - 1],
                                  [1] * 100])
def test_impossible_dims_rejected(tmp_path, dims):
    path = tmp_path / "dims.romf"
    path.write_bytes(_container(b"x", dims))
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def test_name_longer_than_file_rejected(tmp_path):
    path = tmp_path / "long.romf"
    path.write_bytes(_container(b"x", [1])[:8] + struct.pack("<I", 2**32 - 1))
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def _valid_container():
    arrays = {"mean": np.arange(3.0), "eofs": np.ones((2, 3)),
              "scalar": np.array(2.5), "empty": np.zeros((0, 2))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.romf")
        romf.write_arrays(path, arrays)
        with open(path, "rb") as fh:
            return fh.read()


VALID = _valid_container()


@settings(deadline=None, max_examples=300,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cut=st.integers(0, len(VALID)),
       flip=st.one_of(st.none(), st.tuples(st.integers(0, len(VALID) - 1),
                                           st.integers(1, 255))))
def test_truncated_or_flipped_file_is_dict_or_format_error(tmp_path, cut, flip):
    raw = bytearray(VALID)
    if flip is not None:
        raw[flip[0]] ^= flip[1]
    path = tmp_path / "fuzz.romf"
    path.write_bytes(bytes(raw[:cut]))
    try:
        arrays = romf.read_arrays(path)
    except romf.FormatError:
        return
    assert isinstance(arrays, dict)
