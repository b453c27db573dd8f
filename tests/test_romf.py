import os
import struct
import tempfile
import tracemalloc

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
        "empty": np.zeros((0, 3)),
    }
    romf.write_arrays(path, arrays)
    loaded, meta = romf.read_arrays(path)
    assert meta == {}
    assert list(loaded) == list(arrays)
    for name, arr in arrays.items():
        assert loaded[name].shape == arr.shape
        assert np.array_equal(loaded[name], arr)
        assert loaded[name].dtype == np.float64
        assert loaded[name].dtype.isnative
        assert loaded[name].flags.writeable


def _payload(path, arr):
    """The payload bytes of the last record of ``path``, which is ``arr``."""
    return path.read_bytes()[-arr.size * 8:] if arr.size else b""


@pytest.mark.parametrize("arr", [
    np.arange(60.0).reshape(6, 10)[:, 1::3],  # a strided view
    np.arange(60.0).reshape(6, 10).T,  # Fortran order
    np.arange(24, dtype=np.float32).reshape(4, 6)[::2],  # another dtype
    np.arange(3 * 2**17, dtype=np.float64).reshape(3, 2**17)[:, ::-1],
    np.arange(300_000.0).reshape(300, 1000),  # a payload over one block
    np.arange(400_000.0).reshape(2, 200_000)[:, ::2],  # a row over a block
], ids=["strided", "fortran", "float32", "reversed", "blocks", "big_rows"])
def test_any_strides_round_trip_as_c_order_bytes(tmp_path, arr):
    path = tmp_path / "strided.romf"
    romf.write_arrays(path, {"x": arr})
    assert _payload(path, arr) == np.ascontiguousarray(arr, "<f8").tobytes()
    loaded, _ = romf.read_arrays(path)
    assert loaded["x"].flags.c_contiguous
    assert np.array_equal(loaded["x"], arr)
    # read back into a strided block of a larger array of the caller's
    wide = np.zeros((arr.shape[0], 3 * arr.shape[1]))
    block = wide[:, 1::3]
    loaded, _ = romf.read_arrays(path, lambda name, dims: block)
    assert loaded["x"] is block and np.array_equal(block, arr)
    assert not wide[:, ::3].any() and not wide[:, 2::3].any()


def test_blocks_bound_the_temporaries(tmp_path):
    # a strided payload of 6.4 MB moves through blocks of at most 1 MiB
    arr = np.arange(1_600_000.0).reshape(800, 2000)[:, ::2]
    path = tmp_path / "big.romf"
    target = np.empty((800, 2000))[:, 1::2]
    tracemalloc.start()
    try:
        romf.write_arrays(path, {"x": arr})
        romf.read_arrays(path, lambda name, dims: target)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= (1 << 20) + (256 << 10)
    assert np.array_equal(target, arr)


def test_record_dropped_is_read_and_checked(tmp_path):
    path = tmp_path / "drop.romf"
    keep = {"a": np.arange(4.0), "b": np.ones((300, 1000)), "c": np.ones(2)}
    romf.write_arrays(path, keep)
    loaded, _ = romf.read_arrays(
        path, lambda name, dims: None if name == "b" else np.empty(dims))
    assert list(loaded) == ["a", "c"]
    assert np.array_equal(loaded["c"], np.ones(2))
    keep["b"][299, 999] = np.inf
    romf.write_arrays(path, keep)
    with pytest.raises(romf.FormatError, match="record 'b' holds NaN/Inf"):
        romf.read_arrays(path, lambda name, dims: None)


def test_meta_round_trips_with_sorted_keys(tmp_path):
    path = tmp_path / "meta.romf"
    meta = {"kind": "forecaster", "dropout_rate": 0.25, "seed": None,
            "tags": ["a", 1]}
    romf.write_arrays(path, {"x": np.ones(2)}, meta)
    arrays, loaded = romf.read_arrays(path)
    assert loaded == meta and np.array_equal(arrays["x"], np.ones(2))
    first = path.read_bytes()
    romf.write_arrays(path, {"x": np.ones(2)}, dict(reversed(meta.items())))
    assert path.read_bytes() == first
    assert b'{"dropout_rate":0.25,"kind":"forecaster",' in first


def test_exact_byte_layout(tmp_path):
    path = tmp_path / "one.romf"
    romf.write_arrays(path, {"ab": np.array([1.0, 2.0])}, {"n": 3})
    raw = path.read_bytes()
    expected = b"ROMF"
    expected += struct.pack("<I", 2)  # version
    expected += struct.pack("<I", 7) + b'{"n":3}'  # metadata record
    expected += struct.pack("<I", 2) + b"ab"  # name
    expected += struct.pack("<I", 0)  # dtype code f64
    expected += struct.pack("<I", 1) + struct.pack("<I", 2)  # rank, dims
    expected += struct.pack("<d", 1.0) + struct.pack("<d", 2.0)
    assert raw == expected


def test_repeated_record_name_rejected(tmp_path):
    # a second record of one name appended: no reader may take either
    path = tmp_path / "twice.romf"
    romf.write_arrays(path, {"lstm.b": np.zeros(3), "head.bias": np.zeros(2)})
    record = tmp_path / "record.romf"
    romf.write_arrays(record, {"head.bias": np.ones(2)})
    header = len(b"ROMF") + 4 + 4 + len(b"{}")
    with open(path, "ab") as fh:
        fh.write(record.read_bytes()[header:])
    with pytest.raises(romf.FormatError, match="second record 'head.bias'"):
        romf.read_arrays(path)


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


def test_version_1_file_rejected_by_name(tmp_path):
    path = tmp_path / "old.romf"
    # version 1: the array records follow the version directly
    records = _container(b"x", [1])[14:]
    path.write_bytes(b"ROMF" + struct.pack("<I", 1) + records)
    with pytest.raises(romf.FormatError, match="version 1 .*regenerate"):
        romf.read_arrays(path)


@pytest.mark.parametrize("record", [
    b"\xff\xfe", b'{"n":', b"[1, 2]", b"3", b"null", b'"text"', b"",
])
def test_bad_metadata_record_rejected(tmp_path, record):
    path = tmp_path / "meta.romf"
    path.write_bytes(b"ROMF" + struct.pack("<I", 2)
                     + struct.pack("<I", len(record)) + record)
    with pytest.raises(romf.FormatError, match="metadata record"):
        romf.read_arrays(path)


def test_metadata_record_longer_than_file_rejected(tmp_path):
    path = tmp_path / "meta.romf"
    path.write_bytes(b"ROMF" + struct.pack("<I", 2) + struct.pack("<I", 9)
                     + b"{}")
    with pytest.raises(romf.FormatError, match="truncated metadata record"):
        romf.read_arrays(path)


def _container(name, dims, payload=b"\0" * 8):
    """A version-2 file with an empty metadata record and one array
    record, with dims and payload as given."""
    raw = b"ROMF" + struct.pack("<I", 2) + struct.pack("<I", 2) + b"{}"
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
    path.write_bytes(_container(b"x", [1])[:14] + struct.pack("<I", 2**32 - 1))
    with pytest.raises(romf.FormatError):
        romf.read_arrays(path)


def _valid_container():
    arrays = {"mean": np.arange(3.0), "eofs": np.ones((2, 3)),
              "scalar": np.array(2.5), "empty": np.zeros((0, 2))}
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "valid.romf")
        romf.write_arrays(path, arrays, {"kind": "forecaster", "n": 3,
                                         "rate": 0.25, "tags": ["a", None]})
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
        arrays, meta = romf.read_arrays(path)
    except romf.FormatError:
        return
    assert isinstance(arrays, dict) and isinstance(meta, dict)
