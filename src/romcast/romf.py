"""ROMF container: a minimal little-endian file format for named f64 arrays.

Layout: magic ``ROMF``, format version (u32), then a sequence of records,
each ``name_len:u32, name:utf-8, dtype_code:u32, rank:u32, dims:u32...,
payload`` with the payload stored as little-endian float64.
"""

import os
import struct

import numpy as np

from .errors import RomcastError

MAGIC = b"ROMF"
VERSION = 1
DTYPE_F64 = 0

_U32 = struct.Struct("<I")


class FormatError(RomcastError):
    """File is not a valid ROMF container."""


def write_arrays(path, arrays):
    """Write an ordered mapping of name -> ndarray to ``path``.

    All arrays are stored as little-endian float64; order is preserved.
    """
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(VERSION))
        for name, arr in arrays.items():
            data = np.asarray(arr, dtype="<f8")  # tobytes() serialises C-order
            encoded = name.encode("utf-8")
            fh.write(_U32.pack(len(encoded)))
            fh.write(encoded)
            fh.write(_U32.pack(DTYPE_F64))
            fh.write(_U32.pack(data.ndim))
            for dim in data.shape:
                fh.write(_U32.pack(dim))
            fh.write(data.tobytes())


def read_arrays(path):
    """Read a ROMF container back into a dict of name -> float64 ndarray.

    Every malformed file, truncated or corrupted anywhere, raises
    FormatError: lengths are checked against the bytes left in the file
    before anything is read or allocated.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        version = _read_u32(fh, path)
        if version != VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        arrays = {}
        while True:
            head = fh.read(4)
            if not head:
                return arrays
            if len(head) != 4:
                raise FormatError(f"{path}: truncated record header")
            name_len = _U32.unpack(head)[0]
            _check_left(fh, size, name_len, path, "name")
            try:
                name = fh.read(name_len).decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"{path}: record name is not UTF-8") from exc
            dtype_code = _read_u32(fh, path)
            if dtype_code != DTYPE_F64:
                raise FormatError(f"{path}: unknown dtype code {dtype_code}")
            rank = _read_u32(fh, path)
            _check_left(fh, size, 4 * rank, path, f"dims of {name!r}")
            dims = tuple(_read_u32(fh, path) for _ in range(rank))
            count = 1
            for dim in dims:
                count *= dim
            _check_left(fh, size, 8 * count, path, f"payload of {name!r}")
            payload = fh.read(8 * count)
            try:
                arr = np.frombuffer(payload, dtype="<f8").reshape(dims)
            except ValueError as exc:  # over 64 dims, or zero-size but overflowing
                raise FormatError(f"{path}: bad dims {dims} for {name!r}") from exc
            arrays[name] = arr.astype(np.float64)


def require(mapping, names, path, what="array"):
    """Raise FormatError naming the first of ``names`` missing from
    ``mapping``: the check every artifact loader makes on what it read."""
    for name in names:
        if name not in mapping:
            raise FormatError(f"{path}: missing {what} {name!r}")


def _check_left(fh, size, needed, path, what):
    if needed > size - fh.tell():
        raise FormatError(f"{path}: truncated {what}")


def _read_u32(fh, path):
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: unexpected end of file")
    return _U32.unpack(raw)[0]
