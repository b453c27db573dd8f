"""ROMF container: a minimal little-endian file format for named f64
arrays and the metadata that belongs with them.

Layout (version 2): magic ``ROMF``, format version (u32), then the
metadata record ``meta_len:u32, meta:utf-8`` holding one JSON object
(``{}`` when there is none; keys sorted, so rewrites are byte-identical),
then a sequence of array records, each ``name_len:u32, name:utf-8,
dtype_code:u32, rank:u32, dims:u32..., payload`` with the payload stored
as little-endian float64. Files of other versions (version 1 had no
metadata record) are rejected.
"""

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import InvalidConfig, RomcastError, ShapeMismatch

MAGIC = b"ROMF"
VERSION = 2
DTYPE_F64 = 0

_U32 = struct.Struct("<I")


class FormatError(RomcastError):
    """File is not a valid ROMF container."""


def write_arrays(path, arrays, meta=None):
    """Write an ordered mapping of name -> ndarray, and the JSON object
    ``meta``, to ``path``.

    All arrays are stored as little-endian float64; order is preserved.
    """
    record = json.dumps(meta or {}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(VERSION))
        fh.write(_U32.pack(len(record)))
        fh.write(record)
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
    """Read a ROMF container back into (dict of name -> float64 ndarray,
    metadata dict).

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
            raise FormatError(f"{path}: ROMF version {version} is not "
                              f"{VERSION}; regenerate the file")
        try:
            meta = json.loads(_read_text(fh, size, path, "metadata record"))
        except (ValueError, RecursionError) as exc:
            raise FormatError(f"{path}: metadata record is not JSON") from exc
        if not isinstance(meta, dict):
            raise FormatError(f"{path}: metadata record is not an object")
        arrays = {}
        while fh.tell() < size:
            name = _read_text(fh, size, path, "record name")
            dtype_code = _read_u32(fh, path)
            if dtype_code != DTYPE_F64:
                raise FormatError(f"{path}: unknown dtype code {dtype_code}")
            rank = _read_u32(fh, path)
            _check_left(fh, size, 4 * rank, path, f"dims of {name!r}")
            dims = tuple(_read_u32(fh, path) for _ in range(rank))
            nbytes = 8 * math.prod(dims)
            _check_left(fh, size, nbytes, path, f"payload of {name!r}")
            try:
                arr = np.frombuffer(fh.read(nbytes), "<f8").reshape(dims)
            except ValueError as exc:  # over 64 dims, or zero-size but overflowing
                raise FormatError(f"{path}: bad dims {dims} for {name!r}") from exc
            arrays[name] = arr.astype(np.float64)
        return arrays, meta


def require(mapping, names, path, what="array"):
    """Raise FormatError naming the first of ``names`` missing from
    ``mapping``: the check every artifact loader makes on what it read.

    When ``names`` maps each name to a type (or a tuple of types), its
    value must also be of that type; a bool never passes for a number.
    """
    for name in names:
        if name not in mapping:
            raise FormatError(f"{path}: missing {what} {name!r}")
        if isinstance(names, dict):
            value = mapping[name]
            if isinstance(value, bool) or not isinstance(value, names[name]):
                raise FormatError(f"{path}: {what} {name!r} has the wrong "
                                  f"type {type(value).__name__}")


@contextmanager
def building(path):
    """Report an InvalidConfig or ShapeMismatch raised while an object is
    built from the contents of ``path`` as a FormatError naming it."""
    try:
        yield
    except (InvalidConfig, ShapeMismatch) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _check_left(fh, size, needed, path, what):
    if needed > size - fh.tell():
        raise FormatError(f"{path}: truncated {what}")


def _read_text(fh, size, path, what):
    """A u32 byte count, then that many bytes of UTF-8."""
    length = _read_u32(fh, path)
    _check_left(fh, size, length, path, what)
    try:
        return fh.read(length).decode("utf-8")
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: {what} is not UTF-8") from exc


def _read_u32(fh, path):
    raw = fh.read(4)
    if len(raw) != 4:
        raise FormatError(f"{path}: unexpected end of file")
    return _U32.unpack(raw)[0]
