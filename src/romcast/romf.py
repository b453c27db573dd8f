"""ROMF container: a minimal little-endian file format for named float
arrays and the metadata that belongs with them.

Layout (version 2): magic ``ROMF``, format version (u32), then the
metadata record ``meta_len:u32, meta:utf-8`` holding one JSON object
(``{}`` when there is none; keys sorted, so rewrites are byte-identical),
then a sequence of array records, each ``name_len:u32, name:utf-8,
dtype_code:u32, rank:u32, dims:u32..., payload`` with the payload stored
as little-endian float64 (``DTYPE_F64``, 0) or float32 (``DTYPE_F32``, 1);
any other code is rejected. A writer picks one dtype for all its records;
a reader always hands out float64, which holds every float32 exactly.
Files of other versions (version 1 had no metadata record) are rejected.

Payloads stream between file and array in C-order runs of at most
``_BLOCK`` bytes, so neither direction makes a temporary the size of a
record, and a reader can take a payload straight into an array of its
own, such as one field's column block of a snapshot matrix, or drop it.
"""

import json
import math
import os
import struct
from contextlib import contextmanager

import numpy as np

from .errors import InvalidConfig, NonFiniteInput, RomcastError, ShapeMismatch

MAGIC = b"ROMF"
VERSION = 2
DTYPE_F64 = 0
DTYPE_F32 = 1

_U32 = struct.Struct("<I")
_STORED = {DTYPE_F64: np.dtype("<f8"), DTYPE_F32: np.dtype("<f4")}
_BLOCK = 1 << 20


class FormatError(RomcastError):
    """File is not a valid ROMF container."""


def write_arrays(path, arrays, meta=None, code=DTYPE_F64):
    """Write an ordered mapping of name -> ndarray, and the JSON object
    ``meta``, to ``path``.

    Arrays of any strides are stored in C order in the little-endian
    dtype of ``code``, a run of at most ``_BLOCK`` bytes at a time; order
    is preserved. ``DTYPE_F32`` rounds what float32 does not hold, so a
    caller asks for it only for values that are float32 already.
    """
    stored = _STORED[code]
    record = json.dumps(meta or {}, sort_keys=True,
                        separators=(",", ":")).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(_U32.pack(VERSION))
        fh.write(_U32.pack(len(record)))
        fh.write(record)
        for name, arr in arrays.items():
            data = np.asarray(arr)
            encoded = name.encode("utf-8")
            fh.write(_U32.pack(len(encoded)))
            fh.write(encoded)
            fh.write(_U32.pack(code))
            fh.write(_U32.pack(data.ndim))
            for dim in data.shape:
                fh.write(_U32.pack(dim))
            for run in _runs(data, "readonly", stored):
                fh.write(run)


def read_arrays(path, into=None):
    """Read a ROMF container back into (dict of name -> float64 ndarray,
    metadata dict); float32 records are widened, exactly.

    ``into(name, dims)``, when given, says where each record's payload
    goes before it is read: a writable float64 array of shape ``dims``,
    of any strides, which is filled in place and returned under ``name``,
    or None, when the payload is read, must be finite and is dropped.
    Without it each record gets an array of its own.

    Every malformed file, truncated or corrupted anywhere or holding two
    records of one name, raises FormatError: lengths are checked against
    the bytes left in the file before anything is read or allocated.
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
        arrays, names = {}, set()
        while fh.tell() < size:
            name = _read_text(fh, size, path, "record name")
            if name in names:
                raise FormatError(f"{path}: a second record {name!r}")
            names.add(name)
            dtype_code = _read_u32(fh, path)
            stored = _STORED.get(dtype_code)
            if stored is None:
                raise FormatError(f"{path}: unknown dtype code {dtype_code}")
            rank = _read_u32(fh, path)
            _check_left(fh, size, 4 * rank, path, f"dims of {name!r}")
            dims = tuple(_read_u32(fh, path) for _ in range(rank))
            nbytes = stored.itemsize * math.prod(dims)
            _check_left(fh, size, nbytes, path, f"payload of {name!r}")
            try:
                out = into(name, dims) if into else np.empty(dims)
            except ValueError as exc:  # over 64 dims, or zero-size but overflowing
                raise FormatError(f"{path}: bad dims {dims} for {name!r}") from exc
            if out is None:
                _drop_payload(fh, nbytes, stored, path, name)
                continue
            for run in _runs(out, "writeonly", stored):
                _read_run(fh, run, path, name)
            arrays[name] = out
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
    """Report an InvalidConfig, ShapeMismatch or NonFiniteInput raised
    while an object is built from the contents of ``path`` as a
    FormatError naming it."""
    try:
        yield
    except (InvalidConfig, NonFiniteInput, ShapeMismatch) as exc:
        raise FormatError(f"{path}: {exc}") from exc


def _runs(arr, flag, stored):
    """The values of ``arr``, of any strides, in C order as contiguous
    runs of the ``stored`` dtype of at most ``_BLOCK`` bytes: views of
    ``arr`` where it allows, else one buffer that numpy casts out of
    ``arr`` ("readonly") or back into it ("writeonly")."""
    with np.nditer(arr, ["external_loop", "buffered", "zerosize_ok"],
                   [flag, "contig"], [stored], order="C", casting="same_kind",
                   buffersize=_BLOCK // stored.itemsize) as runs:
        yield from runs


def _read_run(fh, run, path, name):
    if fh.readinto(run) != run.nbytes:
        raise FormatError(f"{path}: truncated payload of {name!r}")


def _drop_payload(fh, nbytes, stored, path, name):
    """Read ``nbytes`` of payload of the ``stored`` dtype in runs, raising
    FormatError at a value that is not finite, and keep none of it."""
    for start in range(0, nbytes, _BLOCK):
        run = np.empty(min(_BLOCK, nbytes - start) // stored.itemsize, stored)
        _read_run(fh, run, path, name)
        if not np.isfinite(run).all():
            raise FormatError(f"{path}: record {name!r} holds NaN/Inf")
        del run  # one run at a time


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
