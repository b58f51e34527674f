"""Binary matrix files, plain-text metadata headers, and identity hashes.

Matrix file layout: magic ``TICM``, one version byte (1), two uint32
little-endian fields (rows, cols), then rows*cols float64 little-endian
values in row-major order.

Every binary payload, a matrix file's here and a PGM/PPM image's in
`images`, is read by `read_array`: a header declaring more data than
its file holds, or a file that is not a regular file, is a FormatError,
raised before anything is allocated.

Metadata headers are ``key = value`` lines with ``#`` comments, the same
syntax the CLI config files use. Tables are CSV with one header row.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os
import stat
import struct

import numpy as np

from .errors import DataError, FormatError

MAGIC = b"TICM"
VERSION = 1
_HEADER = struct.Struct("<4sBII")


def write_matrix(path, values: np.ndarray) -> None:
    values = np.ascontiguousarray(values, dtype="<f8")
    if values.ndim != 2:
        raise FormatError(f"expected a 2-D matrix, got shape {values.shape}")
    rows, cols = values.shape
    with open(path, "wb") as f:
        f.write(_HEADER.pack(MAGIC, VERSION, rows, cols))
        f.write(values)    # the contiguous buffer itself, without a bytes copy


def read_matrix(path) -> np.ndarray:
    """The matrix in `path`; a NaN or an infinity, which topica never writes, is a FormatError."""
    with open(path, "rb") as f:
        header = f.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise FormatError(f"{path}: truncated header")
        magic, version, rows, cols = _HEADER.unpack(header)
        if magic != MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != VERSION:
            raise FormatError(f"{path}: unsupported version {version}")
        values = read_array(f, (rows, cols), "<f8", path).astype(np.float64, copy=False)
    if not np.isfinite(values).all():
        raise FormatError(f"{path}: holds a non-finite value")
    return values


def read_array(f, shape, dtype, path) -> np.ndarray:
    """The next `shape` array of `dtype` in the open file `f`, read straight
    into one array once the bytes that follow are checked to hold it, so a
    header declaring too much fails before anything is allocated. Only a
    regular file has a size to check: any other file is a FormatError."""
    status = os.fstat(f.fileno())
    if not stat.S_ISREG(status.st_mode):
        raise FormatError(f"{path}: not a regular file")
    size = np.dtype(dtype).itemsize * math.prod(shape)    # Python ints, which cannot wrap
    left = status.st_size - f.tell()
    if size > left:
        raise FormatError(f"{path}: header declares {size} bytes of data, but {left} follow")
    data = np.empty(shape, dtype=dtype)
    if f.readinto(data) != size:
        raise FormatError(f"{path}: truncated data")
    return data


def format_float(x) -> str:
    """Render a float so that parsing it back is bit-exact."""
    return f"{float(x):.17g}"


def write_table(path, header, rows) -> None:
    """ASCII CSV: the header row, then each row with integers as they are and
    every other number through `format_float`."""
    with open(path, "w", newline="", encoding="ascii") as f:
        writer = csv.writer(f)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, (int, np.integer)) else format_float(v) for v in row]
                         for row in rows)


def write_meta(path, entries: dict) -> None:
    lines = [f"{key} = {value}\n" for key, value in entries.items()]
    with open(path, "w", encoding="ascii") as f:
        f.writelines(lines)


def read_meta(path) -> dict:
    """The `key = value` entries of `path`; a malformed line or a repeated
    key raises FormatError naming the line."""
    entries, lines_of = {}, {}
    with open(path, "r", encoding="ascii") as f:
        try:
            lines = f.readlines()
        except UnicodeDecodeError:
            raise FormatError(f"{path}: not an ASCII text file") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise FormatError(f"{path}:{lineno}: expected 'key = value'")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in lines_of:
            raise FormatError(f"{path}:{lineno}: key {key!r} repeats line {lines_of[key]}")
        lines_of[key] = lineno
        entries[key] = value
    return entries


def meta_value(meta: dict, key: str, path, parse=str):
    """Required entry `key` of a header read by `read_meta` from `path`,
    passed through `parse`; a missing key, or a value that `parse` refuses
    with a ValueError or a DataError, is a FormatError naming `path`, `key`
    and the value, then, in parentheses, a DataError's rule (not Python's text)."""
    if key not in meta:
        raise FormatError(f"{path}: missing key {key!r}")
    try:
        return parse(meta[key])
    except (ValueError, DataError) as exc:
        reason = f" ({exc})" if isinstance(exc, DataError) else ""
        raise FormatError(f"{path}: bad value for {key!r}: {meta[key]!r}{reason}") from None


def content_hash(*parts) -> str:
    """SHA-256 over a canonical encoding of arrays, numbers, and strings."""
    digest = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            arr = np.ascontiguousarray(part, dtype="<f8")
            digest.update(b"a")
            digest.update(struct.pack("<I", arr.ndim))
            for dim in arr.shape:
                digest.update(struct.pack("<Q", dim))
            digest.update(arr)    # the buffer itself, without a bytes copy
        elif isinstance(part, (int, np.integer)):
            digest.update(b"i" + struct.pack("<q", int(part)))
        elif isinstance(part, float):
            digest.update(b"f" + struct.pack("<d", part))
        elif isinstance(part, str):
            encoded = part.encode("utf-8")
            digest.update(b"s" + struct.pack("<I", len(encoded)) + encoded)
        else:
            raise TypeError(f"cannot hash {type(part)!r}")
    return digest.hexdigest()
