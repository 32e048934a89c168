"""Binary tensor files (.vgt).

Layout, all little-endian:

    bytes 0..3   magic "VGOT"
    byte  4      version, 0x01
    byte  5      rank (1..8)
    then         rank x uint32 dims
    then         row-major float32 payload

Round-trips are bitwise for float32 arrays. Both functions stream, so a
tensor crosses the disk boundary without a whole-tensor copy, and a write
either completes or leaves the target untouched.
"""

from __future__ import annotations

import os
import secrets
import struct
from pathlib import Path

import numpy as np

from .errors import ConfigError, FormatError, LengthError

MAGIC = b"VGOT"
VERSION = 1
MAX_RANK = 8
#: The longest header: magic, version, rank and MAX_RANK dims.
MAX_HEADER = 6 + 4 * MAX_RANK
#: Ends the name of the temporary sibling a file is written to before it
#: replaces its target.
TEMP_SUFFIX = ".partial"


def _header(shape: tuple) -> bytes:
    if not 1 <= len(shape) <= MAX_RANK:
        raise ConfigError(f"rank must be 1..{MAX_RANK}, got {len(shape)}")
    if any(dim >= 2**32 for dim in shape):
        raise ConfigError(f"dimension too large for uint32: {shape}")
    return MAGIC + bytes([VERSION, len(shape)]) + struct.pack(f"<{len(shape)}I", *shape)


def _parse_header(head: bytes, size: int) -> tuple:
    """Shape and payload offset of a file of ``size`` bytes whose first
    bytes (at least min(size, MAX_HEADER) of them) are ``head``."""
    if size < 6:
        raise LengthError(f"file too short for a header: {size} bytes")
    if head[:4] != MAGIC:
        raise FormatError(f"bad magic {head[:4]!r}, expected {MAGIC!r}")
    if head[4] != VERSION:
        raise FormatError(f"unsupported version {head[4]}, expected {VERSION}")
    rank = head[5]
    if not 1 <= rank <= MAX_RANK:
        raise FormatError(f"rank {rank} outside 1..{MAX_RANK}")
    dims_end = 6 + 4 * rank
    if size < dims_end:
        raise LengthError("file truncated inside the dimension table")
    shape = struct.unpack(f"<{rank}I", head[6:dims_end])
    expected = dims_end + 4 * int(np.prod(shape, dtype=np.int64))
    if size < expected:
        raise LengthError(f"payload truncated: need {expected} bytes, have {size}")
    if size > expected:
        raise LengthError(f"trailing bytes after payload: {size - expected}")
    return shape, dims_end


def write_tensor_file(path, tensor) -> None:
    """Write ``tensor`` in the layout above. It is an array, or any
    iterable of rows whose ``shape`` attribute gives the full stacked
    shape, such as a stream that samples each row as it is pulled: the
    header comes from ``tensor.shape``, then each row along axis 0 is
    converted to float32 and written in turn. A row of the wrong shape or a
    wrong number of rows raises ``ConfigError``.

    The bytes go to a temporary sibling (its name ends in ``TEMP_SUFFIX``)
    that replaces ``path`` only once every row is written; on any error the
    temporary is removed and ``path`` is left as it was."""
    shape = tuple(tensor.shape)
    header = _header(shape)
    row_shape, n_rows = shape[1:], shape[0]
    path = Path(path)
    temp = path.with_name(f".{path.name}.{secrets.token_hex(4)}{TEMP_SUFFIX}")
    handle = open(temp, "xb")
    try:
        with handle:
            handle.write(header)
            count = 0
            for row in tensor:
                row = np.asarray(row)
                if count == n_rows or row.shape != row_shape:
                    raise ConfigError(
                        f"row {count} of shape {row.shape} does not fit a tensor of shape {shape}"
                    )
                handle.write(np.ascontiguousarray(row, dtype="<f4"))
                count += 1
        if count != n_rows:
            raise ConfigError(f"{count} rows for a tensor of shape {shape}")
        os.replace(temp, path)
    except BaseException:
        temp.unlink(missing_ok=True)
        raise


def read_tensor_file(path) -> np.ndarray:
    """Read a file written by :func:`write_tensor_file`. A bad magic,
    version or rank raises ``FormatError``; a file too short for its header
    or payload, or longer than its payload, raises ``LengthError``. The
    payload is read straight into the returned float32 array."""
    with open(path, "rb") as handle:
        shape, offset = _parse_header(handle.read(MAX_HEADER), os.fstat(handle.fileno()).st_size)
        out = np.empty(shape, dtype="<f4")
        handle.seek(offset)
        if handle.readinto(out.reshape(-1).view(np.uint8)) != out.nbytes:
            raise LengthError(f"{path} shrank while it was read")
    return out
