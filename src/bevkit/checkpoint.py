"""Checkpoint files: text manifest + flat little-endian float64 payload.

Layout::

    BEVKIT-CHECKPOINT 1
    count <n>
    <name> <d0,d1,...> <byte_offset>     (one line per array, offset into payload)
    <empty line>
    <raw '<f8' bytes, concatenated in manifest order>

Round-trips are bit-exact: ``save_checkpoint`` takes only arrays that a
float64 payload holds exactly. Entries are written sorted by name so identical
array dicts always serialize to identical bytes.
"""

from __future__ import annotations

import math
import re
from typing import Dict

import numpy as np

from .errors import ContractError, DataError

_MAGIC = "BEVKIT-CHECKPOINT 1"
_COUNT = re.compile(r"count ([0-9]+)")
_ENTRY = re.compile(r"(\S+) ([0-9]+(?:,[0-9]+)*) ([0-9]+)")  # name, dims, byte offset


def save_checkpoint(path, arrays: Dict[str, np.ndarray]):
    """Write arrays to path. A name that is empty, not ASCII or contains
    whitespace raises ContractError before path is opened, and so does an
    array that would not read back as it is: one of a dtype that float64
    does not hold exactly (integers, bools, complex numbers, long doubles)
    or of no dimensions."""
    names = sorted(arrays)
    for name in names:
        if not name or not name.isascii() or any(ch.isspace() for ch in name):
            raise ContractError(f"checkpoint names must be non-empty ASCII without "
                                f"whitespace: {name!r}")
        arr = np.asarray(arrays[name])
        if arr.dtype.kind != "f" or not np.can_cast(arr.dtype, np.float64) or arr.ndim == 0:
            raise ContractError(f"checkpoint array {name!r} is {arr.dtype} of shape {arr.shape}: "
                                f"only real floats of one or more dimensions round-trip")
    lines = [_MAGIC, f"count {len(names)}"]
    blobs = []
    offset = 0
    for name in names:
        arr = np.ascontiguousarray(arrays[name], dtype="<f8")
        dims = ",".join(str(d) for d in arr.shape)
        lines.append(f"{name} {dims} {offset}")
        blob = arr.tobytes()
        blobs.append(blob)
        offset += len(blob)
    header = "\n".join(lines) + "\n\n"
    with open(path, "wb") as f:
        f.write(header.encode("ascii"))
        for blob in blobs:
            f.write(blob)


def load_checkpoint(path) -> Dict[str, np.ndarray]:
    """Arrays of a checkpoint file. A file that is truncated, has bytes past
    its last array, or has a malformed manifest raises DataError, and so
    does a path that is missing or a directory."""
    try:
        with open(path, "rb") as f:
            raw = f.read()
    except (FileNotFoundError, IsADirectoryError) as e:
        raise DataError(f"{path}: no checkpoint file ({e.strerror})") from None
    sep = raw.find(b"\n\n")
    if sep < 0:
        raise DataError(f"{path}: not a checkpoint file (no manifest terminator)")
    try:
        header = raw[:sep].decode("ascii").split("\n")
    except UnicodeDecodeError:
        raise DataError(f"{path}: manifest is not ASCII") from None
    payload = raw[sep + 2 :]
    if header[0] != _MAGIC:
        raise DataError(f"{path}: bad checkpoint magic")
    count = _COUNT.fullmatch(header[1]) if len(header) > 1 else None
    if count is None or int(count[1]) != len(header) - 2:
        raise DataError(f"{path}: count line does not match the {len(header) - 2} entries")
    out: Dict[str, np.ndarray] = {}
    offset = 0
    for line in header[2:]:
        entry = _ENTRY.fullmatch(line)
        if entry is None or entry[1] in out or int(entry[3]) != offset:
            raise DataError(f"{path}: malformed manifest line {line!r} (expected offset {offset})")
        shape = tuple(int(d) for d in entry[2].split(","))
        n = math.prod(shape)
        if offset + 8 * n > len(payload):
            raise DataError(f"{path}: payload truncated inside {entry[1]}")
        arr = np.frombuffer(payload, dtype="<f8", count=n, offset=offset)
        out[entry[1]] = arr.reshape(shape).copy()
        offset += 8 * n
    if offset != len(payload):
        raise DataError(f"{path}: {len(payload) - offset} bytes past the last array")
    return out
