"""Flat binary parameter container.

Layout: magic ``MSFR1``, then for each parameter in order: name length
(u32 LE), name bytes (utf-8), rank (u32 LE), dims (u32 LE each), values
(f64 LE, row-major).  Save/load round-trips bit-exactly.
"""

from __future__ import annotations

import struct
from collections import OrderedDict
from pathlib import Path

import numpy as np

MAGIC = b"MSFR1"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: "OrderedDict[str, np.ndarray]"):
    with open(path, "wb") as f:
        f.write(MAGIC)
        for name, arr in params.items():
            a = np.ascontiguousarray(arr, dtype="<f8")
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", a.ndim))
            f.write(struct.pack(f"<{a.ndim}I", *a.shape))
            f.write(a.tobytes())


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    data = Path(path).read_bytes()
    if not data.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    pos = len(MAGIC)
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()

    def take(n):
        nonlocal pos
        if pos + n > len(data):
            raise CheckpointError(f"{path}: truncated at byte {pos}")
        chunk = data[pos : pos + n]
        pos += n
        return chunk

    while pos < len(data):
        (name_len,) = struct.unpack("<I", take(4))
        name = take(name_len).decode("utf-8")
        (rank,) = struct.unpack("<I", take(4))
        dims = struct.unpack(f"<{rank}I", take(4 * rank)) if rank else ()
        count = int(np.prod(dims)) if rank else 1
        vals = np.frombuffer(take(8 * count), dtype="<f8").astype(np.float64)
        if not np.isfinite(vals).all():
            raise CheckpointError(f"{path}: parameter {name} holds non-finite values")
        out[name] = vals.reshape(dims)
    return out
