"""Named float64 parameters as a numpy ``.npz`` archive: one uncompressed
``<name>.npy`` member per parameter, in order, each C-order ``<f8``, so
``np.load(path, allow_pickle=False)`` reads it.  Members are stamped 1980-01-01,
so the same parameters give the same bytes.  A load checks each header against
its member's size before it allocates, refuses a name stored twice, and
raises ``CheckpointError`` naming the path for any malformed file, a header
that makes numpy's parser warn included.  A file in the MSFR1 format from
before the archive is refused as such; it must be retrained.
"""

from __future__ import annotations

import math
import warnings
from collections import OrderedDict
from tokenize import TokenError
from zipfile import ZIP_STORED, BadZipFile, ZipFile, ZipInfo

import numpy as np
from numpy.lib import format as npy


# what zipfile and numpy's .npy header parser raise on malformed bytes (RuntimeError for an encrypted
# member or a deeply nested header; SyntaxError and TokenError from its fallback for Python 2 headers;
# Warning for what it only warns about, a deprecated descr or a Python 2 header, raised as errors)
_MALFORMED = (
    BadZipFile, EOFError, NotImplementedError, OSError, RuntimeError, SyntaxError, TokenError, TypeError, ValueError,
    Warning,
)


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: "OrderedDict[str, np.ndarray]"):
    for name in params:
        if ZipInfo(f"{name}.npy").filename != f"{name}.npy":
            raise ValueError(f"parameter name {name!r} cannot be stored unchanged in a zip archive")
    with ZipFile(path, "w") as archive:
        for name, arr in params.items():
            with archive.open(f"{name}.npy", "w", force_zip64=True) as f:
                npy.write_array(f, np.asarray(arr, dtype="<f8", order="C"), allow_pickle=False)


def load_checkpoint(path) -> "OrderedDict[str, np.ndarray]":
    with open(path, "rb") as f:
        if f.read(5) == b"MSFR1":
            raise CheckpointError(f"{path}: an MSFR1 checkpoint from before the .npz format; retrain it")
        f.seek(0)
        try:
            with ZipFile(f) as archive:
                return _read_members(archive)
        except _MALFORMED as exc:
            raise CheckpointError(f"{path}: {exc}") from exc


def _read_members(archive) -> "OrderedDict[str, np.ndarray]":
    out: "OrderedDict[str, np.ndarray]" = OrderedDict()
    for info in archive.infolist():
        name = info.filename.removesuffix(".npy")
        if info.filename != f"{name}.npy" or info.compress_type != ZIP_STORED:
            raise ValueError(f"member {info.filename!r} is not an uncompressed .npy array")
        if name in out:
            raise ValueError(f"parameter {name} is stored twice")
        with archive.open(info) as f:  # by ZipInfo: opening by name reads the last of two equal names
            if npy.read_magic(f) != (1, 0):
                raise ValueError(f"parameter {name}: not a version 1.0 .npy array")
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                shape, fortran_order, dtype = npy.read_array_header_1_0(f)
            nbytes = f.tell() + 8 * math.prod(shape)
            if dtype != "<f8" or fortran_order or nbytes != info.file_size:
                raise ValueError(f"parameter {name}: header does not declare the member's bytes as C-order <f8")
            vals = np.frombuffer(f.read(), dtype="<f8").astype(np.float64)
        if not np.isfinite(vals).all():
            raise ValueError(f"parameter {name} holds non-finite values")
        out[name] = vals.reshape(shape)
    return out
