"""Binary PGM (P5) / PPM (P6) ingestion and emission, 8-bit only.

Loaded images are scaled to [0, 1] and padded (replicate-edge) up to the
next multiple of 16 so every backbone stride divides the extents; the
original extents are kept for box clipping.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .fusion import TAP_STRIDES

PAD_MULTIPLE = TAP_STRIDES["tap5"]  # the largest backbone stride
OVERLAY_COLOR = (255, 32, 32)


class ImageFormatError(ValueError):
    pass


def _read_header(data: bytes, path):
    """Parse the PNM header tokens (magic, width, height, maxval)."""
    tokens = []
    pos = 0
    while len(tokens) < 4:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        if start == pos:
            raise ImageFormatError(f"{path}: truncated header")
        tokens.append(data[start:pos])
    pos += 1  # single whitespace after maxval
    return tokens, pos


def read_pnm(path) -> np.ndarray:
    """Read a binary PGM/PPM; returns uint8 (H, W) or (H, W, 3)."""
    data = Path(path).read_bytes()
    tokens, pos = _read_header(data, path)
    magic = tokens[0]
    if magic not in (b"P5", b"P6"):
        raise ImageFormatError(f"{path}: unsupported magic {magic!r} (want P5 or P6)")
    try:
        w, h, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise ImageFormatError(f"{path}: width, height and maxval must be integers") from None
    if min(w, h) < 1:
        raise ImageFormatError(f"{path}: image extent {w}x{h} must be positive")
    if maxval != 255:
        raise ImageFormatError(f"{path}: maxval {maxval} unsupported (want 255)")
    channels = 1 if magic == b"P5" else 3
    need = w * h * channels
    raw = data[pos : pos + need]
    if len(raw) < need:
        raise ImageFormatError(f"{path}: truncated pixel data ({len(raw)} of {need} bytes)")
    arr = np.frombuffer(raw, dtype=np.uint8)
    return arr.reshape(h, w) if channels == 1 else arr.reshape(h, w, 3)


def pad_to_multiple(img: np.ndarray) -> np.ndarray:
    h, w = img.shape[-2], img.shape[-1]
    ph = (-h) % PAD_MULTIPLE
    pw = (-w) % PAD_MULTIPLE
    pad = [(0, 0)] * (img.ndim - 2) + [(0, ph), (0, pw)]
    return np.pad(img, pad, mode="edge")


def load_image(path):
    """Load a PGM/PPM as a padded (1, 1, H, W) float tensor in [0, 1].

    Returns (tensor, orig_w, orig_h).  Color is reduced to BT.601 luma with
    integer weights, so a gray PPM loads exactly like the same PGM.
    """
    raw = read_pnm(path)
    gray = raw if raw.ndim == 2 else raw.astype(np.int64) @ np.array([299, 587, 114]) / 1000.0
    orig_h, orig_w = raw.shape[0], raw.shape[1]
    return pad_to_multiple(gray[None].astype(np.float64) / 255.0)[None], orig_w, orig_h


def _quantize(gray: np.ndarray) -> np.ndarray:
    return np.clip(np.rint(np.asarray(gray) * 255.0), 0, 255).astype(np.uint8)


def write_pgm(path, img: np.ndarray):
    """Write a float [0, 1] (H, W) array as binary PGM."""
    write_ppm(path, _quantize(img))


def write_ppm(path, rgb: np.ndarray):
    """Write a uint8 (H, W, 3) array as binary PPM, or an (H, W) one as PGM."""
    q = np.asarray(rgb, dtype=np.uint8)
    with open(path, "wb") as f:
        f.write(f"{'P5' if q.ndim == 2 else 'P6'}\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        f.write(q.tobytes())


def overlay_boxes(gray: np.ndarray, boxes) -> np.ndarray:
    """Burn 1-px box borders into a grayscale [0, 1] image; returns RGB uint8."""
    h, w = gray.shape
    rgb = np.repeat(_quantize(gray)[:, :, None], 3, axis=2)
    col = np.array(OVERLAY_COLOR, dtype=np.uint8)
    for b in boxes:
        x1 = int(np.clip(np.floor(b[0]), 0, w - 1))
        y1 = int(np.clip(np.floor(b[1]), 0, h - 1))
        x2 = int(np.clip(np.ceil(b[2]) - 1, 0, w - 1))
        y2 = int(np.clip(np.ceil(b[3]) - 1, 0, h - 1))
        rgb[y1, x1 : x2 + 1] = col
        rgb[y2, x1 : x2 + 1] = col
        rgb[y1 : y2 + 1, x1] = col
        rgb[y1 : y2 + 1, x2] = col
    return rgb
