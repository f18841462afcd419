"""Toy scenes: each shape is painted on the pixel window around its box, byte
for byte as the full-grid drawing kept here as the reference."""

import numpy as np
import pytest

from msfacedet import toydata
from msfacedet.toydata import generate_toy_dataset


def _pixel_grid(size):
    c = np.arange(size) + 0.5
    return np.meshgrid(c, c, indexing="ij")  # (yy, xx)


def full_grid_draw_face(img, box, face_val, dark_val):
    """Reference face painter: every mask is computed over the whole image."""
    yy, xx = _pixel_grid(img.shape[0])
    x1, y1, x2, y2 = box
    cx, cy = (x1 + x2) / 2.0, (y1 + y2) / 2.0
    a, b = (x2 - x1) / 2.0, (y2 - y1) / 2.0
    inside = ((xx - cx) / a) ** 2 + ((yy - cy) / b) ** 2 <= 1.0
    img[inside] = face_val
    eye_r = max(0.14 * min(a, b), 0.7)
    for sx in (-1.0, 1.0):
        ex, ey = cx + sx * 0.4 * a, cy - 0.3 * b
        img[(xx - ex) ** 2 + (yy - ey) ** 2 <= eye_r**2] = dark_val
    mouth_hw = 0.45 * a
    mouth_hh = max(0.08 * b, 0.5)
    my = cy + 0.45 * b
    mouth = (np.abs(xx - cx) <= mouth_hw) & (np.abs(yy - my) <= mouth_hh) & inside
    img[mouth] = dark_val


def full_grid_distractor(rng, size, scale_lo, scale_hi):
    """Reference distractor: the same draws, with its mask over the whole image."""
    yy, xx = _pixel_grid(size)
    val = rng.uniform(0.2, 0.95)
    if rng.random() < 0.5:
        w = int(rng.integers(scale_lo, scale_hi + 1))
        h = int(rng.integers(scale_lo, scale_hi + 1))
        x1 = int(rng.integers(0, max(size - w, 1)))
        y1 = int(rng.integers(0, max(size - h, 1)))
        box = (x1, y1, x1 + w, y1 + h)
        mask = (xx >= box[0]) & (xx <= box[2]) & (yy >= box[1]) & (yy <= box[3])
    else:
        r = int(rng.integers(scale_lo, scale_hi + 1)) / 2.0
        cx = rng.uniform(r, size - r)
        cy = rng.uniform(r, size - r)
        box = (cx - r, cy - r, cx + r, cy + r)
        mask = (xx - cx) ** 2 + (yy - cy) ** 2 <= r * r
    return np.array(box, dtype=np.float64), np.s_[:, :], mask, val


# (image size, face height range, seed): sizes 16 to 256 with 100 among them,
# face ranges from the 5 px minimum up to half the image
CASES = [
    (16, (5, 8), 0),
    (24, (5, 12), 1),
    (32, (5, 16), 2),
    (48, (6, 24), 3),
    (64, (5, 32), 4),
    (100, (5, 50), 5),
    (100, (20, 50), 6),
    (100, (7, 13), 7),
    (128, (12, 40), 8),
    (160, (5, 80), 9),
    (200, (33, 100), 10),
    (256, (5, 128), 11),
    (256, (10, 100), 12),
    (256, (64, 128), 13),
]


@pytest.mark.parametrize("size,face_range,seed", CASES)
def test_window_drawing_matches_full_grid_bytes(monkeypatch, size, face_range, seed):
    scenes = generate_toy_dataset(6, size, face_range, seed)
    monkeypatch.setattr(toydata, "_draw_face", full_grid_draw_face)
    monkeypatch.setattr(toydata, "_distractor", full_grid_distractor)
    reference = generate_toy_dataset(6, size, face_range, seed)
    for got, want in zip(scenes, reference, strict=True):
        assert got.image.tobytes() == want.image.tobytes(), got.name
        assert got.gt_boxes.tobytes() == want.gt_boxes.tobytes(), got.name
        assert got.requested_faces == want.requested_faces


def test_window_is_clipped_to_the_image():
    win, yy, xx = toydata._window((0.0, 0.5, 16.0, 15.2), 16)
    assert win == (slice(0, 16), slice(0, 16))
    assert yy.shape == (16, 1) and xx.shape == (16,)
    assert yy[0, 0] == 0.5 and xx[-1] == 15.5
