"""Synthetic face-like scenes for desk-scale training and evaluation.

A scene is a noisy gray image with 1-4 "faces" (a bright ellipse carrying
two dark eye dots and a dark mouth bar at fixed proportional positions) and
up to 3 plain distractor shapes that share the brightness range but have no
interior pattern.  Ground truth is the ellipse bounding box.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .boxes import iou_matrix

FACE_ASPECT = 0.8  # width / height of a face box
NOISE_SIGMA = 0.05
MAX_FACES = 4
MAX_DISTRACTORS = 3
PLACEMENT_ATTEMPTS = 100


@dataclass
class ToyScene:
    name: str
    image: np.ndarray  # (1, 1, H, W) values in [0, 1], padded to a multiple of 16 when loaded
    gt_boxes: np.ndarray  # (G, 4) corner form
    width: int  # image extent before padding
    height: int
    requested_faces: int = 0


def _pixel_grid(size: int):
    c = np.arange(size) + 0.5
    return np.meshgrid(c, c, indexing="ij")  # (yy, xx)


def _draw_face(img, yy, xx, box, face_val, dark_val):
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


def _distractor(yy, xx, rng, size: int, scale_lo: int, scale_hi: int):
    """A random plain rectangle or disc as (box, pixel mask, gray value)."""
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
    return np.array(box, dtype=np.float64), mask, val


def generate_toy_dataset(n_images: int, image_size: int, face_scale_range: tuple, seed: int) -> list[ToyScene]:
    """Deterministically generate ``n_images`` scenes from ``seed``.

    Face heights are drawn from ``face_scale_range`` (pixels); every ground
    truth box lies fully inside the image and face boxes overlap each other
    by at most IoU 0.1.  If a face cannot be placed within the attempt
    budget the scene simply carries fewer faces (recorded on the scene).
    """
    lo, hi = face_scale_range
    if not (4 < lo <= hi <= image_size / 2):
        raise ValueError(f"face_scale_range {face_scale_range} outside (4, {image_size / 2}]")
    rng = np.random.default_rng(seed)
    yy, xx = _pixel_grid(image_size)
    scenes = []
    for i in range(n_images):
        img = np.full((image_size, image_size), 0.5)
        n_faces = int(rng.integers(1, MAX_FACES + 1))
        n_distract = int(rng.integers(0, MAX_DISTRACTORS + 1))
        face_boxes = []
        for _ in range(n_faces):
            placed = None
            for _attempt in range(PLACEMENT_ATTEMPTS):
                h = int(rng.integers(lo, hi + 1))
                w = max(int(round(FACE_ASPECT * h)), 4)
                x1 = int(rng.integers(2, image_size - w - 1))
                y1 = int(rng.integers(2, image_size - h - 1))
                cand = np.array([x1, y1, x1 + w, y1 + h], dtype=np.float64)
                if face_boxes and iou_matrix(cand, np.stack(face_boxes)).max() > 0.1:
                    continue
                placed = cand
                break
            if placed is not None:
                face_boxes.append(placed)
        for _ in range(n_distract):
            for _attempt in range(PLACEMENT_ATTEMPTS):
                box, mask, val = _distractor(yy, xx, rng, image_size, int(lo), int(hi))
                if face_boxes and iou_matrix(box, np.stack(face_boxes)).max() > 0.05:
                    continue  # overlapping distractor: draw another
                img[mask] = val
                break
        for box in face_boxes:
            _draw_face(img, yy, xx, box, rng.uniform(0.85, 0.95), rng.uniform(0.1, 0.2))
        img = np.clip(img + rng.normal(0.0, NOISE_SIGMA, img.shape), 0.0, 1.0)
        scenes.append(
            ToyScene(
                name=f"img_{i:04d}",
                image=img[None, None],
                gt_boxes=np.stack(face_boxes) if face_boxes else np.zeros((0, 4)),
                width=image_size,
                height=image_size,
                requested_faces=n_faces,
            )
        )
    return scenes
