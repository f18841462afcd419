"""Annotation file grammar.

Repeated blocks of: an image path line (no whitespace), a face-count line,
then that many lines of "x y w h" non-negative integers (top-left corner
plus size, corners up to 2**53 so float64 holds them exactly).  Boxes
convert internally to corner form (x, y, x+w, y+h).  Blank lines between
blocks are rejected.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


class AnnotationError(ValueError):
    pass


@dataclass
class AnnotationRecord:
    image_path: str
    boxes: np.ndarray  # (N, 4) corner form, float


def parse_annotations(text: str, source: str = "<annotations>") -> list[AnnotationRecord]:
    lines = text.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    records = []
    i = 0
    while i < len(lines):
        lineno = i + 1
        path = lines[i]
        if path == "" or any(ch.isspace() for ch in path):
            raise AnnotationError(f"{source}:{lineno}: expected an image path without whitespace")
        i += 1
        if i >= len(lines):
            raise AnnotationError(f"{source}:{i + 1}: missing face count after image path")
        try:
            count = int(lines[i])
        except ValueError:
            raise AnnotationError(f"{source}:{i + 1}: face count is not an integer: {lines[i]!r}") from None
        if count < 0:
            raise AnnotationError(f"{source}:{i + 1}: negative face count")
        if count > len(lines) - i - 1:
            raise AnnotationError(f"{source}:{i + 1}: face count {count} but only {len(lines) - i - 1} lines follow")
        i += 1
        boxes = np.zeros((count, 4))
        for b in range(count):
            fields = lines[i].split(" ")
            if len(fields) != 4:
                raise AnnotationError(f"{source}:{i + 1}: expected 'x y w h', got {lines[i]!r}")
            try:
                x, y, w, h = (int(f) for f in fields)
            except ValueError:
                raise AnnotationError(f"{source}:{i + 1}: non-integer box field in {lines[i]!r}") from None
            if x < 0 or y < 0 or w < 1 or h < 1 or max(x + w, y + h) > 2**53:
                raise AnnotationError(
                    f"{source}:{i + 1}: box must have non-negative origin, size >= 1 and corners up to 2**53"
                )
            boxes[b] = (x, y, x + w, y + h)
            i += 1
        records.append(AnnotationRecord(image_path=path, boxes=boxes))
    return records


def format_annotations(records) -> str:
    """Inverse of :func:`parse_annotations` (integer corner+size layout)."""
    out = []
    for rec in records:
        out.append(rec.image_path)
        out.append(str(len(rec.boxes)))
        for b in rec.boxes:
            x, y = int(round(b[0])), int(round(b[1]))
            w, h = int(round(b[2] - b[0])), int(round(b[3] - b[1]))
            out.append(f"{x} {y} {w} {h}")
    return "\n".join(out) + ("\n" if out else "")


def load_annotations(path) -> list[AnnotationRecord]:
    return parse_annotations(Path(path).read_text(), source=str(path))
