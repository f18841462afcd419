"""Property tests of the four input parsers: any input either parses or
raises that parser's own error, and the writers round-trip through them."""

import struct
from collections import OrderedDict
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msfacedet.annotations import AnnotationError, AnnotationRecord, format_annotations, parse_annotations
from msfacedet.checkpoint import MAGIC, CheckpointError, load_checkpoint, save_checkpoint
from msfacedet.config import ConfigError, RunConfig, parse_run_config
from msfacedet.imageio import ImageFormatError, read_pnm

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

_ints = st.integers(-3, 10**25).map(str)
_box_line = st.lists(st.integers(-2, 2**54), min_size=3, max_size=5).map(lambda v: " ".join(map(str, v)))
_annotation_text = st.lists(st.one_of(st.text(max_size=8), _ints, _box_line), max_size=12).map("\n".join)

_keys = st.one_of(st.sampled_from([f.name for f in fields(RunConfig)]), st.text(max_size=6))
_values = st.one_of(
    st.text(max_size=8),
    st.integers(-5, 5000).map(str),
    st.floats().map(repr),
    st.lists(st.floats().map(repr), max_size=3).map(",".join),
    st.sampled_from(["multi", "tap5", "yes", "no"]),
)
_config_text = st.lists(st.tuples(_keys, st.sampled_from(["=", " = ", ""]), _values).map("".join), max_size=6).map(
    "\n".join
)

_pnm_token = st.one_of(st.integers(-3, 300).map(str), st.sampled_from(["255", "x", "#c\n"]), st.text(max_size=3))
_pnm_header = st.tuples(st.sampled_from(["P5", "P6", "P4", ""]), st.lists(_pnm_token, max_size=4)).map(
    lambda parts: " ".join([parts[0], *parts[1]]).encode("utf-8")
)
_pnm_bytes = st.one_of(
    st.binary(max_size=64),
    st.tuples(_pnm_header, st.sampled_from([b"\n", b" ", b""]), st.binary(max_size=64)).map(b"".join),
)

_u32 = st.integers(0, 2**32 - 1).map(lambda v: struct.pack("<I", v))
_small_u32 = st.integers(0, 6).map(lambda v: struct.pack("<I", v))
_f64 = st.floats().map(lambda v: struct.pack("<d", v))
_checkpoint_bytes = st.tuples(
    st.sampled_from([MAGIC, MAGIC, b"MSFR0"]),
    st.lists(st.one_of(_u32, _small_u32, _f64, st.binary(max_size=12)), max_size=10).map(b"".join),
).map(b"".join)


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input"


@FUZZ
@given(_annotation_text)
@example(f"a.pgm\n{10**20}\n")
@example("a.pgm\n1\n1 1 2 " + "9" * 400)
def test_annotations_parse_or_raise_annotation_error(text):
    try:
        records = parse_annotations(text)
    except AnnotationError:
        return
    for rec in records:
        assert rec.boxes.shape[1:] == (4,)


@FUZZ
@given(_config_text)
def test_config_parses_or_raises_config_error(text):
    try:
        parse_run_config(text)
    except ConfigError:
        pass


@FUZZ
@given(_pnm_bytes)
@example(b"P5 x 2 255\n\0\0")
@example(b"P5 -2 -3 255\n\0\0\0\0\0\0")
def test_pnm_parses_or_raises_image_format_error(scratch_file, data):
    scratch_file.write_bytes(data)
    try:
        img = read_pnm(scratch_file)
    except ImageFormatError:
        return
    assert img.dtype == np.uint8 and img.size > 0


@FUZZ
@given(_checkpoint_bytes)
@example(MAGIC + struct.pack("<I", 2) + b"\xff\xfe" + struct.pack("<I", 0) + struct.pack("<d", 1.0))
def test_checkpoint_parses_or_raises_checkpoint_error(scratch_file, data):
    scratch_file.write_bytes(data)
    try:
        params = load_checkpoint(scratch_file)
    except CheckpointError:
        return
    assert all(np.isfinite(a).all() for a in params.values())


_path = st.text(alphabet="abcXYZ019._-/", min_size=1, max_size=12)
_box = st.tuples(st.integers(0, 10**6), st.integers(0, 10**6), st.integers(1, 10**6), st.integers(1, 10**6))
_records = st.lists(st.tuples(_path, st.lists(_box, max_size=4)), max_size=5)


@FUZZ
@given(_records)
def test_annotations_round_trip(records):
    recs = [
        AnnotationRecord(image_path=p, boxes=np.array([(x, y, x + w, y + h) for x, y, w, h in boxes]).reshape(-1, 4))
        for p, boxes in records
    ]
    text = format_annotations(recs)
    parsed = parse_annotations(text)
    assert [r.image_path for r in parsed] == [r.image_path for r in recs]
    assert all(np.array_equal(a.boxes, b.boxes) for a, b in zip(parsed, recs))
    assert format_annotations(parsed) == text


_arrays = hnp.arrays(
    np.float64,
    hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=3),
    elements=st.floats(allow_nan=False, allow_infinity=False),
)


@FUZZ
@given(st.dictionaries(st.text(max_size=10), _arrays, max_size=4))
@example({"scalar": np.array(0.5)})
def test_checkpoint_round_trip(scratch_file, params):
    save_checkpoint(scratch_file, OrderedDict(params))
    loaded = load_checkpoint(scratch_file)
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()
