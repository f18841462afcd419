"""Property tests of the four input parsers: any input either parses or
raises that parser's own error, and the writers round-trip through them."""

import io
import json
import struct
import zipfile
from collections import OrderedDict
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from msfacedet.annotations import AnnotationError, AnnotationRecord, format_annotations, parse_annotations
from msfacedet.checkpoint import CheckpointError, load_checkpoint, save_checkpoint
from msfacedet.config import ConfigError, RunConfig, parse_run_config
from msfacedet.imageio import ImageFormatError, read_pnm

FUZZ = settings(derandomize=True, deadline=None, max_examples=100)

_ints = st.integers(-3, 10**25).map(str)
_box_line = st.lists(st.integers(-2, 2**54), min_size=3, max_size=5).map(lambda v: " ".join(map(str, v)))
_annotation_text = st.lists(st.one_of(st.text(max_size=8), _ints, _box_line), max_size=12).map("\n".join)

_names = st.sampled_from([f.name for f in fields(RunConfig)])
_keys = st.one_of(_names, st.text(max_size=6), st.tuples(_names, _names).map(".".join))  # a dotted key too
# TOML scalars: quoted strings, integers of any size, floats (repr spells nan, inf and -inf as TOML does),
# booleans and dates, and now and then words TOML does not take (the old spellings among them)
_scalars = st.one_of(
    st.text(max_size=8).map(json.dumps),
    st.integers(-5, 5000).map(str),
    st.integers().map(str),
    st.floats().map(repr),
    st.floats(0, 2).map(repr),
    st.dates().map(str),
    st.sampled_from(["true", "false", "nan", "+inf", "1979-05-27T07:32:00Z", "07:32:00", '"multi"', "'tap5'"]),
    st.one_of(st.sampled_from(["multi", "tap5", "yes", "no", "1,2"]), st.text(max_size=8)),
)
# arrays (nested too) and inline tables of those
_values = st.recursive(
    _scalars,
    lambda inner: st.one_of(
        st.lists(inner, max_size=3).map(lambda items: f"[{', '.join(items)}]"),
        st.lists(st.tuples(_names, inner), max_size=2).map(
            lambda pairs: "{" + ", ".join(f"{k} = {v}" for k, v in pairs) + "}"
        ),
    ),
    max_leaves=6,
)
_pair = st.tuples(_keys, st.sampled_from([" = ", "=", ""]), _values).map("".join)
_header = _keys.map(lambda key: f"[{key}]")
# top-level pairs, then table headers mixed with the pairs that fall into their tables
_config_text = st.tuples(st.lists(_pair, max_size=4), st.lists(st.one_of(_header, _pair), max_size=2)).map(
    lambda parts: "\n".join(parts[0] + parts[1])
)

_pnm_token = st.one_of(st.integers(-3, 300).map(str), st.sampled_from(["255", "x", "#c\n"]), st.text(max_size=3))
_pnm_header = st.tuples(st.sampled_from(["P5", "P6", "P4", ""]), st.lists(_pnm_token, max_size=4)).map(
    lambda parts: " ".join([parts[0], *parts[1]]).encode("utf-8")
)
_pnm_bytes = st.one_of(
    st.binary(max_size=64),
    st.tuples(_pnm_header, st.sampled_from([b"\n", b" ", b""]), st.binary(max_size=64)).map(b"".join),
)


def _flip(data, offset, value):
    return data[:offset] + bytes([value]) + data[offset + 1 :]


def _mutations(valid):
    """Prefixes, single-byte flips and splices (a cut or a repeat) of ``valid``."""
    n = len(valid)
    return st.one_of(
        st.integers(0, n).map(lambda k: valid[:k]),
        st.tuples(st.integers(0, n - 1), st.integers(0, 255)).map(lambda t: _flip(valid, *t)),
        st.tuples(st.integers(0, n), st.integers(0, n)).map(lambda t: valid[: t[0]] + valid[t[1] :]),
    )


def _npy(header):
    """A version 1.0 .npy member with the given header text."""
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header


def _archive(members):
    """A zip archive of raw member bytes, each stored with its true CRC."""
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as archive:
        for name, raw in members.items():
            with archive.open(name, "w") as f:
                f.write(raw)
    return buf.getvalue()


_buf = io.BytesIO()
save_checkpoint(_buf, OrderedDict([("a.w", np.arange(6.0).reshape(2, 3)), ("b", np.array(0.5))]))
VALID = _buf.getvalue()
NPY = zipfile.ZipFile(io.BytesIO(VALID)).read("a.w.npy")
CENTRAL = VALID.index(b"PK\x01\x02")  # the first member's central directory record
END = VALID.rindex(b"PK\x05\x06")  # the end of central directory record
MSFR1_FILE = b"MSFR1" + struct.pack("<I", 1) + b"w" + struct.pack("<I", 0) + struct.pack("<d", 1.0)  # the old format
# two headers numpy's parser only warns about: a deprecated dtype alias, and a Python 2 long it then parses
DEPRECATED_HEADER = b"{'descr': 'a', 'fortran_order': False, 'shape': (2, 3), }"
PY2_HEADER = b"{'descr': '<f8', 'fortran_order': False, 'shape': (2L, 3), }"
_checkpoint_bytes = st.one_of(
    st.binary(max_size=64),
    _mutations(VALID),
    # a mutated .npy member under a true CRC, so its header parse is reached
    _mutations(NPY).map(lambda raw: _archive({"a.npy": raw})),
)


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
@example("anchor_scales = " + "[" * 3000 + "]" * 3000)  # RecursionError inside tomllib
@example("anchor_scales = [[1.0]]")
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
@example(MSFR1_FILE)
@example(_flip(VALID, CENTRAL + 6, 0xD2))  # version needed 21.0: NotImplementedError
@example(_flip(VALID, CENTRAL + 8, 0x20))  # compressed patched data: NotImplementedError
@example(_flip(VALID, CENTRAL + 8, 0x01))  # encrypted: RuntimeError
@example(_flip(VALID, END + 16, 0xFF))  # central directory offset past the file: OSError
@example(_archive({"a.npy": _npy(b"{[1]: 2}")}))  # unhashable header key: TypeError
@example(_archive({"a.npy": _npy(b"'''")}))  # unclosed string: tokenize.TokenError
@example(_archive({"a.npy": _npy(b"-" * 5000 + b"1")}))  # RecursionError
@example(_archive({"a.npy": NPY, "b.npz": NPY}))  # a member that is not <name>.npy
@example(_archive({"a.npy": _npy(DEPRECATED_HEADER)}))  # DeprecationWarning
@example(_archive({"a.npy": _npy(PY2_HEADER) + bytes(48)}))  # Python 2 header: UserWarning
def test_checkpoint_parses_or_raises_checkpoint_error(scratch_file, data):
    scratch_file.write_bytes(data)
    try:
        params = load_checkpoint(scratch_file)
    except CheckpointError as e:
        assert str(e).startswith(f"{scratch_file}: ")
        return
    for a in params.values():
        assert a.dtype == np.float64 and a.flags.writeable and np.isfinite(a).all()


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


def _npy_of(arr):
    buf = io.BytesIO()
    np.lib.format.write_array(buf, arr)
    return buf.getvalue()


@pytest.mark.parametrize(
    "member",
    [
        _npy_of(np.arange(6)),
        _npy_of(np.arange(6.0, dtype=">f8")),
        _npy_of(np.arange(6.0, dtype=np.float32)),
        _npy_of(np.arange(6.0).reshape(2, 3).T),
        # np.load would try to allocate the 800 GB this header declares
        _npy(b"{'descr': '<f8', 'fortran_order': False, 'shape': (99999999999,), }") + bytes(8),
    ],
    ids=["int64", "big-endian", "float32", "fortran-order", "declares-800-GB"],
)
def test_load_refuses_a_member_that_is_not_its_c_order_float64_values(tmp_path, member):
    path = tmp_path / "other.msfr"
    path.write_bytes(_archive({"w.npy": member}))
    with pytest.raises(CheckpointError, match="w: header does not declare the member's bytes as C-order <f8"):
        load_checkpoint(path)


@pytest.mark.parametrize(
    "header, warning",
    [(DEPRECATED_HEADER, DeprecationWarning), (PY2_HEADER, UserWarning)],
    ids=["deprecated-descr", "python2-shape"],
)
def test_load_refuses_a_header_numpy_warns_about(tmp_path, header, warning):
    path = tmp_path / "warned.msfr"
    path.write_bytes(_archive({"w.npy": _npy(header) + bytes(48)}))
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value).startswith(f"{path}: ")
    assert isinstance(info.value.__cause__, warning)


def test_load_names_an_msfr1_checkpoint_as_one_to_retrain(tmp_path):
    path = tmp_path / "old.msfr"
    path.write_bytes(MSFR1_FILE)
    with pytest.raises(CheckpointError) as info:
        load_checkpoint(path)
    assert str(info.value) == f"{path}: an MSFR1 checkpoint from before the .npz format; retrain it"


def test_load_refuses_a_compressed_member(tmp_path):
    path = tmp_path / "deflated.msfr"
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as archive:
        archive.writestr("w.npy", NPY)
    with pytest.raises(CheckpointError, match="member 'w.npy' is not an uncompressed .npy array"):
        load_checkpoint(path)


@FUZZ
@given(st.dictionaries(st.text(st.characters(exclude_characters="\x00"), max_size=10), _arrays, max_size=4))
@example({"scalar": np.array(0.5)})
def test_checkpoint_round_trip(scratch_file, params):
    save_checkpoint(scratch_file, OrderedDict(params))
    loaded = load_checkpoint(scratch_file)
    assert list(loaded) == list(params)
    for name, arr in params.items():
        assert loaded[name].shape == arr.shape
        assert loaded[name].tobytes() == arr.tobytes()


@pytest.mark.parametrize("name", ["a\x00b", "\x00"])
def test_save_refuses_a_name_zip_would_change(tmp_path, name):
    # zip cuts a member name at its first NUL, so the name could not come back
    path = tmp_path / "model.msfr"
    with pytest.raises(ValueError, match="cannot be stored unchanged"):
        save_checkpoint(path, OrderedDict([("w", np.ones(2)), (name, np.ones(1))]))
    assert not path.exists()
