import hashlib
import re
import struct
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from topica.errors import DataError, FormatError
from topica.matrixio import (
    content_hash,
    format_float,
    meta_value,
    read_matrix,
    read_meta,
    write_matrix,
    write_meta,
)


def test_matrix_file_layout(tmp_path):
    # Byte-level oracle assembled independently of the writer.
    values = np.array([[1.0, -2.5, 3.25], [0.0, 1e-300, -0.0]])
    path = tmp_path / "m.ticm"
    write_matrix(path, values)
    expected = b"TICM" + bytes([1]) + struct.pack("<II", 2, 3)
    for row in values:
        for v in row:
            expected += struct.pack("<d", v)
    assert path.read_bytes() == expected


def test_matrix_roundtrip(tmp_path, rng):
    values = rng.standard_normal((7, 3))
    path = tmp_path / "m.ticm"
    write_matrix(path, values)
    npt.assert_array_equal(read_matrix(path), values)


@settings(deadline=None, max_examples=25)
@given(hnp.arrays(np.float64, hnp.array_shapes(min_dims=2, max_dims=2, max_side=8),
                  elements=st.floats(allow_nan=False, allow_infinity=False, width=64)))
def test_matrix_roundtrip_property(tmp_path_factory, values):
    path = tmp_path_factory.mktemp("ticm") / "m.ticm"
    write_matrix(path, values)
    npt.assert_array_equal(read_matrix(path), values)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_non_finite_value_rejected(tmp_path, value):
    path = tmp_path / "m.ticm"
    values = np.zeros((2, 3))
    values[1, 2] = value
    write_matrix(path, values)
    with pytest.raises(FormatError, match=rf"^{re.escape(str(path))}: holds a non-finite value$"):
        read_matrix(path)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "m.ticm"
    write_matrix(path, np.zeros((1, 1)))
    raw = bytearray(path.read_bytes())
    raw[0] = ord("X")
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_matrix(path)


def test_bad_version_rejected(tmp_path):
    path = tmp_path / "m.ticm"
    write_matrix(path, np.zeros((1, 1)))
    raw = bytearray(path.read_bytes())
    raw[4] = 9
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError):
        read_matrix(path)


def test_truncated_payload_rejected(tmp_path):
    path = tmp_path / "m.ticm"
    write_matrix(path, np.ones((2, 2)))
    raw = path.read_bytes()
    path.write_bytes(raw[:-5])
    with pytest.raises(FormatError):
        read_matrix(path)


def test_read_holds_the_matrix_once(tmp_path, rng):
    values = rng.standard_normal((4096, 144))
    path = tmp_path / "m.ticm"
    write_matrix(path, values)
    read_matrix(path)    # imports made on first use
    tracemalloc.start()
    try:
        loaded = read_matrix(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert loaded.tobytes() == values.tobytes()
    assert peak < 1.25 * values.nbytes


def test_meta_roundtrip(tmp_path):
    path = tmp_path / "x.meta"
    write_meta(path, {"kind": "TICA", "k": 64, "epsilon": format_float(0.25)})
    meta = read_meta(path)
    assert meta == {"kind": "TICA", "k": "64", "epsilon": "0.25"}


def test_meta_skips_comments_and_blanks(tmp_path):
    path = tmp_path / "x.meta"
    path.write_text("# header comment\n\nname = value with spaces\n# tail\n")
    assert read_meta(path) == {"name": "value with spaces"}


def test_meta_rejects_garbage_line(tmp_path):
    path = tmp_path / "x.meta"
    path.write_text("just some words\n")
    with pytest.raises(FormatError):
        read_meta(path)


def test_meta_rejects_repeated_key(tmp_path):
    path = tmp_path / "x.meta"
    path.write_text("seed = 1\n# comment\nk = 4\nseed = 2\n")
    with pytest.raises(FormatError, match=r"x\.meta:4: key 'seed' repeats line 1$"):
        read_meta(path)


def test_meta_rejects_non_ascii(tmp_path):
    path = tmp_path / "x.meta"
    path.write_bytes(b"k = \xe9\n")
    with pytest.raises(FormatError, match="x.meta"):
        read_meta(path)


def test_typed_meta_accessors(tmp_path):
    path = tmp_path / "x.meta"
    meta = {"kind": "TICA", "k": "64", "eps": "0.25"}
    assert meta_value(meta, "kind", path) == "TICA"
    assert meta_value(meta, "k", path, int) == 64
    assert meta_value(meta, "eps", path, float) == 0.25


def _refuse(raw):
    raise DataError(f"refused {raw}")


@pytest.mark.parametrize("parse, raw", [(int, "four"), (int, "1.5"), (float, "x"),
                                        (_refuse, "1")])
def test_typed_meta_accessor_rejects_bad_value(tmp_path, parse, raw):
    # A DataError's own message follows the value; a ValueError's does not.
    reason = f" (refused {raw})" if parse is _refuse else ""
    path = tmp_path / "x.meta"
    with pytest.raises(FormatError,
                       match=rf"x\.meta: bad value for 'v': '{raw}'{re.escape(reason)}$"):
        meta_value({"v": raw}, "v", path, parse)


def test_typed_meta_accessor_rejects_missing_key(tmp_path):
    with pytest.raises(FormatError, match=r"x\.meta: missing key 'v'"):
        meta_value({}, "v", tmp_path / "x.meta")


@settings(deadline=None, max_examples=100)
@given(st.floats(allow_nan=False, allow_infinity=False))
def test_format_float_roundtrips_exactly(x):
    assert float(format_float(x)) == x


def test_content_hash_sensitivity(rng):
    a = rng.standard_normal((3, 4))
    assert content_hash("tag", a) == content_hash("tag", a.copy())
    assert content_hash("tag", a) != content_hash("tag", a.T.copy())
    assert content_hash("tag", a) != content_hash("other", a)
    assert content_hash("tag", a, 1) != content_hash("tag", a, 2)
    # An integer and a float with equal value must not collide.
    assert content_hash("tag", 1) != content_hash("tag", 1.0)


def test_content_hash_shape_not_just_bytes(rng):
    flat = rng.standard_normal(12)
    assert content_hash(flat.reshape(3, 4)) != content_hash(flat.reshape(4, 3))


@pytest.mark.parametrize("order, dtype", [("C", "<f8"), ("F", "<f8"), ("C", ">f8")])
def test_content_hash_of_an_array_is_its_little_endian_bytes(rng, order, dtype):
    # Byte-level oracle: stored model references depend on this encoding.
    values = rng.standard_normal((3, 4))
    expected = hashlib.sha256(b"a" + struct.pack("<I", 2) + struct.pack("<QQ", 3, 4)
                              + struct.pack("<12d", *values.ravel()))
    assert content_hash(np.array(values, order=order, dtype=dtype)) == expected.hexdigest()


def test_content_hash_copies_no_array(rng):
    values = rng.standard_normal((4096, 144))
    content_hash(values)    # imports made on first use
    tracemalloc.start()
    try:
        content_hash(values)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 0.25 * values.nbytes
