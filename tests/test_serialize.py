"""The binary container: bytes written, arrays read back, the meta items
that decide whether a file is read at all, and the arrays' checksum."""

import hashlib
import json
import re

import numpy as np
import pytest

from plsa import serialize

ARRAYS = {
    "matrix": np.arange(12, dtype=np.float64).reshape(3, 4),
    "ids": np.array([5, -1, 2**62], dtype=np.int64),
    "narrow": np.array([1, 2, 3], dtype=np.int32),  # stored in one byte
    "wide": np.array([[70000], [4]], dtype=np.uint64),  # stored in four
    "single": np.array([0.5, 0.25], dtype=np.float32),  # stored as float64
    "fortran": np.asfortranarray(np.arange(6.0).reshape(2, 3)),
    "empty": np.zeros((0, 3)),
    "scalar": np.float64(7.0),
}


def stored_dtype(a) -> str:
    """float64 for floats; for integers, the narrowest unsigned type of 1, 2
    or 4 bytes that holds them all, or int64 if none does."""
    a = np.asarray(a)
    if a.dtype.kind == "f":
        return "<f8"
    values = a.ravel().tolist()
    for dtype, bits in (("|u1", 8), ("<u2", 16), ("<u4", 32)):
        if all(0 <= v < 2**bits for v in values):
            return dtype
    return "<i8"


def tobytes_layout(kind, arrays, meta) -> bytes:
    """The container as written by copying each array's bytes out first."""
    stored = [np.ascontiguousarray(a, dtype=stored_dtype(a)) for a in arrays.values()]
    header = {"kind": kind, "version": 1, "meta": meta,
              "arrays": [{"name": n, "dtype": a.dtype.str, "shape": list(a.shape)}
                         for n, a in zip(arrays, stored)]}
    return (b"#plsa-container v1\n" + json.dumps(header, sort_keys=True).encode() + b"\n"
            + b"".join(a.tobytes() for a in stored))


@pytest.mark.parametrize("meta", [None, {"source_sha256": "ab" * 32, "n": 3}])
def test_bytes_and_digest_of_a_write(tmp_path, meta):
    path = tmp_path / "c.bin"
    digest = serialize.save_arrays(path, "test", ARRAYS, meta=meta)
    assert path.read_bytes() == tobytes_layout("test", ARRAYS, meta or {})
    assert digest == hashlib.sha256(path.read_bytes()).hexdigest()


def test_arrays_read_back_as_written(tmp_path):
    path = tmp_path / "c.bin"
    serialize.save_arrays(path, "test", ARRAYS)
    with open(path, "ab") as f:
        f.write(b"bytes past the arrays")
    record = {}
    back = serialize.load_arrays(path, "test", ("ids",), record=record)
    assert record["sha256"] == hashlib.sha256(path.read_bytes()).hexdigest()
    assert list(back) == list(ARRAYS)
    for name, a in ARRAYS.items():
        assert back[name].dtype == ("<f8" if np.asarray(a).dtype.kind == "f" else "<i8")
        assert back[name].flags.c_contiguous and back[name].flags.writeable
        np.testing.assert_array_equal(back[name], a)


@pytest.mark.parametrize("values, dtype", [
    ([0, 255], "|u1"), ([256], "<u2"), ([65535], "<u2"), ([65536], "<u4"),
    ([2**32 - 1], "<u4"), ([2**32], "<i8"), ([3, -1], "<i8"), ([-(2**63), 2**63 - 1], "<i8"),
    ([], "|u1"),
])
def test_integers_are_stored_at_their_narrowest_width(tmp_path, values, dtype):
    path = tmp_path / "c.bin"
    for given in (np.array(values, dtype=np.int64), np.array(values, dtype=np.int64)[::-1]):
        serialize.save_arrays(path, "test", {"a": given, "b": np.array([0.5])}, checksum=True)
        header = json.loads(path.read_bytes().split(b"\n")[1])
        assert [entry["dtype"] for entry in header["arrays"]] == [dtype, "<f8"]
        assert path.stat().st_size == (len(b"#plsa-container v1\n") + len(json.dumps(
            header, sort_keys=True)) + 1 + np.dtype(dtype).itemsize * len(values) + 8)
        back = serialize.load_arrays(path, checksum=True)["a"]
        assert back.dtype == "<i8" and back.flags.c_contiguous and back.flags.writeable
        assert back.tolist() == given.tolist()


def test_meta_decides_whether_a_file_is_read(tmp_path):
    path = tmp_path / "c.bin"
    serialize.save_arrays(path, "test", {"a": np.ones(2)}, meta={"source_sha256": "x", "n": 1})
    assert serialize.load_arrays(path, meta={"source_sha256": "x"})["a"].tolist() == [1, 1]
    assert serialize.load_arrays(path, meta={"source_sha256": "y"}) is None
    assert serialize.load_arrays(path, meta={"other": "x"}) is None
    for foreign in (b"", b"plain text\n", b"#plsa-container v1\n{nope\n",
                    b"#plsa-container v1\n[1, 2]\n"):
        path.write_bytes(foreign)
        assert serialize.load_arrays(path, meta={"source_sha256": "x"}) is None
        with pytest.raises(ValueError, match=str(path)):
            serialize.load_arrays(path)


def test_checksum_guards_the_arrays_and_their_manifest(tmp_path):
    path = tmp_path / "c.bin"
    serialize.save_arrays(path, "test", {"a": np.arange(2.0), "b": np.arange(2.0),
                                         "c": np.array([1, 2]), "d": np.array([-1])},
                          checksum=True)
    intact = path.read_bytes()
    assert serialize.load_arrays(path, checksum=True)["b"].tolist() == [0, 1]
    for damaged in (intact[:-1] + b"\x01",  # an array byte
                    # the same bytes cut into arrays of other lengths
                    intact.replace(b'"shape": [2]}, {"dtype": "<f8", "name": "b", "shape": [2]',
                                   b'"shape": [3]}, {"dtype": "<f8", "name": "b", "shape": [1]'),
                    # the same bytes read as another type
                    intact.replace(b'"dtype": "<i8", "name": "d"', b'"dtype": "<f8", "name": "d"'),
                    intact.replace(b'"dtype": "|u1", "name": "c", "shape": [2]',
                                   b'"dtype": "<u2", "name": "c", "shape": [1]'),
                    intact.replace(b'"arrays_sha256"', b'"arrays_sha257"')):
        assert damaged != intact
        path.write_bytes(damaged)
        with pytest.raises(ValueError, match="differ from the checksum"):
            serialize.load_arrays(path, checksum=True)


def test_empty_array_of_a_shape_numpy_cannot_hold_is_named(tmp_path):
    # 0 bytes pass the truncation check, but numpy cannot index 2**62 columns
    path = tmp_path / "c.bin"
    header = {"kind": "test", "version": 1, "meta": {},
              "arrays": [{"name": "wide", "dtype": "<f8", "shape": [0, 2**62]}]}
    path.write_bytes(b"#plsa-container v1\n" + json.dumps(header).encode() + b"\n")
    with pytest.raises(ValueError, match=re.escape(f"{path}: array 'wide' has a shape beyond")):
        serialize.load_arrays(path)
