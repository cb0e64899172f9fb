"""Versioned binary container for parameter blocks.

Layout: a magic line, one JSON header line (container kind, version, array
manifest and an empty "meta" object), then the arrays' raw little-endian
bytes in manifest order.  Writing the same data always produces the same
bytes, which lets reruns of a seeded command be compared file-for-file.
"""

import json
import math
import os

import numpy as np

_MAGIC = b"#plsa-container v1\n"
_VERSION = 1
_DTYPES = ("<f8", "<i8")  # the only dtypes save_arrays writes


def save_arrays(path, kind: str, arrays: dict) -> None:
    """Write named arrays to `path` under the given container kind."""
    entries = []
    blobs = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.dtype.kind == "f":
            a = np.ascontiguousarray(a, dtype="<f8")
        elif a.dtype.kind in "iu":
            a = np.ascontiguousarray(a, dtype="<i8")
        else:
            raise TypeError(f"array {name!r} has unsupported dtype {a.dtype}")
        entries.append({"name": name, "dtype": a.dtype.str, "shape": list(a.shape)})
        blobs.append(a.tobytes())
    header = {"kind": kind, "version": _VERSION, "meta": {}, "arrays": entries}
    with open(path, "wb") as f:
        f.write(_MAGIC)
        f.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        f.write(b"\n")
        for blob in blobs:
            f.write(blob)


def load_arrays(path, kind: str | None = None, names=()) -> dict:
    """Read a container back as {name: array}.

    If `kind` is given, the stored kind must match; every name in `names`
    must be among the stored arrays.  A corrupt file raises ValueError.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a plsa container file")
        header = _parse_header(path, f.readline())
        if header.get("version") != _VERSION:
            raise ValueError(f"{path}: unsupported container version {header.get('version')}")
        if kind is not None and header.get("kind") != kind:
            raise ValueError(f"{path}: expected container kind {kind!r}, found {header.get('kind')!r}")
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        arrays = {}
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            shape = tuple(entry["shape"])
            n_bytes = dtype.itemsize * math.prod(shape)
            if n_bytes > remaining:  # checked before read() allocates n_bytes
                raise ValueError(f"{path}: truncated container (array {entry['name']!r})")
            remaining -= n_bytes
            arrays[entry["name"]] = np.frombuffer(f.read(n_bytes), dtype=dtype).reshape(shape).copy()
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ValueError(f"{path}: container lacks arrays {missing}")
    return arrays


def _parse_header(path, line: bytes) -> dict:
    """The JSON header line, checked to hold what load_arrays reads from it."""
    try:
        header = json.loads(line.decode("utf-8"))
    except ValueError:  # not JSON, or not UTF-8
        header = None
    if not isinstance(header, dict) or not isinstance(header.get("arrays"), list):
        raise ValueError(f"{path}: corrupt container header")
    for i, entry in enumerate(header["arrays"]):
        if not (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and entry.get("dtype") in _DTYPES
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise ValueError(f"{path}: corrupt entry {i} in the container header")
    return header
