"""Versioned binary container for parameter blocks.

Layout: a magic line, one JSON header line (container kind, version, array
manifest and a "meta" object of JSON values), then the arrays' raw
little-endian bytes in manifest order.  Writing the same data always
produces the same bytes, which lets reruns of a seeded command be compared
file-for-file.
"""

import hashlib
import json
import math
import os

import numpy as np

_MAGIC = b"#plsa-container v1\n"
_VERSION = 1
# save_arrays stores an integer array with no negative value in the first of
# these that holds its maximum, any other as int64; load_arrays reads every
# integer array back as int64
_UNSIGNED = ("|u1", "<u2", "<u4")
_DTYPES = ("<f8", "<i8", *_UNSIGNED)  # the only dtypes save_arrays writes


def save_arrays(path, kind: str, arrays: dict, meta: dict | None = None,
                checksum: bool = False) -> str:
    """Write named arrays to `path` under the given container kind, with
    `meta` in the header, and return the SHA-256 of the bytes written.
    Floats are stored as float64.  An integer array with no negative value
    is stored in the narrowest of 1, 2 and 4 unsigned bytes that holds its
    maximum, any other as int64.  An array already in the dtype it is
    stored in is written from its own buffer, without a copy.  With `checksum`,
    the meta also holds the SHA-256 of the array manifest and bytes
    ("arrays_sha256"), which load_arrays checks."""
    entries = []
    blocks = []
    for name, arr in arrays.items():
        a = np.ascontiguousarray(arr)
        if a.dtype.kind == "f":
            a = np.ascontiguousarray(a, dtype="<f8")
        elif a.dtype.kind in "iu":
            a = np.ascontiguousarray(a, dtype=_integer_dtype(a))
        else:
            raise TypeError(f"array {name!r} has unsupported dtype {a.dtype}")
        entries.append({"name": name, "dtype": a.dtype.str, "shape": list(a.shape)})
        blocks.append(a)
    meta = dict(meta or {})
    if checksum:
        meta["arrays_sha256"] = _arrays_digest(entries, blocks).hexdigest()
    header = {"kind": kind, "version": _VERSION, "meta": meta, "arrays": entries}
    line = json.dumps(header, sort_keys=True).encode("utf-8") + b"\n"
    return write_blocks(path, [_MAGIC, line, *blocks])


def _integer_dtype(a: np.ndarray) -> str:
    """The dtype save_arrays stores the integer array `a` in."""
    if a.min(initial=0) >= 0:
        top = a.max(initial=0)
        for dtype in _UNSIGNED:
            if top <= np.iinfo(dtype).max:
                return dtype
    return "<i8"


def write_blocks(path, blocks) -> str:
    """Write an iterable of bytes-like blocks to `path` in order and return
    the SHA-256 of the bytes written."""
    digest = hashlib.sha256()
    with open(path, "wb") as f:
        for block in blocks:
            digest.update(block)
            f.write(block)
    return digest.hexdigest()


def file_sha256(path) -> str:
    """The SHA-256 of a file's bytes, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as f:
        for block in iter(lambda: f.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def load_arrays(path, kind: str | None = None, names=(), meta: dict | None = None,
                checksum: bool = False, record: dict | None = None) -> dict | None:
    """Read a container back as {name: array}.

    If `kind` is given, the stored kind must match; every name in `names`
    must be among the stored arrays.  A corrupt file raises ValueError.  If
    `meta` is given, the file is read only if its header shows every item of
    `meta` in its own: for any other file, a container or not, None is
    returned.  With `checksum`, the arrays must match the checksum that
    save_arrays wrote, which cover the bytes as stored.  A dict `record`
    receives the SHA-256 of the file's bytes.  Integer arrays are returned
    as int64, whatever width they are stored in: np.diff of an unsigned
    array would wrap where int64 goes negative.
    """
    with open(path, "rb") as f:
        magic = f.readline()
        line = f.readline() if magic == _MAGIC else b""
        header = _json(line)
        if meta is not None and not _shows(header, meta):
            return None
        if magic != _MAGIC:
            raise ValueError(f"{path}: not a plsa container file")
        _check_header(path, header)
        if header.get("version") != _VERSION:
            raise ValueError(f"{path}: unsupported container version {header.get('version')}")
        if kind is not None and header.get("kind") != kind:
            raise ValueError(f"{path}: expected container kind {kind!r}, found {header.get('kind')!r}")
        digest = hashlib.sha256(magic + line) if record is not None else None
        check = _arrays_digest(header["arrays"]) if checksum else None
        remaining = os.fstat(f.fileno()).st_size - f.tell()
        arrays = {}
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            n_bytes = dtype.itemsize * math.prod(entry["shape"])
            if n_bytes > remaining:  # checked before np.empty allocates n_bytes
                raise ValueError(f"{path}: truncated container (array {entry['name']!r})")
            remaining -= n_bytes
            try:  # an empty array may still have more elements than numpy can index
                a = np.empty(entry["shape"], dtype=dtype)
            except ValueError:
                raise ValueError(f"{path}: array {entry['name']!r} has a shape beyond numpy's "
                                 f"limits: {entry['shape']}") from None
            if f.readinto(a.reshape(-1).view(np.uint8)) != n_bytes:
                raise ValueError(f"{path}: truncated container (array {entry['name']!r})")
            for hashed in (digest, check):
                if hashed is not None:
                    hashed.update(a)
            if dtype.kind == "u":
                a = a.astype(np.int64)  # the narrow buffer is freed here
            arrays[entry["name"]] = a
        if check is not None and check.hexdigest() != header.get("meta", {}).get("arrays_sha256"):
            raise ValueError(f"{path}: arrays differ from the checksum in the header")
        if digest is not None:
            for block in iter(lambda: f.read(1 << 20), b""):  # bytes past the arrays
                digest.update(block)
            record["sha256"] = digest.hexdigest()
    missing = [name for name in names if name not in arrays]
    if missing:
        raise ValueError(f"{path}: container lacks arrays {missing}")
    return arrays


def _arrays_digest(entries: list, blocks=()):
    """A SHA-256 object fed the array manifest, as canonical JSON, then `blocks`."""
    digest = hashlib.sha256(json.dumps(entries, sort_keys=True).encode("utf-8"))
    for block in blocks:
        digest.update(block)
    return digest


def _json(line: bytes):
    """The JSON value of a header line; None if it is not JSON in UTF-8."""
    try:
        return json.loads(line.decode("utf-8"))
    except ValueError:
        return None


def _shows(header, meta: dict) -> bool:
    """Whether `header` is an object whose "meta" object holds every item of `meta`."""
    stored = header.get("meta") if isinstance(header, dict) else None
    return isinstance(stored, dict) and all(stored.get(k) == v for k, v in meta.items())


def _check_header(path, header) -> None:
    """Raise ValueError unless the header holds what load_arrays reads from it."""
    if (not isinstance(header, dict) or not isinstance(header.get("arrays"), list)
            or not isinstance(header.get("meta", {}), dict)):
        raise ValueError(f"{path}: corrupt container header")
    for i, entry in enumerate(header["arrays"]):
        if not (isinstance(entry, dict)
                and isinstance(entry.get("name"), str)
                and entry.get("dtype") in _DTYPES
                and isinstance(entry.get("shape"), list)
                and all(type(n) is int and n >= 0 for n in entry["shape"])):
            raise ValueError(f"{path}: corrupt entry {i} in the container header")
