"""Corpus ingestion: tokenization, sparse count matrices, SMART-format
collections, relevance judgments, and reproducible held-out splits."""

import itertools
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass
from operator import itemgetter
from pathlib import Path

import numpy as np
import scipy.sparse

from . import serialize

_TOKEN_RE = re.compile(r"[^\W_]+")
# The ASCII characters outside _TOKEN_RE's class (\w is isalnum() plus '_'),
# each mapped to a space, so that splitting translated ASCII text on spaces
# gives the regex's tokens.
_ASCII_SEPARATORS = str.maketrans({c: " " for c in range(128) if not chr(c).isalnum()})
_SECTION_RE = re.compile(r"^\.([A-Z])(?:\s+(.*))?$")

# Sections whose content is concatenated into the document text; every other
# marker ends the current text section and its lines are skipped.
_TEXT_SECTIONS = frozenset("TABW")

_INT64_MAX = int(np.iinfo(np.int64).max)
_INT_RE = re.compile(r"[+-]?[0-9]+")
_DIMS_RE = re.compile(rb"#dims\t[^\r\n]*")
# suffixes numpy's DataSource decompresses when np.loadtxt opens a path
_NUMPY_DECOMPRESSES = frozenset({".bz2", ".gz", ".lzma", ".xz"})
_SAVE_BLOCK = 1 << 16  # rows formatted per write in CountMatrix.save
_PAD = 0xFF  # a byte that UTF-8 text never holds: the padding of byte tables
# documents mapped to term ids and counted per step in build_counts.  In
# perfbench's worker, where commands share one process and the heap one
# command leaves raises the next one's peak, large-em's peak_rss_mb read 181,
# 184, 187 and 190 MB at 256, 512, 1024 and 2048 documents a block, and its
# ingest_s 0.66, 0.72, 0.76 and 0.75 s (medians of 4 runs, seeds 611-614,
# 2-core host); it read 208-216 MB at 256-1024 when the cells were counted
# over the whole corpus at once.
_COUNT_BLOCK = 1 << 8
_CONTAINER_ARRAYS = ("shape", "rows", "row_starts", "term_ids", "counts")


class ParseError(ValueError):
    """A collection file violates the expected format."""

    def __init__(self, path, line_no, message):
        super().__init__(f"{path}:{line_no}: {message}")
        self.path = str(path)
        self.line_no = line_no


def tokenize(text: str, stopwords=None) -> list[str]:
    """Lowercase `text` and return its runs of Unicode letters and digits.

    `_` and every other character separate tokens.  Tokens found in
    `stopwords` are dropped; duplicates are kept for build_counts to count.
    ASCII text is split after one translate, about 2.5 times faster than the
    regex; on other text translate is the slower, so the regex runs.  The
    lowered text is tested: 'K' (KELVIN SIGN) lowers to ASCII 'k'.
    """
    lowered = text.lower()
    if lowered.isascii():
        tokens = lowered.translate(_ASCII_SEPARATORS).split()
    else:
        tokens = _TOKEN_RE.findall(lowered)
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def load_stopwords(path) -> set[str]:
    """Read a stop-word list, one word per line (lowercased, blanks skipped)."""
    return set(filter(None, (line.strip().lower() for line in _read_lines(path))))


def _read_lines(path) -> list[str]:
    """The lines of a UTF-8 text file, read at once and split in C, without
    their newlines (LF, CRLF or CR), blank lines included: item i is line
    i + 1.  A file that is not UTF-8 raises ParseError."""
    try:
        with open(path, encoding="utf-8") as f:
            text = f.read()
    except UnicodeDecodeError as exc:
        raise ParseError(path, 0, f"not UTF-8 text: {exc.reason}") from None
    lines = text.split("\n")
    if not lines[-1]:  # the final newline ends a line, it opens none
        lines.pop()
    return lines


def _save_id_table(path, values) -> None:
    """Write one `row<TAB>value` line per value, rows 0, 1, 2, ...: the
    layout of vocab.tsv and docids.tsv."""
    with open(path, "w", encoding="utf-8") as f:
        f.write("".join([f"{i}\t{value}\n" for i, value in enumerate(values)]))


def _load_id_table(path, kind: str) -> tuple[list[str], list[int]]:
    """The values of a file in `_save_id_table`'s layout and the line number
    of each.  Blank lines are skipped; every other line must be what the
    writer writes, checked in one pass of C-level splits.  Only a file that
    fails the check is walked line by line, to raise ParseError at its first
    line that differs: `kind` names the value there."""
    lines = _read_lines(path)
    rows = list(filter(None, lines))
    line_nos = list(itertools.compress(range(1, len(lines) + 1), lines))
    values = "\t".join(rows).split("\t")[1::2]
    written = [f"{i}\t{value}" for i, value in enumerate(values)]
    if written != rows:
        # the lines before the first bad one split into row and value pairs,
        # so their values and rows are right and the first mismatch is there
        bad = next((i for i, (w, r) in enumerate(zip(written, rows)) if w != r), len(written))
        raise ParseError(path, line_nos[bad], "rows must run 0, 1, 2, ... in order, in ASCII "
                                              f"decimal; expected '{bad}<TAB>{kind}'")
    return values, line_nos


@dataclass
class Vocabulary:
    """Term strings with dense 0-based ids assigned in first-seen order;
    `index` maps each term to its id."""

    terms: list[str]

    def __post_init__(self):
        self.index = {term: i for i, term in enumerate(self.terms)}
        if len(self.index) != len(self.terms):
            raise ValueError("vocabulary contains duplicate terms")

    def __len__(self) -> int:
        return len(self.terms)

    def save(self, path) -> None:
        """Write one `term_id<TAB>term` line per term."""
        _save_id_table(path, self.terms)

    @classmethod
    def load(cls, path) -> "Vocabulary":
        """Read what `save` writes; blank lines are skipped."""
        terms, _ = _load_id_table(path, "term")
        try:
            return cls(terms)
        except ValueError as exc:
            raise ParseError(path, 0, str(exc)) from None


@dataclass(frozen=True)
class CountMatrix:
    """Sparse N x M table of document/term co-occurrence counts.

    Entries are stored sorted by (doc_id, term_id), with no duplicate pairs
    and strictly positive counts.  Documents without any entry are legal:
    they keep their row so ids stay aligned with external judgments.  The
    entry arrays are kept as given when they are int64 already; the checks
    allocate a few bytes per entry, no array of int64 per entry.  The first
    sweep or scan of a matrix keeps its cell layout on it (`_cells`, see
    aspect_model._Cells.of), so the entry arrays are not to be changed in
    place after that.
    """

    n_docs: int
    n_terms: int
    doc_ids: np.ndarray
    term_ids: np.ndarray
    counts: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", np.asarray(self.doc_ids, dtype=np.int64))
        object.__setattr__(self, "term_ids", np.asarray(self.term_ids, dtype=np.int64))
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=np.int64))
        if self.n_docs < 1 or self.n_terms < 1:
            raise ValueError("count matrix needs at least one row and one column")
        if int(self.n_docs) * int(self.n_terms) > _INT64_MAX + 1:
            raise ValueError(f"a {self.n_docs} x {self.n_terms} matrix has cell keys beyond int64")
        if not (self.doc_ids.shape == self.term_ids.shape == self.counts.shape):
            raise ValueError("entry arrays must have identical shapes")
        if self.doc_ids.ndim != 1:
            raise ValueError("entry arrays must be one-dimensional")
        if self.nnz:
            if self.doc_ids.min() < 0 or self.doc_ids.max() >= self.n_docs:
                raise ValueError("doc_id out of range")
            if self.term_ids.min() < 0 or self.term_ids.max() >= self.n_terms:
                raise ValueError("term_id out of range")
            if self.counts.min() < 1:
                raise ValueError("counts must be >= 1")
            if not _ascending(self.doc_ids, self.term_ids):
                raise ValueError("entries must be sorted by (doc_id, term_id) with no duplicates")

    @property
    def nnz(self) -> int:
        return self.doc_ids.size

    @property
    def total(self) -> int:
        return int(self.counts.sum())

    def row_sums(self) -> np.ndarray:
        return np.bincount(self.doc_ids, weights=self.counts, minlength=self.n_docs).astype(np.int64)

    def col_sums(self) -> np.ndarray:
        return np.bincount(self.term_ids, weights=self.counts, minlength=self.n_terms).astype(np.int64)

    def to_dense(self, dtype=np.int64) -> np.ndarray:
        out = np.zeros((self.n_docs, self.n_terms), dtype=dtype)
        out[self.doc_ids, self.term_ids] = self.counts
        return out

    def to_csr(self) -> scipy.sparse.csr_matrix:
        return _csr(self.doc_ids, self.term_ids, self.counts.astype(np.float64),
                    (self.n_docs, self.n_terms))

    @classmethod
    def from_entries(cls, n_docs, n_terms, doc_ids, term_ids, counts) -> "CountMatrix":
        """Build from unordered entries; duplicates are rejected."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        term_ids = np.asarray(term_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        order = np.lexsort((term_ids, doc_ids))
        return cls(n_docs, n_terms, doc_ids[order], term_ids[order], counts[order])

    def save(self, path) -> str:
        """Write one `doc_id<TAB>term_id<TAB>count` triple per line and
        return the SHA-256 of the bytes written.

        A leading `#dims` comment records (N, M) so empty trailing rows and
        columns survive a round trip.
        """
        columns = (self.doc_ids, self.term_ids, self.counts)
        tables = (_decimal_table([c[lo:lo + _SAVE_BLOCK] for c in columns], b"\t\t\n")
                  for lo in range(0, self.nnz, _SAVE_BLOCK))
        return serialize.write_blocks(path, itertools.chain(
            [f"#dims\t{self.n_docs}\t{self.n_terms}\n".encode()], map(_unpadded, tables)))

    @classmethod
    def load(cls, path, record: dict | None = None) -> "CountMatrix":
        """Read sparse triples; duplicate cells are merged by summation.

        Dimensions come from the `#dims` header when present, else from the
        largest ids seen.  Data lines hold three whitespace-separated ASCII
        decimal integers with count >= 1; blank lines and lines starting with
        `#` are skipped.  A rejected file raises ParseError naming its first
        bad line.

        The counts container beside the file (`counts.bin` for `counts.tsv`,
        written by `_save_container`) is read in its place when it records
        the SHA-256 of the file's bytes; a missing or stale one is passed
        over.  One that records the digest but does not hold a valid matrix
        raises ParseError naming the container.  A dict `record` receives
        the file's SHA-256 ("sha256") and the path the matrix was read from
        ("read_from").
        """
        sha256 = serialize.file_sha256(path)
        container = _container_path(path)
        matrix = _load_container(container, sha256)
        if record is not None:
            record.update(sha256=sha256, read_from=str(path if matrix is None else container))
        if matrix is not None:
            return matrix
        dims, stray_hash = _scan_comments(path)
        columns = _read_columns(path)
        if (columns is None or stray_hash
                or (columns.size and (len(columns) != 3 or columns[2].min() < 1))):
            _check_lines(path)
            if columns is None:
                raise ParseError(path, 0, "unreadable count triples")
        if not columns.size:
            raise ParseError(path, 0, "no count entries found")
        doc_ids, term_ids, counts = columns
        if dims is None:
            dims = int(doc_ids.max()) + 1, int(term_ids.max()) + 1
        n_docs, n_terms = dims
        if _ascending(doc_ids, term_ids):  # what `save` writes: no sort, no merge
            entries = doc_ids, term_ids, counts
        else:
            order = np.lexsort((term_ids, doc_ids))
            doc_ids, term_ids = doc_ids[order], term_ids[order]
            first = np.ones(order.size, dtype=bool)
            first[1:] = (doc_ids[1:] != doc_ids[:-1]) | (term_ids[1:] != term_ids[:-1])
            starts = np.flatnonzero(first)
            merged, overflow = _run_sums(counts[order], starts)
            if overflow is not None:
                # lexsort is stable: the cell's rows are in file order
                bounds = np.append(starts, order.size)
                rows = order[bounds[overflow]:bounds[overflow + 1]].tolist()
                running = itertools.accumulate(int(counts[row]) for row in rows)
                row = next(row for row, total in zip(rows, running) if total > _INT64_MAX)
                line_no = next(itertools.islice(_data_lines(path), row, None))[0]
                cell = doc_ids[starts[overflow]], term_ids[starts[overflow]]
                raise ParseError(path, line_no,
                                 f"counts of cell ({cell[0]}, {cell[1]}) sum beyond int64")
            entries = doc_ids[starts], term_ids[starts], merged
        try:
            return cls(n_docs, n_terms, *entries)
        except ValueError as exc:
            raise ParseError(path, 0, str(exc)) from None


def _ascending(doc_ids: np.ndarray, term_ids: np.ndarray) -> bool:
    """Whether the cells (doc_ids[i], term_ids[i]) ascend strictly by doc
    and then term, from comparisons of adjacent ids held as booleans: two
    bytes per cell at most, where a key doc * n_terms + term and its diff
    would take int64 arrays."""
    later = doc_ids[1:] == doc_ids[:-1]
    later &= term_ids[1:] > term_ids[:-1]
    later |= doc_ids[1:] > doc_ids[:-1]
    return bool(later.all())


def _container_path(path) -> Path:
    """The counts container that mirrors the text file at `path`."""
    return Path(path).with_suffix(".bin")


def _save_container(counts: CountMatrix, path, source_sha256: str) -> str:
    """Write `counts` to `path` as the container that CountMatrix.load reads
    in place of the text whose SHA-256 is `source_sha256`, and return the
    container's SHA-256.  Each row that holds cells is stored as its id and
    the index of its first cell, so no array is sized by the row count; the
    header's checksum lets no damaged byte pass for the text's data."""
    first = np.ones(counts.nnz, dtype=bool)
    first[1:] = counts.doc_ids[1:] != counts.doc_ids[:-1]
    starts = np.flatnonzero(first)
    return serialize.save_arrays(path, "counts", {
        "shape": [counts.n_docs, counts.n_terms], "rows": counts.doc_ids[starts],
        "row_starts": starts, "term_ids": counts.term_ids, "counts": counts.counts,
    }, meta={"source_sha256": source_sha256}, checksum=True)


def _load_container(path: Path, source_sha256: str) -> CountMatrix | None:
    """The matrix of the counts container at `path` if it records
    `source_sha256`; None if it is missing or records no such digest."""
    if not path.exists():
        return None
    try:
        arrays = serialize.load_arrays(path, "counts", _CONTAINER_ARRAYS,
                                       meta={"source_sha256": source_sha256}, checksum=True)
        if arrays is None:
            return None
        shape, rows, starts, term_ids, counts = (arrays[name] for name in _CONTAINER_ARRAYS)
        if shape.shape != (2,):
            raise ValueError("shape must hold the row and column counts")
        if not term_ids.size:  # as the text reader, which finds no entries
            raise ValueError("no count entries found")
        if rows.shape != starts.shape or starts.ndim != 1 or starts[:1].any():
            raise ValueError("rows and row_starts must be lists of one length, from row start 0")
        lengths = np.diff(starts, append=term_ids.size)
        if (lengths < 0).any():  # else the lengths add up to term_ids.size
            raise ValueError("row_starts must not fall or pass the entry count")
        return CountMatrix(*shape.tolist(), np.repeat(rows, lengths), term_ids, counts)
    except ValueError as exc:  # load_arrays's messages name the file already
        raise ParseError(path, 0, str(exc).removeprefix(f"{path}: ")) from None


def _csr(rows: np.ndarray, cols: np.ndarray, values: np.ndarray, shape) -> scipy.sparse.csr_matrix:
    """The CSR matrix of `values` at the cells (rows[i], cols[i]), which are
    sorted by row and then column and do not repeat: its row starts come
    from one searchsorted, with no COO stage and no sort."""
    starts = np.searchsorted(rows, np.arange(shape[0] + 1))
    return scipy.sparse.csr_matrix((values, cols, starts), shape=shape)


def _decimal_table(columns, ends: bytes) -> np.ndarray:
    """Decimal text of rows of non-negative int64 `columns` as a byte table,
    one row per row of `columns`: each value right-aligned, its leading zeros
    _PAD bytes, and followed by its byte of `ends`."""
    widths = [len(str(int(values.max()))) for values in columns]
    table = np.empty((columns[0].size, sum(widths) + len(columns)), dtype=np.uint8)
    start = 0
    for values, width, end in zip(columns, widths, ends):
        if width <= 9:  # below 2**32: numpy divides uint32 by a constant many times faster
            values = values.astype(np.uint32)
        for pos in range(start + width - 1, start - 1, -1):  # the last digit first
            quotient = values // 10  # np.divmod takes no such fast path
            table[:, pos] = values - quotient * 10 + ord("0")
            if pos < start + width - 1:  # a digit before the last is a leading zero
                np.copyto(table[:, pos], _PAD, where=values == 0)
            values = quotient
        table[:, start + width] = end
        start += width + 1
    return table


def _unpadded(table: np.ndarray) -> bytes:
    """The bytes of a byte table, row after row, without its _PAD bytes."""
    return table.tobytes().translate(None, bytes([_PAD]))


def _scan_comments(path):
    """The (n_docs, n_terms) of the file's `#dims` line, or None, and whether
    some '#' does not open its line: it may trail data, which numpy would
    take for a comment, so the caller checks such a file line by line."""
    with open(path, "rb") as f:
        raw = f.read()
    data = np.frombuffer(raw, dtype=np.uint8)
    hashes = np.flatnonzero(data == ord("#"))
    stray_hash = bool((data[hashes[hashes > 0] - 1] != ord("\n")).any())
    return _dims_header(path, raw), stray_hash


def _read_columns(path):
    """The integers of every data line, parsed by numpy in C, as one int64
    array of columns; None if numpy rejects the text."""
    source = os.path.abspath(path)  # absolute: DataSource never sees a URL
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", UserWarning)  # a file without data
            if os.path.splitext(source)[1] in _NUMPY_DECOMPRESSES:
                with open(path, encoding="utf-8") as f:  # slower, read as is
                    table = np.loadtxt(f, dtype=np.int64, comments="#", ndmin=2)
            else:
                table = np.loadtxt(source, dtype=np.int64, comments="#", ndmin=2,
                                   encoding="utf-8")
    except ValueError:
        return None
    return table.T.copy()


def _dims_header(path, raw: bytes):
    """(n_docs, n_terms) from the last `#dims<TAB>N<TAB>M` line, or None."""
    dims = None
    for m in _DIMS_RE.finditer(raw):
        start = max(raw.rfind(b"\n", 0, m.start()), raw.rfind(b"\r", 0, m.start())) + 1
        parts = raw[start:m.end()].decode("utf-8", "replace").strip().split("\t")
        if parts[0] == "#dims" and len(parts) == 3:
            try:
                dims = int(parts[1]), int(parts[2])
            except ValueError:
                head = raw[:start]
                line_no = head.count(b"\n") + head.count(b"\r") - head.count(b"\r\n") + 1
                raise ParseError(path, line_no, "'#dims' needs two integers") from None
    return dims


def _data_lines(path):
    """(line number, stripped text) of each line neither blank nor a comment."""
    for line_no, line in enumerate(_read_lines(path), 1):
        line = line.strip()
        if line and not line.startswith("#"):
            yield line_no, line


def _check_lines(path) -> None:
    """Raise ParseError at the first data line outside the grammar.  This
    second pass over the text runs only for a file already found at fault."""
    for line_no, line in _data_lines(path):
        parts = line.split()
        if len(parts) != 3:
            raise ParseError(path, line_no, "expected 'doc_id term_id count'")
        if not all(_INT_RE.fullmatch(p) for p in parts):
            raise ParseError(path, line_no, "doc_id, term_id and count must be integers")
        values = [int(p) for p in parts]
        if not all(-_INT64_MAX - 1 <= v <= _INT64_MAX for v in values):
            raise ParseError(path, line_no, "integer beyond the int64 range")
        if values[2] < 1:
            raise ParseError(path, line_no, "count must be >= 1")


def _run_sums(values: np.ndarray, starts: np.ndarray):
    """Sums of `values` (all >= 1) over the runs that begin at `starts`, and
    the index of the first run whose sum passes int64, else None.  The 32-bit
    halves are summed apart, so the test is exact."""
    high = np.add.reduceat(values >> 32, starts)
    low = np.add.reduceat(values & 0xFFFFFFFF, starts)
    high += low >> 32
    over = np.flatnonzero(high >> 31)
    if over.size:
        return None, int(over[0])
    return (high << 32) | (low & 0xFFFFFFFF), None


def build_counts(docs) -> tuple[Vocabulary, CountMatrix]:
    """Count term occurrences per document of any iterable of token lists,
    taken `_COUNT_BLOCK` documents at a time.

    Term ids are assigned in first-seen order across the corpus.  Documents
    with no tokens are retained as empty rows.  Each block's cells are
    counted as soon as its tokens are mapped to ids, so no array spans the
    corpus's tokens: the blocks hold ascending, disjoint row ranges, and
    their sorted cells are appended in (doc, term) order to term and count
    columns grown in place.  One block's token strings are alive at a time.
    """
    index = defaultdict()
    index.default_factory = index.__len__  # a new term takes the next id
    row_cells, docs = [], iter(docs)
    term_ids, counts, nnz = np.empty(0, np.int64), np.empty(0, np.int64), 0
    try:
        while block := list(itertools.islice(docs, _COUNT_BLOCK)):
            lengths = list(map(len, block))
            keys = np.fromiter(map(index.__getitem__, itertools.chain.from_iterable(block)),
                               np.int64, sum(lengths))
            del block  # its tokens are freed before the next block's are made
            # the cell key of each token: its row within the block times the
            # terms seen so far (one at least, for blocks before the first
            # token), plus its term
            keys += np.repeat(np.arange(len(lengths)) * len(index), lengths)
            cells = _count_cells(len(lengths), max(len(index), 1), keys)
            # each of the block's arrays is freed once used: kept to the next
            # block, they raised large-em's worker peak_rss_mb by 2-3 MB and
            # its ingest_s from 0.65 to 0.75-0.8 s (seeds 801-802)
            del keys
            end = nnz + cells.nnz
            if end > counts.size:  # grown by half, in place where realloc can
                term_ids.resize(max(end, counts.size * 3 // 2), refcheck=False)
                counts.resize(term_ids.size, refcheck=False)
            term_ids[nnz:end], counts[nnz:end] = cells.term_ids, cells.counts
            row_cells.append(np.bincount(cells.doc_ids, minlength=len(lengths)))
            nnz = end
            del cells
    finally:
        index.default_factory = None  # a cycle through its own method kept it until a full gc
    if not index:
        raise ValueError("all documents are empty; nothing to count")
    term_ids.resize(nnz, refcheck=False)
    counts.resize(nnz, refcheck=False)
    row_cells = np.concatenate(row_cells)
    doc_ids = np.repeat(np.arange(row_cells.size), row_cells)
    return Vocabulary(list(index)), CountMatrix(row_cells.size, len(index), doc_ids, term_ids,
                                                counts)


def _count_cells(n_rows: int, n_terms: int, keys: np.ndarray) -> CountMatrix:
    """The CountMatrix of occurrences at the cell keys row * n_terms + term,
    one per token."""
    keys, counts = np.unique(keys, return_counts=True)
    return CountMatrix(n_rows, n_terms, *np.divmod(keys, n_terms), counts)


@dataclass(frozen=True)
class SplitPair:
    """A train/held-out partition of individual token occurrences.

    The two matrices share the source dimensions and their cell-wise sum
    reproduces the source exactly.  For large totals the held-out share
    concentrates tightly around the requested fraction.
    """

    train: CountMatrix
    heldout: CountMatrix


def split_heldout(counts: CountMatrix, fraction: float, seed: int) -> SplitPair:
    """Assign each token occurrence to the held-out side with probability
    `fraction`, independently, using a deterministic seeded generator.

    A cell's count can end up split between the two sides.  The draws are
    the one per-cell array beside the two sides: the held-out side is taken
    from them first, and then they are turned into the kept counts in place.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    held = rng.binomial(counts.counts, fraction)
    heldout = _select_entries(counts, held)
    train = _select_entries(counts, np.subtract(counts.counts, held, out=held))
    return SplitPair(train=train, heldout=heldout)


def _select_entries(counts: CountMatrix, new_counts: np.ndarray) -> CountMatrix:
    keep = new_counts > 0
    return CountMatrix(
        counts.n_docs, counts.n_terms,
        counts.doc_ids[keep], counts.term_ids[keep], new_counts[keep],
    )


def parse_smart_collection(path) -> tuple[list[str], list[str]]:
    """Parse a SMART collection or query file into the `.I` ids of its
    records and their texts, in file order.

    Records start at `.I <id>` lines.  The `.W` body plus any `.T`, `.A`
    and `.B` sections are concatenated into the record text; other sections
    are skipped.  A file that is not UTF-8 raises ParseError.
    """
    ids: list[str] = []
    parts: list[list[str]] = []  # the text lines of each record
    in_text = False
    for line_no, line in enumerate(_read_lines(path), 1):
        m = _SECTION_RE.match(line)
        if m:
            tag, rest = m.group(1), m.group(2)
            if tag == "I":
                if rest is None or not rest.strip():
                    raise ParseError(path, line_no, "'.I' marker without an id")
                if len(rest.split()) > 1:  # run.txt and qrels split their lines there
                    raise ParseError(path, line_no, f"id {rest.strip()!r} holds whitespace")
                ids.append(rest.strip())
                parts.append([])
                in_text = False
            else:
                if not ids:
                    raise ParseError(path, line_no, f"section '.{tag}' before any '.I' record")
                in_text = tag in _TEXT_SECTIONS
                if in_text and rest and rest.strip():
                    parts[-1].append(rest.strip())
        else:
            if not ids:
                if line.strip():
                    raise ParseError(path, line_no, "content before the first '.I' marker")
                continue
            if in_text:
                parts[-1].append(line)
    return ids, ["\n".join(p).strip() for p in parts]


def parse_qrels(path) -> dict[str, set[str]]:
    """Parse relevance judgments into query_id -> set of relevant doc ids.

    The native layout is `query_id doc_id` with extra columns ignored.  When
    every line has at least four columns and a constant '0' second column,
    the classic `query_id 0 doc_id grade` layout is assumed and the doc id is
    taken from the third column.  Duplicate pairs collapse.
    """
    rows = list(map(str.split, _read_lines(path)))
    widths = list(map(len, rows))
    if 1 in widths:
        raise ParseError(path, widths.index(1) + 1, "expected at least 'query_id doc_id'")
    rows = list(filter(None, rows))
    if not rows:
        raise ParseError(path, 0, "no judgment pairs found")
    trec_layout = min(map(len, rows)) >= 4 and set(map(itemgetter(1), rows)) == {"0"}
    judgments: dict[str, set[str]] = defaultdict(set)
    for query, doc in map(itemgetter(0, 2 if trec_layout else 1), rows):
        judgments[query].add(doc)
    return dict(judgments)
