"""Corpus ingestion: tokenization, sparse count matrices, SMART-format
collections, relevance judgments, and reproducible held-out splits."""

import itertools
import os
import re
import warnings
from collections import defaultdict
from dataclasses import dataclass

import numpy as np
import scipy.sparse

_TOKEN_RE = re.compile(r"[^\W_]+")
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
_COUNT_BLOCK = 1 << 10  # documents mapped to term ids per step in build_counts


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
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def load_stopwords(path) -> set[str]:
    """Read a stop-word list, one word per line (lowercased, blanks skipped)."""
    words = set()
    for _, line in _text_lines(path):
        word = line.strip().lower()
        if word:
            words.add(word)
    return words


def _text_lines(path):
    """Enumerate the lines of a UTF-8 text file from 1.  A file that is not
    UTF-8 raises ParseError."""
    try:
        with open(path, encoding="utf-8") as f:
            yield from enumerate(f, 1)
    except UnicodeDecodeError as exc:  # its offset counts from a read chunk
        raise ParseError(path, 0, f"not UTF-8 text: {exc.reason}") from None


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
        with open(path, "w", encoding="utf-8") as f:
            for i, term in enumerate(self.terms):
                f.write(f"{i}\t{term}\n")

    @classmethod
    def load(cls, path) -> "Vocabulary":
        terms = []
        for line_no, line in _text_lines(path):
            line = line.rstrip("\n")
            if not line:
                continue
            parts = line.split("\t")
            if len(parts) != 2 or not _INT_RE.fullmatch(parts[0]):
                raise ParseError(path, line_no, "expected 'term_id<TAB>term', an ASCII decimal id")
            if int(parts[0]) != len(terms):
                raise ParseError(path, line_no, f"term ids must be dense, expected {len(terms)}")
            terms.append(parts[1])
        try:
            return cls(terms)
        except ValueError as exc:
            raise ParseError(path, 0, str(exc)) from None


@dataclass(frozen=True)
class CountMatrix:
    """Sparse N x M table of document/term co-occurrence counts.

    Entries are stored sorted by (doc_id, term_id), with no duplicate pairs
    and strictly positive counts.  Documents without any entry are legal:
    they keep their row so ids stay aligned with external judgments.
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
            key = self.doc_ids * self.n_terms + self.term_ids
            if not np.all(np.diff(key) > 0):
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

    def to_dense(self) -> np.ndarray:
        out = np.zeros((self.n_docs, self.n_terms), dtype=np.int64)
        out[self.doc_ids, self.term_ids] = self.counts
        return out

    def to_csr(self) -> scipy.sparse.csr_matrix:
        return scipy.sparse.csr_matrix(
            (self.counts.astype(np.float64), (self.doc_ids, self.term_ids)),
            shape=(self.n_docs, self.n_terms),
        )

    @classmethod
    def from_entries(cls, n_docs, n_terms, doc_ids, term_ids, counts) -> "CountMatrix":
        """Build from unordered entries; duplicates are rejected."""
        doc_ids = np.asarray(doc_ids, dtype=np.int64)
        term_ids = np.asarray(term_ids, dtype=np.int64)
        counts = np.asarray(counts, dtype=np.int64)
        order = np.lexsort((term_ids, doc_ids))
        return cls(n_docs, n_terms, doc_ids[order], term_ids[order], counts[order])

    def save(self, path) -> None:
        """Write one `doc_id<TAB>term_id<TAB>count` triple per line.

        A leading `#dims` comment records (N, M) so empty trailing rows and
        columns survive a round trip.
        """
        with open(path, "wb") as f:
            f.write(f"#dims\t{self.n_docs}\t{self.n_terms}\n".encode())
            for lo in range(0, self.nnz, _SAVE_BLOCK):
                columns = [c[lo:lo + _SAVE_BLOCK] for c in (self.doc_ids, self.term_ids, self.counts)]
                f.write(_decimal_rows(columns, b"\t\t\n"))

    @classmethod
    def load(cls, path, n_docs=None, n_terms=None) -> "CountMatrix":
        """Read sparse triples; duplicate cells are merged by summation.

        Dimensions come from the `#dims` header when present, else from
        explicit arguments, else from the largest ids seen.  Data lines hold
        three whitespace-separated ASCII decimal integers with count >= 1;
        blank lines and lines starting with `#` are skipped.  A rejected
        file raises ParseError naming its first bad line.
        """
        dims, stray_hash = _scan_comments(path)
        if dims is not None:
            n_docs, n_terms = dims
        columns = _read_columns(path)
        if (columns is None or stray_hash
                or (columns.size and (len(columns) != 3 or columns[2].min() < 1))):
            _check_lines(path)
            if columns is None:
                raise ParseError(path, 0, "unreadable count triples")
        if not columns.size:
            raise ParseError(path, 0, "no count entries found")
        doc_ids, term_ids, counts = columns
        if n_docs is None:
            n_docs = int(doc_ids.max()) + 1
        if n_terms is None:
            n_terms = int(term_ids.max()) + 1
        ascending = (doc_ids[1:] > doc_ids[:-1]) | (
            (doc_ids[1:] == doc_ids[:-1]) & (term_ids[1:] > term_ids[:-1]))
        if ascending.all():  # what `save` writes: no sort, no merge
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


def _decimal_rows(columns, ends: bytes) -> np.ndarray:
    """Decimal text of rows of non-negative int64 `columns`, each value followed
    by its byte of `ends`."""
    table, keep = _decimal_table(columns, ends)
    return table[keep]


def _decimal_table(columns, ends: bytes):
    """The bytes of _decimal_rows as a table, one row per row of `columns`, with
    right-aligned digits, and the mask of bytes that are not leading zeros."""
    widths = [len(str(int(values.max()))) for values in columns]
    table = np.empty((columns[0].size, sum(widths) + len(columns)), dtype=np.uint8)
    keep = np.ones(table.shape, dtype=bool)
    start = 0
    for values, width, end in zip(columns, widths, ends):
        keep[:, start:start + width - 1] = values[:, None] >= 10 ** np.arange(width - 1, 0, -1)
        for pos in range(start + width - 1, start - 1, -1):
            values, table[:, pos] = np.divmod(values, 10)
        table[:, start:start + width] += ord("0")
        table[:, start + width] = end
        start += width + 1
    return table, keep


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
    for line_no, line in _text_lines(path):
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
    with no tokens are retained as empty rows.
    """
    index = defaultdict()
    index.default_factory = index.__len__  # a new term takes the next id
    rows, terms, n_docs, docs = [], [], 0, iter(docs)
    while block := list(itertools.islice(docs, _COUNT_BLOCK)):
        lengths = list(map(len, block))
        flat = itertools.chain.from_iterable(block)
        terms.append(np.fromiter(map(index.__getitem__, flat), np.int64, sum(lengths)))
        rows.append(np.repeat(np.arange(n_docs, n_docs + len(block)), lengths))
        n_docs += len(block)
    if not index:
        raise ValueError("all documents are empty; nothing to count")
    rows, terms = np.concatenate(rows), np.concatenate(terms)  # frees the blocks' arrays
    return Vocabulary(list(index)), _count_cells(n_docs, len(index), rows, terms)


def _count_cells(n_rows: int, n_terms: int, rows: np.ndarray, terms: np.ndarray) -> CountMatrix:
    """The CountMatrix of occurrence pairs (rows[i], terms[i]), one per token."""
    keys, counts = np.unique(rows * n_terms + terms, return_counts=True)
    return CountMatrix(n_rows, n_terms, keys // n_terms, keys % n_terms, counts)


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

    A cell's count can end up split between the two sides.
    """
    if not 0.0 < fraction < 1.0:
        raise ValueError(f"fraction must be in (0, 1), got {fraction}")
    rng = np.random.default_rng(seed)
    held = rng.binomial(counts.counts, fraction)
    kept = counts.counts - held
    train = _select_entries(counts, kept)
    heldout = _select_entries(counts, held)
    return SplitPair(train=train, heldout=heldout)


def _select_entries(counts: CountMatrix, new_counts: np.ndarray) -> CountMatrix:
    keep = new_counts > 0
    return CountMatrix(
        counts.n_docs, counts.n_terms,
        counts.doc_ids[keep], counts.term_ids[keep], new_counts[keep],
    )


@dataclass(frozen=True)
class SmartRecord:
    """One record of a SMART-format file: the `.I` id and its text."""

    id: str
    text: str


def parse_smart_collection(path) -> list[SmartRecord]:
    """Parse a SMART collection or query file.

    Records start at `.I <id>` lines.  The `.W` body plus any `.T`, `.A`
    and `.B` sections are concatenated into the record text; other sections
    are skipped.  Records appear in file order.  A file that is not UTF-8
    raises ParseError.
    """
    records: list[SmartRecord] = []
    cur_id = None
    cur_parts: list[str] = []
    in_text = False

    def flush():
        if cur_id is not None:
            records.append(SmartRecord(cur_id, "\n".join(cur_parts).strip()))

    for line_no, raw in _text_lines(path):
        line = raw.rstrip("\n")
        m = _SECTION_RE.match(line)
        if m:
            tag, rest = m.group(1), m.group(2)
            if tag == "I":
                flush()
                if rest is None or not rest.strip():
                    raise ParseError(path, line_no, "'.I' marker without an id")
                cur_id = rest.strip()
                cur_parts = []
                in_text = False
            else:
                if cur_id is None:
                    raise ParseError(path, line_no, f"section '.{tag}' before any '.I' record")
                in_text = tag in _TEXT_SECTIONS
                if in_text and rest and rest.strip():
                    cur_parts.append(rest.strip())
        else:
            if cur_id is None:
                if line.strip():
                    raise ParseError(path, line_no, "content before the first '.I' marker")
                continue
            if in_text:
                cur_parts.append(line)
    flush()
    return records


def parse_qrels(path) -> dict[str, set[str]]:
    """Parse relevance judgments into query_id -> set of relevant doc ids.

    The native layout is `query_id doc_id` with extra columns ignored.  When
    every line has at least four columns and a constant '0' second column,
    the classic `query_id 0 doc_id grade` layout is assumed and the doc id is
    taken from the third column.  Duplicate pairs collapse.
    """
    rows: list[list[str]] = []
    for line_no, line in _text_lines(path):
        parts = line.split()
        if not parts:
            continue
        if len(parts) < 2:
            raise ParseError(path, line_no, "expected at least 'query_id doc_id'")
        rows.append(parts)
    if not rows:
        raise ParseError(path, 0, "no judgment pairs found")
    trec_layout = all(len(p) >= 4 and p[1] == "0" for p in rows)
    doc_col = 2 if trec_layout else 1
    judgments: dict[str, set[str]] = {}
    for parts in rows:
        judgments.setdefault(parts[0], set()).add(parts[doc_col])
    return judgments
