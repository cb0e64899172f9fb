"""The aspect model: a latent-class decomposition of a document/term
co-occurrence table.

A model with K factors holds a prior over factors together with
factor-conditional distributions over documents and over words.  The joint
cell probability is P(d,w) = sum_z P(z) P(d|z) P(w|z).  Everything asymmetric
(P(d), P(z|d), P(w|d)) is derived from these three blocks by Bayes' rule so
there is a single source of truth.
"""

import bisect
import copy
import itertools
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.special import logsumexp

from . import serialize
from .corpus import CountMatrix, _csr

PROB_FLOOR = 1e-12
LOG_FLOOR = float(np.log(PROB_FLOOR))

_NORM_TOL = 1e-10
_CHUNK_CELLS = 1 << 22
# Bytes of the document rows that _sddmm gathers per chunk of its plan.  On
# the seed-1 train splits of perfbench's workloads (2-core Xeon, 2 MB L2 per
# core; medians of 11-31 interleaved calls) one SDDMM took, at 256, 384 and
# 512 KiB: 6.3, 5.9 and 6.4 ms on med-query at K = 32; 9.3, 8.8 and 9.7 ms
# at K = 48; 21.6, 20.1 and 20.5 ms on med-tem at K = 128; and 81.3, 78.5
# and 79.4 ms on large-em at K = 32.  Smaller chunks pay numpy's per-call
# overhead on more chunks, larger ones leave the cache.
_PLAN_BYTES = 3 << 17
# cells per take of S back to the cells' order: take copies its int32 ids
# to intp, so the copy stays this small
_TAKE_STEP = 1 << 16
# S_beta below this takes the log-domain path; above it, terms > 1e-100 of S are normal
_UNDERFLOW = 1e-200


class DegeneracyError(RuntimeError):
    """A probability computation has no valid normalization."""


@dataclass(frozen=True)
class AspectModel:
    """Symmetric parameter set of a K-factor aspect model.

    prior        : (K,)   P(z)
    doc_given_z  : (N, K) column k is the distribution P(.|z_k) over documents
    word_given_z : (M, K) column k is the distribution P(.|z_k) over words
    """

    prior: np.ndarray
    doc_given_z: np.ndarray
    word_given_z: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "prior", np.ascontiguousarray(self.prior, dtype=np.float64))
        object.__setattr__(self, "doc_given_z", np.ascontiguousarray(self.doc_given_z, dtype=np.float64))
        object.__setattr__(self, "word_given_z", np.ascontiguousarray(self.word_given_z, dtype=np.float64))
        if self.prior.ndim != 1 or self.doc_given_z.ndim != 2 or self.word_given_z.ndim != 2:
            raise ValueError("prior must be a vector and the conditionals matrices")
        k = self.prior.size
        if k < 1 or self.doc_given_z.shape[1] != k or self.word_given_z.shape[1] != k:
            raise ValueError("parameter blocks disagree on the number of factors")
        for name, block in (("prior", self.prior), ("doc_given_z", self.doc_given_z),
                            ("word_given_z", self.word_given_z)):
            if block.min(initial=0.0) < 0.0:
                raise ValueError(f"{name} contains negative entries")
            sums = block.sum(axis=0)
            if not (np.abs(sums - 1.0) <= _NORM_TOL).all():  # NaN fails too
                raise ValueError(f"{name} columns must sum to 1 within {_NORM_TOL}")

    @property
    def k(self) -> int:
        return self.prior.size

    @property
    def n_docs(self) -> int:
        return self.doc_given_z.shape[0]

    @property
    def n_terms(self) -> int:
        return self.word_given_z.shape[0]

    def save(self, path) -> str:
        """Write the container and return the SHA-256 of its bytes."""
        return serialize.save_arrays(path, "aspect-model", {
            "prior": self.prior,
            "doc_given_z": self.doc_given_z,
            "word_given_z": self.word_given_z,
        })

    @classmethod
    def load(cls, path, record: dict | None = None) -> "AspectModel":
        """Read a container that `save` wrote; a dict `record` receives the
        SHA-256 of its bytes."""
        arrays = serialize.load_arrays(path, "aspect-model",
                                       ("prior", "doc_given_z", "word_given_z"), record=record)
        try:
            return cls(arrays["prior"], arrays["doc_given_z"], arrays["word_given_z"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def init_model(k: int, n_docs: int, n_terms: int, seed: int = 0) -> AspectModel:
    """Random starting point: uniform distributions plus small seeded noise.

    All entries are strictly positive, so every factor can receive mass.
    """
    if k < 1 or n_docs < 1 or n_terms < 1:
        raise ValueError("k, n_docs and n_terms must all be >= 1")
    # noise at 0.3 of the uniform level: enough to break factor symmetry
    # within a few sweeps, small enough to stay near the simplex center
    rng = np.random.default_rng(seed)
    prior = 1.0 + 0.3 * rng.random(k)
    prior /= prior.sum()
    doc = 1.0 + 0.3 * rng.random((n_docs, k))
    doc /= doc.sum(axis=0)
    word = 1.0 + 0.3 * rng.random((n_terms, k))
    word /= word.sum(axis=0)
    return AspectModel(prior, doc, word)


def _safe_log(x: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore"):
        return np.log(x)


def _tempered_softmax(lp: np.ndarray, beta: float) -> np.ndarray:
    """Row-normalize exp(beta * lp) stably, beta > 0; lp rows are log joint terms."""
    scaled = beta * lp
    peak = scaled.max(axis=1)
    if np.isneginf(peak).any():
        raise DegeneracyError("observation has zero probability under every factor")
    p = np.exp(scaled - peak[:, None])
    p /= p.sum(axis=1, keepdims=True)
    return p


def _check_dims(model: AspectModel, counts: CountMatrix) -> None:
    if model.n_docs != counts.n_docs or model.n_terms != counts.n_terms:
        raise ValueError(
            f"model is {model.n_docs}x{model.n_terms} but counts are "
            f"{counts.n_docs}x{counts.n_terms}"
        )


def _log_blocks(model: AspectModel, rows=slice(None), cols=slice(None)):
    """(log A[rows], log W[cols]) with A = P(z)P(d|z) and W = P(w|z),
    untempered: whole blocks by default."""
    log_a = _safe_log(model.doc_given_z[rows])
    log_a += _safe_log(model.prior)
    return log_a, _safe_log(model.word_given_z[cols])


class _Cells:
    """The nonzero cells of an N x M count table in term-major order (term,
    then document), with what every sweep over them reuses.  Built once per
    table and swept many times:

    table   : the counts as CSC, N x M, whose cells are in this order:
    doc_ids : (nnz,) its indices, the document of each cell, int32 below
              2**31 cells
    starts  : (M + 1,) its indptr, the first cell of each term
    counts  : (nnz,) its data, the count of each cell

    and _sddmm's plan at one K (plan()), built on the first SDDMM at that K.
    A fit also keeps here the joint it hands to its next sweep (keep_joint)
    and the number of factors its sweeps reset (dead_factor_resets).
    """

    def __init__(self, rows, cols, counts, shape):
        self.n_docs, self.n_terms = shape
        self.nnz, self.total = rows.size, int(counts.sum())
        # scipy's CSR to CSC conversion, a stable counting sort, takes the
        # cells of the doc-major table to term-major order: its data are
        # the cells' doc-major positions
        self.table = _csr(rows, cols, np.arange(rows.size, dtype=np.int32), shape).tocsc()
        self.table.data = counts.take(self.table.data)
        self.doc_ids, self.starts, self.counts = (self.table.indices, self.table.indptr,
                                                  self.table.data)
        self.dead_factor_resets = 0
        self._planned = None
        self._kept = None

    @classmethod
    def of(cls, counts) -> "_Cells":
        """`counts` if it is a _Cells already, else the cells of the
        CountMatrix `counts`, built on the first call and kept with it, so
        that each later sweep or scan of the same matrix reuses them."""
        if isinstance(counts, cls):
            return counts
        cells = counts.__dict__.get("_cells")
        if cells is None:
            cells = cls(counts.doc_ids, counts.term_ids, counts.counts,
                        (counts.n_docs, counts.n_terms))
            object.__setattr__(counts, "_cells", cells)  # CountMatrix is frozen
        return cells

    def plan(self, k: int):
        """(chunks, order, padded, gathered), _sddmm's plan at K = `k`:
        chunks of up to _PLAN_BYTES // (8 K) cells, whose rows of K doubles
        take about _PLAN_BYTES, as _plan lays them out, and the most rows,
        of documents and terms, that one chunk gathers.  Kept until a plan
        of another chunk size replaces it."""
        chunk = max(1, _PLAN_BYTES // (8 * k))
        if self._planned is None or self._planned[0] != chunk:
            self._planned = None  # freed before the next is built
            plan, order, padded = _plan(self.starts, self.doc_ids, chunk)
            gathered = max((docs.size + terms.size for terms, docs in plan), default=0)
            self._planned = chunk, plan, order, padded, gathered
        return self._planned[1:]

    def terms_of(self, cells: np.ndarray) -> np.ndarray:
        """The terms of the cells at the positions `cells`."""
        return np.searchsorted(self.starts, cells, side="right") - 1

    def keep_joint(self, model: AspectModel, beta: float):
        """_tempered_joint(model, self, beta), kept for the next take_joint
        of this model at this beta; the joint kept before is freed first."""
        self._kept = None
        joint = _tempered_joint(model, self, beta)
        self._kept = (model, beta, joint)
        return joint

    def take_joint(self, model: AspectModel, beta: float):
        """The joint kept for this model and beta, or a new one; whatever
        was kept is released."""
        kept, self._kept = self._kept, None
        if kept is not None and kept[0] is model and kept[1] == beta:
            return kept[2]
        del kept
        return _tempered_joint(model, self, beta)


def _plan(starts: np.ndarray, doc_ids: np.ndarray, chunk: int):
    """(chunks, order, padded) of _sddmm for the terms whose cells, of the
    documents `doc_ids`, start at `starts`.  The terms are cut into pieces
    of at most `chunk` cells, sorted by length, and grouped while the group
    padded to its longest piece holds at most `chunk` cells and no piece in
    it is padded by more than a quarter.  Each chunk is (terms, docs):
    `docs` holds the documents of one piece per row, padded by repeating the
    row's last cell, and `terms` their term; the chunks are views of one
    array of `padded` ids, and `order` (nnz,) is the position of each cell
    in it.  The temporaries are the size of the pieces, of a block of rows
    of about _TAKE_STEP ids or, in `starts`' dtype, of the cells."""
    lengths = np.diff(starts)
    pieces = -(-lengths // chunk)
    term = np.repeat(np.arange(lengths.size), pieces)
    first = chunk * (np.arange(term.size) - np.repeat(np.cumsum(pieces) - pieces, pieces))
    first += starts[term]
    size = np.minimum(starts[term + 1] - first, chunk)
    by_size = np.argsort(size, kind="stable")
    widths = size[by_size]
    bounds, width = [0], widths.tolist()
    while bounds[-1] < term.size:
        lo = bounds[-1]
        # the most pieces from lo on that fit at the width of the longest,
        # which pads none by more than a quarter of its cells
        hi = bisect.bisect_right(width, width[lo] + width[lo] // 4, lo)
        bounds.append(lo + bisect.bisect_right(range(1, hi - lo + 1), chunk,
                                               key=lambda n: n * width[lo + n - 1]))
    rows = np.diff(bounds)
    cols = widths[np.cumsum(rows) - 1]
    # each piece's row in the padded array, and each cell's place in it
    row_at, row_width = np.empty_like(first), np.repeat(cols, rows)
    row_end = np.cumsum(row_width)
    row_start = row_end - row_width
    row_at[by_size] = row_start
    order = np.arange(doc_ids.size, dtype=starts.dtype)
    order += np.repeat((row_at - first).astype(starts.dtype), size)
    docs = np.empty(int(rows @ cols), dtype=doc_ids.dtype)
    # the padded ids, taken in blocks of whole rows of about _TAKE_STEP ids,
    # so that the intp index arrays stay small: each row repeats its
    # piece's last cell
    first, last = first[by_size], size[by_size] - 1
    cuts = np.searchsorted(row_end, np.arange(_TAKE_STEP, docs.size, _TAKE_STEP)) + 1
    for lo, hi in itertools.pairwise(np.unique([0, *cuts, term.size]).tolist()):
        at, end, width = row_start[lo], row_end[hi - 1], row_width[lo:hi]
        cell = np.arange(end - at) - np.repeat(row_start[lo:hi] - at, width)
        np.minimum(cell, np.repeat(last[lo:hi], width), out=cell)
        cell += np.repeat(first[lo:hi], width)
        doc_ids.take(cell, out=docs[at:end])
    plan, at, term = [], 0, term[by_size]  # the chunks' terms are views of one array
    for lo, n_rows, n_cols in zip(bounds, rows.tolist(), cols.tolist()):
        plan.append((term[lo:lo + n_rows], docs[at:at + n_rows * n_cols].reshape(n_rows, n_cols)))
        at += n_rows * n_cols
    return plan, order, docs.size


def _touched(ids: np.ndarray, n: int):
    """(selector, positions) of the rows `ids` of an n-row block: the
    distinct ids and the position of each id among them, or the whole block
    when the ids are at least n, so that no more than n rows are taken."""
    if ids.size >= n:
        return slice(None), ids
    return np.unique(ids, return_inverse=True)


def _log_joint_terms(log_blocks, cells: _Cells, low: np.ndarray):
    """Yield (positions, lp) over chunks of the cells at the positions `low`:
    lp[i, z] = log A[d_i, z] + log W[w_i, z], with log_blocks(r, c) = (log
    A[r], log W[c]) called once, on the rows and columns the cells touch
    (`_touched`)."""
    (row_sel, row_pos), (col_sel, col_pos) = (_touched(cells.doc_ids[low], cells.n_docs),
                                              _touched(cells.terms_of(low), cells.n_terms))
    log_a, log_w = log_blocks(row_sel, col_sel)
    step = max(1, _CHUNK_CELLS // log_a.shape[1])
    for lo in range(0, low.size, step):
        sel = slice(lo, lo + step)
        yield low[sel], log_a[row_pos[sel]] + log_w[col_pos[sel]]


def _tempered_joint(model: AspectModel, cells: _Cells, beta: float):
    """The E-step's SDDMM: (A^beta, W^beta, S_beta) with A = P(z)P(d|z), W = P(w|z)
    and S_beta[i] = A^beta[d_i] . W^beta[w_i] per cell of `cells`.  At beta = 1,
    W^beta is the model's own block.  Below it the powers are taken in the log
    domain, before A could underflow, in place: one block each."""
    _check_dims(model, cells)
    if beta == 1.0:
        a, w = model.prior * model.doc_given_z, model.word_given_z
    else:
        a, w = _log_blocks(model)
        for block in (a, w):
            block *= beta
            np.exp(block, out=block)
    return a, w, _sddmm(a, w, cells)


def _sddmm(a: np.ndarray, w: np.ndarray, cells: _Cells) -> np.ndarray:
    """S[i] = a[d_i] . w[w_i] per cell, one chunk of the plan at a time: the
    rows of `a` its documents take against the row of `w` of each row's
    term, both gathered into one buffer, by einsum, which calls no BLAS,
    into the padded order, taken to the cells' order at the end.  A cell's value is
    bit for bit einsum("ij,ij->i") of its two rows, whatever the chunk."""
    k = a.shape[1]
    plan, order, padded, gathered = cells.plan(k)
    # one buffer for the rows of every chunk: separate ones for the
    # document and the term rows made glibc return them to the system after
    # each call, so that each call faulted them in again (about 150 page
    # faults per call, 4x its time, on med-tem's queries at K = 128)
    scratch = np.empty(gathered * k)
    out = np.empty(padded)
    at = 0
    for terms, docs in plan:
        rows = scratch[:docs.size * k].reshape(*docs.shape, k)
        term_rows = scratch[docs.size * k:(docs.size + terms.size) * k].reshape(terms.size, k)
        # "clip" skips the bounds check, and the copy that `out` takes
        # under "raise": the ids are in range by construction
        a.take(docs, axis=0, out=rows, mode="clip")
        w.take(terms, axis=0, out=term_rows, mode="clip")
        np.einsum("bjk,bk->bj", rows, term_rows, out=out[at:at + docs.size].reshape(docs.shape))
        at += docs.size
    s = np.empty(cells.nnz)
    for lo in range(0, cells.nnz, _TAKE_STEP):
        sel = slice(lo, lo + _TAKE_STEP)
        out.take(order[sel], out=s[sel], mode="clip")
    return s


def _e_step(cells: _Cells, a, w, beta: float, log_blocks, s=None, r=None):
    """The E-step on `cells`, with a = A^beta, w = W^beta and S_beta as `s`
    if the caller has it: R = n / S_beta as CSC on the pattern of
    cells.table, 0 where S_beta < 1e-200, and (positions, n q) chunks for
    those cells, with q their log-domain posteriors from log_blocks(r, c) =
    (log A[r], log W[c]), called only then, on the rows and columns they
    touch.  The row side of the M-step is a * (R @ w) plus the chunks.
    Iterating them raises DegeneracyError where S_beta = 0.  R is a new
    matrix, whose data is the one array this allocates, or the `r` of an
    earlier call on these cells, overwritten."""
    if s is None:
        s = _sddmm(a, w, cells)
    low = s < _UNDERFLOW
    n = cells.counts
    if r is None:
        r = copy.copy(cells.table)  # shares the pattern, without the checks of scipy's constructor
        r.data = np.divide(n, s, out=np.zeros(n.size), where=~low)
    else:
        np.divide(n, s, out=r.data, where=~low)
        r.data[low] = 0.0
    low = np.flatnonzero(low)
    if not low.size:
        return r, ()
    return r, ((sel, _tempered_softmax(lp, beta) * n[sel, None])
               for sel, lp in _log_joint_terms(log_blocks, cells, low))


def _scan_log_joint(model: AspectModel, cells: _Cells, beta: float = 1.0, s=None) -> np.ndarray:
    """Per cell of `cells`, log S_beta = logsumexp_z of beta *
    log[P(z)P(d|z)P(w|z)], from `s` when the caller already has S_beta.
    No floor is applied.  An S_beta computed here is overwritten by its log."""
    own = s is None
    if own:
        s = _tempered_joint(model, cells, beta)[2]
    low = np.flatnonzero(s < _UNDERFLOW)
    with np.errstate(divide="ignore"):
        out = np.log(s, out=s if own else None)
    if low.size:
        for sel, lp in _log_joint_terms(partial(_log_blocks, model), cells, low):
            out[sel] = logsumexp(beta * lp, axis=1)
    return out


def mixing_weight_matrix(model: AspectModel) -> np.ndarray:
    """P(z|d) for all documents, shape (N, K).

    Rows of documents with zero marginal probability are NaN; callers that
    score documents should treat those as unmatchable.
    """
    joint = model.doc_given_z * model.prior[None, :]
    totals = joint.sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        out = joint / totals[:, None]
    out[totals <= 0.0] = np.nan
    return out


def _weighted_sum(counts: np.ndarray, values: np.ndarray):
    """sum_i counts[i] * values[i] by einsum, which calls no BLAS: BLAS's
    ddot splits a long vector across threads, and its sum then depends on
    the thread count."""
    return np.einsum("i,i->", counts, values)


def log_likelihood(model: AspectModel, counts: CountMatrix) -> float:
    """sum over nonzero cells of n(d,w) * log P(d,w), in nats.

    Cell probabilities below PROB_FLOOR are clamped to it before the log, so
    events the model cannot produce yield a large finite penalty.
    """
    cells = _Cells.of(counts)
    return float(_weighted_sum(cells.counts, np.maximum(_scan_log_joint(model, cells), LOG_FLOOR)))


def perplexity(model: AspectModel, counts: CountMatrix, conditional: bool = False) -> float:
    """exp of the negative average log-probability per token.

    With `conditional` set the per-token probability is P(w|d), the
    document-specific word distribution; otherwise it is the joint P(d,w).
    Probabilities are floored as in log_likelihood.
    """
    total = counts.total
    if total == 0:
        raise ValueError("perplexity of an empty count matrix is undefined")
    cells = _Cells.of(counts)
    if not conditional:
        return float(np.exp(-log_likelihood(model, cells) / total))
    log_joint = _scan_log_joint(model, cells)
    log_pd = logsumexp(_safe_log(model.doc_given_z * model.prior[None, :]), axis=1)
    per_doc = log_pd[cells.doc_ids]
    with np.errstate(invalid="ignore"):
        log_q = np.where(np.isneginf(per_doc), -np.inf, log_joint - per_doc)
    mean_log = _weighted_sum(cells.counts, np.maximum(log_q, LOG_FLOOR)) / total
    return float(np.exp(-mean_log))


def unigram_baseline(counts: CountMatrix) -> AspectModel:
    """Single-factor model of marginal independence: P(d) from row sums,
    P(w) from column sums."""
    total = counts.total
    if total == 0:
        raise ValueError("cannot build a unigram model from empty counts")
    doc = (counts.row_sums() / total)[:, None]
    word = (counts.col_sums() / total)[:, None]
    return AspectModel(np.array([1.0]), doc, word)


def top_words(model: AspectModel, z: int, count: int) -> list[tuple[int, float]]:
    """The `count` most probable term ids under factor z, descending, with
    ties broken by ascending term id."""
    if not 0 <= z < model.k:
        raise ValueError(f"factor index {z} out of range for k={model.k}")
    if count < 1:
        raise ValueError("count must be >= 1")
    probs = model.word_given_z[:, z]
    order = np.lexsort((np.arange(probs.size), -probs))
    return [(int(t), float(probs[t])) for t in order[:count]]
