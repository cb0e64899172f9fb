"""The aspect model: a latent-class decomposition of a document/term
co-occurrence table.

A model with K factors holds a prior over factors together with
factor-conditional distributions over documents and over words.  The joint
cell probability is P(d,w) = sum_z P(z) P(d|z) P(w|z).  Everything asymmetric
(P(d), P(z|d), P(w|d)) is derived from these three blocks by Bayes' rule so
there is a single source of truth.
"""

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
# _sddmm gathers both operands of rows averaging at most this many
# multiply-adds (cells per row times K) and runs one gemv per longer row.
# Measured on 2000 x 8000 tables (2-vCPU Xeon, 1 BLAS thread), the gather
# wins up to about 3000-4000 (K = 32-128) and the loop beyond.  Training
# rows at MED scale (about 4000 at K = 32) take the loop, but so does the
# held-out split of a MED-scale fit at K = 128: about 2080 per row, just
# past the switch, where the loop takes twice the gather's time (8.4
# against 4.2 ms per SDDMM, same host).
_SHORT_ROW = 2048
_GATHER_CHUNK = 1 << 15  # elements of each gathered operand per step: stays in L2
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


def _touched(ids: np.ndarray, n: int):
    """(selector, positions) of the rows `ids` of an n-row block: the
    distinct ids and the position of each id among them, or the whole block
    when the ids are at least n, so that no more than n rows are taken."""
    if ids.size >= n:
        return slice(None), ids
    return np.unique(ids, return_inverse=True)


def _log_joint_terms(log_blocks, rows, cols, cells, shape):
    """Yield (selector, lp) over chunks of the cells (rows[i], cols[i]) at the
    entry indices `cells` of a table of `shape`: lp[i, z] = log A[rows[i], z]
    + log W[cols[i], z], with log_blocks(r, c) = (log A[r], log W[c]) called
    once, on the rows and columns the cells touch (`_touched`)."""
    (row_sel, row_pos), (col_sel, col_pos) = (_touched(rows[cells], shape[0]),
                                              _touched(cols[cells], shape[1]))
    log_a, log_w = log_blocks(row_sel, col_sel)
    step = max(1, _CHUNK_CELLS // log_a.shape[1])
    for lo in range(0, cells.size, step):
        sel = slice(lo, lo + step)
        yield cells[sel], log_a[row_pos[sel]] + log_w[col_pos[sel]]


def _tempered_joint(model: AspectModel, counts: CountMatrix, beta: float):
    """The E-step's SDDMM: (A^beta, W^beta, S_beta) with A = P(z)P(d|z), W = P(w|z)
    and S_beta[i] = A^beta[d_i] . W^beta[w_i] per nonzero cell.  At beta = 1,
    W^beta is the model's own block.  Below it the powers are taken in the log
    domain, before A could underflow, in place: one block each."""
    _check_dims(model, counts)
    if beta == 1.0:
        a, w = model.prior * model.doc_given_z, model.word_given_z
    else:
        a, w = _log_blocks(model)
        for block in (a, w):
            block *= beta
            np.exp(block, out=block)
    return a, w, _sddmm(a, w, counts.doc_ids, counts.term_ids)


def _gathers(n_cells: int, n_rows: int, k: int) -> bool:
    """Whether _sddmm gathers the operands of `n_cells` cells over `n_rows`
    rows of K = `k`: at most _SHORT_ROW multiply-adds per row on average."""
    return n_cells * k <= _SHORT_ROW * n_rows


def _sddmm(a: np.ndarray, w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """S[i] = a[rows[i]] . w[cols[i]] for cells sorted by row.  Short rows
    (`_gathers`, over the rows of `a`) are gathered in cache-sized chunks;
    longer rows take one gemv each."""
    k = a.shape[1]
    s = np.empty(rows.size)
    if _gathers(rows.size, a.shape[0], k):
        step = max(1, _GATHER_CHUNK // k)
        for lo in range(0, rows.size, step):
            sel = slice(lo, lo + step)
            s[sel] = np.einsum("ij,ij->i", a.take(rows[sel], axis=0), w.take(cols[sel], axis=0))
        return s
    starts = np.searchsorted(rows, np.arange(a.shape[0] + 1))
    for d in np.flatnonzero(np.diff(starts)):
        lo, hi = starts[d], starts[d + 1]
        s[lo:hi] = w[cols[lo:hi]] @ a[d]
    return s


def _e_step(rows, cols, n, a, w, beta: float, log_blocks, s=None, r=None):
    """The E-step on the cells (rows[i], cols[i]), sorted by row, with counts
    n, a = A^beta, w = W^beta and S_beta as `s` if the caller has it: R = n /
    S_beta as CSR, 0 where S_beta < 1e-200, and (cells, n q) chunks for those
    cells, with q their log-domain posteriors from log_blocks(r, c) =
    (log A[r], log W[c]), called only then, on the rows and columns they
    touch.  The row side of the M-step is a * (R @ w) plus the chunks.
    Iterating them raises DegeneracyError where S_beta = 0.  A caller that
    sweeps one set of cells again and again may pass a CSR of their pattern
    as `r`, whose data this call overwrites and which it returns as R."""
    if s is None:
        s = _sddmm(a, w, rows, cols)
    low = s < _UNDERFLOW
    if r is None:
        r = _csr(rows, cols, np.divide(n, s, out=np.zeros(n.size), where=~low), (len(a), len(w)))
    else:
        np.divide(n, s, out=r.data, where=~low)
        r.data[low] = 0.0
    cells = np.flatnonzero(low)
    if not cells.size:
        return r, ()
    chunks = _log_joint_terms(log_blocks, rows, cols, cells, (len(a), len(w)))
    return r, ((sel, _tempered_softmax(lp, beta) * n[sel, None]) for sel, lp in chunks)


def _scan_log_joint(model: AspectModel, counts: CountMatrix, beta: float = 1.0, s=None) -> np.ndarray:
    """Per nonzero cell, log S_beta = logsumexp_z of beta * log[P(z)P(d|z)P(w|z)],
    from `s` when the caller already has S_beta.  No floor is applied."""
    if s is None:
        s = _tempered_joint(model, counts, beta)[2]
    out = _safe_log(s)
    low = np.flatnonzero(s < _UNDERFLOW)
    if low.size:
        for sel, lp in _log_joint_terms(partial(_log_blocks, model), counts.doc_ids,
                                        counts.term_ids, low, (model.n_docs, model.n_terms)):
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


def log_likelihood(model: AspectModel, counts: CountMatrix) -> float:
    """sum over nonzero cells of n(d,w) * log P(d,w), in nats.

    Cell probabilities below PROB_FLOOR are clamped to it before the log, so
    events the model cannot produce yield a large finite penalty.
    """
    return float(np.dot(counts.counts, np.maximum(_scan_log_joint(model, counts), LOG_FLOOR)))


def perplexity(model: AspectModel, counts: CountMatrix, conditional: bool = False) -> float:
    """exp of the negative average log-probability per token.

    With `conditional` set the per-token probability is P(w|d), the
    document-specific word distribution; otherwise it is the joint P(d,w).
    Probabilities are floored as in log_likelihood.
    """
    total = counts.total
    if total == 0:
        raise ValueError("perplexity of an empty count matrix is undefined")
    if not conditional:
        return float(np.exp(-log_likelihood(model, counts) / total))
    log_joint = _scan_log_joint(model, counts)
    log_pd = logsumexp(_safe_log(model.doc_given_z * model.prior[None, :]), axis=1)
    per_doc = log_pd[counts.doc_ids]
    with np.errstate(invalid="ignore"):
        log_q = np.where(np.isneginf(per_doc), -np.inf, log_joint - per_doc)
    mean_log = np.dot(counts.counts, np.maximum(log_q, LOG_FLOOR)) / total
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
