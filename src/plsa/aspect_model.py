"""The aspect model: a latent-class decomposition of a document/term
co-occurrence table.

A model with K factors holds a prior over factors together with
factor-conditional distributions over documents and over words.  The joint
cell probability is P(d,w) = sum_z P(z) P(d|z) P(w|z).  Everything asymmetric
(P(d), P(z|d), P(w|d)) is derived from these three blocks by Bayes' rule so
there is a single source of truth.
"""

from dataclasses import dataclass

import numpy as np
from scipy.special import logsumexp

from . import serialize
from .corpus import CountMatrix

PROB_FLOOR = 1e-12
LOG_FLOOR = float(np.log(PROB_FLOOR))

_NORM_TOL = 1e-10
_CHUNK_CELLS = 1 << 22
# _sddmm gathers both operands of rows averaging at most this many
# multiply-adds (cells per row times K) and runs one gemv per longer row.
# Measured on 2000 x 8000 tables (2-vCPU Xeon, 1 BLAS thread), the gather
# wins up to about 3000-4000 (K = 32-128) and the loop beyond; training
# rows, about 4300 at MED scale and K = 32, stay well clear of the switch.
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

    def save(self, path) -> None:
        serialize.save_arrays(path, "aspect-model", {
            "prior": self.prior,
            "doc_given_z": self.doc_given_z,
            "word_given_z": self.word_given_z,
        })

    @classmethod
    def load(cls, path) -> "AspectModel":
        arrays = serialize.load_arrays(path, "aspect-model", ("prior", "doc_given_z", "word_given_z"))
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


def _scale_log(lp: np.ndarray, beta: float) -> np.ndarray:
    """beta * lp with the convention that zero probabilities stay zero
    (log -inf) for every beta >= 0."""
    if beta == 1.0:
        return lp
    with np.errstate(invalid="ignore"):
        return np.where(np.isneginf(lp), -np.inf, beta * lp)


def _tempered_softmax(lp: np.ndarray, beta: float) -> np.ndarray:
    """Row-normalize exp(beta * lp) stably; lp rows are log joint terms."""
    scaled = _scale_log(lp, beta)
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


def _log_joint_terms(model: AspectModel, counts: CountMatrix, cells=None):
    """Yield (selector, lp) over chunks of the nonzero cells (all, or the
    entry indices `cells`): lp[i, z] = log[P(z)P(d_i|z)P(w_i|z)]."""
    _check_dims(model, counts)
    lprior = _safe_log(model.prior)
    ldoc = _safe_log(model.doc_given_z)
    lword = _safe_log(model.word_given_z)
    step = max(1, _CHUNK_CELLS // model.k)
    for lo in range(0, counts.nnz if cells is None else cells.size, step):
        sel = slice(lo, lo + step) if cells is None else cells[lo:lo + step]
        yield sel, lprior[None, :] + ldoc[counts.doc_ids[sel]] + lword[counts.term_ids[sel]]


def _row_starts(counts: CountMatrix) -> np.ndarray:
    return np.searchsorted(counts.doc_ids, np.arange(counts.n_docs + 1))


def _tempered_joint(model: AspectModel, counts: CountMatrix, beta: float):
    """The E-step's SDDMM: (A^beta, W^beta, S_beta) with A = P(z)P(d|z), W = P(w|z)
    and S_beta[i] = A^beta[d_i] . W^beta[w_i] per nonzero cell.  Below beta = 1
    the powers are taken in the log domain, before A could underflow."""
    _check_dims(model, counts)
    if beta == 1.0:
        a, w = model.prior * model.doc_given_z, model.word_given_z
    else:
        a = np.exp(beta * (_safe_log(model.prior) + _safe_log(model.doc_given_z)))
        w = np.exp(beta * _safe_log(model.word_given_z))
    return a, w, _sddmm(a, w, counts.doc_ids, counts.term_ids)


def _sddmm(a: np.ndarray, w: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """S[i] = a[rows[i]] . w[cols[i]] for cells sorted by row.  Short rows, at
    most _SHORT_ROW multiply-adds per row of `a` on average, are gathered in
    cache-sized chunks; longer rows take one gemv each."""
    k = a.shape[1]
    s = np.empty(rows.size)
    if rows.size * k <= _SHORT_ROW * a.shape[0]:
        step = max(1, _GATHER_CHUNK // k)
        for lo in range(0, rows.size, step):
            sel = slice(lo, lo + step)
            s[sel] = np.einsum("ij,ij->i", a[rows[sel]], w[cols[sel]])
        return s
    starts = np.searchsorted(rows, np.arange(a.shape[0] + 1))
    for d in np.flatnonzero(np.diff(starts)):
        lo, hi = starts[d], starts[d + 1]
        s[lo:hi] = w[cols[lo:hi]] @ a[d]
    return s


def _scan_log_joint(model: AspectModel, counts: CountMatrix, beta: float = 1.0, s=None) -> np.ndarray:
    """Per nonzero cell, log S_beta = logsumexp_z of beta * log[P(z)P(d|z)P(w|z)],
    from `s` when the caller already has S_beta.  No floor is applied."""
    if s is None:
        s = _tempered_joint(model, counts, beta)[2]
    out = _safe_log(s)
    low = np.flatnonzero(s < _UNDERFLOW)
    for sel, lp in _log_joint_terms(model, counts, low) if low.size else ():
        out[sel] = logsumexp(_scale_log(lp, beta), axis=1)
    return out


def posterior(model: AspectModel, d: int, w: int, beta: float = 1.0) -> np.ndarray:
    """Tempered factor posterior for one cell:
    P(z; d, w) proportional to [P(z)P(d|z)P(w|z)]^beta.

    beta = 1 is the exact posterior; beta = 0 is uniform over the factors
    that give the cell nonzero probability.  Computed in the log domain with
    common-scale subtraction.
    """
    if beta < 0:
        raise ValueError("beta must be >= 0")
    lp = _safe_log(model.prior) + _safe_log(model.doc_given_z[d]) + _safe_log(model.word_given_z[w])
    return _tempered_softmax(lp[None, :], beta)[0]


def cell_posteriors(model: AspectModel, counts: CountMatrix, beta: float = 1.0) -> np.ndarray:
    """Tempered posteriors for every nonzero cell, shape (nnz, K), aligned
    with the counts' entry order."""
    if beta < 0:
        raise ValueError("beta must be >= 0")
    out = np.empty((counts.nnz, model.k))
    for sel, lp in _log_joint_terms(model, counts):
        out[sel] = _tempered_softmax(lp, beta)
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


def joint_prob(model: AspectModel, d: int, w: int) -> float:
    """P(d, w) = sum_z P(z) P(d|z) P(w|z) for one cell."""
    return float(np.dot(model.prior * model.doc_given_z[d], model.word_given_z[w]))


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


def free_energy(model: AspectModel, counts: CountMatrix, posteriors: np.ndarray,
                beta: float) -> float:
    """Variational objective at inverse temperature beta:

        F = -beta * sum n(d,w) sum_z q(z) log[P(z)P(d|z)P(w|z)]
            + sum n(d,w) sum_z q(z) log q(z)

    where q are the supplied per-cell distributions over factors (shape
    (nnz, K), aligned with the counts' entry order) and 0 log 0 = 0.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    q = np.asarray(posteriors, dtype=np.float64)
    if q.shape != (counts.nnz, model.k):
        raise ValueError(f"posteriors must have shape ({counts.nnz}, {model.k}), got {q.shape}")
    result = 0.0
    for sel, lp in _log_joint_terms(model, counts):
        qc = q[sel]
        positive = qc > 0.0
        if np.any(positive & np.isneginf(lp)):
            raise DegeneracyError("posterior mass on a zero-probability factor; log undefined")
        with np.errstate(invalid="ignore"):
            expected = np.where(positive, qc * lp, 0.0).sum(axis=1)
            entropy = np.where(positive, qc * np.log(np.where(positive, qc, 1.0)), 0.0).sum(axis=1)
        result += float(np.dot(counts.counts[sel], -beta * expected + entropy))
    return result


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
