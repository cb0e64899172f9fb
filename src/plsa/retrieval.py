"""Query/document scoring and the interpolated precision-recall harness.

Scorers fill (queries x documents) matrices: raw term-frequency cosine,
cosine between latent representations, their convex blend, and a uniform
average of latent scores across several models.  Evaluation reports
interpolated precision at the nine recall levels 10% through 90%,
macro-averaged over queries.
"""

import warnings
from dataclasses import dataclass

import numpy as np
import scipy.sparse

RECALL_LEVELS = tuple(level / 10.0 for level in range(1, 10))


def cosine_scores(queries, docs):
    """Raw term-count cosine of every query row against every document row,
    shape (n_queries, n_docs), plus the query and document masks of rows
    with a positive norm.  Both inputs are (sparse or dense) matrices over
    the same terms; pairs with an all-zero row score 0."""
    q = scipy.sparse.csr_matrix(queries, dtype=np.float64)
    d = scipy.sparse.csr_matrix(docs, dtype=np.float64)
    q_norms, d_norms = (np.sqrt(np.asarray(m.multiply(m).sum(axis=1)).ravel()) for m in (q, d))
    with np.errstate(divide="ignore", invalid="ignore"):
        scores = (q @ d.T).toarray() / (q_norms[:, None] * d_norms[None, :])
    return np.nan_to_num(scores, nan=0.0, posinf=0.0, neginf=0.0), q_norms > 0.0, d_norms > 0.0


def _unit_rows(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Row-normalised copy plus the mask of finite rows with positive norm."""
    matrix = np.atleast_2d(np.asarray(matrix, dtype=np.float64))
    norms = np.linalg.norm(matrix, axis=1)
    valid = np.isfinite(matrix).all(axis=1) & (norms > 0.0)
    out = np.zeros_like(matrix)
    out[valid] = matrix[valid] / norms[valid, None]
    return out, valid


def latent_scores(query_reps, doc_reps):
    """Cosine between every query and every document representation, such
    as fold-in and document mixing weights or LSI coordinates, plus the masks
    of rows that are finite with a positive norm."""
    q_unit, q_ok = _unit_rows(query_reps)
    d_unit, d_ok = _unit_rows(doc_reps)
    return q_unit @ d_unit.T, q_ok, d_ok


def combined_scores(lam: float, cos, latent):
    """Convex blend lam * cos + (1 - lam) * latent."""
    if not 0.0 <= lam <= 1.0:
        raise ValueError("lambda must be in [0, 1]")
    return lam * cos + (1.0 - lam) * latent


def plsi_star_scores(pieces):
    """Uniform average of several latent scorers' (scores, query mask, doc
    mask) results, one per model; a pair is scorable when it is in all."""
    if not pieces:
        raise ValueError("at least one model is required")
    scores, q_ok, d_ok = zip(*pieces)
    return sum(scores) / len(scores), np.logical_and.reduce(q_ok), np.logical_and.reduce(d_ok)


@dataclass(frozen=True)
class RankedList:
    """All documents ranked for one query: descending score, ties broken by
    ascending doc id."""

    query_id: object
    doc_ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "doc_ids", np.asarray(self.doc_ids, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        if self.doc_ids.shape != self.scores.shape or self.doc_ids.ndim != 1:
            raise ValueError("doc_ids and scores must be parallel vectors")
        if np.unique(self.doc_ids).size != self.doc_ids.size:
            raise ValueError("ranked list contains duplicate documents")
        if self.doc_ids.size > 1:
            # unscorable documents tie at -inf, where a difference would be NaN
            ahead, behind = self.scores[:-1], self.scores[1:]
            if (behind > ahead).any():
                raise ValueError("scores must be non-increasing")
            if np.any((behind == ahead) & (np.diff(self.doc_ids) <= 0)):
                raise ValueError("tied scores must be ordered by ascending doc id")


@dataclass(frozen=True)
class RetrievalRun:
    """Ranked lists for a set of queries plus the judgments they are scored
    against.  Every ranked query must have a judgments entry."""

    rankings: list[RankedList]
    judgments: dict

    def __post_init__(self):
        for ranking in self.rankings:
            if ranking.query_id not in self.judgments:
                raise ValueError(f"query {ranking.query_id!r} has no judgments entry")


def rank_all(scores, scorable, query_ids) -> list[RankedList]:
    """Rank every document for every query: row i of the (n_queries, n_docs)
    `scores` belongs to query_ids[i].  Pairs outside the boolean mask
    `scorable` (broadcast to the scores' shape) score -inf and rank last; one
    warning per affected query is emitted."""
    scorable = np.broadcast_to(scorable, np.shape(scores))
    scores = np.where(scorable, scores, -np.inf)
    for qid, failures in zip(query_ids, (~scorable).sum(axis=1).tolist(), strict=True):
        if failures:
            warnings.warn(
                f"query {qid!r}: {failures} document(s) could not be scored and rank last",
                RuntimeWarning,
            )
    order = np.lexsort((np.broadcast_to(np.arange(scores.shape[1]), scores.shape), -scores))
    ranked = np.take_along_axis(scores, order, axis=1)
    return [RankedList(qid, o, s) for qid, o, s in zip(query_ids, order, ranked, strict=True)]


@dataclass(frozen=True)
class PrSummary:
    """Interpolated precision at the nine recall levels.

    per_query maps query id to its 9-vector; precision_at_level is the mean
    over queries at each level; average_precision is the mean over levels,
    then over queries.
    """

    recall_levels: tuple
    per_query: dict
    precision_at_level: np.ndarray
    average_precision: float
    n_queries: int


def precision_recall(run: RetrievalRun) -> PrSummary:
    """Interpolated precision at recall 10%..90% for each query.

    The interpolated precision at a level is the maximum precision attained
    at any rank whose recall reaches that level.  Queries without relevant
    documents are excluded with a warning.
    """
    levels = np.array(RECALL_LEVELS)
    per_query: dict = {}
    for ranking in run.rankings:
        relevant = run.judgments[ranking.query_id]
        if not relevant:
            warnings.warn(
                f"query {ranking.query_id!r} has no relevant documents; excluded",
                RuntimeWarning,
            )
            continue
        hits = np.isin(ranking.doc_ids, np.fromiter(relevant, np.int64, len(relevant)))
        found = int(hits.sum())
        if found != len(relevant):
            raise ValueError(
                f"query {ranking.query_id!r}: {len(relevant) - found} relevant document(s) "
                "missing from the ranking"
            )
        cum = np.cumsum(hits)
        ranks = np.arange(1, hits.size + 1)
        precision = cum / ranks
        recall = cum / len(relevant)
        # max precision at this rank or any later one
        best_ahead = np.maximum.accumulate(precision[::-1])[::-1]
        first_reaching = np.searchsorted(recall, levels, side="left")
        per_query[ranking.query_id] = best_ahead[first_reaching]
    if not per_query:
        raise ValueError("no query has relevant documents; nothing to evaluate")
    table = np.vstack(list(per_query.values()))
    return PrSummary(
        recall_levels=RECALL_LEVELS,
        per_query=per_query,
        precision_at_level=table.mean(axis=0),
        average_precision=float(table.mean(axis=1).mean()),
        n_queries=len(per_query),
    )
