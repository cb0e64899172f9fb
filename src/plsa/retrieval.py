"""Query/document scoring and the interpolated precision-recall harness.

Scorers fill (queries x documents) matrices: raw term-frequency cosine,
cosine between latent representations, their convex blend, and a uniform
average of latent scores across several models.  Evaluation reports
interpolated precision at the nine recall levels 10% through 90%,
macro-averaged over queries.
"""

import itertools
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
class Rankings:
    """Every document ranked for each query: row i of the (n_queries, n_docs)
    `doc_ids` and `scores` belongs to query_ids[i] and lists the documents
    0 .. n_docs-1 by descending score, ties broken by ascending doc id."""

    query_ids: list
    doc_ids: np.ndarray
    scores: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "query_ids", list(self.query_ids))
        object.__setattr__(self, "doc_ids", np.asarray(self.doc_ids, dtype=np.int64))
        object.__setattr__(self, "scores", np.asarray(self.scores, dtype=np.float64))
        doc_ids, scores = self.doc_ids, self.scores
        if doc_ids.shape != scores.shape or doc_ids.ndim != 2:
            raise ValueError("doc_ids and scores must be parallel matrices")
        if len(self.query_ids) != doc_ids.shape[0]:
            raise ValueError(f"{len(self.query_ids)} query ids for {doc_ids.shape[0]} rows")
        n_docs = doc_ids.shape[1]
        if doc_ids.size:
            seen = np.zeros(doc_ids.shape, dtype=bool)
            if doc_ids.min() >= 0 and doc_ids.max() < n_docs:
                seen[np.arange(doc_ids.shape[0])[:, None], doc_ids] = True
            if not seen.all():
                raise ValueError(f"each row must rank every document 0..{n_docs - 1} once")
        # unscorable documents tie at -inf, where a difference would be NaN
        ahead, behind = scores[:, :-1], scores[:, 1:]
        if (behind > ahead).any():
            raise ValueError("scores must be non-increasing along each row")
        if ((behind == ahead) & (doc_ids[:, 1:] <= doc_ids[:, :-1])).any():
            raise ValueError("tied scores must be ordered by ascending doc id")


@dataclass(frozen=True)
class RetrievalRun:
    """Rankings for a set of queries plus the judgments they are scored
    against.  Every ranked query must have a judgments entry."""

    rankings: Rankings
    judgments: dict

    def __post_init__(self):
        for qid in self.rankings.query_ids:
            if qid not in self.judgments:
                raise ValueError(f"query {qid!r} has no judgments entry")


def rank_all(scores, scorable, query_ids) -> Rankings:
    """Rank every document for every query: row i of the (n_queries, n_docs)
    `scores` belongs to query_ids[i]; one batch sort orders every row.  Pairs
    outside the boolean mask `scorable` (broadcast to the scores' shape)
    score -inf and rank last; one warning per affected query is emitted."""
    scorable = np.broadcast_to(scorable, np.shape(scores))
    if len(query_ids) != scorable.shape[0]:
        raise ValueError(f"{len(query_ids)} query ids for {scorable.shape[0]} rows of scores")
    scores = np.where(scorable, scores, -np.inf)
    failures = (~scorable).sum(axis=1)
    for i in np.flatnonzero(failures):
        warnings.warn(
            f"query {query_ids[i]!r}: {failures[i]} document(s) could not be scored and rank last",
            RuntimeWarning,
        )
    order = _rank_order(scores)
    return Rankings(query_ids, order, np.take_along_axis(scores, order, axis=1))


def _rank_order(scores: np.ndarray) -> np.ndarray:
    """Per row, the column indices by descending score, ties (NaN with NaN
    too) by ascending index.  An unstable sort of the scores puts each run of
    ties in one place; in rows with ties, a sort of the unique keys
    tie run * n + index then orders every run.  Both together are faster
    than one stable sort."""
    n = scores.shape[1]
    order = np.argsort(-scores, axis=1)
    ranked = np.take_along_axis(scores, order, axis=1)
    ahead, behind = ranked[:, :-1], ranked[:, 1:]
    tied = (behind == ahead) | (np.isnan(behind) & np.isnan(ahead))
    fix = np.flatnonzero(tied.any(axis=1))
    if fix.size:
        run = np.zeros((fix.size, n), dtype=np.int64)
        np.cumsum(~tied[fix], axis=1, out=run[:, 1:])
        order[fix] = np.sort(run * n + order[fix], axis=1) % n
    return order


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
    """Interpolated precision at recall 10%..90% for each query, computed for
    all queries at once.

    The interpolated precision at a level is the maximum precision attained
    at any rank whose recall reaches that level.  Queries without relevant
    documents are excluded with a warning.
    """
    ranked = run.rankings
    relevant = [run.judgments[qid] for qid in ranked.query_ids]
    n_relevant = np.array([len(r) for r in relevant], dtype=np.int64)
    for i in np.flatnonzero(n_relevant == 0):
        warnings.warn(
            f"query {ranked.query_ids[i]!r} has no relevant documents; excluded",
            RuntimeWarning,
        )
    judged = np.flatnonzero(n_relevant)
    if not judged.size:
        raise ValueError("no query has relevant documents; nothing to evaluate")
    n_docs = ranked.doc_ids.shape[1]
    n_relevant = n_relevant[judged]
    rel_rows = np.repeat(np.arange(judged.size), n_relevant)
    rel_docs = np.fromiter(itertools.chain.from_iterable(relevant[i] for i in judged),
                           np.int64, int(n_relevant.sum()))
    in_range = (rel_docs >= 0) & (rel_docs < n_docs)
    is_relevant = np.zeros((judged.size, n_docs), dtype=bool)
    is_relevant[rel_rows[in_range], rel_docs[in_range]] = True
    doc_ids = ranked.doc_ids if judged.size == len(relevant) else ranked.doc_ids[judged]
    hits = np.take_along_axis(is_relevant, doc_ids, axis=1)
    missing = n_relevant - hits.sum(axis=1)
    if missing.any():
        i = int(np.flatnonzero(missing)[0])
        raise ValueError(
            f"query {ranked.query_ids[judged[i]]!r}: {missing[i]} relevant document(s) "
            "missing from the ranking"
        )
    # Recall rises, and precision peaks, only at relevant documents, so the
    # curve needs them there alone: hit j (from 0) of a row, at rank r (from
    # 0), has precision (j + 1) / (r + 1) and recall (j + 1) / n_relevant.
    row, rank = np.nonzero(hits)
    nth = np.arange(row.size) - np.repeat(np.cumsum(n_relevant) - n_relevant, n_relevant)
    shape = (judged.size, int(n_relevant.max()))
    precision = np.zeros(shape)  # rows padded past their last hit
    precision[row, nth] = (nth + 1) / (rank + 1)
    recall = np.full(shape, np.inf)
    recall[row, nth] = (nth + 1) / n_relevant[row]
    # max precision at this hit or any later one
    best_ahead = np.maximum.accumulate(precision[:, ::-1], axis=1)[:, ::-1]
    # per row, the first hit whose recall reaches each level
    first_reaching = np.stack([np.count_nonzero(recall < level, axis=1)
                               for level in RECALL_LEVELS], axis=1)
    table = np.take_along_axis(best_ahead, first_reaching, axis=1)
    return PrSummary(
        recall_levels=RECALL_LEVELS,
        per_query={ranked.query_ids[i]: curve for i, curve in zip(judged, table)},
        precision_at_level=table.mean(axis=0),
        average_precision=float(table.mean(axis=1).mean()),
        n_queries=int(judged.size),
    )
