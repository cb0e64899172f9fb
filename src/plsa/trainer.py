"""Model fitting: EM with early stopping, tempered EM with an inverse
annealing schedule, and fold-in of unseen queries against a frozen model.

Tempered EM raises the per-cell factor posteriors to a power beta <= 1
before the re-estimation step, which dampens them toward uniform.  The
schedule starts at beta = 1 (plain EM), then repeatedly shrinks beta by a
factor eta while performance on an internal held-out split keeps improving.
Training always returns the parameter snapshot that scored best on the
held-out data, not the last iterate.

A sweep is KL-NMF's multiplicative update.  The tempered posterior factorises
as A^beta[d,z] W^beta[w,z] / S_beta(d,w) with A = P(z)P(d|z), W = P(w|z), so
E and M steps are one SDDMM for S_beta on the nonzero cells and two sparse
times dense products with R = n / S_beta.  A cell with S_beta below 1e-200
(_UNDERFLOW) is accumulated from log-domain posteriors; if zero, it raises.
"""

import enum
import math
import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from ._util import subseed
from .aspect_model import (
    _UNDERFLOW,
    LOG_FLOOR,
    AspectModel,
    _log_joint_terms,
    _row_starts,
    _safe_log,
    _scan_log_joint,
    _tempered_joint,
    _tempered_softmax,
    init_model,
    perplexity,
)
from .corpus import CountMatrix, SplitPair, split_heldout


class StoppingReason(enum.Enum):
    HELDOUT_DETERIORATION = "heldout-deterioration"
    BETA_FLOOR = "beta-floor"
    ITERATION_CAP = "iteration-cap"


@dataclass
class TemConfig:
    """Annealing schedule and early-stopping parameters.

    eta                : multiplicative decay applied to beta at each stage
    beta_min           : hard lower bound on beta
    max_iters_per_beta : iteration budget within one beta stage
    improvement_tol    : relative held-out improvement still counting as progress
    max_total_iters    : overall iteration budget
    seed               : master seed; init and split draw named substreams
    heldout_fraction   : share of token occurrences split off for stopping
    """

    eta: float = 0.9
    beta_min: float = 0.5
    max_iters_per_beta: int = 100
    improvement_tol: float = 1e-4
    max_total_iters: int = 1000
    seed: int = 0
    heldout_fraction: float = 0.1

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError("eta must be in (0, 1)")
        if not 0.0 < self.beta_min <= 1.0:
            raise ValueError("beta_min must be in (0, 1]")
        if self.improvement_tol <= 0.0:
            raise ValueError("improvement_tol must be > 0")
        if self.max_iters_per_beta < 1 or self.max_total_iters < 1:
            raise ValueError("iteration budgets must be >= 1")
        if not 0.0 < self.heldout_fraction < 1.0:
            raise ValueError("heldout_fraction must be in (0, 1)")


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    beta: float
    train_perplexity: float
    heldout_perplexity: float
    free_energy: float


@dataclass
class TrainTrace:
    """Per-iteration history of a fit plus the reason it stopped.

    train_perplexity is the joint perplexity of the training occurrences
    (monotone under EM at beta = 1); heldout_perplexity is the conditional
    perplexity used for stopping; free_energy is the variational objective
    at that iteration's beta, evaluated with the model's own posteriors.
    """

    records: list[TraceRecord] = field(default_factory=list)
    stopping_reason: StoppingReason = StoppingReason.ITERATION_CAP

    def save(self, path) -> None:
        """Plain-text table, one iteration per line, ready for plotting."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("# iter\tbeta\ttrain_ppx\theldout_ppx\tfree_energy\n")
            for r in self.records:
                f.write(f"{r.iteration}\t{r.beta:.10g}\t{r.train_perplexity:.10g}\t"
                        f"{r.heldout_perplexity:.10g}\t{r.free_energy:.10g}\n")
            f.write(f"# stopping_reason\t{self.stopping_reason.value}\n")


def em_step(model: AspectModel, counts: CountMatrix, beta: float = 1.0, _joint=None) -> AspectModel:
    """One fused E+M sweep over the nonzero cells at inverse temperature beta.

    Accumulates n(d,w) * q(z; d, w) into unnormalized parameter blocks, then
    normalizes each.  With q = A^beta W^beta / S_beta the blocks are
    A^beta * (R @ W^beta) and W^beta * (R^T @ A^beta), R = n / S_beta; a cell
    with S_beta below 1e-200 takes the log-domain path.  `_joint` is the
    caller's _tempered_joint(model, counts, beta), if it has it.  The input
    model is not modified.  A factor that receives no posterior mass is reset
    to uniform conditionals (with a warning) so a later sweep can reassign it.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0 for an EM sweep")
    if counts.nnz == 0:
        raise ValueError("cannot run an EM sweep on empty counts")
    a, w, s = _tempered_joint(model, counts, beta) if _joint is None else _joint
    low = s < _UNDERFLOW
    ratio = np.divide(counts.counts, s, out=np.zeros(counts.nnz), where=~low)
    r = scipy.sparse.csr_matrix((ratio, counts.term_ids, _row_starts(counts)),
                                shape=(model.n_docs, model.n_terms))
    doc_acc = a * (r @ w)
    word_acc = w * (r.T @ a)
    if low.any():
        _log_domain_accumulate(model, counts, np.flatnonzero(low), beta, doc_acc, word_acc)
    prior_acc = doc_acc.sum(axis=0)
    dead = prior_acc == 0.0
    if dead.any():
        warnings.warn(
            f"{int(dead.sum())} factor(s) received no posterior mass; reset to uniform",
            RuntimeWarning,
        )
        doc_acc[:, dead] = 1.0
        word_acc[:, dead] = 1.0
        prior_acc[dead] = prior_acc.sum() / model.k
    return AspectModel(
        prior_acc / prior_acc.sum(),
        doc_acc / doc_acc.sum(axis=0),
        word_acc / word_acc.sum(axis=0),
    )


def _log_domain_accumulate(model, counts, cells, beta, doc_acc, word_acc) -> None:
    """Reference path: add n(d,w) q(z; d, w) of the entries `cells`, q in the log domain."""
    for sel, lp in _log_joint_terms(model, counts, cells):
        weighted = _tempered_softmax(lp, beta) * counts.counts[sel, None]
        np.add.at(doc_acc, counts.doc_ids[sel], weighted)
        np.add.at(word_acc, counts.term_ids[sel], weighted)


def internal_split(counts: CountMatrix, config: TemConfig) -> SplitPair:
    """The deterministic train/held-out split a fit with this config uses."""
    return split_heldout(counts, config.heldout_fraction, subseed(config.seed, "split"))


def fit_em(counts: CountMatrix, k: int, config: TemConfig | None = None
           ) -> tuple[AspectModel, TrainTrace]:
    """Plain EM at beta = 1 with early stopping on held-out perplexity."""
    return _fit(counts, k, config or TemConfig(), temper=False)


def fit_tem(counts: CountMatrix, k: int, config: TemConfig | None = None
            ) -> tuple[AspectModel, TrainTrace]:
    """Tempered EM: EM with early stopping, then stages of decreasing beta,
    each continued while held-out perplexity keeps improving."""
    return _fit(counts, k, config or TemConfig(), temper=True)


def _fit(counts: CountMatrix, k: int, config: TemConfig, temper: bool
         ) -> tuple[AspectModel, TrainTrace]:
    if k < 1:
        raise ValueError("k must be >= 1")
    if counts.nnz == 0 or counts.total == 0:
        raise ValueError("cannot fit a model on empty counts")
    split = internal_split(counts, config)
    train, heldout = split.train, split.heldout
    if train.nnz == 0:
        raise ValueError("held-out split left no training occurrences; lower heldout_fraction")
    stop_on_train = heldout.total == 0
    if stop_on_train:
        warnings.warn(
            "internal held-out split is empty; stopping will track training perplexity",
            RuntimeWarning,
        )

    model = init_model(k, counts.n_docs, counts.n_terms, subseed(config.seed, "init"))
    records: list[TraceRecord] = []
    best_model, best_ppx = model, math.inf
    beta = 1.0
    iteration = 0
    prev_ppx = None
    stopping = None

    while stopping is None:
        best_before_stage = best_ppx
        stage_iters = 0
        stage_end = None
        joint = None  # _tempered_joint of the current model at this stage's beta
        while stage_end is None:
            if iteration >= config.max_total_iters:
                stage_end = "total-cap"
                break
            if stage_iters >= config.max_iters_per_beta:
                stage_end = "stage-cap"
                break
            model = em_step(model, train, beta, _joint=joint)
            iteration += 1
            stage_iters += 1
            joint = _tempered_joint(model, train, beta)
            tempered = _scan_log_joint(model, train, beta, joint[2])
            log_joint = tempered if beta == 1.0 else _scan_log_joint(model, train)
            train_ll = float(np.dot(train.counts, np.maximum(log_joint, LOG_FLOOR)))
            train_ppx = math.exp(-train_ll / train.total)
            free = -float(np.dot(train.counts, tempered))
            if stop_on_train:
                held_ppx = perplexity(model, train, conditional=True)
            else:
                held_ppx = perplexity(model, heldout, conditional=True)
            records.append(TraceRecord(iteration, beta, train_ppx, held_ppx, free))
            if held_ppx < best_ppx:
                best_ppx, best_model = held_ppx, model
            if prev_ppx is not None and (prev_ppx - held_ppx) < config.improvement_tol * prev_ppx:
                stage_end = "stalled"
            prev_ppx = held_ppx
        if stage_end == "total-cap":
            stopping = StoppingReason.ITERATION_CAP
        elif not temper:
            stopping = (StoppingReason.HELDOUT_DETERIORATION if stage_end == "stalled"
                        else StoppingReason.ITERATION_CAP)
        elif beta < 1.0 and not best_ppx < best_before_stage:
            stopping = StoppingReason.HELDOUT_DETERIORATION
        else:
            next_beta = config.eta * beta
            if next_beta < config.beta_min:
                stopping = StoppingReason.BETA_FLOOR
            else:
                beta = next_beta
    return best_model, TrainTrace(records=records, stopping_reason=stopping)


def _as_sparse_vector(query_counts, n_terms: int) -> tuple[np.ndarray, np.ndarray]:
    """Normalize a term-count vector given as a mapping, an (ids, counts)
    pair, or a dense length-M array."""
    if isinstance(query_counts, dict):
        ids = np.fromiter(query_counts.keys(), dtype=np.int64, count=len(query_counts))
        cnt = np.fromiter(query_counts.values(), dtype=np.float64, count=len(query_counts))
    elif isinstance(query_counts, tuple) and len(query_counts) == 2:
        ids = np.asarray(query_counts[0], dtype=np.int64)
        cnt = np.asarray(query_counts[1], dtype=np.float64)
    else:
        dense = np.asarray(query_counts, dtype=np.float64).ravel()
        if dense.size != n_terms:
            raise ValueError(f"dense query vector must have length {n_terms}")
        ids = np.flatnonzero(dense)
        cnt = dense[ids]
    if ids.size and (ids.min() < 0 or ids.max() >= n_terms):
        raise ValueError("query term id out of range")
    if (cnt <= 0).any():
        raise ValueError("query counts must be positive")
    return ids, cnt


def fold_in(model: AspectModel, query_counts, beta: float = 1.0,
            max_iters: int = 50, tol: float = 1e-6) -> np.ndarray:
    """Mixing weights P(z|q) for an unseen query, by EM updates that keep the
    model's word distributions and prior frozen.

    `query_counts` may be a {term_id: count} mapping, a (term_ids, counts)
    pair, or a dense length-M vector.  Terms outside the vocabulary range
    are rejected; terms no factor can generate are dropped.  Starts from
    uniform weights and stops when the largest weight change falls below
    `tol` or after `max_iters` sweeps.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    ids, cnt = _as_sparse_vector(query_counts, model.n_terms)
    if ids.size:
        supported = model.word_given_z[ids].sum(axis=1) > 0.0
        ids, cnt = ids[supported], cnt[supported]
    if ids.size == 0:
        raise ValueError("query shares no usable terms with the model vocabulary")
    lword = _safe_log(model.word_given_z[ids])
    weights = np.full(model.k, 1.0 / model.k)
    for _ in range(max_iters):
        lp = _safe_log(weights)[None, :] + lword
        post = _tempered_softmax(lp, beta)
        updated = (post * cnt[:, None]).sum(axis=0)
        updated /= updated.sum()
        delta = np.abs(updated - weights).max()
        weights = updated
        if delta < tol:
            break
    return weights
