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
    _sddmm,
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
        if not self.improvement_tol > 0.0:
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
    doc_acc, word_acc = _spmm(counts, a, w, s, beta,
                              lambda cells: _log_joint_terms(model, counts, cells))
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


def _spmm(counts: CountMatrix, a, w, s, beta: float, log_terms):
    """The E-step's two SpMMs over the nonzero cells of `counts`, given their
    SDDMM `s`: a * (R @ w) and w * (R^T @ a) with R = n / s.  A cell with s
    below 1e-200 adds n(d,w) q(z) from its log-domain posterior instead;
    `log_terms(cells)` yields (selector, lp) chunks of the untempered log
    joint terms of those entries."""
    ratio, cells = _cell_ratios(counts.counts, s)
    r = scipy.sparse.csr_matrix((ratio, counts.term_ids, _row_starts(counts)),
                                shape=(counts.n_docs, counts.n_terms))
    row_acc = a * (r @ w)
    col_acc = w * (r.T @ a)
    for sel, lp in log_terms(cells) if cells.size else ():
        weighted = _tempered_softmax(lp, beta) * counts.counts[sel, None]
        np.add.at(row_acc, counts.doc_ids[sel], weighted)
        np.add.at(col_acc, counts.term_ids[sel], weighted)
    return row_acc, col_acc


def _cell_ratios(n: np.ndarray, s: np.ndarray):
    """R = n / s per cell, 0 where s is below 1e-200, and the indices of
    those cells, which the log-domain path accumulates instead."""
    low = s < _UNDERFLOW
    return np.divide(n, s, out=np.zeros(n.size), where=~low), np.flatnonzero(low)


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
    if counts.nnz == 0:
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


def fold_in(model: AspectModel, queries: CountMatrix, beta: float = 1.0,
            max_iters: int = 50, tol: float = 1e-6) -> np.ndarray:
    """Mixing weights P(z|q) for unseen queries, shape (n_queries, K), by EM
    sweeps that keep the model's word distributions frozen.

    `queries` holds one row per query over the model's terms.  A sweep is
    em_step's kernel with theta = P(z|q) in place of A and W = P(w|z) fixed.
    Terms no factor can generate are dropped; a query left without terms
    gets a NaN row.  Each query starts from uniform weights and is frozen
    after the sweep in which no weight moved by `tol`, or after `max_iters`
    sweeps, so its row does not depend on the other queries.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0")
    if queries.n_terms != model.n_terms:
        raise ValueError(f"queries span {queries.n_terms} terms but the model {model.n_terms}")
    # columns renumbered over the terms in use, so that W^beta is only as
    # large as the batch
    terms, cell_term = np.unique(queries.term_ids, return_inverse=True)
    live = model.word_given_z[terms].sum(axis=1) > 0.0
    keep = live[cell_term]
    terms, cell_term = terms[live], (np.cumsum(live) - 1)[cell_term[keep]]
    cell_row, cell_count = queries.doc_ids[keep], queries.counts[keep]
    lword = _safe_log(model.word_given_z[terms])
    w_beta = model.word_given_z[terms] if beta == 1.0 else np.exp(beta * lword)
    theta = np.full((queries.n_docs, model.k), 1.0 / model.k)
    row_cells = np.bincount(cell_row, minlength=queries.n_docs)
    active = row_cells > 0
    theta[~active] = np.nan
    for _ in range(max_iters):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        sel = active[cell_row]
        old = theta[rows]
        cell_block_row = np.repeat(np.arange(rows.size), row_cells[rows])
        theta[rows] = new = _fold_in_sweep(old, w_beta, lword, cell_block_row, cell_term[sel],
                                           cell_count[sel], beta)
        active[rows] = np.abs(new - old).max(axis=1) >= tol
    return theta


def _fold_in_sweep(theta, w_beta, lword, rows, cols, counts, beta: float) -> np.ndarray:
    """One fold-in EM sweep: the next mixing weights of the queries `theta`,
    whose cells (rows[i], cols[i]) are sorted by row and cover every row.

    E-step as in em_step, with theta in place of A; only the row-side SpMM
    is needed.  A cell with S_beta below 1e-200 adds its log-domain
    posterior; one with S_beta = 0 raises DegeneracyError."""
    theta_beta = theta if beta == 1.0 else np.exp(beta * _safe_log(theta))
    ratio, low = _cell_ratios(counts, _sddmm(theta_beta, w_beta, rows, cols))
    r = scipy.sparse.csr_matrix((ratio, cols, np.searchsorted(rows, np.arange(len(theta) + 1))),
                                shape=(len(theta), len(w_beta)))
    acc = theta_beta * (r @ w_beta)
    if low.size:
        lp = _safe_log(theta)[rows[low]] + lword[cols[low]]
        np.add.at(acc, rows[low], _tempered_softmax(lp, beta) * counts[low, None])
    return acc / acc.sum(axis=1, keepdims=True)
