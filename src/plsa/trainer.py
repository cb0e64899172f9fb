"""Model fitting: EM with early stopping, tempered EM with an inverse
annealing schedule, and fold-in of unseen queries against a frozen model.

Tempered EM raises the per-cell factor posteriors to a power beta <= 1
before the re-estimation step, which dampens them toward uniform.  A fit
runs stages of sweeps at one beta, from beta = 1 (plain EM), each until
perplexity on an internal held-out split stalls or for max_iters_per_beta
sweeps; tempered EM then shrinks beta by a factor eta while each stage
brings a new best and beta stays at or above beta_min.  max_total_iters caps
the sweeps of a fit.  Training always returns the parameter snapshot that
scored best on the held-out data, not the last iterate.

A sweep is KL-NMF's multiplicative update: aspect_model._e_step gives
R = n / S_beta on the nonzero cells, S_beta being the tempered joint, and the
log-domain posteriors of the cells where S_beta underflows; the M-step is
two sparse times dense products with R.
"""

import enum
import hashlib
import math
import warnings
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .aspect_model import (
    LOG_FLOOR,
    AspectModel,
    _e_step,
    _gathers,
    _log_blocks,
    _safe_log,
    _scan_log_joint,
    _tempered_joint,
    init_model,
    perplexity,
)
from .corpus import CountMatrix, SplitPair, _csr, split_heldout


# fold_in compacts its working set once its frozen cells outnumber this
# share of its live cells.  On med-query's seed-1 inputs (2-core host, 1
# BLAS thread, min of 25 interleaved runs) its 200 queries at K = 32 and 48
# folded in in 13.5-13.8 ms at shares 0.1-0.5 and 14.8 ms at 1, against
# 16.4 ms compacting before every sweep; its 1033 documents, long rows,
# freeze under a fifth of their cells in 50 sweeps and took alike at 0 and
# 0.25 (medians of 9: 527 and 515 ms at K = 32, 677 and 679 ms at K = 48).
_FROZEN_SHARE = 0.25


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
    F_beta at that iteration's beta, evaluated with the model's own tempered
    posteriors, where it is -sum n log S_beta over the internal training
    split, S_beta being the tempered joint.  Unlike train_perplexity it has
    no PROB_FLOOR clamp.  At beta = 1 it is the negative training
    log-likelihood.
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
    caller's _tempered_joint(model, counts, beta), if it has it.  Beyond
    that joint, a sweep allocates R, the two accumulators, which are
    multiplied and normalised in place and become the new model's blocks,
    and the log-domain rows of the cells that take that path.  The input
    model and the joint are not modified.  A factor that receives no
    posterior mass is reset to uniform conditionals (with a warning) so a
    later sweep can reassign it.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0 for an EM sweep")
    if counts.nnz == 0:
        raise ValueError("cannot run an EM sweep on empty counts")
    a, w, s = _tempered_joint(model, counts, beta) if _joint is None else _joint
    r, tail = _e_step(counts.doc_ids, counts.term_ids, counts.counts, a, w, beta,
                      partial(_log_blocks, model), s)
    doc_acc = r @ w
    doc_acc *= a
    word_acc = r.T @ a
    word_acc *= w
    for cells, weighted in tail:
        np.add.at(doc_acc, counts.doc_ids[cells], weighted)
        np.add.at(word_acc, counts.term_ids[cells], weighted)
    del r  # freed before the blocks are normalised: holding it raised the peak RSS of a fit
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
    doc_acc /= doc_acc.sum(axis=0)
    word_acc /= word_acc.sum(axis=0)
    return AspectModel(prior_acc / prior_acc.sum(), doc_acc, word_acc)


def subseed(seed: int, label: str) -> int:
    """Derive a named child seed from a master seed.

    Each pipeline stage (initialization, held-out splitting, ...) draws from
    its own named stream, so changing one stage's consumption of randomness
    cannot silently shift another's.
    """
    digest = hashlib.sha256(f"{seed}:{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def internal_split(counts: CountMatrix, config: TemConfig) -> SplitPair:
    """The deterministic train/held-out split a fit with this config uses."""
    return split_heldout(counts, config.heldout_fraction, subseed(config.seed, "split"))


def fit_em(counts: CountMatrix, k: int, config: TemConfig | None = None
           ) -> tuple[AspectModel, TrainTrace]:
    """Plain EM at beta = 1 with early stopping on held-out perplexity."""
    config = config or TemConfig()
    split = internal_split(counts, config)
    del counts  # the fit keeps its split only, so a caller's sole reference frees the matrix
    return _fit(split, k, config, temper=False)


def fit_tem(counts: CountMatrix, k: int, config: TemConfig | None = None
            ) -> tuple[AspectModel, TrainTrace]:
    """Tempered EM: EM with early stopping, then stages of decreasing beta,
    each continued while held-out perplexity keeps improving."""
    config = config or TemConfig()
    split = internal_split(counts, config)
    del counts  # as in fit_em
    return _fit(split, k, config, temper=True)


def _fit(split: SplitPair, k: int, config: TemConfig, temper: bool
         ) -> tuple[AspectModel, TrainTrace]:
    """The fit on `split`, internal_split's train/held-out pair of the
    counts.  Besides the split, the current and best models and the joint
    a sweep reuses are kept: each sweep's joint is freed before the next is
    built, and log S_beta is reduced to the free energy before the
    untempered scan of a tempered stage."""
    train, heldout = split.train, split.heldout
    if train.nnz == 0 and heldout.nnz == 0:
        raise ValueError("cannot fit a model on empty counts")
    if train.nnz == 0:
        raise ValueError("held-out split left no training occurrences; lower heldout_fraction")
    if heldout.total == 0:
        warnings.warn(
            "internal held-out split is empty; stopping will track training perplexity",
            RuntimeWarning,
        )
        heldout = train

    model = init_model(k, train.n_docs, train.n_terms, subseed(config.seed, "init"))
    records: list[TraceRecord] = []
    best_model, best_ppx = model, math.inf
    beta, prev_ppx = 1.0, math.inf  # inf - x < tol * inf is false: sweep 1 never stalls
    while True:
        best_before_stage, stalled = best_ppx, False
        joint = None  # _tempered_joint of the current model at this stage's beta
        for _ in range(config.max_iters_per_beta):
            if len(records) == config.max_total_iters:
                break
            model = em_step(model, train, beta, _joint=joint)
            joint = None  # freed before the next one is built
            joint = _tempered_joint(model, train, beta)
            log_joint = _scan_log_joint(model, train, beta, joint[2])  # log S_beta
            free = -float(np.dot(train.counts, log_joint))
            if beta != 1.0:
                del log_joint  # freed before the untempered scan builds its own
                log_joint = _scan_log_joint(model, train)
            train_ll = float(np.dot(train.counts, np.maximum(log_joint, LOG_FLOOR)))
            train_ppx = math.exp(-train_ll / train.total)
            held_ppx = perplexity(model, heldout, conditional=True)
            records.append(TraceRecord(len(records) + 1, beta, train_ppx, held_ppx, free))
            if held_ppx < best_ppx:
                best_ppx, best_model = held_ppx, model
            stalled = prev_ppx - held_ppx < config.improvement_tol * prev_ppx
            prev_ppx = held_ppx
            if stalled:
                break
        # a stall on the last sweep the budget allows is judged as a stall;
        # the budget then ends the run at the next stage's start
        if not stalled and (len(records) == config.max_total_iters or not temper):
            reason = StoppingReason.ITERATION_CAP
        elif not temper or (beta < 1.0 and not best_ppx < best_before_stage):
            reason = StoppingReason.HELDOUT_DETERIORATION
        elif config.eta * beta < config.beta_min:
            reason = StoppingReason.BETA_FLOOR
        else:
            beta *= config.eta
            continue
        return best_model, TrainTrace(records=records, stopping_reason=reason)


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
    emitted = model.word_given_z[terms].sum(axis=1) > 0.0
    keep = emitted[cell_term]
    terms, cell_term = terms[emitted], (np.cumsum(emitted) - 1)[cell_term[keep]]
    cell_row, cell_count = queries.doc_ids[keep], queries.counts[keep]
    lword = _safe_log(model.word_given_z[terms])
    w_beta = model.word_given_z[terms] if beta == 1.0 else np.exp(beta * lword)
    theta = np.full((queries.n_docs, model.k), 1.0 / model.k)
    row_cells = np.bincount(cell_row, minlength=queries.n_docs)
    theta[row_cells == 0] = np.nan
    # The working set: the rows `rows` of theta, their cells and the
    # pattern of their R, which each sweep refills.  A row that freezes
    # stays in it, swept again from the weights of its last sweep and
    # discarded, until the frozen cells outnumber _FROZEN_SHARE of the live
    # cells or the live rows alone would take the other _sddmm path; then
    # the set is compacted to the live rows.
    rows, live, weights = np.arange(queries.n_docs), row_cells > 0, theta
    cells_live, cells_in_set, r = cell_row.size, 0, None
    for _ in range(max_iters):
        n_live = int(np.count_nonzero(live))
        if not n_live:
            break
        if (r is None or cells_in_set - cells_live > _FROZEN_SHARE * cells_live
                or _gathers(cells_live, n_live, model.k)
                != _gathers(cells_in_set, rows.size, model.k)):
            keep = live[cell_row]
            rows, weights, live = rows[live], weights[live], live[live]
            cell_row = np.repeat(np.arange(rows.size), row_cells[rows])
            cell_term, cell_count = cell_term[keep], cell_count[keep]
            cells_in_set = cell_row.size
            r = _csr(cell_row, cell_term, np.zeros(cells_in_set), (rows.size, terms.size))
        new = _fold_in_sweep(weights, w_beta, lword, cell_row, cell_term, cell_count, beta, r)
        theta[rows[live]] = new[live]
        live &= np.abs(new - weights).max(axis=1) >= tol
        np.copyto(weights, new, where=live[:, None])
        cells_live = int(row_cells[rows[live]].sum())
    return theta


def _fold_in_sweep(theta, w_beta, lword, rows, cols, counts, beta: float,
                   r=None) -> np.ndarray:
    """One fold-in EM sweep: the next mixing weights of the queries `theta`,
    whose cells (rows[i], cols[i]) are sorted by row and cover every row.

    E-step as in em_step, with theta in place of A; only the row-side SpMM
    is needed.  A cell with S_beta below 1e-200 adds its log-domain
    posterior; one with S_beta = 0 raises DegeneracyError.  `r`, if given,
    is a CSR of the cells' pattern for _e_step to fill."""
    theta_beta = theta if beta == 1.0 else np.exp(beta * _safe_log(theta))
    r, tail = _e_step(rows, cols, counts, theta_beta, w_beta, beta,
                      lambda i, j: (_safe_log(theta[i]), lword[j]), r=r)
    acc = theta_beta * (r @ w_beta)
    for cells, weighted in tail:
        np.add.at(acc, rows[cells], weighted)
    return acc / acc.sum(axis=1, keepdims=True)
