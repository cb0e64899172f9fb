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
two sparse times dense products with R.  A fit lays out the cells of each
split once, as an aspect_model._Cells, and hands it to every em_step and
perplexity call in place of the CountMatrix.
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
    _Cells,
    _e_step,
    _log_blocks,
    _safe_log,
    _scan_log_joint,
    _weighted_sum,
    init_model,
    perplexity,
)
from .corpus import CountMatrix, SplitPair, split_heldout


# fold_in compacts its working set once its frozen cells outnumber this
# share of its live cells.  On med-query's seed-1 inputs (2-core host, 1
# BLAS thread, medians of 30 interleaved runs) its 200 queries at K = 32
# folded in in 9.8, 8.9, 8.9 and 9.2 ms at shares 0.1, 0.25, 0.5 and 1
# (10.5-11.5 ms at K = 48, least at 0.25-0.5); its 1033 documents, long
# rows, took 363 and 375 ms at 0.25 and 0.5 at K = 32, and 615 and 534 ms
# at K = 48 (medians of 3).
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
    log-likelihood.  dead_factor_resets counts the factors the fit's sweeps
    reset to uniform, and empty_heldout_fallback tells that the held-out
    split was empty, so that stopping tracked the training cells; both are
    also RuntimeWarnings, and save() writes neither.
    """

    records: list[TraceRecord] = field(default_factory=list)
    stopping_reason: StoppingReason = StoppingReason.ITERATION_CAP
    dead_factor_resets: int = 0
    empty_heldout_fallback: bool = False

    def save(self, path) -> None:
        """Plain-text table, one iteration per line, ready for plotting."""
        with open(path, "w", encoding="utf-8") as f:
            f.write("# iter\tbeta\ttrain_ppx\theldout_ppx\tfree_energy\n")
            for r in self.records:
                f.write(f"{r.iteration}\t{r.beta:.10g}\t{r.train_perplexity:.10g}\t"
                        f"{r.heldout_perplexity:.10g}\t{r.free_energy:.10g}\n")
            f.write(f"# stopping_reason\t{self.stopping_reason.value}\n")


def em_step(model: AspectModel, counts: CountMatrix, beta: float = 1.0) -> AspectModel:
    """One fused E+M sweep over the nonzero cells at inverse temperature beta.

    Accumulates n(d,w) * q(z; d, w) into unnormalized parameter blocks, then
    normalizes each.  With q = A^beta W^beta / S_beta the blocks are
    A^beta * (R @ W^beta) and W^beta * (R^T @ A^beta), R = n / S_beta; a cell
    with S_beta below 1e-200 takes the log-domain path.  `counts` is a
    CountMatrix, whose _Cells are built on the first call and kept with it,
    or the aspect_model._Cells a fit sweeps, which holds the cells' layout
    and may hold the joint of this model at this beta.  Beyond the
    joint, a sweep allocates the two accumulators, which are multiplied and
    normalised in place and become the new model's blocks, and the
    log-domain rows of the cells that take that path.  The input model is not
    modified.  A factor that receives no posterior mass is reset to uniform
    conditionals (with a warning, and counted in the _Cells) so a later
    sweep can reassign it.
    """
    if beta <= 0:
        raise ValueError("beta must be > 0 for an EM sweep")
    if counts.nnz == 0:
        raise ValueError("cannot run an EM sweep on empty counts")
    cells = _Cells.of(counts)
    a, w, s = cells.take_joint(model, beta)
    r, tail = _e_step(cells, a, w, beta, partial(_log_blocks, model), s)
    del s
    doc_acc = r @ w
    doc_acc *= a
    word_acc = r.T @ a
    word_acc *= w
    for sel, weighted in tail:
        np.add.at(doc_acc, cells.doc_ids[sel], weighted)
        np.add.at(word_acc, cells.terms_of(sel), weighted)
    del r  # freed before the blocks are normalised: holding it raised the peak RSS of a fit
    prior_acc = doc_acc.sum(axis=0)
    dead = prior_acc == 0.0
    if dead.any():
        cells.dead_factor_resets += int(dead.sum())
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
    del counts  # the fit keeps its cells only, so a caller's sole reference frees the matrix
    cells = _sweep_cells(split)
    del split  # and its split once they are built
    return _fit(*cells, k, config, temper=False)


def fit_tem(counts: CountMatrix, k: int, config: TemConfig | None = None
            ) -> tuple[AspectModel, TrainTrace]:
    """Tempered EM: EM with early stopping, then stages of decreasing beta,
    each continued while held-out perplexity keeps improving."""
    config = config or TemConfig()
    split = internal_split(counts, config)
    del counts  # as in fit_em
    cells = _sweep_cells(split)
    del split
    return _fit(*cells, k, config, temper=True)


def _sweep_cells(split: SplitPair) -> tuple[_Cells, _Cells]:
    """The _Cells a fit sweeps, of the train and held-out sides of
    `split`, internal_split's pair of the counts.  When the held-out side is
    empty, the train's cells stand in for it, with a warning."""
    if split.train.nnz == 0 and split.heldout.nnz == 0:
        raise ValueError("cannot fit a model on empty counts")
    if split.train.nnz == 0:
        raise ValueError("held-out split left no training occurrences; lower heldout_fraction")
    train = _Cells.of(split.train)
    if split.heldout.total == 0:
        warnings.warn(
            "internal held-out split is empty; stopping will track training perplexity",
            RuntimeWarning,
        )
        return train, train
    return train, _Cells.of(split.heldout)


def _fit(train: _Cells, heldout: _Cells, k: int, config: TemConfig, temper: bool
         ) -> tuple[AspectModel, TrainTrace]:
    """The fit on _sweep_cells' train and held-out cells.  Besides those,
    the current and best models and the joint that train keeps for the next
    sweep are kept.  A sweep's log S_beta is reduced to the free energy and
    freed before the untempered scan of a tempered stage, and the log joint
    of the train log-likelihood is freed once it is summed, so the held-out
    scan and the next em_step run beside no per-cell array of the train
    side but its layout and the kept joint."""
    model = init_model(k, train.n_docs, train.n_terms, subseed(config.seed, "init"))
    records: list[TraceRecord] = []
    best_model, best_ppx = model, math.inf
    beta, prev_ppx = 1.0, math.inf  # inf - x < tol * inf is false: sweep 1 never stalls
    while True:
        best_before_stage, stalled = best_ppx, False
        for _ in range(config.max_iters_per_beta):
            if len(records) == config.max_total_iters:
                break
            model = em_step(model, train, beta)
            log_joint = _scan_log_joint(model, train, beta, train.keep_joint(model, beta)[2])
            free = -float(_weighted_sum(train.counts, log_joint))  # log_joint is log S_beta
            if beta != 1.0:
                del log_joint  # freed before the untempered scan builds its own
                log_joint = _scan_log_joint(model, train)
            train_ll = float(_weighted_sum(train.counts,
                                           np.maximum(log_joint, LOG_FLOOR, out=log_joint)))
            del log_joint  # freed before the held-out scan and the next sweep
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
        return best_model, TrainTrace(records=records, stopping_reason=reason,
                                      dead_factor_resets=train.dead_factor_resets,
                                      empty_heldout_fallback=heldout is train)


def fold_in(model: AspectModel, queries: CountMatrix, beta: float = 1.0,
            max_iters: int = 50, tol: float = 1e-6) -> np.ndarray:
    """Mixing weights P(z|q) for unseen queries, shape (n_queries, K), by EM
    sweeps that keep the model's word distributions frozen.

    `queries` holds one row per query over the model's terms.  A sweep is
    em_step's kernel with theta = P(z|q) in place of A and W = P(w|z) fixed,
    on the _Cells of a working set of queries, built when the set is.
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
    # The working set: the rows `rows` of theta and the _Cells of their
    # cells, which every sweep reuses.  A row that freezes stays in it,
    # swept again from the weights of its last sweep and discarded, until
    # the frozen cells outnumber _FROZEN_SHARE of the live cells; then the
    # set is compacted to the live rows.
    rows, live, weights = np.arange(queries.n_docs), row_cells > 0, theta
    cells_live, cells, r = cell_row.size, None, None
    for _ in range(max_iters):
        n_live = int(np.count_nonzero(live))
        if not n_live:
            break
        if cells is None or cells.nnz - cells_live > _FROZEN_SHARE * cells_live:
            keep = live[cell_row]
            rows, weights, live = rows[live], weights[live], live[live]
            cell_row = np.repeat(np.arange(rows.size), row_cells[rows])
            cell_term, cell_count = cell_term[keep], cell_count[keep]
            cells = _Cells(cell_row, cell_term, cell_count, (rows.size, terms.size))
            r = None
        new, r = _fold_in_sweep(weights, w_beta, lword, cells, beta, r)
        theta[rows[live]] = new[live]
        live &= np.abs(new - weights).max(axis=1) >= tol
        np.copyto(weights, new, where=live[:, None])
        cells_live = int(row_cells[rows[live]].sum())
    return theta


def _fold_in_sweep(theta, w_beta, lword, cells, beta: float, r=None):
    """One fold-in EM sweep: (the next mixing weights of the queries
    `theta`, R), with `cells` the _Cells of their cells, which cover every
    row, and `r` the R of an earlier sweep on them, if any, to overwrite.

    E-step as in em_step, with theta in place of A; only the row-side SpMM
    is needed.  A cell with S_beta below 1e-200 adds its log-domain
    posterior; one with S_beta = 0 raises DegeneracyError."""
    theta_beta = theta if beta == 1.0 else np.exp(beta * _safe_log(theta))
    r, tail = _e_step(cells, theta_beta, w_beta, beta,
                      lambda i, j: (_safe_log(theta[i]), lword[j]), r=r)
    acc = theta_beta * (r @ w_beta)
    for sel, weighted in tail:
        np.add.at(acc, cells.doc_ids[sel], weighted)
    return acc / acc.sum(axis=1, keepdims=True), r
