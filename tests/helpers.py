"""Shared test utilities: brute-force oracles kept deliberately independent
of the library's vectorized paths, readers of the per-cell quantities the
production paths compute, and random/synthetic data generators."""

import functools
import hashlib
import math
import re
import tempfile
import tracemalloc
from pathlib import Path
from unittest import mock

import numpy as np

from plsa import (AspectModel, CountMatrix, ParseError, Vocabulary, lsi_doc_coords,
                  mixing_weight_matrix, serialize, trainer)
from plsa.aspect_model import _Cells, _e_step, _log_blocks, _scan_log_joint, _tempered_joint

PROB_FLOOR = 1e-12
_TOKEN_RE = re.compile(r"[^\W_]+")


# ----------------------------------------------------------- brute oracles
# Triple loops over (d, w, z) in plain Python floats.  The tempering
# convention matches the library: a zero joint term keeps zero mass for
# every beta >= 0.


def brute_joint(model, d, w):
    return sum(
        float(model.prior[z]) * float(model.doc_given_z[d, z]) * float(model.word_given_z[w, z])
        for z in range(model.k)
    )


def brute_posterior(model, d, w, beta):
    terms = []
    for z in range(model.k):
        p = float(model.prior[z]) * float(model.doc_given_z[d, z]) * float(model.word_given_z[w, z])
        terms.append(p ** beta if p > 0.0 else 0.0)
    total = sum(terms)
    if total == 0.0:
        raise ZeroDivisionError("no factor can generate this observation")
    return np.array([t / total for t in terms])


def _log_terms(model, d, w, beta):
    """beta * log[P(z)P(d|z)P(w|z)] per factor, -inf where the product is 0,
    summed from the logs of the three factors so nothing underflows."""
    out = []
    for z in range(model.k):
        parts = (float(model.prior[z]), float(model.doc_given_z[d, z]),
                 float(model.word_given_z[w, z]))
        out.append(beta * sum(math.log(p) for p in parts) if min(parts) > 0.0 else -math.inf)
    return out


def log_domain_posterior(model, d, w, beta):
    """brute_posterior from log terms: exact also where the factor products
    fall below the float range."""
    logs = _log_terms(model, d, w, beta)
    peak = max(logs)
    if peak == -math.inf:
        raise ZeroDivisionError("no factor can generate this observation")
    terms = [math.exp(x - peak) for x in logs]
    total = sum(terms)
    return np.array([t / total for t in terms])


def log_domain_joint(model, d, w, beta):
    """log sum_z [P(z)P(d|z)P(w|z)]^beta from log terms (-inf if zero)."""
    logs = _log_terms(model, d, w, beta)
    peak = max(logs)
    if peak == -math.inf:
        return -math.inf
    return peak + math.log(sum(math.exp(x - peak) for x in logs))


def brute_em_step(model, counts, beta, posterior=log_domain_posterior):
    """One E+M sweep by per-cell accumulation of n(d,w) * q(z; d, w), with the
    library's rule for a factor that gets no mass: uniform conditionals and
    the mean prior mass."""
    k = model.k
    doc = np.zeros((model.n_docs, k))
    word = np.zeros((model.n_terms, k))
    prior = np.zeros(k)
    for d, w, c in zip(counts.doc_ids, counts.term_ids, counts.counts):
        q = posterior(model, int(d), int(w), beta) * int(c)
        doc[d] += q
        word[w] += q
        prior += q
    dead = prior == 0.0
    doc[:, dead] = 1.0
    word[:, dead] = 1.0
    prior[dead] = prior.sum() / k
    return AspectModel(prior / prior.sum(), doc / doc.sum(axis=0), word / word.sum(axis=0))


def brute_cell_posteriors(model, counts, beta, posterior=brute_posterior):
    """posterior() of every nonzero cell, shape (nnz, K), in entry order."""
    return np.array([posterior(model, int(d), int(w), beta)
                     for d, w in zip(counts.doc_ids, counts.term_ids)])


def brute_log_likelihood(model, counts, floor=PROB_FLOOR):
    result = 0.0
    for d, w, c in zip(counts.doc_ids, counts.term_ids, counts.counts):
        result += int(c) * math.log(max(brute_joint(model, int(d), int(w)), floor))
    return result


def brute_free_energy(model, counts, posteriors, beta):
    result = 0.0
    for i, (d, w, c) in enumerate(zip(counts.doc_ids, counts.term_ids, counts.counts)):
        for z in range(model.k):
            q = float(posteriors[i, z])
            if q <= 0.0:
                continue
            joint = (float(model.prior[z]) * float(model.doc_given_z[int(d), z])
                     * float(model.word_given_z[int(w), z]))
            result += int(c) * (-beta * q * math.log(joint) + q * math.log(q))
    return result


def brute_tokenize(text: str, stopwords=None) -> list[str]:
    """tokenize as one regex pass over the lowered text, whatever its
    characters: the reference for the ASCII translate path."""
    tokens = _TOKEN_RE.findall(text.lower())
    if stopwords:
        tokens = [t for t in tokens if t not in stopwords]
    return tokens


def brute_build_counts(docs: list[list[str]]) -> tuple[Vocabulary, CountMatrix]:
    """build_counts as one dict pass per token: the reference for the
    blocked array path.

    Term ids are assigned in first-seen order across the corpus.  Documents
    with no tokens are retained as empty rows.
    """
    index: dict[str, int] = {}
    terms: list[str] = []
    doc_ids, term_ids, counts = [], [], []
    for d, tokens in enumerate(docs):
        per_doc: dict[int, int] = {}
        for token in tokens:
            tid = index.get(token)
            if tid is None:
                tid = len(terms)
                index[token] = tid
                terms.append(token)
            per_doc[tid] = per_doc.get(tid, 0) + 1
        for tid in sorted(per_doc):
            doc_ids.append(d)
            term_ids.append(tid)
            counts.append(per_doc[tid])
    if not terms:
        raise ValueError("all documents are empty; nothing to count")
    matrix = CountMatrix(
        len(docs), len(terms),
        np.array(doc_ids, dtype=np.int64),
        np.array(term_ids, dtype=np.int64),
        np.array(counts, dtype=np.int64),
    )
    return Vocabulary(terms), matrix


def brute_load_counts(path, n_docs=None, n_terms=None):
    """CountMatrix.load as one Python pass over the lines: the reference for
    the array parser, with the same ParseError line numbers."""
    docs, terms, counts = [], [], []
    with open(path, encoding="utf-8") as f:
        for line_no, line in enumerate(f, 1):
            line = line.strip()
            if not line:
                continue
            if line.startswith("#"):
                parts = line.split("\t")
                if parts[0] == "#dims" and len(parts) == 3:
                    n_docs = int(parts[1])
                    n_terms = int(parts[2])
                continue
            parts = line.split()
            if len(parts) != 3:
                raise ParseError(path, line_no, "expected 'doc_id term_id count'")
            try:
                d, w, c = int(parts[0]), int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError(path, line_no, "doc_id, term_id and count must be integers") from None
            if c < 1:
                raise ParseError(path, line_no, "count must be >= 1")
            docs.append(d)
            terms.append(w)
            counts.append(c)
    if not docs:
        raise ParseError(path, 0, "no count entries found")
    doc_arr = np.array(docs, dtype=np.int64)
    term_arr = np.array(terms, dtype=np.int64)
    count_arr = np.array(counts, dtype=np.int64)
    if n_docs is None:
        n_docs = int(doc_arr.max()) + 1
    if n_terms is None:
        n_terms = int(term_arr.max()) + 1
    order = np.lexsort((term_arr, doc_arr))
    doc_arr, term_arr, count_arr = doc_arr[order], term_arr[order], count_arr[order]
    key = doc_arr * n_terms + term_arr
    uniq, inverse = np.unique(key, return_inverse=True)
    merged = np.zeros(uniq.size, dtype=np.int64)
    np.add.at(merged, inverse, count_arr)
    return CountMatrix(n_docs, n_terms, uniq // n_terms, uniq % n_terms, merged)


def brute_save_counts(counts, path):
    """CountMatrix.save one f-string per entry: the byte-level reference."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(f"#dims\t{counts.n_docs}\t{counts.n_terms}\n")
        for d, w, c in zip(counts.doc_ids, counts.term_ids, counts.counts):
            f.write(f"{d}\t{w}\t{c}\n")


def brute_fold_in(model, ids, cnt, beta=1.0, max_iters=50, tol=1e-6):
    """Fold-in of one query given as parallel (term ids, counts), one query
    at a time with log-domain posteriors: the reference for the batched
    fold_in.  Returns (weights, sweeps run), or (None, 0) for a query
    without a term some factor can generate."""
    ids = np.asarray(ids, dtype=np.int64)
    cnt = np.asarray(cnt, dtype=np.float64)
    supported = model.word_given_z[ids].sum(axis=1) > 0.0
    ids, cnt = ids[supported], cnt[supported]
    if ids.size == 0:
        return None, 0
    with np.errstate(divide="ignore"):
        lword = np.log(model.word_given_z[ids])
    weights = np.full(model.k, 1.0 / model.k)
    sweeps = 0
    for sweeps in range(1, max_iters + 1):
        with np.errstate(divide="ignore", invalid="ignore"):
            lp = np.log(weights)[None, :] + lword
            scaled = np.where(np.isneginf(lp), -np.inf, beta * lp)
        peak = scaled.max(axis=1)
        if np.isneginf(peak).any():
            raise ZeroDivisionError("no factor can generate this observation")
        post = np.exp(scaled - peak[:, None])
        post /= post.sum(axis=1, keepdims=True)
        updated = (post * cnt[:, None]).sum(axis=0)
        updated /= updated.sum()
        delta = np.abs(updated - weights).max()
        weights = updated
        if delta < tol:
            break
    return weights, sweeps


def word_given_doc(model):
    """P(w|d) = sum_z P(z|d) P(w|z) for every document, shape (N, M), from the
    library's mixing weights: rows of zero-mass documents are NaN."""
    return mixing_weight_matrix(model) @ model.word_given_z.T


def cosine(a, b):
    """Cosine of two vectors in plain Python floats; None if either is all zero."""
    dot = sum(float(x) * float(y) for x, y in zip(a, b, strict=True))
    norms = math.sqrt(sum(float(x) ** 2 for x in a) * sum(float(y) ** 2 for y in b))
    return dot / norms if norms else None


def _brute_unit_rows(matrix):
    norms = np.linalg.norm(matrix, axis=1)
    valid = norms > 0.0
    out = np.zeros_like(matrix, dtype=np.float64)
    out[valid] = matrix[valid] / norms[valid, None]
    return out, valid


def brute_query_scores(counts, vocab, query_texts, models=(), svd=None, lam=0.5,
                       fold_in_beta=1.0, stopwords=None):
    """The query command's scoring as a dense per-query path: term cosine
    from dense query vectors, one brute_fold_in per query and model (models
    reduced in the order of their parameter hashes), LSI coordinates from
    the dense query vectors, their mean, and the lam-blend.  Returns
    (scores, query mask, doc mask); a pair is scorable when both are set."""
    n_queries = len(query_texts)
    query_dense = np.zeros((n_queries, counts.n_terms))
    for i, text in enumerate(query_texts):
        for token in brute_tokenize(text, stopwords):
            if token in vocab.index:
                query_dense[i, vocab.index[token]] += 1
    doc_csr = counts.to_csr()
    doc_norms = np.sqrt(np.asarray(doc_csr.multiply(doc_csr).sum(axis=1)).ravel())
    query_norms = np.linalg.norm(query_dense, axis=1)
    with np.errstate(divide="ignore", invalid="ignore"):
        cos = (doc_csr @ query_dense.T).T / (query_norms[:, None] * doc_norms[None, :])
    cos = np.nan_to_num(cos, nan=0.0, posinf=0.0, neginf=0.0)
    query_valid, doc_valid = query_norms > 0.0, doc_norms > 0.0
    if lam == 1.0 or not (models or svd):
        return cos, query_valid, doc_valid
    pieces = []
    order = sorted(models, key=lambda m: hashlib.sha256(
        m.prior.tobytes() + m.doc_given_z.tobytes() + m.word_given_z.tobytes()).hexdigest())
    for model in order:
        doc_reps = mixing_weight_matrix(model)
        finite = np.isfinite(doc_reps).all(axis=1)
        doc_unit, d_ok = _brute_unit_rows(np.where(finite[:, None], doc_reps, 0.0))
        reps = np.zeros((n_queries, model.k))
        q_ok = np.zeros(n_queries, dtype=bool)
        for i in range(n_queries):
            ids = np.flatnonzero(query_dense[i])
            rep, _ = brute_fold_in(model, ids, query_dense[i, ids], beta=fold_in_beta)
            if rep is not None:
                reps[i], q_ok[i] = rep, True
        query_unit, norm_ok = _brute_unit_rows(reps)
        pieces.append(query_unit @ doc_unit.T)
        query_valid &= q_ok & norm_ok
        doc_valid &= finite & d_ok
    if svd is not None:
        doc_coords, d_ok = _brute_unit_rows(lsi_doc_coords(svd))
        query_coords, q_ok = _brute_unit_rows(query_dense @ svd.v)
        pieces.append(query_coords @ doc_coords.T)
        query_valid &= q_ok
        doc_valid &= d_ok
    latent = sum(pieces) / len(pieces)
    return lam * cos + (1.0 - lam) * latent, query_valid, doc_valid


def brute_rank(scores):
    """Document order of one query: descending score, ties by ascending id."""
    return sorted(range(len(scores)), key=lambda d: (-scores[d], d))


def brute_interpolated_precision(hits, n_relevant):
    """Interpolated precision at recall 0.1 .. 0.9 of one ranking, from its
    per-rank relevance flags: the best precision at or after the first rank
    whose recall reaches each level."""
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, hits.size + 1)
    recall = cum / n_relevant
    best_ahead = np.maximum.accumulate(precision[::-1])[::-1]
    levels = np.arange(1, 10) / 10.0
    return best_ahead[np.searchsorted(recall, levels, side="left")]


def brute_run_and_pr(scores, scorable, query_ids, doc_ids, judgments):
    """run.txt, and pr.txt when `judgments` (external query id -> set of
    external doc ids) is given, written one f-string per line from
    brute_rank's order and per-document relevance checks."""
    scores = np.where(scorable, scores, -np.inf)
    run, table = [], []
    for qi, qid in enumerate(query_ids):
        order = brute_rank(scores[qi].tolist())
        for rank, d in enumerate(order, 1):
            run.append(f"{qid} {doc_ids[d]} {rank} {scores[qi, d]:.10g}\n")
        relevant = (judgments or {}).get(qid, set())
        if not relevant:
            continue
        table.append(brute_interpolated_precision(
            np.array([doc_ids[d] in relevant for d in order]), len(relevant)))
    if judgments is None:
        return "".join(run), None
    table = np.vstack(table)
    pr = ["# recall\tprecision\n"]
    pr += [f"{level / 10:.1f}\t{p:.6f}\n" for level, p in zip(range(1, 10), table.mean(axis=0))]
    pr.append(f"# average_precision\t{table.mean(axis=1).mean():.6f}\t({len(table)} queries)\n")
    return "".join(run), "".join(pr)


def entropy(p):
    return float(-sum(x * math.log(x) for x in np.asarray(p).ravel() if x > 0.0))


# ------------------------------------------------- production-path readers


def doc_major(cells, values):
    """Per-cell `values` of an aspect_model._Cells, which keeps its cells in
    (term, doc) order, in the (doc, term) order of the CountMatrix it was
    built from."""
    return values[np.lexsort((cells.terms_of(np.arange(cells.nnz)), cells.doc_ids))]


def joint_by_cell(model, counts, beta):
    """S_beta per nonzero cell of `counts`, in its (doc, term) order, as the
    E-step's SDDMM computes it on the counts' _Cells."""
    cells = _Cells.of(counts)
    return doc_major(cells, _tempered_joint(model, cells, beta)[2])


def scan_by_cell(model, counts, beta):
    """log S_beta per nonzero cell of `counts`, in its (doc, term) order, as
    aspect_model._scan_log_joint computes it on the counts' _Cells."""
    cells = _Cells.of(counts)
    return doc_major(cells, _scan_log_joint(model, cells, beta))


def e_step_posteriors(model, counts, beta):
    """The tempered posteriors q(z; d, w) of the nonzero cells, shape (nnz, K),
    in the (doc, term) order of `counts`, as aspect_model._e_step hands them
    to the M-step: a[d] w[w] R / n on the normal cells, and the tail's n q / n
    on the cells where S_beta underflows.  Raises DegeneracyError where
    S_beta = 0."""
    cells = _Cells.of(counts)
    rows, cols, n = cells.doc_ids, cells.terms_of(np.arange(cells.nnz)), cells.counts
    a, w, s = _tempered_joint(model, cells, beta)
    r, tail = _e_step(cells, a, w, beta, functools.partial(_log_blocks, model), s)
    q = a[rows] * w[cols] * (r.data / n)[:, None]
    for sel, weighted in tail:
        q[sel] = weighted / n[sel, None]
    return doc_major(cells, q)


def compacting_fold_in(model, queries, beta=1.0, max_iters=50, tol=1e-6):
    """trainer.fold_in with its working set compacted to the live rows before
    every sweep, which also builds its _Cells anew in every sweep: the
    reference that the kept working set must match bit for bit.  Returns
    (weights, the live rows of each sweep)."""
    terms, cell_term = np.unique(queries.term_ids, return_inverse=True)
    emitted = model.word_given_z[terms].sum(axis=1) > 0.0
    keep = emitted[cell_term]
    terms, cell_term = terms[emitted], (np.cumsum(emitted) - 1)[cell_term[keep]]
    cell_row, cell_count = queries.doc_ids[keep], queries.counts[keep]
    with np.errstate(divide="ignore"):
        lword = np.log(model.word_given_z[terms])
    w_beta = model.word_given_z[terms] if beta == 1.0 else np.exp(beta * lword)
    theta = np.full((queries.n_docs, model.k), 1.0 / model.k)
    row_cells = np.bincount(cell_row, minlength=queries.n_docs)
    active = row_cells > 0
    theta[~active] = np.nan
    sweeps = []
    for _ in range(max_iters):
        rows = np.flatnonzero(active)
        if not rows.size:
            break
        sweeps.append(rows)
        sel = active[cell_row]
        old = theta[rows]
        cells = _Cells(np.repeat(np.arange(rows.size), row_cells[rows]), cell_term[sel],
                       cell_count[sel], (rows.size, terms.size))
        theta[rows] = new = trainer._fold_in_sweep(old, w_beta, lword, cells, beta)[0]
        active[rows] = np.abs(new - old).max(axis=1) >= tol
    return theta, sweeps


def cell_posterior(model, d, w, beta):
    """e_step_posteriors of the single cell (d, w)."""
    cell = CountMatrix(model.n_docs, model.n_terms, [d], [w], [1])
    return e_step_posteriors(model, cell, beta)[0]


def full_table(n_docs, n_terms):
    """Counts of 1 in every cell, in row-major order."""
    d, w = np.divmod(np.arange(n_docs * n_terms), n_terms)
    return CountMatrix(n_docs, n_terms, d, w, np.ones(d.size, dtype=np.int64))


def traced_peak(fn, *args):
    """(fn(*args), the peak of the memory traced while it ran): what fn
    allocated at its high point, its result included, inputs excluded."""
    tracemalloc.start()
    try:
        return fn(*args), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def fit_with_models(fit, counts, k, config):
    """fit(counts, k, config)'s trace, and the model after each of its sweeps:
    models[i] is the one that trace.records[i] scores."""
    models = []
    sweep = trainer.em_step

    def recorded(*args, **kwargs):
        models.append(sweep(*args, **kwargs))
        return models[-1]

    with mock.patch.object(trainer, "em_step", recorded):
        _, trace = fit(counts, k, config)
    return trace, models


# ------------------------------------------------------------- generators


def random_model(rng, k, n_docs, n_terms):
    prior = 0.1 + rng.random(k)
    doc = 0.05 + rng.random((n_docs, k))
    word = 0.05 + rng.random((n_terms, k))
    return AspectModel(prior / prior.sum(), doc / doc.sum(axis=0), word / word.sum(axis=0))


def random_counts(rng, n_docs, n_terms, nnz, max_count=5):
    nnz = min(nnz, n_docs * n_terms)
    cells = rng.choice(n_docs * n_terms, size=nnz, replace=False)
    counts = rng.integers(1, max_count + 1, size=nnz)
    return CountMatrix.from_entries(
        n_docs, n_terms, cells // n_terms, cells % n_terms, counts)


def counts_container(tsv_path, kind="counts", **arrays) -> bytes:
    """The bytes of a counts.bin that records the SHA-256 of the counts.tsv
    at `tsv_path` and a valid checksum, holding the arrays of the container
    beside that file but those given."""
    valid = serialize.load_arrays(Path(tsv_path).with_suffix(".bin"))
    sha256 = hashlib.sha256(Path(tsv_path).read_bytes()).hexdigest()
    with tempfile.TemporaryDirectory() as work:
        serialize.save_arrays(Path(work) / "counts.bin", kind, {**valid, **arrays},
                              meta={"source_sha256": sha256}, checksum=True)
        return (Path(work) / "counts.bin").read_bytes()


def sample_corpus(model, n_tokens, rng):
    """Draw token occurrences (z, then d and w given z) from an aspect model
    and aggregate them into a count matrix."""
    z = rng.choice(model.k, size=n_tokens, p=model.prior)
    d = np.empty(n_tokens, dtype=np.int64)
    w = np.empty(n_tokens, dtype=np.int64)
    for zz in range(model.k):
        idx = np.flatnonzero(z == zz)
        if idx.size == 0:
            continue
        d[idx] = rng.choice(model.n_docs, size=idx.size, p=model.doc_given_z[:, zz])
        w[idx] = rng.choice(model.n_terms, size=idx.size, p=model.word_given_z[:, zz])
    keys, counts = np.unique(d * model.n_terms + w, return_counts=True)
    return CountMatrix(model.n_docs, model.n_terms,
                       keys // model.n_terms, keys % model.n_terms, counts)


def topic_generator(rng, k=4, n_docs=200, n_terms=50, doc_alpha=0.3, word_alpha=0.1):
    """A well-separated generating model: each factor concentrates on its own
    block of terms, documents mix factors with a sparse Dirichlet."""
    word = np.empty((n_terms, k))
    block = n_terms // k
    for z in range(k):
        alpha = np.full(n_terms, word_alpha)
        alpha[z * block:(z + 1) * block] = 5.0
        word[:, z] = rng.dirichlet(alpha)
    theta = rng.dirichlet(np.full(k, doc_alpha), size=n_docs)  # per-doc mixtures
    joint_dz = theta / n_docs
    prior = joint_dz.sum(axis=0)
    doc = joint_dz / prior[None, :]
    return AspectModel(prior, doc, word)
