"""Correctness checks made apart from the program.

Each check reads the program's output files with the benchmark's own
parsers and compares them with what the generator drew, with brute-force
computations written here, or with properties the method must have.  None
compares with a stored copy of earlier output.  Every check returns a list
of failure messages (empty when it passes) and may add figures to `info`.
"""

import json
import math
from pathlib import Path

import numpy as np
import scipy.sparse

from workloads import LAMBDA, term_name

RECALL_LEVELS = np.arange(1, 10) / 10.0
PROB_FLOOR = 1e-12   # probabilities are floored here in the perplexity


def read_container(path):
    """Arrays of a model.bin / svd.bin file: a magic line, a JSON header
    line, then raw little-endian arrays in header order."""
    with open(path, "rb") as f:
        if not f.readline().startswith(b"#plsa-container"):
            raise ValueError(f"{path}: unknown container magic")
        header = json.loads(f.readline())
        arrays = {}
        for entry in header["arrays"]:
            dtype = np.dtype(entry["dtype"])
            n = int(np.prod(entry["shape"], dtype=np.int64))
            arrays[entry["name"]] = np.frombuffer(f.read(dtype.itemsize * n), dtype=dtype
                                                  ).reshape(entry["shape"])
    return arrays


def read_vocab(work, n_gen_terms):
    """Program term id -> generator term id, from the ingested vocab.tsv."""
    gen_of = {}
    gen_ids = {term_name(t): t for t in range(n_gen_terms)}
    with open(work / "ingest" / "vocab.tsv", encoding="utf-8") as f:
        for line in f:
            i, term = line.rstrip("\n").split("\t")
            gen_of[int(i)] = gen_ids[term]
    return np.array([gen_of[i] for i in range(len(gen_of))], dtype=np.int64)


def read_triples(path):
    """((n_docs, n_terms), triples) of a counts.tsv with a #dims header."""
    with open(path, encoding="utf-8") as f:
        dims = f.readline().split()
    data = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    return (int(dims[1]), int(dims[2])), data


def check_model(path):
    """Every parameter block is non-negative and sums to 1 per column."""
    bad = []
    for name, block in read_container(path).items():
        if not np.all(np.isfinite(block)) or block.min() < 0.0:
            bad.append(f"{path.parent.name}/{name}: negative or non-finite entries")
        elif np.max(np.abs(block.sum(axis=0) - 1.0)) > 1e-9:
            bad.append(f"{path.parent.name}/{name}: columns do not sum to 1")
    return bad


def check_trace(path, fit):
    """Train perplexity never increases within the beta = 1 stage, and the
    fit ran the planned sweeps: `per_beta` at beta = 1, then beta < 1 up to
    `total`."""
    rows = [line.split("\t") for line in path.read_text(encoding="utf-8").splitlines()
            if not line.startswith("#")]
    beta = np.array([float(r[1]) for r in rows])
    train = np.array([float(r[2]) for r in rows])
    bad = []
    planned = [1.0] * fit.per_beta + [0.9] * (fit.total - fit.per_beta)
    if len(rows) != fit.total or not np.allclose(beta, planned, rtol=0, atol=1e-12):
        bad.append(f"{path.parent.name}: betas {beta.tolist()} differ from the plan {planned}")
    stage = train[beta == 1.0]
    if np.any(np.diff(stage) > 1e-12 * stage[:-1]):
        bad.append(f"{path.parent.name}: train perplexity rose within the beta = 1 stage")
    return bad


def check_ingest(work, gen, gen_term):
    """counts.tsv holds exactly the sampled token counts, after relabelling
    term ids through vocab.tsv."""
    (n_docs, n_terms), triples = read_triples(work / "ingest" / "counts.tsv")
    n_gen_terms = gen["phi"].shape[0]
    expect_keys, expect_counts = np.unique(
        gen["doc_tok"] * n_gen_terms + gen["term_tok"], return_counts=True)
    keys = triples[:, 0] * n_gen_terms + gen_term[triples[:, 1]]
    order = np.argsort(keys)
    if n_docs != gen["theta"].shape[0] or n_terms != gen_term.size:
        return ["ingest: dimensions differ from the generated corpus"]
    if not (np.array_equal(keys[order], expect_keys)
            and np.array_equal(triples[order, 2], expect_counts)):
        return ["ingest: counts.tsv differs from the sampled token counts"]
    return []


def heldout_bounds(work, gen, gen_term):
    """(generator's, unigram model's) conditional perplexity on the held-out
    file the program is given."""
    _, held = read_triples(work / "heldout" / "counts.tsv")
    d, w, c = held[:, 0], gen_term[held[:, 1]], held[:, 2]
    p_gen = np.einsum("ij,ij->i", gen["theta"][d], gen["phi"][w])
    col = np.bincount(gen["term_tok"], minlength=gen["phi"].shape[0])
    p_uni = col[w] / col.sum()
    total = c.sum()
    return (math.exp(-np.dot(c, np.log(p_gen)) / total),
            math.exp(-np.dot(c, np.log(p_uni)) / total))


def model_perplexity(model, work):
    """Conditional perplexity of a parsed model.bin on the held-out file:
    P(w|d) = sum_z P(z) P(d|z) P(w|z) / sum_z P(z) P(d|z), each probability
    floored at PROB_FLOOR as the method's perplexity is defined."""
    _, held = read_triples(work / "heldout" / "counts.tsv")
    d, w, c = held[:, 0], held[:, 1], held[:, 2]
    doc_z = model["doc_given_z"] * model["prior"]
    p = np.einsum("ij,ij->i", doc_z[d], model["word_given_z"][w]) / doc_z.sum(axis=1)[d]
    return math.exp(-np.dot(c, np.log(np.maximum(p, PROB_FLOOR))) / c.sum())


def read_run(path, n_queries, n_docs):
    """run.txt as (doc index, score) matrices in rank order."""
    cols = np.loadtxt(path, dtype=np.float64, ndmin=2)
    if cols.shape[0] != n_queries * n_docs:
        raise ValueError(f"run.txt has {cols.shape[0]} lines, expected {n_queries * n_docs}")
    qid = cols[:, 0].astype(np.int64).reshape(n_queries, n_docs)
    rank = cols[:, 2].astype(np.int64).reshape(n_queries, n_docs)
    if not (np.all(qid == np.arange(1, n_queries + 1)[:, None])
            and np.all(rank == np.arange(1, n_docs + 1)[None, :])):
        raise ValueError("run.txt is not ordered by query, then rank")
    docs = cols[:, 1].astype(np.int64).reshape(n_queries, n_docs) - 1
    scores = cols[:, 3].reshape(n_queries, n_docs)
    return docs, scores


def interpolated_ap(ranked_docs, relevant):
    """Mean interpolated precision at recall 0.1..0.9 for one ranking."""
    hits = np.isin(ranked_docs, list(relevant))
    cum = np.cumsum(hits)
    precision = cum / np.arange(1, hits.size + 1)
    recall = cum / len(relevant)
    out = []
    for level in RECALL_LEVELS:
        out.append(precision[recall >= level].max())
    return float(np.mean(out))


def read_qrels(path, n_queries):
    rel = [set() for _ in range(n_queries)]
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        q, d = line.split()
        rel[int(q) - 1].add(int(d) - 1)
    return rel


def fold_in(word_rows, counts, max_iters=50, tol=1e-6):
    """EM for P(z|q) with P(w|z) frozen, from uniform weights, for a batch
    of queries: word_rows is (queries, terms, K) and counts (queries, terms),
    both zero-padded.  Each query stops by the program's own rule: after the
    sweep in which no weight moved by `tol`, or after `max_iters` sweeps."""
    n_q, _, k = word_rows.shape
    weights = np.full((n_q, k), 1.0 / k)
    active = np.ones(n_q, dtype=bool)
    for _ in range(max_iters):
        post = word_rows * weights[:, None, :]
        norm = post.sum(axis=2, keepdims=True)
        post = np.divide(post, norm, out=np.zeros_like(post), where=norm > 0)
        updated = (post * counts[:, :, None]).sum(axis=1)
        updated /= updated.sum(axis=1, keepdims=True)
        delta = np.abs(updated - weights).max(axis=1)
        weights = np.where(active[:, None], updated, weights)
        active &= ~(delta < tol)
        if not active.any():
            break
    return weights


def _unit_rows(m):
    return m / np.linalg.norm(m, axis=1, keepdims=True)


def brute_scores(gen, gen_term, models, svd, lam, n_queries):
    """The blended score of every (query, doc) pair, computed here: raw
    term cosine, fold-in cosine per aspect model, LSI cosine, then
    lam * cosine + (1 - lam) * mean of the latent cosines."""
    n_docs, n_gen_terms = gen["theta"].shape[0], gen["phi"].shape[0]
    program_id = np.full(n_gen_terms, -1)
    program_id[gen_term] = np.arange(gen_term.size)
    doc_mat = scipy.sparse.csr_matrix(
        (np.ones(gen["doc_tok"].size), (gen["doc_tok"], gen["term_tok"])),
        shape=(n_docs, n_gen_terms))  # duplicate tokens add up to the counts
    doc_norm = np.sqrt(np.asarray(doc_mat.multiply(doc_mat).sum(axis=1)).ravel())
    q_mat = np.zeros((n_queries, gen_term.size))   # program term ids
    for q in range(n_queries):
        pid = program_id[gen["q_terms"][gen["q_ptr"][q]:gen["q_ptr"][q + 1]]]
        np.add.at(q_mat[q], pid[pid >= 0], 1.0)
    raw = (doc_mat[:, gen_term] @ q_mat.T).T
    with np.errstate(invalid="ignore", divide="ignore"):
        cosine = raw / np.outer(np.linalg.norm(q_mat, axis=1), doc_norm)
        latent = []
        width = int((q_mat > 0).sum(axis=1).max())
        for m in models:
            rows = np.zeros((n_queries, width, m["prior"].size))
            cnt = np.zeros((n_queries, width))
            for q in range(n_queries):
                ids = np.flatnonzero(q_mat[q])
                usable = ids[m["word_given_z"][ids].sum(axis=1) > 0]
                rows[q, :usable.size] = m["word_given_z"][usable]
                cnt[q, :usable.size] = q_mat[q, usable]
            doc_rep = m["doc_given_z"] * m["prior"]
            latent.append(_unit_rows(fold_in(rows, cnt)) @ _unit_rows(doc_rep).T)
        latent.append(_unit_rows(q_mat @ svd["v"]) @ _unit_rows(svd["u"] * svd["sigma"]).T)
    return lam * cosine + (1 - lam) * np.mean(latent, axis=0), cosine


def check_ranking(label, docs, scores, expect, tol):
    """Every ranking holds every document once, scores do not increase and
    agree with the brute force `expect` within `tol`, and ties go by
    ascending doc id: where doc ids descend between neighbours, the brute
    force must not score the two exactly equal, nor put the second higher
    by more than `tol`."""
    n_docs = docs.shape[1]
    if np.any(np.sort(docs, axis=1) != np.arange(n_docs)[None, :]):
        return [f"{label}: a ranking does not hold every document exactly once"], np.nan
    ok = np.isfinite(scores).all(axis=1)
    docs, scores = docs[ok], scores[ok]
    expect = np.take_along_axis(expect[ok], docs, axis=1)
    worst = float(np.max(np.abs(scores - expect), initial=0.0))
    bad = []
    if not worst <= tol:
        bad.append(f"{label}: scores differ from the brute force by {worst:.3g}")
    if np.any(np.diff(scores, axis=1) > 0):
        bad.append(f"{label}: scores increase down a ranking")
    descending = np.diff(docs, axis=1) < 0
    first, second = expect[:, :-1], expect[:, 1:]
    if np.any(descending & ((first == second) | (first < second - tol))):
        bad.append(f"{label}: ties are not ordered by ascending doc id")
    return bad, worst


def check_pr(label, out_dir, docs, relevant):
    """The AP recomputed from the ranking and the qrels matches pr.txt.
    Returns (failures, AP in pr.txt)."""
    ap = np.mean([interpolated_ap(docs[q], relevant[q]) for q in range(len(relevant))])
    pr_ap = None
    for line in (out_dir / "pr.txt").read_text(encoding="utf-8").splitlines():
        if line.startswith("# average_precision"):
            pr_ap = float(line.split("\t")[1])
    if pr_ap is None or abs(ap - pr_ap) > 1e-6:
        return [f"{label}: AP from run.txt {ap:.6f} differs from pr.txt {pr_ap}"], pr_ap
    return [], pr_ap


def check_query(work, gen, gen_term, workload, info):
    """The PLSI* run and, where it ran, the cosine-only run: rankings,
    scores against the brute force, AP against pr.txt; the cosine-only AP
    equals the benchmark's own, and (trained models) the PLSI* AP beats it.
    Returns (failures, {step name: number of queries whose ranking holds a
    non-finite score})."""
    n_docs, n_queries = gen["theta"].shape[0], workload.n_queries
    relevant = read_qrels(work / "qrels.txt", n_queries)
    models = [read_container(work / f"k{fit.k}" / "model.bin") for fit in workload.fits]
    svd = read_container(work / "svd" / "svd.bin")
    expect, cosine = brute_scores(gen, gen_term, models, svd, LAMBDA, n_queries)
    cosine = np.nan_to_num(cosine)
    cos_order = np.lexsort((np.broadcast_to(np.arange(n_docs), cosine.shape), -cosine), axis=1)
    cos_ap = float(np.mean([interpolated_ap(cos_order[q], relevant[q]) for q in range(n_queries)]))
    info["cosine_ap"] = cos_ap

    docs, scores = read_run(work / "query" / "run.txt", n_queries, n_docs)
    nonfinite = {"query": int((~np.isfinite(scores).all(axis=1)).sum())}
    # fold-in stops once no weight moves by 1e-6; latent cosines move less
    bad, info["blend_max_abs_err"] = check_ranking("query", docs, scores, expect, 1e-5)
    pr_bad, pr_ap = check_pr("query", work / "query", docs, relevant)
    bad += pr_bad
    info["avg_precision"] = pr_ap
    if workload.trained and not (pr_ap or 0.0) > cos_ap:
        bad.append(f"query: AP {pr_ap} is not above the cosine-only AP {cos_ap:.6f}")

    if (work / "baseline" / "run.txt").exists():
        # cosine only: every document without a query word scores exactly 0,
        # so each ranking ends in hundreds of exact ties
        docs, scores = read_run(work / "baseline" / "run.txt", n_queries, n_docs)
        nonfinite["baseline"] = int((~np.isfinite(scores).all(axis=1)).sum())
        # run.txt prints 10 significant digits
        base_bad, _ = check_ranking("baseline", docs, scores, cosine, 1e-10)
        pr_bad, base_ap = check_pr("baseline", work / "baseline", docs, relevant)
        bad += base_bad + pr_bad
        if base_ap is not None and abs(base_ap - cos_ap) > 1e-6:
            bad.append(f"baseline: AP {base_ap} differs from the benchmark's cosine AP {cos_ap:.6f}")
    return bad, nonfinite


def check_all(work, workload, heldout_ppx, info):
    """Every check on the outputs in `work`.  Returns (failures, failed
    queries per query step)."""
    with np.load(work / "gen.npz") as npz:
        gen = dict(npz)
    gen_term = read_vocab(work, gen["phi"].shape[0])
    bad = check_ingest(work, gen, gen_term)
    gen_ppx, uni_ppx = heldout_bounds(work, gen, gen_term)
    info["generator_ppx"], info["unigram_ppx"] = gen_ppx, uni_ppx
    fit_ppx = {}
    for fit in workload.fits:
        path = work / f"k{fit.k}" / "model.bin"
        bad += check_model(path)
        bad += check_trace(work / f"k{fit.k}" / "trace.tsv", fit)
        fit_ppx[fit.k] = model_perplexity(read_container(path), work)
        if workload.trained and not gen_ppx < fit_ppx[fit.k] < uni_ppx:
            bad.append(f"k{fit.k}: held-out perplexity {fit_ppx[fit.k]:.6g} is not between "
                       f"the generator's {gen_ppx:.6g} and the unigram model's {uni_ppx:.6g}")
    info["fit_ppx"] = fit_ppx
    k = max(fit_ppx)
    if not abs(heldout_ppx - fit_ppx[k]) <= 1e-9 * fit_ppx[k]:
        bad.append(f"perplexity: the program's {heldout_ppx:.10g} differs from "
                   f"{fit_ppx[k]:.10g} computed from k{k}/model.bin")
    query_bad, nonfinite = check_query(work, gen, gen_term, workload, info)
    return bad + query_bad, nonfinite
