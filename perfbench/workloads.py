"""Seeded synthetic inputs and the command sequence of each workload.

Every workload runs the CLI pipeline ingest -> train -> perplexity -> query.
The workload decides the corpus size and which commands run where:

- `setup`: run SETUP_REPEATS times in the parent process (`setup_s` is the
  median); the last set-up's files feed the timed pass;
- `once`: run once at the start of the timed pass, in a fresh worker;
- `loop`: one round of short commands, repeated until the run's time is
  used up, so that their samples are spread over the run instead of
  bunched into one stretch of it.

The generator follows tests/helpers.topic_generator: each of `n_topics`
topics puts most of its word mass on its own block of terms, and documents
mix topics with a sparse Dirichlet, so most documents have one dominant
topic.  Everything is drawn from a numpy Generator seeded by (--seed,
workload name), so one seed always gives the same files.
"""

import zlib
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class Corpus:
    n_docs: int
    n_terms: int
    n_topics: int
    doc_len: int          # mean tokens per document (Poisson)
    heldout_len: float    # mean tokens per document in the held-out sample
    doc_alpha: float = 0.03


@dataclass(frozen=True)
class Fit:
    """One `plsa train --mode tem` run with explicit stopping settings: the
    beta = 1 stage ends at `per_beta` sweeps, the next stage (beta = 0.9)
    at `total` sweeps, and the tolerance is small enough that neither stage
    ends on a stall while held-out perplexity is still falling."""

    k: int
    per_beta: int
    total: int


@dataclass(frozen=True)
class Workload:
    name: str
    corpus: Corpus
    fits: tuple
    svd_k: int
    n_queries: int
    setup: tuple          # step names of one set-up, in order
    once: tuple           # step names run once at the start of the timed pass
    loop: tuple           # step names of one round of the timed pass
    min_rounds: int = 1   # rounds run even when the run's time is used up
    # every fit runs past EM's symmetry-breaking phase, so each model must
    # beat the unigram model on the held-out sample and PLSI* must beat cosine
    trained: bool = True


TOL = "1e-12"
SETUP_REPEATS = 3      # set-ups per run; setup_s is their median
LAMBDA = 0.5           # blend weight of the cosine score
RELEVANT_SHARE = 0.3
BLOCK_ALPHA, WORD_ALPHA = 5.0, 0.01   # topic weight on its own term block / elsewhere
MED = Corpus(n_docs=1033, n_terms=8000, n_topics=32, doc_len=165, heldout_len=16.5)
LARGE = Corpus(n_docs=10000, n_terms=20000, n_topics=32, doc_len=185, heldout_len=18.5)

FULL = {
    "med-tem": Workload(
        "med-tem", MED, fits=(Fit(128, 8, 10),), svd_k=64, n_queries=100,
        setup=("ingest", "heldout"), once=("train", "perplexity"), loop=("ingest", "query")),
    # PLSI* over K = 32 and 48, the two smallest sizes of the paper's PLSI*
    # set (K = 32, 48, 64, 80, 128, as in tests/test_acceptance.py), and 200
    # queries as in ROADMAP's retrieval measurement.  11 sweeps take a fit
    # past symmetry breaking on this corpus (held-out perplexity about 0.3 of
    # the unigram model's).
    "med-query": Workload(
        "med-query", MED, fits=(Fit(32, 10, 11), Fit(48, 10, 11)), svd_k=64, n_queries=200,
        setup=("ingest", "heldout", "baseline"), once=("train", "perplexity"),
        loop=("ingest", "query")),
    # one sweep at beta = 1 and one at beta = 0.9: far too few to break
    # symmetry at this scale, where a sweep takes about 6 s, so the
    # trained-model checks are off here.  The `once` steps take most of the
    # run's 30 s; two rounds after them give ingest three samples and query
    # two.
    "large-em": Workload(
        "large-em", LARGE, fits=(Fit(32, 1, 2),), svd_k=16, n_queries=50,
        setup=(), once=("ingest", "heldout", "train", "perplexity"),
        loop=("ingest", "query"), min_rounds=2, trained=False),
}

# Toy sizes for the smoke run: same steps and checks, a second or two each.
_TOY_MED = Corpus(n_docs=150, n_terms=400, n_topics=4, doc_len=60, heldout_len=12, doc_alpha=0.05)
TOY = {
    "med-tem": replace(FULL["med-tem"], corpus=_TOY_MED, fits=(Fit(8, 8, 10),), svd_k=8,
                       n_queries=20),
    "med-query": replace(FULL["med-query"], corpus=_TOY_MED, fits=(Fit(4, 7, 8), Fit(6, 7, 8)),
                         svd_k=8, n_queries=30),
    "large-em": replace(FULL["large-em"], fits=(Fit(8, 2, 3),), svd_k=4, n_queries=10,
                        corpus=Corpus(n_docs=400, n_terms=800, n_topics=8, doc_len=40,
                                      heldout_len=8)),
}


def term_name(term: int) -> str:
    return f"w{term}"


def generate(workload: Workload, seed: int, work: Path) -> None:
    """Write the workload's input files to `work` and the generator's own
    parameters and samples to `work/gen.npz` for the checks."""
    c = workload.corpus
    salt = zlib.crc32(workload.name.encode())
    rng = np.random.default_rng([seed, salt])
    block = c.n_terms // c.n_topics
    phi = np.empty((c.n_terms, c.n_topics))
    for z in range(c.n_topics):
        alpha = np.full(c.n_terms, WORD_ALPHA)
        alpha[z * block:(z + 1) * block] = BLOCK_ALPHA
        phi[:, z] = rng.dirichlet(alpha)
    theta = rng.dirichlet(np.full(c.n_topics, c.doc_alpha), size=c.n_docs)

    def sample(lengths):
        """Token (doc, term) pairs: topic counts per document, then words."""
        per_topic = rng.multinomial(lengths, theta)
        docs, terms = [], []
        for z in range(c.n_topics):
            n = per_topic[:, z]
            docs.append(np.repeat(np.arange(c.n_docs), n))
            terms.append(rng.choice(c.n_terms, size=int(n.sum()), p=phi[:, z]))
        return np.concatenate(docs), np.concatenate(terms)

    doc_tok, term_tok = sample(np.maximum(rng.poisson(c.doc_len, c.n_docs), 1))
    held_doc, held_term = sample(rng.poisson(c.heldout_len, c.n_docs))

    # queries: a few words of one topic; relevant = documents that give
    # the topic at least RELEVANT_SHARE of their mixture.  The 2-6 word
    # length is a placeholder, not taken from a measured query log.
    relevant = theta >= RELEVANT_SHARE
    q_topic = rng.choice(np.flatnonzero(relevant.any(axis=0)), size=workload.n_queries)
    q_len = rng.integers(2, 7, size=workload.n_queries)
    q_terms = [rng.choice(c.n_terms, size=int(n), p=phi[:, z]) for z, n in zip(q_topic, q_len)]

    work.mkdir(parents=True, exist_ok=True)
    order = np.argsort(doc_tok, kind="stable")
    bounds = np.searchsorted(doc_tok[order], np.arange(c.n_docs + 1))
    words = np.array([term_name(t) for t in range(c.n_terms)], dtype=object)
    with open(work / "docs.txt", "w", encoding="utf-8") as f:
        for d in range(c.n_docs):
            f.write(" ".join(words[term_tok[order[bounds[d]:bounds[d + 1]]]]))
            f.write("\n")
    with open(work / "queries.txt", "w", encoding="utf-8") as f:
        for terms in q_terms:
            f.write(" ".join(words[terms]) + "\n")
    with open(work / "qrels.txt", "w", encoding="utf-8") as f:
        for q, z in enumerate(q_topic, 1):
            for d in np.flatnonzero(relevant[:, z]):
                f.write(f"{q} {d + 1}\n")
    np.savez(work / "gen.npz", theta=theta, phi=phi, doc_tok=doc_tok, term_tok=term_tok,
             held_doc=held_doc, held_term=held_term, q_topic=q_topic,
             q_ptr=np.concatenate([[0], np.cumsum(q_len)]),
             q_terms=np.concatenate(q_terms))


def write_heldout(work: Path) -> None:
    """Write the held-out sample as triples in the ingested vocabulary's term
    ids.  Held-out words the training text never used have no id and are
    dropped, here and in the checks' reference perplexities alike."""
    ids = {}
    with open(work / "ingest" / "vocab.tsv", encoding="utf-8") as f:
        for line in f:
            i, term = line.rstrip("\n").split("\t")
            ids[term] = int(i)
    with np.load(work / "gen.npz") as gen:
        held_doc, held_term = gen["held_doc"], gen["held_term"]
        n_docs, n_gen_terms = gen["theta"].shape[0], gen["phi"].shape[0]
    to_program = np.array([ids.get(term_name(t), -1) for t in range(n_gen_terms)])
    term = to_program[held_term]
    keep = term >= 0
    keys, counts = np.unique(held_doc[keep] * len(ids) + term[keep], return_counts=True)
    (work / "heldout").mkdir(exist_ok=True)
    with open(work / "heldout" / "counts.tsv", "w", encoding="utf-8") as f:
        f.write(f"#dims\t{n_docs}\t{len(ids)}\n")
        f.writelines(f"{k // len(ids)}\t{k % len(ids)}\t{n}\n" for k, n in zip(keys, counts))


def steps(workload: Workload, work: Path, seed: int, names) -> list:
    """The CLI commands (and untimed hooks) behind each step name.

    Each entry is {"step": name, "argv": [...]} for a `plsa` command, with
    "queries" for a query command, or {"step": "heldout"} without argv for
    the benchmark's own relabelling of the held-out sample, which needs the
    vocabulary ingest just wrote.
    """
    w = str(work)
    out = []
    for name in names:
        if name == "ingest":
            out.append({"step": name, "argv": [
                "ingest", f"{w}/docs.txt", "--format", "raw", "--out", f"{w}/ingest"]})
        elif name == "heldout":
            out.append({"step": name})
        elif name == "train":
            for fit in workload.fits:
                out.append({"step": name, "argv": [
                    "train", "--counts", f"{w}/ingest/counts.tsv", "--k", str(fit.k),
                    "--mode", "tem", "--seed", str(seed), "--tol", TOL,
                    "--max-iters-per-beta", str(fit.per_beta),
                    "--max-total-iters", str(fit.total), "--out", f"{w}/k{fit.k}"]})
            out.append({"step": name, "argv": [
                "train", "--counts", f"{w}/ingest/counts.tsv", "--k", str(workload.svd_k),
                "--mode", "svd", "--out", f"{w}/svd"]})
        elif name == "perplexity":
            k = max(fit.k for fit in workload.fits)
            out.append({"step": name, "argv": [
                "perplexity", "--model", f"{w}/k{k}/model.bin",
                "--counts", f"{w}/heldout/counts.tsv", "--conditional", "--out", f"{w}/ppx"]})
        elif name == "baseline":
            out.append({"step": name, "queries": workload.n_queries, "argv": [
                "query", "--counts", f"{w}/ingest/counts.tsv",
                "--queries", f"{w}/queries.txt", "--queries-format", "raw",
                "--baseline-only", "--qrels", f"{w}/qrels.txt", "--out", f"{w}/baseline"]})
        elif name == "query":
            out.append({"step": name, "queries": workload.n_queries, "argv": [
                "query", "--counts", f"{w}/ingest/counts.tsv",
                "--queries", f"{w}/queries.txt", "--queries-format", "raw",
                "--model", *[f"{w}/k{fit.k}/model.bin" for fit in workload.fits],
                "--svd", f"{w}/svd/svd.bin", "--lambda", str(LAMBDA),
                "--qrels", f"{w}/qrels.txt", "--out", f"{w}/query"]})
        else:
            raise ValueError(f"unknown step {name!r}")
    return out
