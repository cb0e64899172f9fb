"""Acceptance suite.

Each test is one acceptance criterion, run at its stated tolerance, and
prints a single [PASS]/[FAIL] line (run pytest with -s to see them).  The
final block is dataset-conditional: it needs the classic MED collection,
supplied via the PLSA_DATA_DIR environment variable (files MED.ALL,
MED.QRY, MED.REL), and is skipped otherwise.
"""

import functools
import os
import time
from pathlib import Path

import numpy as np
import pytest

import helpers
from plsa import (
    CountMatrix,
    Rankings,
    RetrievalRun,
    TemConfig,
    build_counts,
    cell_posteriors,
    em_step,
    fit_em,
    fit_tem,
    fold_in,
    free_energy,
    init_model,
    internal_split,
    joint_prob,
    log_likelihood,
    mixing_weight_matrix,
    parse_qrels,
    parse_smart_collection,
    perplexity,
    posterior,
    precision_recall,
    rank_all,
    split_heldout,
    tokenize,
    truncated_svd,
    unigram_baseline,
)
from plsa.lsa import lsi_doc_coords
from plsa.retrieval import combined_scores, cosine_scores, latent_scores, plsi_star_scores


def criterion(name):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[FAIL] {name}")
                raise
            print(f"[PASS] {name}")
        return wrapper
    return decorate


# ------------------------------------------------------- shared fixtures


@pytest.fixture(scope="module")
def synthetic_corpus():
    """200 docs x 50 terms, ~20k tokens, sampled from a known 4-factor model."""
    rng = np.random.default_rng(20260810)
    generator = helpers.topic_generator(rng, k=4, n_docs=200, n_terms=50)
    corpus = helpers.sample_corpus(generator, 20000, rng)
    return generator, corpus


@pytest.fixture(scope="module")
def overfit_paired_runs(synthetic_corpus):
    """EM and TEM fits at K=64 over ten seeds, scored on an external
    held-out split.  The coarse improvement tolerance makes the stage
    structure visible: plain EM stops early while the tempered stages keep
    harvesting held-out gains."""
    _, corpus = synthetic_corpus
    runs = []
    for seed in range(10):
        pair = split_heldout(corpus, 0.1, seed=1000 + seed)
        config = TemConfig(seed=seed, improvement_tol=1e-3)
        em_model, _ = fit_em(pair.train, 64, config)
        tem_model, tem_trace = fit_tem(pair.train, 64, config)
        runs.append((
            perplexity(em_model, pair.heldout, conditional=True),
            perplexity(tem_model, pair.heldout, conditional=True),
            tem_trace,
        ))
    return runs


# -------------------------------------------------------------- criteria


@criterion("EM monotonicity: 50 corpora x K in {1,2,4}, 100 sweeps, <10s")
def test_em_monotonicity():
    start = time.time()
    rng = np.random.default_rng(1)
    for _ in range(50):
        n = int(rng.integers(3, 21))
        m = int(rng.integers(4, 31))
        counts = helpers.random_counts(rng, n, m, int(rng.integers(10, 201)))
        for k in (1, 2, 4):
            model = init_model(k, n, m, seed=int(rng.integers(1 << 31)))
            prev = log_likelihood(model, counts)
            for _ in range(100):
                model = em_step(model, counts)
                cur = log_likelihood(model, counts)
                assert cur >= prev - 1e-9 * abs(prev), (n, m, k)
                prev = cur
    elapsed = time.time() - start
    assert elapsed < 10.0, f"took {elapsed:.1f}s"


@criterion("Brute-force equivalence: 20 random models vs triple-loop oracle at 1e-12, <1s")
def test_brute_force_equivalence():
    start = time.time()
    rng = np.random.default_rng(2)
    for _ in range(20):
        k = int(rng.integers(1, 5))
        n = int(rng.integers(2, 7))
        m = int(rng.integers(2, 8))
        model = helpers.random_model(rng, k, n, m)
        counts = helpers.random_counts(rng, n, m, int(rng.integers(3, 16)))
        for d in range(n):
            for w in range(m):
                assert abs(joint_prob(model, d, w) - helpers.brute_joint(model, d, w)) < 1e-12
        d = int(rng.integers(n))
        w = int(rng.integers(m))
        for beta in (0.5, 1.0):
            np.testing.assert_allclose(posterior(model, d, w, beta),
                                       helpers.brute_posterior(model, d, w, beta),
                                       atol=1e-12)
        assert abs(log_likelihood(model, counts)
                   - helpers.brute_log_likelihood(model, counts)) < 1e-12 * max(
                       1.0, abs(helpers.brute_log_likelihood(model, counts)))
        q = cell_posteriors(model, counts, beta=0.8)
        lib = free_energy(model, counts, q, beta=0.8)
        ref = helpers.brute_free_energy(model, counts, q, beta=0.8)
        assert abs(lib - ref) < 1e-12 * max(1.0, abs(ref))
    elapsed = time.time() - start
    assert elapsed < 1.0, f"took {elapsed:.2f}s"


@criterion("Free-energy identity: F_1 with exact posteriors equals -log-likelihood at 1e-9")
def test_free_energy_identity():
    rng = np.random.default_rng(3)
    for _ in range(10):
        model = helpers.random_model(rng, int(rng.integers(1, 5)), 5, 6)
        counts = helpers.random_counts(rng, 5, 6, 12)
        q = cell_posteriors(model, counts, beta=1.0)
        f_value = free_energy(model, counts, q, beta=1.0)
        ll = log_likelihood(model, counts)
        assert abs(f_value + ll) <= 1e-9 * max(1.0, abs(ll))


@criterion("K=1 collapse: fitted model equals the unigram baseline at 1e-10")
def test_k1_collapse():
    counts = helpers.random_counts(np.random.default_rng(7), 12, 18, 90, max_count=6)
    config = TemConfig(seed=21)
    model, _ = fit_em(counts, 1, config)
    reference = unigram_baseline(internal_split(counts, config).train)
    assert np.abs(model.prior - reference.prior).max() <= 1e-10
    assert np.abs(model.doc_given_z - reference.doc_given_z).max() <= 1e-10
    assert np.abs(model.word_given_z - reference.word_given_z).max() <= 1e-10
    fitted_ppx = perplexity(model, counts, conditional=True)
    unigram_ppx = perplexity(reference, counts, conditional=True)
    np.testing.assert_allclose(fitted_ppx, unigram_ppx, rtol=1e-8)


@criterion("Tempering limit: beta=0 posterior exactly uniform; entropy monotone in beta")
def test_tempering_limit():
    rng = np.random.default_rng(4)
    for _ in range(10):
        k = int(rng.integers(2, 6))
        model = helpers.random_model(rng, k, 5, 5)
        d, w = int(rng.integers(5)), int(rng.integers(5))
        flat = posterior(model, d, w, beta=0.0)
        assert np.array_equal(flat, np.full(k, 1.0 / k))
        entropies = [helpers.entropy(posterior(model, d, w, beta))
                     for beta in (0.25, 0.5, 0.75, 1.0)]
        assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))


@criterion("Generator recovery: K=4 fit within 10% of the generator's held-out perplexity, <30s")
def test_generator_recovery(synthetic_corpus):
    start = time.time()
    generator, corpus = synthetic_corpus
    pair = split_heldout(corpus, 0.1, seed=99)
    model, _ = fit_tem(pair.train, 4, TemConfig(seed=5))
    fitted = perplexity(model, pair.heldout, conditional=True)
    reference = perplexity(generator, pair.heldout, conditional=True)
    assert abs(fitted - reference) <= 0.10 * reference, (fitted, reference)
    elapsed = time.time() - start
    assert elapsed < 30.0, f"took {elapsed:.1f}s"


@criterion("TEM vs EM generalization: TEM held-out perplexity <= EM in >= 8 of 10 seeds")
def test_tem_vs_em_generalization(overfit_paired_runs):
    wins = sum(tem_ppx <= em_ppx for em_ppx, tem_ppx, _ in overfit_paired_runs)
    assert wins >= 8, f"TEM won only {wins}/10"


@criterion("Beta-trace shape: held-out minimum attained at some beta < 1 when overfit-prone")
def test_beta_trace_shape(overfit_paired_runs):
    best_betas = []
    for _, _, trace in overfit_paired_runs:
        best = min(trace.records, key=lambda r: r.heldout_perplexity)
        best_betas.append(best.beta)
    assert best_betas[0] < 1.0, best_betas
    assert sum(b < 1.0 for b in best_betas) >= 8, best_betas


@criterion("SVD correctness: hand oracles at 1e-8, orthonormality, rank-K optimality")
def test_svd_correctness():
    from test_lsa import counts_from_dense

    decomp = truncated_svd(counts_from_dense(np.diag([5, 3, 1])), 3)
    np.testing.assert_allclose(decomp.sigma, [5.0, 3.0, 1.0], atol=1e-8)

    decomp = truncated_svd(counts_from_dense([[3, 0], [4, 0]]), 1)
    np.testing.assert_allclose(decomp.sigma, [5.0], atol=1e-8)
    np.testing.assert_allclose(decomp.v[:, 0], [1.0, 0.0], atol=1e-8)

    rng = np.random.default_rng(5)
    for _ in range(3):
        dense = rng.integers(0, 9, size=(4, 4)).astype(float)
        dense[0, 0] = max(dense[0, 0], 1)
        counts = counts_from_dense(dense)
        decomp = truncated_svd(counts, 2)
        np.testing.assert_allclose(decomp.u.T @ decomp.u, np.eye(2), atol=1e-8)
        np.testing.assert_allclose(decomp.v.T @ decomp.v, np.eye(2), atol=1e-8)
        optimal = np.linalg.norm(dense - decomp.u @ np.diag(decomp.sigma) @ decomp.v.T)
        for _ in range(1000):
            basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
            candidate = basis @ (basis.T @ dense)
            assert optimal <= np.linalg.norm(dense - candidate) + 1e-10


@criterion("Retrieval arithmetic: scoring and precision-recall match hand oracles")
def test_retrieval_arithmetic():
    cos, _, _ = cosine_scores([[2, 1], [0, 2]], [[1, 2], [1, 0]])  # queries x documents
    assert abs(cos[0, 0] - 0.8) < 1e-12
    assert cos[1, 1] == 0.0
    cos, _, _ = cosine_scores([[1, 2, 3]], [[1, 2, 3]])
    assert abs(cos[0, 0] - 1.0) < 1e-12

    latent, _, _ = latent_scores([[0.5, 0.5], [0.0, 1.0]], [[1.0, 0.0]])
    assert abs(latent[0, 0] - np.sqrt(2) / 2) < 1e-12
    assert latent[1, 0] == 0.0

    assert abs(combined_scores(0.5, 0.4, 0.8) - 0.6) < 1e-12
    assert combined_scores(1.0, 0.4, 0.8) == 0.4
    assert combined_scores(0.0, 0.4, 0.8) == 0.8

    d1, q1 = [1.0, 0.0], [0.2, np.sqrt(1 - 0.04)]
    d2, q2 = [1.0, 0.0], [0.6, np.sqrt(1 - 0.36)]
    latent, _, _ = plsi_star_scores([latent_scores([q1], [d1]), latent_scores([q2], [d2])])
    assert abs(combined_scores(0.0, 0.9, latent)[0, 0] - 0.4) < 1e-12

    rankings = rank_all(np.ones((1, 4)), True, ["q"])
    assert rankings.doc_ids.tolist() == [[0, 1, 2, 3]]

    def run_for(order, relevant):
        ranking = Rankings(["q"], [order], [np.linspace(1.0, 0.1, len(order))])
        return RetrievalRun(ranking, {"q": relevant})

    summary = precision_recall(run_for(list(range(10)), {0, 1, 2}))
    assert summary.average_precision == 1.0
    summary = precision_recall(run_for(list(range(10)), {1}))
    np.testing.assert_allclose(summary.per_query["q"], 0.5, atol=1e-15)
    assert summary.average_precision == 0.5


# --------------------------------------------- dataset-conditional (MED)

MED_DIR = os.environ.get("PLSA_DATA_DIR", "")
MED_FILES = ("MED.ALL", "MED.QRY", "MED.REL")
med_available = bool(MED_DIR) and all((Path(MED_DIR) / f).exists() for f in MED_FILES)

requires_med = pytest.mark.skipif(
    not med_available,
    reason="MED collection not supplied; set PLSA_DATA_DIR to a directory "
           "containing MED.ALL, MED.QRY and MED.REL",
)


@pytest.fixture(scope="module")
def med_collection():
    docs = parse_smart_collection(Path(MED_DIR) / "MED.ALL")
    queries = parse_smart_collection(Path(MED_DIR) / "MED.QRY")
    judgments = parse_qrels(Path(MED_DIR) / "MED.REL")
    vocab, counts = build_counts([tokenize(r.text) for r in docs])
    return docs, queries, judgments, vocab, counts


def _med_query_vectors(queries, vocab):
    vectors = []
    for record in queries:
        per_term = {}
        for token in tokenize(record.text):
            tid = vocab.index.get(token)
            if tid is not None:
                per_term[tid] = per_term.get(tid, 0) + 1
        vectors.append(per_term)
    return vectors


def _med_average_precision(score_matrix, docs, queries, judgments):
    doc_index = {r.id: i for i, r in enumerate(docs)}
    internal = {}
    for qi, record in enumerate(queries):
        relevant = {doc_index[d] for d in judgments.get(record.id, ()) if d in doc_index}
        if relevant:
            internal[qi] = relevant
    judged = list(internal)
    rankings = rank_all(score_matrix[judged], True, judged)
    return precision_recall(RetrievalRun(rankings, internal)).average_precision


@requires_med
class TestMedCollection:
    @criterion("MED: 1033 documents parsed from the SMART collection")
    def test_document_count(self, med_collection):
        docs, *_ = med_collection
        assert len(docs) == 1033

    @criterion("MED: CLI ingest reports docs=1033")
    def test_cli_ingest_reports_count(self, tmp_path, capsys):
        from plsa.cli import main
        rc = main(["ingest", str(Path(MED_DIR) / "MED.ALL"), "--format", "smart",
                   "--out", str(tmp_path / "ing")])
        assert rc == 0
        assert "docs=1033" in capsys.readouterr().out

    @criterion("MED: cos+tf baseline average precision 44.3 +/- 2 points")
    def test_baseline_average_precision(self, med_collection):
        docs, queries, judgments, vocab, counts = med_collection
        dense = counts.to_csr()
        doc_norms = np.sqrt(np.asarray(dense.multiply(dense).sum(axis=1)).ravel())
        vectors = _med_query_vectors(queries, vocab)
        scores = np.zeros((len(queries), counts.n_docs))
        for qi, vec in enumerate(vectors):
            q = np.zeros(counts.n_terms)
            for t, c in vec.items():
                q[t] = c
            raw = dense @ q
            with np.errstate(divide="ignore", invalid="ignore"):
                scores[qi] = np.nan_to_num(raw / (doc_norms * np.linalg.norm(q)))
        ap = _med_average_precision(scores, docs, queries, judgments)
        print(f"    cos+tf average precision: {ap:.4f}")
        assert 0.423 <= ap <= 0.463, ap

    @criterion("MED: PLSI* (K=32..128, lambda=1/2) beats the cosine baseline")
    def test_plsi_star_beats_baseline(self, med_collection):
        docs, queries, judgments, vocab, counts = med_collection
        dense = counts.to_csr()
        doc_norms = np.sqrt(np.asarray(dense.multiply(dense).sum(axis=1)).ravel())
        vectors = _med_query_vectors(queries, vocab)
        cos_scores = np.zeros((len(queries), counts.n_docs))
        for qi, vec in enumerate(vectors):
            q = np.zeros(counts.n_terms)
            for t, c in vec.items():
                q[t] = c
            raw = dense @ q
            with np.errstate(divide="ignore", invalid="ignore"):
                cos_scores[qi] = np.nan_to_num(raw / (doc_norms * np.linalg.norm(q)))
        baseline_ap = _med_average_precision(cos_scores, docs, queries, judgments)

        latent = np.zeros_like(cos_scores)
        ks = (32, 48, 64, 80, 128)
        entries = [(qi, t, c) for qi, vec in enumerate(vectors) for t, c in sorted(vec.items())]
        query_counts = CountMatrix.from_entries(len(vectors), counts.n_terms, *zip(*entries))
        for i, k in enumerate(ks):
            model, _ = fit_tem(counts, k, TemConfig(seed=100 + i))
            # queries without a usable term and documents without mass score 0
            scores, _, _ = latent_scores(fold_in(model, query_counts), mixing_weight_matrix(model))
            latent += scores / len(ks)
        plsi_star = 0.5 * cos_scores + 0.5 * latent
        ap = _med_average_precision(plsi_star, docs, queries, judgments)
        print(f"    PLSI* average precision: {ap:.4f} (baseline {baseline_ap:.4f})")
        assert ap > baseline_ap

    @criterion("MED: unigram conditional perplexity within 5% of 3073")
    def test_unigram_perplexity_scale(self, med_collection):
        *_, counts = med_collection
        pair = split_heldout(counts, 0.1, seed=1)
        baseline = unigram_baseline(pair.train)
        value = perplexity(baseline, pair.heldout, conditional=True)
        print(f"    unigram held-out perplexity: {value:.0f}")
        assert abs(value - 3073) <= 0.05 * 3073, value


CRAN_FILE = Path(MED_DIR) / "cran.all.1400" if MED_DIR else None


@pytest.mark.skipif(not (CRAN_FILE and CRAN_FILE.exists()),
                    reason="CRAN collection not supplied")
@criterion("CRAN: 1400 documents parsed from the SMART collection")
def test_cran_document_count():
    assert len(parse_smart_collection(CRAN_FILE)) == 1400
