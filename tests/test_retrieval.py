"""Scoring and evaluation tests, mostly against hand-computed oracles."""

import warnings

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from plsa import Rankings, RetrievalRun, precision_recall, rank_all
from plsa.retrieval import combined_scores, cosine_scores, latent_scores, plsi_star_scores


class TestCosineScore:
    def test_identical_vectors(self):
        scores, q_ok, d_ok = cosine_scores([[1, 2, 3]], [[1, 2, 3]])
        assert scores[0, 0] == pytest.approx(1.0, abs=1e-12)
        assert q_ok[0] and d_ok[0]

    def test_disjoint_supports(self):
        assert cosine_scores([[0, 2]], [[1, 0]])[0][0, 0] == 0.0

    def test_hand_value(self):
        assert cosine_scores([[2, 1]], [[1, 2]])[0][0, 0] == pytest.approx(0.8, abs=1e-12)

    def test_symmetric_and_scale_invariant(self):
        rng = np.random.default_rng(1)
        docs = rng.integers(0, 5, size=(20, 6)).astype(float)
        queries = rng.integers(0, 5, size=(20, 6)).astype(float)
        scores, q_ok, d_ok = cosine_scores(queries, docs)
        swapped, _, _ = cosine_scores(docs, queries)
        np.testing.assert_allclose(scores, swapped.T, rtol=0, atol=1e-12)
        for alpha in (2.0, 7.5):
            np.testing.assert_allclose(cosine_scores(queries, alpha * docs)[0], scores,
                                       rtol=0, atol=1e-12)
            np.testing.assert_allclose(cosine_scores(alpha * queries, docs)[0], scores,
                                       rtol=0, atol=1e-12)
        for i, d in np.ndindex(scores.shape):
            want = helpers.cosine(docs[d], queries[i])
            assert scores[i, d] == pytest.approx(0.0 if want is None else want, abs=1e-12)

    def test_zero_vector_rejected(self):
        # an all-zero row is masked out, so rank_all ranks its pairs last
        scores, q_ok, d_ok = cosine_scores([[1, 0], [0, 0]], [[0, 0], [2, 0]])
        np.testing.assert_array_equal(q_ok, [True, False])
        np.testing.assert_array_equal(d_ok, [False, True])
        np.testing.assert_array_equal(scores, [[0.0, 1.0], [0.0, 0.0]])


class TestLatentScore:
    def test_identical(self):
        assert latent_scores([[0.2, 0.8]], [[0.2, 0.8]])[0][0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_orthogonal_corners(self):
        assert latent_scores([[0.0, 1.0]], [[1.0, 0.0]])[0][0, 0] == 0.0

    def test_hand_value(self):
        assert latent_scores([[0.5, 0.5]], [[1.0, 0.0]])[0][0, 0] == pytest.approx(
            np.sqrt(2) / 2, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            latent_scores([[0.5, 0.5]], [[1.0]])


class TestCombinedScore:
    def test_endpoints(self):
        assert combined_scores(1.0, 0.3, 0.9) == 0.3
        assert combined_scores(0.0, 0.3, 0.9) == 0.9

    def test_midpoint(self):
        assert combined_scores(0.5, 0.4, 0.8) == pytest.approx(0.6, abs=1e-15)

    def test_monotone_in_both_inputs(self):
        lam = 0.3
        assert combined_scores(lam, 0.5, 0.5) < combined_scores(lam, 0.6, 0.5)
        assert combined_scores(lam, 0.5, 0.5) < combined_scores(lam, 0.5, 0.6)

    def test_lambda_range(self):
        with pytest.raises(ValueError):
            combined_scores(1.5, 0.5, 0.5)


def plsi_star(doc_reps, query_reps, lam, cos):
    """The PLSI* blend of one query/document pair, one representation each
    per model, through the matrix scorers."""
    pieces = [latent_scores([q], [d]) for d, q in zip(doc_reps, query_reps, strict=True)]
    return combined_scores(lam, cos, plsi_star_scores(pieces)[0])[0, 0]


class TestPlsiStarScore:
    def test_single_model_equals_combined(self):
        d, q = [0.7, 0.3], [0.4, 0.6]
        expected = combined_scores(0.5, 0.2, helpers.cosine(d, q))
        assert plsi_star([d], [q], 0.5, 0.2) == pytest.approx(expected, abs=1e-15)

    def test_uniform_average(self):
        # scores 0.2 and 0.6 at lambda 0 average to 0.4; engineer reps with
        # those cosines via 2-vectors at known angles
        d1, q1 = [1.0, 0.0], [0.2, np.sqrt(1 - 0.04)]
        d2, q2 = [1.0, 0.0], [0.6, np.sqrt(1 - 0.36)]
        assert plsi_star([d1, d2], [q1, q2], 0.0, 0.9) == pytest.approx(0.4, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(2)
        doc_reps = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        query_reps = [rng.dirichlet(np.ones(3)) for _ in range(4)]
        a = plsi_star(doc_reps, query_reps, 0.4, 0.5)
        b = plsi_star(doc_reps[::-1], query_reps[::-1], 0.4, 0.5)
        assert a == pytest.approx(b, abs=1e-12)

    def test_duplicated_model_idempotent(self):
        d, q = [0.7, 0.3], [0.4, 0.6]
        one = plsi_star([d], [q], 0.3, 0.5)
        many = plsi_star([d] * 5, [q] * 5, 0.3, 0.5)
        assert many == pytest.approx(one, abs=1e-12)

    def test_empty_and_misaligned(self):
        with pytest.raises(ValueError):
            plsi_star_scores([])
        # models that disagree on the number of queries cannot be averaged
        with pytest.raises(ValueError):
            plsi_star_scores([latent_scores([[1.0]], [[1.0]]),
                              latent_scores([[1.0], [1.0]], [[1.0]])])


class TestRankAll:
    def test_sorts_descending(self):
        rankings = rank_all(np.array([[0.1, 0.9, 0.5]]), True, ["q1"])
        assert rankings.doc_ids.tolist() == [[1, 2, 0]]

    def test_ties_by_ascending_doc_id(self):
        rankings = rank_all(np.ones((1, 4)), True, ["q1"])
        assert rankings.doc_ids.tolist() == [[0, 1, 2, 3]]

    def test_matches_exhaustive_cosine(self):
        docs = np.array([[2.0, 0.0, 1.0], [0.0, 1.0, 1.0], [1.0, 1.0, 0.0]])
        query = np.array([1.0, 0.0, 1.0])
        scores, q_ok, d_ok = cosine_scores(query[None, :], docs)
        rankings = rank_all(scores, q_ok[:, None] & d_ok[None, :], [0])
        by_hand = sorted(range(3), key=lambda d: (-helpers.cosine(docs[d], query), d))
        assert rankings.doc_ids[0].tolist() == by_hand

    def test_scorer_error_ranks_last_with_warning(self):
        with pytest.warns(RuntimeWarning, match="could not be scored"):
            rankings = rank_all(np.array([[0.0, 1.0, 2.0]]), np.array([True, False, True]), ["q"])
        assert rankings.doc_ids[0, -1] == 1
        assert rankings.scores[0, -1] == -np.inf

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 5), st.integers(1, 8))
    def test_matches_sorted_oracle(self, seed, n_queries, n_docs):
        # scores from a few values give exact ties, -0.0 and 0.0 among them;
        # whole rows and columns may be unscorable
        rng = np.random.default_rng(seed)
        scores = rng.choice([-0.5, -0.0, 0.0, 0.25, 1.0, np.inf], size=(n_queries, n_docs))
        scorable = rng.random((n_queries, n_docs)) < 0.8
        scorable[rng.integers(n_queries)] = rng.random() < 0.5
        scorable[:, rng.integers(n_docs)] &= rng.random() < 0.5
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            rankings = rank_all(scores, scorable, [f"q{i}" for i in range(n_queries)])
        masked = np.where(scorable, scores, -np.inf)
        assert rankings.query_ids == [f"q{i}" for i in range(n_queries)]
        for i, (doc_ids, ranked) in enumerate(zip(rankings.doc_ids, rankings.scores)):
            assert doc_ids.tolist() == helpers.brute_rank(masked[i].tolist())
            assert ranked.tobytes() == masked[i, doc_ids].tobytes()  # -0.0 stays -0.0
        expected = [f"query 'q{i}': {n} document(s) could not be scored and rank last"
                    for i, n in enumerate((~scorable).sum(axis=1)) if n]
        assert [str(w.message) for w in caught] == expected
        assert all(w.category is RuntimeWarning for w in caught)

    def test_one_query_id_per_row(self):
        with pytest.raises(ValueError):
            rank_all(np.zeros((2, 3)), True, ["q"])


class TestRankedListValidation:
    """Each case is rejected as a one-row Rankings and as the second row of a
    matrix whose first row is valid: the checks run over the whole matrix."""

    @staticmethod
    def assert_rejected(doc_ids, scores):
        with pytest.raises(ValueError):
            Rankings(["q"], [doc_ids], [scores])
        n = len(doc_ids)
        with pytest.raises(ValueError):
            Rankings(["ok", "q"], [list(range(n)), doc_ids], [np.linspace(1.0, 0.0, n), scores])

    def test_rejects_increasing_scores(self):
        self.assert_rejected([0, 1], [0.1, 0.9])

    def test_rejects_tie_order_violation(self):
        self.assert_rejected([1, 0], [0.5, 0.5])

    def test_rejects_tie_order_violation_at_minus_infinity(self):
        self.assert_rejected([0, 2, 1], [0.5, -np.inf, -np.inf])

    def test_rejects_duplicates(self):
        self.assert_rejected([0, 0], [0.9, 0.1])

    def test_rejects_ids_outside_the_documents(self):
        self.assert_rejected([0, 2], [0.9, 0.1])
        self.assert_rejected([-1, 0], [0.9, 0.1])

    def test_rejects_misshapen_input(self):
        with pytest.raises(ValueError):
            Rankings(["q", "r"], [[0, 1]], [[0.9, 0.1]])  # one query id per row
        with pytest.raises(ValueError):
            Rankings(["q"], [[0, 1]], [[0.9, 0.1, 0.0]])
        with pytest.raises(ValueError):
            Rankings(["q"], [0, 1], [0.9, 0.1])  # a vector, not a matrix

    def test_accepts_what_rank_all_returns(self):
        ranked = rank_all(np.array([[0.5, 0.5, 1.0], [0.0, -0.0, 0.0]]), True, ["a", "b"])
        again = Rankings(ranked.query_ids, ranked.doc_ids, ranked.scores)
        assert again.doc_ids.tolist() == [[2, 0, 1], [0, 1, 2]]


class TestRetrievalRun:
    def test_requires_judgments_for_every_query(self):
        ranking = Rankings(["q1"], [[0, 1]], [[0.9, 0.1]])
        with pytest.raises(ValueError):
            RetrievalRun(ranking, {})


def make_run(rank_orders, judgments):
    """A run of the given per-query document orders, which must have equal
    lengths, with linearly decreasing scores."""
    orders = list(rank_orders.values())
    scores = [np.linspace(1.0, 0.1, len(order)) for order in orders]
    return RetrievalRun(Rankings(list(rank_orders), orders, scores), judgments)


class TestPrecisionRecall:
    def test_all_relevant_first(self):
        run = make_run({"q": list(range(10))}, {"q": {0, 1, 2}})
        summary = precision_recall(run)
        np.testing.assert_array_equal(summary.per_query["q"], np.ones(9))
        assert summary.average_precision == 1.0

    def test_single_relevant_at_rank_two(self):
        run = make_run({"q": list(range(10))}, {"q": {1}})
        summary = precision_recall(run)
        np.testing.assert_allclose(summary.per_query["q"], 0.5, atol=1e-15)
        assert summary.average_precision == pytest.approx(0.5, abs=1e-15)

    def test_interpolated_curve_non_increasing(self):
        rng = np.random.default_rng(3)
        for _ in range(20):
            order = rng.permutation(12).tolist()
            relevant = set(rng.choice(12, size=4, replace=False).tolist())
            summary = precision_recall(make_run({"q": order}, {"q": relevant}))
            curve = summary.per_query["q"]
            assert all(a >= b - 1e-15 for a, b in zip(curve, curve[1:]))
            assert curve.min() >= 0.0 and curve.max() <= 1.0

    def test_hand_oracle_two_relevant(self):
        # relevant docs at ranks 1 and 4: precision 1.0 until recall 0.5,
        # then 2/4 from recall 0.6 up
        run = make_run({"q": [4, 1, 2, 3, 0]}, {"q": {4, 3}})
        summary = precision_recall(run)
        expected = [1.0] * 5 + [0.5] * 4
        np.testing.assert_allclose(summary.per_query["q"], expected, atol=1e-15)

    def test_macro_average_over_queries(self):
        run = make_run({"a": list(range(10)), "b": list(range(10))},
                       {"a": {0, 1, 2}, "b": {1}})
        summary = precision_recall(run)
        assert summary.n_queries == 2
        assert summary.average_precision == pytest.approx((1.0 + 0.5) / 2, abs=1e-15)
        np.testing.assert_allclose(summary.precision_at_level,
                                   (np.ones(9) + np.full(9, 0.5)) / 2, atol=1e-15)

    def test_query_without_relevant_docs_excluded(self):
        run = make_run({"a": list(range(5)), "b": list(range(5))},
                       {"a": {0}, "b": set()})
        with pytest.warns(RuntimeWarning, match="no relevant"):
            summary = precision_recall(run)
        assert summary.n_queries == 1
        assert "b" not in summary.per_query

    def test_all_queries_empty_is_an_error(self):
        run = make_run({"a": list(range(3))}, {"a": set()})
        with pytest.warns(RuntimeWarning):
            with pytest.raises(ValueError):
                precision_recall(run)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.integers(1, 6), st.integers(1, 12))
    def test_matches_per_query_oracle(self, seed, n_queries, n_docs):
        # every query at once gives each query's curve and the macro
        # averages bit for bit; some queries have no relevant documents
        rng = np.random.default_rng(seed)
        scores = rng.choice([0.0, 0.25, 0.5, 1.0], size=(n_queries, n_docs))
        qids = [f"q{i}" for i in range(n_queries)]
        judgments = {q: set(rng.choice(n_docs, size=rng.integers(0, n_docs + 1),
                                       replace=False).tolist()) for q in qids}
        judgments[qids[rng.integers(n_queries)]].add(int(rng.integers(n_docs)))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            summary = precision_recall(RetrievalRun(rank_all(scores, True, qids), judgments))
        table = []
        for i, q in enumerate(qids):
            if not judgments[q]:
                assert q not in summary.per_query
                continue
            order = helpers.brute_rank(scores[i].tolist())
            want = helpers.brute_interpolated_precision(
                np.array([d in judgments[q] for d in order]), len(judgments[q]))
            assert summary.per_query[q].tobytes() == want.tobytes()
            table.append(want)
        table = np.vstack(table)
        assert summary.n_queries == len(table)
        assert summary.precision_at_level.tobytes() == table.mean(axis=0).tobytes()
        assert summary.average_precision == table.mean(axis=1).mean()

    def test_missing_relevant_document_detected(self):
        # judgments reference a document absent from the ranking
        run = make_run({"a": [0, 1, 2]}, {"a": {5}})
        with pytest.raises(ValueError, match="missing"):
            precision_recall(run)


class TestBaselineEquivalence:
    def test_lambda_one_ignores_latent_path(self):
        rng = np.random.default_rng(4)
        docs = rng.integers(0, 4, size=(5, 6)).astype(float)
        docs[docs.sum(axis=1) == 0, 0] = 1
        query = rng.integers(1, 4, size=6).astype(float)
        latent_doc = rng.dirichlet(np.ones(3), size=5)
        latent_query = rng.dirichlet(np.ones(3))
        cos, _, _ = cosine_scores(query[None, :], docs)
        latent, _, _ = latent_scores(latent_query[None, :], latent_doc)
        a = rank_all(combined_scores(1.0, cos, latent), True, ["q"])
        b = rank_all(cos, True, ["q"])
        np.testing.assert_array_equal(a.doc_ids, b.doc_ids)
        np.testing.assert_array_equal(a.scores, b.scores)


class TestMatrixScorers:
    def test_cosine_matches_dense_formula(self):
        rng = np.random.default_rng(8)
        docs = rng.integers(0, 3, size=(6, 9)) * (rng.random((6, 9)) < 0.4)
        docs[2] = 0  # an empty document
        queries = rng.integers(0, 3, size=(4, 9)) * (rng.random((4, 9)) < 0.4)
        queries[1] = 0  # a query without terms
        scores, q_ok, d_ok = cosine_scores(scipy.sparse.csr_matrix(queries), docs)
        np.testing.assert_array_equal(q_ok, queries.any(axis=1))
        np.testing.assert_array_equal(d_ok, docs.any(axis=1))
        for i, q in enumerate(queries):
            for d, doc in enumerate(docs):
                want = (helpers.cosine(doc, q) if q_ok[i] and d_ok[d] else 0.0)
                assert scores[i, d] == pytest.approx(want, abs=1e-15)
                with np.errstate(invalid="ignore"):
                    dense = np.dot(doc, q) / (np.linalg.norm(doc) * np.linalg.norm(q))
                assert scores[i, d] == pytest.approx(np.nan_to_num(dense), rel=1e-12, abs=1e-15)

    def test_latent_masks_non_finite_and_zero_rows(self):
        reps = np.array([[0.2, 0.8], [np.nan, np.nan], [0.0, 0.0], [1.0, 0.0]])
        scores, q_ok, d_ok = latent_scores(reps, reps)
        np.testing.assert_array_equal(q_ok, [True, False, False, True])
        np.testing.assert_array_equal(d_ok, q_ok)
        assert np.isfinite(scores).all()
        assert scores[0, 3] == pytest.approx(0.2 / np.hypot(0.2, 0.8), abs=1e-15)

    def test_plsi_star_averages_and_intersects_masks(self):
        a = (np.array([[0.2, 0.4]]), np.array([True]), np.array([True, False]))
        b = (np.array([[0.6, 0.0]]), np.array([False]), np.array([True, True]))
        scores, q_ok, d_ok = plsi_star_scores([a, b])
        np.testing.assert_allclose(scores, [[0.4, 0.2]], atol=1e-15)
        np.testing.assert_array_equal(q_ok, [False])
        np.testing.assert_array_equal(d_ok, [True, False])
