"""Aspect-model tests: posteriors, likelihood, perplexity, free energy and
the simplex geometry of the parameterization."""

import numpy as np
import pytest

import helpers
from plsa import (
    AspectModel,
    DegeneracyError,
    cell_posteriors,
    free_energy,
    init_model,
    joint_prob,
    log_likelihood,
    mixing_weight_matrix,
    perplexity,
    posterior,
    top_words,
    unigram_baseline,
)
from plsa import build_counts


class TestInitModel:
    def test_deterministic(self):
        a = init_model(3, 5, 7, seed=123)
        b = init_model(3, 5, 7, seed=123)
        np.testing.assert_array_equal(a.prior, b.prior)
        np.testing.assert_array_equal(a.doc_given_z, b.doc_given_z)
        np.testing.assert_array_equal(a.word_given_z, b.word_given_z)

    def test_different_seeds_differ(self):
        a = init_model(3, 5, 7, seed=1)
        b = init_model(3, 5, 7, seed=2)
        assert not np.array_equal(a.word_given_z, b.word_given_z)

    def test_single_factor_prior(self):
        assert init_model(1, 4, 4, seed=0).prior.tolist() == [1.0]

    def test_normalized_and_positive(self):
        m = init_model(4, 6, 9, seed=5)
        for block in (m.prior, m.doc_given_z, m.word_given_z):
            assert block.min() > 0.0
            np.testing.assert_allclose(block.sum(axis=0), 1.0, atol=1e-10)

    def test_rejects_bad_sizes(self):
        for k, n, m in ((0, 2, 2), (2, 0, 2), (2, 2, 0)):
            with pytest.raises(ValueError):
                init_model(k, n, m, seed=0)


class TestModelValidation:
    def test_unnormalized_rejected(self):
        with pytest.raises(ValueError):
            AspectModel(np.array([0.5, 0.4]), np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            AspectModel(np.array([1.5, -0.5]), np.full((2, 2), 0.5), np.full((2, 2), 0.5))

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            AspectModel(np.array([1.0]), np.full((2, 2), 0.5), np.ones((2, 1)))

    @pytest.mark.parametrize("block", range(3))
    def test_nan_rejected(self, block):
        blocks = [np.array([0.5, 0.5]), np.full((2, 2), 0.5), np.full((2, 2), 0.5)]
        blocks[block].flat[0] = np.nan
        with pytest.raises(ValueError, match="sum to 1"):
            AspectModel(*blocks)


class TestPosterior:
    def test_single_factor(self):
        m = init_model(1, 3, 3, seed=0)
        np.testing.assert_array_equal(posterior(m, 1, 2, beta=0.7), [1.0])

    def test_beta_zero_is_uniform(self):
        m = init_model(4, 5, 5, seed=2)
        np.testing.assert_allclose(posterior(m, 0, 0, beta=0.0), 0.25, atol=1e-15)

    def test_hand_example(self):
        m = AspectModel(np.array([0.5, 0.5]),
                        np.array([[1.0, 1.0]]),
                        np.array([[0.9, 0.1], [0.1, 0.9]]))
        np.testing.assert_allclose(posterior(m, 0, 0, beta=1.0), [0.9, 0.1], atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            m = helpers.random_model(rng, 3, 4, 6)
            for beta in (0.3, 0.75, 1.0, 2.0):
                d = int(rng.integers(4))
                w = int(rng.integers(6))
                np.testing.assert_allclose(
                    posterior(m, d, w, beta), helpers.brute_posterior(m, d, w, beta),
                    atol=1e-12)

    def test_entropy_dampening(self):
        # posteriors move toward uniform as beta decreases
        rng = np.random.default_rng(9)
        for _ in range(10):
            m = helpers.random_model(rng, 5, 4, 4)
            d, w = int(rng.integers(4)), int(rng.integers(4))
            entropies = [helpers.entropy(posterior(m, d, w, beta))
                         for beta in (0.0, 0.25, 0.5, 0.75, 1.0)]
            assert all(a >= b - 1e-12 for a, b in zip(entropies, entropies[1:]))

    def test_unreachable_observation(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0], [0.0]]),
                        np.array([[1.0], [0.0]]))
        with pytest.raises(DegeneracyError):
            posterior(m, 0, 1, beta=1.0)

    def test_negative_beta_rejected(self):
        with pytest.raises(ValueError):
            posterior(init_model(2, 2, 2, seed=0), 0, 0, beta=-0.1)

    def test_cell_posteriors_match_scalar_path(self):
        rng = np.random.default_rng(10)
        m = helpers.random_model(rng, 3, 5, 6)
        counts = helpers.random_counts(rng, 5, 6, 14)
        for beta in (0.5, 1.0):
            table = cell_posteriors(m, counts, beta)
            for i, (d, w) in enumerate(zip(counts.doc_ids, counts.term_ids)):
                np.testing.assert_allclose(table[i], posterior(m, int(d), int(w), beta),
                                           atol=1e-15)


class TestParameterizationEquivalence:
    def test_symmetric_and_asymmetric_agree(self):
        # P(z) P(d|z) = P(d) P(z|d) cell by cell
        rng = np.random.default_rng(21)
        m = helpers.random_model(rng, 3, 5, 4)
        pd = m.doc_given_z @ m.prior
        weights = mixing_weight_matrix(m)
        for d in range(5):
            lhs = m.prior * m.doc_given_z[d]
            rhs = pd[d] * weights[d]
            np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_joint_via_conditional_route(self):
        rng = np.random.default_rng(22)
        m = helpers.random_model(rng, 4, 6, 5)
        pd = m.doc_given_z @ m.prior
        for d in range(6):
            pw_given_d = helpers.word_given_doc(m)[d]
            for w in range(5):
                np.testing.assert_allclose(joint_prob(m, d, w), pd[d] * pw_given_d[w],
                                           atol=1e-12)


class TestWordGivenDoc:
    def test_single_factor_equals_word_column(self):
        m = init_model(1, 3, 8, seed=4)
        np.testing.assert_array_equal(helpers.word_given_doc(m)[1], m.word_given_z[:, 0])

    def test_normalized(self):
        rng = np.random.default_rng(30)
        m = helpers.random_model(rng, 4, 5, 9)
        for v in helpers.word_given_doc(m):
            assert v.min() >= 0.0
            np.testing.assert_allclose(v.sum(), 1.0, atol=1e-10)

    def test_lies_in_factor_hull(self):
        # the document word distribution is a convex combination of factors
        rng = np.random.default_rng(31)
        for k in (2, 3):
            m = helpers.random_model(rng, k, 4, 7)
            for target in helpers.word_given_doc(m):
                coeffs, residual, *_ = np.linalg.lstsq(m.word_given_z, target, rcond=None)
                np.testing.assert_allclose(m.word_given_z @ coeffs, target, atol=1e-10)
                assert coeffs.min() >= -1e-10
                np.testing.assert_allclose(coeffs.sum(), 1.0, atol=1e-10)

    def test_zero_mass_document(self):
        # P(z|d) and so P(w|d) of a document without mass are NaN, never a number
        m = AspectModel(np.array([1.0]), np.array([[1.0], [0.0]]),
                        np.array([[0.5], [0.5]]))
        table = helpers.word_given_doc(m)
        np.testing.assert_array_equal(table[0], [0.5, 0.5])
        assert np.isnan(table[1]).all()

    def test_polysemy_resolved_by_dominant_factor(self):
        # one shared word, two documents dominated by different factors:
        # the shared word is much more probable in the document whose
        # dominant factor emphasizes it
        word = np.array([[0.3, 0.06],   # the shared word: both factors emit it
                         [0.6, 0.04],
                         [0.1, 0.9]])
        doc = np.array([[0.98, 0.02],
                        [0.02, 0.98]])
        m = AspectModel(np.array([0.5, 0.5]), doc, word)
        p_shared_in_d0, p_shared_in_d1 = helpers.word_given_doc(m)[:, 0]
        assert p_shared_in_d0 > 3 * p_shared_in_d1
        post0 = posterior(m, 0, 0)
        post1 = posterior(m, 1, 0)
        assert post0[0] > 0.9 and post1[1] > 0.9


def joint_table(model):
    """The N x M table of joint_prob over every cell."""
    return np.array([[joint_prob(model, d, w) for w in range(model.n_terms)]
                     for d in range(model.n_docs)])


class TestJoint:
    def test_all_singleton(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        np.testing.assert_array_equal(joint_table(m), [[1.0]])

    def test_grand_sum_one_and_nonnegative(self):
        rng = np.random.default_rng(40)
        for _ in range(5):
            m = helpers.random_model(rng, 3, 6, 7)
            table = joint_table(m)
            assert table.min() >= 0.0
            np.testing.assert_allclose(table.sum(), 1.0, atol=1e-8)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(41)
        m = helpers.random_model(rng, 3, 4, 5)
        for d in range(4):
            for w in range(5):
                expected = helpers.brute_joint(m, d, w)
                np.testing.assert_allclose(joint_prob(m, d, w), expected, atol=1e-12)


class TestLogLikelihood:
    def test_certain_event(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        _, counts = build_counts([["x"]])
        assert log_likelihood(m, counts) == 0.0

    def test_linear_in_counts(self):
        rng = np.random.default_rng(50)
        m = helpers.random_model(rng, 2, 3, 4)
        counts = helpers.random_counts(rng, 3, 4, 8)
        doubled = counts.__class__(counts.n_docs, counts.n_terms, counts.doc_ids,
                                   counts.term_ids, counts.counts * 2)
        np.testing.assert_allclose(log_likelihood(m, doubled),
                                   2.0 * log_likelihood(m, counts), rtol=1e-14)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(51)
        m = helpers.random_model(rng, 2, 3, 4)
        counts = helpers.random_counts(rng, 3, 4, 10)
        np.testing.assert_allclose(log_likelihood(m, counts),
                                   helpers.brute_log_likelihood(m, counts), rtol=1e-12)

    def test_floor_keeps_it_finite(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0], [0.0]]),
                        np.array([[0.5], [0.5]]))
        _, counts = build_counts([["a", "b"], ["a"]])
        value = log_likelihood(m, counts)
        assert np.isfinite(value)
        assert value < -20  # the impossible cell pays roughly log(1e-12)

    def test_dimension_mismatch(self):
        m = init_model(2, 3, 3, seed=0)
        counts = helpers.random_counts(np.random.default_rng(0), 4, 3, 5)
        with pytest.raises(ValueError):
            log_likelihood(m, counts)


class TestPerplexity:
    def test_uniform_conditional_equals_vocab_size(self):
        n_terms = 6
        docs = [[f"w{i}" for i in range(n_terms)] for _ in range(3)]
        _, counts = build_counts(docs)
        m = unigram_baseline(counts)
        np.testing.assert_allclose(perplexity(m, counts, conditional=True), n_terms,
                                   rtol=1e-12)

    def test_joint_identity(self):
        rng = np.random.default_rng(60)
        m = helpers.random_model(rng, 3, 4, 5)
        counts = helpers.random_counts(rng, 4, 5, 9)
        expected = np.exp(-log_likelihood(m, counts) / counts.total)
        np.testing.assert_allclose(perplexity(m, counts), expected, rtol=1e-12)

    def test_empty_counts_rejected(self):
        m = init_model(1, 2, 2, seed=0)
        empty = helpers.random_counts(np.random.default_rng(0), 2, 2, 0)
        with pytest.raises(ValueError):
            perplexity(m, empty)

    def test_zero_mass_document_is_floored(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0], [0.0]]),
                        np.array([[0.5], [0.5]]))
        counts = helpers.random_counts(np.random.default_rng(1), 2, 2, 4)
        assert np.isfinite(perplexity(m, counts, conditional=True))


class TestUnigramBaseline:
    def test_matches_marginals(self):
        _, counts = build_counts([["a", "a", "b"], ["b", "c"]])
        m = unigram_baseline(counts)
        assert m.k == 1
        np.testing.assert_allclose(m.doc_given_z[:, 0], [3 / 5, 2 / 5])
        np.testing.assert_allclose(m.word_given_z[:, 0], [2 / 5, 2 / 5, 1 / 5])

    def test_conditional_perplexity_at_most_vocab_size(self):
        # on its own training counts the marginal fit beats the uniform model
        rng = np.random.default_rng(61)
        for _ in range(10):
            counts = helpers.random_counts(rng, 6, 8, 20, max_count=7)
            m = unigram_baseline(counts)
            direct = np.exp(
                -sum(c * np.log(counts.col_sums()[w] / counts.total)
                     for w, c in zip(counts.term_ids, counts.counts)) / counts.total)
            value = perplexity(m, counts, conditional=True)
            np.testing.assert_allclose(value, direct, rtol=1e-10)
            assert value <= counts.n_terms + 1e-9


class TestFreeEnergy:
    def test_identity_with_exact_posteriors(self):
        rng = np.random.default_rng(70)
        for _ in range(5):
            m = helpers.random_model(rng, 3, 4, 5)
            counts = helpers.random_counts(rng, 4, 5, 10)
            q = cell_posteriors(m, counts, beta=1.0)
            np.testing.assert_allclose(free_energy(m, counts, q, beta=1.0),
                                       -log_likelihood(m, counts), rtol=1e-9)

    def test_exact_posterior_minimizes(self):
        rng = np.random.default_rng(71)
        m = helpers.random_model(rng, 3, 4, 5)
        counts = helpers.random_counts(rng, 4, 5, 10)
        q = cell_posteriors(m, counts, beta=1.0)
        best = free_energy(m, counts, q, beta=1.0)
        for _ in range(20):
            other = rng.random(q.shape) + 1e-3
            other /= other.sum(axis=1, keepdims=True)
            assert free_energy(m, counts, other, beta=1.0) >= best - 1e-9

    def test_single_cell_single_factor(self):
        m = AspectModel(np.array([1.0]), np.array([[1.0]]), np.array([[1.0]]))
        _, counts = build_counts([["x", "x", "x"]])
        q = np.ones((1, 1))
        for beta in (0.5, 1.0):
            expected = -beta * 3 * np.log(joint_prob(m, 0, 0))
            np.testing.assert_allclose(free_energy(m, counts, q, beta), expected,
                                       atol=1e-12)

    def test_matches_brute_force(self):
        rng = np.random.default_rng(72)
        m = helpers.random_model(rng, 2, 3, 4)
        counts = helpers.random_counts(rng, 3, 4, 8)
        for beta in (0.6, 1.0):
            q = cell_posteriors(m, counts, beta=beta)
            np.testing.assert_allclose(
                free_energy(m, counts, q, beta),
                helpers.brute_free_energy(m, counts, q, beta), rtol=1e-12)

    def test_mass_on_impossible_factor_rejected(self):
        m = AspectModel(np.array([0.5, 0.5]),
                        np.array([[1.0, 1.0]]),
                        np.array([[1.0, 0.0], [0.0, 1.0]]))
        _, counts = build_counts([["a", "b"]])
        bad = np.full((2, 2), 0.5)  # puts mass on the zero-probability factor
        with pytest.raises(DegeneracyError):
            free_energy(m, counts, bad, beta=1.0)

    def test_shape_checked(self):
        m = init_model(2, 2, 2, seed=0)
        _, counts = build_counts([["a"], ["b"]])
        with pytest.raises(ValueError):
            free_energy(m, counts, np.ones((1, 2)), beta=1.0)


class TestTopWords:
    def test_most_frequent_first_for_unigram(self):
        _, counts = build_counts([["a", "b", "b", "c", "b"]])
        m = unigram_baseline(counts)
        assert top_words(m, 0, 1)[0][0] == 1  # "b"

    def test_truncation(self):
        m = init_model(2, 3, 4, seed=0)
        assert len(top_words(m, 0, 10)) == 4

    def test_tie_broken_by_term_id(self):
        word = np.array([[0.25], [0.25], [0.25], [0.25]])
        m = AspectModel(np.array([1.0]), np.array([[1.0]]), word)
        assert [t for t, _ in top_words(m, 0, 4)] == [0, 1, 2, 3]

    def test_descending(self):
        rng = np.random.default_rng(80)
        m = helpers.random_model(rng, 3, 4, 12)
        for z in range(3):
            probs = [p for _, p in top_words(m, z, 12)]
            assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_bad_arguments(self):
        m = init_model(2, 2, 2, seed=0)
        with pytest.raises(ValueError):
            top_words(m, 2, 1)
        with pytest.raises(ValueError):
            top_words(m, 0, 0)


class TestSerialization:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(90)
        m = helpers.random_model(rng, 3, 5, 7)
        path = tmp_path / "model.bin"
        m.save(path)
        back = AspectModel.load(path)
        np.testing.assert_array_equal(back.prior, m.prior)
        np.testing.assert_array_equal(back.doc_given_z, m.doc_given_z)
        np.testing.assert_array_equal(back.word_given_z, m.word_given_z)

    def test_write_is_byte_deterministic(self, tmp_path):
        m = init_model(2, 3, 4, seed=1)
        a, b = tmp_path / "a.bin", tmp_path / "b.bin"
        m.save(a)
        m.save(b)
        assert a.read_bytes() == b.read_bytes()

    def test_kind_mismatch(self, tmp_path):
        m = init_model(2, 3, 4, seed=1)
        path = tmp_path / "model.bin"
        m.save(path)
        from plsa import SvdDecomposition
        with pytest.raises(ValueError, match="kind"):
            SvdDecomposition.load(path)


def test_mixing_weight_matrix_flags_zero_mass_rows():
    m = AspectModel(np.array([1.0]), np.array([[1.0], [0.0]]), np.array([[0.5], [0.5]]))
    table = mixing_weight_matrix(m)
    assert np.isfinite(table[0]).all()
    assert np.isnan(table[1]).all()
