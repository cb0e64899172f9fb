"""Differential and property tests of the sparse E-step kernel: em_step and
the log-joint scan against the brute-force oracles in helpers, over random
shapes, tempering levels, dead factors, parameters near PROB_FLOOR, cells
whose factor products underflow, and zero-probability cells."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from plsa import AspectModel, CountMatrix, DegeneracyError, TemConfig, em_step, log_likelihood
from plsa.aspect_model import _UNDERFLOW, _scan_log_joint, _tempered_joint

RTOL = 1e-12
BETAS = (1.0, 0.9, TemConfig().beta_min)


def assert_models_close(got, want):
    for name in ("prior", "doc_given_z", "word_given_z"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0,
                                   err_msg=name)


def normalized(prior, doc, word):
    return AspectModel(prior / prior.sum(), doc / doc.sum(axis=0), word / word.sum(axis=0))


@st.composite
def cases(draw):
    """(model, counts, beta) with random shapes; some documents without
    entries, some terms unused, and optionally entries near PROB_FLOOR."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_docs, n_terms, k = draw(st.integers(1, 7)), draw(st.integers(1, 7)), draw(st.integers(1, 4))
    mask = rng.random((n_docs, n_terms)) < draw(st.floats(0.1, 1.0))
    if draw(st.booleans()):
        mask[rng.integers(n_docs)] = False  # an empty document row
    if draw(st.booleans()):
        mask[:, rng.integers(n_terms)] = False  # an unused term column
    if not mask.any():
        mask[rng.integers(n_docs), rng.integers(n_terms)] = True
    d, w = np.nonzero(mask)
    counts = CountMatrix(n_docs, n_terms, d, w, rng.integers(1, 6, size=d.size))
    blocks = [0.05 + rng.random(k), 0.05 + rng.random((n_docs, k)), 0.05 + rng.random((n_terms, k))]
    if draw(st.booleans()):
        for block in blocks:
            low = rng.random(block.shape) < 0.4
            block[low] = helpers.PROB_FLOOR * (0.5 + rng.random(int(low.sum())))
    return normalized(*blocks), counts, draw(st.sampled_from(BETAS))


class TestEmStep:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_matches_log_domain_and_product_oracles(self, case):
        model, counts, beta = case
        stepped = em_step(model, counts, beta)
        assert_models_close(stepped, helpers.brute_em_step(model, counts, beta))
        assert_models_close(stepped, helpers.brute_em_step(model, counts, beta,
                                                           posterior=helpers.brute_posterior))

    @settings(max_examples=20, deadline=None)
    @given(cases())
    def test_supplied_joint_changes_no_bit(self, case):
        model, counts, beta = case
        fresh = em_step(model, counts, beta)
        reused = em_step(model, counts, beta, _joint=_tempered_joint(model, counts, beta))
        for name in ("prior", "doc_given_z", "word_given_z"):
            assert getattr(fresh, name).tobytes() == getattr(reused, name).tobytes()

    @pytest.mark.parametrize("beta", BETAS)
    def test_dead_factor_reset_matches_oracle(self, beta):
        rng = np.random.default_rng(3)
        counts = helpers.random_counts(rng, 6, 7, 20)
        model = normalized(np.array([0.6, 0.0, 0.4]), rng.random((6, 3)), rng.random((7, 3)))
        with pytest.warns(RuntimeWarning, match="no posterior mass"):
            stepped = em_step(model, counts, beta)
        assert_models_close(stepped, helpers.brute_em_step(model, counts, beta))
        np.testing.assert_allclose(stepped.word_given_z[:, 1], 1.0 / 7, rtol=RTOL)

    @staticmethod
    def underflow_case():
        """Document 0 and term 0 carry ~1e-160 under both factors, so cell
        (0, 0) has factor products near 1e-320, below the normal range."""
        doc = np.array([[1e-160, 3e-160], [0.5, 0.2], [0.5, 0.8]])
        word = np.array([[2e-160, 1e-160], [0.3, 0.6], [0.7, 0.4]])
        counts = CountMatrix.from_entries(3, 3, [0, 0, 1, 1, 2, 2, 1], [0, 1, 1, 2, 1, 2, 0],
                                          [2, 1, 3, 1, 2, 4, 1])
        return normalized(np.array([0.3, 0.7]), doc, word), counts

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        model, counts = self.underflow_case()
        if beta == 1.0:  # the cell is below the threshold, so the fallback runs
            assert _tempered_joint(model, counts, beta)[2][0] < _UNDERFLOW
        assert_models_close(em_step(model, counts, beta),
                            helpers.brute_em_step(model, counts, beta))

    @pytest.mark.parametrize("beta", [0.9, 0.5])
    def test_tempering_keeps_subnormal_factor_products_exact(self, beta):
        # P(z)P(d|z) ~ 1e-319 for factor 0: a subnormal with a few significant
        # bits, while its tempered power (>= 1e-288) is a normal float
        rng = np.random.default_rng(4)
        counts = helpers.random_counts(rng, 4, 5, 12)
        model = normalized(np.array([1e-318, 1.0]), 0.1 + rng.random((4, 2)),
                           0.1 + rng.random((5, 2)))
        assert_models_close(em_step(model, counts, beta),
                            helpers.brute_em_step(model, counts, beta))

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_raises(self, beta):
        counts = helpers.random_counts(np.random.default_rng(5), 4, 5, 12)
        word = np.random.default_rng(6).random((5, 2))
        word[counts.term_ids[0]] = 0.0  # no factor can emit this observed term
        model = normalized(np.array([0.5, 0.5]), np.ones((4, 2)), word)
        with pytest.raises(DegeneracyError):
            em_step(model, counts, beta)


class TestScan:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_matches_log_domain_oracle(self, case):
        model, counts, beta = case
        expected = [helpers.log_domain_joint(model, int(d), int(w), beta)
                    for d, w in zip(counts.doc_ids, counts.term_ids)]
        # an absolute 1e-12 on the log is a relative 1e-12 on S_beta
        np.testing.assert_allclose(_scan_log_joint(model, counts, beta), expected,
                                   rtol=RTOL, atol=RTOL)
        if beta == 1.0:
            np.testing.assert_allclose(log_likelihood(model, counts),
                                       helpers.brute_log_likelihood(model, counts), rtol=RTOL)

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        model, counts = TestEmStep.underflow_case()
        if beta == 1.0:
            assert _tempered_joint(model, counts, beta)[2][0] < _UNDERFLOW
        np.testing.assert_allclose(_scan_log_joint(model, counts, beta)[0],
                                   helpers.log_domain_joint(model, 0, 0, beta), rtol=RTOL)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_is_minus_infinity(self, beta):
        model = AspectModel(np.array([1.0]), np.array([[0.5], [0.5]]), np.array([[1.0], [0.0]]))
        counts = CountMatrix(2, 2, [0, 0], [0, 1], [1, 1])
        got = _scan_log_joint(model, counts, beta)
        assert got[1] == -math.inf
        np.testing.assert_allclose(got[0], beta * math.log(0.5), rtol=RTOL)
