"""Differential and property tests of the sparse E-step kernel: em_step,
the log-joint scan and the batched fold_in against the brute-force oracles
in helpers, over random shapes, tempering levels, dead factors, parameters
near PROB_FLOOR, cells whose factor products underflow, and
zero-probability cells.  The SDDMM gathers short rows and loops over long
ones: the random shapes cover short rows, rows at the switch and long
rows, and the fixed cases run on each path in turn."""

import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from plsa import (
    AspectModel,
    CountMatrix,
    DegeneracyError,
    TemConfig,
    em_step,
    fold_in,
    log_likelihood,
)
from plsa import aspect_model
from plsa.aspect_model import _SHORT_ROW, _UNDERFLOW, _scan_log_joint, _sddmm, _tempered_joint
from plsa.trainer import _fold_in_sweep

RTOL = 1e-12
BETAS = (1.0, 0.9, TemConfig().beta_min)
LONG_SHAPES = ("crossover", "long")


def forced_paths():
    """Patches that force the SDDMM's path rule to the gather path and to the
    loop path, for use one after the other."""
    return [mock.patch.object(aspect_model, "_SHORT_ROW", limit) for limit in (2**62, 0)]


def long_rows(draw, rng, n_rows, shape):
    """(k, mask) of rows with equal numbers of cells: cells times k just
    below, at or just above _SHORT_ROW ("crossover"), or well above it
    ("long"), so that the rule's choice is known."""
    if shape == "crossover":
        k = draw(st.sampled_from([16, 32]))
        length = _SHORT_ROW // k + draw(st.integers(-1, 1))
    else:
        k = draw(st.integers(2, 8))
        length = _SHORT_ROW // k + draw(st.integers(1, 150))
    n_terms = length + draw(st.integers(0, 8))
    mask = np.zeros((n_rows, n_terms), dtype=bool)
    np.put_along_axis(mask, np.argsort(rng.random(mask.shape), axis=1)[:, :length], True, axis=1)
    return k, mask


def assert_models_close(got, want):
    for name in ("prior", "doc_given_z", "word_given_z"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0,
                                   err_msg=name)


def normalized(prior, doc, word):
    return AspectModel(prior / prior.sum(), doc / doc.sum(axis=0), word / word.sum(axis=0))


@st.composite
def cases(draw, shape="short"):
    """(model, counts, beta) with random shapes; some documents without
    entries, some terms unused, and optionally entries near PROB_FLOOR.
    Other shapes than "short" have rows of equal length, see long_rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "short":
        n_docs, n_terms, k = (draw(st.integers(1, 7)), draw(st.integers(1, 7)),
                              draw(st.integers(1, 4)))
        mask = rng.random((n_docs, n_terms)) < draw(st.floats(0.1, 1.0))
        if draw(st.booleans()):
            mask[rng.integers(n_docs)] = False  # an empty document row
        if draw(st.booleans()):
            mask[:, rng.integers(n_terms)] = False  # an unused term column
        if not mask.any():
            mask[rng.integers(n_docs), rng.integers(n_terms)] = True
    else:
        n_docs = draw(st.integers(1, 3))
        k, mask = long_rows(draw, rng, n_docs, shape)
        n_terms = mask.shape[1]
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

    @pytest.mark.parametrize("shape", LONG_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        model, counts, beta = data.draw(cases(shape))
        assert_models_close(em_step(model, counts, beta),
                            helpers.brute_em_step(model, counts, beta))

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
        for forced in forced_paths():
            with forced:
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
        for forced in forced_paths():
            with forced:
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
        for forced in forced_paths():
            with forced:
                assert_models_close(em_step(model, counts, beta),
                                    helpers.brute_em_step(model, counts, beta))

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_raises(self, beta):
        counts = helpers.random_counts(np.random.default_rng(5), 4, 5, 12)
        word = np.random.default_rng(6).random((5, 2))
        word[counts.term_ids[0]] = 0.0  # no factor can emit this observed term
        model = normalized(np.array([0.5, 0.5]), np.ones((4, 2)), word)
        for forced in forced_paths():
            with forced:
                with pytest.raises(DegeneracyError):
                    em_step(model, counts, beta)


class TestScan:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_matches_log_domain_oracle(self, case):
        self.assert_scan_like_oracle(*case)

    @pytest.mark.parametrize("shape", LONG_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        self.assert_scan_like_oracle(*data.draw(cases(shape)))

    @staticmethod
    def assert_scan_like_oracle(model, counts, beta):
        expected = [helpers.log_domain_joint(model, int(d), int(w), beta)
                    for d, w in zip(counts.doc_ids, counts.term_ids)]
        # an absolute 1e-12 on the log is a relative 1e-12 on S_beta
        np.testing.assert_allclose(_scan_log_joint(model, counts, beta), expected,
                                   rtol=RTOL, atol=RTOL)
        if beta == 1.0:  # the same absolute 1e-12, for sums whose true value is 0.0
            np.testing.assert_allclose(log_likelihood(model, counts),
                                       helpers.brute_log_likelihood(model, counts), rtol=RTOL,
                                       atol=RTOL)

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        model, counts = TestEmStep.underflow_case()
        for forced in forced_paths():
            with forced:
                if beta == 1.0:
                    assert _tempered_joint(model, counts, beta)[2][0] < _UNDERFLOW
                np.testing.assert_allclose(_scan_log_joint(model, counts, beta)[0],
                                           helpers.log_domain_joint(model, 0, 0, beta), rtol=RTOL)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_is_minus_infinity(self, beta):
        model = AspectModel(np.array([1.0]), np.array([[0.5], [0.5]]), np.array([[1.0], [0.0]]))
        counts = CountMatrix(2, 2, [0, 0], [0, 1], [1, 1])
        for forced in forced_paths():
            with forced:
                got = _scan_log_joint(model, counts, beta)
                assert got[1] == -math.inf
                np.testing.assert_allclose(got[0], beta * math.log(0.5), rtol=RTOL)


@st.composite
def fold_cases(draw, shape="short"):
    """(model, queries, beta): random shapes, some empty query rows, some
    terms no factor generates, and optionally P(w|z) entries near PROB_FLOOR.
    Other shapes than "short" start from rows of equal length, see long_rows."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if shape == "short":
        n_queries, n_terms, k = (draw(st.integers(1, 6)), draw(st.integers(1, 8)),
                                 draw(st.integers(1, 4)))
        mask = rng.random((n_queries, n_terms)) < draw(st.floats(0.1, 1.0))
    else:
        n_queries = draw(st.integers(1, 3))
        k, mask = long_rows(draw, rng, n_queries, shape)
        n_terms = mask.shape[1]
    word = 0.05 + rng.random((n_terms, k))
    if n_terms > 1 and draw(st.booleans()):
        word[rng.integers(n_terms)] = 0.0  # a term no factor generates
    if draw(st.booleans()):
        low = (rng.random(word.shape) < 0.4) & (word > 0)
        word[low] = helpers.PROB_FLOOR * (0.5 + rng.random(int(low.sum())))
    model = normalized(0.1 + rng.random(k), 0.1 + rng.random((2, k)), word)
    if draw(st.booleans()):
        mask[rng.integers(n_queries)] = False  # a query without terms
    d, t = np.nonzero(mask)
    queries = CountMatrix(n_queries, n_terms, d, t, rng.integers(1, 6, size=d.size))
    return model, queries, draw(st.sampled_from(BETAS))


def assert_folds_like_oracle(model, queries, beta):
    """Each row agrees with the per-query oracle, and is final after the
    sweep the oracle stops at and not before it unless the oracle's is too."""
    got = fold_in(model, queries, beta)
    for i in range(queries.n_docs):
        row = queries.doc_ids == i
        ids, cnt = queries.term_ids[row], queries.counts[row]
        want, sweeps = helpers.brute_fold_in(model, ids, cnt, beta)
        if want is None:
            assert np.isnan(got[i]).all()
            continue
        np.testing.assert_allclose(got[i], want, rtol=RTOL, atol=1e-15)
        np.testing.assert_array_equal(fold_in(model, queries, beta, max_iters=sweeps)[i], got[i])
        if sweeps > 1:
            early = fold_in(model, queries, beta, max_iters=sweeps - 1)[i]
            want_early, _ = helpers.brute_fold_in(model, ids, cnt, beta, max_iters=sweeps - 1)
            np.testing.assert_allclose(early, want_early, rtol=RTOL, atol=1e-15)
            assert np.array_equal(early, got[i]) == np.array_equal(want_early, want)


class TestFoldIn:
    @settings(max_examples=80, deadline=None)
    @given(fold_cases())
    def test_matches_per_query_oracle(self, case):
        assert_folds_like_oracle(*case)

    @pytest.mark.parametrize("shape", LONG_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        assert_folds_like_oracle(*data.draw(fold_cases(shape)))

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_long_rows_need_no_cells_by_factors_array(self, beta):
        # 12 queries holding all 2000 terms at K = 64: one float64 array of
        # cells x K takes 12 MB, while a sweep needs O(cells + rows x K)
        rng = np.random.default_rng(8)
        n_queries, n_terms, k = 12, 2000, 64
        model = normalized(np.ones(k), np.ones((2, k)), 0.05 + rng.random((n_terms, k)))
        d, t = np.divmod(np.arange(n_queries * n_terms), n_terms)
        queries = CountMatrix(n_queries, n_terms, d, t, rng.integers(1, 6, size=d.size))
        tracemalloc.start()
        try:
            got = fold_in(model, queries, beta, max_iters=3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < d.size * k * 8 / 2
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=RTOL)

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        # term 0 has P(w|z) ~ 1e-250 under every factor, so its cell's
        # S_beta at the uniform start is below the threshold at beta = 1
        word = np.array([[1e-250, 3e-250], [0.3, 0.6], [0.7, 0.4]])
        model = normalized(np.array([0.3, 0.7]), np.ones((2, 2)), word)
        queries = CountMatrix(3, 3, [0, 0, 1, 2, 2], [0, 1, 0, 0, 2], [2, 1, 1, 1, 3])
        if beta == 1.0:
            assert model.word_given_z[0] @ np.full(2, 0.5) < _UNDERFLOW
        for forced in forced_paths():
            with forced:
                assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_raises(self, beta):
        # fold_in's uniform start keeps weight on every factor that can emit
        # a query term, so a true zero reaches its sweep only from other
        # weights: here P(z|q) = (1, 0) and the term only factor 1 emits
        theta, word = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        rows, cols, counts = np.array([0]), np.array([1]), np.array([1])
        for forced in forced_paths():
            with forced:
                assert _sddmm(theta, word, rows, cols)[0] == 0.0
                with pytest.raises(DegeneracyError), np.errstate(divide="ignore"):
                    _fold_in_sweep(theta, word, np.log(word), rows, cols, counts, beta)
