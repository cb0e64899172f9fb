"""Differential and property tests of the sparse E-step kernel: em_step,
the log-joint scan and the batched fold_in against the brute-force oracles
in helpers, over random shapes, tempering levels, dead factors, parameters
near PROB_FLOOR, cells whose factor products underflow, and
zero-probability cells.  The SDDMM runs term by term, over chunks of terms
of similar cell count padded to the longest: the plan-shape cases put terms
at the edges of a chunk and terms longer than one, and the fixed cases run
with one cell per chunk and with the default chunks in turn."""

import contextlib
import math
import warnings
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
from plsa import aspect_model, trainer
from plsa.aspect_model import _UNDERFLOW, _Cells, _scan_log_joint, _sddmm, _tempered_joint
from plsa.trainer import _fold_in_sweep

RTOL = 1e-12
BETAS = (1.0, 0.9, TemConfig().beta_min)
PLAN_SHAPES = ("crossover", "long")


def plans():
    """Patches that set the SDDMM's chunks to one cell each, which splits
    every term into one-cell rows, and to the default size, for use one
    after the other."""
    return [mock.patch.object(aspect_model, "_PLAN_BYTES", size)
            for size in (1, aspect_model._PLAN_BYTES)]


def chunk_of(cells, k):
    """A patch under which a plan for K = k takes `cells` cells per chunk."""
    return mock.patch.object(aspect_model, "_PLAN_BYTES", 8 * k * cells)


def underflow_settings():
    """Pairs of patches for the underflow cases: each plan of plans(), with
    the default _CHUNK_CELLS, which takes their log-domain cells in one
    chunk, and with one that splits those cells into chunks of two at K = 2."""
    return [(plan, mock.patch.object(aspect_model, "_CHUNK_CELLS", cells))
            for cells in (aspect_model._CHUNK_CELLS, 4) for plan in plans()]


def plan_shape(draw, rng, shape):
    """(k, chunk, mask) of a documents x terms table laid out against SDDMM
    chunks of `chunk` cells: in "crossover" its terms hold 1, chunk - 1,
    chunk, chunk + 1 or 2 chunk cells, so rows fill chunks to their edge and
    one past it; in "long" one term or more holds every document, several
    chunks' worth of cells, next to terms of one cell."""
    k, chunk = draw(st.integers(1, 8)), draw(st.integers(1, 6))
    if shape == "crossover":
        n_docs = 2 * chunk + draw(st.integers(0, 3))
        lengths = [min(n_docs, max(1, n)) for n in (1, chunk - 1, chunk, chunk + 1, 2 * chunk)]
        per_term = rng.choice(lengths, size=draw(st.integers(1, 12)))
    else:
        n_docs = chunk * draw(st.integers(2, 6)) + draw(st.integers(0, 2))
        per_term = np.where(rng.random(draw(st.integers(1, 8))) < 0.4, n_docs, 1)
        per_term[0] = n_docs
    mask = np.zeros((n_docs, per_term.size), dtype=bool)
    for t, n in enumerate(per_term):
        mask[rng.choice(n_docs, size=int(n), replace=False), t] = True
    return k, chunk, mask


def assert_models_close(got, want):
    for name in ("prior", "doc_given_z", "word_given_z"):
        np.testing.assert_allclose(getattr(got, name), getattr(want, name), rtol=RTOL, atol=0,
                                   err_msg=name)


def normalized(prior, doc, word):
    return AspectModel(prior / prior.sum(), doc / doc.sum(axis=0), word / word.sum(axis=0))


@st.composite
def cases(draw, shape="short"):
    """(model, counts, beta, plan) with random shapes; some documents
    without entries, some terms unused, and optionally entries near
    PROB_FLOOR.  Other shapes than "short" come from plan_shape, and `plan`
    patches the chunks to its size; for "short" it changes nothing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = contextlib.nullcontext()
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
        k, chunk, mask = plan_shape(draw, rng, shape)
        n_docs, n_terms = mask.shape
        plan = chunk_of(chunk, k)
    d, w = np.nonzero(mask)
    counts = CountMatrix(n_docs, n_terms, d, w, rng.integers(1, 6, size=d.size))
    blocks = [0.05 + rng.random(k), 0.05 + rng.random((n_docs, k)), 0.05 + rng.random((n_terms, k))]
    if draw(st.booleans()):
        for block in blocks:
            low = rng.random(block.shape) < 0.4
            block[low] = helpers.PROB_FLOOR * (0.5 + rng.random(int(low.sum())))
    return normalized(*blocks), counts, draw(st.sampled_from(BETAS)), plan


class TestPlan:
    """The SDDMM's plan covers every cell once and gives, bit for bit, the
    row-by-row einsum of the gather it replaced, whatever the chunk size."""

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_sddmm_is_bit_equal_to_the_row_einsum(self, data):
        # chunk sizes from one cell, below a single term's cells, to more
        # than the table holds
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        k, chunk, mask = plan_shape(data.draw, rng, data.draw(st.sampled_from(PLAN_SHAPES)))
        if data.draw(st.booleans()):
            mask = mask.T.copy()  # many terms of few cells
        chunk = data.draw(st.sampled_from([1, 2, chunk, mask.size + 1]))
        d, t = np.nonzero(mask)
        counts = CountMatrix(*mask.shape, d, t, np.ones(d.size, dtype=np.int64))
        a, w = rng.random((mask.shape[0], k)), rng.random((mask.shape[1], k))
        cells = _Cells.of(counts)
        with chunk_of(chunk, k):
            got = helpers.doc_major(cells, _sddmm(a, w, cells))
        assert got.tobytes() == np.einsum("ij,ij->i", a[d], w[t]).tobytes()

    @pytest.mark.parametrize("chunk", [1, 2, 3, 4, 7, 100])
    def test_plan_covers_every_cell_once(self, chunk):
        # terms of 0, 1, 2, 3, 5 and 9 cells and an empty document row
        lengths = [0, 1, 2, 3, 5, 9]
        d = np.concatenate([np.arange(1, n + 1) for n in lengths])
        t = np.repeat(np.arange(len(lengths)), lengths)
        order = np.lexsort((t, d))
        counts = CountMatrix(10, len(lengths), d[order], t[order], np.ones(d.size, dtype=np.int64))
        cells = _Cells.of(counts)
        with chunk_of(chunk, 4):
            plan, order, padded, _ = cells.plan(4)
        flat = np.concatenate([docs.ravel() for _, docs in plan])
        assert flat.size == padded
        np.testing.assert_array_equal(flat[order], cells.doc_ids)
        assert np.unique(order).size == cells.nnz
        terms = cells.terms_of(np.arange(cells.nnz))
        np.testing.assert_array_equal(terms, np.sort(t))
        for rows, docs in plan:
            assert docs.size <= chunk
            # each row is one term's run of cells, padded with its last one
            for term, row in zip(rows, docs):
                run = cells.doc_ids[terms == term]
                assert set(row) <= set(run) and row[-1] in run

    @pytest.mark.parametrize("take_step", [1, 2, 3, 5, 64])
    def test_plan_is_the_same_taken_in_blocks_of_any_size(self, take_step):
        # the padded ids are filled in blocks of whole rows of about
        # _TAKE_STEP ids; a table this small fills them in one by default
        rng = np.random.default_rng(take_step)
        mask = rng.random((40, 30)) < rng.random(30) ** 2
        mask[:, 0] = True  # one term in several pieces at the smaller chunks
        d, t = np.nonzero(mask)
        cells = _Cells.of(CountMatrix(*mask.shape, d, t, np.ones(d.size, dtype=np.int64)))
        for chunk in (1, 3, 7, 50):
            want = aspect_model._plan(cells.starts, cells.doc_ids, chunk)
            assert want[2] < aspect_model._TAKE_STEP
            with mock.patch.object(aspect_model, "_TAKE_STEP", take_step):
                got = aspect_model._plan(cells.starts, cells.doc_ids, chunk)
            assert got[1].tobytes() == want[1].tobytes() and got[2] == want[2]
            assert len(got[0]) == len(want[0])
            for (terms, docs), (want_terms, want_docs) in zip(got[0], want[0]):
                np.testing.assert_array_equal(terms, want_terms)
                assert docs.shape == want_docs.shape and docs.tobytes() == want_docs.tobytes()

    def test_a_matrix_is_laid_out_once_and_planned_once_per_k(self):
        # public sweeps and scans of one CountMatrix share the cells built by
        # the first of them, and its plan while K stays the same
        rng = np.random.default_rng(13)
        counts = helpers.random_counts(rng, 6, 7, 20)
        models = [helpers.random_model(rng, k, 6, 7) for k in (2, 2, 1)]
        with mock.patch.object(aspect_model, "_plan", wraps=aspect_model._plan) as plan:
            for model in models:
                em_step(model, counts, 0.9)
                log_likelihood(model, counts)
                aspect_model.perplexity(model, counts, conditional=True)
        assert plan.call_count == 2
        assert _Cells.of(counts) is _Cells.of(counts)

    @pytest.mark.parametrize("beta", BETAS)
    def test_one_cell_terms_and_an_empty_row_and_column(self, beta):
        # K = 1 over a table whose first document and last term are empty
        # and whose other terms hold one cell each, except term 0
        counts = CountMatrix(5, 6, [1, 1, 2, 3, 4], [0, 1, 0, 2, 3], [2, 1, 3, 1, 4])
        rng = np.random.default_rng(12)
        model = normalized(np.ones(1), 0.1 + rng.random((5, 1)), 0.1 + rng.random((6, 1)))
        for plan in plans():
            with plan:
                assert_models_close(em_step(model, counts, beta),
                                    helpers.brute_em_step(model, counts, beta))
                TestScan.assert_scan_like_oracle(model, counts, beta)


class TestEmStep:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_matches_log_domain_and_product_oracles(self, case):
        model, counts, beta, _ = case
        stepped = em_step(model, counts, beta)
        assert_models_close(stepped, helpers.brute_em_step(model, counts, beta))
        assert_models_close(stepped, helpers.brute_em_step(model, counts, beta,
                                                           posterior=helpers.brute_posterior))

    @pytest.mark.parametrize("shape", PLAN_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        model, counts, beta, plan = data.draw(cases(shape))
        with plan:
            assert_models_close(em_step(model, counts, beta),
                                helpers.brute_em_step(model, counts, beta))

    @settings(max_examples=20, deadline=None)
    @given(cases())
    def test_supplied_joint_changes_no_bit(self, case):
        # the joint a fit keeps in its _Cells for the next sweep, which that
        # sweep takes without computing one
        model, counts, beta, _ = case
        fresh = em_step(model, counts, beta)
        cells = _Cells.of(counts)
        cells.keep_joint(model, beta)
        with mock.patch.object(aspect_model, "_tempered_joint",
                               wraps=aspect_model._tempered_joint) as spy:
            reused = em_step(model, cells, beta)
            assert spy.call_count == 0
            em_step(model, cells, beta)  # nothing kept: the sweep computes its own
            assert spy.call_count == 1
        for name in ("prior", "doc_given_z", "word_given_z"):
            assert getattr(fresh, name).tobytes() == getattr(reused, name).tobytes()

    @pytest.mark.parametrize("beta", BETAS)
    def test_dead_factor_reset_matches_oracle(self, beta):
        rng = np.random.default_rng(3)
        counts = helpers.random_counts(rng, 6, 7, 20)
        model = normalized(np.array([0.6, 0.0, 0.4]), rng.random((6, 3)), rng.random((7, 3)))
        for plan in plans():
            with plan:
                with pytest.warns(RuntimeWarning, match="no posterior mass"):
                    stepped = em_step(model, counts, beta)
                assert_models_close(stepped, helpers.brute_em_step(model, counts, beta))
                np.testing.assert_allclose(stepped.word_given_z[:, 1], 1.0 / 7, rtol=RTOL)

    @staticmethod
    def underflow_case():
        """Documents 0-2 and terms 0-2 carry ~1e-160 under both factors, so
        the 9 cells they share have factor products near 1e-320, below the
        normal range; the other 27 cells of the 6 x 6 table are normal."""
        tiny = np.array([[1e-160, 3e-160], [2e-160, 1e-160], [3e-160, 2e-160]])
        doc = np.vstack([tiny, [[0.5, 0.2], [0.3, 0.3], [0.2, 0.5]]])
        word = np.vstack([tiny[::-1], [[0.3, 0.6], [0.3, 0.1], [0.4, 0.3]]])
        d, w = np.divmod(np.arange(36), 6)
        counts = CountMatrix(6, 6, d, w, 1 + np.arange(36) % 4)
        return normalized(np.array([0.3, 0.7]), doc, word), counts

    @staticmethod
    def assert_cells_underflow(model, counts):
        """At beta = 1 the 9 shared cells are below the threshold, so the
        fallback runs, in several chunks at underflow_settings' small one."""
        low = helpers.joint_by_cell(model, counts, 1.0) < _UNDERFLOW
        np.testing.assert_array_equal(low, (counts.doc_ids < 3) & (counts.term_ids < 3))

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        model, counts = self.underflow_case()
        self.assert_cells_underflow(model, counts)
        for plan, chunks in underflow_settings():
            with plan, chunks:
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
        for plan in plans():
            with plan:
                assert_models_close(em_step(model, counts, beta),
                                    helpers.brute_em_step(model, counts, beta))

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_raises(self, beta):
        counts = helpers.random_counts(np.random.default_rng(5), 4, 5, 12)
        word = np.random.default_rng(6).random((5, 2))
        word[counts.term_ids[0]] = 0.0  # no factor can emit this observed term
        model = normalized(np.array([0.5, 0.5]), np.ones((4, 2)), word)
        for plan in plans():
            with plan:
                with pytest.raises(DegeneracyError):
                    em_step(model, counts, beta)

    @pytest.mark.parametrize("dead", [False, True])
    @pytest.mark.parametrize("beta", [1.0, 0.8])
    def test_leaves_inputs_unchanged(self, beta, dead):
        # the sweep multiplies and normalises its own accumulators in place;
        # at beta = 1 the joint's W^beta is the model's word_given_z itself
        rng = np.random.default_rng(9)
        counts = helpers.random_counts(rng, 6, 7, 20)
        model = normalized(np.array([0.6, 0.0 if dead else 0.1, 0.4]), rng.random((6, 3)),
                           rng.random((7, 3)))
        arrays = (model.prior, model.doc_given_z, model.word_given_z, counts.doc_ids,
                  counts.term_ids, counts.counts)
        before = [a.tobytes() for a in arrays]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            fresh = em_step(model, counts, beta)
            cells = _Cells.of(counts)  # the cells that sweep built, kept with the matrix
            joint = cells.keep_joint(model, beta)
            joint_before = [a.tobytes() for a in joint]
            reused = em_step(model, cells, beta)
        assert (joint[1] is model.word_given_z) == (beta == 1.0)
        assert len(caught) == (2 if dead else 0)  # the reset ran
        assert cells.dead_factor_resets == (2 if dead else 0)
        assert [a.tobytes() for a in arrays] == before
        assert [a.tobytes() for a in joint] == joint_before
        for name in ("prior", "doc_given_z", "word_given_z"):
            assert getattr(fresh, name).tobytes() == getattr(reused, name).tobytes()

    def test_allocates_at_most_three_blocks(self):
        # 300 x 600 at K = 64 with 2% of the cells: A^beta and W^beta are one
        # (N + M) x K block, the two accumulators another
        rng = np.random.default_rng(10)
        n_docs, n_terms, k = 300, 600, 64
        model = helpers.random_model(rng, k, n_docs, n_terms)
        d, t = np.nonzero(rng.random((n_docs, n_terms)) < 0.02)
        counts = CountMatrix(n_docs, n_terms, d, t, rng.integers(1, 5, size=d.size))
        stepped, peak = helpers.traced_peak(em_step, model, counts, 0.9)
        assert peak <= 3 * (n_docs + n_terms) * k * 8
        assert_models_close(stepped, em_step(model, counts, 0.9))


class TestScan:
    @settings(max_examples=80, deadline=None)
    @given(cases())
    def test_matches_log_domain_oracle(self, case):
        self.assert_scan_like_oracle(*case[:3])

    @pytest.mark.parametrize("shape", PLAN_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        model, counts, beta, plan = data.draw(cases(shape))
        with plan:
            self.assert_scan_like_oracle(model, counts, beta)
            expected = [helpers.brute_joint(model, int(d), int(w))
                        for d, w in zip(counts.doc_ids, counts.term_ids)]
            np.testing.assert_allclose(helpers.joint_by_cell(model, counts, 1.0), expected,
                                       rtol=RTOL, atol=0)

    @staticmethod
    def assert_scan_like_oracle(model, counts, beta):
        expected = [helpers.log_domain_joint(model, int(d), int(w), beta)
                    for d, w in zip(counts.doc_ids, counts.term_ids)]
        # an absolute 1e-12 on the log is a relative 1e-12 on S_beta
        np.testing.assert_allclose(helpers.scan_by_cell(model, counts, beta), expected,
                                   rtol=RTOL, atol=RTOL)
        if beta == 1.0:  # the same absolute 1e-12, for sums whose true value is 0.0
            np.testing.assert_allclose(log_likelihood(model, counts),
                                       helpers.brute_log_likelihood(model, counts), rtol=RTOL,
                                       atol=RTOL)

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        model, counts = TestEmStep.underflow_case()
        TestEmStep.assert_cells_underflow(model, counts)
        expected = [helpers.log_domain_joint(model, int(d), int(w), beta)
                    for d, w in zip(counts.doc_ids, counts.term_ids)]
        for plan, chunks in underflow_settings():
            with plan, chunks:
                np.testing.assert_allclose(helpers.scan_by_cell(model, counts, beta), expected,
                                           rtol=RTOL)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_is_minus_infinity(self, beta):
        model = AspectModel(np.array([1.0]), np.array([[0.5], [0.5]]), np.array([[1.0], [0.0]]))
        counts = CountMatrix(2, 2, [0, 0], [0, 1], [1, 1])
        for plan in plans():
            with plan:
                got = helpers.scan_by_cell(model, counts, beta)
                assert got[1] == -math.inf
                np.testing.assert_allclose(got[0], beta * math.log(0.5), rtol=RTOL)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_underflowing_cell_allocates_less_than_a_block(self, beta):
        # the log-domain tail takes logs of the one row and column it touches,
        # not of the whole (N + M) x K blocks
        rng = np.random.default_rng(11)
        n_docs, n_terms, k = 300, 600, 64
        d, t = np.nonzero(rng.random((n_docs, n_terms)) < 0.02)
        counts = CountMatrix(n_docs, n_terms, d, t, rng.integers(1, 5, size=d.size))
        word = 0.05 + rng.random((n_terms, k))
        word[t[0]] = 1e-300
        model = normalized(0.1 + rng.random(k), 0.05 + rng.random((n_docs, k)), word)
        cells = _Cells.of(counts)
        s = _tempered_joint(model, cells, beta)[2]
        assert (s < _UNDERFLOW).sum() == (t == t[0]).sum()
        got, peak = helpers.traced_peak(_scan_log_joint, model, cells, beta, s)
        assert peak < (n_docs + n_terms) * k * 8
        with whole_blocks():
            assert got.tobytes() == _scan_log_joint(model, cells, beta, s).tobytes()


def whole_blocks():
    """A patch under which the log-domain tails take the logs of whole
    blocks: the reference for the rows and columns they take."""
    return mock.patch.object(aspect_model, "_touched", lambda ids, n: (slice(None), ids))


def sliced_and_whole(fn):
    """fn() as it runs and under whole_blocks(), each its result or
    DegeneracyError if it raised that."""
    out = []
    for patch in (contextlib.nullcontext(), whole_blocks()):
        with patch:
            try:
                out.append(fn())
            except DegeneracyError:
                out.append(DegeneracyError)
    return out


@st.composite
def tail_cases(draw):
    """(model, counts, beta, zero, chunk) with random shapes in which every
    cell of some terms falls below _UNDERFLOW at beta = 1 and 0.7 (P(w|z) ~
    1e-300), some documents carry P(d|z) ~ 1e-160, so that their cells with
    those terms are 0 in the linear domain, and every row holds a cell.  With
    `zero`, one observed term has P(w|z) = 0, so its cells have S_beta = 0.
    `chunk` patches the log-domain chunk size to a few cells."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_docs, n_terms, k = (draw(st.integers(1, 12)), draw(st.integers(2, 30)),
                          draw(st.integers(1, 4)))
    mask = rng.random((n_docs, n_terms)) < draw(st.floats(0.1, 1.0))
    mask[np.arange(n_docs), rng.integers(n_terms, size=n_docs)] = True
    tiny = rng.random(n_terms) < draw(st.floats(0.02, 0.9))
    tiny[0], tiny[-1] = True, False  # one term at least on each side
    mask[rng.integers(n_docs), 0] = True
    word = 0.05 + rng.random((n_terms, k))
    word[tiny] *= 1e-300
    doc = 0.05 + rng.random((n_docs, k))
    doc[1:][rng.random(n_docs - 1) < 0.3] *= 1e-160
    zero = draw(st.booleans())
    if zero:
        word[rng.choice(np.flatnonzero(mask.any(axis=0)))] = 0.0
    d, t = np.nonzero(mask)
    counts = CountMatrix(n_docs, n_terms, d, t, rng.integers(1, 6, size=d.size))
    chunk = mock.patch.object(aspect_model, "_CHUNK_CELLS", k * draw(st.integers(1, 5)))
    return (normalized(0.1 + rng.random(k), doc, word), counts,
            draw(st.sampled_from([1.0, 0.7])), zero, chunk)


class TestLogTails:
    """Each log-domain tail takes logs of the distinct rows and columns its
    cells touch, or of a whole block when the cells are as many as its rows,
    and gives bit for bit what it gives from whole blocks."""

    @settings(max_examples=60, deadline=None)
    @given(tail_cases())
    def test_e_step_tail(self, case):
        model, counts, beta, zero, chunk = case
        assert (helpers.joint_by_cell(model, counts, beta) < _UNDERFLOW).any()
        with chunk:
            got, want = sliced_and_whole(lambda: em_step(model, counts, beta))
        if zero:
            assert got is want is DegeneracyError
            return
        for name in ("prior", "doc_given_z", "word_given_z"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()

    @settings(max_examples=60, deadline=None)
    @given(tail_cases())
    def test_scan_tail(self, case):
        model, counts, beta, zero, chunk = case
        with chunk:
            got, want = sliced_and_whole(lambda: helpers.scan_by_cell(model, counts, beta))
        assert got.tobytes() == want.tobytes()
        null = model.word_given_z[counts.term_ids].max(axis=1) == 0.0
        assert null.any() == zero
        assert np.isneginf(got[null]).all() and np.isfinite(got[~null]).all()

    @settings(max_examples=60, deadline=None)
    @given(tail_cases())
    def test_fold_in_tail(self, case):
        # the documents stand in for queries, with mixing weights theta
        model, counts, beta, zero, chunk = case
        theta = 0.05 + np.random.default_rng(counts.nnz).random((counts.n_docs, model.k))
        theta /= theta.sum(axis=1, keepdims=True)
        word = model.word_given_z
        with np.errstate(divide="ignore"):
            lword = np.log(word)
        w_beta = word if beta == 1.0 else np.exp(beta * lword)
        with chunk:
            got, want = sliced_and_whole(lambda: _fold_in_sweep(
                theta, w_beta, lword, _Cells.of(counts), beta)[0])
        if zero:
            assert got is want is DegeneracyError
        else:
            assert got.tobytes() == want.tobytes()


@st.composite
def fold_cases(draw, shape="short"):
    """(model, queries, beta, plan): random shapes, some empty query rows,
    some terms no factor generates, and optionally P(w|z) entries near
    PROB_FLOOR.  Other shapes than "short" come from plan_shape, with the
    queries as its documents, and `plan` patches the chunks to its size."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plan = contextlib.nullcontext()
    if shape == "short":
        n_queries, n_terms, k = (draw(st.integers(1, 6)), draw(st.integers(1, 8)),
                                 draw(st.integers(1, 4)))
        mask = rng.random((n_queries, n_terms)) < draw(st.floats(0.1, 1.0))
    else:
        k, chunk, mask = plan_shape(draw, rng, shape)
        n_queries, n_terms = mask.shape
        plan = chunk_of(chunk, k)
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
    return model, queries, draw(st.sampled_from(BETAS)), plan


def working_sets(model, queries, beta, max_iters=50, tol=1e-6):
    """(fold_in's weights, the (rows, cells) of its working set in each
    sweep), from a spy on its sweeps."""
    sizes = []

    def spy(theta, w_beta, lword, cells, beta, r):
        sizes.append((len(theta), cells.nnz))
        return sweep(theta, w_beta, lword, cells, beta, r)

    sweep = trainer._fold_in_sweep
    with mock.patch.object(trainer, "_fold_in_sweep", spy):
        return fold_in(model, queries, beta, max_iters, tol), sizes


def expected_sets(queries, live_rows):
    """The (rows, cells) of fold_in's working set in each sweep, by its rule,
    from the rows live in each sweep: the set stays until its frozen cells
    outnumber trainer._FROZEN_SHARE of its live ones, and is then compacted
    to the live rows.  Terms no factor emits still count here, so only
    models that emit every term fit."""
    row_cells = np.bincount(queries.doc_ids, minlength=queries.n_docs)
    sets = []
    for rows in live_rows:
        live = (rows.size, int(row_cells[rows].sum()))
        if sets:
            kept = sets[-1]
            if not kept[1] - live[1] > trainer._FROZEN_SHARE * live[1]:
                live = kept
        sets.append(live)
    return sets


def assert_folds_like_oracle(model, queries, beta):
    """Each row agrees with the per-query oracle, and is final after the
    sweep the oracle stops at and not before it unless the oracle's is too.
    All rows are bit-equal to the fold-in that compacts before every sweep."""
    got = fold_in(model, queries, beta)
    assert got.tobytes() == helpers.compacting_fold_in(model, queries, beta)[0].tobytes()
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
        assert_folds_like_oracle(*case[:3])

    @settings(max_examples=80, deadline=None)
    @given(data=st.data())
    def test_working_set_matches_compacting_reference(self, data):
        # rows freeze at different sweeps under several tolerances and
        # budgets, and the set is compacted at various points
        model, queries, beta, plan = data.draw(fold_cases(data.draw(st.sampled_from(
            ("short", *PLAN_SHAPES)))))
        tol, max_iters = data.draw(st.sampled_from([1e-2, 1e-4, 1e-6])), data.draw(
            st.integers(1, 60))
        with plan, mock.patch.object(trainer, "_FROZEN_SHARE", data.draw(
                st.sampled_from([0.0, 0.1, 0.25, 1.0, 1e9]))):
            got, sizes = working_sets(model, queries, beta, max_iters, tol)
            want, live_rows = helpers.compacting_fold_in(model, queries, beta, max_iters, tol)
            assert got.tobytes() == want.tobytes()
            if (model.word_given_z.sum(axis=1) > 0).all():
                assert sizes == expected_sets(queries, live_rows)

    @pytest.mark.parametrize("share", [1.0, 0.99])
    @pytest.mark.parametrize("beta", BETAS)
    def test_frozen_cells_at_the_compaction_boundary(self, share, beta):
        # terms 0-2 have the same probability under both factors, so query 0,
        # which holds only them, keeps its uniform weights and freezes after
        # sweep 1; query 1 moves for several sweeps.  From sweep 2 on, 3
        # frozen cells stand against 3 live ones: the set is compacted only
        # when they outnumber them by the share.
        word = np.array([[0.2, 0.2], [0.2, 0.2], [0.2, 0.2], [0.3, 0.1], [0.1, 0.3]])
        model = normalized(np.array([0.5, 0.5]), np.ones((2, 2)), word)
        queries = CountMatrix(2, 5, [0, 0, 0, 1, 1, 1], [0, 1, 2, 0, 3, 4], [1, 2, 1, 1, 3, 1])
        with mock.patch.object(trainer, "_FROZEN_SHARE", share):
            got, sizes = working_sets(model, queries, beta)
        want, live_rows = helpers.compacting_fold_in(model, queries, beta)
        assert got.tobytes() == want.tobytes()
        assert [rows.tolist() for rows in live_rows[:2]] == [[0, 1], [1]] and len(live_rows) > 2
        assert sizes[0] == (2, 6)
        assert set(sizes[1:]) == ({(2, 6)} if share == 1.0 else {(1, 3)})
        np.testing.assert_allclose(got[0], [0.5, 0.5], rtol=RTOL)
        assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("beta", BETAS)
    def test_cell_that_starts_to_underflow_in_a_later_sweep(self, beta):
        # only factor 0 emits term 0, at 1e-199: S_beta of its cell passes
        # 1e-200 in sweep 1, then falls below it as term 1 draws the weight
        # to factor 1, so R's stored entry for the cell must be cleared
        word = np.array([[1e-199, 0.0], [0.01, 0.9], [0.99, 0.1]])
        model = normalized(np.array([0.5, 0.5]), np.ones((2, 2)), word)
        queries = CountMatrix(2, 3, [0, 0, 1], [0, 1, 2], [1, 20, 1])
        _, live_rows = helpers.compacting_fold_in(model, queries, beta)
        assert len(live_rows) > 2
        assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("beta", BETAS)
    def test_every_row_frozen_after_sweep_one(self, beta):
        # every term has one probability under all factors: no weight moves
        model = normalized(np.ones(3), np.ones((2, 3)), np.ones((4, 3)))
        queries = CountMatrix(3, 4, [0, 0, 1, 2, 2], [0, 3, 1, 0, 2], [2, 1, 1, 1, 4])
        got, sizes = working_sets(model, queries, beta)
        assert sizes == [(3, 5)]
        np.testing.assert_allclose(got, np.full((3, 3), 1.0 / 3), rtol=RTOL)
        assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("shape", PLAN_SHAPES)
    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_long_rows_match_oracle(self, shape, data):
        model, queries, beta, plan = data.draw(fold_cases(shape))
        with plan:
            assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_long_rows_need_no_cells_by_factors_array(self, beta):
        # 12 queries holding all 2000 terms at K = 64: one float64 array of
        # cells x K takes 12 MB, while a sweep needs O(cells + rows x K)
        rng = np.random.default_rng(8)
        n_queries, n_terms, k = 12, 2000, 64
        model = normalized(np.ones(k), np.ones((2, k)), 0.05 + rng.random((n_terms, k)))
        d, t = np.divmod(np.arange(n_queries * n_terms), n_terms)
        queries = CountMatrix(n_queries, n_terms, d, t, rng.integers(1, 6, size=d.size))
        got, peak = helpers.traced_peak(fold_in, model, queries, beta, 3)
        assert peak < d.size * k * 8 / 2
        np.testing.assert_allclose(got.sum(axis=1), 1.0, rtol=RTOL)

    @pytest.mark.parametrize("beta", BETAS)
    def test_underflowing_cell_matches_log_domain_oracle(self, beta):
        # terms 0-2 have P(w|z) ~ 1e-250 under every factor, so the S_beta of
        # their 8 cells is below the threshold at beta = 1 and 0.9 whatever
        # the weights; query 1 holds no other term
        word = np.array([[1e-250, 3e-250], [2e-250, 1e-250], [3e-250, 2e-250], [0.3, 0.6],
                         [0.7, 0.4]])
        model = normalized(np.array([0.3, 0.7]), np.ones((2, 2)), word)
        queries = CountMatrix(4, 5, [0, 0, 0, 1, 1, 2, 2, 2, 2, 3, 3, 3],
                              [0, 1, 3, 0, 2, 0, 1, 2, 4, 2, 3, 4],
                              [2, 1, 1, 1, 3, 1, 2, 1, 3, 2, 1, 1])
        assert (model.word_given_z[:3].max(axis=1) < _UNDERFLOW).all()
        for plan, chunks in underflow_settings():
            with plan, chunks:
                assert_folds_like_oracle(model, queries, beta)

    @pytest.mark.parametrize("beta", [1.0, 0.7])
    def test_zero_probability_cell_raises(self, beta):
        # fold_in's uniform start keeps weight on every factor that can emit
        # a query term, so a true zero reaches its sweep only from other
        # weights: here P(z|q) = (1, 0) and the term only factor 1 emits
        theta, word = np.array([[1.0, 0.0]]), np.array([[1.0, 0.0], [0.0, 1.0]])
        for plan in plans():
            with plan:
                cells = _Cells(np.array([0]), np.array([1]), np.array([1]), (1, 2))
                assert _sddmm(theta, word, cells)[0] == 0.0
                with pytest.raises(DegeneracyError), np.errstate(divide="ignore"):
                    _fold_in_sweep(theta, word, np.log(word), cells, beta)
