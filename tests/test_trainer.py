"""Training tests: EM sweeps, the annealing schedule, and query fold-in."""

import sys
import tracemalloc
from unittest import mock

import numpy as np
import pytest

import helpers
from plsa import aspect_model, trainer
from plsa import (
    AspectModel,
    CountMatrix,
    StoppingReason,
    TemConfig,
    build_counts,
    em_step,
    fit_em,
    fit_tem,
    fold_in,
    init_model,
    internal_split,
    log_likelihood,
    unigram_baseline,
)


def small_corpus(seed=0, n_docs=8, n_terms=10, nnz=40):
    return helpers.random_counts(np.random.default_rng(seed), n_docs, n_terms, nnz)


class TestEmStep:
    def test_single_factor_lands_on_unigram(self):
        counts = small_corpus(1)
        model = init_model(1, counts.n_docs, counts.n_terms, seed=3)
        stepped = em_step(model, counts)
        baseline = unigram_baseline(counts)
        np.testing.assert_allclose(stepped.prior, baseline.prior, atol=1e-14)
        np.testing.assert_allclose(stepped.doc_given_z, baseline.doc_given_z, atol=1e-14)
        np.testing.assert_allclose(stepped.word_given_z, baseline.word_given_z, atol=1e-14)

    def test_likelihood_never_decreases(self):
        counts = helpers.random_counts(np.random.default_rng(2), 3, 4, 9)
        model = init_model(2, 3, 4, seed=7)
        before = log_likelihood(model, counts)
        after = log_likelihood(em_step(model, counts), counts)
        assert after >= before - 1e-9 * abs(before)

    def test_input_model_unchanged(self):
        counts = small_corpus(3)
        model = init_model(2, counts.n_docs, counts.n_terms, seed=1)
        snapshot = model.word_given_z.copy()
        em_step(model, counts)
        np.testing.assert_array_equal(model.word_given_z, snapshot)

    def test_converged_fixed_point(self):
        counts = helpers.random_counts(np.random.default_rng(4), 3, 3, 6)
        model = init_model(2, 3, 3, seed=5)
        for _ in range(500):
            model = em_step(model, counts)
        settled = em_step(model, counts)
        assert np.abs(settled.prior - model.prior).max() < 1e-8
        assert np.abs(settled.doc_given_z - model.doc_given_z).max() < 1e-8
        assert np.abs(settled.word_given_z - model.word_given_z).max() < 1e-8

    def test_dead_factor_reset_with_warning(self):
        counts = small_corpus(5)
        n, m = counts.n_docs, counts.n_terms
        model = AspectModel(
            np.array([1.0, 0.0]),  # second factor can never receive mass
            np.full((n, 2), 1.0 / n),
            np.full((m, 2), 1.0 / m),
        )
        with pytest.warns(RuntimeWarning, match="no posterior mass"):
            stepped = em_step(model, counts)
        np.testing.assert_allclose(stepped.word_given_z[:, 1], 1.0 / m, atol=1e-15)
        np.testing.assert_allclose(stepped.doc_given_z[:, 1], 1.0 / n, atol=1e-15)
        assert stepped.prior[1] > 0.0  # revived, so EM can reassign it

    def test_normalization_invariants_along_the_way(self):
        counts = small_corpus(6)
        model = init_model(3, counts.n_docs, counts.n_terms, seed=2)
        for beta in (1.0, 0.8, 0.6):
            for _ in range(5):
                # the AspectModel constructor enforces the simplex invariants
                model = em_step(model, counts, beta)

    def test_rejects_bad_input(self):
        counts = small_corpus(7)
        model = init_model(2, counts.n_docs, counts.n_terms, seed=0)
        with pytest.raises(ValueError):
            em_step(model, counts, beta=0.0)
        empty = helpers.random_counts(np.random.default_rng(0), 4, 4, 0)
        model2 = init_model(2, 4, 4, seed=0)
        with pytest.raises(ValueError):
            em_step(model2, empty)


class TestFitEm:
    def test_train_perplexity_non_increasing(self):
        counts = helpers.random_counts(np.random.default_rng(11), 12, 15, 90, max_count=4)
        _, trace = fit_em(counts, 3, TemConfig(seed=1))
        ppx = [r.train_perplexity for r in trace.records]
        assert all(b <= a * (1 + 1e-9) for a, b in zip(ppx, ppx[1:]))

    def test_stopping_reason_never_beta_floor(self):
        for seed in range(3):
            counts = helpers.random_counts(np.random.default_rng(seed), 10, 12, 60)
            _, trace = fit_em(counts, 2, TemConfig(seed=seed))
            assert trace.stopping_reason in (StoppingReason.HELDOUT_DETERIORATION,
                                             StoppingReason.ITERATION_CAP)

    def test_beta_fixed_at_one(self):
        counts = small_corpus(12, n_docs=10, n_terms=12, nnz=60)
        _, trace = fit_em(counts, 2, TemConfig(seed=2))
        assert all(r.beta == 1.0 for r in trace.records)

    def test_leaves_counts_unchanged(self):
        counts = helpers.random_counts(np.random.default_rng(28), 12, 14, 80)
        arrays = (counts.doc_ids, counts.term_ids, counts.counts)
        before = [a.tobytes() for a in arrays]
        _, trace = fit_tem(counts, 3, TemConfig(seed=9, eta=0.8))
        assert any(r.beta < 1.0 for r in trace.records)
        assert [a.tobytes() for a in arrays] == before

    def test_bit_deterministic(self):
        counts = small_corpus(13, n_docs=10, n_terms=12, nnz=60)
        config = TemConfig(seed=9)
        model_a, trace_a = fit_em(counts, 3, config)
        model_b, trace_b = fit_em(counts, 3, config)
        assert model_a.prior.tobytes() == model_b.prior.tobytes()
        assert model_a.doc_given_z.tobytes() == model_b.doc_given_z.tobytes()
        assert model_a.word_given_z.tobytes() == model_b.word_given_z.tobytes()
        assert trace_a.records == trace_b.records

    def test_iterations_strictly_increasing(self):
        counts = small_corpus(14, n_docs=10, n_terms=12, nnz=60)
        _, trace = fit_em(counts, 2, TemConfig(seed=0))
        its = [r.iteration for r in trace.records]
        assert its == sorted(set(its))

    def test_empty_counts_rejected(self):
        empty = helpers.random_counts(np.random.default_rng(0), 3, 3, 0)
        with pytest.raises(ValueError):
            fit_em(empty, 2, TemConfig())

    def test_k1_equals_unigram_of_internal_train(self):
        counts = helpers.random_counts(np.random.default_rng(15), 10, 12, 70, max_count=6)
        config = TemConfig(seed=4)
        model, _ = fit_em(counts, 1, config)
        baseline = unigram_baseline(internal_split(counts, config).train)
        np.testing.assert_allclose(model.prior, baseline.prior, atol=1e-10)
        np.testing.assert_allclose(model.doc_given_z, baseline.doc_given_z, atol=1e-10)
        np.testing.assert_allclose(model.word_given_z, baseline.word_given_z, atol=1e-10)


class TestFitTem:
    def test_beta_schedule_shape(self):
        counts = helpers.random_counts(np.random.default_rng(21), 15, 20, 120, max_count=4)
        config = TemConfig(seed=3, eta=0.8, beta_min=0.4)
        _, trace = fit_tem(counts, 4, config)
        betas = [r.beta for r in trace.records]
        assert betas[0] == 1.0
        assert all(b <= a for a, b in zip(betas, betas[1:]))  # non-increasing
        distinct = sorted(set(betas), reverse=True)
        for expected, got in zip([1.0, 0.8, 0.64, 0.512], distinct):
            assert got == pytest.approx(expected, rel=1e-12)

    def test_free_energy_descends_within_a_stage(self):
        counts = helpers.random_counts(np.random.default_rng(22), 15, 20, 120, max_count=4)
        _, trace = fit_tem(counts, 3, TemConfig(seed=5))
        for prev, cur in zip(trace.records, trace.records[1:]):
            if prev.beta == cur.beta:
                assert cur.free_energy <= prev.free_energy + 1e-9 * abs(prev.free_energy)

    def test_degenerate_schedule_matches_fit_em(self):
        counts = helpers.random_counts(np.random.default_rng(23), 12, 14, 80, max_count=5)
        config = TemConfig(seed=6, eta=1 - 1e-9, beta_min=1.0)
        em_model, em_trace = fit_em(counts, 2, TemConfig(seed=6))
        tem_model, tem_trace = fit_tem(counts, 2, config)
        assert tem_trace.records == em_trace.records
        np.testing.assert_array_equal(tem_model.prior, em_model.prior)
        np.testing.assert_array_equal(tem_model.word_given_z, em_model.word_given_z)
        assert tem_trace.stopping_reason == StoppingReason.BETA_FLOOR

    def test_leaves_counts_unchanged(self):
        counts = helpers.random_counts(np.random.default_rng(28), 12, 14, 80)
        arrays = (counts.doc_ids, counts.term_ids, counts.counts)
        before = [a.tobytes() for a in arrays]
        _, trace = fit_tem(counts, 3, TemConfig(seed=9, eta=0.8))
        assert any(r.beta < 1.0 for r in trace.records)
        assert [a.tobytes() for a in arrays] == before

    def test_heldout_scans_run_beside_one_train_joint(self):
        # at each held-out scan the train side holds its layout and the
        # joint kept for the next sweep; its log joint is freed once the
        # train log-likelihood is summed.  The traced memory at each scan is
        # measured from that after the first sweep, before any joint is kept.
        counts = helpers.random_counts(np.random.default_rng(29), 200, 300, 60_000)
        config = TemConfig(seed=4, max_iters_per_beta=2, max_total_iters=4,
                           improvement_tol=1e-12, heldout_fraction=0.05)
        sweep, scan = trainer.em_step, trainer.perplexity
        after_sweep, at_scan, n_train = [], [], []

        def traced_sweep(model, cells, beta=1.0):
            n_train.append(cells.nnz)
            model = sweep(model, cells, beta)
            after_sweep.append(tracemalloc.get_traced_memory()[0])
            return model

        def traced_scan(*args, **kwargs):
            at_scan.append(tracemalloc.get_traced_memory()[0])
            return scan(*args, **kwargs)

        with (mock.patch.object(trainer, "em_step", traced_sweep),
              mock.patch.object(trainer, "perplexity", traced_scan)):
            (_, trace), _ = helpers.traced_peak(fit_tem, counts, 2, config)
        assert len(at_scan) == len(trace.records) and trace.records[-1].beta < 1.0
        assert max(at_scan) - after_sweep[0] < 1.5 * 8 * n_train[0]

    def test_bit_deterministic(self):
        counts = helpers.random_counts(np.random.default_rng(24), 12, 14, 80)
        config = TemConfig(seed=8)
        a, trace_a = fit_tem(counts, 3, config)
        b, trace_b = fit_tem(counts, 3, config)
        assert a.word_given_z.tobytes() == b.word_given_z.tobytes()
        assert trace_a.records == trace_b.records

    @staticmethod
    def fit_files(tmp_path, name, counts, config):
        model, trace = fit_tem(counts, 4, config)
        model.save(tmp_path / f"{name}.bin")
        trace.save(tmp_path / f"{name}.tsv")
        assert any(r.beta < 1.0 for r in trace.records)  # the tempered kernel ran
        return (tmp_path / f"{name}.bin").read_bytes(), (tmp_path / f"{name}.tsv").read_bytes()

    def test_reruns_byte_identical_on_disk(self, tmp_path):
        counts = helpers.random_counts(np.random.default_rng(26), 30, 40, 300, max_count=4)
        config = TemConfig(seed=4, eta=0.8)
        assert (self.fit_files(tmp_path, "a", counts, config)
                == self.fit_files(tmp_path, "b", counts, config))

    def test_reused_joint_matches_fresh_sweeps(self, tmp_path, monkeypatch):
        # _fit keeps the S_beta its scan computed for the next sweep;
        # recomputing it inside em_step instead must not change a byte of
        # the outputs
        counts = helpers.random_counts(np.random.default_rng(27), 30, 40, 300, max_count=4)
        config = TemConfig(seed=5, eta=0.8)
        joint, callers = aspect_model._tempered_joint, []

        def spy(model, cells, beta):
            callers.append(sys._getframe(1).f_code.co_name)
            return joint(model, cells, beta)

        monkeypatch.setattr(aspect_model, "_tempered_joint", spy)
        reused = self.fit_files(tmp_path, "reused", counts, config)
        # only the first sweep at each beta computes its joint; each later
        # one takes the joint the scan before it kept
        sweeps = [line.split(b"\t") for line in reused[1].splitlines() if line[:1] != b"#"]
        assert callers.count("keep_joint") == len(sweeps)
        assert callers.count("take_joint") == len({beta for _, beta, *_ in sweeps}) < len(sweeps)
        monkeypatch.setattr(aspect_model, "_tempered_joint", joint)
        monkeypatch.setattr(aspect_model._Cells, "keep_joint",
                            lambda cells, model, beta: aspect_model._tempered_joint(model, cells, beta))
        assert self.fit_files(tmp_path, "fresh", counts, config) == reused

    def test_train_perplexity_never_increases_at_beta_one_on_topic_corpus(self):
        # MED-like: sparse topical documents, a vocabulary several times the
        # document count, about a hundred tokens per document
        rng = np.random.default_rng(31)
        source = helpers.topic_generator(rng, k=16, n_docs=300, n_terms=2000,
                                         doc_alpha=0.1, word_alpha=0.01)
        counts = helpers.sample_corpus(source, 30_000, rng)
        config = TemConfig(seed=7, improvement_tol=1e-6, max_total_iters=80)
        _, trace = fit_tem(counts, 16, config)
        ppx = [r.train_perplexity for r in trace.records if r.beta == 1.0]
        assert len(ppx) >= 10
        assert all(b <= a for a, b in zip(ppx, ppx[1:]))

    def test_returns_best_heldout_snapshot(self):
        counts = helpers.random_counts(np.random.default_rng(25), 15, 18, 110, max_count=4)
        config = TemConfig(seed=2)
        model, trace = fit_tem(counts, 4, config)
        heldout = internal_split(counts, config).heldout
        from plsa import perplexity
        best = min(r.heldout_perplexity for r in trace.records)
        np.testing.assert_allclose(perplexity(model, heldout, conditional=True), best,
                                   rtol=1e-12)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            TemConfig(eta=1.0)
        with pytest.raises(ValueError):
            TemConfig(beta_min=0.0)
        with pytest.raises(ValueError):
            TemConfig(heldout_fraction=1.0)
        with pytest.raises(ValueError):
            TemConfig(improvement_tol=0.0)


STALL, NO_STALL = 2e-2, 1e-12  # improvement_tol values that stall at sweep 2, and never


@pytest.mark.parametrize("fit, schedule, reason, n_records", [
    # the beta = 1 stage ends on a stall at its second sweep
    (fit_em, dict(improvement_tol=STALL), StoppingReason.HELDOUT_DETERIORATION, 2),
    (fit_em, dict(improvement_tol=NO_STALL, max_iters_per_beta=3), StoppingReason.ITERATION_CAP,
     3),
    # stages at beta = 0.9, 0.81, ... stall at their first sweep; the one at
    # 0.59 brings no new best held-out perplexity
    (fit_tem, dict(improvement_tol=STALL), StoppingReason.HELDOUT_DETERIORATION, 7),
    (fit_tem, dict(improvement_tol=NO_STALL, max_iters_per_beta=2, beta_min=0.85),
     StoppingReason.BETA_FLOOR, 4),
    # the run's budget runs out where the beta = 0.9 stage ends
    (fit_tem, dict(improvement_tol=NO_STALL, max_iters_per_beta=2, beta_min=0.85,
                   max_total_iters=4), StoppingReason.ITERATION_CAP, 4),
    # a stall on the last sweep the budget allows is judged as a stall
    (fit_em, dict(improvement_tol=STALL, max_total_iters=2), StoppingReason.HELDOUT_DETERIORATION,
     2),
    (fit_tem, dict(improvement_tol=STALL, max_total_iters=7), StoppingReason.HELDOUT_DETERIORATION,
     7),
])
def test_every_exit_of_the_schedule(fit, schedule, reason, n_records):
    counts = helpers.random_counts(np.random.default_rng(21), 15, 20, 120, max_count=4)
    _, trace = fit(counts, 3, TemConfig(seed=3, **schedule))
    assert (trace.stopping_reason, len(trace.records)) == (reason, n_records)


class TestTrace:
    def test_save_format(self, tmp_path):
        counts = small_corpus(31, n_docs=10, n_terms=12, nnz=60)
        _, trace = fit_tem(counts, 2, TemConfig(seed=1))
        path = tmp_path / "trace.tsv"
        trace.save(path)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("#")
        body = [l for l in lines if not l.startswith("#")]
        assert len(body) == len(trace.records)
        first = body[0].split("\t")
        assert len(first) == 5
        assert int(first[0]) == trace.records[0].iteration
        assert lines[-1].endswith(trace.stopping_reason.value)


def queries(n_terms, *rows):
    """A query CountMatrix with one {term_id: count} mapping per row."""
    entries = [(i, t, c) for i, row in enumerate(rows) for t, c in sorted(row.items())]
    d, t, c = zip(*entries) if entries else ((), (), ())
    return CountMatrix(len(rows), n_terms, d, t, c)


class TestFoldIn:
    def test_single_factor(self):
        model = init_model(1, 4, 6, seed=0)
        np.testing.assert_array_equal(fold_in(model, queries(6, {2: 3})), [[1.0]])

    def test_concentrates_on_supporting_factor(self):
        word = np.array([[0.5, 0.0],
                         [0.5, 0.2],
                         [0.0, 0.8]])
        model = AspectModel(np.array([0.5, 0.5]),
                            np.full((3, 2), 1 / 3), word)
        rep = fold_in(model, queries(3, {0: 1}), beta=1.0)  # term 0 only factor 0 can emit
        assert rep[0, 0] >= 1 - 1e-9

    def test_model_untouched(self):
        model = init_model(3, 5, 7, seed=2)
        before = (model.prior.copy(), model.doc_given_z.copy(), model.word_given_z.copy())
        fold_in(model, queries(7, {1: 2, 3: 1}, {0: 1}))
        np.testing.assert_array_equal(model.prior, before[0])
        np.testing.assert_array_equal(model.doc_given_z, before[1])
        np.testing.assert_array_equal(model.word_given_z, before[2])

    def test_scale_invariant_at_beta_one(self):
        model = init_model(4, 5, 8, seed=3)
        base, scaled = fold_in(model, queries(8, {0: 1, 2: 2, 5: 1}, {0: 3, 2: 6, 5: 3}),
                               beta=1.0, tol=1e-10, max_iters=500)
        np.testing.assert_allclose(scaled, base, atol=1e-6)

    def test_input_forms_agree(self):
        # a query's row is the same alone, in a batch, and after other rows
        # that stop earlier or later than it does
        model = init_model(3, 4, 6, seed=4)
        rows = ({1: 2, 4: 1}, {0: 1}, {}, {5: 3, 2: 1, 1: 1}, {1: 2, 4: 1})
        batch = fold_in(model, queries(6, *rows), beta=0.9)
        for i, row in enumerate(rows):
            np.testing.assert_array_equal(batch[i], fold_in(model, queries(6, row), beta=0.9)[0])
        np.testing.assert_array_equal(batch[0], batch[4])

    def test_unmatchable_query_rejected(self):
        model = init_model(2, 3, 4, seed=0)
        reps = fold_in(model, queries(4, {}, {1: 1}))
        assert np.isnan(reps[0]).all() and np.isfinite(reps[1]).all()
        with pytest.raises(ValueError):
            fold_in(model, queries(9, {8: 1}))  # not the model's vocabulary
        with pytest.raises(ValueError):
            fold_in(model, queries(4, {1: 1}), beta=0.0)

    def test_unsupported_terms_dropped(self):
        word = np.array([[0.5, 0.0],
                         [0.5, 1.0],
                         [0.0, 0.0]])  # term 2 unsupported by every factor
        model = AspectModel(np.array([0.5, 0.5]), np.full((2, 2), 0.5), word)
        with_dropped, alone, only_dropped = fold_in(model, queries(3, {0: 1, 2: 5}, {0: 1}, {2: 5}))
        np.testing.assert_allclose(with_dropped, alone, atol=1e-15)
        assert np.isnan(only_dropped).all()


class TestGeneratorRecovery:
    def test_fit_recovers_generator_quality(self):
        # corpus sampled from a known 3-factor model: the fitted model's
        # held-out conditional perplexity lands within 10% of the generator's
        rng = np.random.default_rng(123)
        generator = helpers.topic_generator(rng, k=3, n_docs=40, n_terms=24)
        corpus = helpers.sample_corpus(generator, 6000, rng)
        from plsa import perplexity, split_heldout
        pair = split_heldout(corpus, 0.1, seed=77)
        model, _ = fit_em(pair.train, 3, TemConfig(seed=11))
        fitted = perplexity(model, pair.heldout, conditional=True)
        reference = perplexity(generator, pair.heldout, conditional=True)
        assert abs(fitted - reference) <= 0.10 * reference
