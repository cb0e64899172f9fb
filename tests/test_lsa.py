"""Truncated-SVD baseline tests: hand oracles, orthonormality, optimality."""

import tracemalloc
import weakref

import numpy as np
import pytest
import scipy.sparse.linalg

import helpers
from plsa import CountMatrix, SvdDecomposition, lsi_doc_coords, lsi_fold_in, truncated_svd
from plsa.retrieval import latent_scores


def counts_from_dense(dense):
    dense = np.asarray(dense)
    d, w = np.nonzero(dense)
    return CountMatrix.from_entries(dense.shape[0], dense.shape[1], d, w, dense[d, w])


def no_dense_table(self, dtype=None):
    raise AssertionError("the dense N x M table was built")


def random_integer_counts(rng, n, m, density=0.7, high=9):
    dense = np.where(rng.random((n, m)) < density, rng.integers(1, high, size=(n, m)), 0)
    if not dense.any():
        dense[0, 0] = 1
    return counts_from_dense(dense), dense.astype(float)


class TestTruncatedSvd:
    def test_diagonal_matrix(self):
        decomp = truncated_svd(counts_from_dense(np.diag([5, 3, 1])), 3)
        np.testing.assert_allclose(decomp.sigma, [5.0, 3.0, 1.0], atol=1e-10)

    def test_two_by_two_hand_oracle(self):
        # [[3,0],[4,0]]: N^t N = [[25,0],[0,0]], so sigma1 = 5 and v1 = e1
        decomp = truncated_svd(counts_from_dense([[3, 0], [4, 0]]), 1)
        np.testing.assert_allclose(decomp.sigma, [5.0], atol=1e-8)
        np.testing.assert_allclose(decomp.v[:, 0], [1.0, 0.0], atol=1e-8)
        np.testing.assert_allclose(decomp.u[:, 0], [0.6, 0.8], atol=1e-8)

    def test_rank_one_reconstruction(self):
        dense = np.outer([1, 2, 3], [2, 0, 1, 4])
        decomp = truncated_svd(counts_from_dense(dense), 1)
        approx = decomp.u @ np.diag(decomp.sigma) @ decomp.v.T
        np.testing.assert_allclose(approx, dense, atol=1e-8)

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(1)
        counts, _ = random_integer_counts(rng, 6, 8)
        decomp = truncated_svd(counts, 4)
        np.testing.assert_allclose(decomp.u.T @ decomp.u, np.eye(4), atol=1e-8)
        np.testing.assert_allclose(decomp.v.T @ decomp.v, np.eye(4), atol=1e-8)

    def test_singular_values_are_prefix_of_full_spectrum(self):
        rng = np.random.default_rng(2)
        counts, dense = random_integer_counts(rng, 5, 7)
        full = np.linalg.svd(dense, compute_uv=False)
        for k in (1, 2, 4):
            decomp = truncated_svd(counts, k)
            np.testing.assert_allclose(decomp.sigma, full[:k], atol=1e-8)

    def test_eckart_young_spot_check(self):
        # the truncation beats the best of many random rank-K approximations
        rng = np.random.default_rng(3)
        for _ in range(3):
            counts, dense = random_integer_counts(rng, 4, 4, density=0.9)
            decomp = truncated_svd(counts, 2)
            optimal = np.linalg.norm(
                dense - decomp.u @ np.diag(decomp.sigma) @ decomp.v.T)
            for _ in range(1000):
                basis, _ = np.linalg.qr(rng.normal(size=(4, 2)))
                candidate = basis @ (basis.T @ dense)  # best fit in a random column space
                assert optimal <= np.linalg.norm(dense - candidate) + 1e-10

    def test_sign_convention_and_determinism(self):
        rng = np.random.default_rng(4)
        counts, _ = random_integer_counts(rng, 6, 5)
        a = truncated_svd(counts, 3)
        b = truncated_svd(counts, 3)
        np.testing.assert_array_equal(a.u, b.u)
        np.testing.assert_array_equal(a.v, b.v)
        for j in range(a.k):
            peak = np.argmax(np.abs(a.v[:, j]))
            assert a.v[peak, j] > 0

    def test_iterative_path_matches_dense(self):
        # large enough that the Lanczos-style solver is used
        rng = np.random.default_rng(5)
        n, m = 600, 520
        cells = rng.choice(n * m, size=4000, replace=False)
        counts = CountMatrix.from_entries(n, m, cells // m, cells % m,
                                          rng.integers(1, 6, size=4000))
        decomp = truncated_svd(counts, 5)
        full = np.linalg.svd(counts.to_dense().astype(float), compute_uv=False)
        np.testing.assert_allclose(decomp.sigma, full[:5], atol=1e-8)
        dense = counts.to_dense().astype(float)
        for j in range(5):  # residual check per triplet
            residual = dense @ decomp.v[:, j] - decomp.sigma[j] * decomp.u[:, j]
            assert np.linalg.norm(residual) < 1e-8 * max(1.0, decomp.sigma[j])

    def test_full_rank_of_a_table_over_the_dense_cell_limit(self):
        # 2 x (2^21 + 1) cells is beyond the small-problem limit, but k = 2 is
        # the full spectrum, which only the dense path gives
        m = (1 << 21) + 1
        counts = CountMatrix.from_entries(2, m, [0, 0, 1, 1], [5, m - 1, 5, 17], [3, 1, 1, 2])
        decomp = truncated_svd(counts, 2)
        gram = np.array([[3 * 3 + 1 * 1, 3 * 1], [3 * 1, 1 * 1 + 2 * 2]], dtype=float)
        np.testing.assert_allclose(decomp.sigma ** 2, np.linalg.eigvalsh(gram)[::-1], rtol=1e-10)
        np.testing.assert_allclose((decomp.u * decomp.sigma) @ decomp.v[[5, 17, m - 1]].T,
                                   [[3, 0, 1], [1, 2, 0]], atol=1e-10)

    @pytest.mark.parametrize("n, m", [(2, 1 << 18), (300, 700), (700, 300)])
    def test_dense_path_builds_one_table(self, monkeypatch, n, m):
        # the float64 table handed to LAPACK is the only N x M array built
        # before it: the traced peak up to that call stays near its size
        rng = np.random.default_rng(n)
        cells = rng.choice(n * m, size=5000, replace=False)
        counts = CountMatrix.from_entries(n, m, cells // m, cells % m,
                                          rng.integers(1, 9, size=cells.size))
        svd, peaks = np.linalg.svd, []

        def traced_svd(table, **kwargs):
            peaks.append(tracemalloc.get_traced_memory()[1])
            np.testing.assert_array_equal(table, counts.to_dense())
            return svd(table, **kwargs)

        monkeypatch.setattr(np.linalg, "svd", traced_svd)
        decomp, _ = helpers.traced_peak(truncated_svd, counts, min(n, m))
        assert peaks and peaks[0] < 1.25 * n * m * 8
        want = svd(counts.to_dense().astype(np.float64), full_matrices=False)
        np.testing.assert_array_equal(np.abs(decomp.u), np.abs(want[0]))
        np.testing.assert_array_equal(decomp.sigma, want[1])
        np.testing.assert_array_equal(np.abs(decomp.v), np.abs(want[2].T))

    @pytest.mark.parametrize("n, m, k", [(40, 60, 40), (300, 700, 8)])
    def test_frees_a_matrix_that_only_the_call_holds(self, monkeypatch, n, m, k):
        # the dense or CSR table is all the solver reads: the matrix that
        # `train --mode svd` hands over is freed before LAPACK or ARPACK runs
        rng = np.random.default_rng(m)
        held, refs, alive = counts_from_dense(rng.poisson(0.5, size=(n, m))), [], []

        def only_the_call_holds():
            matrix = CountMatrix(n, m, held.doc_ids.copy(), held.term_ids.copy(),
                                 held.counts.copy())
            refs.append(weakref.ref(matrix))
            return matrix

        def solver(solve):
            def observed(*args, **kwargs):
                alive.append(refs[-1]() is not None)
                return solve(*args, **kwargs)
            return observed

        monkeypatch.setattr(np.linalg, "svd", solver(np.linalg.svd))
        monkeypatch.setattr(scipy.sparse.linalg, "svds", solver(scipy.sparse.linalg.svds))
        decomp = truncated_svd(only_the_call_holds(), k)
        assert alive == [False]
        want = truncated_svd(held, k)
        for name in ("u", "sigma", "v"):
            np.testing.assert_array_equal(getattr(decomp, name), getattr(want, name))

    def test_iterative_path_on_small_and_rank_deficient_tables_matches_lapack(self):
        # tables whose N x M cells outnumber the (N + M) x K singular vectors
        # take the iterative solver however small they are
        rng = np.random.default_rng(9)
        for trial in range(40):
            n, m = rng.integers(3, 12), rng.integers(12, 40)
            k = int(rng.integers(1, (n * m - 1) // (n + m) + 1))
            counts, dense = random_integer_counts(rng, n, m, density=rng.uniform(0.05, 0.6))
            if trial % 2:  # rank at most 2: rows are sums of two count rows
                dense = rng.integers(0, 3, size=(n, 2)) @ dense[:2]
                counts = counts_from_dense(dense)
            decomp = truncated_svd(counts, k)
            full = np.linalg.svd(dense, compute_uv=False)
            top = max(full[0], 1.0)
            np.testing.assert_allclose(decomp.sigma, full[:k], rtol=0, atol=1e-12 * top)
            residual = dense @ decomp.v - decomp.u * decomp.sigma
            assert np.abs(residual).max() <= 1e-10 * top
            for j in range(k):  # the sign rule, column by column
                peak = np.argmax(np.abs(decomp.v[:, j]))
                assert decomp.v[peak, j] > 0

    @pytest.mark.parametrize("n, m, k", [(10, 20, 2), (600, 1000, 2), (5, 5, 5)])
    def test_a_table_without_counts_gets_zero_sigma_and_the_identity(self, monkeypatch, n, m, k):
        monkeypatch.setattr(CountMatrix, "to_dense", no_dense_table)
        decomp = truncated_svd(CountMatrix(n, m, [], [], []), k)
        np.testing.assert_array_equal(decomp.sigma, np.zeros(k))
        np.testing.assert_array_equal(decomp.u, np.eye(n, k))
        np.testing.assert_array_equal(decomp.v, np.eye(m, k))

    def test_wide_table_at_small_k_builds_no_dense_table(self, monkeypatch):
        # 512 x 8192: the iterative solver takes 0.1 s here at k = 8, where
        # LAPACK on the dense table takes over a second
        rng = np.random.default_rng(10)
        n, m = 512, 8192
        counts = helpers.random_counts(rng, n, m, 80_000)

        monkeypatch.setattr(CountMatrix, "to_dense", no_dense_table)
        decomp = truncated_svd(counts, 8)
        csr = counts.to_csr().astype(np.float64)
        eig = np.linalg.eigvalsh((csr @ csr.T).toarray())[::-1][:8]
        np.testing.assert_allclose(decomp.sigma, np.sqrt(eig), rtol=1e-10)
        residual = csr @ decomp.v - decomp.u * decomp.sigma
        assert np.abs(residual).max() <= 1e-10 * decomp.sigma[0]

    def test_k_out_of_range(self):
        counts = counts_from_dense([[1, 2], [3, 4]])
        for k in (0, 3):
            with pytest.raises(ValueError):
                truncated_svd(counts, k)


class TestLsiCoordinates:
    def test_doc_coords_scale_u_by_sigma(self):
        rng = np.random.default_rng(6)
        counts, _ = random_integer_counts(rng, 5, 6)
        decomp = truncated_svd(counts, 3)
        np.testing.assert_allclose(lsi_doc_coords(decomp),
                                   decomp.u * decomp.sigma[None, :], atol=1e-12)

    def test_fold_in_reproduces_training_rows_at_full_rank(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            counts, dense = random_integer_counts(rng, 5, 7)
            decomp = truncated_svd(counts, 5)
            coords = lsi_doc_coords(decomp)
            np.testing.assert_allclose(lsi_fold_in(decomp, counts), coords, atol=1e-6)
            for d in range(5):  # each row alone folds in to the same coordinates
                np.testing.assert_allclose(lsi_fold_in(decomp, counts_from_dense(dense[d:d + 1])),
                                           coords[d:d + 1], atol=1e-6)

    def test_rank_one_coords_proportional_to_row_weights(self):
        dense = np.outer([1.0, 2.0, 4.0], [3.0, 1.0])
        decomp = truncated_svd(counts_from_dense(dense), 1)
        coords = lsi_doc_coords(decomp)[:, 0]
        ratios = coords / coords[0]
        np.testing.assert_allclose(ratios, [1.0, 2.0, 4.0], atol=1e-10)

    def test_orthogonal_query_maps_near_zero(self):
        # term 3 appears in no document, so a query using only it lands at
        # the origin of the latent space
        dense = np.array([[2, 1, 0, 0], [0, 3, 1, 0], [1, 0, 2, 0]])
        decomp = truncated_svd(counts_from_dense(dense), 3)
        query = counts_from_dense([[0, 0, 0, 5]])
        np.testing.assert_allclose(lsi_fold_in(decomp, query), 0.0, atol=1e-8)

    def test_zero_query_rejected(self):
        # an all-zero query folds in to a zero row, which scoring rejects
        decomp = truncated_svd(counts_from_dense([[1, 2], [3, 4]]), 2)
        coords = lsi_fold_in(decomp, counts_from_dense([[0, 0], [1, 0]]))
        assert coords.shape == (2, 2)
        np.testing.assert_array_equal(coords[0], 0.0)
        _, query_ok, _ = latent_scores(coords, lsi_doc_coords(decomp))
        np.testing.assert_array_equal(query_ok, [False, True])

    def test_wrong_length_rejected(self):
        decomp = truncated_svd(counts_from_dense([[1, 2], [3, 4]]), 2)
        with pytest.raises(ValueError, match="terms"):
            lsi_fold_in(decomp, counts_from_dense([[1, 1, 1]]))


class TestSvdContainer:
    def test_round_trip_exact(self, tmp_path):
        rng = np.random.default_rng(8)
        counts, _ = random_integer_counts(rng, 5, 6)
        decomp = truncated_svd(counts, 3)
        path = tmp_path / "svd.bin"
        decomp.save(path)
        back = SvdDecomposition.load(path)
        np.testing.assert_array_equal(back.u, decomp.u)
        np.testing.assert_array_equal(back.sigma, decomp.sigma)
        np.testing.assert_array_equal(back.v, decomp.v)

    def test_validation(self):
        with pytest.raises(ValueError):
            SvdDecomposition(np.ones((3, 1)), np.array([1.0]), np.ones((3, 1)))
        with pytest.raises(ValueError):  # ascending sigma
            SvdDecomposition(np.eye(3, 2), np.array([1.0, 2.0]), np.eye(3, 2))
        with pytest.raises(ValueError):  # negative sigma
            SvdDecomposition(np.eye(3, 1), np.array([-1.0]), np.eye(3, 1))
        with pytest.raises(ValueError, match="sigma"):  # NaN sigma
            SvdDecomposition(np.eye(3, 2), np.array([1.0, np.nan]), np.eye(3, 2))
        for nan_u in (True, False):  # a NaN in u or v
            u, v = np.eye(3, 2), np.eye(3, 2)
            (u if nan_u else v)[2, 0] = np.nan
            with pytest.raises(ValueError, match="orthonormal"):
                SvdDecomposition(u, np.array([2.0, 1.0]), v)
