"""Truncated singular value decomposition of the count table, and the latent
coordinate mapping used by latent semantic indexing.

Raw counts are decomposed without any reweighting so the baseline matches
the term-frequency cosine scorer it is compared against.
"""

from dataclasses import dataclass

import numpy as np
import scipy.sparse.linalg

from . import serialize
from .corpus import CountMatrix

_ORTHO_TOL = 1e-8


@dataclass(frozen=True)
class SvdDecomposition:
    """Top-K singular triplets: u (N x K), sigma (K, descending), v (M x K).

    u and v have orthonormal columns within 1e-8 per entry.
    """

    u: np.ndarray
    sigma: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", np.ascontiguousarray(self.u, dtype=np.float64))
        object.__setattr__(self, "sigma", np.ascontiguousarray(self.sigma, dtype=np.float64))
        object.__setattr__(self, "v", np.ascontiguousarray(self.v, dtype=np.float64))
        k = self.sigma.size
        if self.u.ndim != 2 or self.v.ndim != 2 or self.u.shape[1] != k or self.v.shape[1] != k:
            raise ValueError("u, sigma and v disagree on the number of components")
        if not ((self.sigma >= 0).all() and (np.diff(self.sigma) <= 0).all()):  # NaN fails too
            raise ValueError("sigma must be nonnegative and sorted descending")
        for name, mat in (("u", self.u), ("v", self.v)):
            gram = mat.T @ mat
            if not (np.abs(gram - np.eye(k)) <= _ORTHO_TOL).all():
                raise ValueError(f"{name} columns are not orthonormal within {_ORTHO_TOL}")

    @property
    def k(self) -> int:
        return self.sigma.size

    def save(self, path) -> str:
        """Write the container and return the SHA-256 of its bytes."""
        return serialize.save_arrays(path, "svd-decomposition", {
            "u": self.u, "sigma": self.sigma, "v": self.v,
        })

    @classmethod
    def load(cls, path, record: dict | None = None) -> "SvdDecomposition":
        """Read a container that `save` wrote; a dict `record` receives the
        SHA-256 of its bytes."""
        arrays = serialize.load_arrays(path, "svd-decomposition", ("u", "sigma", "v"), record=record)
        try:
            return cls(arrays["u"], arrays["sigma"], arrays["v"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def truncated_svd(counts: CountMatrix, k: int) -> SvdDecomposition:
    """Top-K singular triplets of the count matrix, each v column's
    largest-magnitude entry (the first of equals) made positive.

    Dense LAPACK runs when the N x M table holds no more cells than the
    N x K and M x K singular vectors, which covers K = min(N, M) that the
    iterative Lanczos-style solver (ARPACK) cannot return; ARPACK runs
    otherwise.  A table without counts gets sigma = 0 and the leading
    columns of the identity as u and v.  `counts` is let go once its dense
    or CSR table is built, so a matrix that only the call holds is freed
    before the solver runs.
    """
    n, m = counts.n_docs, counts.n_terms
    if not 1 <= k <= min(n, m):
        raise ValueError(f"k must be in [1, {min(n, m)}], got {k}")
    if counts.nnz == 0:
        return SvdDecomposition(np.eye(n, k), np.zeros(k), np.eye(m, k))
    dense = n * m <= (n + m) * k
    table = counts.to_dense(np.float64) if dense else counts.to_csr()
    del counts
    if dense:
        u, s, vt = np.linalg.svd(table, full_matrices=False)
    else:
        # fixed starting vector: the default is drawn from global random
        # state, which would break run-to-run determinism
        v0 = np.random.default_rng(0x5EED).random(min(n, m))
        u, s, vt = scipy.sparse.linalg.svds(table, k=k, v0=v0)
    order = np.argsort(-s, kind="stable")[:k]
    u, s, v = u[:, order], s[order], vt[order].T
    signs = np.where(v[np.argmax(np.abs(v), axis=0), np.arange(k)] < 0, -1.0, 1.0)
    return SvdDecomposition(u * signs, s, v * signs)


def lsi_doc_coords(decomp: SvdDecomposition) -> np.ndarray:
    """Latent coordinates of the training documents: rows of U * diag(sigma)."""
    return decomp.u * decomp.sigma[None, :]


def lsi_fold_in(decomp: SvdDecomposition, queries: CountMatrix) -> np.ndarray:
    """Latent coordinates q @ V of unseen queries, one row each; at full rank
    a training document's row is its own coordinate row.  An all-zero query
    gets a zero row, which latent_scores marks unscorable."""
    if queries.n_terms != decomp.v.shape[0]:
        raise ValueError(f"queries span {queries.n_terms} terms but the decomposition "
                         f"{decomp.v.shape[0]}")
    return queries.to_csr() @ decomp.v
