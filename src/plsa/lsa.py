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
# A dense LAPACK decomposition is exact and builds the whole N x M table.
# It is cheaper than the iterative solver on small problems: smaller side at
# most _DENSE_LIMIT and at most _DENSE_CELLS cells (32 MB as float64).  Near
# full rank the iterative solver is slow, and it cannot give k = min(N, M) at
# all; there the table is no larger than the (N + M) x K singular vectors
# returned, and the dense path is taken.
_DENSE_LIMIT = 512
_DENSE_CELLS = 1 << 22


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

    def save(self, path) -> None:
        serialize.save_arrays(path, "svd-decomposition", {
            "u": self.u, "sigma": self.sigma, "v": self.v,
        })

    @classmethod
    def load(cls, path) -> "SvdDecomposition":
        arrays = serialize.load_arrays(path, "svd-decomposition", ("u", "sigma", "v"))
        try:
            return cls(arrays["u"], arrays["sigma"], arrays["v"])
        except ValueError as exc:
            raise ValueError(f"{path}: {exc}") from None


def _fix_signs(u: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Largest-magnitude entry of each v column made positive, so the
    # decomposition is deterministic up to degenerate singular values.
    for j in range(v.shape[1]):
        i = int(np.argmax(np.abs(v[:, j])))
        if v[i, j] < 0:
            v[:, j] = -v[:, j]
            u[:, j] = -u[:, j]
    return u, v


def truncated_svd(counts: CountMatrix, k: int) -> SvdDecomposition:
    """Top-K singular triplets of the count matrix.

    Uses dense LAPACK for small problems and whenever the N x M table holds
    no more cells than the N x K and M x K singular vectors, which covers
    K near min(N, M); an iterative Lanczos-style solver otherwise.
    """
    n, m = counts.n_docs, counts.n_terms
    if not 1 <= k <= min(n, m):
        raise ValueError(f"k must be in [1, {min(n, m)}], got {k}")
    if (min(n, m) <= _DENSE_LIMIT and n * m <= _DENSE_CELLS) or n * m <= (n + m) * k:
        u_full, s_full, vt_full = np.linalg.svd(counts.to_dense().astype(np.float64),
                                                full_matrices=False)
        u, s, v = u_full[:, :k], s_full[:k], vt_full[:k].T
    else:
        # fixed starting vector: the default is drawn from global random
        # state, which would break run-to-run determinism
        v0 = np.random.default_rng(0x5EED).random(min(n, m))
        u, s, vt = scipy.sparse.linalg.svds(counts.to_csr(), k=k, v0=v0)
        order = np.argsort(-s)
        u, s, v = u[:, order], s[order], vt[order].T
    u, v = _fix_signs(u.copy(), v.copy())
    return SvdDecomposition(u, s, v)


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
