"""The per-state summary every criterion and bound reads, and the
cross-correlation blocks of local observables built from it.

For per-party observable sets {M^i} of an N-party state, the covariance
matrix splits into per-party diagonal blocks and cross-correlation blocks

    (C_ij)_mn = <M_m^i x M_n^j> - <M_m^i><M_n^j>.

`StateSummary` forms, for each pair of parties i < j, one real matrix: the
correlations T_gh = <G_g x G_h> of the two local Gell-Mann bases.  T is a
unitary change of coordinates of the realigned reduced state R(rho_ij).
Since G_0 = I/sqrt(d), T's first column and first row hold the two
marginals' Gell-Mann coordinates, so the Gell-Mann cross block C is T
minus one outer product.  The block in any other orthonormal bases is C
in those coordinates, W_i C W_j^T.  A summary of a stack of states carries
the stack's leading axes on every quantity, so one summary serves a whole
chunk of states.
"""
from __future__ import annotations

from itertools import combinations

import numpy as np

from .linalg import DensityMatrix, partial_trace, partial_transpose, realign
from .observables import ObservableBasis, gell_mann_basis


def _rows(basis: ObservableBasis) -> np.ndarray:
    """vec(M^T) of each observable M as a row, so that the correlations
    <M_m x M'_n> of a state are (rows R(rho) rows'^T)_mn."""
    return basis.elements.transpose(0, 2, 1).reshape(len(basis), -1)


def _coordinates(basis: ObservableBasis) -> np.ndarray:
    """W_mg = tr(M_m G_g): each observable's Gell-Mann coordinates as a row;
    a zero-padded observable gives a zero row."""
    return (_rows(basis) @ _rows(gell_mann_basis(basis.dim)).conj().T).real


class StateSummary:
    """Every matrix and decomposition the criteria and bounds read, all
    computed on construction.

    Per party: the marginal rho_k and its purity.  Per pair of parties
    i < j, `pairs[i, j]`: the Gell-Mann cross block C_ij and its singular
    values.  Bipartite states also give ||R(rho)||_KF as `realign_norm`,
    the sum of the singular values of the real T, and the spectrum of
    rho^(T_A), ascending, as `pt_spectrum`; both are None for more
    parties.  For a stack of states every quantity has the stack's leading
    axes.
    """

    def __init__(self, rho: DensityMatrix):
        self.state, self.dims = rho, rho.dims
        self.marginals = [partial_trace(rho, (k,)) for k in range(rho.n_parties)]
        self.purities = [m.purity() for m in self.marginals]
        self.realign_norm = self.pt_spectrum = None
        self.pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}
        bipartite = rho.n_parties == 2
        for i, j in combinations(range(rho.n_parties), 2):
            di, dj = self.dims[i], self.dims[j]
            r = realign(rho if bipartite else partial_trace(rho, (i, j)))
            t = (_rows(gell_mann_basis(di)) @ r @ _rows(gell_mann_basis(dj)).T).real
            del r  # freed before the SVDs, which lowers peak memory on large states
            c = t - np.sqrt(di * dj) * t[..., :, :1] * t[..., :1, :]
            self.pairs[i, j] = c, np.linalg.svd(c, compute_uv=False)
            if bipartite:
                self.realign_norm = np.linalg.svd(t, compute_uv=False).sum(axis=-1)
        if bipartite:
            pt = partial_transpose(rho, 0)
            self.pt_spectrum = np.linalg.eigvalsh((pt + pt.conj().swapaxes(-2, -1)) / 2)

    def variance_sum(self, block: np.ndarray):
        """sum_i Var(A_i x I + I x B_i) over paired observables of two
        orthonormal, complete bases whose cross block is `block`:
        sum_i Var(A_i) = d_A - tr rho_A^2 by completeness and Parseval,
        likewise for B, plus twice the paired cross correlations, the
        diagonal of the block.  A zero-padded observable pairs with
        nothing, so bases of unequal length need no special case."""
        return (sum(d - p for d, p in zip(self.dims, self.purities))
                + 2.0 * np.trace(block, axis1=-2, axis2=-1))


StateLike = DensityMatrix | StateSummary


def summarize(rho: StateLike, bipartite_for: str | None = None) -> StateSummary:
    """The summary of a state, or the given summary itself.  With
    `bipartite_for` naming the caller, anything but two parties is rejected."""
    s = rho if isinstance(rho, StateSummary) else StateSummary(rho)
    if bipartite_for and len(s.dims) != 2:
        raise ValueError(f"{bipartite_for} requires a bipartite state, got {len(s.dims)} parties")
    return s


def correlation_block(
    rho: StateLike,
    i: int,
    j: int,
    basis_i: ObservableBasis,
    basis_j: ObservableBasis,
) -> np.ndarray:
    """Cross block C_mn = <M_m^i x M_n^j> - <M_m^i><M_n^j> for parties i != j,
    the summary's Gell-Mann block W_i C W_j^T in the given bases' coordinates;
    rows/columns from zero-padded observables come out zero."""
    if i == j:
        raise ValueError("correlation block requires two distinct parties")
    if basis_i.dim != rho.dims[i] or basis_j.dim != rho.dims[j]:
        raise ValueError("basis dimensions do not match subsystem dimensions")
    s = summarize(rho)
    block = s.pairs[i, j][0] if i < j else s.pairs[j, i][0].swapaxes(-2, -1)
    return _coordinates(basis_i) @ block @ _coordinates(basis_j).T


def joint_variance_sum(
    rho: StateLike, basis_a: ObservableBasis, basis_b: ObservableBasis
) -> float:
    """Sum of variances of K_i = G_i^A x I + I x G_i^B over paired observables.

    Bases of unequal length pair as if the shorter were zero-padded.
    """
    s = summarize(rho, "joint variance sum")
    return s.variance_sum(correlation_block(s, 0, 1, basis_a, basis_b))
