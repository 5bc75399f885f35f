"""The per-state summary every criterion and bound reads, and the
cross-correlation blocks of local observables built from it.

For per-party observable sets {M^i} of an N-party state, the covariance
matrix splits into per-party diagonal blocks and cross-correlation blocks

    (C_ij)_mn = <M_m^i x M_n^j> - <M_m^i><M_n^j> = tr(Delta_ij (M_m^i x M_n^j)),

with Delta_ij = rho_ij - rho_i x rho_j on the two-party reduced state.  In
an orthonormal product basis C_ij is a change of coordinates of the
realigned correlation part R(Delta_ij), so it is one matrix product away
from the realigned state.  `StateSummary` derives R(Delta_ij) and the
marginals once; the block in any basis and the variance sum are closed
forms on them.  A summary of a stack of states carries the stack's leading
axes on every quantity, so one summary serves a whole chunk of states.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import DensityMatrix, partial_trace, partial_transpose, realign, trace_norm
from .observables import ObservableBasis, gell_mann_basis


def _cross_block(r_delta: np.ndarray, basis_a: ObservableBasis,
                 basis_b: ObservableBasis) -> np.ndarray:
    """C = V_A R(Delta) V_B^T, with V_X holding vec(M^T) of each observable
    as a row, O(d^6).  Zero-padded observables give zero rows."""
    va, vb = (b.elements.transpose(0, 2, 1).reshape(len(b), -1) for b in (basis_a, basis_b))
    return (va @ r_delta @ vb.T).real


class StateSummary:
    """The matrices every criterion and bound reads, each computed at most once.

    Per party: the marginal rho_k and its purity.  Per pair of parties
    i < j: R(Delta_ij), and the Gell-Mann cross block C_ij with its
    singular values.  Bipartite states also give the realigned state R(rho),
    shared by R(Delta) and the realignment criterion, and the spectrum of
    rho^(T_A).  Everything past the marginals is computed on first use and
    kept, so every criterion and bound evaluated on one summary shares a
    single pass over these matrices, and the pairwise multipartite test
    computes only the blocks it reads.  For a stack of states every
    quantity has the stack's leading axes.
    """

    def __init__(self, rho: DensityMatrix):
        self.state, self.dims = rho, rho.dims
        self.marginals = [partial_trace(rho, (k,)) for k in range(rho.n_parties)]
        self.purities = [m.purity() for m in self.marginals]
        self._pairs: dict[tuple[int, int], tuple[np.ndarray, np.ndarray]] = {}

    @cached_property
    def realigned(self) -> np.ndarray:
        return realign(self.state)

    @cached_property
    def realign_norm(self):
        return trace_norm(self.realigned)

    @cached_property
    def pt_spectrum(self) -> np.ndarray:
        """Eigenvalues of rho^(T_A), ascending."""
        pt = partial_transpose(self.state, 0)
        return np.linalg.eigvalsh((pt + pt.conj().swapaxes(-2, -1)) / 2)

    def delta(self, i: int = 0, j: int = 1) -> np.ndarray:
        """R(rho_ij - rho_i x rho_j) = R(rho_ij) - vec(rho_i) vec(rho_j)^T
        for parties i < j; R(rho_ij) is R(rho) for a bipartite state."""
        r = self.realigned if len(self.dims) == 2 else realign(partial_trace(self.state, (i, j)))
        vec_i, vec_j = (self.marginals[k].mat.reshape(r.shape[:-2] + (-1,)) for k in (i, j))
        return r - vec_i[..., :, None] * vec_j[..., None, :]

    def pair(self, i: int = 0, j: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The Gell-Mann cross block of parties i < j and its singular values."""
        if (i, j) not in self._pairs:
            block = _cross_block(self.delta(i, j), gell_mann_basis(self.dims[i]),
                                 gell_mann_basis(self.dims[j]))
            self._pairs[(i, j)] = block, np.linalg.svd(block, compute_uv=False)
        return self._pairs[(i, j)]

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
    read off the summary's R(Delta_ij); rows/columns from zero-padded
    observables come out zero."""
    if i == j:
        raise ValueError("correlation block requires two distinct parties")
    if basis_i.dim != rho.dims[i] or basis_j.dim != rho.dims[j]:
        raise ValueError("basis dimensions do not match subsystem dimensions")
    s = summarize(rho)
    if i > j:
        return _cross_block(s.delta(j, i), basis_j, basis_i).swapaxes(-2, -1)
    return _cross_block(s.delta(i, j), basis_i, basis_j)


def joint_variance_sum(
    rho: StateLike, basis_a: ObservableBasis, basis_b: ObservableBasis
) -> float:
    """Sum of variances of K_i = G_i^A x I + I x G_i^B over paired observables.

    Bases of unequal length pair as if the shorter were zero-padded.
    """
    s = summarize(rho, "joint variance sum")
    return s.variance_sum(correlation_block(s, 0, 1, basis_a, basis_b))
