"""Cross-correlation blocks of local observables and the per-state summary
the criteria and bounds read.

For per-party observable sets {M^i} of an N-party state, the covariance
matrix splits into per-party diagonal blocks and cross-correlation blocks

    (C_ij)_mn = <M_m^i x M_n^j> - <M_m^i><M_n^j> = tr(Delta_ij (M_m^i x M_n^j)),

with Delta_ij = rho_ij - rho_i x rho_j on the two-party reduced state.  In
an orthonormal product basis C_ij is a change of coordinates of the
realigned correlation part R(Delta_ij), so it is one matrix product away
from the realigned state.
"""
from __future__ import annotations

from functools import cached_property

import numpy as np

from .linalg import DensityMatrix, partial_trace, partial_transpose, realign, trace_norm
from .observables import ObservableBasis, gell_mann_basis


def _cross_block(r: np.ndarray, marg_a: np.ndarray, marg_b: np.ndarray,
                 basis_a: ObservableBasis, basis_b: ObservableBasis) -> np.ndarray:
    """The cross block from the realigned two-party state R(rho) and its
    marginals: with V_X holding vec(M^T) of each observable as a row,
    C = V_A R(Delta) V_B^T and R(Delta) = R(rho) - vec(rho_A) vec(rho_B)^T,
    O(d^6).  Zero-padded observables give zero rows."""
    r_delta = r - np.outer(marg_a.reshape(-1), marg_b.reshape(-1))
    va, vb = (b.elements.transpose(0, 2, 1).reshape(len(b), -1) for b in (basis_a, basis_b))
    return (va @ r_delta @ vb.T).real


def correlation_block(
    rho: DensityMatrix,
    i: int,
    j: int,
    basis_i: ObservableBasis,
    basis_j: ObservableBasis,
) -> np.ndarray:
    """Cross block C_mn = <M_m^i x M_n^j> - <M_m^i><M_n^j> for parties i != j.

    Works on the two-party reduced state; rows/columns from zero-padded
    observables come out zero.
    """
    if i == j:
        raise ValueError("correlation block requires two distinct parties")
    if basis_i.dim != rho.dims[i] or basis_j.dim != rho.dims[j]:
        raise ValueError("basis dimensions do not match subsystem dimensions")
    swap = i > j
    lo, hi = min(i, j), max(i, j)
    red = rho if (rho.n_parties == 2 and (lo, hi) == (0, 1)) else partial_trace(rho, (lo, hi))
    ba, bb = (basis_j, basis_i) if swap else (basis_i, basis_j)
    ma, mb = (partial_trace(red, (k,)).mat for k in (0, 1))
    block = _cross_block(realign(red), ma, mb, ba, bb)
    return block.T if swap else block


def paired_variance_sum(dims, purities, block: np.ndarray) -> float:
    """sum_i Var(A_i x I + I x B_i) over paired observables of two
    orthonormal, complete bases: sum_i Var(A_i) = d_A - tr rho_A^2 by
    completeness and Parseval, likewise for B, plus twice the paired cross
    correlations, the diagonal of the cross block.  A zero-padded
    observable pairs with nothing, so bases of unequal length need no
    special case."""
    return float(sum(d - p for d, p in zip(dims, purities)) + 2.0 * np.trace(block))


def joint_variance_sum(
    rho: DensityMatrix, basis_a: ObservableBasis, basis_b: ObservableBasis
) -> float:
    """Sum of variances of K_i = G_i^A x I + I x G_i^B over paired observables.

    Bases of unequal length are zero-padded to match before pairing.
    """
    if rho.n_parties != 2:
        raise ValueError("joint variance sum requires a bipartite state")
    purities = [partial_trace(rho, (k,)).purity() for k in (0, 1)]
    block = correlation_block(rho, 0, 1, basis_a, basis_b)
    return paired_variance_sum(rho.dims, purities, block)


class StateSummary:
    """The matrices every criterion and bound reads, each computed at most once.

    Per party: the marginal rho_k and its purity.  Per pair of parties
    i < j: the Gell-Mann cross block C_ij and its singular values.
    Bipartite states also give the realigned state R(rho), shared by C and
    the realignment criterion, and the spectrum of rho^(T_A).  Everything
    past the marginals is computed on first use and kept, so every
    criterion and bound evaluated on one summary shares a single pass over
    these matrices, and the pairwise multipartite test computes only the
    blocks it reads.
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
    def realign_norm(self) -> float:
        return trace_norm(self.realigned)

    @cached_property
    def pt_spectrum(self) -> np.ndarray:
        """Eigenvalues of rho^(T_A), ascending."""
        pt = partial_transpose(self.state, 0)
        return np.linalg.eigvalsh((pt + pt.conj().T) / 2)

    def pair(self, i: int = 0, j: int = 1) -> tuple[np.ndarray, np.ndarray]:
        """The Gell-Mann cross block of parties i < j and its singular values."""
        if (i, j) not in self._pairs:
            if len(self.dims) == 2:
                r = self.realigned
            else:
                r = realign(partial_trace(self.state, (i, j)))
            block = _cross_block(r, self.marginals[i].mat, self.marginals[j].mat,
                                 gell_mann_basis(self.dims[i]), gell_mann_basis(self.dims[j]))
            self._pairs[(i, j)] = block, np.linalg.svd(block, compute_uv=False)
        return self._pairs[(i, j)]


StateLike = DensityMatrix | StateSummary


def summarize(rho: StateLike, bipartite_for: str | None = None) -> StateSummary:
    """The summary of a state, or the given summary itself.  With
    `bipartite_for` naming the caller, anything but two parties is rejected."""
    s = rho if isinstance(rho, StateSummary) else StateSummary(rho)
    if bipartite_for and len(s.dims) != 2:
        raise ValueError(f"{bipartite_for} requires a bipartite state, got {len(s.dims)} parties")
    return s
