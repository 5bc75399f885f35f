"""Concurrence: exact values for pure states and three lower bounds for
mixed states.

The bounds, from weakest to strongest on the bound entangled benchmark:
a PPT/realignment bound, a local-uncertainty bound depending on the
observable basis, and its basis-free envelope obtained by absorbing the
basis optimization into the trace norm of the cross-correlation block.
Raw bound values may be negative; only the `best` aggregate clamps at 0.
Each bound formula is written once, on arrays: given a summary of a stack
of states it returns one value per state.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .covariance import StateLike, StateSummary, correlation_block, summarize
from .linalg import partial_trace
from .observables import ObservableBasis, gell_mann_basis, rotate_basis
from .states import dm_from_vector


@dataclass(frozen=True)
class ConcurrenceBounds:
    """The three lower bounds.

    m, n: local dimensions with m <= n; `swapped` records whether the
    parties were reordered to achieve that.
    """

    m: int
    n: int
    bound_ccnr_ppt: float
    bound_lur: float
    bound_optimized: float
    swapped: bool = False

    @property
    def best(self) -> float:
        return max(0.0, self.bound_ccnr_ppt, self.bound_lur, self.bound_optimized)


def _mn(s: StateSummary) -> tuple[int, int]:
    return min(s.dims), max(s.dims)


def pure_concurrence(psi: np.ndarray, dims) -> float:
    """sqrt(2 (1 - tr rho_A^2)) for a normalized bipartite state vector."""
    rho = dm_from_vector(psi, dims)
    if rho.n_parties != 2:
        raise ValueError(f"concurrence bounds require a bipartite state, got {rho.n_parties}")
    pa = partial_trace(rho, (0,)).purity()
    return float(np.sqrt(max(0.0, 2.0 * (1.0 - pa))))


def bound_ccnr_ppt(rho: StateLike):
    """sqrt(2/(M(M-1))) * (max(||rho^T_A||, ||R(rho)||) - 1), M the
    smaller local dimension.  Both norms are invariant under swapping the
    parties, so no physical reordering is needed; the trace norm of the
    Hermitian rho^T_A is the sum of its absolute eigenvalues."""
    s = summarize(rho, "concurrence bounds")
    m, _ = _mn(s)
    biggest = np.maximum(np.abs(s.pt_spectrum).sum(axis=-1), s.realign_norm)
    return np.sqrt(2.0 / (m * (m - 1))) * (biggest - 1.0)


def bound_lur(
    rho: StateLike,
    basis_a: ObservableBasis | None = None,
    basis_b: ObservableBasis | None = None,
):
    """(M + N - 2 - sum_i Var(G_i^A x I + I x G_i^B)) / sqrt(2M(M-1)).

    Defaults to the Gell-Mann bases; the value depends on that choice.
    """
    s = summarize(rho, "concurrence bounds")
    m, n = _mn(s)
    if basis_a is None and basis_b is None:
        block = s.pairs[0, 1][0]
    else:
        block = correlation_block(s, 0, 1, basis_a or gell_mann_basis(s.dims[0]),
                                  basis_b or gell_mann_basis(s.dims[1]))
    return (m + n - 2.0 - s.variance_sum(block)) / np.sqrt(2.0 * m * (m - 1))


def bound_optimized(rho: StateLike):
    """(2 ||C||_KF - (1 - tr rho_A^2) - (1 - tr rho_B^2)) / sqrt(2M(M-1)).

    The trace norm of the cross block already is the basis optimum (the
    singular value decomposition closes the search), so no basis argument
    exists.
    """
    s = summarize(rho, "concurrence bounds")
    m, _ = _mn(s)
    ea, eb = (1.0 - p for p in s.purities)
    return (2.0 * s.pairs[0, 1][1].sum(axis=-1) - ea - eb) / np.sqrt(2.0 * m * (m - 1))


def svd_rotated_bases(rho: StateLike) -> tuple[ObservableBasis, ObservableBasis]:
    """Observable bases that attain the basis optimum of the variance bound.

    Rotates the Gell-Mann bases by the singular vectors of the cross
    block (with a sign flip on one side), making the paired cross
    correlations sum to minus the trace norm; bound_lur in these bases
    equals bound_optimized.  Equal local dimensions only.
    """
    s = summarize(rho, "concurrence bounds")
    if s.dims[0] != s.dims[1]:
        raise ValueError("rotated-basis construction requires equal local dimensions")
    u, _, vt = np.linalg.svd(s.pairs[0, 1][0])
    basis = gell_mann_basis(s.dims[0])
    return rotate_basis(basis, u.T), rotate_basis(basis, -vt)


def all_bounds(rho: StateLike) -> ConcurrenceBounds:
    """Evaluate every bound."""
    s = summarize(rho, "concurrence bounds")
    m, n = _mn(s)
    return ConcurrenceBounds(
        m=m,
        n=n,
        bound_ccnr_ppt=float(bound_ccnr_ppt(s)),
        bound_lur=float(bound_lur(s)),
        bound_optimized=float(bound_optimized(s)),
        swapped=s.dims[0] > s.dims[1],
    )
