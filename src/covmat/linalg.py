"""Dense complex-matrix primitives: partial trace, partial transpose,
realignment, matrix norms and extremal eigenvalues.

All operations are pure; density matrices are validated once, where they
enter the program, and treated as immutable afterwards.  States derived
from a validated one (reduced states) skip the check.  A `DensityMatrix`
holds one state or a stack of states with leading batch axes; every
operation here acts on the last two axes, so a stack is one call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce
from typing import Iterable

import numpy as np

HERM_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
# Validation takes the Hermitian residual over blocks of rows this size, so
# that its temporaries stay small next to the matrix.
ROW_BLOCK_BYTES = 64 * 1024


class InvalidStateError(ValueError):
    """Raised when a matrix fails a density-matrix invariant."""


class InvalidSubsystemError(ValueError):
    """Raised for out-of-range or otherwise unusable subsystem indices."""


def _require(ok: np.ndarray, message) -> None:
    """Raise `message(k)` for the first member k where `ok` is False; for a
    stack the message also names that member."""
    if ok.all():
        return
    k = np.unravel_index(np.argmin(ok), ok.shape)
    text = message(k)
    if ok.ndim:
        text += f" (stack member {int(k[0]) if ok.ndim == 1 else tuple(map(int, k))})"
    raise InvalidStateError(text)


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A multipartite quantum state, or a stack of them, with declared
    subsystem dimensions.

    dims: ordered subsystem dimensions, each >= 2.
    mat:  (*batch, D, D) complex array, D = prod(dims), batch empty for one
          state; each member Hermitian, unit trace, positive semidefinite
          (each within tolerance).
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        dims = tuple(map(int, self.dims))
        object.__setattr__(self, "dims", dims)
        if not dims or min(dims) < 2:
            raise InvalidStateError(f"subsystem dimensions must be >= 2, got {dims}")
        mat = np.asarray(self.mat, dtype=complex)
        object.__setattr__(self, "mat", mat)
        D = math.prod(dims)
        if mat.shape[-2:] != (D, D):
            raise InvalidStateError(
                f"matrix shape {mat.shape} does not match dims {dims} (D={D})"
            )
        _require(np.isfinite(mat).all(axis=(-2, -1)),
                 lambda k: "matrix has non-finite entries (NaN or infinity)")
        # One matrix-sized buffer serves every check: rho^dag for the
        # Hermitian residual, taken a block of rows at a time, then
        # (rho + rho^dag)/2 shifted by PSD_TOL on its diagonal.
        buf = np.conjugate(mat.swapaxes(-2, -1), out=np.empty(mat.shape, dtype=complex))
        rows = max(1, ROW_BLOCK_BYTES * D // max(1, mat.nbytes))
        herm_res = reduce(np.maximum, (np.abs(mat[..., i:i + rows, :] - buf[..., i:i + rows, :])
                                       .max(axis=(-2, -1)) for i in range(0, D, rows)))
        _require(herm_res <= HERM_TOL, lambda k: f"not Hermitian: residual {herm_res[k]:.3e}")
        tr_res = np.abs(np.trace(mat, axis1=-2, axis2=-1) - 1.0)
        _require(tr_res <= TRACE_TOL, lambda k: f"trace differs from 1 by {tr_res[k]:.3e}")
        # Every member's min eigenvalue is above -PSD_TOL iff the shifted
        # stack has a Cholesky factor; only without one does eigvalsh decide
        # and name the member and its eigenvalue.
        buf += mat
        buf /= 2
        buf.reshape(mat.shape[:-2] + (D * D,))[..., ::D + 1] += PSD_TOL
        try:
            np.linalg.cholesky(buf)
        except np.linalg.LinAlgError:
            np.conjugate(mat.swapaxes(-2, -1), out=buf)
            buf += mat
            buf /= 2
            min_eig = np.linalg.eigvalsh(buf)[..., 0]
            _require(min_eig >= -PSD_TOL,
                     lambda k: f"not positive semidefinite: min eigenvalue {min_eig[k]:.3e}")

    @classmethod
    def _derived(cls, dims: tuple[int, ...], mat: np.ndarray) -> "DensityMatrix":
        """Wrap a matrix computed from a validated state, without re-validating."""
        rho = object.__new__(cls)
        object.__setattr__(rho, "dims", dims)
        object.__setattr__(rho, "mat", mat)
        return rho

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    @property
    def n_parties(self) -> int:
        return len(self.dims)

    def purity(self):
        """tr rho^2, per member of a stack."""
        return np.real(np.trace(self.mat @ self.mat, axis1=-2, axis2=-1))


def _check_subsystems(rho: DensityMatrix, keep: Iterable[int]) -> tuple[int, ...]:
    keep = tuple(sorted(set(int(k) for k in keep)))
    n = rho.n_parties
    if not keep:
        raise InvalidSubsystemError("keep set must be nonempty")
    if any(k < 0 or k >= n for k in keep):
        raise InvalidSubsystemError(f"subsystem index out of range for {n} parties: {keep}")
    return keep


def partial_trace(rho: DensityMatrix, keep: Iterable[int]) -> DensityMatrix:
    """Trace out every subsystem not in `keep`, preserving their order."""
    keep = _check_subsystems(rho, keep)
    n = rho.n_parties
    batch = rho.mat.shape[:-2]
    t = rho.mat.reshape(batch + rho.dims + rho.dims)
    # Row axis i gets label i; column axis gets the same label when traced out.
    row = list(range(n))
    col = [i if i not in keep else i + n for i in range(n)]
    out = list(keep) + [k + n for k in keep]
    reduced = np.einsum(t, [..., *row, *col], [..., *out])
    d_keep = tuple(rho.dims[k] for k in keep)
    D = int(np.prod(d_keep))
    return DensityMatrix._derived(d_keep, reduced.reshape(batch + (D, D)))


def _bipartite_tensor(rho: DensityMatrix, operation: str) -> np.ndarray:
    """The (*batch, m, n, m, n) tensor of a bipartite M x N state."""
    if rho.n_parties != 2:
        raise InvalidSubsystemError(
            f"{operation} needs a bipartite state, got {rho.n_parties} parties"
        )
    return rho.mat.reshape(rho.mat.shape[:-2] + rho.dims * 2)


def partial_transpose(rho: DensityMatrix, subsystem: int = 0) -> np.ndarray:
    """Transpose the indices of one tensor factor of a bipartite state."""
    t = _bipartite_tensor(rho, "partial transpose")
    if subsystem not in (0, 1):
        raise InvalidSubsystemError(f"subsystem must be 0 or 1, got {subsystem}")
    # indices (i, j, k, l): swap i with k for the first party, j with l for the second
    t = t.swapaxes(-4, -2) if subsystem == 0 else t.swapaxes(-3, -1)
    return t.reshape(rho.mat.shape)


def realign(rho: DensityMatrix) -> np.ndarray:
    """Reshuffle a bipartite M x N state into an M^2 x N^2 matrix.

    Convention: R[(i,k),(j,l)] = rho[(i,j),(k,l)], so the row index
    combines the first party's row and column indices.  For a product
    state this is the outer product vec(rho_A) vec(rho_B)^T.
    """
    t = _bipartite_tensor(rho, "realignment")      # indices (i, j, k, l)
    m, n = rho.dims
    return t.swapaxes(-3, -2).reshape(rho.mat.shape[:-2] + (m * m, n * n))


def trace_norm(m: np.ndarray):
    """Ky Fan (trace) norm: sum of singular values, per matrix of a stack."""
    return np.linalg.svd(np.asarray(m, dtype=complex), compute_uv=False).sum(axis=-1)


def min_eigenvalue(h: np.ndarray, herm_tol: float = HERM_TOL) -> float:
    """Smallest eigenvalue of a Hermitian matrix."""
    h = np.asarray(h, dtype=complex)
    res = np.abs(h - h.conj().T).max()
    if res > herm_tol:
        raise InvalidStateError(f"matrix not Hermitian: residual {res:.3e}")
    return float(np.linalg.eigvalsh((h + h.conj().T) / 2).min())
