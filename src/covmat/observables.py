"""Orthonormal local observable bases.

The workhorse is the generalized Gell-Mann construction: for a d-level
system it yields d^2 Hermitian matrices, orthonormal under the
Hilbert-Schmidt inner product, whose squares sum to d * I.  Bases can be
zero-padded (for parties of unequal dimension) and mixed by real
orthogonal rotations.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

ORTHO_TOL = 1e-12
COMPLETENESS_TOL = 1e-10
ROTATION_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class ObservableBasis:
    """An orthonormal set of Hermitian observables on one subsystem.

    dim:      local dimension d.
    elements: array of shape (k, d, d) with k >= d^2; the first d^2
              entries are orthonormal, any extras are exact zeros.
    """

    dim: int
    elements: np.ndarray

    def __post_init__(self):
        d = int(self.dim)
        el = np.asarray(self.elements, dtype=complex)
        object.__setattr__(self, "dim", d)
        object.__setattr__(self, "elements", el)
        if el.ndim != 3 or el.shape[1:] != (d, d):
            raise ValueError(f"elements must have shape (k, {d}, {d}), got {el.shape}")
        k = el.shape[0]
        if k < d * d:
            raise ValueError(f"need at least d^2={d*d} elements, got {k}")
        if np.abs(el - el.conj().transpose(0, 2, 1)).max() > ORTHO_TOL:
            raise ValueError("basis elements must be Hermitian")
        core = el[: d * d]
        gram = np.einsum("aij,bji->ab", core, core).real
        if np.abs(gram - np.eye(d * d)).max() > ORTHO_TOL:
            raise ValueError("first d^2 elements must satisfy tr(l_a l_b) = delta_ab")
        comp = np.einsum("aij,ajk->ik", core, core)
        if np.abs(comp - d * np.eye(d)).max() > COMPLETENESS_TOL:
            raise ValueError("completeness sum of squares must equal d * I")
        if k > d * d and np.abs(el[d * d:]).max() != 0.0:
            raise ValueError("padding elements beyond d^2 must be exactly zero")

    def __len__(self) -> int:
        return self.elements.shape[0]


@lru_cache(maxsize=None)
def gell_mann_basis(d: int) -> ObservableBasis:
    """Generalized Gell-Mann basis for a d-level system, d^2 elements.

    Order: normalized identity I/sqrt(d) first, then symmetric
    off-diagonal pairs (j<k ascending), then antisymmetric pairs, then
    the d-1 diagonal generators.  Every element has tr(l^2) = 1; for d=2
    this is the Pauli basis divided by sqrt(2).
    """
    if d < 2:
        raise ValueError(f"dimension must be >= 2, got {d}")
    mats = [np.eye(d, dtype=complex) / np.sqrt(d)]
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = m[k, j] = 1 / np.sqrt(2)
            mats.append(m)
    for j in range(d):
        for k in range(j + 1, d):
            m = np.zeros((d, d), dtype=complex)
            m[j, k] = -1j / np.sqrt(2)
            m[k, j] = 1j / np.sqrt(2)
            mats.append(m)
    for l in range(1, d):
        diag = np.zeros(d)
        diag[:l] = 1.0
        diag[l] = -l
        mats.append(np.diag(diag).astype(complex) / np.sqrt(l * (l + 1)))
    return ObservableBasis(d, np.array(mats))


def pad_basis(basis: ObservableBasis, target: int) -> ObservableBasis:
    """Append zero observables up to `target` elements."""
    d2 = basis.dim * basis.dim
    if target < d2:
        raise ValueError(f"target {target} smaller than d^2={d2}")
    if target == len(basis):
        return basis
    if target < len(basis):
        raise ValueError(f"target {target} smaller than current count {len(basis)}")
    zeros = np.zeros((target - len(basis), basis.dim, basis.dim), dtype=complex)
    return ObservableBasis(basis.dim, np.concatenate([basis.elements, zeros]))


def rotate_basis(basis: ObservableBasis, u: np.ndarray) -> ObservableBasis:
    """Mix basis elements by a real orthogonal matrix: l_i -> sum_l u_il l_l.

    Orthonormality and the completeness identity are preserved.  Only
    unpadded bases can be rotated (mixing would smear the zero padding).
    """
    d2 = basis.dim * basis.dim
    if len(basis) != d2:
        raise ValueError("cannot rotate a padded basis")
    u = np.asarray(u, dtype=float)
    if u.shape != (d2, d2):
        raise ValueError(f"rotation must be {d2}x{d2}, got {u.shape}")
    if np.abs(u @ u.T - np.eye(d2)).max() > ROTATION_TOL:
        raise ValueError("rotation matrix is not orthogonal")
    d = basis.dim
    return ObservableBasis(d, (u @ basis.elements.reshape(d2, d * d)).reshape(d2, d, d))
