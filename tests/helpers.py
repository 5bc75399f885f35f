"""Shared test helpers: random orthogonal/unitary generators, the full
covariance matrix and its block decomposition (reference objects the
library's criteria do not need), parsing `analyze` JSON back into a
report, and the one-state-at-a-time generators, `bench` loop and `sweep`
loop that the chunked library code must reproduce bit for bit."""
from dataclasses import dataclass
from functools import reduce

import numpy as np

from covmat import concurrence as conc
from covmat import criteria as crit
from covmat.cli import AnalysisReport
from covmat.concurrence import ConcurrenceBounds
from covmat.covariance import StateSummary, correlation_block
from covmat.criteria import CriterionVerdict, MultipartiteReport
from covmat.linalg import DensityMatrix, partial_trace
from covmat.observables import ObservableBasis, pad_basis
from covmat.states import mix

IMAG_TOL = 1e-10


def random_orthogonal(n, seed):
    q, r = np.linalg.qr(np.random.default_rng(seed).standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def local_unitary(dims, seed):
    rng = np.random.default_rng(seed)
    us = []
    for d in dims:
        q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        us.append(q * np.sign(np.diag(r).real))
    u = us[0]
    for w in us[1:]:
        u = np.kron(u, w)
    return u


def apply_lu(rho, seed):
    u = local_unitary(rho.dims, seed)
    return DensityMatrix(rho.dims, u @ rho.mat @ u.conj().T)


@dataclass(frozen=True, eq=False)
class CovarianceBlocks:
    """Block decomposition of the covariance matrix of a multipartite state."""

    n_parties: int
    diag: list
    cross: dict

    def block(self, i, j):
        if i == j:
            return self.diag[i]
        if i < j:
            return self.cross[(i, j)]
        return self.cross[(j, i)].T


def expectation(rho: DensityMatrix, m: np.ndarray) -> float:
    """Tr(rho M) for Hermitian M; the imaginary residue must be negligible."""
    m = np.asarray(m, dtype=complex)
    if m.shape != rho.mat.shape:
        raise ValueError(f"observable shape {m.shape} does not match state {rho.mat.shape}")
    val = complex(np.trace(rho.mat @ m))
    if abs(val.imag) > IMAG_TOL:
        raise ValueError(f"expectation has imaginary part {val.imag:.3e}")
    return val.real


def covariance_matrix(rho: DensityMatrix, ms) -> np.ndarray:
    """Symmetrized covariance matrix of a list of Hermitian observables.

    Re Tr(rho M_i M_j) equals the anticommutator average
    <M_i M_j + M_j M_i>/2 exactly for Hermitian inputs.
    """
    s = np.asarray(ms, dtype=complex)
    if s.ndim != 3 or s.shape[1] != s.shape[2]:
        raise ValueError(f"observables must be a stack of square matrices, got {s.shape}")
    if s.shape[1] != rho.total_dim:
        raise ValueError(
            f"observable dimension {s.shape[1]} does not match state dimension {rho.total_dim}"
        )
    rm = np.einsum("ij,ajk->aik", rho.mat, s)          # rho @ M_a
    second = np.einsum("aij,bji->ab", rm, s)           # Tr(rho M_a M_b)
    means = np.einsum("aii->a", rm).real
    gamma = second.real - np.outer(means, means)
    return (gamma + gamma.T) / 2


def all_blocks(rho: DensityMatrix, bases: list[ObservableBasis]) -> CovarianceBlocks:
    """All diagonal and cross blocks, with bases padded to a common length."""
    n = rho.n_parties
    if len(bases) != n:
        raise ValueError(f"need one basis per party: {n} parties, {len(bases)} bases")
    for k, b in enumerate(bases):
        if b.dim != rho.dims[k]:
            raise ValueError(f"basis {k} has dim {b.dim}, subsystem has dim {rho.dims[k]}")
    width = max(len(b) for b in bases)
    padded = [pad_basis(b, width) for b in bases]
    diag = []
    for k in range(n):
        red = rho if n == 1 else partial_trace(rho, (k,))
        diag.append(covariance_matrix(red, padded[k].elements))
    cross = {}
    for i in range(n):
        for j in range(i + 1, n):
            cross[(i, j)] = correlation_block(rho, i, j, padded[i], padded[j])
    return CovarianceBlocks(n, diag, cross)


def report_from_dict(d: dict) -> AnalysisReport:
    """Rebuild an AnalysisReport from `analyze --format json` output."""
    multi = None
    if d.get("multipartite") is not None:
        m = d["multipartite"]
        pv = {}
        for key, pair in m["pair_verdicts"].items():
            i, j = (int(p) for p in key.split(","))
            pv[(i, j)] = {k: CriterionVerdict(**v) for k, v in pair.items()}
        multi = MultipartiteReport(
            pair_verdicts=pv,
            full_sep_refuted=m["full_sep_refuted"],
            bisep_refuted=m["bisep_refuted"],
            fully_entangled=m["fully_entangled"],
        )
    bounds = ConcurrenceBounds(**d["bounds"]) if d.get("bounds") else None
    return AnalysisReport(
        state_description=d["state_description"],
        dims=list(d["dims"]),
        purities=list(d["purities"]),
        verdicts=[CriterionVerdict(**v) for v in d["verdicts"]],
        multipartite=multi,
        bounds=bounds,
        timing_ms=d["timing_ms"],
    )


def random_pure_reference(dims, seed) -> DensityMatrix:
    """One Haar-random pure state per seed, drawn as before stacks existed."""
    rng = np.random.default_rng(seed)
    D = int(np.prod(dims))
    psi = rng.standard_normal(D) + 1j * rng.standard_normal(D)
    psi = psi / np.linalg.norm(psi)
    return DensityMatrix(tuple(dims), np.outer(psi, psi.conj()))


def random_separable_reference(dims, terms, seed) -> DensityMatrix:
    """One random separable state per seed, one term and party at a time."""
    rng = np.random.default_rng(seed)
    D = int(np.prod(dims))
    acc = np.zeros((D, D), dtype=complex)
    for w in rng.dirichlet(np.ones(terms)):
        factors = []
        for d in dims:
            v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
            factors.append(v / np.linalg.norm(v))
        psi = reduce(np.kron, factors)
        acc += w * np.outer(psi, psi.conj())
    return DensityMatrix(tuple(dims), acc)


def bench_counts_reference(kind, dims, count, terms, seed, tol):
    """`bench_counts` one state at a time, each state's verdicts from the
    single-state criteria."""
    counts = {"kf": 0, "hs": 0, "ppt": 0, "ccnr": 0, "states": count}
    if len(dims) > 2:
        counts["pairwise"] = 0
    rng = np.random.default_rng(seed)
    for _ in range(count):
        sub = int(rng.integers(0, 2 ** 63))
        if kind == "separable":
            rho = random_separable_reference(dims, terms, sub)
        else:
            rho = random_pure_reference(dims, sub)
        summary = StateSummary(rho)
        if len(dims) == 2:
            for fn in (crit.kf_criterion, crit.hs_criterion, crit.ppt_criterion,
                       crit.ccnr_criterion):
                v = fn(summary, tol)
                counts[v.name] += v.conclusion == crit.ENTANGLED
        else:
            counts["pairwise"] += crit.multipartite_full_sep(summary, tol).full_sep_refuted
    return counts


def sweep_rows_reference(base, target, grid):
    """`sweep_rows` one point at a time."""
    rows = []
    for x in grid:
        s = StateSummary(mix(base, target, float(x)))
        kf, hs, ppt, ccnr = (fn(s) for fn in (crit.kf_criterion, crit.hs_criterion,
                                               crit.ppt_criterion, crit.ccnr_criterion))
        rows.append((float(x), conc.bound_ccnr_ppt(s), conc.bound_lur(s),
                     conc.bound_optimized(s), kf.margin, hs.margin,
                     ppt.details["min_eigenvalue"], ccnr.lhs))
    return rows
