"""Separability criteria and structured verdicts.

Every criterion is a necessary condition for (full or partial)
separability: a violated inequality certifies entanglement, a satisfied
one is inconclusive.  Bipartite criteria compare norms of the
cross-correlation block C against linear-entropy factors 1 - tr(rho_i^2);
PPT and CCNR are included as baselines.  Each criterion takes a state or
its `StateSummary` and reads closed forms off the summary.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .covariance import StateLike, StateSummary, summarize

DECISION_TOL = 1e-9

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
BOUNDARY = "BOUNDARY"

TRIPARTITE_PARTITIONS = ("A|BC", "AB|C", "AC|B")

# Pairs whose cross blocks a biseparable state still constrains:
# the block between the split-off party and anything else is zero, so only
# the listed inequalities survive the concavity argument.
_BISEP_PAIRS = {
    "A|BC": ((0, 1), (0, 2)),
    "AB|C": ((0, 2), (1, 2)),
    "AC|B": ((0, 1), (1, 2)),
}


@dataclass(frozen=True)
class CriterionVerdict:
    """One evaluated inequality.  ENTANGLED iff lhs exceeds rhs beyond
    the decision tolerance; BOUNDARY when the margin is within it."""

    name: str
    lhs: float
    rhs: float
    margin: float
    conclusion: str
    details: dict = field(default_factory=dict)


@dataclass(frozen=True)
class MultipartiteReport:
    """Aggregated pairwise verdicts for an N-party state."""

    pair_verdicts: dict[tuple[int, int], dict[str, CriterionVerdict]]
    full_sep_refuted: bool
    bisep_refuted: dict[str, bool]
    fully_entangled: bool


def make_verdict(name, lhs, rhs, tol=DECISION_TOL, details=None) -> CriterionVerdict:
    margin = lhs - rhs
    if margin > tol:
        conclusion = ENTANGLED
    elif abs(margin) <= tol:
        conclusion = BOUNDARY
    else:
        conclusion = INCONCLUSIVE
    return CriterionVerdict(name, float(lhs), float(rhs), float(margin), conclusion,
                            details or {})


def _kf(s: StateSummary, i: int, j: int, tol: float, name: str,
        details: dict | None = None) -> CriterionVerdict:
    """||C_ij||_KF <= ((1 - tr rho_i^2) + (1 - tr rho_j^2)) / 2."""
    ei, ej = 1.0 - s.purities[i], 1.0 - s.purities[j]
    return make_verdict(name, s.pair(i, j)[1].sum(), (ei + ej) / 2, tol, details)


def _hs(s: StateSummary, i: int, j: int, tol: float, name: str) -> CriterionVerdict:
    """||C_ij||_HS^2 <= (1 - tr rho_i^2)(1 - tr rho_j^2)."""
    ei, ej = 1.0 - s.purities[i], 1.0 - s.purities[j]
    return make_verdict(name, (s.pair(i, j)[1] ** 2).sum(), ei * ej, tol)


def kf_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Trace-norm criterion: ||C||_KF <= ((1-tr rho_A^2) + (1-tr rho_B^2)) / 2.

    The sum of |C_ii| in the plain Gell-Mann basis (its basis-dependent
    precursor) is reported in details.
    """
    s = summarize(rho, "trace-norm criterion")
    diag_abs_sum = float(np.abs(np.diagonal(s.pair()[0])).sum())
    return _kf(s, 0, 1, tol, "kf", details={"diag_abs_sum": diag_abs_sum})


def hs_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Frobenius criterion: ||C||_HS^2 <= (1-tr rho_A^2)(1-tr rho_B^2)."""
    return _hs(summarize(rho, "Frobenius criterion"), 0, 1, tol, "hs")


def ppt_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Positive partial transpose baseline; lhs is minus the smallest
    eigenvalue of rho^(T_A)."""
    lam = float(summarize(rho, "PPT criterion").pt_spectrum[0])
    return make_verdict("ppt", -lam, 0.0, tol, details={"min_eigenvalue": lam})


def ccnr_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Realignment baseline: trace norm of the reshuffled state vs 1."""
    return make_verdict("ccnr", summarize(rho, "CCNR criterion").realign_norm, 1.0, tol)


def _report(s: StateSummary, pairs, tol: float, partition: str | None = None
            ) -> MultipartiteReport:
    """Both norm inequalities on every listed pair.  A violation refutes full
    separability, and the partition when one is named."""
    verdicts = {(i, j): {"hs": _hs(s, i, j, tol, f"hs_{i}{j}"),
                         "kf": _kf(s, i, j, tol, f"kf_{i}{j}")} for (i, j) in pairs}
    hs_v, kf_v = (sum(v[k].conclusion == ENTANGLED for v in verdicts.values())
                  for k in ("hs", "kf"))
    refuted = hs_v + kf_v > 0
    return MultipartiteReport(
        pair_verdicts=verdicts,
        full_sep_refuted=refuted,
        bisep_refuted={partition: refuted} if partition else {},
        fully_entangled=hs_v >= 2 or kf_v >= 2,
    )


def multipartite_full_sep(rho: StateLike, tol: float = DECISION_TOL) -> MultipartiteReport:
    """Full-separability test for N >= 2 parties: every cross block must
    obey both norm inequalities.  `fully_entangled` is set when one norm
    family is violated on two or more pairs.  For three parties any two
    pairs cross every bipartite cut, so then no cut is separable; for four
    or more it only counts violations: Phi+ x Phi+ on 2x2x2x2 sets it,
    yet is a product across {0,1}|{2,3}."""
    s = summarize(rho)
    n = len(s.dims)
    if n < 2:
        raise ValueError(f"full separability test requires at least two parties, got {n}")
    return _report(s, [(i, j) for i in range(n) for j in range(i + 1, n)], tol)


def tripartite_full_sep(rho: StateLike, tol: float = DECISION_TOL) -> MultipartiteReport:
    """All six cross-block inequalities (blocks D, E, F; both norms)."""
    s = summarize(rho)
    if len(s.dims) != 3:
        raise ValueError(f"tripartite test requires 3 parties, got {len(s.dims)}")
    return multipartite_full_sep(s, tol)


def tripartite_bisep(
    rho: StateLike, partition: str, tol: float = DECISION_TOL
) -> MultipartiteReport:
    """Test biseparability across one partition; only the four
    inequalities that partition implies are evaluated."""
    s = summarize(rho)
    if len(s.dims) != 3:
        raise ValueError(f"biseparability test requires 3 parties, got {len(s.dims)}")
    if partition not in _BISEP_PAIRS:
        raise ValueError(f"unknown partition {partition!r}, expected one of {TRIPARTITE_PARTITIONS}")
    return _report(s, _BISEP_PAIRS[partition], tol, partition)
