"""Separability criteria and structured verdicts.

Every criterion is a necessary condition for (full or partial)
separability: a violated inequality certifies entanglement, a satisfied
one is inconclusive.  Bipartite criteria compare norms of the
cross-correlation block C against linear-entropy factors 1 - tr(rho_i^2);
PPT and CCNR are included as baselines.  Each criterion takes a state or
its `StateSummary` and reads closed forms off the summary.  Each
inequality's two sides are written once, on arrays (`kf_sides`, ...), so
the same formulas decide one state or a whole stack (`detections`).
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .covariance import StateLike, StateSummary, summarize

DECISION_TOL = 1e-9

ENTANGLED = "ENTANGLED"
INCONCLUSIVE = "INCONCLUSIVE"
BOUNDARY = "BOUNDARY"

TRIPARTITE_PARTITIONS = ("A|BC", "AB|C", "AC|B")


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


def violates(margin, tol: float = DECISION_TOL):
    """The ENTANGLED rule, elementwise on a stack: the margin lhs - rhs
    exceeds the tolerance."""
    return margin > tol


def make_verdict(name, lhs, rhs, tol=DECISION_TOL, details=None) -> CriterionVerdict:
    margin = lhs - rhs
    if violates(margin, tol):
        conclusion = ENTANGLED
    elif abs(margin) <= tol:
        conclusion = BOUNDARY
    else:
        conclusion = INCONCLUSIVE
    return CriterionVerdict(name, float(lhs), float(rhs), float(margin), conclusion,
                            details or {})


# The (lhs, rhs) of each inequality, per state of the summary; lhs > rhs + tol
# certifies entanglement.

def kf_sides(s: StateSummary, i: int = 0, j: int = 1):
    """||C_ij||_KF <= ((1 - tr rho_i^2) + (1 - tr rho_j^2)) / 2."""
    ei, ej = 1.0 - s.purities[i], 1.0 - s.purities[j]
    return s.pairs[i, j][1].sum(axis=-1), (ei + ej) / 2


def hs_sides(s: StateSummary, i: int = 0, j: int = 1):
    """||C_ij||_HS^2 <= (1 - tr rho_i^2)(1 - tr rho_j^2)."""
    ei, ej = 1.0 - s.purities[i], 1.0 - s.purities[j]
    return (s.pairs[i, j][1] ** 2).sum(axis=-1), ei * ej


def ppt_sides(s: StateSummary):
    """-lambda_min(rho^(T_A)) <= 0."""
    return -s.pt_spectrum[..., 0], 0.0


def ccnr_sides(s: StateSummary):
    """||R(rho)||_KF <= 1."""
    return s.realign_norm, 1.0


BIPARTITE_SIDES = {"kf": kf_sides, "hs": hs_sides, "ppt": ppt_sides, "ccnr": ccnr_sides}


def kf_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Trace-norm criterion: ||C||_KF <= ((1-tr rho_A^2) + (1-tr rho_B^2)) / 2.

    The sum of |C_ii| in the plain Gell-Mann basis (its basis-dependent
    precursor) is reported in details.
    """
    s = summarize(rho, "trace-norm criterion")
    diag_abs_sum = float(np.abs(np.diagonal(s.pairs[0, 1][0])).sum())
    return make_verdict("kf", *kf_sides(s), tol, details={"diag_abs_sum": diag_abs_sum})


def hs_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Frobenius criterion: ||C||_HS^2 <= (1-tr rho_A^2)(1-tr rho_B^2)."""
    return make_verdict("hs", *hs_sides(summarize(rho, "Frobenius criterion")), tol)


def ppt_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Positive partial transpose baseline; lhs is minus the smallest
    eigenvalue of rho^(T_A)."""
    s = summarize(rho, "PPT criterion")
    return make_verdict("ppt", *ppt_sides(s), tol,
                        details={"min_eigenvalue": float(s.pt_spectrum[0])})


def ccnr_criterion(rho: StateLike, tol: float = DECISION_TOL) -> CriterionVerdict:
    """Realignment baseline: trace norm of the reshuffled state vs 1."""
    return make_verdict("ccnr", *ccnr_sides(summarize(rho, "CCNR criterion")), tol)


def detections(s: StateSummary, tol: float = DECISION_TOL) -> dict[str, np.ndarray]:
    """Which states of a summary each criterion finds ENTANGLED, as boolean
    arrays: kf, hs, ppt and ccnr for two parties; for more, "pairwise",
    set when either norm inequality fails on some pair, which is when
    `multipartite_full_sep` refutes full separability."""
    if len(s.dims) == 2:
        return {name: violates(np.subtract(*sides(s)), tol)
                for name, sides in BIPARTITE_SIDES.items()}
    return {"pairwise": np.logical_or.reduce([
        violates(np.subtract(*sides(s, i, j)), tol)
        for i, j in combinations(range(len(s.dims)), 2) for sides in (hs_sides, kf_sides)])}


def _report(s: StateSummary, pairs, tol: float, partition: str | None = None
            ) -> MultipartiteReport:
    """Both norm inequalities on every listed pair.  A violation refutes full
    separability, and the partition when one is named."""
    verdicts = {(i, j): {"hs": make_verdict(f"hs_{i}{j}", *hs_sides(s, i, j), tol),
                         "kf": make_verdict(f"kf_{i}{j}", *kf_sides(s, i, j), tol)}
                for (i, j) in pairs}
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
    return _report(s, list(combinations(range(len(s.dims)), 2)), tol)


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
    if partition not in TRIPARTITE_PARTITIONS:
        raise ValueError(f"unknown partition {partition!r}, expected one of {TRIPARTITE_PARTITIONS}")
    # A mixture of products across the cut S|rest reduces, on each pair that
    # crosses the cut, to a separable two-party state, whose inequalities
    # hold by concavity; pairs on one side of the cut are unconstrained.
    side = {"ABC".index(p) for p in partition.split("|")[0]}
    return _report(s, [(i, j) for i, j in combinations(range(3), 2)
                       if (i in side) != (j in side)], tol, partition)
