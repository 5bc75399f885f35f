"""End-to-end acceptance checks.

Each test covers one acceptance item and prints a single PASS/FAIL line
(written to the real stdout so it survives pytest's capture).  Checks that
depend on published reference values are asserted at the stated tolerances;
a FAIL here means the implementation genuinely does not reproduce the value.
"""
import sys
import time

import numpy as np
import pytest

from covmat.concurrence import (
    all_bounds,
    bound_ccnr_ppt,
    bound_lur,
    bound_optimized,
    pure_concurrence,
    svd_rotated_bases,
)
from covmat.covariance import correlation_block
from covmat.criteria import (
    ENTANGLED,
    ccnr_criterion,
    hs_criterion,
    kf_criterion,
    multipartite_full_sep,
    ppt_criterion,
)
from covmat.cli import analyze_state
from covmat.linalg import (
    min_eigenvalue,
    partial_transpose,
    realign,
    trace_norm,
)
from covmat.observables import gell_mann_basis
from covmat.states import (
    bennett_state,
    ket,
    max_entangled,
    mix,
    random_mixed,
    random_pure,
    random_separable,
)


@pytest.fixture
def report(capsys):
    """Run (label, bool) checks, print one PASS/FAIL line, then assert."""

    def _report(tag, checks):
        failed = [label for label, ok in checks if not ok]
        line = f"[acceptance] {tag}: " + ("PASS" if not failed
                                          else "FAIL (" + "; ".join(failed) + ")")
        with capsys.disabled():
            print(line, file=sys.stdout, flush=True)
        assert not failed, line

    return _report


def test_1_tiles_state_bound_values(report):
    t0 = time.perf_counter()
    rep = analyze_state(bennett_state(), "bennett3x3", 1e-9)
    elapsed = time.perf_counter() - t0
    b = rep.bounds
    report("tiles-state bound values", [
        (f"ccnr/ppt bound {b.bound_ccnr_ppt:.6f} != 0.050±0.0005",
         abs(b.bound_ccnr_ppt - 0.050) <= 5e-4),
        (f"variance bound {b.bound_lur:.6f} != 0.052±0.0005",
         abs(b.bound_lur - 0.052) <= 5e-4),
        (f"optimized bound {b.bound_optimized:.6f} != 0.0555±0.0005",
         abs(b.bound_optimized - 0.0555) <= 5e-4),
        (f"runtime {elapsed:.2f}s >= 1s", elapsed < 1.0),
    ])


def test_2_mixing_sweep_dominance_and_continuity(report):
    t0 = time.perf_counter()
    base, target = bennett_state(), max_entangled(3)
    xs = np.linspace(0, 1, 101)
    b10 = np.array([bound_ccnr_ppt(mix(base, target, float(x))) for x in xs])
    b12 = np.array([bound_optimized(mix(base, target, float(x))) for x in xs])
    elapsed = time.perf_counter() - t0
    gap = (b10 - b12).max()
    report("mixing-sweep dominance", [
        (f"optimized bound falls below ccnr/ppt bound by up to {gap:.4f}",
         gap <= 1e-9),
        ("ccnr/ppt bound discontinuous", np.abs(np.diff(b10)).max() < 0.05),
        ("optimized bound discontinuous", np.abs(np.diff(b12)).max() < 0.05),
        (f"runtime {elapsed:.2f}s >= 10s", elapsed < 10.0),
    ])


def test_3_bound_entanglement_beyond_ppt(report):
    rho = bennett_state()
    report("bound entanglement beyond ppt", [
        ("partial transpose not PSD",
         min_eigenvalue(partial_transpose(rho, 0)) >= -1e-10),
        ("ccnr missed the state", ccnr_criterion(rho).conclusion == ENTANGLED),
        ("trace-norm criterion missed the state",
         kf_criterion(rho).conclusion == ENTANGLED),
    ])


def test_4_observable_algebra(report):
    checks = []
    for d in (2, 3, 4, 5):
        e = gell_mann_basis(d).elements
        gram = np.einsum("aij,bji->ab", e, e)
        checks.append((f"d={d} orthonormality",
                       np.abs(gram - np.eye(d * d)).max() <= 1e-12))
        total = np.einsum("aij,ajk->ik", e, e)
        checks.append((f"d={d} completeness",
                       np.abs(total - d * np.eye(d)).max() <= 1e-10))
    # squared means over the orthonormal product basis sum to the purity
    worst = 0.0
    for seed in range(100):
        d = (2, 3)[seed % 2]
        rho = random_mixed((d, d), seed)
        e = gell_mann_basis(d).elements
        means = np.einsum("ijkl,aki,blj->ab", rho.mat.reshape(d, d, d, d), e, e).real
        worst = max(worst, abs((means ** 2).sum() - rho.purity()))
    checks.append((f"product-basis purity identity off by {worst:.2e}", worst <= 1e-10))
    report("observable algebra", checks)


def test_5_soundness_on_separable_ensembles(report):
    t0 = time.perf_counter()
    checks = []
    for dims in [(2, 2), (3, 3), (2, 4), (2, 2, 2), (3, 3, 3)]:
        hits = 0
        for seed in range(1000):
            rho = random_separable(dims, 2 * max(dims), seed)
            if len(dims) == 2:
                for crit in (kf_criterion, hs_criterion, ppt_criterion, ccnr_criterion):
                    hits += crit(rho).conclusion == ENTANGLED
            else:
                hits += multipartite_full_sep(rho).full_sep_refuted
        label = "x".join(map(str, dims))
        checks.append((f"{label}: {hits} false positives", hits == 0))
    elapsed = time.perf_counter() - t0
    checks.append((f"runtime {elapsed:.1f}s >= 60s", elapsed < 60.0))
    report("separable-ensemble soundness", checks)


def test_6_optimized_bound_dominates_and_is_attained(report):
    worst_gap, worst_eq = 0.0, 0.0
    for seed in range(500):
        rho = random_mixed((3, 3), seed)
        opt = bound_optimized(rho)
        worst_gap = max(worst_gap, bound_lur(rho) - opt)
        ba, bb = svd_rotated_bases(rho)
        worst_eq = max(worst_eq, abs(bound_lur(rho, ba, bb) - opt))
    report("optimized-bound dominance", [
        (f"plain variance bound exceeds optimized by {worst_gap:.2e}",
         worst_gap <= 1e-9),
        (f"rotated-basis evaluation off by {worst_eq:.2e}", worst_eq <= 1e-9),
    ])


def test_7_pure_state_validity_and_mes_tightness(report):
    worst = -np.inf
    for seed in range(500):
        dims = [(2, 2), (3, 3), (2, 4)][seed % 3]
        rho = random_pure(dims, seed)
        w, v = np.linalg.eigh(rho.mat)
        psi = v[:, -1] / np.linalg.norm(v[:, -1])
        exact = pure_concurrence(psi, dims)
        b = all_bounds(rho)
        worst = max(worst, b.bound_ccnr_ppt - exact, b.bound_lur - exact,
                    b.bound_optimized - exact)
    mes_dev = abs(bound_ccnr_ppt(max_entangled(3)) - np.sqrt(4 / 3))
    psi3 = sum(np.kron(ket(3, i), ket(3, i)) for i in range(3)) / np.sqrt(3)
    mes_dev = max(mes_dev, abs(pure_concurrence(psi3, (3, 3)) - np.sqrt(4 / 3)))
    report("pure-state validity", [
        (f"some bound exceeds pure concurrence by {worst:.2e}", worst <= 1e-8),
        (f"MES tightness off by {mes_dev:.2e}", mes_dev <= 1e-9),
    ])


def test_8_oracle_equivalence_on_two_qubit_ensemble(report):
    import oracles

    b = gell_mann_basis(2)
    worst = {"block": 0.0, "kf": 0.0, "hs": 0.0, "realign": 0.0, "pt": 0.0}
    for seed in range(200):
        rho = random_mixed((2, 2), seed)
        block = correlation_block(rho, 0, 1, b, b)
        brute = oracles.corr_block_brute(rho.mat, (2, 2), b.elements, b.elements)
        worst["block"] = max(worst["block"], np.abs(block - brute).max())
        worst["kf"] = max(worst["kf"],
                          abs(trace_norm(block) - oracles.trace_norm_brute(brute)))
        worst["hs"] = max(worst["hs"],
                          abs(np.linalg.norm(block) - oracles.hs_norm_brute(brute)))
        r = realign(rho)
        rb = oracles.realign_brute(rho.mat, (2, 2))
        worst["realign"] = max(
            worst["realign"],
            np.abs(r - rb).max(),
            abs(trace_norm(r) - oracles.trace_norm_brute(rb)),
        )
        spec = np.sort(np.linalg.eigvalsh(partial_transpose(rho, 0)))
        brute_spec = np.sort(
            oracles.eigenvalues_brute(oracles.ptranspose_brute(rho.mat, (2, 2), 0)).real
        )
        worst["pt"] = max(worst["pt"], np.abs(spec - brute_spec).max())
    report("oracle equivalence", [
        (f"{name} deviation {dev:.2e}", dev <= 1e-10) for name, dev in worst.items()
    ])
