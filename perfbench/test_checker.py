"""Tests for the benchmark's output checker on states with analytic answers.

    python -m pytest perfbench/test_checker.py
"""
import math

import numpy as np
import pytest

import checker as ck


def product(rng, m, n):
    def local(d):
        g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        r = g @ g.conj().T
        return r / np.trace(r).real
    return np.kron(local(m), local(n))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_mes_realignment_norm_and_negativity(d):
    q = ck.pair_quantities(ck.mes(d), d, d)
    assert q["ccnr"] == pytest.approx(d, abs=1e-12)
    assert q["ppt_min_eig"] == pytest.approx(-1 / d, abs=1e-12)
    assert q["bound_ccnr_ppt"] == pytest.approx(math.sqrt(2 / (d * (d - 1))) * (d - 1), abs=1e-12)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 5), (4, 2)])
def test_product_states_have_no_correlation(dims):
    q = ck.pair_quantities(product(np.random.default_rng(7), *dims), *dims)
    assert q["kf"] == pytest.approx(0.0, abs=1e-12)
    assert q["hs"] == pytest.approx(0.0, abs=1e-12)
    assert q["ppt_min_eig"] >= -1e-12


@pytest.mark.parametrize("d", [2, 3, 4])
def test_isotropic_ppt_threshold(d):
    x0 = 1 / (d + 1)

    def lam(x):
        return ck.pair_quantities(ck.isotropic(d, x), d, d)["ppt_min_eig"]

    assert lam(x0) == pytest.approx(0.0, abs=1e-12)
    assert lam(x0 + 1e-3) < 0 < lam(x0 - 1e-3)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_gell_mann_orthonormal_and_complete(d):
    g = ck.gell_mann(d)
    assert np.allclose(g, g.conj().transpose(0, 2, 1))
    assert np.allclose(np.einsum("aij,bji->ab", g, g), np.eye(d * d))
    assert np.allclose(np.einsum("aij,ajk->ik", g, g), d * np.eye(d))


def test_tiles_state_matches_paper():
    q = ck.pair_quantities(ck.tiles_state(), 3, 3)
    assert q["ppt_min_eig"] >= -1e-12
    assert q["ccnr"] > 1
    assert q["bound_optimized"] == pytest.approx(0.0555, abs=5e-4)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 5)])
def test_variance_bound_below_optimized(dims):
    rng = np.random.default_rng(3)
    for _ in range(5):
        d = dims[0] * dims[1]
        g = rng.standard_normal((d, 2)) + 1j * rng.standard_normal((d, 2))
        rho = g @ g.conj().T
        q = ck.pair_quantities(rho / np.trace(rho).real, *dims)
        assert q["bound_lur"] <= q["bound_optimized"] + 1e-12


def report_from(exp):
    """A correct `analyze --format json` report for a bipartite state."""
    q = exp["pair"]
    m, n = exp["dims"]
    rows = [("kf", q["kf"], (q["ea"] + q["eb"]) / 2), ("hs", q["hs"], q["ea"] * q["eb"]),
            ("ppt", -q["ppt_min_eig"], 0.0), ("ccnr", q["ccnr"], 1.0)]
    verdicts = [{"name": name, "lhs": lhs, "rhs": rhs, "margin": lhs - rhs,
                 "conclusion": ck._conclusion(lhs - rhs)} for name, lhs, rhs in rows]
    bounds = {k: q[k] for k in ("bound_ccnr_ppt", "bound_lur", "bound_optimized")}
    bounds.update(m=min(m, n), n=max(m, n), swapped=m > n)
    return {"dims": exp["dims"], "purities": exp["purities"], "verdicts": verdicts,
            "bounds": bounds}


def test_check_analysis_accepts_correct_and_flags_wrong_values():
    exp = ck.expected_analysis(ck.tiles_state(), (3, 3))
    report = report_from(exp)
    assert ck.check_analysis(report, exp, 2) == []
    assert ck.check_analysis(report, exp, 0)                 # ENTANGLED needs exit code 2
    report["bounds"]["bound_lur"] += 1e-6
    assert ck.check_analysis(report, exp, 2)
    report = report_from(exp)
    report["verdicts"][2]["conclusion"] = "ENTANGLED"        # ppt margin is ~0
    assert ck.check_analysis(report, exp, 2)


def test_check_sweep_accepts_its_own_rows():
    exp = ck.expected_sweep(ck.tiles_state(), ck.mes(3), (3, 3), 11)
    text = ",".join(ck.SWEEP_COLUMNS) + "\n" + "\n".join(
        ",".join(f"{v:.12g}" for v in row) for row in exp) + "\n"
    assert ck.check_sweep(text, exp) == []
    assert exp[-1][1] == pytest.approx(2 / math.sqrt(3), abs=1e-12)
    assert ck.check_sweep(text.replace(text.splitlines()[3], text.splitlines()[2]), exp)


def test_check_bench_properties():
    assert ck.check_bench({"kf": 0, "hs": 0, "ppt": 0, "ccnr": 0, "states": 5},
                          "separable", 2, 5) == []
    assert ck.check_bench({"kf": 1, "hs": 0, "ppt": 0, "ccnr": 0, "states": 5},
                          "separable", 2, 5)
    assert ck.check_bench({"kf": 0, "hs": 0, "ppt": 0, "ccnr": 0, "states": 5, "pairwise": 1},
                          "separable", 3, 5)
    assert ck.check_bench({"kf": 5, "hs": 5, "ppt": 5, "ccnr": 5, "states": 5}, "pure", 2, 5) == []
    assert ck.check_bench({"kf": 5, "hs": 5, "ppt": 4, "ccnr": 5, "states": 5}, "pure", 2, 5)
    assert ck.check_bench({"kf": 0, "hs": 0, "ppt": 0, "ccnr": 0, "states": 4},
                          "separable", 2, 5)
