"""Independent output checker for the covmat benchmark.

Imports nothing from covmat.  Every value the CLI reports is recomputed
here from closed forms on raw numpy arrays:

- purities tr(rho_k^2) of every single-party marginal;
- PPT: the smallest eigenvalue of the partial transpose on party A;
- CCNR: the trace norm of the realigned state R(rho);
- the `kf` lhs as ||R(rho - rho_A x rho_B)||_KF and the `hs` lhs as
  ||R(rho - rho_A x rho_B)||_F^2.  The cross-correlation block in any
  orthonormal product basis of Hermitian observables is a unitary change
  of coordinates of R(rho - rho_A x rho_B), so both norms are
  basis-free (Guehne, Hyllus, Gittsovich & Eisert, PRL 99, 130504);
- the CCNR/PPT concurrence bound of Chen, Albeverio & Fei
  (PRL 95, 040504), the optimized bound, and the variance (LUR) bound
  from a Gell-Mann basis built here in the order covmat documents.

Check functions return a list of human-readable problems; empty means
the output is correct.
"""
from __future__ import annotations

import csv
import io
import math

import numpy as np

# Agreement required between a reported value and its recomputation.
VALUE_TOL = 1e-8
# The CLI's default decision tolerance: ENTANGLED iff margin > DECISION_TOL.
DECISION_TOL = 1e-9


# ---------------------------------------------------------------- states

def _ket(d: int, i: int) -> np.ndarray:
    v = np.zeros(d, dtype=complex)
    v[i] = 1.0
    return v


def tiles_state() -> np.ndarray:
    """The 3x3 bound entangled state from the five-tile unextendible
    product basis: (I - sum of the tile projectors) / 4."""
    e0, e1, e2 = (_ket(3, i) for i in range(3))
    s = (e0 + e1 + e2) / math.sqrt(3)
    tiles = [np.kron(e0, e0 - e1), np.kron(e0 - e1, e2), np.kron(e2, e1 - e2),
             np.kron(e1 - e2, e0), np.kron(s, s)]
    proj = sum(np.outer(t, t.conj()) / np.vdot(t, t).real for t in tiles)
    return (np.eye(9) - proj) / 4


def mes(d: int) -> np.ndarray:
    """Maximally entangled state sum_i |ii> / sqrt(d) as a density matrix."""
    psi = np.eye(d, dtype=complex).reshape(d * d) / math.sqrt(d)
    return np.outer(psi, psi.conj())


def isotropic(d: int, x: float) -> np.ndarray:
    return x * mes(d) + (1 - x) * np.eye(d * d) / (d * d)


def mixture(a: np.ndarray, b: np.ndarray, x: float) -> np.ndarray:
    """(1 - x) a + x b."""
    return (1 - x) * a + x * b


# ------------------------------------------------------- matrix algebra

def partial_trace(mat: np.ndarray, dims, keep) -> np.ndarray:
    """Reduced state on the parties in `keep` (kept in ascending order)."""
    n = len(dims)
    keep = sorted(keep)
    t = mat.reshape(tuple(dims) * 2)
    row = list(range(n))
    col = [i + n if i in keep else i for i in range(n)]
    out = keep + [k + n for k in keep]
    dk = int(np.prod([dims[k] for k in keep]))
    return np.einsum(t, row + col, out).reshape(dk, dk)


def partial_transpose_a(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    return mat.reshape(m, n, m, n).transpose(2, 1, 0, 3).reshape(m * n, m * n)


def realign(mat: np.ndarray, m: int, n: int) -> np.ndarray:
    """R[(i,k),(j,l)] = rho[(i,j),(k,l)]."""
    return mat.reshape(m, n, m, n).transpose(0, 2, 1, 3).reshape(m * m, n * n)


def ky_fan(mat: np.ndarray) -> float:
    return float(np.linalg.svd(mat, compute_uv=False).sum())


def purity(mat: np.ndarray) -> float:
    """tr(rho^2) = sum |rho_ij|^2 for Hermitian rho."""
    return float(np.sum(np.abs(mat) ** 2))


def gell_mann(d: int) -> np.ndarray:
    """Generalized Gell-Mann basis, shape (d^2, d, d), in covmat's
    documented order: I/sqrt(d), symmetric off-diagonal pairs (j<k
    ascending), antisymmetric pairs, then the d-1 diagonal generators."""
    out = np.zeros((d * d, d, d), dtype=complex)
    out[0] = np.eye(d) / math.sqrt(d)
    pairs = [(j, k) for j in range(d) for k in range(j + 1, d)]
    h = 1 / math.sqrt(2)
    for a, (j, k) in enumerate(pairs, start=1):
        out[a, j, k] = out[a, k, j] = h
    for a, (j, k) in enumerate(pairs, start=1 + len(pairs)):
        out[a, j, k], out[a, k, j] = -1j * h, 1j * h
    for l in range(1, d):
        a = len(pairs) * 2 + l
        out[a, np.arange(l), np.arange(l)] = 1.0
        out[a, l, l] = -l
        out[a] /= math.sqrt(l * (l + 1))
    return out


# ------------------------------------------------------ expected values

def pair_quantities(mat: np.ndarray, m: int, n: int) -> dict:
    """Every bipartite quantity analyze reports, for an m x n state."""
    rho_a = partial_trace(mat, (m, n), [0])
    rho_b = partial_trace(mat, (m, n), [1])
    ea, eb = 1 - purity(rho_a), 1 - purity(rho_b)
    delta = mat - np.kron(rho_a, rho_b)
    r_delta = realign(delta, m, n)
    kf = ky_fan(r_delta)
    ccnr = ky_fan(realign(mat, m, n))
    pt = partial_transpose_a(mat, m, n)
    pt_eigs = np.linalg.eigvalsh((pt + pt.conj().T) / 2)
    lo = min(m, n)
    hi = max(m, n)
    return {
        "ea": ea,
        "eb": eb,
        "kf": kf,
        "hs": float(np.sum(np.abs(r_delta) ** 2)),
        "ppt_min_eig": float(pt_eigs.min()),
        "ccnr": ccnr,
        "bound_ccnr_ppt": math.sqrt(2 / (lo * (lo - 1)))
        * (max(float(np.abs(pt_eigs).sum()), ccnr) - 1),
        "bound_optimized": (2 * kf - ea - eb) / math.sqrt(2 * lo * (lo - 1)),
        "bound_lur": (lo + hi - 2 - paired_variance_sum(mat, rho_a, rho_b, m, n))
        / math.sqrt(2 * lo * (lo - 1)),
    }


def paired_variance_sum(mat, rho_a, rho_b, m, n) -> float:
    """sum_i Var(G_i^A x I + I x G_i^B) over Gell-Mann bases zero-padded
    to a common length, from local expectation values only."""
    width = max(m * m, n * n)
    ga = np.zeros((width, m, m), dtype=complex)
    gb = np.zeros((width, n, n), dtype=complex)
    ga[: m * m] = gell_mann(m)
    gb[: n * n] = gell_mann(n)
    t = mat.reshape(m, n, m, n)
    mean_a = np.einsum("ki,aik->a", rho_a, ga).real
    mean_b = np.einsum("ki,aik->a", rho_b, gb).real
    sq_a = np.einsum("ki,aij,ajk->a", rho_a, ga, ga).real
    sq_b = np.einsum("ki,aij,ajk->a", rho_b, gb, gb).real
    joint = np.einsum("ijkl,aki,alj->a", t, ga, gb).real
    var = (sq_a - mean_a ** 2) + (sq_b - mean_b ** 2) + 2 * (joint - mean_a * mean_b)
    return float(var.sum())


def expected_analysis(mat: np.ndarray, dims) -> dict:
    """Everything `covmat analyze` should report for this state."""
    dims = tuple(int(d) for d in dims)
    exp = {
        "dims": list(dims),
        "purities": [purity(partial_trace(mat, dims, [k])) for k in range(len(dims))],
    }
    if len(dims) == 2:
        exp["pair"] = pair_quantities(mat, *dims)
    else:
        ent = [1 - p for p in exp["purities"]]
        pairs = {}
        for i in range(len(dims)):
            for j in range(i + 1, len(dims)):
                q = pair_quantities(partial_trace(mat, dims, [i, j]), dims[i], dims[j])
                pairs[f"{i},{j}"] = {"hs": (q["hs"], ent[i] * ent[j]),
                                     "kf": (q["kf"], (ent[i] + ent[j]) / 2)}
        exp["pairs"] = pairs
    return exp


# ------------------------------------------------------------- checking

def _close(got, want, tol=VALUE_TOL) -> bool:
    return isinstance(got, (int, float)) and abs(got - want) <= tol * max(1.0, abs(want))


def _conclusion(margin: float) -> str:
    if margin > DECISION_TOL:
        return "ENTANGLED"
    if abs(margin) <= DECISION_TOL:
        return "BOUNDARY"
    return "INCONCLUSIVE"


def check_verdict(v: dict, name: str, lhs: float, rhs: float) -> list[str]:
    errs = []
    if v.get("name") != name:
        errs.append(f"verdict name {v.get('name')!r} != {name!r}")
    for key, want in (("lhs", lhs), ("rhs", rhs), ("margin", lhs - rhs)):
        if not _close(v.get(key), want):
            errs.append(f"{name}.{key} = {v.get(key)!r}, expected {want!r}")
    if not errs and v.get("conclusion") != _conclusion(v["margin"]):
        errs.append(f"{name} conclusion {v.get('conclusion')} does not match "
                    f"margin {v['margin']!r}")
    return errs


def check_analysis(report: dict, exp: dict, exit_code: int) -> list[str]:
    """Compare one `analyze --format json` report with `expected_analysis`."""
    errs = []
    if report.get("dims") != exp["dims"]:
        return [f"dims {report.get('dims')} != {exp['dims']}"]
    got_p = report.get("purities") or []
    if len(got_p) != len(exp["purities"]) or not all(
            _close(g, w) for g, w in zip(got_p, exp["purities"])):
        errs.append(f"purities {got_p} != {exp['purities']}")
    conclusions = []
    if "pair" in exp:
        q = exp["pair"]
        want = [("kf", q["kf"], (q["ea"] + q["eb"]) / 2), ("hs", q["hs"], q["ea"] * q["eb"]),
                ("ppt", -q["ppt_min_eig"], 0.0), ("ccnr", q["ccnr"], 1.0)]
        verdicts = report.get("verdicts") or []
        if len(verdicts) != len(want):
            return errs + [f"{len(verdicts)} verdicts, expected {len(want)}"]
        for v, (name, lhs, rhs) in zip(verdicts, want):
            errs += check_verdict(v, name, lhs, rhs)
            conclusions.append(v.get("conclusion"))
        b = report.get("bounds") or {}
        m, n = exp["dims"]
        if (b.get("m"), b.get("n"), b.get("swapped")) != (min(m, n), max(m, n), m > n):
            errs.append(f"bounds m/n/swapped {b.get('m')}/{b.get('n')}/{b.get('swapped')} wrong")
        for key in ("bound_ccnr_ppt", "bound_optimized", "bound_lur"):
            if not _close(b.get(key), q[key]):
                errs.append(f"{key} = {b.get(key)!r}, expected {q[key]!r}")
        if not errs and b["bound_lur"] > b["bound_optimized"] + VALUE_TOL:
            errs.append(f"bound_lur {b['bound_lur']} exceeds "
                        f"bound_optimized {b['bound_optimized']}")
    else:
        multi = report.get("multipartite") or {}
        pv = multi.get("pair_verdicts") or {}
        if sorted(pv) != sorted(exp["pairs"]):
            return errs + [f"pairs {sorted(pv)} != {sorted(exp['pairs'])}"]
        hits = {"hs": 0, "kf": 0}
        for key, want in exp["pairs"].items():
            tag = key.replace(",", "")
            for fam in ("hs", "kf"):
                v = pv[key].get(fam) or {}
                errs += check_verdict(v, f"{fam}_{tag}", *want[fam])
                conclusions.append(v.get("conclusion"))
                hits[fam] += v.get("conclusion") == "ENTANGLED"
        if multi.get("full_sep_refuted") != (hits["hs"] + hits["kf"] > 0):
            errs.append("full_sep_refuted does not match the pair verdicts")
        if multi.get("fully_entangled") != (hits["hs"] >= 2 or hits["kf"] >= 2):
            errs.append("fully_entangled does not match the pair verdicts")
    want_code = 2 if "ENTANGLED" in conclusions else 0
    if exit_code != want_code:
        errs.append(f"exit code {exit_code}, expected {want_code}")
    return errs


SWEEP_COLUMNS = ["x", "bound10", "bound11", "bound12", "kf_margin", "hs_margin",
                 "ppt_min_eig", "ccnr_norm"]


def expected_sweep(base: np.ndarray, target: np.ndarray, dims, points: int) -> list[list[float]]:
    """Rows of `covmat sweep` over x = linspace(0, 1, points)."""
    rows = []
    for x in np.linspace(0.0, 1.0, points):
        q = pair_quantities(mixture(base, target, float(x)), *dims)
        rows.append([float(x), q["bound_ccnr_ppt"], q["bound_lur"], q["bound_optimized"],
                     q["kf"] - (q["ea"] + q["eb"]) / 2, q["hs"] - q["ea"] * q["eb"],
                     q["ppt_min_eig"], q["ccnr"]])
    return rows


def check_sweep(text: str, expected: list[list[float]]) -> list[str]:
    """Compare the sweep CSV with `expected_sweep`, plus the tiles -> MES
    properties: at x=0 the state is PPT, violates CCNR and has optimized
    bound 0.0555 (the paper's value); at x=1 bound10 = 2/sqrt(3)."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != SWEEP_COLUMNS:
        return [f"sweep header {rows[:1]} != {SWEEP_COLUMNS}"]
    try:
        body = [[float(c) for c in r] for r in rows[1:]]
    except ValueError as exc:
        return [f"sweep row not numeric: {exc}"]
    if len(body) != len(expected) or any(len(r) != len(SWEEP_COLUMNS) for r in body):
        return [f"sweep has {len(body)} rows, expected {len(expected)}"]
    errs = []
    for got, want in zip(body, expected):
        for col, g, w in zip(SWEEP_COLUMNS, got, want):
            if not _close(g, w):
                errs.append(f"sweep x={want[0]:.2f} {col} = {g!r}, expected {w!r}")
    first, last = body[0], body[-1]
    if first[6] < -1e-10:
        errs.append(f"sweep x=0 ppt_min_eig {first[6]} < -1e-10")
    if not first[7] > 1:
        errs.append(f"sweep x=0 ccnr_norm {first[7]} <= 1")
    if abs(first[3] - 0.0555) > 5e-4:
        errs.append(f"sweep x=0 optimized bound {first[3]} != 0.0555 +- 5e-4")
    if not _close(last[1], 2 / math.sqrt(3)):
        errs.append(f"sweep x=1 bound10 {last[1]} != 2/sqrt(3)")
    return errs


def check_bench(counts: dict, kind: str, parties: int, count: int) -> list[str]:
    """Property checks for `covmat bench --format json`: separable
    ensembles give no detections at all; Haar-random pure bipartite
    states are entangled, hence NPT and CCNR-violating."""
    errs = []
    if counts.get("states") != count:
        errs.append(f"states {counts.get('states')} != --count {count}")
    keys = ["kf", "hs", "ppt", "ccnr"] + (["pairwise"] if parties > 2 else [])
    if sorted(counts) != sorted(keys + ["states"]):
        errs.append(f"bench keys {sorted(counts)} unexpected")
    if kind == "separable":
        errs += [f"separable ensemble: {k} = {counts.get(k)}" for k in keys if counts.get(k) != 0]
    elif not counts.get("ppt") == counts.get("ccnr") == count:
        errs.append(f"pure ensemble: ppt {counts.get('ppt')} ccnr {counts.get('ccnr')} != {count}")
    return errs
