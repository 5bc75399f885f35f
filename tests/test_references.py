"""The library against slow references and exact concurrence values.

The references live in oracles.py: the former O(d^8) einsum cross block,
the former Kronecker-operator variance sum, the trace norm from a
Hermitian dilation, Wootters' two-qubit concurrence and the Rungta-Caves
isotropic value.  The tolerances were fixed before the comparison: 1e-12
absolute against the two former implementations (entries are O(1) and
each side rounds at about 1e-15 per operation), and 1e-8 against the
mixed-state Wootters form, which takes square roots of eigenvalues that
are zero up to rounding.
"""
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmat import concurrence, covariance
from covmat.concurrence import all_bounds, bound_ccnr_ppt, bound_lur, bound_optimized, svd_rotated_bases
from covmat.covariance import StateSummary, correlation_block, joint_variance_sum
from covmat.criteria import multipartite_full_sep
from covmat.observables import gell_mann_basis, pad_basis, rotate_basis
from covmat.linalg import DensityMatrix
from covmat.states import isotropic, random_mixed

import oracles
from helpers import random_orthogonal

REF_TOL = 1e-12
WOOTTERS_MIXED_TOL = 1e-8
SHAPES = [(2, 2), (3, 3), (4, 4), (5, 5), (2, 3), (3, 2), (2, 4), (3, 5)]


def basis_pairs(dims, seed):
    """(label, basis_a, basis_b): plain Gell-Mann, both padded past d^2,
    and independently rotated."""
    m, n = dims
    ga, gb = gell_mann_basis(m), gell_mann_basis(n)
    width = max(m, n) ** 2 + 3
    return [
        ("gell-mann", ga, gb),
        ("padded", pad_basis(ga, width), pad_basis(gb, width)),
        ("rotated", rotate_basis(ga, random_orthogonal(m * m, seed)),
         rotate_basis(gb, random_orthogonal(n * n, seed + 1))),
    ]


def purities(mat, dims):
    out = []
    for k in range(2):
        red = oracles.ptrace_brute(mat, dims, [k])
        out.append(float(np.sum(np.abs(red) ** 2)))
    return out


def basis_results(source, ba, bb):
    """Both orientations of the cross block, the variance sum and the
    variance bound in the given bases."""
    return (correlation_block(source, 0, 1, ba, bb), correlation_block(source, 1, 0, bb, ba),
            joint_variance_sum(source, ba, bb), bound_lur(source, ba, bb))


@pytest.mark.parametrize("dims", SHAPES)
def test_block_and_variance_sum_match_former_implementations(dims):
    m, n = min(dims), max(dims)
    for seed in range(2):
        rho = random_mixed(dims, seed)
        summary = StateSummary(rho)
        for label, ba, bb in basis_pairs(dims, seed):
            want = oracles.corr_block_einsum(rho.mat, dims, ba.elements, bb.elements)
            jvs = oracles.joint_variance_kron(rho.mat, dims, ba.elements, bb.elements)
            lur = (m + n - 2 - jvs) / np.sqrt(2 * m * (m - 1))
            from_state = basis_results(rho, ba, bb)
            got, got_t, got_jvs, got_lur = from_state
            assert np.abs(got - want).max() <= REF_TOL, label
            assert np.abs(got_t - want.T).max() <= REF_TOL, label
            assert abs(got_jvs - jvs) <= REF_TOL, label
            assert abs(got_lur - lur) <= REF_TOL, label
            # a summary as input gives the same bits as the state
            for a, b in zip(basis_results(summary, ba, bb), from_state):
                assert np.array_equal(a, b), label
        jvs = oracles.joint_variance_kron(rho.mat, dims, gell_mann_basis(dims[0]).elements,
                                          gell_mann_basis(dims[1]).elements)
        assert abs(bound_lur(rho) - (m + n - 2 - jvs) / np.sqrt(2 * m * (m - 1))) <= REF_TOL
        assert bound_lur(summary) == bound_lur(rho)


@pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4), (3, 5), (2, 2, 2), (2, 3, 2)])
def test_a_stack_summarises_like_its_members(dims):
    # the summary of a stack, and every bound on it, equal those of each
    # member bit for bit
    members = [random_mixed(dims, seed, rank=rank) for seed, rank in
               enumerate((None, 1, 2, None, 3))]
    stack = StateSummary(DensityMatrix(dims, np.stack([r.mat for r in members])))
    pairs = [(i, j) for i in range(len(dims)) for j in range(i + 1, len(dims))]
    for k, rho in enumerate(members):
        one = StateSummary(rho)
        for a, b in zip(stack.purities, one.purities):
            assert np.array_equal(a[k], b)
        for i, j in pairs:
            for a, b in zip(stack.pairs[i, j], one.pairs[i, j]):
                assert np.array_equal(a[k], b)
        if len(dims) == 2:
            assert np.array_equal(stack.pt_spectrum[k], one.pt_spectrum)
            assert np.array_equal(stack.realign_norm[k], one.realign_norm)
            for bound in (bound_ccnr_ppt, bound_lur, bound_optimized):
                assert np.array_equal(bound(stack)[k], bound(one))


def test_given_bases_read_the_summary(monkeypatch):
    # the block, the variance sum and the bound in any other bases need no
    # partial trace and no realignment beyond the summary's own
    dims = (3, 4)
    summary = StateSummary(random_mixed(dims, 0))
    calls = Counter()
    for module in (covariance, concurrence):
        for name in ("partial_trace", "realign"):
            if hasattr(module, name):
                fn = getattr(module, name)
                monkeypatch.setattr(module, name, lambda *a, _fn=fn, _name=name:
                                    calls.update([_name]) or _fn(*a))
    for _, ba, bb in basis_pairs(dims, 0):
        bound_lur(summary, ba, bb)
    assert calls == Counter()
    for _, ba, bb in basis_pairs(dims, 0):
        basis_results(summary, ba, bb)
    assert calls == Counter()


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_svd_rotated_bases_diagonalize_the_reference_block(d):
    for seed in range(2):
        rho = random_mixed((d, d), seed)
        g = gell_mann_basis(d).elements
        s = np.linalg.svd(oracles.corr_block_einsum(rho.mat, (d, d), g, g), compute_uv=False)
        ba, bb = svd_rotated_bases(rho)
        block = oracles.corr_block_einsum(rho.mat, (d, d), ba.elements, bb.elements)
        assert np.abs(block + np.diag(s)).max() <= REF_TOL
        pa, pb = purities(rho.mat, (d, d))
        jvs = oracles.joint_variance_kron(rho.mat, (d, d), ba.elements, bb.elements)
        assert abs(jvs - (2 * d - pa - pb - 2 * s.sum())) <= REF_TOL


def test_multipartite_pairs_match_reference_blocks():
    dims = (2, 3, 2)
    rho = random_mixed(dims, 5)
    rep = multipartite_full_sep(rho)
    for (i, j), pair in rep.pair_verdicts.items():
        red = oracles.ptrace_brute(rho.mat, dims, [i, j])
        gi, gj = gell_mann_basis(dims[i]).elements, gell_mann_basis(dims[j]).elements
        block = oracles.corr_block_einsum(red, (dims[i], dims[j]), gi, gj)
        assert abs(pair["kf"].lhs - oracles.trace_norm_brute(block)) <= REF_TOL
        assert abs(pair["hs"].lhs - oracles.hs_norm_brute(block) ** 2) <= REF_TOL
        got = correlation_block(rho, j, i, gell_mann_basis(dims[j]), gell_mann_basis(dims[i]))
        assert np.abs(got - block.T).max() <= REF_TOL


@given(st.integers(0, 10_000), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_every_bound_below_wootters_concurrence(seed, rank):
    rho = random_mixed((2, 2), seed, rank=rank)
    if rank == 1:
        psi = np.linalg.eigh(rho.mat)[1][:, -1]
        exact, tol = oracles.wootters_pure(psi), REF_TOL
    else:
        exact, tol = oracles.wootters_mixed(rho.mat), WOOTTERS_MIXED_TOL
    b = all_bounds(rho)
    for name in ("bound_ccnr_ppt", "bound_lur", "bound_optimized", "best"):
        assert getattr(b, name) <= exact + tol, name


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_ccnr_ppt_and_optimized_bounds_are_exact_on_isotropic_states(d):
    for x in np.linspace(0.0, 1.0, 11):
        rho = isotropic(d, float(x))
        exact = oracles.isotropic_concurrence(d, float(x))
        for bound in (bound_ccnr_ppt(rho), bound_optimized(rho)):
            if exact > 0:
                assert abs(bound - exact) <= REF_TOL
            else:
                assert bound <= REF_TOL
