from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmat import concurrence, covariance, criteria
from covmat.covariance import StateSummary, correlation_block, joint_variance_sum
from covmat.linalg import DensityMatrix, partial_trace, trace_norm
from covmat.observables import gell_mann_basis, pad_basis, rotate_basis
from covmat.states import (
    bennett_state,
    max_entangled,
    product_state,
    random_mixed,
    random_pure,
)

import oracles
from helpers import all_blocks, covariance_matrix, expectation, random_orthogonal


def qubit(p):
    return DensityMatrix((2,), np.diag([p, 1 - p]).astype(complex))


class TestExpectation:
    def test_normalized_identity(self):
        rho = DensityMatrix((3,), np.eye(3) / 3)
        lam0 = gell_mann_basis(3).elements[0]
        assert expectation(rho, lam0) == pytest.approx(1 / np.sqrt(3), abs=1e-12)

    def test_qubit_ground_state_z(self):
        rho = qubit(1.0)
        sz = gell_mann_basis(2).elements[3]
        assert expectation(rho, sz) == pytest.approx(1 / np.sqrt(2), abs=1e-12)

    def test_bennett_matches_trace_oracle(self):
        rho = bennett_state()
        for op9 in [
            np.kron(gell_mann_basis(3).elements[4], gell_mann_basis(3).elements[7]),
            np.kron(gell_mann_basis(3).elements[1], np.eye(3)),
        ]:
            brute = oracles.expectation_brute(rho.mat, op9)
            assert expectation(rho, op9) == pytest.approx(brute.real, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="match"):
            expectation(qubit(0.5), np.eye(3))


class TestCovarianceMatrix:
    def test_identity_observable_has_zero_variance(self):
        rho = random_mixed((2, 2), 3)
        gamma = covariance_matrix(rho, [np.eye(4) / 2.0])
        np.testing.assert_allclose(gamma, np.zeros((1, 1)), atol=1e-12)

    def test_maximally_mixed_qubit_pauli_diagonal(self):
        # <s_i^2/2> = 1/2 and <s_i> = 0, so the variance of each
        # normalized Pauli is 1/2 and the identity entry is 0
        rho = qubit(0.5)
        gamma = covariance_matrix(rho, gell_mann_basis(2).elements)
        np.testing.assert_allclose(gamma, np.diag([0.0, 0.5, 0.5, 0.5]), atol=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_concavity_under_mixing(self, seed):
        a = random_pure((2,), seed)
        b = random_pure((2,), seed + 1)
        mixed = DensityMatrix((2,), (a.mat + b.mat) / 2)
        ms = gell_mann_basis(2).elements
        gap = covariance_matrix(mixed, ms) - (
            covariance_matrix(a, ms) + covariance_matrix(b, ms)
        ) / 2
        assert np.linalg.eigvalsh((gap + gap.T) / 2).min() >= -1e-9

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_symmetric_and_psd(self, seed):
        rho = random_mixed((3,), seed)
        gamma = covariance_matrix(rho, gell_mann_basis(3).elements)
        np.testing.assert_allclose(gamma, gamma.T, atol=1e-12)
        assert np.linalg.eigvalsh(gamma).min() >= -1e-9

    def test_diag_trace_identity(self):
        # tr gamma(rho_i, full basis) = d_i - tr(rho_i^2)
        rho = random_mixed((3,), 9)
        gamma = covariance_matrix(rho, gell_mann_basis(3).elements)
        assert np.trace(gamma) == pytest.approx(3 - rho.purity(), abs=1e-9)


class TestCorrelationBlock:
    def test_product_state_is_zero(self):
        rho = product_state([qubit(0.3), qubit(0.8)])
        b2 = gell_mann_basis(2)
        block = correlation_block(rho, 0, 1, b2, b2)
        np.testing.assert_allclose(block, np.zeros((4, 4)), atol=1e-12)

    def test_third_party_does_not_disturb_bennett_block(self):
        bennett = bennett_state()
        third = product_state([bennett, qubit(0.7)])
        b3, b2 = gell_mann_basis(3), gell_mann_basis(2)
        np.testing.assert_allclose(
            correlation_block(third, 0, 1, b3, b3),
            correlation_block(bennett, 0, 1, b3, b3),
            atol=1e-12,
        )

    def test_mes3_matches_double_loop_oracle(self):
        rho = max_entangled(3)
        b3 = gell_mann_basis(3)
        block = correlation_block(rho, 0, 1, b3, b3)
        brute = oracles.corr_block_brute(rho.mat, rho.dims, b3.elements, b3.elements)
        np.testing.assert_allclose(block, brute, atol=1e-10)
        assert trace_norm(block) == pytest.approx(oracles.trace_norm_brute(brute), abs=1e-10)

    def test_same_party_rejected(self):
        b = gell_mann_basis(3)
        with pytest.raises(ValueError):
            correlation_block(max_entangled(3), 0, 0, b, b)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(ValueError):
            correlation_block(max_entangled(3), 0, 1, gell_mann_basis(2), gell_mann_basis(3))

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_basis_covariance_under_rotation(self, seed):
        rho = random_mixed((2, 2), seed)
        b = gell_mann_basis(2)
        u = random_orthogonal(4, seed)
        base = correlation_block(rho, 0, 1, b, b)
        rotated = correlation_block(rho, 0, 1, rotate_basis(b, u), b)
        np.testing.assert_allclose(rotated, u @ base, atol=1e-10)


class TestAllBlocks:
    def test_fully_product_three_party(self):
        rho = product_state([qubit(0.2), qubit(0.5), qubit(0.9)])
        blocks = all_blocks(rho, [gell_mann_basis(2)] * 3)
        for c in blocks.cross.values():
            np.testing.assert_allclose(c, np.zeros_like(c), atol=1e-12)

    def test_bipartite_specialization(self):
        rho = max_entangled(2)
        b = gell_mann_basis(2)
        blocks = all_blocks(rho, [b, b])
        red0 = partial_trace(rho, [0])
        np.testing.assert_allclose(
            blocks.diag[0], covariance_matrix(red0, b.elements), atol=1e-12
        )
        np.testing.assert_allclose(
            blocks.cross[(0, 1)], correlation_block(rho, 0, 1, b, b), atol=1e-12
        )

    def test_tripartite_bennett_with_spectator(self):
        bennett = bennett_state()
        rho = product_state([bennett, qubit(1.0)])
        blocks = all_blocks(rho, [gell_mann_basis(3), gell_mann_basis(3), gell_mann_basis(2)])
        b3 = gell_mann_basis(3)
        d = correlation_block(bennett, 0, 1, b3, b3)
        np.testing.assert_allclose(blocks.cross[(0, 1)][:, :9], d, atol=1e-12)
        np.testing.assert_allclose(blocks.cross[(0, 2)], 0, atol=1e-12)
        np.testing.assert_allclose(blocks.cross[(1, 2)], 0, atol=1e-12)

    def test_block_accessor_transposes(self):
        rho = random_mixed((2, 3), 4)
        blocks = all_blocks(rho, [gell_mann_basis(2), gell_mann_basis(3)])
        np.testing.assert_allclose(blocks.block(1, 0), blocks.block(0, 1).T)

    def test_wrong_basis_count(self):
        with pytest.raises(ValueError):
            all_blocks(max_entangled(2), [gell_mann_basis(2)])

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_diag_blocks_symmetric_psd_with_trace_identity(self, seed):
        rho = random_mixed((2, 3), seed)
        blocks = all_blocks(rho, [gell_mann_basis(2), gell_mann_basis(3)])
        for k, blk in enumerate(blocks.diag):
            np.testing.assert_allclose(blk, blk.T, atol=1e-10)
            assert np.linalg.eigvalsh(blk).min() >= -1e-9
            red = partial_trace(rho, [k])
            assert np.trace(blk) == pytest.approx(
                rho.dims[k] - red.purity(), abs=1e-9
            )


class TestJointVarianceSum:
    def test_product_state_cross_term_vanishes(self):
        rho = product_state([qubit(0.3), qubit(0.8)])
        b = gell_mann_basis(2)
        expected = (2 - partial_trace(rho, [0]).purity()) + (2 - partial_trace(rho, [1]).purity())
        assert joint_variance_sum(rho, b, b) == pytest.approx(expected, abs=1e-10)

    def test_bennett_plain_generators_closed_form(self):
        # brute-force expansion gives exactly 121/24 for the paired
        # Gell-Mann observables on the tiles state
        rho = bennett_state()
        b = gell_mann_basis(3)
        assert joint_variance_sum(rho, b, b) == pytest.approx(121 / 24, abs=1e-10)

    def test_unequal_dimensions_pad(self):
        rho = random_mixed((2, 3), 1)
        val = joint_variance_sum(rho, gell_mann_basis(2), gell_mann_basis(3))
        assert np.isfinite(val) and val > 0

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_svd_rotation_closed_form(self, seed):
        # after rotating by the singular vectors of the cross block, the
        # variance sum collapses to M + N - purities - 2 ||C||_KF
        rho = random_mixed((3, 3), seed)
        b = gell_mann_basis(3)
        c = correlation_block(rho, 0, 1, b, b)
        u, s, vt = np.linalg.svd(c)
        ba = rotate_basis(b, u.T)
        bb = rotate_basis(b, -vt)
        expected = (
            3 - partial_trace(rho, [0]).purity()
            + 3 - partial_trace(rho, [1]).purity()
            - 2 * s.sum()
        )
        assert joint_variance_sum(rho, ba, bb) == pytest.approx(expected, abs=1e-9)


@pytest.mark.parametrize("rho", [random_mixed((2, 3), 1), random_mixed((3, 5), 2, rank=3),
                                 random_mixed((2, 2, 3), 3)], ids=["2x3", "3x5", "2x2x3"])
def test_criteria_and_bounds_only_read_the_summary(monkeypatch, rho):
    # the summary computes every matrix and decomposition when it is built;
    # criteria and bounds on it are formulas only
    s = StateSummary(rho)
    calls = Counter()

    def counted(owner, name):
        fn = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *a, **k: calls.update([name]) or fn(*a, **k))

    for module in (covariance, criteria, concurrence):
        for name in ("partial_trace", "realign"):
            if hasattr(module, name):
                counted(module, name)
    for name in ("svd", "eigvalsh"):
        counted(np.linalg, name)
    if rho.n_parties == 2:
        for criterion in (criteria.kf_criterion, criteria.hs_criterion,
                          criteria.ppt_criterion, criteria.ccnr_criterion):
            criterion(s)
        concurrence.all_bounds(s)
    criteria.detections(s)
    criteria.multipartite_full_sep(s)
    assert calls == Counter()
    StateSummary(rho)  # the counters do see the summary's own work
    assert calls["realign"] and calls["svd"]
