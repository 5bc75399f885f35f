import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmat.concurrence import (
    all_bounds,
    bound_ccnr_ppt,
    bound_lur,
    bound_optimized,
    pure_concurrence,
    svd_rotated_bases,
)
from covmat.linalg import DensityMatrix
from covmat.observables import gell_mann_basis
from helpers import apply_lu
from covmat.states import (
    bennett_state,
    dm_from_vector,
    ket,
    max_entangled,
    mix,
    product_state,
    random_mixed,
    random_pure,
)


def mes_vector(d):
    return sum(np.kron(ket(d, i), ket(d, i)) for i in range(d)) / np.sqrt(d)


class TestPureConcurrence:
    def test_product_vector_zero(self):
        assert pure_concurrence(ket(4, 0), (2, 2)) == pytest.approx(0.0, abs=1e-12)

    def test_mes2_is_one(self):
        assert pure_concurrence(mes_vector(2), (2, 2)) == pytest.approx(1.0, abs=1e-12)

    def test_mes3(self):
        assert pure_concurrence(mes_vector(3), (3, 3)) == pytest.approx(
            np.sqrt(4 / 3), abs=1e-12
        )

    def test_unnormalized_rejected(self):
        with pytest.raises(Exception):
            pure_concurrence(2 * ket(4, 0), (2, 2))


class TestCcnrPptBound:
    def test_bennett_value(self):
        assert bound_ccnr_ppt(bennett_state()) == pytest.approx(0.050, abs=5e-4)

    def test_mes3_tight(self):
        b = bound_ccnr_ppt(max_entangled(3))
        assert b == pytest.approx(np.sqrt(1 / 3) * 2, abs=1e-10)
        assert b == pytest.approx(pure_concurrence(mes_vector(3), (3, 3)), abs=1e-9)

    def test_product_state_nonpositive(self):
        a = DensityMatrix((2,), np.diag([0.3, 0.7]).astype(complex))
        b = DensityMatrix((2,), np.diag([0.9, 0.1]).astype(complex))
        assert bound_ccnr_ppt(product_state([a, b])) <= 0.0


class TestLurBound:
    def test_bennett_plain_generators_closed_form(self):
        # the paired Gell-Mann variance sum on the tiles state is exactly
        # 121/24, putting the raw bound at -25/(24*sqrt(12)); the
        # often-quoted positive value for this bound requires a tuned
        # observable choice, not the plain generator pairing
        got = bound_lur(bennett_state())
        assert got == pytest.approx((4 - 121 / 24) / np.sqrt(12), abs=1e-10)

    @given(st.integers(0, 10_000))
    @settings(max_examples=20, deadline=None)
    def test_rotated_bases_reach_the_optimized_bound(self, seed):
        rho = random_mixed((3, 3), seed)
        ba, bb = svd_rotated_bases(rho)
        assert bound_lur(rho, ba, bb) == pytest.approx(bound_optimized(rho), abs=1e-9)

    def test_product_state_nonpositive(self):
        a = DensityMatrix((2,), np.diag([0.3, 0.7]).astype(complex))
        b = DensityMatrix((2,), np.diag([0.9, 0.1]).astype(complex))
        assert bound_lur(product_state([a, b])) <= 1e-12


class TestOptimizedBound:
    def test_bennett_value(self):
        assert bound_optimized(bennett_state()) == pytest.approx(0.0555, abs=5e-4)

    def test_mes2_in_unit_interval(self):
        b = bound_optimized(max_entangled(2))
        assert 0.0 < b <= 1.0 + 1e-12
        assert b == pytest.approx(1.0, abs=1e-10)  # (2*3/2 - 1 - 1)/sqrt(2*2*1)

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_dominates_plain_lur(self, seed):
        rho = random_mixed((3, 3), seed)
        assert bound_optimized(rho) >= bound_lur(rho) - 1e-9

    def test_dominates_realignment_part_on_mixture_family(self):
        from covmat.linalg import realign, trace_norm

        base, target = bennett_state(), max_entangled(3)
        for x in np.linspace(0, 1, 21):
            rho = mix(base, target, float(x))
            realignment_only = (trace_norm(realign(rho)) - 1) / np.sqrt(3)
            assert bound_optimized(rho) >= realignment_only - 1e-9


class TestValidityAndInvariance:
    @pytest.mark.parametrize("dims", [(2, 2), (3, 3), (2, 4)])
    def test_bounds_below_pure_concurrence(self, dims):
        for seed in range(100):
            rho = random_pure(dims, seed)
            psi = np.linalg.eigh(rho.mat)[1][:, -1]
            exact = pure_concurrence(psi / np.linalg.norm(psi), dims)
            b = all_bounds(rho)
            assert b.bound_ccnr_ppt <= exact + 1e-8
            assert b.bound_lur <= exact + 1e-8
            assert b.bound_optimized <= exact + 1e-8

    @given(st.integers(0, 10_000))
    @settings(max_examples=15, deadline=None)
    def test_local_unitary_invariance(self, seed):
        rho = random_mixed((3, 3), seed)
        rotated = apply_lu(rho, seed + 1)
        assert bound_ccnr_ppt(rho) == pytest.approx(bound_ccnr_ppt(rotated), abs=1e-8)
        assert bound_optimized(rho) == pytest.approx(bound_optimized(rotated), abs=1e-8)

    def test_sweep_continuity(self):
        base, target = bennett_state(), max_entangled(3)
        vals = [bound_optimized(mix(base, target, float(x))) for x in np.linspace(0, 1, 101)]
        assert np.abs(np.diff(vals)).max() < 0.05


class TestAllBounds:
    def test_best_clamps_at_zero(self):
        a = DensityMatrix((2,), np.diag([0.3, 0.7]).astype(complex))
        b = DensityMatrix((2,), np.diag([0.9, 0.1]).astype(complex))
        bounds = all_bounds(product_state([a, b]))
        assert bounds.best == 0.0
        assert bounds.bound_ccnr_ppt <= 0.0  # raw value stays negative

    def test_party_order_normalization(self):
        rho = random_mixed((4, 2), 3)
        bounds = all_bounds(rho)
        assert (bounds.m, bounds.n) == (2, 4)
        assert bounds.swapped

    def test_non_bipartite_rejected(self):
        with pytest.raises(ValueError):
            all_bounds(random_mixed((2, 2, 2), 0))
