import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmat.observables import ObservableBasis, gell_mann_basis, pad_basis, rotate_basis
from covmat.states import random_mixed
from helpers import random_orthogonal




@pytest.mark.parametrize("d", [2, 3, 4, 5])
class TestGellMannBasis:
    def test_count_and_unit_norm(self, d):
        b = gell_mann_basis(d)
        assert len(b) == d * d
        for m in b.elements:
            assert np.trace(m @ m).real == pytest.approx(1.0, abs=1e-12)

    def test_orthonormality(self, d):
        e = gell_mann_basis(d).elements
        gram = np.einsum("aij,bji->ab", e, e)
        np.testing.assert_allclose(gram, np.eye(d * d), atol=1e-12)

    def test_completeness_sum_of_squares(self, d):
        e = gell_mann_basis(d).elements
        total = np.einsum("aij,ajk->ik", e, e)
        np.testing.assert_allclose(total, d * np.eye(d), atol=1e-10)

    def test_hermitian(self, d):
        e = gell_mann_basis(d).elements
        assert np.abs(e - e.conj().transpose(0, 2, 1)).max() <= 1e-12


def test_qubit_basis_is_normalized_pauli():
    e = gell_mann_basis(2).elements
    s2 = np.sqrt(2)
    np.testing.assert_allclose(e[0], np.eye(2) / s2, atol=1e-15)
    np.testing.assert_allclose(e[1], np.array([[0, 1], [1, 0]]) / s2, atol=1e-15)
    np.testing.assert_allclose(e[2], np.array([[0, -1j], [1j, 0]]) / s2, atol=1e-15)
    np.testing.assert_allclose(e[3], np.array([[1, 0], [0, -1]]) / s2, atol=1e-15)


def test_dimension_below_two_rejected():
    with pytest.raises(ValueError):
        gell_mann_basis(1)


class TestPadBasis:
    def test_pads_with_zeros(self):
        padded = pad_basis(gell_mann_basis(2), 9)
        assert len(padded) == 9
        assert np.abs(padded.elements[4:]).max() == 0.0

    def test_identity_when_target_matches(self):
        b = gell_mann_basis(3)
        assert pad_basis(b, 9) is b

    def test_target_below_d_squared_rejected(self):
        with pytest.raises(ValueError):
            pad_basis(gell_mann_basis(3), 4)

    def test_padded_observable_has_zero_variance(self):
        rho = random_mixed((2,), 5)
        zero = pad_basis(gell_mann_basis(2), 5).elements[4]
        var = np.trace(rho.mat @ zero @ zero).real - np.trace(rho.mat @ zero).real ** 2
        assert var == 0.0


class TestRotateBasis:
    def test_identity_rotation(self):
        b = gell_mann_basis(3)
        np.testing.assert_allclose(rotate_basis(b, np.eye(9)).elements, b.elements)

    @given(st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_invariants_survive_random_rotation(self, seed):
        b = gell_mann_basis(3)
        rotated = rotate_basis(b, random_orthogonal(9, seed))
        # construction re-validates orthonormality; check completeness explicitly
        total = np.einsum("aij,ajk->ik", rotated.elements, rotated.elements)
        np.testing.assert_allclose(total, 3 * np.eye(3), atol=1e-10)

    def test_non_orthogonal_rejected(self):
        with pytest.raises(ValueError, match="orthogonal"):
            rotate_basis(gell_mann_basis(2), np.eye(4) * 1.1)

    def test_padded_basis_rejected(self):
        with pytest.raises(ValueError, match="padded"):
            rotate_basis(pad_basis(gell_mann_basis(2), 9), np.eye(9))


class TestBasisValidation:
    def test_non_orthonormal_elements_rejected(self):
        bad = np.stack([np.eye(2, dtype=complex)] * 4)
        with pytest.raises(ValueError):
            ObservableBasis(2, bad)

    def test_nonzero_padding_rejected(self):
        e = gell_mann_basis(2).elements
        bad = np.concatenate([e, e[:1]])
        with pytest.raises(ValueError, match="padding"):
            ObservableBasis(2, bad)


@given(st.integers(0, 10_000), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_product_basis_mean_squares_sum_to_purity(seed, d):
    # expanding rho in the orthonormal product basis {A_k x B_l} makes the
    # squared expectation values sum to tr(rho^2)
    rho = random_mixed((d, d), seed)
    e = gell_mann_basis(d).elements
    r4 = rho.mat.reshape(d, d, d, d)
    means = np.einsum("ijkl,aki,blj->ab", r4, e, e).real
    assert (means ** 2).sum() == pytest.approx(rho.purity(), abs=1e-10)
