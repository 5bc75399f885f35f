import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covmat.linalg import (
    HERM_TOL,
    PSD_TOL,
    TRACE_TOL,
    DensityMatrix,
    InvalidStateError,
    InvalidSubsystemError,
    min_eigenvalue,
    partial_trace,
    partial_transpose,
    realign,
    trace_norm,
)
from covmat.states import bennett_state, max_entangled, product_state, random_mixed, random_pure

import oracles


def qubit(p):
    return DensityMatrix((2,), np.diag([p, 1 - p]).astype(complex))


class TestDensityMatrixInvariants:
    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex)
        m[0, 1] = 0.5
        with pytest.raises(InvalidStateError, match="Hermitian"):
            DensityMatrix((2, 2), m)

    def test_rejects_wrong_trace(self):
        with pytest.raises(InvalidStateError, match="trace"):
            DensityMatrix((2, 2), np.eye(4) / 2)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(InvalidStateError, match="positive"):
            DensityMatrix((2,), np.diag([1.5, -0.5]).astype(complex))

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_entries(self, bad):
        m = np.eye(4, dtype=complex) / 4
        m[1, 2] = m[2, 1] = bad
        with pytest.raises(InvalidStateError, match="non-finite"):
            DensityMatrix((2, 2), m)

    @pytest.mark.parametrize("fault, check", [
        ("hermitian", "not Hermitian"), ("trace", "trace differs"),
        ("psd", "not positive semidefinite"), ("nan", "non-finite"),
    ])
    def test_stack_names_its_first_bad_member(self, fault, check):
        stack = np.stack([random_mixed((2, 2), s).mat for s in range(5)])
        for k in (2, 4):
            bad = stack[k]
            if fault == "hermitian":
                bad[0, 1] += 1e-3
            elif fault == "trace":
                bad *= 1.01
            elif fault == "psd":
                bad[...] = np.diag([1.2, 0.0, 0.0, -0.2])
            else:
                bad[1, 2] = bad[2, 1] = np.nan
        with pytest.raises(InvalidStateError) as exc:
            DensityMatrix((2, 2), stack)
        assert check in str(exc.value) and str(exc.value).endswith("(stack member 2)")
        with pytest.raises(InvalidStateError) as one:
            DensityMatrix((2, 2), stack[2])
        assert str(exc.value) == f"{one.value} (stack member 2)"

    @staticmethod
    def with_min_eigenvalue(low, seed=0):
        """A 4x4 unit-trace Hermitian matrix with min eigenvalue `low`, in a
        random basis."""
        u = np.linalg.qr(np.random.default_rng(seed).standard_normal((4, 4))
                         + 1j * np.random.default_rng(seed + 1).standard_normal((4, 4)))[0]
        evs = np.array([low, 0.2, 0.3, 0.5 - low])
        return (u * evs) @ u.conj().T

    def test_min_eigenvalue_just_inside_the_tolerance_is_accepted(self):
        DensityMatrix((2, 2), self.with_min_eigenvalue(-0.5 * PSD_TOL))

    def test_min_eigenvalue_beyond_the_tolerance_is_named(self):
        with pytest.raises(InvalidStateError,
                           match=r"not positive semidefinite: min eigenvalue -2\.000e-10$"):
            DensityMatrix((2, 2), self.with_min_eigenvalue(-2 * PSD_TOL))

    def test_stack_names_the_member_beyond_the_tolerance(self):
        stack = np.stack([self.with_min_eigenvalue(-0.5 * PSD_TOL, s) for s in range(6)])
        stack[3] = self.with_min_eigenvalue(-2 * PSD_TOL, 3)
        with pytest.raises(InvalidStateError) as exc:
            DensityMatrix((2, 2), stack)
        assert str(exc.value) == ("not positive semidefinite: min eigenvalue -2.000e-10 "
                                  "(stack member 3)")

    def test_rank_one_state_of_dimension_256_is_accepted(self):
        v = np.random.default_rng(4).standard_normal(256) + 0j
        DensityMatrix((2,) * 8, np.outer(v, v) / (v @ v))

    @staticmethod
    def state_256(seed=1):
        """A 256 x 256 state with eigenvalues of at least 1/512."""
        return 0.5 * random_mixed((2,) * 8, seed).mat + 0.5 * np.eye(256) / 256

    @pytest.mark.parametrize("stacked", [False, True], ids=["single", "stack"])
    @pytest.mark.parametrize("fault, message", [
        ("hermitian", "not Hermitian: residual 2.000e-10"),
        ("trace", "trace differs from 1 by 2.000e-10"),
    ])
    def test_tolerances_at_dimension_256(self, stacked, fault, message):
        def shifted(scale):
            mat = np.stack([self.state_256(s) for s in range(5)]) if stacked else self.state_256()
            member = mat[3] if stacked else mat
            if fault == "hermitian":  # a late row, so the residual is not in the first block
                member[200, 17] += scale * HERM_TOL
            else:
                member[200, 200] += scale * TRACE_TOL
            return mat

        DensityMatrix((2,) * 8, shifted(0.5))
        with pytest.raises(InvalidStateError) as exc:
            DensityMatrix((2,) * 8, shifted(2))
        assert str(exc.value) == message + (" (stack member 3)" if stacked else "")

    def test_validation_holds_two_matrices_at_most(self):
        mat = self.state_256()
        tracemalloc.start()
        try:
            DensityMatrix((2,) * 8, mat)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * mat.nbytes, peak / mat.nbytes

    def test_valid_states_need_no_eigenvalues(self, monkeypatch):
        # the Cholesky factor decides; eigvalsh runs only to name a failure
        def refuse(*args, **kwargs):
            raise AssertionError("eigvalsh called")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        DensityMatrix((3, 3), bennett_state().mat)
        DensityMatrix((2, 2), np.stack([random_mixed((2, 2), s).mat for s in range(5)]))

    def test_reduced_states_are_not_revalidated(self, monkeypatch):
        rho = random_mixed((2, 3, 2), 1)
        calls = []
        monkeypatch.setattr(DensityMatrix, "__post_init__", lambda self: calls.append(1))
        red = partial_trace(rho, [0, 2])
        assert red.dims == (2, 2) and calls == []

    def test_rejects_dim_mismatch(self):
        with pytest.raises(InvalidStateError, match="shape"):
            DensityMatrix((2, 3), np.eye(4) / 4)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_random_states_pass_validation(self, seed):
        rho = random_mixed((2, 3), seed)
        assert abs(rho.mat.trace() - 1) <= 1e-10
        assert np.abs(rho.mat - rho.mat.conj().T).max() <= 1e-10
        assert np.linalg.eigvalsh(rho.mat).min() >= -1e-10


class TestPartialTrace:
    def test_product_state_factorizes(self):
        a, b = qubit(0.3), qubit(0.8)
        rho = product_state([a, b])
        np.testing.assert_allclose(partial_trace(rho, [0]).mat, a.mat, atol=1e-12)
        np.testing.assert_allclose(partial_trace(rho, [1]).mat, b.mat, atol=1e-12)

    def test_mes_reduces_to_maximally_mixed(self):
        red = partial_trace(max_entangled(3), [0])
        np.testing.assert_allclose(red.mat, np.eye(3) / 3, atol=1e-12)

    def test_bennett_reduction_matches_contraction_oracle(self):
        rho = bennett_state()
        expect = oracles.ptrace_brute(rho.mat, rho.dims, [0])
        got = partial_trace(rho, [0])
        assert got.dims == (3,)
        np.testing.assert_allclose(got.mat, expect, atol=1e-12)
        assert abs(got.mat.trace() - 1) <= 1e-12

    def test_out_of_range_subsystem(self):
        with pytest.raises(InvalidSubsystemError):
            partial_trace(max_entangled(2), [2])
        with pytest.raises(InvalidSubsystemError):
            partial_trace(max_entangled(2), [])

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_sequential_equals_joint_trace_out(self, seed):
        rho = random_mixed((2, 2, 3), seed)
        step = partial_trace(partial_trace(rho, [0, 1]), [0])
        joint = partial_trace(rho, [0])
        np.testing.assert_allclose(step.mat, joint.mat, atol=1e-12)


class TestPartialTranspose:
    def test_product_state(self):
        a, b = qubit(0.3), qubit(0.8)
        rho = product_state([a, b])
        np.testing.assert_allclose(
            partial_transpose(rho, 0), np.kron(a.mat.T, b.mat), atol=1e-12
        )

    def test_mes_negative_eigenvalue(self):
        pt = partial_transpose(max_entangled(2), 0)
        assert min_eigenvalue(pt) == pytest.approx(-0.5, abs=1e-12)
        # cross-check against the general eigensolver
        assert oracles.eigenvalues_brute(pt)[0] == pytest.approx(-0.5, abs=1e-10)

    def test_involution(self):
        rho = random_mixed((2, 3), 7)
        pt = partial_transpose(rho, 0)
        np.testing.assert_allclose(
            oracles.ptranspose_brute(pt, (2, 3), 0), rho.mat, atol=1e-12
        )

    def test_trace_and_hermiticity_preserved(self):
        rho = random_mixed((3, 3), 11)
        pt = partial_transpose(rho, 1)
        assert pt.trace() == pytest.approx(1.0, abs=1e-12)
        assert np.abs(pt - pt.conj().T).max() <= 1e-12

    def test_non_bipartite_rejected(self):
        with pytest.raises(InvalidSubsystemError):
            partial_transpose(random_mixed((2, 2, 2), 0), 0)


class TestRealign:
    def test_product_state_outer_product(self):
        a, b = qubit(0.3), qubit(0.8)
        rho = product_state([a, b])
        r = realign(rho)
        tn = trace_norm(r)
        assert tn == pytest.approx(np.linalg.norm(a.mat) * np.linalg.norm(b.mat), abs=1e-12)
        assert tn <= 1 + 1e-12

    def test_mes3_trace_norm(self):
        r = realign(max_entangled(3))
        assert trace_norm(r) == pytest.approx(3.0, abs=1e-10)
        brute = oracles.realign_brute(max_entangled(3).mat, (3, 3))
        assert oracles.trace_norm_brute(brute) == pytest.approx(3.0, abs=1e-10)

    @given(st.integers(0, 10_000), st.floats(0.0, 1.0))
    @settings(max_examples=30, deadline=None)
    def test_linearity(self, seed, w):
        a = random_mixed((2, 3), seed)
        b = random_mixed((2, 3), seed + 1)
        mixed = DensityMatrix((2, 3), w * a.mat + (1 - w) * b.mat)
        np.testing.assert_allclose(
            realign(mixed), w * realign(a) + (1 - w) * realign(b), atol=1e-12
        )

    def test_non_bipartite_rejected(self):
        with pytest.raises(InvalidSubsystemError):
            realign(random_mixed((2, 2, 2), 0))


class TestNorms:
    def test_identity(self):
        assert trace_norm(np.eye(5)) == pytest.approx(5.0, abs=1e-12)

    def test_zero(self):
        assert trace_norm(np.zeros((3, 4))) == 0.0

    def test_diagonal(self):
        d = np.diag([3.0, -4.0])
        assert trace_norm(d) == pytest.approx(7.0, abs=1e-12)

    @given(st.integers(0, 10_000))
    @settings(max_examples=50, deadline=None)
    def test_trace_norm_dominates_hs_norm(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((4, 6)) + 1j * rng.standard_normal((4, 6))
        assert trace_norm(m) >= np.linalg.norm(m) >= 0.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=30, deadline=None)
    def test_unitary_invariance(self, seed):
        rng = np.random.default_rng(seed)
        m = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
        u, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        v, _ = np.linalg.qr(rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)))
        assert trace_norm(u @ m @ v) == pytest.approx(trace_norm(m), abs=1e-9)


class TestMinEigenvalue:
    def test_identity(self):
        assert min_eigenvalue(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal(self):
        assert min_eigenvalue(np.diag([0.2, 0.8])) == pytest.approx(0.2, abs=1e-12)

    def test_rejects_non_hermitian(self):
        m = np.zeros((2, 2))
        m[0, 1] = 1.0
        with pytest.raises(InvalidStateError):
            min_eigenvalue(m)
