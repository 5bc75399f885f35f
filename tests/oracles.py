"""Independent brute-force reference implementations.

Everything here works by explicit index loops on raw numpy arrays and
shares no code with the library; eigen-decompositions replace the
library's SVD route for norms.  Slow on purpose.
"""
import numpy as np


def ptrace_brute(mat, dims, keep):
    """Partial trace by explicit index contraction."""
    dims = list(dims)
    n = len(dims)
    keep = sorted(keep)
    traced = [i for i in range(n) if i not in keep]
    dk = [dims[i] for i in keep]
    Dk = int(np.prod(dk))
    out = np.zeros((Dk, Dk), dtype=complex)

    def unflatten(flat):
        idx = []
        for d in reversed(dims):
            idx.append(flat % d)
            flat //= d
        return list(reversed(idx))

    def flatten(idx, ds):
        flat = 0
        for i, d in zip(idx, ds):
            flat = flat * d + i
        return flat

    D = int(np.prod(dims))
    for r in range(D):
        ri = unflatten(r)
        for c in range(D):
            ci = unflatten(c)
            if any(ri[t] != ci[t] for t in traced):
                continue
            rr = flatten([ri[k] for k in keep], dk)
            cc = flatten([ci[k] for k in keep], dk)
            out[rr, cc] += mat[r, c]
    return out


def ptranspose_brute(mat, dims, subsystem):
    """Partial transpose of a bipartite matrix by element shuffling."""
    m, n = dims
    out = np.zeros_like(mat)
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    if subsystem == 0:
                        out[k * n + j, i * n + l] = mat[i * n + j, k * n + l]
                    else:
                        out[i * n + l, k * n + j] = mat[i * n + j, k * n + l]
    return out


def realign_brute(mat, dims):
    """Reshuffle rho[(i,j),(k,l)] -> R[(i,k),(j,l)] element by element."""
    m, n = dims
    out = np.zeros((m * m, n * n), dtype=complex)
    for i in range(m):
        for j in range(n):
            for k in range(m):
                for l in range(n):
                    out[i * m + k, j * n + l] = mat[i * n + j, k * n + l]
    return out


def trace_norm_brute(m):
    """Sum of singular values: the Hermitian dilation [[0, M], [M^dag, 0]]
    has eigenvalues +-s_i plus zeros, so the norm is half the sum of their
    absolute values.  No square roots, so rank-deficient M loses nothing."""
    m = np.asarray(m, dtype=complex)
    r, c = m.shape
    dilation = np.zeros((r + c, r + c), dtype=complex)
    dilation[:r, r:] = m
    dilation[r:, :r] = m.conj().T
    return float(np.abs(np.linalg.eigvalsh(dilation)).sum() / 2)


def hs_norm_brute(m):
    total = 0.0
    for row in np.asarray(m, dtype=complex):
        for z in row:
            total += abs(z) ** 2
    return float(np.sqrt(total))


def expectation_brute(mat, op):
    """Tr(rho M) by explicit double sum."""
    val = 0.0 + 0.0j
    n = mat.shape[0]
    for a in range(n):
        for b in range(n):
            val += mat[a, b] * op[b, a]
    return val


def corr_block_brute(mat, dims, ops_a, ops_b):
    """Cross-correlation block from full-space operators, no partial trace."""
    m, n = dims
    ia, ib = np.eye(m), np.eye(n)
    ka, kb = len(ops_a), len(ops_b)
    out = np.zeros((ka, kb))
    for a in range(ka):
        fa = np.kron(ops_a[a], ib)
        ma = expectation_brute(mat, fa).real
        for b in range(kb):
            fb = np.kron(ia, ops_b[b])
            mb = expectation_brute(mat, fb).real
            joint = expectation_brute(mat, np.kron(ops_a[a], ops_b[b])).real
            out[a, b] = joint - ma * mb
    return out


def eigenvalues_brute(mat):
    """Sorted real parts of the spectrum via the general eigensolver."""
    return np.sort(np.linalg.eigvals(mat).real)


def corr_block_einsum(mat, dims, ops_a, ops_b):
    """Cross-correlation block by one three-operand contraction over the
    4-index state tensor, O(d^8); the library's former implementation."""
    m, n = dims
    t = np.asarray(mat).reshape(m, n, m, n)
    joint = np.einsum("ijkl,aki,blj->ab", t, ops_a, ops_b).real
    mean_a = np.einsum("ijkj,aki->a", t, ops_a).real
    mean_b = np.einsum("ijil,blj->b", t, ops_b).real
    return joint - np.outer(mean_a, mean_b)


def joint_variance_kron(mat, dims, ops_a, ops_b):
    """sum_i Var(A_i x I + I x B_i) from full-space Kronecker operators, the
    shorter list zero-padded; the library's former implementation."""
    m, n = dims
    width = max(len(ops_a), len(ops_b))
    total = 0.0
    for i in range(width):
        a = ops_a[i] if i < len(ops_a) else np.zeros((m, m))
        b = ops_b[i] if i < len(ops_b) else np.zeros((n, n))
        k = np.kron(a, np.eye(n)) + np.kron(np.eye(m), b)
        mean = np.trace(mat @ k).real
        total += np.trace(mat @ k @ k).real - mean ** 2
    return float(total)


_SIGMA_YY = np.kron(np.array([[0, -1j], [1j, 0]]), np.array([[0, -1j], [1j, 0]]))


def wootters_pure(psi):
    """Two-qubit concurrence |<psi| sigma_y x sigma_y |psi*>| of a pure
    state vector (Wootters, PRL 80, 2245)."""
    psi = np.asarray(psi, dtype=complex)
    return float(abs(psi.conj() @ _SIGMA_YY @ psi.conj()))


def wootters_mixed(mat):
    """Two-qubit concurrence max(0, l1 - l2 - l3 - l4), l_i the decreasing
    singular values of sqrt(rho) sqrt(rho~), rho~ = (Y x Y) rho* (Y x Y).

    Square roots of eigenvalues that are zero in exact arithmetic are of
    order 1e-8 in floating point, so this form is good to about 1e-8 on
    rank-deficient input."""
    w, v = np.linalg.eigh(np.asarray(mat, dtype=complex))
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.conj().T
    root_tilde = _SIGMA_YY @ root.conj() @ _SIGMA_YY
    lam = np.linalg.svd(root @ root_tilde, compute_uv=False)
    return float(max(0.0, lam[0] - lam[1:].sum()))


def isotropic_concurrence(d, x):
    """Concurrence of x * MES_d + (1 - x) I / d^2 (Rungta & Caves, PRA 67,
    012307): sqrt(2d/(d-1)) (F - 1/d) with fidelity F = x + (1 - x)/d^2,
    zero when F <= 1/d."""
    f = x + (1 - x) / d ** 2
    return float(max(0.0, np.sqrt(2 * d / (d - 1)) * (f - 1 / d)))
