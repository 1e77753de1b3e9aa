import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.linalg import (PIVOT_TOL, DenseFactorization, SingularMatrixError,
                               SparseFactorization, SparseMatrix,
                               WeightedInnerProduct, factorize, gmres,
                               load_matrix_market, save_matrix_market, spmv)


class TestSpmv:
    def test_identity(self):
        A = SparseMatrix.identity(3)
        assert np.array_equal(spmv(A, [1.0, 2.0, 3.0]), [1, 2, 3])

    def test_zero(self):
        A = SparseMatrix.from_dense(np.zeros((2, 2)))
        assert np.array_equal(spmv(A, [5.0, 7.0]), [0, 0])

    def test_permutation(self):
        A = SparseMatrix.from_dense([[0, 1], [1, 0]])
        a, b = 2.0 + 1j, -3.0
        assert np.array_equal(spmv(A, [a, b]), [b, a])

    def test_dimension_mismatch(self):
        A = SparseMatrix.identity(3)
        with pytest.raises(ValueError):
            spmv(A, [1.0, 2.0])


class TestFactorize:
    def test_scalar(self):
        fac = factorize(SparseMatrix.from_dense([[2.0]]))
        assert fac.solve([4.0])[0] == 2.0

    def test_diagonal_complex(self):
        fac = factorize(np.diag([1.0, 1j]))
        x = fac.solve([1.0, 1.0])
        assert np.allclose(x, [1.0, -1j], atol=1e-15)

    def test_twin_augmented_alpha_i(self):
        # a = 1, m = 1, alpha = i: augmented blocks are 1 + i
        fac = factorize(np.diag([1 + 1j, 1 + 1j]))
        x = fac.solve([2.0, 2j])
        assert np.allclose(x, [1 - 1j, 1 + 1j], atol=1e-14)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            factorize(np.array([[1.0, 2.0], [2.0, 4.0]]))

    @pytest.mark.parametrize("n", [1, 5, 37, 200])
    def test_roundtrip_random(self, n):
        rng = np.random.default_rng(n)
        A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A += n * np.eye(n)           # keep it well conditioned
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        out = factorize(A).solve(A @ x)
        assert np.linalg.norm(out - x) <= 1e-10 * np.linalg.norm(x)


class TestSparseFactorize:
    def test_sparse_inputs_take_the_sparse_path(self):
        A = np.array([[4.0, 1.0], [1.0, 3.0]])
        for sparse in (SparseMatrix.from_dense(A), scipy.sparse.csr_array(A)):
            assert isinstance(factorize(sparse), SparseFactorization)
        assert isinstance(factorize(A), DenseFactorization)

    def test_wrong_length_rejected(self):
        fac = factorize(SparseMatrix.identity(3))
        with pytest.raises(ValueError):
            fac.solve(np.ones(2))

    @pytest.mark.parametrize("dense", [
        [[1.0, 2.0], [0.0, 0.0]],              # zero row: exactly singular
        [[0.0, 0.0], [0.0, 0.0]],
        [[1.0, 0.0], [0.0, 0.1 * PIVOT_TOL]],  # singular only to tolerance
        [[1.0, 1.0], [1.0, 1.0 + 0.5 * PIVOT_TOL]],
    ])
    def test_singular_rejected(self, dense):
        with pytest.raises(SingularMatrixError):
            factorize(SparseMatrix.from_dense(dense))
        with pytest.raises(SingularMatrixError):
            factorize(np.array(dense))


class TestWeightedInnerProduct:
    def test_positive(self):
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        ip = WeightedInnerProduct(W)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert ip.dot(x, x).real > 0.0

    def test_inverse_mode(self):
        W = np.diag([2.0, 4.0])
        ip = WeightedInnerProduct(W, mode="M_inverse")
        x = np.array([2.0, 2.0])
        assert ip.dot(x, x) == pytest.approx(4 / 2 + 4 / 4)

    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError):
            WeightedInnerProduct(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_reuses_given_factorization(self):
        W = np.array([[2.0, 1.0], [1.0, 3.0]])
        fac = factorize(W)
        ip = WeightedInnerProduct(W, mode="M_inverse", factorization=fac)
        assert ip._fac is fac
        x = np.array([1.0, -2.0])
        assert ip.dot(x, x) == pytest.approx(x @ np.linalg.solve(W, x), abs=1e-14)
        with pytest.raises(ValueError):
            WeightedInnerProduct(np.eye(3), mode="M_inverse", factorization=fac)


def _spd(rng, n):
    B = rng.standard_normal((n, n))
    return B @ B.T + n * np.eye(n)


def _weighted_minimizer(A, b, W, k):
    """argmin of |b - A x|_W over the k-th Krylov space, by dense algebra."""
    basis = [b / np.linalg.norm(b)]
    for _ in range(k - 1):
        v = A @ basis[-1]
        basis.append(v / np.linalg.norm(v))
    Q, _ = np.linalg.qr(np.array(basis).T)
    L = np.linalg.cholesky(W)                 # |r|_W = |L^H r|_2
    y, *_ = np.linalg.lstsq(L.conj().T @ (A @ Q), L.conj().T @ b, rcond=None)
    x = Q @ y
    r = b - A @ x
    return x, np.sqrt(np.vdot(r, W @ r).real / np.vdot(b, W @ b).real)


class TestGmres:
    def test_identity_one_iteration(self):
        b = np.array([1.0, -2.0, 3.0 + 1j])
        x, hist = gmres(lambda v: v, b, tol=1e-12)
        assert len(hist) == 2 and hist[-1] <= 1e-12
        assert np.allclose(x, b, atol=1e-14)

    def test_two_eigenvalues(self):
        D = np.diag([1.0, 2.0])
        x, hist = gmres(lambda v: D @ v, np.array([1.0, 1.0]), tol=1e-12)
        assert len(hist) - 1 <= 2
        assert np.allclose(x, [1.0, 0.5], atol=1e-12)

    def test_twin_scalar_dual_system(self):
        from schwarzlab.formulations import twin_scalar
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(3.0, 5.0))
        d = ts.dual.rhs_d()
        x, _ = gmres(ts.dual.apply_K, d, tol=1e-13)
        direct = np.linalg.solve(ts.dual.materialize_K(), d)
        assert np.linalg.norm(x - direct) <= 1e-12

    def test_weighted_monotone_residual(self):
        rng = np.random.default_rng(7)
        n = 30
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = B.conj().T @ B + n * np.eye(n)    # Hermitian positive definite
        W = np.diag(rng.uniform(0.5, 2.0, n))
        ip = WeightedInnerProduct(W, mode="M_inverse")
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-12)
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))

    @pytest.mark.parametrize("mode", ["M", "M_inverse"])
    def test_weighted_least_squares_every_step(self, mode):
        # complex non-symmetric operator, non-diagonal SPD weight
        rng = np.random.default_rng(5)
        n = 7
        A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             + 3.0 * np.eye(n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Wmat = _spd(rng, n)
        ip = WeightedInnerProduct(Wmat, mode=mode)
        W = Wmat if mode == "M" else np.linalg.inv(Wmat)
        for k in range(1, n + 1):
            x, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-300, maxit=k)
            x_ls, res_ls = _weighted_minimizer(A, b, W, k)
            assert len(hist) == k + 1
            assert np.linalg.norm(x - x_ls) <= 1e-9 * np.linalg.norm(x_ls)
            assert hist[-1] == pytest.approx(res_ls, rel=1e-6, abs=1e-12)

    @pytest.mark.parametrize("with_x0", [False, True])
    def test_one_weight_application_per_krylov_vector(self, with_x0):
        rng = np.random.default_rng(9)
        n = 40
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        Wmat = _spd(rng, n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        class CountingWeight(WeightedInnerProduct):
            calls = 0

            def apply_weight(self, x):
                self.calls += 1
                return super().apply_weight(x)

        ip = CountingWeight(Wmat, mode="M_inverse")
        x0 = rng.standard_normal(n) if with_x0 else None
        x, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-12, x0=x0)
        iterations = len(hist) - 1
        assert hist[-1] <= 1e-12 and iterations > 5
        assert ip.calls <= iterations + 2
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.4)
        dense = dense + 1j * rng.standard_normal((5, 7)) * (dense != 0)
        A = SparseMatrix.from_dense(dense)
        path = tmp_path / "A.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
        assert B.shape == A.shape
        assert np.allclose(B.to_dense(), A.to_dense(), atol=1e-15)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.integers(0, 2**32 - 1))
def test_factorize_solve_property(n, seed):
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    A += (n + 1) * np.eye(n)
    x = rng.standard_normal(n)
    out = factorize(A).solve(A @ x)
    assert np.linalg.norm(out - x) <= 1e-10 * max(np.linalg.norm(x), 1.0)


@settings(max_examples=25, deadline=None)
@given(st.integers(1, 40), st.floats(0.02, 0.5), st.integers(0, 2**32 - 1))
def test_sparse_factorize_matches_dense(n, density, seed):
    rng = np.random.default_rng(seed)
    S = scipy.sparse.random_array((n, n), density=density, rng=rng, dtype=np.complex128)
    A = (S + scipy.sparse.eye_array(n, dtype=np.complex128) * (n + 1)).tocsr()
    B = rng.standard_normal((n, 3)) + 1j * rng.standard_normal((n, 3))
    x_sparse = factorize(A).solve(B)
    x_dense = factorize(A.toarray()).solve(B)
    assert np.linalg.norm(x_sparse - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
