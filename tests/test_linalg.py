import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.cli import build_instance, load_config
from schwarzlab.linalg import (PIVOT_TOL, GmresBreakdownError, SingularMatrixError,
                               SparseFactorization, WeightedInnerProduct, accumulate,
                               bordered, factorize, gmres, load_matrix_market,
                               save_matrix_market)

from conftest import solve_based_K, twin_scalar


class TestAccumulate:
    def test_duplicates_summed_left_to_right(self):
        rows, cols = [1, 0, 1, 1, 1], [0, 2, 0, 1, 0]
        vals = [1e16, 2.0, 1.0, 3.0 + 1j, -1e16]
        A = accumulate(rows, cols, vals, (2, 3))
        assert isinstance(A, scipy.sparse.csr_array) and A.dtype == np.complex128
        assert A.nnz == 3 and A.has_sorted_indices
        # (1e16 + 1) - 1e16 is 0 in appearance order, 1 in any sorted order
        assert np.array_equal(A.toarray(), [[0, 0, 2], [0, 3 + 1j, 0]])
        v = accumulate(rows, None, vals, (3,))
        assert v.dtype == np.complex128
        assert np.array_equal(v, [2.0, ((1e16 + 1.0) + (3.0 + 1j)) - 1e16, 0.0])

    def test_empty(self):
        assert accumulate([], [], [], (2, 2)).nnz == 0
        assert np.array_equal(accumulate([], None, [], (2,)), [0.0, 0.0])


def _grouped_reference(keys, values):
    """Each key's values gathered in order of appearance, then reduced.

    np.add.reduceat adds a group's first member to numpy's pairwise sum of
    the others, which a plain left-to-right loop does not reproduce, so each
    gathered group is reduced by that same call on its own.
    """
    groups = {}
    for key, value in zip(keys, values):
        groups.setdefault(key, []).append(complex(value))
    return {key: np.add.reduceat(np.array(group), [0])[0]
            for key, group in sorted(groups.items())}


# heavy duplication (4 x 3 slots) and magnitudes 1e16 apart, so that
# 1e16 + 1 - 1e16 cancels differently in any order but appearance order
_MAGNITUDE = st.sampled_from([1e16, -1e16, 1.0, -1.0, 3.0, 1e-16, 0.0, -0.0])
_VALUE = st.one_of(_MAGNITUDE, st.floats(-1e3, 1e3, allow_nan=False))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_accumulate_sums_each_group_in_order_of_appearance(data):
    n = data.draw(st.integers(0, 60))
    entries = st.lists(st.integers(0, 3), min_size=n, max_size=n)
    rows, cols = data.draw(entries), data.draw(entries.map(lambda e: [k % 3 for k in e]))
    parts = data.draw(st.lists(
        st.lists(st.builds(complex, _VALUE, _VALUE), min_size=n, max_size=n),
        min_size=1, max_size=3))
    listed = accumulate(rows, cols, [np.array(p, dtype=np.complex128) for p in parts], (4, 3))
    assert len(listed) == len(parts)
    for A, values in zip([accumulate(rows, cols, parts[0], (4, 3))] + listed,
                         [parts[0]] + parts):
        expected = _grouped_reference(zip(rows, cols), values)
        assert isinstance(A, scipy.sparse.csr_array) and A.shape == (4, 3)
        keys = np.repeat(np.arange(4), np.diff(A.indptr)) * 3 + A.indices
        assert np.all(np.diff(keys) > 0)         # sorted indices, no duplicates
        assert [divmod(int(k), 3) for k in keys] == list(expected)
        assert A.data.tobytes() == np.array(list(expected.values()),
                                            dtype=np.complex128).tobytes()
    vectors = accumulate(rows, None, [np.array(p, dtype=np.complex128) for p in parts], (4,))
    for v, values in zip([accumulate(rows, None, parts[0], (4,))] + vectors,
                         [parts[0]] + parts):
        expected = np.zeros(4, dtype=np.complex128)
        for row, total in _grouped_reference(rows, values).items():
            expected[row] = total
        assert v.tobytes() == expected.tobytes()


class TestFactorize:
    def test_scalar(self):
        fac = factorize(scipy.sparse.csr_array([[2.0]]))
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
        for given in (scipy.sparse.csc_array(A), scipy.sparse.csr_array(A), A):
            assert isinstance(factorize(given), SparseFactorization)

    def test_transpose_solve(self):
        A = np.array([[4.0, 1.0j], [2.0, 3.0]])
        B = np.array([[1.0, 2.0], [-1.0, 1j]])
        fac = factorize(A)
        assert np.allclose(A.T @ fac.solve(B, trans="T"), B, atol=1e-14)
        assert np.allclose(A.T @ fac.solve(B[:, 0], trans="T"), B[:, 0], atol=1e-14)

    def test_wrong_length_rejected(self):
        fac = factorize(scipy.sparse.eye_array(3, format="csr"))
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
            factorize(scipy.sparse.csr_array(dense))
        with pytest.raises(SingularMatrixError):
            factorize(np.array(dense))


def _bordered_cycle() -> np.ndarray:
    """[[S^H S, Z], [Z^H, 0]] for a complex 4-cycle incidence S, ker S = span Z."""
    S = (np.eye(4) - np.roll(np.eye(4), 1, axis=1)) * np.exp(0.3j)
    Z = np.ones((4, 1))
    return np.block([[S.conj().T @ S, Z], [Z.T, np.zeros((1, 1))]])


class TestBordered:
    def test_matches_the_dense_block(self):
        S = (np.eye(4) - np.roll(np.eye(4), 1, axis=1)) * np.exp(0.3j)
        A = scipy.sparse.csr_array(S.conj().T @ S)
        assert np.array_equal(bordered(A, np.ones((4, 1))).toarray(), _bordered_cycle())

    @pytest.mark.parametrize("Z", [None, np.zeros((4, 0))], ids=["none", "no_columns"])
    def test_no_basis_returns_the_matrix(self, Z):
        A = scipy.sparse.eye_array(4, format="csr")
        assert bordered(A, Z) is A


class TestPartialPivoting:
    """The symmetric ordering keeps threshold-1 partial pivoting."""

    @pytest.mark.parametrize("dense", [
        # whichever index the ordering eliminates first, one of the two
        # needs a row swap at the tiny diagonal
        [[1e-14, 1.0], [1.0, 1.0]],
        [[1.0, 1.0], [1.0, 1e-14]],
        [[0.99, 1.0], [1.0, 0.99]],             # every order needs a row swap
        _bordered_cycle(),                      # zero diagonal block
    ])
    def test_off_diagonal_pivot(self, dense):
        A = np.array(dense, dtype=np.complex128)
        fac = factorize(A)                      # passes the PIVOT_TOL check
        # partial pivoting bounds every multiplier by 1; a pivot threshold
        # below 1 takes a smaller diagonal and a multiplier above 1
        assert np.abs(fac.lu.L.data).max() <= 1.0
        b = np.arange(1.0, len(A) + 1.0) + 1j
        x = fac.solve(b)
        assert np.linalg.norm(A @ x - b) <= 1e-14 * np.linalg.norm(b)


def test_symmetric_ordering_reduces_fill():
    """MMD on A + A^T fills less than SuperLU's COLAMD default."""
    cfg = load_config(preset="loisel", overrides={
        "problem.nx": "32", "problem.ny": "32",
        "decomposition.px": "4", "decomposition.py": "4"})
    inst = build_instance(cfg)
    for A in (inst.dual.aug.matrix, inst.problem.A_hat()):
        ours = factorize(A).lu
        colamd = scipy.sparse.linalg.splu(scipy.sparse.csc_array(A), permc_spec="COLAMD")
        assert ours.L.nnz + ours.U.nnz < colamd.L.nnz + colamd.U.nnz


class TestWeightedInnerProduct:
    def test_positive(self):
        W = np.array([[2.0, 1.0], [1.0, 2.0]])
        ip = WeightedInnerProduct(factorize(W).solve)
        rng = np.random.default_rng(0)
        for _ in range(20):
            x = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            assert ip.dot(x, x).real > 0.0

    def test_inverse_mode(self):
        W = np.diag([2.0, 4.0])
        ip = WeightedInnerProduct(factorize(W).solve)
        x = np.array([2.0, 2.0])
        assert ip.dot(x, x) == pytest.approx(4 / 2 + 4 / 4)


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
    def test_zero_operator_breaks_down(self):
        # K V = 0 leaves a zero Hessenberg column: no rotation can eliminate it
        with pytest.raises(GmresBreakdownError) as info:
            gmres(lambda v: 0.0 * v, np.array([1.0, 2.0j]))
        assert info.value.iteration == 0

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

    def test_non_finite_arnoldi_vector_stops_at_once(self):
        b = np.array([1.0, -2.0, 3.0 + 1j])
        x, hist = gmres(lambda v: np.full_like(v, np.nan), b, tol=1e-12)
        assert len(hist) == 2 and hist[0] == 1.0 and np.isnan(hist[-1])
        assert not np.any(x)

    def test_twin_scalar_dual_system(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(3.0, 5.0))
        d = ts.dual.rhs_d()
        x, _ = gmres(ts.dual.apply_K, d, tol=1e-13)
        direct = np.linalg.solve(solve_based_K(ts.dual), d)
        assert np.linalg.norm(x - direct) <= 1e-12

    def test_weighted_monotone_residual(self):
        rng = np.random.default_rng(7)
        n = 30
        B = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        A = B.conj().T @ B + n * np.eye(n)    # Hermitian positive definite
        W = np.diag(rng.uniform(0.5, 2.0, n))
        ip = WeightedInnerProduct(factorize(W).solve)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        _, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-12)
        assert all(b <= a + 1e-14 for a, b in zip(hist, hist[1:]))

    def test_weighted_least_squares_every_step(self):
        # complex non-symmetric operator, non-diagonal SPD M, M^-1 inner product
        rng = np.random.default_rng(5)
        n = 7
        A = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
             + 3.0 * np.eye(n))
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        Wmat = _spd(rng, n)
        ip = WeightedInnerProduct(factorize(Wmat).solve)
        W = np.linalg.inv(Wmat)
        for k in range(1, n + 1):
            x, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-300, maxit=k)
            x_ls, res_ls = _weighted_minimizer(A, b, W, k)
            assert len(hist) == k + 1
            assert np.linalg.norm(x - x_ls) <= 1e-9 * np.linalg.norm(x_ls)
            assert hist[-1] == pytest.approx(res_ls, rel=1e-6, abs=1e-12)

    def test_three_weight_applications_per_krylov_vector(self):
        rng = np.random.default_rng(9)
        n = 40
        A = np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n)
        Wmat = _spd(rng, n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)

        solve, calls = factorize(Wmat).solve, []
        ip = WeightedInnerProduct(lambda x: calls.append(1) or solve(x))
        x, hist = gmres(lambda v: A @ v, b, ip=ip, tol=1e-12)
        iterations = len(hist) - 1
        assert hist[-1] <= 1e-12 and iterations > 5
        # one for the initial residual b, which also gives |b|; per step one
        # before each Gram-Schmidt pass and one for the new vector's norm
        assert len(calls) == 3 * iterations + 1
        assert np.linalg.norm(A @ x - b) <= 1e-9 * np.linalg.norm(b)

    def test_basis_grows_with_the_iterations_run(self):
        # maxit defaults to n; a basis sized by maxit would take n^2 * 16 bytes
        rng = np.random.default_rng(10)
        n = 3000
        diagonal = 1.0 + 0.1 * rng.random(n)
        b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        tracemalloc.start()
        try:
            x, hist = gmres(lambda v: diagonal * v, b, tol=1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        iterations = len(hist) - 1
        assert hist[-1] <= 1e-12 and 5 < iterations < 30
        # a basis of capacity at most 2 * (iterations + 1) rows, plus vectors
        assert peak < (2 * (iterations + 1) + 8) * n * 16
        assert np.linalg.norm(diagonal * x - b) <= 1e-9 * np.linalg.norm(b)


class TestMatrixMarket:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        dense = rng.standard_normal((5, 7)) * (rng.random((5, 7)) < 0.4)
        dense = dense + 1j * rng.standard_normal((5, 7)) * (dense != 0)
        A = scipy.sparse.csr_array(dense)
        path = tmp_path / "A.mtx"
        save_matrix_market(path, A)
        B = load_matrix_market(path)
        assert isinstance(B, scipy.sparse.csr_array) and B.dtype == np.complex128
        assert B.shape == A.shape
        assert np.allclose(B.toarray(), A.toarray(), atol=1e-15)


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
    x_dense = np.linalg.solve(A.toarray(), B)
    assert np.linalg.norm(x_sparse - x_dense) <= 1e-12 * np.linalg.norm(x_dense)
