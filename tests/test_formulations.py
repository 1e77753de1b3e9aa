import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.decomp import check_assembling
from schwarzlab.facets import build_facets, redundancy_basis
from schwarzlab.formulations import (K_COLUMNS, AugmentedLocal, build_dual_system,
                                     exceptional_exchange, exceptional_system,
                                     fetih_assembling_deviation, fetih_build,
                                     fetih_solve, twin_scalar)
from schwarzlab.linalg import SingularMatrixError, SparseFactorization
from schwarzlab.traces import (build_exchange, build_impedance, build_trace)

from conftest import make_instance, primal_reference


def _blocks(aug, dec):
    """Diagonal subdomain blocks of the augmented matrix."""
    return [aug.matrix[a:b, a:b] for a, b in zip(dec.offsets[:-1], dec.offsets[1:])]


class TestAugmented:
    def test_twin_scalar_blocks(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0)
        for block in _blocks(ts.dual.aug, ts.decomp):
            assert block[0, 0] == 2.0
        ts_i = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1j)
        for block in _blocks(ts_i.dual.aug, ts_i.decomp):
            assert block[0, 0] == 1.0 + 1j

    def test_coercive_instance_factorizes(self, coercive_2x2):
        _, _, dec = coercive_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        aug = AugmentedLocal(dec, trace.matrix, imp.matrix, 1.0)
        for block in _blocks(aug, dec):
            assert np.linalg.eigvalsh(block.toarray().real).min() > 0.0

    def test_every_local_factor_is_sparse(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        X = build_exchange(trace, imp, "weighted")
        _, _, dec_d = make_instance(4, 4, 2, 2, boundary="dirichlet")
        system_d = build_facets(dec_d, "bilateral_non_redundant")
        imp_d = build_impedance(build_trace(system_d, dec_d), "lumped_mass", 1.0)
        for aug, d in ((build_dual_system(dec, trace, imp, X, prob.alpha).aug, dec),
                       (exceptional_system(dec).aug, dec),
                       (fetih_build(dec_d, imp_d).aug, dec_d)):
            assert isinstance(aug.factor, SparseFactorization)
            assert aug.factor.size == aug.matrix.shape[0] == d.offsets[-1]


@settings(max_examples=20, deadline=None)
@given(st.booleans(), st.sampled_from(["bilateral_max", "globs"]),
       st.sampled_from([0, 1, 3]), st.integers(0, 2**32 - 1))
def test_sparse_apply_inv_matches_dense(wave, facets, ncols, seed):
    # ncols = 0 draws a 1-D right-hand side
    _, _, dec = make_instance(6, 6, 2, 2, wave=wave, kappa=2.0 if wave else 0.0,
                              eta=2.0 if wave else 1.0)
    trace = build_trace(build_facets(dec, facets), dec)
    imp = build_impedance(trace, "lumped_mass", 2.0)
    aug = AugmentedLocal(dec, trace.matrix, imp.matrix, 1j if wave else 1.0)
    rng = np.random.default_rng(seed)
    shape = (dec.offsets[-1], ncols) if ncols else (dec.offsets[-1],)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.concatenate([np.linalg.solve(block.toarray(), dec.block(g, i))
                          for i, block in enumerate(_blocks(aug, dec))])
    out = aug.apply_inv(g)
    assert out.shape == g.shape
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


class TestScattering:
    def test_zero_scattering(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0)
        lam = np.array([2.0, -3.0 + 1j])
        assert np.max(np.abs(ts.dual.apply_S(lam))) == 0.0

    def test_one_third_block(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0)
        lam = np.array([1.0, -2.0], dtype=complex)
        assert np.allclose(ts.dual.apply_S(lam), lam / 3.0, atol=1e-14)

    def test_zero_input(self, helmholtz_2x2):
        _, prob, dec = helmholtz_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, "weighted")
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        assert np.max(np.abs(dual.apply_S(np.zeros(dual.dim)))) == 0.0

    def test_non_expansive(self, helmholtz_2x2):
        _, prob, dec = helmholtz_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, "weighted")
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        rng = np.random.default_rng(0)
        for _ in range(100):
            lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
            assert dual.norm_Minv(dual.apply_S(lam)) <= dual.norm_Minv(lam) * (1 + 1e-12)


class TestRhsAndRecovery:
    def test_twin_rhs_swap(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0, f=(3.0, 5.0))
        assert np.allclose(ts.dual.rhs_d(), [5.0, 3.0], atol=1e-14)

    def test_zero_load(self):
        ts = twin_scalar(a=(1.0, 2.0), m=1.5, alpha=1.0, f=(0.0, 0.0))
        assert np.max(np.abs(ts.dual.rhs_d())) == 0.0

    def test_twin_primal_recovery(self):
        f1, f2 = 3.0, 5.0
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0, f=(f1, f2))
        u = ts.dual.primal_recover(np.array([f2, f1], dtype=complex))
        assert np.allclose(u, (f1 + f2) / 2.0, atol=1e-14)

    def test_zero_everything(self):
        ts = twin_scalar(f=(0.0, 0.0))
        assert np.max(np.abs(ts.dual.primal_recover(np.zeros(2)))) == 0.0

    @pytest.mark.parametrize("facet_variant,exchange_variant", [
        ("bilateral_properly_closed", "swap"),
        ("bilateral_max", "swap"),
        ("globs", "multiplicity"),
        ("globs", "weighted"),
        ("globs", "glob_local"),
        ("globs", "global"),
    ])
    def test_equivalence_chain(self, helmholtz_2x2, facet_variant, exchange_variant):
        # any dual solution recovers the restricted global solution
        _, prob, dec = helmholtz_2x2
        system = build_facets(dec, facet_variant)
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, exchange_variant)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        Z = redundancy_basis(system, trace).vectors
        lam = dual.solve_direct(deflate=Z if Z.size else None)
        u = dual.primal_recover(lam)
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    def test_dual_kernel_is_redundancy_space(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        system = build_facets(dec, "bilateral_max")
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        X = build_exchange(trace, imp, "swap")
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        K = dual.materialize_K()
        s = np.linalg.svd(K, compute_uv=False)
        nullity = int(np.sum(s <= 1e-10 * s[0]))
        assert nullity == redundancy_basis(system, trace).dimension


class TestBlockApplication:
    @pytest.mark.parametrize("facet_variant,exchange_variant,wave", [
        ("bilateral_max", "swap", True),
        ("globs", "weighted", True),
        ("globs", "glob_local", False),
    ])
    def test_materialize_K_matches_columns(self, helmholtz_2x2, coercive_2x2,
                                           facet_variant, exchange_variant, wave):
        _, prob, dec = helmholtz_2x2 if wave else coercive_2x2
        trace = build_trace(build_facets(dec, facet_variant), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, exchange_variant)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        columns = np.column_stack([dual.apply_K(e) for e in np.eye(dual.dim)])
        K = dual.materialize_K()
        assert np.max(np.abs(K - columns)) <= 1e-13 * max(1.0, np.max(np.abs(columns)))

    def test_materialize_K_in_chunks(self):
        _, prob, dec = make_instance(16, 16, 4, 4)
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        dual = build_dual_system(dec, trace, imp,
                                 build_exchange(trace, imp, "weighted"), prob.alpha)
        assert dual.dim > 2 * K_COLUMNS and dual.dim % K_COLUMNS
        whole = dual.apply_K(np.eye(dual.dim, dtype=np.complex128))
        widths = []
        apply_K = dual.apply_K
        dual.apply_K = lambda lam: widths.append(lam.shape[1]) or apply_K(lam)
        K = dual.materialize_K()
        assert max(widths) == K_COLUMNS and sum(widths) == dual.dim
        assert np.max(np.abs(K - whole)) <= 1e-13 * np.max(np.abs(whole))


class TestPseudoEnergy:
    def test_one_block_solve_per_call(self, helmholtz_2x2):
        _, prob, dec = helmholtz_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, "weighted")
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        solves = []
        apply_inv = dual.aug.apply_inv
        dual.aug.apply_inv = lambda g: solves.append(g) or apply_inv(g)
        lam = np.random.default_rng(4).standard_normal(dual.dim) + 0j
        lhs, rhs, _p = dual.pseudo_energy(lam)
        assert len(solves) == 1
        assert abs(lhs - rhs) <= 1e-10 * rhs

    def test_twin_zero_scattering_split(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0)
        rng = np.random.default_rng(1)
        lam = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        lhs, rhs, p = ts.dual.pseudo_energy(lam)
        # S = 0: all pseudo-energy is lost inside the subdomains
        assert abs(4.0 * p - rhs) <= 1e-12 * rhs
        assert abs(lhs - rhs) <= 1e-12 * rhs

    def test_zero_multiplier(self):
        ts = twin_scalar()
        assert ts.dual.pseudo_energy(np.zeros(2)) == (0.0, 0.0, 0.0)

    @pytest.mark.parametrize("alpha_wave", [False, True])
    def test_identity_random(self, alpha_wave):
        _, prob, dec = make_instance(8, 8, 2, 2, wave=alpha_wave,
                                     kappa=2.0 if alpha_wave else 0.0,
                                     eta=2.0 if alpha_wave else 1.0)
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, "weighted")
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
            lhs, rhs, _p = dual.pseudo_energy(lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs


class TestRobinEquivalence:
    def test_nullspace_split(self):
        # alpha M (I-X) gamma + (I+X^T) tau = 0 iff both terms vanish
        _, prob, dec = make_instance(4, 4, 2, 1, wave=True, kappa=2.0, eta=2.0)
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace, imp, "weighted").matrix
        dim = trace.dim_lambda
        I = np.eye(dim)
        combined = np.hstack([prob.alpha * imp.matrix @ (I - X), I + X.T])
        stacked = np.vstack([np.hstack([I - X, np.zeros((dim, dim))]),
                             np.hstack([np.zeros((dim, dim)), I + X.T])])
        def nullity(mat):
            s = np.linalg.svd(mat, compute_uv=False)
            return mat.shape[1] - int(np.sum(s > 1e-10 * s[0]))
        assert nullity(combined) == nullity(stacked)


def _dense_one_step(decomp):
    """2 R Ahat^{-1} R^T A - I, formed densely."""
    A = decomp.A_blockdiag().toarray().real
    R = decomp.R_stacked().toarray().real
    Ahat = decomp.problem.A_hat().toarray().real
    return 2.0 * R @ np.linalg.solve(Ahat, R.T @ A) - np.eye(A.shape[0])


class TestExceptional:
    def test_twin_swap_matrix(self):
        ts = twin_scalar(a=(1.0, 1.0))
        X = exceptional_exchange(ts.decomp).matrix
        assert np.allclose(X @ np.eye(2), [[0.0, 1.0], [1.0, 0.0]], atol=1e-14)

    @pytest.mark.parametrize("case", ["twin", "coercive_2x2"])
    def test_applied_matches_dense_formula(self, case, request):
        dec = (twin_scalar(a=(1.0, 3.0)).decomp if case == "twin"
               else request.getfixturevalue("coercive_2x2")[2])
        X = exceptional_exchange(dec).matrix
        assert isinstance(X, scipy.sparse.linalg.LinearOperator)
        dense = _dense_one_step(dec)
        n = dense.shape[0]
        rng = np.random.default_rng(7)
        v = rng.standard_normal(n)
        V = rng.standard_normal((n, 3))
        for z in (v, v + 1j * rng.standard_normal(n)):
            assert np.max(np.abs(X @ z - dense @ z)) <= 1e-13
            assert np.max(np.abs(X.T @ z - dense.T @ z)) <= 1e-13
        for Z in (V, V + 1j * rng.standard_normal((n, 3))):
            assert np.max(np.abs(X @ Z - dense @ Z)) <= 1e-13
            assert np.max(np.abs(X.T @ Z - dense.T @ Z)) <= 1e-13

    def test_involution_and_A_isometry(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        X = exceptional_exchange(dec).matrix
        n = X.shape[0]
        X = X @ np.eye(n)
        assert np.max(np.abs(X @ X - np.eye(n))) <= 1e-10
        A = dec.A_blockdiag().toarray().real
        assert np.max(np.abs(X.T @ A @ X - A)) <= 1e-10 * np.max(np.abs(A))

    def test_one_step_convergence(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        dual = exceptional_system(dec)
        u1 = dual.primal_recover(dual.rhs_d())     # one undamped update from zero
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u1 - u_ref) <= 1e-10 * np.linalg.norm(prob.f)

    def test_wave_rejected(self, helmholtz_2x2):
        _, _, dec = helmholtz_2x2
        with pytest.raises(ValueError):
            exceptional_exchange(dec)

    def test_interior_subdomain_is_singular(self):
        # the middle subdomain of laplace 3x3 floats: 2 A_4 is singular
        _, _, dec = make_instance(12, 12, 3, 3, boundary="dirichlet")
        with pytest.raises(SingularMatrixError, match="augmented-invertibility"):
            exceptional_system(dec)


class TestFetiH:
    def build(self, dec, variant="bilateral_non_redundant", sigma=1.0):
        system = build_facets(dec, variant)
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", sigma)
        return fetih_build(dec, imp)

    def test_two_subdomain_signs(self):
        _, _, dec = make_instance(4, 4, 2, 1, boundary="dirichlet")
        fh = self.build(dec)
        assert list(fh.signs) == [1, -1]
        assert fh.tree_pairs == ((0, 1),)

    def test_2x2_tree_touches_all(self):
        _, _, dec = make_instance(4, 4, 2, 2, boundary="dirichlet")
        fh = self.build(dec)
        assert len(fh.tree_pairs) == 3
        touched = set()
        for a, b in fh.tree_pairs:
            assert fh.signs[a] == -fh.signs[b]
            touched.update((a, b))
        assert touched == set(range(4))

    def test_assembling_exact(self):
        _, _, dec = make_instance(8, 8, 2, 2, boundary="dirichlet",
                                  wave=True, kappa=2.0)
        fh = self.build(dec)
        assert fetih_assembling_deviation(fh) == 0.0

    def test_solve_matches_oracle(self):
        _, prob, dec = make_instance(8, 8, 2, 2, boundary="dirichlet",
                                     wave=True, kappa=2.0,
                                     source="point:0.3,0.4")
        fh = self.build(dec, sigma=2.0)
        u, _lam, hist = fetih_solve(fh, tol=1e-12)
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)

    def test_zero_load(self):
        import dataclasses
        _, _, dec = make_instance(4, 4, 2, 1, boundary="dirichlet")
        fh = dataclasses.replace(self.build(dec),
                                 f=np.zeros_like(dec.f_concat))
        u, _lam, _hist = fetih_solve(fh, tol=1e-12)
        assert np.max(np.abs(u)) <= 1e-12

    def test_lossy_rejected(self, helmholtz_2x2):
        _, _, dec = helmholtz_2x2       # Robin boundary carries loss
        with pytest.raises(ValueError):
            self.build(dec)

    def test_glob_system_rejected(self):
        _, _, dec = make_instance(4, 4, 2, 1, boundary="dirichlet")
        system = build_facets(dec, "globs")
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        with pytest.raises(ValueError):
            fetih_build(dec, imp)
