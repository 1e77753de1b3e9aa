import numpy as np
import pytest
import scipy.sparse.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab import formulations
from schwarzlab.cli import build_instance, load_config
from schwarzlab.decomp import check_assembling
from schwarzlab.facets import VARIANTS, build_facets, redundancy_basis
from schwarzlab.formulations import (K_COLUMNS, AugmentedLocal, build_dual_system,
                                     exceptional_exchange, exceptional_system,
                                     fetih_assembling_deviation, fetih_build,
                                     fetih_solve)
from schwarzlab.linalg import SingularMatrixError, SparseFactorization
from schwarzlab.traces import (IMPEDANCE_VARIANTS, build_exchange, build_impedance,
                               build_trace)

from conftest import (assert_reflection_form, make_instance, primal_reference,
                      solve_based_K, twin_scalar)


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
        aug = AugmentedLocal(dec, trace.matrix, imp, 1.0)
        for block in _blocks(aug, dec):
            assert np.linalg.eigvalsh(block.toarray().real).min() > 0.0

    def test_every_local_factor_is_sparse(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        X = build_exchange(trace)
        _, _, dec_d = make_instance(4, 4, 2, 2, boundary="dirichlet")
        system_d = build_facets(dec_d, "bilateral_non_redundant")
        trace_d = build_trace(system_d, dec_d)
        imp_d = build_impedance(trace_d, "lumped_mass", 1.0)
        for aug, d in ((build_dual_system(dec, trace, imp, X, prob.alpha).aug, dec),
                       (exceptional_system(dec).aug, dec),
                       (fetih_build(dec_d, trace_d, imp_d).aug, dec_d)):
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
    aug = AugmentedLocal(dec, trace.matrix, imp, 1j if wave else 1.0)
    rng = np.random.default_rng(seed)
    shape = (dec.offsets[-1], ncols) if ncols else (dec.offsets[-1],)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    ref = np.concatenate([np.linalg.solve(block.toarray(), g[a:b]) for block, a, b
                          in zip(_blocks(aug, dec), dec.offsets[:-1], dec.offsets[1:])])
    out = aug.apply_inv(g)
    assert out.shape == g.shape
    assert np.linalg.norm(out - ref) <= 1e-12 * np.linalg.norm(ref)


@settings(max_examples=25, deadline=None)
@given(st.sampled_from([(4, 4, 2, 2), (6, 4, 3, 2), (8, 8, 4, 4), (6, 6, 2, 3)]),
       st.sampled_from(VARIANTS), st.sampled_from(IMPEDANCE_VARIANTS),
       st.booleans(), st.sampled_from([0.5, 2.0, 8.0]))
def test_K_kernel_identities(size, facets, impedance, wave, sigma):
    # K Z = 0 and Z^H M^-1 K = 0: the bordered reference solve rests on both
    nx, ny, px, py = size
    _, prob, dec = make_instance(nx, ny, px, py, wave=wave, kappa=2.0 if wave else 0.0,
                                 eta=2.0 if wave else 1.0)
    system = build_facets(dec, facets)
    trace = build_trace(system, dec)
    imp = build_impedance(trace, impedance, sigma)
    dual = build_dual_system(dec, trace, imp, build_exchange(trace), prob.alpha)
    Z = redundancy_basis(system, trace).toarray().astype(np.complex128)
    K = dual.K
    WZ = dual.ip.apply_weight(Z)            # M^-1 Z, M Hermitian
    scale = float(abs(K).max())
    assert np.abs(K @ Z).max(initial=0.0) <= 1e-13 * scale
    assert np.abs(WZ.conj().T @ K).max(initial=0.0) <= (
        1e-13 * scale * np.abs(WZ).max(initial=0.0))


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
        X = build_exchange(trace)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        assert np.max(np.abs(dual.apply_S(np.zeros(dual.dim)))) == 0.0

    def test_non_expansive(self, helmholtz_2x2):
        _, prob, dec = helmholtz_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace)
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

    @pytest.mark.parametrize("facet_variant,form", [
        ("bilateral_properly_closed", "swap"),
        ("bilateral_max", "swap"),
        ("globs", "multiplicity"),
        ("globs", "weighted"),
        ("globs", "glob_local"),
        ("globs", "global"),
    ])
    def test_equivalence_chain(self, helmholtz_2x2, facet_variant, form):
        # any dual solution recovers the restricted global solution
        _, prob, dec = helmholtz_2x2
        system = build_facets(dec, facet_variant)
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace)
        assert_reflection_form(trace, imp, X, form)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        Z = redundancy_basis(system, trace)
        lam = dual.solve_direct(dual.rhs_d(), Z)
        u = dual.primal_recover(lam)
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u - u_ref) <= 1e-10 * np.linalg.norm(u_ref)

    @pytest.mark.parametrize("facet_variant,wave", [
        ("bilateral_max", False), ("bilateral_properly_closed", True), ("globs", True)])
    def test_solve_direct_is_the_minimum_norm_solution(self, facet_variant, wave):
        # the bordered LU against a dense least-squares solve of the
        # solve-based K; 27, 9 and 0 cycles
        _, prob, dec = make_instance(8, 8, 4, 4, wave=wave, kappa=2.0 if wave else 0.0,
                                     eta=2.0 if wave else 1.0, source="point:0.3,0.4")
        system = build_facets(dec, facet_variant)
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        dual = build_dual_system(dec, trace, imp, build_exchange(trace), prob.alpha)
        K = solve_based_K(dual)
        d = dual.rhs_d()
        expected = np.linalg.lstsq(K, d, rcond=None)[0]
        lam = dual.solve_direct(d, redundancy_basis(system, trace))
        assert np.linalg.norm(lam - expected) <= 1e-12 * np.linalg.norm(expected)

    def test_dual_kernel_is_redundancy_space(self, coercive_2x2):
        _, prob, dec = coercive_2x2
        system = build_facets(dec, "bilateral_max")
        trace = build_trace(system, dec)
        imp = build_impedance(trace, "lumped_mass", 1.0)
        X = build_exchange(trace)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        K = solve_based_K(dual)
        s = np.linalg.svd(K, compute_uv=False)
        nullity = int(np.sum(s <= 1e-10 * s[0]))
        assert nullity == redundancy_basis(system, trace).shape[1]


class TestBlockApplication:
    # form: the closed form of the reflection that X is checked against
    @pytest.mark.parametrize("nx,px,py,facet_variant,form,impedance,wave", [
        pytest.param(8, 2, 2, "bilateral_max", "swap", "lumped_mass", True,
                     id="bilateral_max-swap-True"),
        pytest.param(8, 2, 2, "globs", "weighted", "lumped_mass", True,
                     id="globs-weighted-True"),
        pytest.param(8, 2, 2, "globs", "glob_local", "lumped_mass", False,
                     id="globs-glob_local-False"),
        # trace blocks of 9, 13 and 16 slots
        pytest.param(16, 4, 4, "globs", "weighted", "lumped_mass", False,
                     id="unequal_blocks"),
        pytest.param(16, 4, 1, "globs", "weighted", "lumped_mass", False, id="strip"),
        pytest.param(8, 2, 2, "globs", "glob_local", "glob_block", False,
                     id="glob_block"),
        # 9 cycles
        pytest.param(16, 4, 4, "bilateral_properly_closed", "swap", "lumped_mass",
                     True, id="bilateral_wave_cycles"),
    ])
    def test_materialize_K_matches_columns(self, nx, px, py, facet_variant,
                                           form, impedance, wave):
        _, prob, dec = make_instance(nx, nx, px, py, wave=wave,
                                     kappa=2.0 if wave else 0.0,
                                     eta=2.0 if wave else 1.0,
                                     source="point:0.3,0.4")
        trace = build_trace(build_facets(dec, facet_variant), dec)
        imp = build_impedance(trace, impedance, 2.0)
        X = build_exchange(trace)
        assert_reflection_form(trace, imp, X, form)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        columns = solve_based_K(dual)
        K = dual.K.toarray()
        if impedance != "glob_block":
            assert np.array_equal(K, columns)
        else:
            scale = max(1.0, np.max(np.abs(columns)))
            assert np.max(np.abs(K - columns)) <= 1e-13 * scale

    def test_materialize_K_in_chunks(self):
        # strip 64x64, 4x1: trace blocks of 65, 130, 130 and 65 slots
        _, prob, dec = make_instance(64, 64, 4, 1)
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        dual = build_dual_system(dec, trace, imp,
                                 build_exchange(trace), prob.alpha)
        largest = max(sum(1 for i, _f, _k in trace.slots if i == s)
                      for s in range(dec.n_sub))
        assert largest > 2 * K_COLUMNS and largest % K_COLUMNS
        widths = []
        apply_inv = dual.aug.apply_inv
        dual.aug.apply_inv = lambda g: widths.append(g.shape[1]) or apply_inv(g)
        assert dual.N.shape == (dual.dim, dual.dim)
        # one packed column per slot of the largest trace block, not per trace slot
        assert max(widths) == K_COLUMNS and sum(widths) == largest
        dual.aug.apply_inv = apply_inv
        whole = solve_based_K(dual)
        K = dual.K.toarray()
        assert np.max(np.abs(K - whole)) <= 1e-13 * np.max(np.abs(whole))

    @pytest.mark.parametrize("nx,px,py,facet_variant,impedance,wave", [
        # trace blocks of 65, 130, 130 and 65 slots
        pytest.param(64, 4, 1, "globs", "lumped_mass", False, id="strip"),
        pytest.param(16, 4, 4, "bilateral_properly_closed", "lumped_mass", True,
                     id="bilateral_wave_cycles"),
        pytest.param(16, 4, 4, "globs", "glob_block", False, id="glob_block"),
    ])
    def test_materialize_K_is_bitwise_the_same_at_every_width(
            self, nx, px, py, facet_variant, impedance, wave, monkeypatch):
        _, prob, dec = make_instance(nx, nx, px, py, wave=wave,
                                     kappa=2.0 if wave else 0.0,
                                     eta=2.0 if wave else 1.0,
                                     source="point:0.3,0.4")
        trace = build_trace(build_facets(dec, facet_variant), dec)
        imp = build_impedance(trace, impedance, 2.0)
        X = build_exchange(trace)
        K = {}
        for width in (1, 8, 64):
            monkeypatch.setattr(formulations, "K_COLUMNS", width)
            # a fresh system per width: each builds its own N
            dual = build_dual_system(dec, trace, imp, X, prob.alpha)
            K[width] = dual.K.toarray()
        assert K[1].tobytes() == K[8].tobytes() == K[64].tobytes()

    @pytest.mark.parametrize("nx,px,py,facet_variant,impedance,wave", [
        pytest.param(16, 4, 4, "globs", "lumped_mass", False, id="globs"),
        pytest.param(16, 4, 4, "bilateral_properly_closed", "lumped_mass", False,
                     id="bilateral_cycles"),
        pytest.param(16, 4, 4, "globs", "glob_block", False, id="glob_block"),
        pytest.param(16, 2, 2, "bilateral_max", "lumped_mass", True, id="helmholtz"),
    ])
    def test_apply_K_through_N_matches_the_solve(self, nx, px, py, facet_variant,
                                                 impedance, wave):
        _, prob, dec = make_instance(nx, nx, px, py, wave=wave,
                                     kappa=2.0 if wave else 0.0,
                                     eta=2.0 if wave else 1.0,
                                     source="point:0.3,0.4")
        trace = build_trace(build_facets(dec, facet_variant), dec)
        imp = build_impedance(trace, impedance, 2.0)
        dual = build_dual_system(dec, trace, imp, build_exchange(trace), prob.alpha)
        rng = np.random.default_rng(3)
        lam = rng.standard_normal((dual.dim, 3)) + 1j * rng.standard_normal((dual.dim, 3))
        solved = np.column_stack([dual.apply_K_and_loss(col)[0] for col in lam.T])
        for through_N, ref in ((dual.apply_K(lam), solved),
                               (dual.apply_K(lam[:, 0]), solved[:, 0])):
            assert np.linalg.norm(through_N - ref) <= 1e-14 * np.linalg.norm(ref)


class TestPseudoEnergy:
    def test_one_block_solve_per_call(self, helmholtz_2x2):
        _, prob, dec = helmholtz_2x2
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace)
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
        X = build_exchange(trace)
        dual = build_dual_system(dec, trace, imp, X, prob.alpha)
        rng = np.random.default_rng(2)
        for _ in range(50):
            lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
            lhs, rhs, _p = dual.pseudo_energy(lam)
            assert abs(lhs - rhs) <= 1e-10 * rhs


@pytest.mark.parametrize("preset,overrides", [
    ("loisel", {"decomposition.px": "4", "decomposition.py": "4"}),
    ("feti2lm", {"problem.type": "helmholtz", "problem.kappa": "8"}),
    ("exceptional", {}),
], ids=["loisel", "feti2lm-helmholtz", "exceptional"])
def test_block_pseudo_energy_is_bitwise_per_column(preset, overrides):
    inst = build_instance(load_config(preset=preset, overrides={
        "problem.nx": "16", "problem.ny": "16", **overrides}))
    dual = inst.dual
    rng = np.random.default_rng(6)
    k = K_COLUMNS - 1
    lam = rng.standard_normal((dual.dim, k)) + 1j * rng.standard_normal((dual.dim, k))
    solves = []
    apply_inv = dual.aug.apply_inv
    dual.aug.apply_inv = lambda g: solves.append(g.shape) or apply_inv(g)
    block = dual.pseudo_energy(lam)
    # one augmented solve; the one-step M^-1 = 2 Atilde^-1 takes the second
    assert len(solves) == (2 if preset == "exceptional" else 1)
    assert all(len(part) == k for part in block)
    for j in range(k):
        single = dual.pseudo_energy(lam[:, j].copy())
        assert single == tuple(float(part[j]) for part in block)


class TestRobinEquivalence:
    def test_nullspace_split(self):
        # alpha M (I-X) gamma + (I+X^T) tau = 0 iff both terms vanish
        _, prob, dec = make_instance(4, 4, 2, 1, wave=True, kappa=2.0, eta=2.0)
        trace = build_trace(build_facets(dec, "globs"), dec)
        imp = build_impedance(trace, "lumped_mass", 2.0)
        X = build_exchange(trace).matrix
        dim = trace.dim_lambda
        I = np.eye(dim)
        combined = np.hstack([prob.alpha * imp @ (I - X), I + X.T])
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
        return fetih_build(dec, trace, imp)

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

    @pytest.mark.parametrize("wave", [False, True])
    @pytest.mark.parametrize("variant", ["bilateral_max", "bilateral_properly_closed",
                                         "bilateral_non_redundant"])
    def test_jump_matches_the_per_dof_difference(self, variant, wave):
        # B = J T against the jump built dof by dof: per (facet, dof), in
        # facet order, +1 on the larger subdomain's column, -1 on the smaller's
        _, _, dec = make_instance(16, 16, 4, 4, boundary="dirichlet",
                                  wave=wave, kappa=8.0 if wave else 0.0)
        system = build_facets(dec, variant)
        trace = build_trace(system, dec)
        B = fetih_build(dec, trace, build_impedance(trace, "lumped_mass", 1.0)).B
        column = trace.matrix.indices     # the one column each trace row selects
        rows, cols, vals = [], [], []
        for fidx, F in enumerate(system.facets):
            j, i = sorted(F.subdomains)
            for k in F.dofs:
                rows += [len(rows) // 2] * 2
                cols += [column[trace.slot(i, fidx, k)], column[trace.slot(j, fidx, k)]]
                vals += [1.0, -1.0]
        ref = scipy.sparse.csr_array((vals, (rows, cols)),
                                     shape=(len(rows) // 2, dec.offsets[-1]))
        for a, b in ((B.data, ref.data), (B.indices, ref.indices), (B.indptr, ref.indptr)):
            assert a.dtype == b.dtype and np.array_equal(a, b)

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
            fetih_build(dec, trace, imp)
