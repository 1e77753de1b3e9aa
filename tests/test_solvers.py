import itertools

import numpy as np
import pytest
import scipy.linalg

from schwarzlab import cli
from schwarzlab.facets import build_facets, redundancy_basis
from schwarzlab.formulations import build_dual_system, exceptional_system
from schwarzlab.solvers import (DIVERGENCE_WINDOW, ConvergenceReport, IterationConfig,
                                _block_roots, _until_stopped, estimate_gamma, fit_rate,
                                gmres_dual, primal_iterate, reference_primal,
                                richardson, rho_gmres, rho_theorem)
from schwarzlab.traces import build_exchange, build_impedance, build_trace

from conftest import (decay_slack, make_instance, primal_reference, solve_based_K,
                      twin_scalar)


def dual_stack(nx=8, ny=8, px=2, py=2, facet_variant="globs", sigma=2.0,
               wave=False, impedance="lumped_mass"):
    _, prob, dec = make_instance(nx, ny, px, py, wave=wave,
                                 kappa=2.0 if wave else 0.0,
                                 eta=2.0 if wave else 1.0,
                                 source="point:0.3,0.4")
    system = build_facets(dec, facet_variant)
    trace = build_trace(system, dec)
    imp = build_impedance(trace, impedance, sigma)
    X = build_exchange(trace)
    dual = build_dual_system(dec, trace, imp, X, prob.alpha)
    return dec, system, trace, imp, X, dual


def dense_gamma(dual, redundancy=None) -> float:
    """gamma by the dense formula: K from one augmented solve per column, one
    eigh of the whole M, M^{-1/2} K M^{1/2} by two dense products, and a
    dense deflation basis."""
    K = solve_based_K(dual)
    w, V = np.linalg.eigh(dual.M.toarray())
    M_half = (V * np.sqrt(w)) @ V.T
    M_inv_half = (V / np.sqrt(w)) @ V.T
    B = M_inv_half @ K @ M_half
    if redundancy is not None and redundancy.shape[1] > 0:
        B = B @ scipy.linalg.null_space((M_inv_half @ redundancy).conj().T)
    return float(np.linalg.svd(B, compute_uv=False)[-1])


class TestConfig:
    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.beta == 0.5 and cfg.tol == 1e-10 and cfg.maxit == 2000

    @pytest.mark.parametrize("kwargs", [
        dict(beta=0.0), dict(beta=1.5), dict(beta=-0.1),
        dict(tol=0.0), dict(maxit=0), dict(seed=-1),
    ])
    def test_invalid(self, kwargs):
        with pytest.raises(ValueError):
            IterationConfig(**kwargs)


class TestRichardson:
    def test_zero_scattering_one_step(self):
        # S = 0 makes the iteration map contract everything in one sweep
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0, f=(3.0, 5.0))
        rep = richardson(ts.dual, IterationConfig(beta=1.0, tol=1e-14))
        assert rep.converged and rep.iterations == 1

    def test_twin_full_step_rate(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(3.0, 5.0))
        rep = richardson(ts.dual, IterationConfig(beta=1.0, tol=1e-30, maxit=11,
                                                  seed=5))
        assert abs(fit_rate(rep.error_norms) - 1.0 / 3.0) <= 1e-12

    def test_twin_half_step_rate(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(3.0, 5.0))
        rep = richardson(ts.dual, IterationConfig(beta=0.5, tol=1e-30, maxit=11,
                                                  seed=5))
        # the faster mode has not fully died off after eleven steps
        assert abs(fit_rate(rep.error_norms) - 2.0 / 3.0) <= 1e-3

    def test_primal_error_converges(self):
        dec, system, trace, imp, X, dual = dual_stack()
        cfg = IterationConfig(beta=0.5, tol=1e-9, maxit=4000, seed=0)
        rep = richardson(dual, cfg)
        assert rep.converged
        u = dual.primal_recover(rep.lam)
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u - u_ref) <= 1e-7 * np.linalg.norm(u_ref)

    def test_energy_recursion(self):
        # |mu_n+1|^2 <= |mu_n|^2 - beta(1-beta)|K mu_n|^2 at every step
        _dec, _sys, _tr, _imp, _X, dual = dual_stack()
        cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=200, seed=1)
        rep = richardson(dual, cfg)
        slack = decay_slack(rep, dual.norm_Minv(dual.rhs_d()), cfg.beta)
        assert len(slack) == 200
        assert slack.min() >= -1e-12

    def test_divergence_detection(self):
        # amplifying stub operator: residual grows every step
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(1.0, 1.0))

        class Amplifier:
            dim = ts.dual.dim
            M = ts.dual.M
            norm_Minv = staticmethod(ts.dual.norm_Minv)
            rhs_d_and_u_f = staticmethod(
                lambda: (np.zeros(2, dtype=complex), ts.dual.rhs_d_and_u_f()[1]))
            apply_K_and_loss = staticmethod(
                lambda lam: (-lam, *ts.dual.apply_K_and_loss(lam)[1:]))
            deflation = staticmethod(lambda Z: lambda v: v)

        cfg = IterationConfig(beta=1.0, tol=1e-14, maxit=500, seed=2)
        rep = richardson(Amplifier(), cfg, lam_ref=np.zeros(2, dtype=complex),
                         u_ref=np.zeros(2, dtype=complex))
        assert rep.diverged and not rep.converged
        assert rep.iterations == DIVERGENCE_WINDOW

    def test_one_augmented_solve_per_step(self):
        dec, system, trace, imp, X, dual = dual_stack()
        lam_ref = dual.solve_direct(dual.rhs_d())
        u_ref = primal_reference(dec)
        solves = []
        apply_inv = dual.aug.apply_inv
        dual.aug.apply_inv = lambda g: solves.append(g) or apply_inv(g)
        cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=10, seed=0)
        rep = richardson(dual, cfg, lam_ref=lam_ref, u_ref=u_ref)
        assert rep.iterations == 10
        # d with Atilde^{-1} f once, then K lam with p and u per logged step
        assert len(solves) == 1 + (rep.iterations + 1)
        assert rep.p_history[-1] == dual.pseudo_energy(rep.lam)[2]
        u = dual.primal_recover(rep.lam)
        assert np.linalg.norm(rep.u - u) <= 1e-13 * np.linalg.norm(u)

    def test_reference_reuses_d(self):
        # d and Atilde^{-1} f are solved once, for the iteration and the
        # reference alike; N's packed solves take 2-D right-hand sides
        dec, system, trace, imp, X, dual = dual_stack(facet_variant="bilateral_max")
        Z = redundancy_basis(system, trace)
        solves = []
        apply_inv = dual.aug.apply_inv
        dual.aug.apply_inv = lambda g: solves.append(np.ndim(g)) or apply_inv(g)
        cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=10, seed=0)
        rep = richardson(dual, cfg, u_ref=primal_reference(dec), redundancy=Z)
        assert solves.count(1) == 1 + (rep.iterations + 1)
        deflate = dual.deflation(Z)
        lam_ref = deflate(dual.solve_direct(dual.rhs_d(), Z))
        assert rep.error_norms[-1] == dual.norm_Minv(deflate(rep.lam - lam_ref))

    def test_deflation_built_once(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_max")
        Z = redundancy_basis(system, trace)
        assert Z.shape[1] > 0
        lam_ref = dual.solve_direct(dual.rhs_d(), Z)
        u_ref = primal_reference(dec)
        weighs = []
        apply_weight = dual.ip.apply_weight
        dual.ip.apply_weight = lambda x: weighs.append(x) or apply_weight(x)
        cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=10, seed=0)
        rep = richardson(dual, cfg, lam_ref=lam_ref, u_ref=u_ref, redundancy=Z)
        assert rep.iterations == 10
        # |d| and M^-1 Z once, then the residual and error norms per logged step
        assert len(weighs) == 2 + 2 * (rep.iterations + 1)
        # the same operations as a fresh M^-1 Z and Gram matrix, bit for bit
        lam = rep.lam - lam_ref
        dense = Z.toarray()
        WZ = apply_weight(dense.astype(np.complex128))
        coef = np.linalg.solve(dense.conj().T @ WZ, WZ.conj().T @ lam)
        assert np.array_equal(dual.deflation(Z)(lam), lam - dense @ coef)

    def test_non_finite_load_stops_at_once(self):
        dec, system, trace, imp, X, dual = dual_stack()
        lam_ref = dual.solve_direct(dual.rhs_d())
        u_ref = primal_reference(dec)
        dual.f = dual.f.copy()
        dual.f[3] = np.nan
        cfg = IterationConfig(beta=0.5, tol=1e-10, maxit=500, seed=0)
        rep = richardson(dual, cfg, lam_ref=lam_ref, u_ref=u_ref)
        assert rep.diverged and not rep.converged
        assert rep.iterations == 0


class TestStoppingRule:
    """Scripted logged values through the rule richardson and primal_iterate share."""

    @staticmethod
    def stop(values, **cfg):
        """(stopping index, converged, diverged), and the next unread entry."""
        values = iter(values)
        rep = _until_stopped(ConvergenceReport(), IterationConfig(**cfg), values)
        return (rep.iterations, rep.converged, rep.diverged), next(values, None)

    def test_rising_residuals_diverge_after_the_window(self):
        rising = ((r,) for r in itertools.count(1.0))
        assert self.stop(rising)[0] == (DIVERGENCE_WINDOW, False, True)

    def test_a_plateau_stalls_too(self):
        assert self.stop([(1.0,)] * 100)[0] == (DIVERGENCE_WINDOW, False, True)

    def test_a_decrease_restarts_the_window(self):
        values = [(1.0,)] * DIVERGENCE_WINDOW + [(0.5,)] + [(0.5,)] * 100
        assert self.stop(values)[0] == (2 * DIVERGENCE_WINDOW, False, True)

    @pytest.mark.parametrize("bad", [(np.nan, 0.1), (np.inf, 0.1), (0.1, np.nan),
                                     (1e-30, np.inf)])
    def test_a_non_finite_value_diverges_at_once(self, bad):
        values = [(0.9 ** n, 0.1) for n in range(7)] + [bad, (0.1, 0.1)]
        assert self.stop(values) == ((7, False, True), (0.1, 0.1))

    def test_tolerance_converges_at_its_step(self):
        values = [(10.0 ** -n,) for n in range(20)]
        assert self.stop(values, tol=1e-6) == ((6, True, False), (1e-7,))

    def test_maxit_sets_neither_flag(self):
        values = [(0.9 ** n,) for n in range(20)]
        assert self.stop(values, maxit=12) == ((12, False, False), (0.9 ** 13,))

    def test_the_window_wins_over_maxit(self):
        rising = [(float(r),) for r in range(1, 100)]
        assert self.stop(rising, maxit=DIVERGENCE_WINDOW)[0] == \
            (DIVERGENCE_WINDOW, False, True)


class TestPrimalIteration:
    def test_matches_dual_iterates(self):
        # the substructured sweep and the multiplier sweep visit the same primals
        dec, system, trace, imp, X, dual = dual_stack()
        cfg = IterationConfig(beta=0.5, tol=1e-9, maxit=3000, seed=0)
        rep = primal_iterate(dual, cfg, u_ref=primal_reference(dec))
        assert rep.converged
        u_ref = primal_reference(dec)
        assert np.linalg.norm(rep.u - u_ref) <= 1e-7 * np.linalg.norm(u_ref)

    def test_exact_start_stays_put(self):
        dec, system, trace, imp, X, dual = dual_stack()
        u_ref = primal_reference(dec)
        cfg = IterationConfig(beta=0.5, tol=1e-10, maxit=10, seed=0)
        rep = primal_iterate(dual, cfg, u0=u_ref, u_ref=u_ref)
        assert rep.converged and rep.iterations <= 1

    def test_non_finite_load_stops_at_once(self):
        dec, system, trace, imp, X, dual = dual_stack()
        f = dec.f_concat.copy()
        f[3] = np.nan
        dual.f = f
        cfg = IterationConfig(beta=0.5, tol=1e-10, maxit=500, seed=0)
        rep = primal_iterate(dual, cfg, u_ref=primal_reference(dec))
        assert rep.diverged and not rep.converged
        assert rep.iterations == 0


TWO_PI = "6.283185307179586"


def complete_comm(p, wave):
    """The complete_comm preset at 16x16 on p x p subdomains."""
    overrides = {"problem.nx": "16", "problem.ny": "16",
                 "decomposition.px": str(p), "decomposition.py": str(p)}
    if wave:
        overrides.update({"problem.type": "helmholtz", "problem.kappa": TWO_PI,
                          "problem.eta": TWO_PI, "interface.sigma": TWO_PI})
    inst = cli.build_instance(cli.load_config(None, "complete_comm", overrides))
    return inst.dual, reference_primal(inst.decomp)


def seven_product_step(dual, u, beta, apply_inv):
    """One primal step with the interface map applied product by product."""
    A, T, M, X, f = dual._A_csr, dual.T, dual.M, dual.X, dual.f
    incoming = dual.alpha * (M @ (X @ (T @ u))) - X.T @ (T @ (A @ u - f))
    return (1.0 - beta) * u + beta * apply_inv(f + T.T @ incoming)


class TestPrimalOracle:
    @pytest.mark.parametrize("p", [2, 4])
    @pytest.mark.parametrize("wave", [False, True], ids=["coercive", "helmholtz"])
    def test_matches_seven_product_recurrence(self, p, wave):
        dual, u_ref = complete_comm(p, wave)
        assert dual.alpha == (1j if wave else 1.0)
        apply_inv = dual.aug.apply_inv
        solves = []
        dual.aug.apply_inv = lambda g: solves.append(apply_inv(g)) or solves[-1]
        cfg = IterationConfig(beta=0.5, tol=1e-9, maxit=30000)
        rep = primal_iterate(dual, cfg, u_ref=u_ref)
        assert rep.converged
        assert len(solves) == rep.iterations + 1

        # the first 50 iterates, rebuilt from the solves by the same update
        u, oracle = solves[0], apply_inv(dual.f)
        assert np.array_equal(u, oracle)
        for w in solves[1:51]:
            u = (1.0 - cfg.beta) * u + cfg.beta * w
            oracle = seven_product_step(dual, oracle, cfg.beta, apply_inv)
            assert np.linalg.norm(u - oracle) <= 1e-12 * np.linalg.norm(oracle)

        oracle = apply_inv(dual.f)
        u_scale = np.linalg.norm(u_ref)
        for iterations in range(cfg.maxit + 1):
            if np.linalg.norm(oracle - u_ref) / u_scale <= cfg.tol:
                break
            oracle = seven_product_step(dual, oracle, cfg.beta, apply_inv)
        assert iterations == rep.iterations


class TestGmres:
    def test_non_finite_load_stops_at_once(self):
        dec, system, trace, imp, X, dual = dual_stack()
        dual.f = dual.f.copy()
        dual.f[3] = np.nan
        rep = gmres_dual(dual, tol=1e-10, maxit=400)
        assert rep.diverged and not rep.converged
        assert rep.iterations == 0

    def test_zero_scattering_one_iteration(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0, f=(3.0, 5.0))
        rep = gmres_dual(ts.dual, tol=1e-12, maxit=50)
        assert rep.iterations <= 1
        assert np.allclose(rep.lam, [5.0, 3.0], atol=1e-10)

    def test_unique_solution_without_redundancy(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_non_redundant")
        assert redundancy_basis(system, trace).shape[1] == 0
        rep = gmres_dual(dual, tol=1e-12, maxit=400)
        assert np.allclose(rep.lam, dual.solve_direct(dual.rhs_d()), atol=1e-8)

    def test_redundant_system_still_recovers_primal(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_max")
        assert redundancy_basis(system, trace).shape[1] > 0
        rep = gmres_dual(dual, tol=1e-12, maxit=400)
        u = dual.primal_recover(rep.lam)
        u_ref = primal_reference(dec)
        assert np.linalg.norm(u - u_ref) <= 1e-8 * np.linalg.norm(u_ref)

    def test_maxit_is_not_divergence(self):
        _dec, _sys, _tr, _imp, _X, dual = dual_stack()
        rep = gmres_dual(dual, tol=1e-12, maxit=3)
        assert rep.iterations == 3
        assert not rep.converged and not rep.diverged
        assert all(b <= a for a, b in zip(rep.residuals, rep.residuals[1:]))


# (mesh, subdomains per side, facet system, cycles)
CYCLES = [(8, 2, "globs", 0), (8, 2, "bilateral_properly_closed", 1),
          (16, 4, "bilateral_properly_closed", 9)]


class TestGamma:
    @pytest.mark.parametrize("impedance", ["lumped_mass", "scalar"])
    @pytest.mark.parametrize("wave", [False, True], ids=["coercive", "wave"])
    @pytest.mark.parametrize("nx,p,facet_variant,cycles", CYCLES,
                             ids=[f"{c}_cycles" for *_, c in CYCLES])
    def test_diagonal_M_gives_the_dense_formula_bits(self, nx, p, facet_variant,
                                                    cycles, wave, impedance):
        _dec, system, trace, _imp, _X, dual = dual_stack(
            nx, nx, p, p, facet_variant=facet_variant, wave=wave, impedance=impedance)
        Z = redundancy_basis(system, trace)
        assert Z.shape[1] == cycles
        assert estimate_gamma(dual, redundancy=Z) == dense_gamma(dual, Z)

    @pytest.mark.parametrize("nx,p,facet_variant,cycles", CYCLES[::2],
                             ids=[f"{c}_cycles" for *_, c in CYCLES[::2]])
    def test_glob_block_matches_the_dense_formula(self, nx, p, facet_variant, cycles):
        _dec, system, trace, _imp, _X, dual = dual_stack(
            nx, nx, p, p, facet_variant=facet_variant, wave=True,
            impedance="glob_block")
        Z = redundancy_basis(system, trace)
        assert dual.M.nnz > dual.dim and Z.shape[1] == cycles
        expected = dense_gamma(dual, Z)
        assert estimate_gamma(dual, redundancy=Z) == pytest.approx(expected, rel=1e-12)

    def test_one_step_matches_the_dense_formula(self, coercive_2x2):
        # M = A: one diagonal block per subdomain; the roots of the widest
        # blocks match those of one eigh of the whole M
        _, _, dec = coercive_2x2
        M = exceptional_system(dec).M
        w, V = np.linalg.eigh(M.toarray())
        for root, dense in zip(_block_roots(M), ((V * np.sqrt(w)) @ V.conj().T,
                                                 (V / np.sqrt(w)) @ V.conj().T)):
            assert np.max(np.abs(root - dense)) <= 1e-12 * np.max(np.abs(dense))

    def test_exceptional_gamma_one(self, coercive_2x2):
        # an applied X gives no sparse K: gamma from the oracle's solve-based K
        _, _, dec = coercive_2x2
        assert dense_gamma(exceptional_system(dec)) == pytest.approx(1.0, abs=1e-12)

    def test_twin_two_thirds(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0)
        assert estimate_gamma(ts.dual) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_deflation_ignores_redundancy(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_max")
        Z = redundancy_basis(system, trace)
        gamma = estimate_gamma(dual, redundancy=Z)
        assert gamma > 0.0
        # without deflation the kernel drags the smallest direction to zero
        assert estimate_gamma(dual) <= 1e-10

    def test_contraction_bound_observed(self):
        dec, system, trace, imp, X, dual = dual_stack()
        gamma = estimate_gamma(dual)
        cfg = IterationConfig(beta=0.5, tol=1e-9, maxit=2000, seed=3)
        rep = richardson(dual, cfg)
        assert rep.converged
        assert rep.rho_obs <= rho_theorem(0.5, gamma) + 0.02

    def test_coercivity_lower_bound(self):
        _dec, system, trace, _imp, _X, dual = dual_stack()
        gamma = estimate_gamma(dual)
        rng = np.random.default_rng(4)
        for _ in range(50):
            lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
            quad = np.real(np.vdot(lam, np.linalg.solve(dual.M.toarray(), dual.apply_K(lam))))
            assert quad >= 0.5 * gamma ** 2 * dual.norm_Minv(lam) ** 2 - 1e-10


class TestRates:
    def test_fit_rate_geometric(self):
        hist = [(1.0 / 3.0) ** n for n in range(15)]
        assert fit_rate(hist) == pytest.approx(1.0 / 3.0, abs=1e-14)

    def test_fit_rate_constant(self):
        assert fit_rate([2.0] * 12) == 1.0

    def test_fit_rate_exact_convergence(self):
        assert fit_rate([1.0] * 10 + [0.0]) == 0.0

    def test_fit_rate_short_history(self):
        with pytest.raises(ValueError):
            fit_rate([1.0, 0.5])

    def test_rho_formulas(self):
        assert rho_theorem(0.5, 1.0) == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert rho_gmres(1.0) == pytest.approx(np.sqrt(0.75), abs=1e-15)
        assert rho_theorem(1.0, 1.0) == 1.0    # no damping, no decay term


def test_reference_primal_consistency(coercive_2x2):
    _, prob, dec = coercive_2x2
    u_ref = reference_primal(dec)
    assert np.allclose(u_ref, dec.apply_R(prob.direct_solve()), atol=1e-14)
