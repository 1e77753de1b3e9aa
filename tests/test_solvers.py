import numpy as np
import pytest

from schwarzlab.facets import build_facets, redundancy_basis
from schwarzlab.formulations import (build_dual_system, exceptional_system,
                                     twin_scalar)
from schwarzlab.solvers import (ConvergenceReport, IterationConfig,
                                estimate_gamma, fit_rate, gmres_dual,
                                primal_iterate, reference_primal, richardson,
                                rho_gmres, rho_theorem)
from schwarzlab.traces import build_exchange, build_impedance, build_trace

from conftest import make_instance, primal_reference


def dual_stack(nx=8, ny=8, px=2, py=2, exchange="weighted",
               facet_variant="globs", sigma=2.0, wave=False):
    _, prob, dec = make_instance(nx, ny, px, py, wave=wave,
                                 kappa=2.0 if wave else 0.0,
                                 eta=2.0 if wave else 1.0,
                                 source="point:0.3,0.4")
    system = build_facets(dec, facet_variant)
    trace = build_trace(system, dec)
    imp = build_impedance(trace, "lumped_mass", sigma)
    X = build_exchange(trace, imp, exchange)
    dual = build_dual_system(dec, trace, imp, X, prob.alpha)
    return dec, system, trace, imp, X, dual


class TestConfig:
    def test_defaults(self):
        cfg = IterationConfig()
        assert cfg.beta == 0.5 and cfg.tol == 1e-10 and cfg.maxit == 1000

    @pytest.mark.parametrize("kwargs", [
        dict(beta=0.0), dict(beta=1.5), dict(beta=-0.1),
        dict(tol=0.0), dict(maxit=0),
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
        _dec, _sys, _tr, _imp, _X, dual = dual_stack()
        cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=200, seed=1,
                              log_energy=True)
        rep = richardson(dual, cfg)
        assert len(rep.energy_defects) >= 200
        assert max(rep.energy_defects) <= 1e-9

    def test_divergence_detection(self):
        # amplifying stub operator: residual grows every step
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(1.0, 1.0))

        class Amplifier:
            dim = ts.dual.dim
            M = ts.dual.M
            norm_Minv = staticmethod(ts.dual.norm_Minv)
            rhs_d = staticmethod(lambda: np.zeros(2, dtype=complex))
            apply_K = staticmethod(lambda lam: -lam)
            primal_recover = staticmethod(ts.dual.primal_recover)
            pseudo_energy = staticmethod(ts.dual.pseudo_energy)
            deflate = staticmethod(lambda v, Z=None: v)

        cfg = IterationConfig(beta=1.0, tol=1e-14, maxit=500, seed=2)
        rep = richardson(Amplifier(), cfg, lam_ref=np.zeros(2, dtype=complex),
                         u_ref=np.zeros(2, dtype=complex))
        assert rep.diverged and not rep.converged
        assert rep.iterations < 500

    def test_non_finite_load_stops_at_once(self):
        dec, system, trace, imp, X, dual = dual_stack()
        lam_ref = dual.solve_direct()
        u_ref = primal_reference(dec)
        dual.f = dual.f.copy()
        dual.f[3] = np.nan
        cfg = IterationConfig(beta=0.5, tol=1e-10, maxit=500, seed=0)
        rep = richardson(dual, cfg, lam_ref=lam_ref, u_ref=u_ref)
        assert rep.diverged and not rep.converged
        assert rep.iterations == 0


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
            facet_variant="bilateral_non_redundant", exchange="swap")
        assert redundancy_basis(system, trace).dimension == 0
        rep = gmres_dual(dual, tol=1e-12, maxit=400)
        assert np.allclose(rep.lam, dual.solve_direct(), atol=1e-8)

    def test_redundant_system_still_recovers_primal(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_max", exchange="swap")
        assert redundancy_basis(system, trace).dimension > 0
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


class TestGamma:
    def test_exceptional_gamma_one(self, coercive_2x2):
        _, _, dec = coercive_2x2
        dual = exceptional_system(dec)
        assert estimate_gamma(dual) == pytest.approx(1.0, abs=1e-12)

    def test_twin_two_thirds(self):
        ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0)
        assert estimate_gamma(ts.dual) == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_deflation_ignores_redundancy(self):
        dec, system, trace, imp, X, dual = dual_stack(
            facet_variant="bilateral_max", exchange="swap")
        Z = redundancy_basis(system, trace).vectors
        gamma = estimate_gamma(dual, redundancy=Z)
        assert gamma > 0.0
        # without deflation the kernel drags the smallest direction to zero
        assert estimate_gamma(dual) <= 1e-10

    def test_contraction_bound_observed(self):
        dec, system, trace, imp, X, dual = dual_stack()
        gamma = estimate_gamma(dual)
        cfg = IterationConfig(beta=0.5, tol=1e-9, maxit=2000, seed=3)
        rep = richardson(dual, cfg, gamma=gamma)
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
