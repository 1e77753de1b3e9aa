"""End-to-end acceptance battery.

Each test exercises one headline guarantee of the laboratory at its stated
tolerance and prints a single pass/fail line. Run with -s to see the lines.
"""

import json
import time

import numpy as np
import pytest
from click.testing import CliRunner

from schwarzlab.cli import main
from schwarzlab.decomp import check_assembling
from schwarzlab.facets import VARIANTS, build_facets, redundancy_basis
from schwarzlab.formulations import build_dual_system, exceptional_system
from schwarzlab.solvers import (IterationConfig, estimate_gamma, fit_rate,
                                richardson, rho_theorem)
from schwarzlab.traces import build_exchange, build_impedance, build_trace

from conftest import decay_slack, make_instance, primal_reference, twin_scalar


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def dual_stack(dec, alpha, facet_variant="globs", sigma=2.0):
    system = build_facets(dec, facet_variant)
    trace = build_trace(system, dec)
    imp = build_impedance(trace, "lumped_mass", sigma)
    X = build_exchange(trace)
    return system, trace, imp, X, build_dual_system(dec, trace, imp, X, alpha)


def test_01_assembling_exact():
    # local contributions re-assemble the global operator without rounding
    check_assembling(make_instance(16, 16, 2, 2)[2])     # warm-up, untimed
    t0 = time.perf_counter()
    worst = 0.0
    for nx, px, py in ((16, 2, 2), (32, 4, 2), (64, 4, 4)):
        _, _, dec = make_instance(nx, nx, px, py, wave=True, kappa=2.0, eta=2.0)
        rep = check_assembling(dec)
        worst = max(worst, rep.max_dev_matrix, rep.max_dev_load)
    elapsed = time.perf_counter() - t0
    report("assembling-exactness",
           worst == 0.0 and elapsed <= 1.0,
           f"max deviation {worst:.1e} up to 64x64 cells in {elapsed:.2f}s")


def test_02_exchange_involution_and_conformity():
    _, prob, dec = make_instance(8, 8, 2, 2)
    rng = np.random.default_rng(0)
    worst = 0.0
    for facet_variant in VARIANTS:
        trace = build_trace(build_facets(dec, facet_variant), dec)
        X = build_exchange(trace).matrix
        worst = max(worst, float(np.max(np.abs(X @ X - np.eye(X.shape[0])))))
        for _ in range(100):
            vhat = rng.standard_normal(prob.n)
            t = trace.matrix @ dec.apply_R(vhat)
            worst = max(worst, float(np.max(np.abs(t - X @ t))))
    report("exchange-involution-conformity", worst <= 1e-12,
           f"worst defect {worst:.1e} over {len(VARIANTS)} facet systems, "
           "tolerance 1e-12")


def test_03_redundancy_dimension():
    # nullity of the stacked constraint matches the connectivity cycle count
    t0 = time.perf_counter()
    expected = {("bilateral_non_redundant", 1): 0,
                ("bilateral_properly_closed", 1): 1,
                ("bilateral_max", 1): 3,
                ("bilateral_non_redundant", 3): 0,
                ("bilateral_properly_closed", 3): 3,
                ("bilateral_max", 3): 9}
    ok = True
    for (variant, n_cross), want in expected.items():
        px, py = (2, 2) if n_cross == 1 else (4, 2)
        _, _, dec = make_instance(8, 8, px, py)
        system = build_facets(dec, variant)
        trace = build_trace(system, dec)
        X = build_exchange(trace).matrix
        stacked = np.vstack([trace.matrix.T.toarray(),
                             np.eye(trace.dim_lambda) + X.T])
        s = np.linalg.svd(stacked, compute_uv=False)
        nullity = int(np.sum(s <= 1e-10))
        basis_dim = redundancy_basis(system, trace).shape[1]
        ok &= (nullity == basis_dim == want)
    elapsed = time.perf_counter() - t0
    report("redundancy-dimension", ok and elapsed <= 10.0,
           f"svd nullity matches cycle count on 1- and 3-cross partitions "
           f"in {elapsed:.2f}s")


def test_04_pseudo_energy_identity():
    worst = 0.0
    for wave in (False, True):
        _, prob, dec = make_instance(16, 16, 4, 4, wave=wave,
                                     kappa=2 * np.pi if wave else 0.0,
                                     eta=2 * np.pi if wave else 1.0)
        _sys, _tr, _imp, _X, dual = dual_stack(dec, prob.alpha,
                                               sigma=2 * np.pi if wave else 1.0)
        rng = np.random.default_rng(1)
        for _ in range(100):
            lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
            lhs, rhs, _p = dual.pseudo_energy(lam)
            worst = max(worst, abs(lhs - rhs) / rhs)
    report("pseudo-energy-identity", worst <= 1e-10,
           f"worst relative defect {worst:.1e} over 200 multipliers, "
           "tolerance 1e-10")


PRESET_CASES = [
    ("feti2lm", False), ("feti2lm", True),
    ("loisel", False), ("loisel", True),
    ("complete_comm", False), ("complete_comm", True),
    ("fetih", False), ("fetih", True),
]


@pytest.mark.parametrize("preset,wave", PRESET_CASES)
def test_05_preset_methods_converge(preset, wave, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUTPUT", str(tmp_path))
    args = ["run", "--preset", preset,
            "--set", "problem.nx=32", "--set", "problem.ny=32",
            "--set", "decomposition.px=2", "--set", "decomposition.py=2",
            "--set", "solver.tol=1e-9"]
    if wave and preset != "fetih":
        args += ["--set", "problem.type=helmholtz",
                 "--set", "problem.kappa=6.283185307179586",
                 "--set", "problem.eta=6.283185307179586",
                 "--set", "interface.sigma=6.283185307179586"]
    elif wave:
        args += ["--set", "problem.kappa=6.283185307179586",
                 "--set", "problem.type=helmholtz",
                 "--set", "interface.sigma=6.283185307179586"]
    t0 = time.perf_counter()
    result = CliRunner().invoke(main, args)
    elapsed = time.perf_counter() - t0
    rep = json.loads((tmp_path / "out" / "report.json").read_text())
    err = rep.get("final_primal_error")
    ok = (result.exit_code == 0 and rep["converged"]
          and err is not None and err <= 1e-8 and elapsed <= 30.0)
    regime = "helmholtz" if wave else "laplace"
    report(f"method-preset-{preset}-{regime}", ok,
           f"primal error {err:.1e} after {rep['iterations']} iterations "
           f"in {elapsed:.1f}s")


def test_06_contraction_rate_bound():
    # observed rates stay under the linear bound from the interface gap
    _, prob, dec = make_instance(8, 8, 2, 2, source="point:0.3,0.4")
    _sys, _tr, _imp, _X, dual = dual_stack(dec, prob.alpha)
    gamma = estimate_gamma(dual)
    rep = richardson(dual, IterationConfig(beta=0.5, tol=1e-9, maxit=4000, seed=0))
    bound = rho_theorem(0.5, gamma)
    ok = rep.converged and rep.rho_obs <= bound + 0.02

    ts = twin_scalar(a=(1.0, 1.0), m=2.0, alpha=1.0, f=(3.0, 5.0))
    gamma_ts = estimate_gamma(ts.dual)
    rep_ts = richardson(ts.dual, IterationConfig(beta=1.0, tol=1e-30, maxit=11,
                                                 seed=5))
    rate_err = abs(fit_rate(rep_ts.error_norms) - 1.0 / 3.0)
    ok &= abs(gamma_ts - 2.0 / 3.0) <= 1e-12 and rate_err <= 1e-12
    report("contraction-rate-bound", ok,
           f"rho_obs {rep.rho_obs:.4f} <= bound {bound:.4f} + 0.02; "
           f"scalar rate error {rate_err:.1e}, tolerance 1e-12")


def test_07_one_step_exactness():
    worst = 0.0
    # a reaction term keeps every local block invertible on its own
    for nx, px, py in ((8, 2, 2), (16, 4, 4)):
        _, prob, dec = make_instance(nx, nx, px, py, kappa=1.0,
                                     source="point:0.3,0.4")
        dual = exceptional_system(dec)
        u1 = dual.primal_recover(dual.rhs_d())
        u_ref = primal_reference(dec)
        worst = max(worst, float(np.linalg.norm(u1 - u_ref)
                                 / np.linalg.norm(prob.f)))
    report("one-step-exactness", worst <= 1e-10,
           f"worst scaled error {worst:.1e} after a single undamped update, "
           "tolerance 1e-10")


def energy_decay_slack(exchange_scale):
    """Decay-inequality slack over 200 damped steps of a Helmholtz run whose
    exchange is scaled by `exchange_scale`."""
    _, prob, dec = make_instance(8, 8, 2, 2, wave=True, kappa=2 * np.pi,
                                 eta=2 * np.pi, source="point:0.3,0.4")
    _sys, _tr, _imp, _X, dual = dual_stack(dec, prob.alpha, sigma=2 * np.pi)
    dual.X = exchange_scale * dual.X
    cfg = IterationConfig(beta=0.5, tol=1e-30, maxit=200, seed=1)
    rep = richardson(dual, cfg)
    return decay_slack(rep, dual.norm_Minv(dual.rhs_d()), cfg.beta)


def test_08_energy_decay_recursion():
    # |mu_n+1|^2 <= |mu_n|^2 - beta(1-beta)|K mu_n|^2, the third result's step
    slack = energy_decay_slack(1.0)
    worst = float(slack.min())
    report("energy-decay-recursion",
           len(slack) == 200 and worst >= -1e-12,
           f"least decay slack {worst:.1e} |mu_0|^2 over 200 damped steps, "
           "tolerance -1e-12")


def test_08_energy_decay_fails_on_expansive_exchange():
    # 1.1 X makes X^T S expansive; the slack turns negative at once
    slack = energy_decay_slack(1.1)
    assert slack.min() < -0.1


def test_09_strong_absorption_undamped():
    _, prob, dec = make_instance(16, 16, 2, 2, wave=True, kappa=2 * np.pi,
                                 eta=2 * np.pi, absorption=40.0,
                                 source="point:0.3,0.4")
    _sys, _tr, _imp, _X, dual = dual_stack(dec, prob.alpha, sigma=40.0)
    cfg = IterationConfig(beta=1.0, tol=1e-30, maxit=5000, seed=0)
    rep = richardson(dual, cfg)
    u = dual.primal_recover(rep.lam)
    u_ref = primal_reference(dec)
    err = float(np.linalg.norm(u - u_ref) / np.linalg.norm(u_ref))
    report("strong-absorption-undamped", err <= 1e-8,
           f"undamped sweep reaches primal error {err:.1e} "
           f"within {rep.iterations} iterations")


def test_10_deterministic_outputs(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUTPUT", str(tmp_path))
    base = ["run", "--preset", "loisel", "--set", "problem.nx=16",
            "--set", "problem.ny=16"]
    CliRunner().invoke(main, base + ["--set", "output.dir=a"])
    CliRunner().invoke(main, base + ["--set", "output.dir=b"])
    a = (tmp_path / "a" / "history.csv").read_bytes()
    b = (tmp_path / "b" / "history.csv").read_bytes()
    report("deterministic-outputs", a == b and len(a) > 0,
           f"two identical runs wrote byte-identical histories ({len(a)} bytes)")
