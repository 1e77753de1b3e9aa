"""Iterative drivers and convergence diagnostics for the interface equation.

Damped Richardson on the dual system, the equivalent primal recurrence, full
GMRES in the M^-1 inner product, estimation of the inf-sup constant gamma,
and rate fitting against the linear bound sqrt(1 - (1-beta)*beta*gamma^2).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .decomp import Decomposition
from .formulations import AugmentedLocal, DualSystem
from .linalg import WeightedInnerProduct, gmres
from .traces import (ExchangeOperator, ExtensionOperator, ImpedanceOperator,
                     TraceOperator)

__all__ = [
    "IterationConfig",
    "ConvergenceReport",
    "richardson",
    "primal_iterate",
    "gmres_dual",
    "estimate_gamma",
    "fit_rate",
    "rho_theorem",
    "rho_gmres",
    "reference_primal",
]

DIVERGENCE_WINDOW = 50  # consecutive non-decreasing residuals


@dataclass(frozen=True)
class IterationConfig:
    """Damping, stopping rule, and logging switches for the iteration loop."""

    beta: float = 0.5
    tol: float = 1e-10
    maxit: int = 1000
    seed: int | None = 0        # None starts from zero
    norm: str = "M_inverse"     # or "euclidean"
    log_energy: bool = False    # per-iteration energy-decay bookkeeping

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("damping must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tolerance must be positive")
        if self.maxit < 1:
            raise ValueError("maxit must be at least 1")
        if self.norm not in ("M_inverse", "euclidean"):
            raise ValueError("norm mode must be 'M_inverse' or 'euclidean'")


@dataclass
class ConvergenceReport:
    """Histories and fitted diagnostics of one iterative run."""

    method: str
    beta: float
    seed: int | None
    residuals: list[float] = field(default_factory=list)
    error_norms: list[float] = field(default_factory=list)   # |mu^(n)| vs reference
    primal_errors: list[float] = field(default_factory=list)
    p_history: list[float] = field(default_factory=list)
    energy_defects: list[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0
    gamma: float | None = None
    rho_obs: float | None = None
    rho_thm: float | None = None
    lam: np.ndarray | None = field(default=None, repr=False)
    u: np.ndarray | None = field(default=None, repr=False)

    def finalize(self, gamma: float | None, beta_for_bound: float | None = None):
        """Fit the observed rate and attach the theoretical bound."""
        history = self.error_norms if len(self.error_norms) >= 12 else self.primal_errors
        if len(history) >= 12:
            self.rho_obs = fit_rate(history)
        self.gamma = gamma
        if gamma is not None and beta_for_bound is not None:
            self.rho_thm = rho_theorem(beta_for_bound, gamma)
        return self


def _initial_multiplier(dim: int, seed: int | None) -> np.ndarray:
    if seed is None:
        return np.zeros(dim, dtype=np.complex128)
    rng = np.random.default_rng(seed)
    return rng.standard_normal(dim) + 1j * rng.standard_normal(dim)


def reference_primal(decomp: Decomposition) -> np.ndarray:
    """Restriction of the direct global solve onto the product space."""
    return decomp.apply_R(np.asarray(decomp.problem.direct_solve()))


def richardson(dual: DualSystem, cfg: IterationConfig,
               lam_ref: np.ndarray | None = None,
               u_ref: np.ndarray | None = None,
               redundancy: np.ndarray | None = None,
               gamma: float | None = None) -> ConvergenceReport:
    """Damped fixed-point iteration lam += beta * (d - (I - X^T S) lam).

    Logs the relative dual residual, the multiplier error against a deflated
    direct reference, the recovered primal error, and (optionally) the
    per-iteration energy-decay defect. Fifty consecutive non-decreasing
    residuals, or a non-finite residual or error, flag divergence; the
    partial run is preserved.
    """
    report = ConvergenceReport(method="richardson", beta=cfg.beta, seed=cfg.seed)
    d = dual.rhs_d()
    norm = dual.norm_Minv if cfg.norm == "M_inverse" else lambda v: float(np.linalg.norm(v))
    d_norm = norm(d)
    scale = d_norm if d_norm > 0.0 else 1.0

    if lam_ref is None:
        lam_ref = dual.solve_direct(deflate=redundancy)
    if u_ref is None:
        u_ref = reference_primal(dual.decomp)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0

    lam = _initial_multiplier(dual.dim, cfg.seed)
    stall = 0
    for it in range(cfg.maxit + 1):
        K_lam = dual.apply_K(lam)
        residual = norm(d - K_lam) / scale
        mu = dual.deflate(lam - lam_ref, redundancy)
        u = dual.primal_recover(lam)
        report.residuals.append(residual)
        report.error_norms.append(norm(mu))
        report.primal_errors.append(float(np.linalg.norm(u - u_ref)) / u_scale)
        report.p_history.append(dual.pseudo_energy(lam)[2])
        if cfg.log_energy:
            report.energy_defects.append(_energy_defect(dual, mu, cfg.beta))
        if not np.isfinite([residual, report.error_norms[-1],
                            report.primal_errors[-1]]).all():
            report.diverged = True
            break
        if residual <= cfg.tol:
            report.converged = True
            break
        if len(report.residuals) >= 2 and residual >= report.residuals[-2]:
            stall += 1
            if stall >= DIVERGENCE_WINDOW:
                report.diverged = True
                break
        else:
            stall = 0
        if it == cfg.maxit:
            break
        lam = lam + cfg.beta * (d - K_lam)

    report.iterations = len(report.residuals) - 1
    report.lam = lam
    report.u = dual.primal_recover(lam)
    return report.finalize(gamma, cfg.beta)


def _energy_defect(dual: DualSystem, mu: np.ndarray, beta: float) -> float:
    """Relative defect of the one-step energy-decay identity at mu.

    |mu - beta*K*mu|^2 = (1-beta)|mu|^2 - beta(1-beta)|K mu|^2 + beta|X^T S mu|^2
    with all norms in the M^-1 metric.
    """
    S_mu = dual.apply_S(mu)
    XtS_mu = dual.X.T @ S_mu
    K_mu = mu - XtS_mu
    mu_next = mu - beta * K_mu
    lhs = dual.norm_Minv(mu_next) ** 2
    rhs = ((1.0 - beta) * dual.norm_Minv(mu) ** 2
           - beta * (1.0 - beta) * dual.norm_Minv(K_mu) ** 2
           + beta * dual.norm_Minv(XtS_mu) ** 2)
    denom = max(dual.norm_Minv(mu) ** 2, 1e-300)
    return abs(lhs - rhs) / denom


def primal_iterate(decomp: Decomposition, aug: AugmentedLocal,
                   trace: TraceOperator, impedance: ImpedanceOperator,
                   exchange: ExchangeOperator, extension: ExtensionOperator,
                   f: np.ndarray, cfg: IterationConfig,
                   u0: np.ndarray | None = None,
                   u_ref: np.ndarray | None = None) -> ConvergenceReport:
    """Subdomain-field recurrence equivalent to the dual fixed point.

    u_{n+1} = (1-beta) u_n + beta * Atilde^{-1} (f + T^T [alpha M X T u_n
    - X^T E^T (A u_n - f)]), starting from u_0 = Atilde^{-1} f, whose defect
    A u_0 - f lies in range(T^T) as the recurrence requires.
    """
    report = ConvergenceReport(method="primal", beta=cfg.beta, seed=None)
    alpha = aug.alpha
    A = decomp.A_blockdiag()
    T = trace.matrix
    M = impedance.matrix
    X = exchange.matrix
    f = np.asarray(f, dtype=np.complex128)

    u = aug.apply_inv(f) if u0 is None else np.asarray(u0, np.complex128).copy()
    if u_ref is None:
        u_ref = reference_primal(decomp)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0

    stall = 0
    for it in range(cfg.maxit + 1):
        err = float(np.linalg.norm(u - u_ref)) / u_scale
        report.primal_errors.append(err)
        report.residuals.append(err)
        if not np.isfinite(err):
            report.diverged = True
            break
        if err <= cfg.tol:
            report.converged = True
            break
        if len(report.primal_errors) >= 2 and err >= report.primal_errors[-2]:
            stall += 1
            if stall >= DIVERGENCE_WINDOW:
                report.diverged = True
                break
        else:
            stall = 0
        if it == cfg.maxit:
            break
        incoming = alpha * (M @ (X @ (T @ u))) - X.T @ extension.apply_T(A @ u - f)
        u = (1.0 - cfg.beta) * u + cfg.beta * aug.apply_inv(f + T.T @ incoming)

    report.iterations = len(report.primal_errors) - 1
    report.u = u
    return report.finalize(None)


def gmres_dual(dual: DualSystem, tol: float = 1e-10,
               maxit: int | None = None,
               gamma: float | None = None) -> ConvergenceReport:
    """Full GMRES on (I - X^T S) lambda = d in the M^-1 inner product."""
    ip = WeightedInnerProduct(dual.M, mode="M_inverse", factorization=dual._M_fac)
    lam, history = gmres(dual.apply_K, dual.rhs_d(), ip=ip, tol=tol, maxit=maxit)
    report = ConvergenceReport(method="gmres", beta=1.0, seed=None)
    report.residuals = history
    report.converged = bool(history and history[-1] <= tol)
    report.diverged = False     # the GMRES residual never increases
    report.iterations = len(history) - 1
    report.lam = lam
    report.u = dual.primal_recover(lam)
    report.gamma = gamma
    if gamma is not None:
        report.rho_thm = rho_gmres(gamma)
    return report


def estimate_gamma(dual: DualSystem,
                   redundancy: np.ndarray | None = None,
                   K: np.ndarray | None = None) -> float:
    """Smallest singular value of M^{-1/2} (I - X^T S) M^{1/2}.

    Equals the best constant gamma in |(I - X^T S) lam|_{M^-1} >=
    gamma |lam|_{M^-1}. Redundancy directions (where the operator vanishes
    by construction) are deflated before taking the minimum.
    """
    if K is None:
        K = dual.materialize_K()
    w, V = np.linalg.eigh(dual.M)
    if w[0] <= 0.0:
        raise ValueError("impedance weight must be positive definite")
    M_half = (V * np.sqrt(w)) @ V.T
    M_inv_half = (V / np.sqrt(w)) @ V.T
    B = M_inv_half @ K @ M_half
    if redundancy is not None and redundancy.shape[1] > 0:
        # orthonormal basis of the complement of the transformed nullspace
        Q = scipy.linalg.null_space((M_inv_half @ redundancy).conj().T)
        B = B @ Q
    return float(np.linalg.svd(B, compute_uv=False)[-1])


def fit_rate(history) -> float:
    """Geometric-mean error quotient over the last ten steps."""
    values = [float(v) for v in history]
    if len(values) < 11:
        raise ValueError("rate fitting needs at least 11 history entries")
    tail = values[-11:]
    if tail[-1] <= 0.0:
        return 0.0
    if tail[0] <= 0.0:
        raise ValueError("rate fitting needs positive history entries")
    return float((tail[-1] / tail[0]) ** 0.1)


def rho_theorem(beta: float, gamma: float) -> float:
    """Linear contraction bound sqrt(1 - (1-beta)*beta*gamma^2)."""
    return float(np.sqrt(max(1.0 - (1.0 - beta) * beta * gamma * gamma, 0.0)))


def rho_gmres(gamma: float) -> float:
    """Residual contraction bound sqrt(1 - gamma^2/4) for the minimizer."""
    return float(np.sqrt(max(1.0 - 0.25 * gamma * gamma, 0.0)))
