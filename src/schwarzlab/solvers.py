"""Iterative drivers and convergence diagnostics for the interface equation.

Damped Richardson on the dual system, the equivalent primal recurrence, full
GMRES in the M^-1 inner product, estimation of the inf-sup constant gamma,
and rate fitting against the linear bound sqrt(1 - (1-beta)*beta*gamma^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
import scipy.sparse

from .decomp import Decomposition
from .formulations import DualSystem
from .linalg import diagonal_blocks, gmres

__all__ = [
    "IterationConfig",
    "ConvergenceReport",
    "richardson",
    "primal_iterate",
    "one_step",
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
    """Damping and stopping rule; the one copy of their defaults and ranges."""

    beta: float = 0.5
    tol: float = 1e-10
    maxit: int = 2000
    seed: int = 0               # of the random initial multiplier

    def __post_init__(self):
        if not 0.0 < self.beta <= 1.0:
            raise ValueError("beta must lie in (0, 1]")
        if self.tol <= 0.0:
            raise ValueError("tol must be positive")
        if self.maxit < 1:
            raise ValueError("maxit must be at least 1")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass
class ConvergenceReport:
    """Histories and outcome of one run, whatever the method. Row i of
    history.csv holds entry i of residuals, primal_errors and p_history."""

    residuals: list[float] = field(default_factory=list)
    error_norms: list[float] = field(default_factory=list)   # |mu^(n)| vs reference
    primal_errors: list[float] = field(default_factory=list)
    p_history: list[float] = field(default_factory=list)
    converged: bool = False
    diverged: bool = False
    iterations: int = 0
    lam: np.ndarray | None = field(default=None, repr=False)
    u: np.ndarray | None = field(default=None, repr=False)

    @classmethod
    def krylov(cls, u, lam, history, tol: float) -> "ConvergenceReport":
        """Report of a Krylov run from its (never increasing) residual history;
        only a non-finite residual, which ends the run at once, is divergence."""
        return cls(residuals=history, converged=history[-1] <= tol,
                   diverged=not math.isfinite(history[-1]),
                   iterations=len(history) - 1, lam=lam, u=u)

    @property
    def rho_obs(self) -> float | None:
        """Rate fitted on the multiplier errors, else the primal errors, else
        (a Krylov run) the residuals, whose rate sqrt(1 - gamma^2/4) bounds."""
        history = self.error_norms or self.primal_errors or self.residuals
        return fit_rate(history) if len(history) >= 12 else None


def reference_primal(decomp: Decomposition, factor=None) -> np.ndarray:
    """Restriction of the direct global solve onto the product space; it
    reuses `factor`, an LU of decomp.problem.A_hat(), when one is given."""
    problem = decomp.problem
    uhat = problem.direct_solve() if factor is None else factor.solve(problem.f)
    return decomp.apply_R(np.asarray(uhat))


def _until_stopped(report: ConvergenceReport, cfg: IterationConfig,
                   steps) -> ConvergenceReport:
    """The one stopping rule of richardson and primal_iterate.

    `steps` yields, for iterate 0, 1, ..., the values it logged, the
    residual first, and takes the next step when resumed. The run stops at
    the first iterate with a non-finite value (diverged), a residual <= tol
    (converged), the DIVERGENCE_WINDOW-th consecutive residual no smaller
    than the one before (diverged), or index maxit (neither flag).
    """
    stall, previous = 0, math.inf
    for it, values in enumerate(steps):
        residual = values[0]
        stall = stall + 1 if residual >= previous else 0
        if not all(map(math.isfinite, values)):
            report.diverged = True
        elif residual <= cfg.tol:
            report.converged = True
        elif stall >= DIVERGENCE_WINDOW:
            report.diverged = True
        elif it < cfg.maxit:
            previous = residual
            continue
        break
    report.iterations = it
    return report


def richardson(dual: DualSystem, cfg: IterationConfig,
               lam_ref: np.ndarray | None = None,
               u_ref: np.ndarray | None = None,
               redundancy: scipy.sparse.csr_array | None = None) -> ConvergenceReport:
    """Damped fixed-point iteration lam += beta * (d - (I - X^T S) lam).

    Logs the relative dual residual in the M^-1 norm, the multiplier error
    against a deflated direct reference, the recovered primal error, and
    the subdomain loss p; _until_stopped reads the first three. Unless
    given, the reference is K's minimum-norm solution for the same d,
    deflated by the same map as the iterates.

    A step costs one augmented solve v = Atilde^{-1} T^T lam: it gives K lam
    and the loss p, and the recovered primal is Atilde^{-1} f + v, with
    Atilde^{-1} f solved once per run, in the solve that forms d. The
    deflation's M^-1 Z and Gram matrix are also formed once per run.
    """
    report = ConvergenceReport()
    d, u_f = dual.rhs_d_and_u_f()
    scale = dual.norm_Minv(d) or 1.0
    deflate = dual.deflation(redundancy)
    if lam_ref is None:
        lam_ref = deflate(dual.solve_direct(d, redundancy))
    if u_ref is None:
        u_ref = reference_primal(dual.decomp)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0

    def steps():
        rng = np.random.default_rng(cfg.seed)
        lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
        while True:
            K_lam, p, v = dual.apply_K_and_loss(lam)
            r = d - K_lam
            report.lam, report.u = lam, u_f + v
            values = (dual.norm_Minv(r) / scale,
                      dual.norm_Minv(deflate(lam - lam_ref)),
                      float(np.linalg.norm(report.u - u_ref)) / u_scale)
            report.residuals.append(values[0])
            report.error_norms.append(values[1])
            report.primal_errors.append(values[2])
            report.p_history.append(p)
            yield values
            lam = lam + cfg.beta * r

    return _until_stopped(report, cfg, steps())


def primal_iterate(dual: DualSystem, cfg: IterationConfig,
                   u0: np.ndarray | None = None,
                   u_ref: np.ndarray | None = None) -> ConvergenceReport:
    """Subdomain-field recurrence equivalent to the dual fixed point.

    u_{n+1} = (1-beta) u_n + beta * Atilde^{-1} (f + T^T [alpha M X T u_n
    - X^T E^T (A u_n - f)]), starting from u_0 = Atilde^{-1} f, whose defect
    A u_0 - f lies in range(T^T) as the recurrence requires. The extension
    E (T E = I) is T^T, which exists exactly when the trace is surjective,
    that is, when no column of T holds more than one entry. The primal
    error against u_ref serves as the residual of _until_stopped.

    The interface map is composed once per call: with the sparse
    B = T^T (alpha M X T - X^T T A) and g = f + T^T X^T T f, a step is
    u_{n+1} = (1-beta) u_n + beta * Atilde^{-1} (g + B u_n), one sparse
    product and one augmented solve.
    """
    A, T, Tt, M, X, f = dual._A_csr, dual.T, dual._Tt, dual.M, dual.X, dual.f
    if np.diff(Tt.indptr).max(initial=0) > 1:
        raise ValueError("extension needs a surjective trace; bilateral systems "
                         "with cross points (multiplicity > 2) are rank-deficient")
    XtT = X.T @ T
    B = (Tt @ (dual.alpha * (M @ X @ T) - XtT @ A)).tocsr()
    g = f + Tt @ (XtT @ f)
    report = ConvergenceReport()
    if u_ref is None:
        u_ref = reference_primal(dual.decomp)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0

    def steps():
        u = dual.aug.apply_inv(f) if u0 is None else np.asarray(u0, np.complex128).copy()
        while True:
            report.u = u
            err = float(np.linalg.norm(u - u_ref)) / u_scale
            report.primal_errors.append(err)
            report.residuals.append(err)
            yield (err,)
            u = (1.0 - cfg.beta) * u + cfg.beta * dual.aug.apply_inv(g + B @ u)

    return _until_stopped(report, cfg, steps())


def one_step(dual: DualSystem, tol: float, u_ref: np.ndarray) -> ConvergenceReport:
    """One undamped update from zero, lam = d: exact for the one-step reflection.

    Logs the relative residual and primal error of iterates 0 and 1; converged
    means a primal error within tol after the step.
    """
    d, u0 = dual.rhs_d_and_u_f()     # u0 = primal_recover(0)
    u = dual.primal_recover(d)
    K_lam = dual.apply_K_and_loss(d)[0]   # by a solve: with T = I, N is n_u x n_u
    residual = dual.norm_Minv(d - K_lam) / (dual.norm_Minv(d) or 1.0)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0
    errors = [float(np.linalg.norm(v - u_ref)) / u_scale for v in (u0, u)]
    return ConvergenceReport(residuals=[1.0, residual], primal_errors=errors,
                             converged=errors[1] <= tol,
                             diverged=not (math.isfinite(residual)
                                           and math.isfinite(errors[1])),
                             iterations=1, lam=d, u=u)


def gmres_dual(dual: DualSystem, tol: float, maxit: int | None = None) -> ConvergenceReport:
    """Full GMRES on (I - X^T S) lambda = d in the M^-1 inner product."""
    lam, history = gmres(dual.apply_K, dual.rhs_d(), ip=dual.ip, tol=tol, maxit=maxit)
    return ConvergenceReport.krylov(dual.primal_recover(lam), lam, history, tol)


def _block_roots(M):
    """M^{1/2} and M^{-1/2} of a block-diagonal Hermitian positive definite M.

    The blocks are linalg.diagonal_blocks(M). One stacked eigh per block
    size gives each block's roots V w^{1/2} V^H and V w^{-1/2} V^H, so no
    eigh is wider than M's widest block. Both roots are returned as sparse
    matrices with M's block-diagonal pattern.
    """
    pattern, roots = [], []
    for starts, stack in diagonal_blocks(M):
        w, V = np.linalg.eigh(stack)
        if w.min() <= 0.0:
            raise ValueError("impedance weight must be positive definite")
        sqrt_w, Vt = np.sqrt(w)[:, None, :], V.conj().transpose(0, 2, 1)
        index = starts[:, None, None] + np.arange(stack.shape[1])    # (count, 1, size)
        pattern.append(np.broadcast_arrays(index.transpose(0, 2, 1), index))  # rows, cols
        roots.append(((V * sqrt_w) @ Vt, (V / sqrt_w) @ Vt))
    rows, cols = (np.concatenate(a, axis=None) for a in zip(*pattern))
    return [scipy.sparse.csr_array((np.concatenate(R, axis=None), (rows, cols)),
                                   shape=M.shape) for R in zip(*roots)]


def estimate_gamma(dual: DualSystem,
                   redundancy: scipy.sparse.csr_array | None = None) -> float:
    """Smallest singular value of M^{-1/2} (I - X^T S) M^{1/2}.

    Equals the best constant gamma in |(I - X^T S) lam|_{M^-1} >=
    gamma |lam|_{M^-1}. Redundancy directions (where the operator vanishes
    by construction) are deflated before taking the minimum.

    M^{-1/2} K M^{1/2} is a sparse product of dual.K and M's block roots (on
    a diagonal M, k_ij times fl(1/sqrt(m_i)), then fl(sqrt(m_j))), made
    dense for the SVD, which is cubic in dim lambda.
    """
    root, inv_root = _block_roots(dual.M)
    B = (inv_root @ dual.K @ root).toarray()
    if redundancy is not None and redundancy.shape[1] > 0:
        # orthonormal basis of the complement of the transformed nullspace
        B = B @ scipy.linalg.null_space((inv_root @ redundancy).toarray().conj().T)
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
