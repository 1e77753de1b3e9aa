"""Solvable systems: augmented local operators, the dual interface system,
primal recovery, pseudo-energy bookkeeping, the one-step reflection, and the
sign-regularized one-sided jump method.

The dual system is the interface fixed-point equation
(I - X^T S) lambda = d with the scattering operator
S = -I + 2 alpha M T (A + alpha T^T M T)^{-1} T^T; the factor 2M holds
because every impedance is side-equal (one block on all sides of a facet).
Every scattering application costs one solve with the block-diagonal
augmented operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .decomp import Decomposition
from .facets import Facet, FacetSystem, spanning_forest
from .linalg import SingularMatrixError, WeightedInnerProduct, accumulate, factorize, gmres
from .traces import (ExchangeOperator, ImpedanceOperator, TraceOperator,
                     build_exchange, build_impedance, build_trace)

__all__ = [
    "AugmentedLocal",
    "DualSystem",
    "FetiH",
    "build_dual_system",
    "exceptional_exchange",
    "exceptional_system",
    "fetih_assembling_deviation",
    "fetih_build",
    "fetih_solve",
    "twin_scalar",
    "TwinScalar",
]

#: identity columns per K application in DualSystem.materialize_K
K_COLUMNS = 64


class AugmentedLocal:
    """Sparse LU factorization of A + alpha * T^T W T on the product space.

    The one augmented form of every method: W = M for the dual system,
    W = M signed on the tree facets with alpha = i for FETI-H, and T = I,
    W = A for the one-step reflection's 2 A_i. T and W are block-diagonal by
    subdomain, so the sum is too; it is factorized whole, which creates no
    fill between the blocks.
    """

    def __init__(self, decomp: Decomposition, T: scipy.sparse.csr_array,
                 W: scipy.sparse.csr_array, alpha: complex):
        self.matrix = decomp.A_blockdiag() + alpha * (T.T @ W @ T)
        try:
            self.factor = factorize(self.matrix)
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                "augmented operator is singular; the augmented-invertibility "
                "assumption fails") from exc

    def apply_inv(self, g) -> np.ndarray:
        """Solve the augmented system for a 1-D or 2-D right-hand side."""
        return self.factor.solve(g)


class DualSystem:
    """The interface equation (I - X^T S) lambda = d and its building blocks."""

    def __init__(self, decomp: Decomposition, T: scipy.sparse.csr_array,
                 M: scipy.sparse.csr_array,
                 X: scipy.sparse.csr_array | scipy.sparse.linalg.LinearOperator,
                 alpha: complex):
        self.decomp = decomp
        self.aug = AugmentedLocal(decomp, T, M, alpha)
        self.T = T
        self.M = M
        self.X = X
        self.alpha = complex(alpha)
        self.f = decomp.f_concat
        self.dim = T.shape[0]
        self._Tt = T.T.tocsr()
        self.ip = WeightedInnerProduct(M, mode="M_inverse")
        self._A_csr = decomp.A_blockdiag()

    # -- norms -------------------------------------------------------------

    def norm_Minv(self, lam) -> float:
        return self.ip.norm(lam)

    # -- operator applications --------------------------------------------

    def _outgoing(self, v) -> np.ndarray:
        """2 alpha M T v for an augmented solve v."""
        return 2.0 * self.alpha * (self.M @ (self.T @ v))

    def apply_S(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.complex128)
        return -lam + self._outgoing(self.aug.apply_inv(self._Tt @ lam))

    def apply_K(self, lam) -> np.ndarray:
        """K = I - X^T S."""
        return np.asarray(lam, np.complex128) - self.X.T @ self.apply_S(lam)

    def rhs_d(self) -> np.ndarray:
        return self.X.T @ self._outgoing(self.aug.apply_inv(self.f))

    def primal_recover(self, lam) -> np.ndarray:
        """u = (A + alpha T^T M T)^{-1} (f + T^T lambda)."""
        return self.aug.apply_inv(self.f + self._Tt @ np.asarray(lam, np.complex128))

    # -- diagnostics -------------------------------------------------------

    def pseudo_energy(self, lam) -> tuple[float, float, float]:
        """Return (|S lam|^2_{M^-1} + 4p, |lam|^2_{M^-1}, p).

        p is the subdomain loss Re<A v, conj(v)> (coercive, alpha = 1) or
        Im<A v, conj(v)> (wave, alpha = i) with v the augmented solve of
        T^T lam; the two sides agree identically, which is what makes the
        scattering operator non-expansive. S lam is formed from the same v.
        """
        lam = np.asarray(lam, dtype=np.complex128)
        v = self.aug.apply_inv(self._Tt @ lam)
        quad = complex(np.vdot(v, self._A_csr @ v))
        p = quad.imag if self.alpha == 1j else quad.real
        lhs = self.norm_Minv(-lam + self._outgoing(v)) ** 2 + 4.0 * p
        rhs = self.norm_Minv(lam) ** 2
        return lhs, rhs, p

    def materialize_K(self) -> np.ndarray:
        """Dense I - X^T S, applied to the identity K_COLUMNS columns at a time.

        A multi-column augmented solve allocates an n_u x ncols work array;
        the chunk bounds it.
        """
        K = np.empty((self.dim, self.dim), dtype=np.complex128)
        for a in range(0, self.dim, K_COLUMNS):
            ncols = min(K_COLUMNS, self.dim - a)
            K[:, a:a + ncols] = self.apply_K(
                np.eye(self.dim, ncols, -a, dtype=np.complex128))
        return K

    def solve_direct(self, deflate=None) -> np.ndarray:
        """Dense reference multiplier; minimum-norm when Z is nontrivial.

        `deflate` takes the redundancy basis; the least-squares solve already
        picks the minimum-norm solution, and the basis (if given) is used to
        project that representative onto the complement of Z in the M^-1
        metric so error histories are well defined.
        """
        K = self.materialize_K()
        d = self.rhs_d()
        lam, *_ = np.linalg.lstsq(K, d, rcond=None)
        if deflate is not None and deflate.shape[1] > 0:
            lam = self.deflate(lam, deflate)
        return lam

    def deflate(self, lam, basis) -> np.ndarray:
        """Remove redundancy components, orthogonally in the M^-1 metric."""
        if basis is None or basis.shape[1] == 0:
            return np.asarray(lam, np.complex128)
        Z = basis.astype(np.complex128)
        WZ = self.ip.apply_weight(Z)
        gram = Z.conj().T @ WZ
        coef = np.linalg.solve(gram, WZ.conj().T @ lam)
        return np.asarray(lam, np.complex128) - Z @ coef


def build_dual_system(decomp: Decomposition, trace: TraceOperator,
                      impedance: ImpedanceOperator, exchange: ExchangeOperator,
                      alpha: complex) -> DualSystem:
    """Assemble the dual system from interface operators."""
    return DualSystem(decomp, trace.matrix, impedance.matrix, exchange.matrix, alpha)


# -- exceptional one-step reflection ---------------------------------------


def exceptional_exchange(decomp: Decomposition) -> ExchangeOperator:
    """X = 2 R Ahat^{-1} R^T A - I on the full product space, applied only.

    Defined for the coercive regime (real symmetric positive definite
    operators); the whole product space acts as the trace space (T = I) and
    the impedance equals the operator itself (M = A). The matrix is a
    complex LinearOperator: X v = 2 R Ahat^{-1} R^T A v - v and
    X^T v = 2 A R Ahat^{-T} R^T v - v cost one sparse solve with the Ahat
    factor per column, for 1-D and 2-D v alike; X is never formed. X is
    real, so the transpose callable also serves as the adjoint.
    """
    problem = decomp.problem
    if problem.wave:
        raise ValueError("the one-step reflection needs the coercive regime "
                         "(real symmetric positive definite operators)")
    A = decomp.A_blockdiag().real
    R = decomp.R_stacked().real
    Ahat_fac = factorize(problem.A_hat())

    def apply(v):
        return 2.0 * (R @ Ahat_fac.solve(R.T @ (A @ v))) - v

    def apply_transpose(v):
        return 2.0 * (A @ (R @ Ahat_fac.solve(R.T @ v, trans="T"))) - v

    X = scipy.sparse.linalg.LinearOperator(
        A.shape, matvec=apply, matmat=apply, rmatvec=apply_transpose,
        rmatmat=apply_transpose, dtype=np.complex128)
    return ExchangeOperator("exceptional", X)


def exceptional_system(decomp: Decomposition) -> DualSystem:
    """Dual system of the one-step configuration: T = I, M = A, alpha = 1.

    The augmented blocks are A_i + A_i = 2 A_i. The scattering operator
    degenerates to zero, so one undamped update from lambda = 0 reproduces
    the restricted global solution exactly.
    """
    X = exceptional_exchange(decomp)
    A = decomp.A_blockdiag().real
    identity = scipy.sparse.identity(A.shape[0], format="csr")
    return DualSystem(decomp, identity, A, X.matrix, 1.0)


# -- twin-scalar fixture ---------------------------------------------------


@dataclass(frozen=True)
class _ScalarProblem:
    """Synthetic global problem with a single dof shared by two subdomains."""

    a: tuple[float, float]
    f_hat: complex
    wave: bool = False

    @property
    def n(self) -> int:
        return 1

    @property
    def f(self) -> np.ndarray:
        return np.array([self.f_hat], dtype=np.complex128)

    def combine(self, A0, A1, A2):
        return A0 + A1 + A2

    def A_hat(self) -> scipy.sparse.csr_array:
        return _scalar_csr(self.a[0] + self.a[1])

    def direct_solve(self) -> np.ndarray:
        return np.array([self.f_hat / (self.a[0] + self.a[1])], dtype=np.complex128)


@dataclass(frozen=True)
class TwinScalar:
    """Hand-checkable two-subdomain scalar fixture.

    One global dof, A_i = [a_i], impedance m on both sides, swap exchange.
    Scattering block per side: (alpha*m - a_i) / (alpha*m + a_i).
    """

    decomp: Decomposition
    system: FacetSystem
    trace: TraceOperator
    impedance: ImpedanceOperator
    exchange: ExchangeOperator
    dual: DualSystem


def _scalar_csr(value) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array(np.array([[value]], dtype=np.complex128))


def twin_scalar(a=(1.0, 1.0), m: float = 1.0, alpha: complex = 1.0,
                f=(1.0, 1.0)) -> TwinScalar:
    problem = _ScalarProblem(a=(float(a[0]), float(a[1])),
                             f_hat=complex(f[0]) + complex(f[1]))
    zero = _scalar_csr(0.0)
    local_parts = [{"A0": _scalar_csr(a[i]), "A1": zero, "A2": zero} for i in (0, 1)]
    decomp = Decomposition(problem, [[0], [0]], local_parts,
                           [[complex(f[0])], [complex(f[1])]])
    system = FacetSystem(variant="bilateral_max",
                         facets=(Facet(subdomains=(0, 1), dofs=(0,), kind="bilateral"),),
                         n_subdomains=2)
    trace = build_trace(system, decomp)
    impedance = build_impedance(trace, "scalar", m)
    exchange = build_exchange(trace, impedance, "swap")
    dual = build_dual_system(decomp, trace, impedance, exchange, complex(alpha))
    return TwinScalar(decomp=decomp, system=system, trace=trace,
                      impedance=impedance, exchange=exchange, dual=dual)


# -- sign-regularized one-sided jump method --------------------------------


@dataclass(frozen=True)
class FetiH:
    """Augmented operators, sign pattern, and one-sided signed jump."""

    decomp: Decomposition
    system: FacetSystem
    signs: np.ndarray = field(repr=False)          # per-subdomain +-1
    tree_pairs: tuple = ()                         # selected adjacency edges
    perp_facets: tuple = ()                        # facet indices on tree edges
    aug: AugmentedLocal | None = None
    facet_blocks: dict = field(default_factory=dict)  # shared M_F per facet
    B: scipy.sparse.csr_array | None = None        # one-sided signed jump of T
    f: np.ndarray | None = None


def fetih_build(decomp: Decomposition, impedance: ImpedanceOperator) -> FetiH:
    """Sign pattern, regularized operators, and jump for a bilateral system.

    A spanning tree of the subdomain adjacency graph fixes an alternating
    sign pattern; each tree facet contributes +-i sigma_i T_iF^T M_F T_iF to
    the two adjacent subdomains, which cancels exactly in the assembled sum:
    the augmented form with alpha = i and W = sigma M, where sigma is
    sigma_i on the slots of tree facets and 0 elsewhere. Requires loss-free
    local operators (no first-order loss part).
    """
    trace = impedance.trace
    system = trace.system
    if not system.is_bilateral:
        raise ValueError("the one-sided jump method needs a bilateral facet system")
    for parts in decomp.local_parts:
        if np.any(parts["A1"].data):
            raise ValueError("the one-sided jump method needs loss-free local "
                             "operators (zero first-order loss part)")

    pairs = {tuple(sorted(F.subdomains)) for F in system.facets}
    nodes = range(decomp.n_sub)
    tree, components = spanning_forest(nodes, pairs)
    if components != 1:
        raise ValueError("subdomain adjacency graph is disconnected")

    adj = {v: [] for v in nodes}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    signs = np.zeros(decomp.n_sub, dtype=np.int64)
    signs[0] = 1
    queue = [0]
    while queue:
        v = queue.pop(0)
        for w in adj[v]:
            if signs[w] == 0:
                signs[w] = -signs[v]
                queue.append(w)

    tree_set = set(tree)
    perp = tuple(fidx for fidx, F in enumerate(system.facets)
                 if tuple(sorted(F.subdomains)) in tree_set)

    sigma = [signs[i] if fidx in perp else 0 for i, fidx, _k in trace.slots]
    W = scipy.sparse.diags_array(sigma, dtype=float) @ impedance.matrix
    aug = AugmentedLocal(decomp, trace.matrix, W, 1j)

    # one-sided signed jump over all facets: row (tau_iF - tau_jF), i > j
    trace_col = trace.matrix.indices  # one selected column per trace row
    b_rows, b_cols, b_data = [], [], []
    row = 0
    for fidx, F in enumerate(system.facets):
        j, i = sorted(F.subdomains)  # i > j
        for k in F.dofs:
            b_rows.extend((row, row))
            b_cols.extend((trace_col[trace.slot(i, fidx, k)],
                           trace_col[trace.slot(j, fidx, k)]))
            b_data.extend((1.0, -1.0))
            row += 1
    B = scipy.sparse.csr_array((b_data, (b_rows, b_cols)),
                               shape=(row, decomp.offsets[-1]))

    return FetiH(decomp=decomp, system=system, signs=signs,
                 tree_pairs=tuple(tree), perp_facets=perp, aug=aug,
                 facet_blocks=dict(impedance.facet_blocks), B=B, f=decomp.f_concat)


def fetih_solve(fetih: FetiH, tol: float = 1e-10,
                maxit: int | None = None):
    """Eliminate u from the saddle system and iterate on the multipliers.

    Solves B Atilde^{-1} B^T lambda = B Atilde^{-1} f with unweighted full
    GMRES, then recovers u = Atilde^{-1} (f - B^T lambda).
    Returns (u, lambda, residual history).
    """
    B = fetih.B
    Bt = B.T.tocsr()
    aug = fetih.aug

    def apply(lam):
        return B @ aug.apply_inv(Bt @ lam)

    rhs = B @ aug.apply_inv(fetih.f)
    lam, history = gmres(apply, rhs, tol=tol, maxit=maxit)
    u = aug.apply_inv(fetih.f - Bt @ lam)
    return u, lam, history


def fetih_assembling_deviation(fetih: FetiH) -> float:
    """Max entry of the assembled sign terms +-i M_F; zero when they cancel.

    Accumulated sparsely, facet by facet with the two sides back to back, so
    the identical +-i M_F values cancel exactly. The base operators are
    checked part by part by decomp.check_assembling.
    """
    rows, cols, vals = [], [], []
    for fidx in fetih.perp_facets:
        F = fetih.system.facets[fidx]
        dofs = np.asarray(F.dofs)
        a, b = np.nonzero(fetih.facet_blocks[fidx])
        for i in F.subdomains:
            rows.append(dofs[a])
            cols.append(dofs[b])
            vals.append(1j * fetih.signs[i] * fetih.facet_blocks[fidx][a, b])
    n = fetih.decomp.n
    total = accumulate(np.concatenate(rows), np.concatenate(cols),
                       np.concatenate(vals), (n, n))
    return float(np.abs(total.data).max(initial=0.0))
