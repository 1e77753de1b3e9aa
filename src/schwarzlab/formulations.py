"""Solvable systems: augmented local operators, the dual interface system,
primal recovery, pseudo-energy bookkeeping, the one-step reflection, and the
sign-regularized one-sided jump method.

The dual system is the interface fixed-point equation
(I - X^T S) lambda = d with the scattering operator
S = -I + 2 alpha M T (A + alpha T^T M T)^{-1} T^T; the factor 2M holds
because every impedance is side-equal (one block on all sides of a facet).
N = T (A + alpha T^T M T)^{-1} T^T is block-diagonal by subdomain; it is
built once, and K is applied through it with no augmented solve. For a
sparse X, K itself is a sparse matrix formed from N.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse
import scipy.sparse.linalg

from .decomp import Decomposition
from .facets import rooted_forest, spanning_forest
from .linalg import (SingularMatrixError, WeightedInnerProduct, block_diagonal_solver,
                     bordered, column_vdots, factorize, gmres)
from .traces import ExchangeOperator, TraceOperator

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
]

#: packed columns per augmented solve in building DualSystem.N; N is bitwise
#: the same at every width, and a narrow one keeps the work small
K_COLUMNS = 8


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
        self._A_csr = decomp.A_blockdiag()

    @cached_property
    def ip(self) -> WeightedInnerProduct:
        """The M^-1 inner product, through M's diagonal blocks."""
        return WeightedInnerProduct(block_diagonal_solver(self.M))

    # -- norms -------------------------------------------------------------

    def norm_Minv(self, lam) -> float:
        return self.ip.norm(lam)

    # -- operator applications --------------------------------------------

    def _outgoing(self, v) -> np.ndarray:
        """2 alpha M T v for an augmented solve v."""
        return 2.0 * self.alpha * (self.M @ (self.T @ v))

    def _K_from_trace(self, lam, Tv) -> np.ndarray:
        """K lam = lam - X^T (-lam + 2 alpha M T v) from T v, v = Atilde^{-1} T^T lam."""
        return lam - self.X.T @ (-lam + 2.0 * self.alpha * (self.M @ Tv))

    def _loss(self, V) -> np.ndarray:
        """Subdomain loss Re or Im of <A v, conj(v)> (alpha = 1 or alpha = i)
        for each column v of an n_u x k block V."""
        quad = column_vdots(V, self._A_csr @ V)
        return quad.imag if self.alpha == 1j else quad.real

    def apply_S(self, lam) -> np.ndarray:
        lam = np.asarray(lam, dtype=np.complex128)
        return -lam + self._outgoing(self.aug.apply_inv(self._Tt @ lam))

    def apply_K(self, lam) -> np.ndarray:
        """K = I - X^T S, through N: no augmented solve."""
        lam = np.asarray(lam, np.complex128)
        return self._K_from_trace(lam, self.N @ lam)

    def apply_K_and_loss(self, lam) -> tuple[np.ndarray, float, np.ndarray]:
        """K lam, pseudo_energy's loss p at lam, and v = Atilde^{-1} T^T lam.

        All three come from one augmented solve; primal_recover(lam) is
        Atilde^{-1} f + v by linearity.
        """
        lam = np.asarray(lam, np.complex128)
        v = self.aug.apply_inv(self._Tt @ lam)
        return self._K_from_trace(lam, self.T @ v), float(self._loss(v[:, None])[0]), v

    def rhs_d_and_u_f(self) -> tuple[np.ndarray, np.ndarray]:
        """d = X^T 2 alpha M T u_f and u_f = Atilde^{-1} f, from one solve."""
        u_f = self.aug.apply_inv(self.f)
        return self.X.T @ self._outgoing(u_f), u_f

    def rhs_d(self) -> np.ndarray:
        return self.rhs_d_and_u_f()[0]

    def primal_recover(self, lam) -> np.ndarray:
        """u = (A + alpha T^T M T)^{-1} (f + T^T lambda)."""
        return self.aug.apply_inv(self.f + self._Tt @ np.asarray(lam, np.complex128))

    # -- diagnostics -------------------------------------------------------

    def pseudo_energy(self, lam):
        """Return (|S lam|^2_{M^-1} + 4p, |lam|^2_{M^-1}, p).

        p is the subdomain loss Re<A v, conj(v)> (coercive, alpha = 1) or
        Im<A v, conj(v)> (wave, alpha = i) with v the augmented solve of
        T^T lam; the two sides agree identically, which is what makes the
        scattering operator non-expansive. S lam is formed from the same v.
        A dim x k block lam gives three length-k arrays, one entry per
        column, from one augmented solve and one M^-1 application; each
        entry equals the call on that column alone, bit for bit.
        """
        lam = np.asarray(lam, dtype=np.complex128)
        Lam = lam.reshape(self.dim, -1)
        k = Lam.shape[1]
        V = self.aug.apply_inv(self._Tt @ Lam)
        p = self._loss(V)
        norms = self.ip.norm(np.hstack([-Lam + self._outgoing(V), Lam])).tolist()
        # Python's float power, as for one column
        lhs = np.array([s ** 2 for s in norms[:k]]) + 4.0 * p
        rhs = np.array([s ** 2 for s in norms[k:]])
        if lam.ndim == 1:
            return float(lhs[0]), float(rhs[0]), float(p[0])
        return lhs, rhs, p

    @cached_property
    def N(self) -> scipy.sparse.csr_array:
        """T Atilde^{-1} T^T, block-diagonal by subdomain, from packed solves.

        The trace rows run subdomain by subdomain, so packed column j carries
        the j-th unit vector of every trace block and returns column j of
        every diagonal block, unmixed (the sparse LU makes no fill between
        blocks). A solve takes K_COLUMNS packed columns, which bounds its work
        arrays to n_u x K_COLUMNS; its result goes straight into the CSR data.
        """
        # subdomain of each trace row, from the one column it selects
        row_sub = np.searchsorted(self.decomp.offsets, self.T.indices, side="right") - 1
        bounds = np.searchsorted(row_sub, np.arange(self.decomp.n_sub + 1))
        lo, sizes = bounds[:-1], np.diff(bounds)
        row_size = sizes[row_sub]
        indptr = np.concatenate(([0], np.cumsum(row_size)))
        indices = np.arange(indptr[-1]) + np.repeat(lo[row_sub] - indptr[:-1], row_size)
        data = np.empty(indptr[-1], dtype=np.complex128)
        width = int(sizes.max())
        for a in range(0, width, K_COLUMNS):
            j = np.arange(a, min(a + K_COLUMNS, width))
            sub, col = np.nonzero(j < sizes[:, None])
            E = np.zeros((self.dim, len(j)), dtype=np.complex128)
            E[lo[sub] + j[col], col] = 1.0
            Tv = self.T @ self.aug.apply_inv(self._Tt @ E)
            row, col = np.nonzero(j < row_size[:, None])
            data[indptr[row] + j[col]] = Tv[row, col]
        return scipy.sparse.csr_array((data, indices, indptr), shape=(self.dim, self.dim))

    @cached_property
    def K(self) -> scipy.sparse.csr_array:
        """I - X^T S as one sparse matrix, S = 2 alpha M N - I, for a sparse X.

        On a diagonal M its entries are those of the solve-based
        K lam = lam - X^T (-lam + 2 alpha M T v) on unit vectors, bit for bit.
        """
        identity = scipy.sparse.eye_array(self.dim, dtype=np.complex128, format="csr")
        return (identity - self.X.T @ ((2.0 * self.alpha) * (self.M @ self.N)
                                       - identity)).tocsr()

    def solve_direct(self, d, redundancy=None) -> np.ndarray:
        """The Euclidean minimum-norm solution of K lam = d, by one sparse LU.

        K Z = 0 and Z^H M^-1 K = 0 for the redundancy basis Z, so K bordered
        with Z is nonsingular, and its solution has Z^H lam = 0: it is the
        minimum-norm solution. With no basis K is factorized alone.
        """
        A = bordered(self.K, redundancy)
        rhs = np.concatenate([d, np.zeros(A.shape[0] - self.dim)])
        return factorize(A).solve(rhs)[:self.dim]

    def deflation(self, basis):
        """The map removing redundancy components of lam, orthogonally in
        the M^-1 metric; M^-1 Z and the Gram matrix Z^H M^-1 Z are formed
        once, so repeated applications make no M solve."""
        if basis is None or basis.shape[1] == 0:
            return lambda lam: np.asarray(lam, np.complex128)
        Z = basis.toarray().astype(np.complex128)
        WZ = self.ip.apply_weight(Z)
        gram = Z.conj().T @ WZ

        def deflate(lam) -> np.ndarray:
            coef = np.linalg.solve(gram, WZ.conj().T @ lam)
            return np.asarray(lam, np.complex128) - Z @ coef
        return deflate


def build_dual_system(decomp: Decomposition, trace: TraceOperator,
                      M: scipy.sparse.csr_array, exchange: ExchangeOperator,
                      alpha: complex) -> DualSystem:
    """Assemble the dual system from interface operators."""
    return DualSystem(decomp, trace.matrix, M, exchange.matrix, alpha)


# -- exceptional one-step reflection ---------------------------------------


def exceptional_exchange(decomp: Decomposition) -> ExchangeOperator:
    """X = 2 R Ahat^{-1} R^T A - I on the full product space, applied only.

    Defined for the coercive regime (real symmetric positive definite
    operators); the whole product space acts as the trace space (T = I) and
    the impedance equals the operator itself (M = A). The matrix is a
    complex LinearOperator: X v = 2 R Ahat^{-1} R^T A v - v and
    X^T v = 2 A R Ahat^{-T} R^T v - v cost one sparse solve with the Ahat
    factor per column, for 1-D and 2-D v alike; X is never formed. X is
    real, so the transpose callable also serves as the adjoint. The
    operator keeps the Ahat factor as `factor`, for the run's reference
    solve. A and R stay complex, so no product casts them, and the last
    two steps update the product in place.
    """
    problem = decomp.problem
    if problem.wave:
        raise ValueError("the one-step reflection needs the coercive regime "
                         "(real symmetric positive definite operators)")
    A = decomp.A_blockdiag()        # imaginary part zero in the coercive regime
    R = decomp.R_stacked()
    Ahat_fac = factorize(problem.A_hat())

    def reflect(y, v):
        y *= 2.0
        y -= v
        return y

    def apply(v):
        return reflect(R @ Ahat_fac.solve(R.T @ (A @ v)), v)

    def apply_transpose(v):
        return reflect(A @ (R @ Ahat_fac.solve(R.T @ v, trans="T")), v)

    X = scipy.sparse.linalg.LinearOperator(
        A.shape, matvec=apply, matmat=apply, rmatvec=apply_transpose,
        rmatmat=apply_transpose, dtype=np.complex128)
    return ExchangeOperator(X, factor=Ahat_fac)


def exceptional_system(decomp: Decomposition,
                       exchange: ExchangeOperator | None = None) -> DualSystem:
    """Dual system of the one-step configuration: T = I, M = A, alpha = 1.

    The augmented blocks are A_i + A_i = 2 A_i. The scattering operator
    degenerates to zero, so one undamped update from lambda = 0 reproduces
    the restricted global solution exactly. `exchange` is the reflection
    from exceptional_exchange, built here when not given. The augmented
    factor of 2 A also serves the M^-1 inner product as M^-1 = 2 Atilde^-1
    (scaling by 2 is exact), so A is factorized once. M is A itself and T
    is complex, so no product with a complex block casts them.
    """
    X = exceptional_exchange(decomp) if exchange is None else exchange
    A = decomp.A_blockdiag()        # imaginary part zero in the coercive regime
    identity = scipy.sparse.eye_array(A.shape[0], dtype=np.complex128, format="csr")
    dual = DualSystem(decomp, identity, A, X.matrix, 1.0)
    aug = dual.aug
    dual.ip = WeightedInnerProduct(lambda x: 2.0 * aug.apply_inv(x))
    return dual


# -- sign-regularized one-sided jump method --------------------------------


@dataclass(frozen=True)
class FetiH:
    """Augmented operators, sign pattern, and one-sided signed jump."""

    signs: np.ndarray = field(repr=False)          # per-subdomain +-1
    tree_pairs: tuple = ()                         # selected adjacency edges
    W: scipy.sparse.csr_array | None = None        # signed weight Atilde is built from
    aug: AugmentedLocal | None = None
    J: scipy.sparse.csr_array | None = None        # signed slot jump, (facet, dof) rows
    B: scipy.sparse.csr_array | None = None        # one-sided signed jump J T
    f: np.ndarray | None = None


def fetih_build(decomp: Decomposition, trace: TraceOperator,
                M: scipy.sparse.csr_array) -> FetiH:
    """Sign pattern, regularized operators, and jump for a bilateral system.

    A spanning tree of the subdomain adjacency graph fixes an alternating
    sign pattern; each tree facet contributes +-i sigma_i T_iF^T M_F T_iF to
    the two adjacent subdomains, which cancels exactly in the assembled sum:
    the augmented form with alpha = i and W = sigma M, where sigma is
    sigma_i on the slots of tree facets and 0 elsewhere. The jump J has one
    row per (facet, dof), -1 on the smaller subdomain's slot and +1 on the
    larger one's, and B = J T. Requires loss-free local operators (no
    first-order loss part).
    """
    system = trace.system
    if not system.is_bilateral:
        raise ValueError("the one-sided jump method needs a bilateral facet system")
    for parts in decomp.local_parts:
        if np.any(parts["A1"].data):
            raise ValueError("the one-sided jump method needs loss-free local "
                             "operators (zero first-order loss part)")

    pairs = {tuple(sorted(F.subdomains)) for F in system.facets}
    nodes = range(decomp.n_sub)
    tree = spanning_forest(nodes, pairs)
    if len(tree) != decomp.n_sub - 1:
        raise ValueError("subdomain adjacency graph is disconnected")

    # +1 at even tree depth from subdomain 0, -1 at odd depth
    depth = rooted_forest(nodes, tree)[1]
    signs = np.array([1 - 2 * (depth[i] % 2) for i in nodes], dtype=np.int64)

    tree_set = set(tree)
    on_tree = [tuple(sorted(F.subdomains)) in tree_set for F in system.facets]
    sigma = [signs[i] * on_tree[fidx] for i, fidx, _k in trace.slots]
    W = scipy.sparse.diags_array(sigma, dtype=float) @ M
    aug = AugmentedLocal(decomp, trace.matrix, W, 1j)

    # the rows of sides hold their two slots smaller subdomain first
    J = trace.sides.copy()
    J.data = np.tile([-1.0, 1.0], J.shape[0])
    B = J @ trace.matrix
    B.sort_indices()
    return FetiH(signs=signs, tree_pairs=tuple(tree), W=W, aug=aug, J=J, B=B,
                 f=decomp.f_concat)


def fetih_solve(fetih: FetiH, tol: float, maxit: int | None = None):
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
    """Max entry of J W J^T; zero when the sign terms cancel.

    Each entry is sigma_i (M_F)_ab + sigma_j (M_F)_ab over the two sides of
    one facet, exactly zero when the signs are opposite, and a zero on
    every facet makes the assembled sum of the +-i M_F zero. W is the
    weight the augmented operator is factorized from. The base operators
    are checked part by part by decomp.check_assembling.
    """
    return float(abs(fetih.J @ fetih.W @ fetih.J.T).max())
