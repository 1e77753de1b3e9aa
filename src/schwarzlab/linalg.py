"""Minimal complex linear-algebra kernels shared by all other modules.

Complex scalars are the universal element type: real problems are embedded
with zero imaginary part so that a single code path serves both the coercive
(alpha = 1) and the wave (alpha = i) regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SparseFactorization",
    "WeightedInnerProduct",
    "SingularMatrixError",
    "GmresBreakdownError",
    "accumulate",
    "factorize",
    "gmres",
    "save_matrix_market",
    "load_matrix_market",
]

#: relative pivot magnitude below which a factorization is declared singular
PIVOT_TOL = 1e-12


class SingularMatrixError(ValueError):
    """Raised when a pivot falls below the relative singularity tolerance."""


class GmresBreakdownError(RuntimeError):
    """Raised on a non-happy Arnoldi breakdown; carries the iteration index."""

    def __init__(self, iteration: int):
        super().__init__(f"Arnoldi breakdown at iteration {iteration}")
        self.iteration = iteration


def accumulate(rows, cols, values, shape):
    """Sum duplicate entries in order of appearance; deterministic assembly.

    With 2-D `shape` the (row, col, value) triplets become a canonical complex
    CSR array; with cols=None and shape=(n,) the (row, value) pairs become a
    dense complex vector. np.add.reduceat adds group members sequentially
    left to right, so the result is bitwise reproducible for a fixed order.
    """
    rows = np.asarray(rows, dtype=np.int64)
    values = np.asarray(values, dtype=np.complex128)
    if cols is None:
        out = np.zeros(shape, dtype=np.complex128)
        keys = (np.arange(len(rows)), rows)
    else:
        cols = np.asarray(cols, dtype=np.int64)
        out = scipy.sparse.csr_array(shape, dtype=np.complex128)
        keys = (np.arange(len(rows)), cols, rows)
    if len(values) == 0:
        return out
    order = np.lexsort(keys)            # stable within each (row, col) group
    r, v = rows[order], values[order]
    boundary = np.empty(len(r), dtype=bool)
    boundary[0] = True
    boundary[1:] = r[1:] != r[:-1]
    if cols is not None:
        c = cols[order]
        boundary[1:] |= c[1:] != c[:-1]
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(v, starts)
    if cols is None:
        out[r[starts]] = summed
        return out
    csr = scipy.sparse.csr_array((summed, (r[starts], c[starts])), shape=shape)
    csr.sort_indices()
    return csr


@dataclass(frozen=True)
class SparseFactorization:
    """Sparse LU (SuperLU, fill-reducing column order) of a square matrix."""

    size: int
    lu: scipy.sparse.linalg.SuperLU = field(repr=False)

    def solve(self, b, trans: str = "N") -> np.ndarray:
        """Solve A x = b, or A^T x = b with trans="T"; b is 1-D or 2-D."""
        b = np.asarray(b, dtype=np.complex128)
        if b.shape[0] != self.size:
            raise ValueError("right-hand side has wrong length")
        return self.lu.solve(b, trans=trans)


def _check_pivots(pivots: np.ndarray, scale: float) -> None:
    if len(pivots) and (scale == 0.0 or np.min(pivots) <= PIVOT_TOL * scale):
        raise SingularMatrixError(
            "matrix is singular to tolerance (smallest pivot "
            f"{np.min(pivots):.3e} vs scale {scale:.3e})")


def factorize(A) -> SparseFactorization:
    """Sparse LU with partial pivoting; rejects singular-to-tolerance pivots.

    Sparse and dense inputs alike are converted to CSC and factorized by
    SuperLU. A pivot of magnitude at most PIVOT_TOL * max|A| raises
    SingularMatrixError, and `solve` takes 1-D or 2-D right-hand sides.
    """
    A = scipy.sparse.csc_array(A, dtype=np.complex128)
    if A.shape[0] != A.shape[1]:
        raise ValueError("factorize expects a square matrix")
    scale = float(np.abs(A.data).max()) if A.nnz else 0.0
    try:
        lu = scipy.sparse.linalg.splu(A)
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    _check_pivots(np.abs(lu.U.diagonal()), scale)
    return SparseFactorization(size=A.shape[0], lu=lu)


class WeightedInnerProduct:
    """Inner product <x, y> = y^H W x with W symmetric positive definite.

    mode "M" uses W itself, mode "M_inverse" uses W^{-1} (solved through a
    factorization of W; W is never inverted explicitly). W is held as a
    sparse csr_array.
    """

    def __init__(self, weight, mode: str = "M"):
        if mode not in ("M", "M_inverse"):
            raise ValueError("mode must be 'M' or 'M_inverse'")
        W = scipy.sparse.csr_array(weight, dtype=np.complex128)
        if abs(W - W.T).max() > 1e-12 * max(abs(W).max(), 1.0):
            raise ValueError("weight must be symmetric")
        self.mode = mode
        self._w = W
        self._fac = factorize(W) if mode == "M_inverse" else None

    @property
    def dim(self) -> int:
        return self._w.shape[0]

    def apply_weight(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        if self.mode == "M":
            return self._w @ x
        return self._fac.solve(x)

    def dot(self, x, y) -> complex:
        return complex(np.vdot(np.asarray(y), self.apply_weight(x)))

    def norm(self, x) -> float:
        value = self.dot(x, x).real
        # clip tiny negative round-off before the square root
        return float(np.sqrt(max(value, 0.0)))


def _weighted_norm(x: np.ndarray, Wx: np.ndarray) -> float:
    # clip tiny negative round-off before the square root
    return float(np.sqrt(max(np.vdot(x, Wx).real, 0.0)))


def gmres(
    apply: Callable[[np.ndarray], np.ndarray],
    b,
    ip: WeightedInnerProduct | None = None,
    tol: float = 1e-10,
    maxit: int | None = None,
    x0=None,
) -> tuple[np.ndarray, list[float]]:
    """Full (restart-free) GMRES in a weighted inner product.

    W must be Hermitian positive definite (None means W = I). The basis V
    is stored together with Z = W V, so the weight is applied once per
    Krylov vector, plus once for the initial residual and once for |b|_W.
    Arnoldi orthogonalizes by two passes of block classical Gram-Schmidt:
    h = V^H W w, then w -= V h and W w -= Z h. Returns the iterate and the
    history of relative weighted residual norms (history[0] is 1.0 for a
    nonzero right-hand side). A non-finite initial residual or Arnoldi
    vector ends the run at once, with a non-finite last history entry.
    """
    b = np.asarray(b, dtype=np.complex128)
    n = b.shape[0]
    weigh = ip.apply_weight if ip is not None else (lambda v: v)
    if maxit is None:
        maxit = n
    maxit = min(maxit, n)

    x = np.zeros(n, dtype=np.complex128) if x0 is None else np.asarray(x0, np.complex128).copy()
    r = b - apply(x) if x0 is not None else b.copy()
    Wr = weigh(r)
    beta = _weighted_norm(r, Wr)
    bnorm = ip.norm(b) if ip is not None else _weighted_norm(b, b)
    ref = bnorm if bnorm > 0.0 else 1.0
    history = [beta / ref]
    if beta / ref <= tol or n == 0 or not np.isfinite(beta):
        return x, history

    V = np.zeros((maxit + 1, n), dtype=np.complex128)
    Z = np.zeros((maxit + 1, n), dtype=np.complex128)
    H = np.zeros((maxit + 1, maxit), dtype=np.complex128)
    V[0] = r / beta
    Z[0] = Wr / beta
    # Givens rotation data and transformed rhs
    cs = np.zeros(maxit, dtype=np.complex128)
    sn = np.zeros(maxit, dtype=np.complex128)
    g = np.zeros(maxit + 1, dtype=np.complex128)
    g[0] = beta

    k_used = 0
    for k in range(maxit):
        # copies: both are updated in place below
        w = np.array(apply(V[k]), dtype=np.complex128)
        Ww = np.array(weigh(w), dtype=np.complex128)
        # classical Gram-Schmidt, two passes; V^H W w = conj(V conj(W w))
        for _pass in range(2):
            h = np.conj(V[:k + 1] @ np.conj(Ww))
            H[:k + 1, k] += h
            w -= h @ V[:k + 1]
            Ww -= h @ Z[:k + 1]
        hk1 = _weighted_norm(w, Ww)
        if not np.isfinite(hk1):
            history.append(float("nan"))
            break
        H[k + 1, k] = hk1

        # apply stored rotations to the new column
        for j in range(k):
            t = cs[j] * H[j, k] + sn[j] * H[j + 1, k]
            H[j + 1, k] = -np.conj(sn[j]) * H[j, k] + np.conj(cs[j]) * H[j + 1, k]
            H[j, k] = t
        # new rotation eliminating H[k+1, k]
        denom = np.sqrt(np.abs(H[k, k]) ** 2 + np.abs(H[k + 1, k]) ** 2)
        if denom == 0.0:
            raise GmresBreakdownError(k)
        cs[k] = np.conj(H[k, k]) / denom
        sn[k] = np.conj(H[k + 1, k]) / denom
        H[k, k] = denom
        H[k + 1, k] = 0.0
        g[k + 1] = -np.conj(sn[k]) * g[k]
        g[k] = cs[k] * g[k]

        res = abs(g[k + 1]) / ref
        history.append(float(res))
        k_used = k + 1
        if res <= tol or hk1 <= 1e-14 * beta:
            break
        V[k + 1] = w / hk1
        Z[k + 1] = Ww / hk1

    y = scipy.linalg.solve_triangular(H[:k_used, :k_used], g[:k_used], check_finite=False)
    x = x + V[:k_used].T @ y
    return x, history


# -- Matrix Market I/O -----------------------------------------------------


def save_matrix_market(path, A) -> None:
    """Write a sparse matrix in complex general coordinate format."""
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(A, dtype=np.complex128),
                     field="complex", symmetry="general")


def load_matrix_market(path) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array(scipy.io.mmread(str(path)), dtype=np.complex128)
