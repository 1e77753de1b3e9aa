"""Minimal complex linear-algebra kernels shared by all other modules.

Complex scalars are the universal element type: real problems are embedded
with zero imaginary part so that a single code path serves both the coercive
(alpha = 1) and the wave (alpha = i) regime.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np
import scipy.io
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SparseMatrix",
    "DenseFactorization",
    "SparseFactorization",
    "WeightedInnerProduct",
    "SingularMatrixError",
    "GmresBreakdownError",
    "spmv",
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


class SparseMatrix:
    """Immutable complex sparse matrix in compressed-row layout.

    Duplicate (row, col) pairs in the input are summed during finalization,
    left to right in order of appearance (deterministic accumulation).
    """

    __slots__ = ("csr", "symmetric_structure")

    def __init__(
        self,
        rows: int,
        cols: int,
        entries: Sequence[tuple[int, int, complex]] | None = None,
        *,
        symmetric_structure: bool = False,
    ):
        if entries:
            r = np.asarray([e[0] for e in entries], dtype=np.int64)
            c = np.asarray([e[1] for e in entries], dtype=np.int64)
            v = np.asarray([e[2] for e in entries], dtype=np.complex128)
            self.csr = _accumulate_csr(r, c, v, (rows, cols))
        else:
            self.csr = scipy.sparse.csr_array((rows, cols), dtype=np.complex128)
        if symmetric_structure and rows == cols:
            pat = self.csr.copy()
            pat.data = np.ones_like(pat.data)
            if (pat - pat.T).nnz != 0:
                raise ValueError("entry pattern is not structurally symmetric")
        self.symmetric_structure = bool(symmetric_structure)

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_csr(cls, csr, *, symmetric_structure: bool = False) -> "SparseMatrix":
        out = cls.__new__(cls)
        out.csr = scipy.sparse.csr_array(csr, dtype=np.complex128)
        out.symmetric_structure = bool(symmetric_structure)
        return out

    @classmethod
    def from_triplets(cls, rows, cols, values, shape) -> "SparseMatrix":
        out = cls.__new__(cls)
        out.csr = _accumulate_csr(
            np.asarray(rows, dtype=np.int64),
            np.asarray(cols, dtype=np.int64),
            np.asarray(values, dtype=np.complex128),
            shape,
        )
        out.symmetric_structure = False
        return out

    @classmethod
    def from_dense(cls, dense) -> "SparseMatrix":
        return cls.from_csr(scipy.sparse.csr_array(np.asarray(dense, dtype=np.complex128)))

    @classmethod
    def identity(cls, n: int) -> "SparseMatrix":
        return cls.from_csr(scipy.sparse.identity(n, dtype=np.complex128, format="csr"),
                            symmetric_structure=True)

    # -- queries -----------------------------------------------------------

    @property
    def rows(self) -> int:
        return self.csr.shape[0]

    @property
    def cols(self) -> int:
        return self.csr.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.csr.shape

    @property
    def nnz(self) -> int:
        return self.csr.nnz

    def to_dense(self) -> np.ndarray:
        return self.csr.toarray()

    def transpose(self) -> "SparseMatrix":
        return SparseMatrix.from_csr(self.csr.T.tocsr(),
                                     symmetric_structure=self.symmetric_structure)

    def __matmul__(self, other):
        if isinstance(other, SparseMatrix):
            return SparseMatrix.from_csr(self.csr @ other.csr)
        return spmv(self, other)

    def max_abs(self) -> float:
        return float(np.max(np.abs(self.csr.data))) if self.csr.nnz else 0.0


def _accumulate_csr(rows, cols, values, shape):
    """Sum duplicate triplets in appearance order; return canonical CSR.

    np.add.reduceat adds group members sequentially left to right, so the
    result is bitwise reproducible for a fixed triplet order.
    """
    if len(values) == 0:
        return scipy.sparse.csr_array(shape, dtype=np.complex128)
    order = np.lexsort((np.arange(len(rows)), cols, rows))  # stable within (r, c)
    r, c, v = rows[order], cols[order], values[order]
    boundary = np.empty(len(r), dtype=bool)
    boundary[0] = True
    boundary[1:] = (r[1:] != r[:-1]) | (c[1:] != c[:-1])
    starts = np.flatnonzero(boundary)
    summed = np.add.reduceat(v, starts)
    csr = scipy.sparse.csr_array((summed, (r[starts], c[starts])), shape=shape)
    csr.sort_indices()
    return csr


def spmv(A: SparseMatrix, x) -> np.ndarray:
    """Sparse matrix-vector product A @ x."""
    x = np.asarray(x, dtype=np.complex128)
    if A.cols != x.shape[0]:
        raise ValueError(f"dimension mismatch: matrix has {A.cols} columns, "
                         f"vector has {x.shape[0]} entries")
    return A.csr @ x


@dataclass(frozen=True)
class DenseFactorization:
    """LU factorization with partial pivoting of a densified square matrix."""

    size: int
    lu: np.ndarray = field(repr=False)
    piv: np.ndarray = field(repr=False)

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=np.complex128)
        if b.shape[0] != self.size:
            raise ValueError("right-hand side has wrong length")
        # non-finite values pass through, for the solvers to report
        return scipy.linalg.lu_solve((self.lu, self.piv), b, check_finite=False)


@dataclass(frozen=True)
class SparseFactorization:
    """Sparse LU (SuperLU, fill-reducing column order) of a square matrix."""

    size: int
    lu: scipy.sparse.linalg.SuperLU = field(repr=False)

    def solve(self, b) -> np.ndarray:
        b = np.asarray(b, dtype=np.complex128)
        if b.shape[0] != self.size:
            raise ValueError("right-hand side has wrong length")
        return self.lu.solve(b)


def _check_pivots(pivots: np.ndarray, scale: float) -> None:
    if len(pivots) and (scale == 0.0 or np.min(pivots) <= PIVOT_TOL * scale):
        raise SingularMatrixError(
            "matrix is singular to tolerance (smallest pivot "
            f"{np.min(pivots):.3e} vs scale {scale:.3e})")


def factorize(A) -> DenseFactorization | SparseFactorization:
    """LU with partial pivoting; rejects singular-to-tolerance pivots.

    A SparseMatrix or scipy sparse matrix gets a sparse LU, a dense array a
    dense LU. Either way a pivot of magnitude at most PIVOT_TOL * max|A|
    raises SingularMatrixError, and `solve` takes 1-D or 2-D right-hand sides.
    """
    if isinstance(A, SparseMatrix):
        A = A.csr
    sparse = scipy.sparse.issparse(A)
    A = scipy.sparse.csc_array(A, dtype=np.complex128) if sparse else np.asarray(A, np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("factorize expects a square matrix")
    n = A.shape[0]
    scale = float(abs(A).max()) if n else 0.0
    if sparse:
        try:
            lu = scipy.sparse.linalg.splu(A)
        except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
            raise SingularMatrixError(f"matrix is singular ({exc})") from exc
        _check_pivots(np.abs(lu.U.diagonal()), scale)
        return SparseFactorization(size=n, lu=lu)
    with warnings.catch_warnings():
        # the pivot check below turns exact singularity into an exception
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A, check_finite=False)
    _check_pivots(np.abs(np.diagonal(lu)), scale)
    return DenseFactorization(size=n, lu=lu, piv=piv)


class WeightedInnerProduct:
    """Inner product <x, y> = y^H W x with W symmetric positive definite.

    mode "M" uses W itself, mode "M_inverse" uses W^{-1} (solved through a
    factorization of W; W is never inverted explicitly). A factorization of
    W that the caller already holds can be passed to avoid a second one.
    """

    def __init__(self, weight, mode: str = "M", factorization=None):
        if mode not in ("M", "M_inverse"):
            raise ValueError("mode must be 'M' or 'M_inverse'")
        if isinstance(weight, SparseMatrix):
            dense = weight.to_dense()
        elif scipy.sparse.issparse(weight):
            dense = weight.toarray().astype(np.complex128)
        else:
            dense = np.asarray(weight, dtype=np.complex128)
        if np.max(np.abs(dense - dense.T)) > 1e-12 * max(np.max(np.abs(dense)), 1.0):
            raise ValueError("weight must be symmetric")
        if factorization is not None and factorization.size != dense.shape[0]:
            raise ValueError("factorization does not match the weight's size")
        self.mode = mode
        self._w = dense
        self._fac = None
        if mode == "M_inverse":
            self._fac = factorization if factorization is not None else factorize(dense)

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
    nonzero right-hand side).
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
    if beta / ref <= tol or n == 0:
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


def save_matrix_market(path, A: SparseMatrix) -> None:
    """Write a SparseMatrix in complex general coordinate format."""
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(A.csr),
                     field="complex", symmetry="general")


def load_matrix_market(path) -> SparseMatrix:
    loaded = scipy.io.mmread(str(path))
    return SparseMatrix.from_csr(scipy.sparse.csr_array(loaded).astype(np.complex128))
