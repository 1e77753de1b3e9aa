"""Minimal complex linear-algebra kernels shared by all other modules.

Complex scalars are the universal element type: real problems are embedded
with zero imaginary part so that a single code path serves both the coercive
(alpha = 1) and the wave (alpha = i) regime.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

__all__ = [
    "SparseFactorization",
    "WeightedInnerProduct",
    "SingularMatrixError",
    "GmresBreakdownError",
    "accumulate",
    "block_diagonal_solver",
    "bordered",
    "column_vdots",
    "diagonal_blocks",
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
    """Sum duplicate entries; deterministic assembly for a fixed triplet order.

    With 2-D `shape` the (row, col, value) triplets become a canonical complex
    CSR array; with cols=None and shape=(n,) the (row, value) pairs become a
    dense complex vector. `values` may also be a list of 1-D value arrays on
    one pattern: one stable sort of the pattern then serves them all, and
    the result is a list with one output per array. CSR index arrays are
    int64. The members of a group keep their order of appearance, and
    np.add.reduceat reduces the group as its first member plus numpy's
    pairwise sum of the rest, not left to right; the result is bitwise
    reproducible for a fixed triplet order.
    """
    several = isinstance(values, list) and len(values) > 0 and np.ndim(values[0]) == 1
    key = np.asarray(rows, dtype=np.int64)
    if cols is not None:
        key = key * shape[1] + np.asarray(cols, dtype=np.int64)
    order = np.argsort(key, kind="stable")      # ties keep order of appearance
    key = key[order]
    starts = np.flatnonzero(np.diff(key, prepend=-1))
    key = key[starts]
    if cols is not None:
        indices = key % shape[1]
        indptr = np.zeros(shape[0] + 1, dtype=np.int64)
        np.cumsum(np.bincount(key // shape[1], minlength=shape[0]), out=indptr[1:])
    out = []
    for part in values if several else [values]:
        summed = np.add.reduceat(
            np.asarray(np.asarray(part)[order], dtype=np.complex128), starts)
        if cols is None:
            vector = np.zeros(shape, dtype=np.complex128)
            vector[key] = summed
            out.append(vector)
        else:
            csr = scipy.sparse.csr_array((summed, indices, indptr), shape=shape)
            csr.has_canonical_format = True
            out.append(csr)
    return out if several else out[0]


@dataclass(frozen=True)
class SparseFactorization:
    """Sparse LU (SuperLU) of a square matrix, ordered symmetrically by
    minimum degree on A + A^T, with threshold-1 partial pivoting."""

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
    SuperLU. Every matrix the lab factorizes has a symmetric pattern, so the
    fill-reducing order is a minimum-degree ordering of A + A^T applied to
    rows and columns alike (SymmetricMode). The pivot threshold stays at
    SuperLU's default 1.0: the diagonal is taken only when it is the largest
    entry of its column, which is plain partial pivoting and keeps matrices
    with a zero diagonal block, like the bordered redundancy system,
    factorizable. A pivot of magnitude at most PIVOT_TOL * max|A| raises
    SingularMatrixError, and `solve` takes 1-D or 2-D right-hand sides.
    """
    A = scipy.sparse.csc_array(A, dtype=np.complex128)
    if A.shape[0] != A.shape[1]:
        raise ValueError("factorize expects a square matrix")
    scale = float(np.abs(A.data).max()) if A.nnz else 0.0
    try:
        lu = scipy.sparse.linalg.splu(A, permc_spec="MMD_AT_PLUS_A",
                                      options={"SymmetricMode": True})
    except RuntimeError as exc:     # SuperLU: "Factor is exactly singular"
        raise SingularMatrixError(f"matrix is singular ({exc})") from exc
    _check_pivots(np.abs(lu.U.diagonal()), scale)
    return SparseFactorization(size=A.shape[0], lu=lu)


def bordered(A, Z):
    """[[A, Z], [Z^H, 0]] in CSC, the format factorize takes; A itself when
    Z has no columns. It is nonsingular exactly when Z has full column rank,
    span Z meets range A only in 0, and ker A meets the orthogonal complement
    of span Z only in 0 (Govaerts, Numerical Methods for Bifurcations of
    Dynamical Equilibria, SIAM 2000)."""
    if Z is None or Z.shape[1] == 0:
        return A
    return scipy.sparse.block_array([[A, Z], [Z.T.conj(), None]], format="csc")


def diagonal_blocks(M):
    """The smallest contiguous diagonal blocks of a block-diagonal M.

    M is square with a symmetric pattern. Its blocks are 1 x 1 for the
    lumped_mass and scalar impedances, and one per facet for glob_block.
    Returns one (starts, stack) pair per block size, in increasing size: the
    first row of every block of that size, and the blocks as a
    (count, size, size) array.
    """
    coo = M.tocoo()
    rows = np.arange(M.shape[0])
    reach = rows.copy()
    np.maximum.at(reach, coo.row, coo.col)
    stops = np.flatnonzero(np.maximum.accumulate(reach) == rows) + 1
    starts = np.concatenate(([0], stops[:-1]))
    sizes = stops - starts
    block = np.repeat(np.arange(len(sizes)), sizes)     # block of each row
    out = []
    for size in np.unique(sizes):
        members = sizes == size
        keep = members[block[coo.row]]
        b = block[coo.row[keep]]
        stack = np.zeros((members.sum(), size, size), dtype=M.dtype)
        np.add.at(stack, ((np.cumsum(members) - 1)[b], coo.row[keep] - starts[b],
                          coo.col[keep] - starts[b]), coo.data[keep])
        out.append((starts[members], stack))
    return out


def block_diagonal_solver(M) -> Callable[[np.ndarray], np.ndarray]:
    """M^{-1} for a Hermitian positive definite, block-diagonal M, by blocks.

    Rows of 1 x 1 blocks are divided by M's (real) diagonal, bitwise what a
    sparse LU solve of a diagonal M returns. Each wider block size takes one
    stacked dense solve. The returned solve takes a 1-D or 2-D array.
    """
    diagonal = np.ones(M.shape[0])
    wide = []
    for starts, stack in diagonal_blocks(M):
        if stack.shape[1] == 1:
            diagonal[starts] = stack[:, 0, 0].real
        else:
            wide.append((starts[:, None] + np.arange(stack.shape[1]), stack))

    def solve(x) -> np.ndarray:
        x = np.asarray(x, dtype=np.complex128)
        y = x / diagonal.reshape((-1,) + (1,) * (x.ndim - 1))
        for rows, stack in wide:
            b = x[rows]         # (count, size) or (count, size, k)
            y[rows] = np.linalg.solve(stack, b.reshape(rows.shape + (-1,))).reshape(b.shape)
        return y
    return solve


def column_vdots(X, Y) -> np.ndarray:
    """vdot(X[:, k], Y[:, k]) for each column k of two n x k blocks.

    Each column is reduced as one contiguous vector, so every entry equals
    the vdot of that column alone bit for bit; a strided column would not.
    """
    return np.array([np.vdot(x, y) for x, y in
                     zip(np.ascontiguousarray(X.T), np.ascontiguousarray(Y.T))],
                    dtype=np.complex128)


class WeightedInnerProduct:
    """Inner product <x, y> = y^H M^{-1} x with M Hermitian positive definite.

    `solve` applies M^{-1} to a 1-D or 2-D complex array, for example
    `block_diagonal_solver(M)`; M is never inverted explicitly.
    """

    def __init__(self, solve: Callable[[np.ndarray], np.ndarray]):
        self.apply_weight = solve

    def dot(self, x, y):
        """y^H M^{-1} x; for n x k blocks, the k values y_j^H M^{-1} x_j from
        one application of M^{-1}, each equal to the call on the columns
        alone, bit for bit."""
        if np.ndim(x) == 2:
            return column_vdots(y, self.apply_weight(x))
        return complex(np.vdot(np.asarray(y), self.apply_weight(x)))

    def norm(self, x):
        """|x|_{M^-1}, or the k column norms of an n x k block."""
        # clip tiny negative round-off before the square root
        value = np.sqrt(np.maximum(self.dot(x, x).real, 0.0))
        return float(value) if np.ndim(value) == 0 else value


def _weighted_norm(x: np.ndarray, Wx: np.ndarray) -> float:
    # clip tiny negative round-off before the square root
    return float(np.sqrt(max(np.vdot(x, Wx).real, 0.0)))


def gmres(
    apply: Callable[[np.ndarray], np.ndarray],
    b,
    ip: WeightedInnerProduct | None = None,
    tol: float = 1e-10,
    maxit: int | None = None,
) -> tuple[np.ndarray, list[float]]:
    """Full (restart-free) GMRES in a weighted inner product.

    W must be Hermitian positive definite (None means W = I). Arnoldi
    orthogonalizes by two passes of block classical Gram-Schmidt,
    h = V^H W w and w -= V h, with W w applied afresh before each pass and
    once more for the norm of the new vector; the weight of the initial
    residual b also gives |b|_W. The basis V doubles its capacity as the
    iterations run, and the rotated Hessenberg columns grow one per
    iteration, with the Givens rotations applied on Python complex scalars.
    Returns the iterate and the history of relative weighted residual norms
    (history[0] is 1.0 for a nonzero right-hand side). A non-finite initial
    residual or Arnoldi vector ends the run at once, with a non-finite last
    history entry.
    """
    b = np.asarray(b, dtype=np.complex128)
    n = b.shape[0]
    weigh = ip.apply_weight if ip is not None else (lambda v: v)
    if maxit is None:
        maxit = n
    maxit = min(maxit, n)

    x = np.zeros(n, dtype=np.complex128)
    beta = _weighted_norm(b, weigh(b))      # the initial residual is b
    ref = beta if beta > 0.0 else 1.0
    history = [beta / ref]
    if beta / ref <= tol or n == 0 or not np.isfinite(beta):
        return x, history

    V = np.empty((1, n), dtype=np.complex128)
    V[0] = b / beta
    # rotated Hessenberg columns, Givens rotations (c, s) and the rotated
    # rhs, grown per iteration and held as Python complex scalars
    columns, rotations, g = [], [], [complex(beta)]

    for k in range(maxit):
        # a copy: w is updated in place below
        w = np.array(apply(V[k]), dtype=np.complex128)
        # classical Gram-Schmidt, two passes; V^H W w = conj(V conj(W w))
        h_col = np.zeros(k + 1, dtype=np.complex128)
        for _pass in range(2):
            h = np.conj(V[:k + 1] @ np.conj(weigh(w)))
            h_col += h
            w -= h @ V[:k + 1]
        hk1 = _weighted_norm(w, weigh(w))
        if not np.isfinite(hk1):
            history.append(float("nan"))
            break

        # apply stored rotations to the new column
        col = h_col.tolist()
        for j, (c, s) in enumerate(rotations):
            col[j], col[j + 1] = (c * col[j] + s * col[j + 1],
                                  -s.conjugate() * col[j] + c.conjugate() * col[j + 1])
        # new rotation eliminating H[k+1, k] = hk1, with numpy's abs, sqrt
        # and complex division
        denom = np.sqrt(np.abs(col[k]) ** 2 + np.abs(hk1) ** 2)
        if denom == 0.0:
            raise GmresBreakdownError(k)
        c = complex(np.conj(col[k]) / denom)
        s = complex(np.conj(complex(hk1)) / denom)
        rotations.append((c, s))
        col[k] = complex(denom)
        columns.append(col)
        g.append(-s.conjugate() * g[k])
        g[k] = c * g[k]

        res = float(np.abs(g[k + 1]) / ref)
        history.append(res)
        if res <= tol or hk1 <= 1e-14 * beta:
            break
        if k + 1 == len(V):     # double the capacity, up to maxit + 1 rows
            grown = np.empty((min(2 * len(V), maxit + 1), n), dtype=np.complex128)
            grown[:len(V)] = V
            V = grown
        V[k + 1] = w / hk1

    k_used = len(columns)
    H = np.zeros((k_used, k_used), dtype=np.complex128)
    for j, col in enumerate(columns):
        H[:j + 1, j] = col
    y = scipy.linalg.solve_triangular(H, np.array(g[:k_used]), check_finite=False)
    x = x + V[:k_used].T @ y
    return x, history


# -- Matrix Market I/O -----------------------------------------------------


def save_matrix_market(path, A) -> None:
    """Write a sparse matrix in complex general coordinate format."""
    import scipy.io     # only the operator dumps need it
    scipy.io.mmwrite(str(path), scipy.sparse.coo_matrix(A, dtype=np.complex128),
                     field="complex", symmetry="general")


def load_matrix_market(path) -> scipy.sparse.csr_array:
    import scipy.io
    return scipy.sparse.csr_array(scipy.io.mmread(str(path)), dtype=np.complex128)
