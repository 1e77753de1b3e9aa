"""Trace, impedance, and exchange operators on the interface.

The compound trace operator T stacks, per subdomain, one zero-one selection
block per facet; G = sides is its (facet, dof) x slot incidence. The
impedance M = G^T M_F G per side is a symmetric positive definite weight
with one block per facet, shared by all its sides. The exchange X is a real
involution whose fixed set is exactly the trace image of globally
conforming functions. Because M is side-equal and block-diagonal by facet,
the M-orthogonal reflection around the single-valued interface space is
unique: X = G^T diag(2/m) G - I, one operator for every facet system and
impedance. M and X are sparse csr_arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .decomp import Decomposition
from .facets import FacetSystem

__all__ = [
    "TraceOperator",
    "ExchangeOperator",
    "build_trace",
    "build_impedance",
    "build_exchange",
    "IMPEDANCE_VARIANTS",
]

IMPEDANCE_VARIANTS = ("scalar", "lumped_mass", "glob_block")


class TraceOperator:
    """Collective trace T = diag(T_i) for a facet system.

    Trace dofs are ordered subdomain-ascending; within a subdomain, facets
    are sorted by (sorted adjacency set, smallest dof); within a facet,
    dofs ascend. Each trace dof is the triple (subdomain, facet, global dof).
    `sides` is the zero-one (facet, dof) x slot incidence: one row per
    (facet, dof), in facet order and then F.dofs order, holding the slots of
    that dof on each side of the facet, subdomain-ascending.
    """

    def __init__(self, system: FacetSystem, decomp: Decomposition):
        self.system = system
        self.decomp = decomp
        self.multiplicities = decomp.multiplicities

        sizes = [len(F.dofs) for F in system.facets]
        first_row = np.concatenate(([0], np.cumsum(sizes)))
        slots, cols, rows = [], [], []
        for i in range(decomp.n_sub):
            fids = [idx for idx, F in enumerate(system.facets) if i in F.subdomains]
            fids.sort(key=lambda idx: (system.facets[idx].subdomains,
                                       min(system.facets[idx].dofs)))
            dofs = [k for fidx in fids for k in system.facets[fidx].dofs]
            slots += [(i, fidx, k) for fidx in fids for k in system.facets[fidx].dofs]
            rows += [first_row[fidx] + np.arange(sizes[fidx]) for fidx in fids]
            # the maps ascend strictly, so a dof's local index is its rank
            cols.append(decomp.offsets[i] + np.searchsorted(decomp.maps[i], dofs))
        self.slots = tuple(slots)
        self.dim_lambda = len(slots)
        self._slot_index = {s: t for t, s in enumerate(slots)}

        dim, ones = self.dim_lambda, np.ones(self.dim_lambda)
        self.matrix = scipy.sparse.csr_array(
            (ones, (np.arange(dim), np.concatenate(cols))),
            shape=(dim, decomp.offsets[-1]))
        self.sides = scipy.sparse.csr_array(
            (ones, (np.concatenate(rows), np.arange(dim))), shape=(first_row[-1], dim))

    def slot(self, i: int, fidx: int, k: int) -> int:
        return self._slot_index[(i, fidx, k)]


def build_trace(system: FacetSystem, decomp: Decomposition) -> TraceOperator:
    return TraceOperator(system, decomp)


def build_impedance(trace: TraceOperator, variant: str,
                    sigma: float) -> scipy.sparse.csr_array:
    """Build the interface impedance M = G^T M_F G on one subdomain's slot pairs.

    M_F has one block per facet on the (facet, dof) rows of G = sides, so all
    sides of a facet share it and the exchange is an M-isometry.
    scalar:      sigma * identity.
    lumped_mass: diagonal, sigma times the lumped facet-internal edge length.
    glob_block:  consistent 1D mass over facet-internal edges.
    A dof with no facet-internal edge (a vertex glob, say) gets sigma * h_min,
    so M_F is strictly diagonally dominant with a positive diagonal, hence SPD.
    """
    if variant not in IMPEDANCE_VARIANTS:
        raise ValueError(f"unknown impedance variant {variant!r}")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    G, problem, facets = trace.sides, trace.decomp.problem, trace.system.facets
    rows = np.arange(G.shape[0])
    MF = scipy.sparse.diags_array(np.full(len(rows), sigma))
    if variant != "scalar":
        # dof x row incidence; a dof may lie on several facets
        P = scipy.sparse.csr_array(
            (np.ones(len(rows)), (np.concatenate([F.dofs for F in facets]), rows)),
            shape=(problem.n, len(rows)))
        # mesh edges (a < b) between retained dofs; h_min over all of them, then
        # the unique ones between facet dofs, found by the key a * n + b
        tri = problem.dof_map[problem.mesh.triangles]
        pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
        pairs = np.sort(pairs[(pairs >= 0).all(axis=1)], axis=1)
        coords = problem.mesh.coords[problem.free_nodes]
        lengths = np.linalg.norm(coords[pairs[:, 1]] - coords[pairs[:, 0]], axis=1)
        h_min = float(lengths.min()) if len(lengths) else 1.0
        keep = (np.diff(P.indptr) > 0)[pairs].all(axis=1)
        keys, first = np.unique(pairs[keep, 0] * problem.n + pairs[keep, 1],
                                return_index=True)
        E = scipy.sparse.csr_array((lengths[keep][first], np.divmod(keys, problem.n)),
                                   shape=(problem.n, problem.n))
        # (row a, row b, length) of each edge inside one facet, once per
        # direction; every entry of the product is one length times ones
        L = (P.T @ (E + E.T) @ P).tocoo()
        facet = np.repeat(np.arange(len(facets)), [len(F.dofs) for F in facets])
        a, b, length = (x[facet[L.row] == facet[L.col]] for x in (L.row, L.col, L.data))
        diagonal = np.zeros(len(rows))
        if variant == "lumped_mass":
            np.add.at(diagonal, a, 0.5 * length)
            diagonal[diagonal == 0.0] = h_min
            MF = scipy.sparse.diags_array(sigma * diagonal)
        else:  # glob_block: consistent 1D interface mass
            np.add.at(diagonal, a, sigma * length / 3.0)
            diagonal[diagonal == 0.0] = sigma * h_min
            MF = scipy.sparse.diags_array(diagonal) + scipy.sparse.csr_array(
                (sigma * length / 6.0, (a, b)), shape=MF.shape)
    # every entry of G^T M_F G is one entry of M_F; keep one side's pairs
    C = (G.T @ MF @ G).tocoo()
    side = np.searchsorted(trace.decomp.offsets, trace.matrix.indices, side="right") - 1
    same = side[C.row] == side[C.col]
    M = scipy.sparse.csr_array((C.data[same], (C.row[same], C.col[same])), shape=C.shape)
    M.sum_duplicates()
    return M


class ExchangeOperator:
    """Real involution X on the trace space; a LinearOperator only for the
    one-step reflection, which is applied and never formed. `factor` is the
    one-step reflection's LU of Ahat, None for the facet reflection."""

    def __init__(self, matrix: scipy.sparse.csr_array | scipy.sparse.linalg.LinearOperator,
                 factor=None):
        self.matrix = matrix
        self.factor = factor


def build_exchange(trace: TraceOperator) -> ExchangeOperator:
    """Build the facet reflection X as a sparse csr_array.

    X is the M-orthogonal reflection around the single-valued interface
    space. Every impedance here is side-equal and block-diagonal by facet,
    so that reflection is the same for all of them and for every facet
    system: per facet and dof, the m sharing slots carry the block
    2/m J - I, that is X = G^T diag(2/m) G - I on the incidence G = sides.
    On a bilateral facet (m = 2) it swaps the two sides.
    """
    G = trace.sides
    m = np.diff(G.indptr)
    scaled = G.copy()       # diag(2/m) G, on G's pattern of ones
    scaled.data = np.repeat(2.0 * (1.0 / m), m)
    X = G.T.tocsr() @ scaled - scipy.sparse.eye_array(trace.dim_lambda, format="csr")
    X.eliminate_zeros()     # the diagonal of a bilateral swap
    return ExchangeOperator(X)
