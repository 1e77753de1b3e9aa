"""Trace, impedance, and exchange operators on the interface.

The compound trace operator T stacks, per subdomain, one zero-one selection
block per facet. The impedance M is a block-diagonal symmetric positive
definite weight with one shared block per facet on all its sides. The
exchange operator X is a real involution whose fixed set is exactly the
trace image of globally conforming functions. Because M is side-equal and
block-diagonal by facet, the M-orthogonal reflection around the
single-valued interface space is unique: the per-(facet, dof) average
X = 2/m J - I, one operator for every facet system and impedance. M and X
are sparse csr_arrays.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse

from .decomp import Decomposition
from .facets import FacetSystem

__all__ = [
    "TraceOperator",
    "ImpedanceOperator",
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
    """

    def __init__(self, system: FacetSystem, decomp: Decomposition):
        self.system = system
        self.decomp = decomp
        self.multiplicities = decomp.multiplicities

        slots, cols = [], []
        facet_order: list[list[int]] = []
        for i in range(decomp.n_sub):
            fids = [idx for idx, F in enumerate(system.facets) if i in F.subdomains]
            fids.sort(key=lambda idx: (system.facets[idx].subdomains,
                                       min(system.facets[idx].dofs)))
            facet_order.append(fids)
            dofs = [k for fidx in fids for k in system.facets[fidx].dofs]
            slots += [(i, fidx, k) for fidx in fids for k in system.facets[fidx].dofs]
            # the maps ascend strictly, so a dof's local index is its rank
            cols.append(decomp.offsets[i] + np.searchsorted(decomp.maps[i], dofs))
        self.slots = tuple(slots)
        self.facet_order = facet_order
        self.dim_lambda = len(slots)
        self._slot_index = {s: t for t, s in enumerate(slots)}

        rows = np.arange(self.dim_lambda)
        cols = np.concatenate(cols)
        self.matrix = scipy.sparse.csr_array(
            (np.ones(self.dim_lambda), (rows, cols)),
            shape=(self.dim_lambda, decomp.offsets[-1]))

    def slot(self, i: int, fidx: int, k: int) -> int:
        return self._slot_index[(i, fidx, k)]

    def slot_range(self, i: int, fidx: int) -> tuple[int, int]:
        start = self.slot(i, fidx, self.system.facets[fidx].dofs[0])
        return start, start + len(self.system.facets[fidx].dofs)


def build_trace(system: FacetSystem, decomp: Decomposition) -> TraceOperator:
    return TraceOperator(system, decomp)


def _interface_edge_weights(trace: TraceOperator, sigma: float):
    """Per-facet lumped weights and internal edges from facet-internal mesh edges.

    Every mesh edge joining two dofs of the same facet contributes half its
    length to each endpoint. Isolated dofs (for example a vertex glob) get a
    sigma * h_min fallback so the weight stays positive. Per facet index,
    returns sigma times the lumped lengths in F.dofs order and the internal
    edges as (position a, position b, length) arrays; then h_min.
    """
    problem = trace.decomp.problem
    facets = trace.system.facets
    # dof x facet incidence; a dof may lie on several facets
    sizes = [len(F.dofs) for F in facets]
    incidence = scipy.sparse.csr_array(
        (np.ones(sum(sizes)), (np.concatenate([F.dofs for F in facets]),
                               np.repeat(np.arange(len(facets)), sizes))),
        shape=(problem.n, len(facets)))
    # mesh edges (a < b) between retained dofs; h_min over all of them, then
    # the unique ones between facet dofs, found by the key a * n + b
    tri = problem.dof_map[problem.mesh.triangles]
    pairs = np.concatenate([tri[:, [0, 1]], tri[:, [1, 2]], tri[:, [0, 2]]])
    pairs = np.sort(pairs[(pairs >= 0).all(axis=1)], axis=1)
    coords = problem.mesh.coords[problem.free_nodes]
    lengths = np.linalg.norm(coords[pairs[:, 1]] - coords[pairs[:, 0]], axis=1)
    h_min = float(lengths.min()) if len(lengths) else 1.0
    keep = (np.diff(incidence.indptr) > 0)[pairs].all(axis=1)
    keys, first = np.unique(pairs[keep, 0] * problem.n + pairs[keep, 1], return_index=True)
    edges, lengths = np.column_stack(np.divmod(keys, problem.n)), lengths[keep][first]
    # edge x facet: the facets holding both ends; a column lists its edges in order
    inside = incidence[edges[:, 0]].multiply(incidence[edges[:, 1]]).tocsc()

    lumped, facet_edges = {}, {}
    for fidx, F in enumerate(facets):
        dofs = np.asarray(F.dofs)
        ids = inside.indices[inside.indptr[fidx]:inside.indptr[fidx + 1]]
        order = np.argsort(dofs)
        pos = order[np.searchsorted(dofs, edges[ids], sorter=order)]
        length = lengths[ids]
        weight = np.zeros(len(dofs))
        np.add.at(weight, pos[:, 0], 0.5 * length)
        np.add.at(weight, pos[:, 1], 0.5 * length)
        weight[weight == 0.0] = h_min
        lumped[fidx] = sigma * weight
        facet_edges[fidx] = (pos[:, 0], pos[:, 1], length)
    return lumped, facet_edges, h_min


class ImpedanceOperator:
    """Block-diagonal SPD interface weight M = diag(M_i), a sparse csr_array.

    The same block is used on every side of a facet, which is what makes
    the exchange an M-isometry (side-equal impedance).
    """

    def __init__(self, trace: TraceOperator, matrix: scipy.sparse.csr_array,
                 facet_blocks: dict[int, np.ndarray]):
        self.trace = trace
        self.matrix = matrix                  # sparse real (dim, dim)
        self.facet_blocks = facet_blocks      # facet index -> shared block


def build_impedance(trace: TraceOperator, variant: str, sigma: float) -> ImpedanceOperator:
    """Build the interface impedance M.

    scalar:      sigma * identity.
    lumped_mass: diagonal, sigma times the lumped facet-internal edge length.
    glob_block:  consistent 1D mass over facet-internal edges (SPD block per
                 facet, identical on every side).
    """
    if variant not in IMPEDANCE_VARIANTS:
        raise ValueError(f"unknown impedance variant {variant!r}")
    if sigma <= 0.0:
        raise ValueError("sigma must be positive")
    facet_blocks: dict[int, np.ndarray] = {}

    if variant == "scalar":
        for fidx, F in enumerate(trace.system.facets):
            facet_blocks[fidx] = sigma * np.eye(len(F.dofs))
    else:
        lumped, facet_edges, h_min = _interface_edge_weights(trace, sigma)
        for fidx, F in enumerate(trace.system.facets):
            if variant == "lumped_mass":
                facet_blocks[fidx] = np.diag(lumped[fidx])
            else:  # glob_block: consistent 1D interface mass
                block = np.zeros((len(F.dofs), len(F.dofs)))
                pa, pb, length = facet_edges[fidx]
                np.add.at(block, (pa, pa), sigma * length / 3.0)
                np.add.at(block, (pb, pb), sigma * length / 3.0)
                np.add.at(block, (pa, pb), sigma * length / 6.0)
                np.add.at(block, (pb, pa), sigma * length / 6.0)
                isolated = np.flatnonzero(np.diagonal(block) == 0.0)
                block[isolated, isolated] = sigma * h_min
                eigs = np.linalg.eigvalsh(block)
                if eigs[0] <= 0.0:
                    raise ValueError(f"facet block {fidx} is not positive definite")
                facet_blocks[fidx] = block

    # trace slots run subdomain by subdomain, facet by facet (facet_order)
    M = scipy.sparse.csr_array(scipy.sparse.block_diag(
        [facet_blocks[fidx] for fids in trace.facet_order for fidx in fids]))
    M.eliminate_zeros()
    return ImpedanceOperator(trace, M, facet_blocks)


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
    2/m J - I. On a bilateral facet (m = 2) it swaps the two sides.
    """
    rows, cols, vals = [], [], []
    for fidx, F in enumerate(trace.system.facets):
        m, size = len(F.subdomains), len(F.dofs)
        starts = [trace.slot_range(i, fidx)[0] for i in F.subdomains]
        for a in starts:
            for b in starts:
                value = 2.0 * (1.0 / m) - (1.0 if a == b else 0.0)
                if value != 0.0:
                    rows.append(np.arange(a, a + size))
                    cols.append(np.arange(b, b + size))
                    vals.append(np.full(size, value))
    dim = trace.dim_lambda
    X = scipy.sparse.csr_array(
        (np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
        shape=(dim, dim))
    return ExchangeOperator(X)
