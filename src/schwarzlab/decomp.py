"""Abstract domain decomposition built from an element partition.

Restriction operators are zero-one incidence matrices R_i selecting each
subdomain's dofs from the global dof set. Local operators are assembled from
owned elements only, so the global operator is recovered exactly as
sum_i R_i^T A_i R_i. Because floating-point addition is not associative,
the decomposition carries its own re-accumulation of the global matrices,
computed in a fixed canonical order (subdomains ascending, entries reduced
left to right); against that reference the assembling identity is bitwise.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse

from .linalg import accumulate
from .meshfem import GlobalProblem, StructuredMesh, element_contributions, point_source_dof

__all__ = [
    "Partition",
    "Multiplicities",
    "Decomposition",
    "AssemblingReport",
    "partition_grid",
    "build_restrictions",
    "check_assembling",
]

_PARTS = ("A0", "A1", "A2")
ASSEMBLY_TOL = 1e-14    # allowed mesh-order deviation of the re-accumulation


@dataclass(frozen=True)
class Partition:
    """Non-overlapping element partition into px*py rectangular subdomains."""

    n_subdomains: int
    owner: np.ndarray = field(repr=False)  # per-triangle subdomain index
    px: int = 0
    py: int = 0

    def elements_of(self, i: int) -> np.ndarray:
        return np.flatnonzero(self.owner == i)


def partition_grid(mesh: StructuredMesh, px: int, py: int) -> Partition:
    """Split the cell grid into px-by-py equal rectangular subdomains."""
    if px < 1 or py < 1 or mesh.nx % px or mesh.ny % py:
        raise ValueError(f"partition {px}x{py} does not divide the {mesh.nx}x{mesh.ny} grid")
    cw, ch = mesh.nx // px, mesh.ny // py
    # cell (ix, iy) lies in subdomain (iy // ch) * px + ix // cw; both its triangles follow
    cells = (np.arange(mesh.ny)[:, None] // ch) * px + np.arange(mesh.nx) // cw
    owner = np.repeat(cells.ravel(), 2)
    return Partition(n_subdomains=px * py, owner=owner, px=px, py=py)


@dataclass(frozen=True)
class Multiplicities:
    """Sharing structure of global dofs across subdomains."""

    mu: np.ndarray = field(repr=False)            # per-dof subdomain count
    sharing: tuple = field(repr=False)            # per-dof tuple of subdomain ids
    interface_dofs: np.ndarray = field(repr=False)  # dofs with mu >= 2


def _multiplicities(n: int, maps) -> Multiplicities:
    dofs = np.concatenate(maps)
    subs = np.repeat(np.arange(len(maps)), [len(g) for g in maps])
    mu = np.bincount(dofs, minlength=n)
    # a stable sort by dof keeps each dof's subdomains in ascending order
    flat = subs[np.argsort(dofs, kind="stable")].tolist()
    ends = np.cumsum(mu)
    bounds = map(slice, (ends - mu).tolist(), ends.tolist())
    sharing = tuple(map(tuple, map(flat.__getitem__, bounds)))
    return Multiplicities(mu=mu, sharing=sharing, interface_dofs=np.flatnonzero(mu >= 2))


class Decomposition:
    """Restrictions, local operators, loads, and multiplicities.

    `problem` is the partition-consistent global problem (matrices
    re-accumulated as sum_i R_i^T A_i R_i in canonical order);
    `source_problem` keeps the mesh-order original for comparison.
    """

    def __init__(self, problem, maps, local_parts, f_locals, source_problem=None):
        self.problem = problem
        self.source_problem = source_problem if source_problem is not None else problem
        self.maps = [np.asarray(g, dtype=np.int64) for g in maps]
        self.local_parts = local_parts      # list of dicts name -> csr_array
        self.f_locals = [np.asarray(fl, dtype=np.complex128) for fl in f_locals]
        self.n = int(problem.n)
        self.n_sub = len(self.maps)
        self.n_local = [len(g) for g in self.maps]
        self.offsets = np.concatenate([[0], np.cumsum(self.n_local)])
        self._A_blockdiag = None
        self.multiplicities = _multiplicities(self.n, self.maps)
        if any(np.any(np.diff(g) <= 0) for g in self.maps):
            raise ValueError("local-to-global map must ascend strictly")
        if np.any(self.multiplicities.mu < 1):
            raise ValueError("some global dof is not covered by any subdomain")

    # -- restriction operators --------------------------------------------

    def R_stacked(self) -> scipy.sparse.csr_array:
        """The compound restriction R: global space -> product space U."""
        rows = np.arange(self.offsets[-1])
        cols = np.concatenate(self.maps) if self.maps else np.empty(0, dtype=np.int64)
        return scipy.sparse.csr_array(
            (np.ones(len(rows), dtype=np.complex128), (rows, cols)),
            shape=(self.offsets[-1], self.n))

    def apply_R(self, vhat) -> np.ndarray:
        vhat = np.asarray(vhat, dtype=np.complex128)
        return np.concatenate([vhat[g] for g in self.maps])

    # -- local operators ---------------------------------------------------

    def local_A(self, i: int) -> scipy.sparse.csr_array:
        """Combined complex local operator per the problem's wave flag."""
        parts = self.local_parts[i]
        return self.problem.combine(parts["A0"], parts["A1"], parts["A2"])

    def A_blockdiag(self) -> scipy.sparse.csr_array:
        """Block-diagonal operator on the product space U, built once."""
        if self._A_blockdiag is None:
            self._A_blockdiag = scipy.sparse.block_diag(
                [self.local_A(i) for i in range(self.n_sub)], format="csr")
        return self._A_blockdiag

    @property
    def f_concat(self) -> np.ndarray:
        return np.concatenate(self.f_locals)

    # -- canonical re-accumulation ----------------------------------------

    def accumulate_global(self, local_parts=None, f_locals=None):
        """sum_i R_i^T A_i R_i and sum_i R_i^T f_i in canonical order.

        Parts with one CSR pattern in every subdomain, as build_restrictions
        makes them, share one sort.
        """
        local_parts = self.local_parts if local_parts is None else local_parts
        f_locals = self.f_locals if f_locals is None else f_locals
        summed, pending = {}, list(_PARTS)
        while pending:
            first = [parts[pending[0]] for parts in local_parts]
            same = [name for name in pending if all(
                np.array_equal(parts[name].indptr, A.indptr)
                and np.array_equal(parts[name].indices, A.indices)
                for parts, A in zip(local_parts, first))]
            rows = np.concatenate([g[np.repeat(np.arange(len(g)), np.diff(A.indptr))]
                                   for g, A in zip(self.maps, first)])
            cols = np.concatenate([g[A.indices] for g, A in zip(self.maps, first)])
            values = [np.concatenate([parts[name].data for parts in local_parts])
                      for name in same]
            summed.update(zip(same, accumulate(rows, cols, values, (self.n, self.n))))
            pending = [name for name in pending if name not in same]
        f_hat = accumulate(np.concatenate(self.maps), None, np.concatenate(f_locals),
                           (self.n,))
        return summed, f_hat


def build_restrictions(mesh: StructuredMesh, partition: Partition,
                       problem: GlobalProblem) -> Decomposition:
    """Build restrictions, local split operators, and loads from ownership.

    Local dofs are the retained dofs of nodes touching owned elements, in
    ascending global order. Every element (and every exterior Robin edge,
    through its unique triangle) contributes to exactly one subdomain.
    """
    if len(partition.owner) != mesh.n_triangles:
        raise ValueError("partition does not match the mesh")
    contribs = element_contributions(mesh, problem.kappa, problem.eta,
                                     problem.absorption, problem.source)
    dof_map = problem.dof_map
    maps, local_parts, f_locals = [], [], []
    point_dof = point_source_dof(problem)
    point_assigned = False
    for i in range(partition.n_subdomains):
        elements = partition.elements_of(i)
        if len(elements) == 0:
            raise ValueError(f"subdomain {i} owns no elements")
        dofs_t = dof_map[contribs.nodes[elements]]           # (ne, 3)
        keep = dofs_t >= 0
        g = np.unique(dofs_t[keep])
        n_i = len(g)
        local = np.searchsorted(g, np.where(keep, dofs_t, g[0]))
        pair_mask = keep[:, :, None] & keep[:, None, :]      # (ne, 3, 3)
        rows = np.broadcast_to(local[:, :, None], pair_mask.shape)[pair_mask]
        cols = np.broadcast_to(local[:, None, :], pair_mask.shape)[pair_mask]
        values = [part[elements][pair_mask] for part in (contribs.K, contribs.A1, contribs.A2)]
        parts = dict(zip(_PARTS, accumulate(rows, cols, values, (n_i, n_i))))
        f_rows = local[keep]
        f_vals = contribs.f[elements][keep]
        if point_dof is not None and not point_assigned and np.isin(point_dof, g):
            f_rows = np.append(f_rows, int(np.searchsorted(g, point_dof)))
            f_vals = np.append(f_vals, 1.0)
            point_assigned = True
        maps.append(g)
        local_parts.append(parts)
        f_locals.append(accumulate(f_rows, None, f_vals, (n_i,)))

    decomp = Decomposition(problem, maps, local_parts, f_locals,
                           source_problem=problem)
    summed, f_hat = decomp.accumulate_global()
    decomp.problem = dataclasses.replace(problem, A0=summed["A0"], A1=summed["A1"],
                                         A2=summed["A2"], f=f_hat)
    return decomp


@dataclass(frozen=True)
class AssemblingReport:
    """Outcome of verifying sum_i R_i^T A_i R_i = A and sum_i R_i^T f_i = f."""

    max_dev_matrix: float
    max_dev_load: float
    worst_entry: tuple[int, int] | None
    mesh_order_dev: float
    passed: bool


def check_assembling(decomp: Decomposition, local_parts=None,
                     f_locals=None) -> AssemblingReport:
    """Re-accumulate the assembled sum and compare with the global problem.

    Against the decomposition's own canonical global matrices the deviation
    is bitwise zero; against the mesh-order assembly it is reported
    separately and must stay below ASSEMBLY_TOL.
    """
    summed, f_hat = decomp.accumulate_global(local_parts, f_locals)

    def deviation(problem):
        """Largest matrix deviation, its entry, and the load deviation."""
        dev, entry = 0.0, None
        for name in _PARTS:
            diff = (summed[name] - getattr(problem, name)).tocoo()
            if diff.nnz:
                idx = int(np.argmax(np.abs(diff.data)))
                if abs(diff.data[idx]) > dev:
                    dev = float(abs(diff.data[idx]))
                    entry = (int(diff.row[idx]), int(diff.col[idx]))
        return dev, entry, float(np.max(np.abs(f_hat - problem.f))) if decomp.n else 0.0

    max_dev, worst, dev_f = deviation(decomp.problem)
    mesh_dev, _, mesh_dev_f = deviation(decomp.source_problem)
    mesh_dev = max(mesh_dev, mesh_dev_f)
    passed = all(dev <= ASSEMBLY_TOL for dev in (max_dev, dev_f, mesh_dev))
    return AssemblingReport(max_dev_matrix=max_dev, max_dev_load=dev_f,
                            worst_entry=worst, mesh_order_dev=mesh_dev, passed=passed)
