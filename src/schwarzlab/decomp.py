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
    "bubble_dofs",
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
    owner = np.empty(mesh.n_triangles, dtype=np.int64)
    for iy in range(mesh.ny):
        for ix in range(mesh.nx):
            sub = (iy // ch) * px + (ix // cw)
            t = 2 * (iy * mesh.nx + ix)
            owner[t] = sub
            owner[t + 1] = sub
    return Partition(n_subdomains=px * py, owner=owner, px=px, py=py)


@dataclass(frozen=True)
class Multiplicities:
    """Sharing structure of global dofs across subdomains."""

    mu: np.ndarray = field(repr=False)            # per-dof subdomain count
    sharing: tuple = field(repr=False)            # per-dof tuple of subdomain ids
    interface_dofs: np.ndarray = field(repr=False)  # dofs with mu >= 2


def _multiplicities(n: int, maps) -> Multiplicities:
    sharing = [[] for _ in range(n)]
    for i, g in enumerate(maps):
        for k in g:
            sharing[int(k)].append(i)
    mu = np.array([len(s) for s in sharing], dtype=np.int64)
    return Multiplicities(mu=mu, sharing=tuple(tuple(s) for s in sharing),
                          interface_dofs=np.flatnonzero(mu >= 2))


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
        for g in self.maps:
            if len(np.unique(g)) != len(g):
                raise ValueError("local-to-global map must be injective")
        if np.any(self.multiplicities.mu < 1):
            raise ValueError("some global dof is not covered by any subdomain")

    # -- restriction operators --------------------------------------------

    def R_matrix(self, i: int) -> scipy.sparse.csr_array:
        g = self.maps[i]
        return scipy.sparse.csr_array(
            (np.ones(len(g), dtype=np.complex128), (np.arange(len(g)), g)),
            shape=(len(g), self.n))

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

    def block(self, u, i: int) -> np.ndarray:
        return np.asarray(u)[self.offsets[i]:self.offsets[i + 1]]

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
        """sum_i R_i^T A_i R_i and sum_i R_i^T f_i in canonical order."""
        local_parts = self.local_parts if local_parts is None else local_parts
        f_locals = self.f_locals if f_locals is None else f_locals
        summed = {}
        for name in _PARTS:
            rows, cols, vals = [], [], []
            for i in range(self.n_sub):
                coo = scipy.sparse.coo_array(local_parts[i][name])
                g = self.maps[i]
                rows.append(g[coo.row])
                cols.append(g[coo.col])
                vals.append(coo.data)
            summed[name] = accumulate(np.concatenate(rows), np.concatenate(cols),
                                      np.concatenate(vals), (self.n, self.n))
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
        dofs = dof_map[np.unique(mesh.triangles[elements])]
        g = np.unique(dofs[dofs >= 0])
        n_i = len(g)
        dofs_t = dof_map[contribs.nodes[elements]]           # (ne, 3)
        keep = dofs_t >= 0
        local = np.searchsorted(g, np.where(keep, dofs_t, g[0]))
        pair_mask = keep[:, :, None] & keep[:, None, :]      # (ne, 3, 3)
        rows = np.broadcast_to(local[:, :, None], pair_mask.shape)[pair_mask]
        cols = np.broadcast_to(local[:, None, :], pair_mask.shape)[pair_mask]
        parts = {name: accumulate(rows, cols, values[elements][pair_mask], (n_i, n_i))
                 for name, values in (("A0", contribs.K), ("A1", contribs.A1),
                                      ("A2", contribs.A2))}
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
    consistent = problem.replaced(summed["A0"], summed["A1"], summed["A2"], f_hat)
    decomp.problem = consistent
    return decomp


@dataclass(frozen=True)
class AssemblingReport:
    """Outcome of verifying sum_i R_i^T A_i R_i = A and sum_i R_i^T f_i = f."""

    max_dev_matrix: float
    max_dev_load: float
    worst_entry: tuple[int, int] | None
    mesh_order_dev: float
    passed: bool


def check_assembling(decomp: Decomposition, local_parts=None, f_locals=None,
                     tol: float = ASSEMBLY_TOL) -> AssemblingReport:
    """Re-accumulate the assembled sum and compare with the global problem.

    Against the decomposition's own canonical global matrices the deviation
    is bitwise zero; against the mesh-order assembly it is reported
    separately and must stay below `tol`.
    """
    summed, f_hat = decomp.accumulate_global(local_parts, f_locals)
    max_dev = 0.0
    worst = None
    for name in _PARTS:
        diff = (summed[name] - getattr(decomp.problem, name)).tocoo()
        if diff.nnz:
            idx = int(np.argmax(np.abs(diff.data)))
            if abs(diff.data[idx]) > max_dev:
                max_dev = float(abs(diff.data[idx]))
                worst = (int(diff.row[idx]), int(diff.col[idx]))
    dev_f = float(np.max(np.abs(f_hat - decomp.problem.f))) if decomp.n else 0.0

    mesh_dev = 0.0
    src = decomp.source_problem
    for name in _PARTS:
        diff = (summed[name] - getattr(src, name)).tocoo()
        if diff.nnz:
            mesh_dev = max(mesh_dev, float(np.max(np.abs(diff.data))))
    mesh_dev = max(mesh_dev, float(np.max(np.abs(f_hat - src.f))) if decomp.n else 0.0)

    passed = (max_dev == 0.0 and dev_f == 0.0) or (max_dev <= tol and dev_f <= tol)
    return AssemblingReport(max_dev_matrix=max_dev, max_dev_load=dev_f,
                            worst_entry=worst, mesh_order_dev=mesh_dev,
                            passed=passed and mesh_dev <= tol)


def bubble_dofs(decomp: Decomposition) -> list[np.ndarray]:
    """Per-subdomain mask of local dofs extendible by zero (multiplicity 1)."""
    mu = decomp.multiplicities.mu
    return [mu[g] == 1 for g in decomp.maps]
