"""Structured triangular meshes and P1 assembly of the model operators.

The global operator splits into three real symmetric non-negative parts:
stiffness A0, loss A1 (boundary impedance mass, optionally plus a volumetric
absorption mass), and the domain mass A2 scaled by the squared wave number.
The wave operator is A0 + i*A1 - A2; the coercive reference operator is
A0 + A1 + A2 (reaction-diffusion), which is symmetric positive definite.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

import scipy.sparse

from .linalg import accumulate, factorize

__all__ = [
    "BoundaryTag",
    "StructuredMesh",
    "ElementBatch",
    "GlobalProblem",
    "build_mesh",
    "assemble",
    "element_contributions",
    "parse_source",
    "point_source_dof",
]


class BoundaryTag(IntEnum):
    INTERIOR = 0
    DIRICHLET = 1
    ROBIN = 2


_TAG_NAMES = {
    "dirichlet": BoundaryTag.DIRICHLET,
    "robin": BoundaryTag.ROBIN,
}


@dataclass(frozen=True)
class StructuredMesh:
    """Uniform triangulation of the unit square.

    Every grid square is split along its lower-left to upper-right diagonal,
    a fixed choice that makes runs reproducible. Node (ix, iy) has index
    iy*(nx+1) + ix; cell (ix, iy) owns triangles 2*(iy*nx+ix) and +1.
    """

    nx: int
    ny: int
    coords: np.ndarray = field(repr=False)
    triangles: np.ndarray = field(repr=False)
    boundary_tags: np.ndarray = field(repr=False)

    @property
    def n_nodes(self) -> int:
        return (self.nx + 1) * (self.ny + 1)

    @property
    def n_triangles(self) -> int:
        return 2 * self.nx * self.ny

    def boundary_edges(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All exterior edges as arrays (node_a, node_b, owning_triangle).

        Bottom, right, top and left sides in turn, each in increasing ix or
        iy. Each exterior edge belongs to exactly one triangle, which pins
        its contributions to one subdomain during element-ownership
        splitting.
        """
        nx, ny = self.nx, self.ny
        ix, iy = np.arange(nx), np.arange(ny)
        bottom, top = ix, ny * (nx + 1) + ix
        right, left = iy * (nx + 1) + nx, iy * (nx + 1)
        # edges a-b and b-c of (a, b, c), then d-c and a-d of (a, c, d), in the side's cells
        owner = np.concatenate([2 * ix, 2 * (iy * nx + nx - 1), 2 * ((ny - 1) * nx + ix) + 1,
                                2 * iy * nx + 1])
        return (np.concatenate([bottom, right, top, left]),
                np.concatenate([bottom + 1, right + nx + 1, top + 1, left + nx + 1]), owner)


def build_mesh(nx: int, ny: int, boundary: str = "dirichlet") -> StructuredMesh:
    """Build an nx-by-ny structured triangle mesh of the unit square.

    `boundary` tags every boundary node: "dirichlet" or "robin".
    """
    if nx < 1 or ny < 1:
        raise ValueError("nx and ny must be at least 1")
    try:
        tag = _TAG_NAMES[boundary.lower()]
    except KeyError:
        raise ValueError(f"unknown boundary tag {boundary!r}") from None
    xs = np.linspace(0.0, 1.0, nx + 1)
    ys = np.linspace(0.0, 1.0, ny + 1)
    gx, gy = np.meshgrid(xs, ys)
    coords = np.column_stack([gx.ravel(), gy.ravel()])

    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()   # lower-left node per cell
    c = a + nx + 2
    # per cell (a, b, c) then (a, c, d), both positively oriented
    tris = np.column_stack([a, a + 1, c, a, c, a + nx + 1]).reshape(-1, 3)

    tags = np.full((ny + 1, nx + 1), int(BoundaryTag.INTERIOR), dtype=np.int64)
    tags[[0, -1], :] = tags[:, [0, -1]] = int(tag)      # rows iy = 0, ny; columns ix = 0, nx
    return StructuredMesh(nx=nx, ny=ny, coords=coords, triangles=tris,
                          boundary_tags=tags.flatten())


_MASS_TEMPLATE = np.array([[2.0, 1.0, 1.0], [1.0, 2.0, 1.0], [1.0, 1.0, 2.0]]) / 12.0


@dataclass(frozen=True)
class ElementBatch:
    """All per-element contributions, stacked along the leading axis."""

    nodes: np.ndarray          # (nt, 3) global node indices
    K: np.ndarray              # (nt, 3, 3) stiffness
    A1: np.ndarray             # (nt, 3, 3) loss
    A2: np.ndarray             # (nt, 3, 3) kappa^2-scaled consistent mass
    f: np.ndarray              # (nt, 3) load


def element_contributions(mesh: StructuredMesh, kappa: float, eta: float,
                          absorption: float = 0.0,
                          source: str = "constant") -> ElementBatch:
    """Per-triangle contributions, index-aligned with mesh.triangles.

    A single source of truth for global and subdomain-local assembly: both
    consume exactly these values, which is what makes the assembling
    identity hold bitwise under a fixed accumulation order.
    """
    robin = mesh.boundary_tags == int(BoundaryTag.ROBIN)
    edge_lumped = np.zeros((mesh.n_triangles, 3))
    node_a, node_b, tri = mesh.boundary_edges()
    on = robin[node_a] & robin[node_b]
    length = np.linalg.norm(mesh.coords[node_b[on]] - mesh.coords[node_a[on]], axis=1)
    nodes = np.column_stack([node_a[on], node_b[on]]).ravel()   # per edge: a, then b
    tris = np.repeat(tri[on], 2)
    local = np.argmax(mesh.triangles[tris] == nodes[:, None], axis=1)
    np.add.at(edge_lumped, (tris, local), np.repeat(0.5 * eta * length, 2))

    pts = mesh.coords[mesh.triangles]            # (nt, 3, 2)
    x, y = pts[:, :, 0], pts[:, :, 1]
    b = np.stack([y[:, 1] - y[:, 2], y[:, 2] - y[:, 0], y[:, 0] - y[:, 1]], axis=1)
    c = np.stack([x[:, 2] - x[:, 1], x[:, 0] - x[:, 2], x[:, 1] - x[:, 0]], axis=1)
    area2 = (x[:, 0] * (y[:, 1] - y[:, 2]) + x[:, 1] * (y[:, 2] - y[:, 0])
             + x[:, 2] * (y[:, 0] - y[:, 1]))
    area = 0.5 * area2
    K = ((b[:, :, None] * b[:, None, :] + c[:, :, None] * c[:, None, :])
         / (2.0 * area2)[:, None, None])
    M_unit = area[:, None, None] * _MASS_TEMPLATE
    A1 = absorption * M_unit
    diag = np.arange(3)
    A1[:, diag, diag] += edge_lumped
    A2 = (kappa ** 2) * M_unit
    g_const = 1.0 if source == "constant" else 0.0
    f = np.repeat((g_const * area / 3.0)[:, None], 3, axis=1)
    return ElementBatch(nodes=mesh.triangles, K=K, A1=A1, A2=A2, f=f)


@dataclass(frozen=True)
class GlobalProblem:
    """Assembled global system after Dirichlet elimination by dof removal."""

    mesh: StructuredMesh
    kappa: float
    eta: float
    absorption: float
    wave: bool
    source: str
    A0: scipy.sparse.csr_array = field(repr=False)
    A1: scipy.sparse.csr_array = field(repr=False)
    A2: scipy.sparse.csr_array = field(repr=False)
    f: np.ndarray = field(repr=False)
    dof_map: np.ndarray = field(repr=False)   # node -> dof, -1 for eliminated
    free_nodes: np.ndarray = field(repr=False)

    @property
    def n(self) -> int:
        return len(self.free_nodes)

    @property
    def alpha(self) -> complex:
        return 1j if self.wave else 1.0 + 0.0j

    def combine(self, A0, A1, A2):
        """Combine the three parts per the wave flag (works on any algebra)."""
        if self.wave:
            return A0 + 1j * A1 - A2
        return A0 + A1 + A2

    def A_hat(self) -> scipy.sparse.csr_array:
        return self.combine(self.A0, self.A1, self.A2)

    def direct_solve(self) -> np.ndarray:
        """Reference solution of the eliminated global system."""
        return factorize(self.A_hat()).solve(self.f)


def assemble(mesh: StructuredMesh, kappa: float, eta: float,
             source: str = "constant", wave: bool | None = None,
             absorption: float = 0.0) -> GlobalProblem:
    """Assemble stiffness, loss, and mass parts plus the load.

    `wave` defaults to True exactly when the boundary carries Robin nodes.
    The source spec is "constant" (unit volume load) or "point:x,y" (unit
    load at the nearest retained node).
    """
    if wave is None:
        wave = bool(np.any(mesh.boundary_tags == int(BoundaryTag.ROBIN)))
    if eta <= 0.0:
        raise ValueError("eta must be positive")
    if kappa < 0.0:
        raise ValueError("kappa must be non-negative")

    dirichlet = mesh.boundary_tags == int(BoundaryTag.DIRICHLET)
    free_nodes = np.flatnonzero(~dirichlet)
    dof_map = np.full(mesh.n_nodes, -1, dtype=np.int64)
    dof_map[free_nodes] = np.arange(len(free_nodes))
    n = len(free_nodes)
    if n == 0:
        raise ValueError("all nodes eliminated; no dofs remain")

    batch = element_contributions(mesh, kappa, eta, absorption, source)
    dofs = dof_map[batch.nodes]                              # (nt, 3)
    keep = dofs >= 0
    pair_mask = keep[:, :, None] & keep[:, None, :]          # (nt, 3, 3)
    rows = np.broadcast_to(dofs[:, :, None], pair_mask.shape)[pair_mask]
    cols = np.broadcast_to(dofs[:, None, :], pair_mask.shape)[pair_mask]
    A0, A1, A2 = accumulate(rows, cols, [batch.K[pair_mask], batch.A1[pair_mask],
                                         batch.A2[pair_mask]], (n, n))
    f = np.zeros(n, dtype=np.complex128)
    np.add.at(f, dofs[keep], batch.f[keep].astype(np.complex128))
    point = _nearest_free_dof(mesh, free_nodes, source)
    if point is not None:
        f[point] += 1.0

    return GlobalProblem(mesh=mesh, kappa=kappa, eta=eta, absorption=absorption,
                         wave=wave, source=source, A0=A0, A1=A1, A2=A2, f=f,
                         dof_map=dof_map, free_nodes=free_nodes)


def _source_point(spec: str) -> list[float] | None:
    """[x, y] of a "point:x,y" source spec, None for "constant"; else ValueError."""
    kind, _, coords = spec.partition(":")
    point = [float(c) for c in coords.split(",")] if kind == "point" else []
    if spec != "constant" and (len(point) != 2 or not np.isfinite(point).all()):
        raise ValueError(f"unknown source spec {spec!r}; use 'constant' or "
                         "'point:x,y' with finite x, y")
    return point or None


def parse_source(spec: str) -> str:
    """`spec` unchanged once _source_point accepts it; the config parser."""
    _source_point(spec)
    return spec


def _nearest_free_dof(mesh: StructuredMesh, free_nodes: np.ndarray,
                      source: str) -> int | None:
    """Dof of the retained node nearest a "point:x,y" spec; None otherwise."""
    point = _source_point(source)
    if point is None:
        return None
    dists = np.linalg.norm(mesh.coords[free_nodes] - np.array(point), axis=1)
    return int(np.argmin(dists))


def point_source_dof(problem: GlobalProblem) -> int | None:
    """Dof index of a point source spec, or None for volume sources."""
    return _nearest_free_dof(problem.mesh, problem.free_nodes, problem.source)
