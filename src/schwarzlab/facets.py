"""Facet and glob systems on the interface, with redundancy analysis.

A facet couples a set of subdomains through a set of shared global dofs.
Bilateral systems carry one facet per subdomain pair; glob systems carry one
facet per equivalence class of interface dofs with identical sharing sets.
Per-dof connectivity graphs decide admissibility (connectedness) and count
the independent cycles that make Lagrange multipliers non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .decomp import Decomposition, Multiplicities

__all__ = [
    "Facet",
    "FacetSystem",
    "ConnectivityGraph",
    "AdmissibilityReport",
    "RedundancyBasis",
    "build_bilateral",
    "build_globs",
    "build_facets",
    "connectivity_graphs",
    "check_admissibility",
    "redundancy_basis",
    "spanning_forest",
    "export_facets_text",
]

BILATERAL_VARIANTS = ("bilateral_max", "bilateral_properly_closed", "bilateral_non_redundant")
VARIANTS = BILATERAL_VARIANTS + ("globs",)


@dataclass(frozen=True)
class Facet:
    """Adjacency set plus global dof set; bilateral facets have two sides."""

    subdomains: tuple[int, ...]
    dofs: tuple[int, ...]
    kind: str  # "bilateral" or "glob"

    @property
    def is_bilateral(self) -> bool:
        return len(self.subdomains) == 2


@dataclass(frozen=True)
class FacetSystem:
    variant: str
    facets: tuple[Facet, ...]
    n_subdomains: int

    @property
    def is_bilateral(self) -> bool:
        return self.variant in BILATERAL_VARIANTS


@dataclass(frozen=True)
class ConnectivityGraph:
    """Per-dof graph: sharing subdomains as nodes, facet links as edges."""

    dof: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]   # (i, j) with i < j, one per linking facet
    connected: bool

    @property
    def n_cycles(self) -> int:
        _tree, components = spanning_forest(self.nodes, self.edges)
        return len(self.edges) - len(self.nodes) + components


def spanning_forest(nodes, edges) -> tuple[list[tuple[int, int]], int]:
    """Kruskal (union-find) over the edges in sorted order.

    Returns the forest's edges, in the order they were taken, and the number
    of connected components.
    """
    parent = {v: v for v in nodes}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    tree = []
    for a, b in sorted(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
            tree.append((a, b))
    return tree, len(parent) - len(tree)


def _shared_dof_table(multiplicities: Multiplicities):
    """Map unordered subdomain pair -> sorted shared interface dofs."""
    table: dict[tuple[int, int], list[int]] = {}
    for k in multiplicities.interface_dofs:
        owners = multiplicities.sharing[int(k)]
        for a in range(len(owners)):
            for b in range(a + 1, len(owners)):
                table.setdefault((owners[a], owners[b]), []).append(int(k))
    return table


def build_bilateral(multiplicities: Multiplicities, variant: str,
                    n_subdomains: int) -> FacetSystem:
    """Construct one of the three bilateral facet systems.

    bilateral_max keeps every closed facet (all dofs shared by the pair);
    bilateral_properly_closed keeps a facet only when some of its dofs is
    shared by exactly those two subdomains; bilateral_non_redundant prunes
    each dof down to a spanning tree of its connectivity graph and drops
    facets that become empty.
    """
    if variant not in BILATERAL_VARIANTS:
        raise ValueError(f"unknown bilateral variant {variant!r}")
    table = _shared_dof_table(multiplicities)
    mu = multiplicities.mu

    pairs = sorted(table)
    if variant == "bilateral_properly_closed":
        pairs = [p for p in pairs if any(mu[k] == 2 for k in table[p])]

    if variant == "bilateral_non_redundant":
        kept: dict[tuple[int, int], list[int]] = {p: [] for p in pairs}
        for k in multiplicities.interface_dofs:
            owners = multiplicities.sharing[int(k)]
            edges = [p for p in pairs if int(k) in table[p]]
            tree = set(spanning_forest(owners, edges)[0])
            for p in edges:
                if p in tree:
                    kept[p].append(int(k))
        facets = tuple(Facet(subdomains=p, dofs=tuple(sorted(kept[p])), kind="bilateral")
                       for p in pairs if kept[p])
    else:
        facets = tuple(Facet(subdomains=p, dofs=tuple(table[p]), kind="bilateral")
                       for p in pairs)
    return FacetSystem(variant=variant, facets=facets, n_subdomains=n_subdomains)


def build_globs(multiplicities: Multiplicities, n_subdomains: int) -> FacetSystem:
    """One facet per equivalence class of interface dofs by sharing set."""
    classes: dict[tuple[int, ...], list[int]] = {}
    for k in multiplicities.interface_dofs:
        classes.setdefault(multiplicities.sharing[int(k)], []).append(int(k))
    facets = tuple(Facet(subdomains=owners, dofs=tuple(sorted(dofs)), kind="glob")
                   for owners, dofs in sorted(classes.items()))
    return FacetSystem(variant="globs", facets=facets, n_subdomains=n_subdomains)


def build_facets(decomp: Decomposition, variant: str) -> FacetSystem:
    """Convenience dispatcher over all four variants."""
    if variant == "globs":
        return build_globs(decomp.multiplicities, decomp.n_sub)
    return build_bilateral(decomp.multiplicities, variant, decomp.n_sub)


def connectivity_graphs(system: FacetSystem,
                        multiplicities: Multiplicities) -> dict[int, ConnectivityGraph]:
    """Connectivity graph of every interface dof under the given system.

    A bilateral facet containing the dof contributes one edge. A glob facet
    contributes a spanning star (min-index subdomain to the others); globs
    therefore never create cycles, matching their trivial redundancy space.
    """
    edges_of: dict[int, list[tuple[int, int]]] = {
        int(k): [] for k in multiplicities.interface_dofs}
    for F in system.facets:
        if F.is_bilateral:
            pair = (min(F.subdomains), max(F.subdomains))
            for k in F.dofs:
                edges_of[k].append(pair)
        else:
            root = min(F.subdomains)
            star = [(min(root, j), max(root, j)) for j in F.subdomains if j != root]
            for k in F.dofs:
                edges_of[k].extend(star)
    out = {}
    for k in multiplicities.interface_dofs:
        k = int(k)
        nodes = multiplicities.sharing[k]
        edges = tuple(edges_of[k])
        connected = spanning_forest(nodes, edges)[1] == 1
        out[k] = ConnectivityGraph(dof=k, nodes=nodes, edges=edges, connected=connected)
    return out


@dataclass(frozen=True)
class AdmissibilityReport:
    admissible: bool
    covered: bool
    disconnected_dofs: tuple[int, ...]
    uncovered_dofs: tuple[int, ...]
    total_cycles: int


def check_admissibility(system: FacetSystem,
                        multiplicities: Multiplicities) -> AdmissibilityReport:
    graphs = connectivity_graphs(system, multiplicities)
    disconnected = tuple(k for k, g in graphs.items() if not g.connected)
    covered_dofs = set()
    for F in system.facets:
        covered_dofs.update(F.dofs)
    uncovered = tuple(int(k) for k in multiplicities.interface_dofs
                      if int(k) not in covered_dofs)
    total_cycles = sum(g.n_cycles for g in graphs.values() if g.connected)
    return AdmissibilityReport(
        admissible=not disconnected, covered=not uncovered,
        disconnected_dofs=disconnected, uncovered_dofs=uncovered,
        total_cycles=total_cycles)


@dataclass(frozen=True)
class RedundancyBasis:
    """Integer +-1 basis of ker(T^T) intersected with ker(I + X^T).

    Each vector corresponds to one independent cycle of one interface dof's
    connectivity graph; vectors live in the dual trace space and are indexed
    like the trace dofs of the associated TraceOperator.
    """

    vectors: np.ndarray = field(repr=False)  # (dim_lambda, n_cycles)

    @property
    def dimension(self) -> int:
        return self.vectors.shape[1]


def redundancy_basis(system: FacetSystem, trace) -> RedundancyBasis:
    """Cycle basis of the multiplier redundancy space for bilateral systems.

    For every interface dof: build the spanning tree of its connectivity
    graph; every remaining facet edge closes one cycle. Walking the cycle,
    each traversed edge (p -> q) over facet F receives +1 on side p and -1
    on side q, which is annihilated exactly by T^T (the two signs of each
    visited vertex cancel) and by I + X^T (the swap flips the facet sign).

    Glob systems are surjective-trace and have a trivial redundancy space:
    an empty basis is returned.
    """
    dim = trace.dim_lambda
    if not system.is_bilateral:
        return RedundancyBasis(vectors=np.zeros((dim, 0)))

    facet_of_pair = {tuple(sorted(F.subdomains)): idx
                     for idx, F in enumerate(system.facets)}
    columns = []
    for k, graph in sorted(connectivity_graphs(system, trace.multiplicities).items()):
        edges = graph.edges
        tree, _components = spanning_forest(graph.nodes, edges)
        adj: dict[int, list[int]] = {v: [] for v in graph.nodes}
        for a, b in tree:
            adj[a].append(b)
            adj[b].append(a)
        tree_set = set(tree)
        for a, b in sorted(set(edges) - tree_set):
            path = _tree_path(adj, a, b)
            cycle = list(zip(path, path[1:])) + [(b, a)]
            z = np.zeros(dim)
            for p, q in cycle:
                fidx = facet_of_pair[(min(p, q), max(p, q))]
                z[trace.slot(p, fidx, k)] += 1.0
                z[trace.slot(q, fidx, k)] -= 1.0
            columns.append(z)
    if not columns:
        return RedundancyBasis(vectors=np.zeros((dim, 0)))
    return RedundancyBasis(vectors=np.column_stack(columns))


def _tree_path(adj, start, goal):
    """Unique path between two vertices of a tree (DFS)."""
    stack = [(start, [start])]
    seen = {start}
    while stack:
        v, path = stack.pop()
        if v == goal:
            return path
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                stack.append((w, path + [w]))
    raise ValueError("vertices lie in different components")


def export_facets_text(system: FacetSystem, path) -> None:
    """One line per facet: kind, adjacency set, sorted dof set."""
    with open(path, "w", encoding="ascii") as handle:
        for F in system.facets:
            subs = ",".join(str(s) for s in F.subdomains)
            dofs = ",".join(str(k) for k in sorted(F.dofs))
            handle.write(f"{F.kind} [{subs}] [{dofs}]\n")
