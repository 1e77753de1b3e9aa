"""Facet and glob systems on the interface, with redundancy analysis.

A facet couples a set of subdomains through a set of shared global dofs.
Bilateral systems carry one facet per subdomain pair; glob systems carry one
facet per equivalence class of interface dofs with identical sharing sets.
All four systems come from one pass over the dofs' ascending sharing sets.
The non-redundant system keeps each dof on the star from its smallest
subdomain: Kruskal over the sorted edges of the dof's complete sharing graph
takes the edges at the smallest node first, and they already connect it, so
its spanning tree is always that star. Per-dof connectivity graphs decide
admissibility (connectedness) and count the independent cycles that make
Lagrange multipliers non-unique.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np
import scipy.sparse

from .decomp import Decomposition, Multiplicities

__all__ = [
    "Facet",
    "FacetSystem",
    "ConnectivityGraph",
    "AdmissibilityReport",
    "build_facets",
    "connectivity_graphs",
    "check_admissibility",
    "redundancy_basis",
    "rooted_forest",
    "spanning_forest",
]

BILATERAL_VARIANTS = ("bilateral_max", "bilateral_properly_closed", "bilateral_non_redundant")
VARIANTS = BILATERAL_VARIANTS + ("globs",)


@dataclass(frozen=True)
class Facet:
    """Adjacency set plus global dof set; bilateral facets have two sides."""

    subdomains: tuple[int, ...]
    dofs: tuple[int, ...]

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
    """Per-dof graph: sharing subdomains as nodes, facet links as edges.

    `tree` is the graph's spanning forest from spanning_forest; every edge
    outside it closes one independent cycle.
    """

    dof: int
    nodes: tuple[int, ...]
    edges: tuple[tuple[int, int], ...]   # (i, j) with i < j, one per linking facet
    tree: tuple[tuple[int, int], ...]

    @property
    def connected(self) -> bool:
        return len(self.tree) == len(self.nodes) - 1

    @property
    def n_cycles(self) -> int:
        return len(self.edges) - len(self.tree)


def spanning_forest(nodes, edges) -> list[tuple[int, int]]:
    """Kruskal (union-find) over the edges in sorted order.

    Returns the forest's edges in the order they were taken; the forest has
    len(nodes) - len(edges taken) components.
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
    return tree


def rooted_forest(nodes, tree) -> tuple[dict[int, int | None], dict[int, int]]:
    """Parent and depth of every node of a forest, by one depth-first walk.

    `tree` is the forest's edge list; each of its trees is rooted at its
    first node in `nodes` order, whose parent is None and depth 0.
    """
    adj: dict[int, list[int]] = {v: [] for v in nodes}
    for a, b in tree:
        adj[a].append(b)
        adj[b].append(a)
    parent: dict[int, int | None] = {}
    depth: dict[int, int] = {}
    for root in nodes:
        if root in parent:
            continue
        parent[root], depth[root] = None, 0
        stack = [root]
        while stack:
            v = stack.pop()
            for w in adj[v]:
                if w not in parent:
                    parent[w], depth[w] = v, depth[v] + 1
                    stack.append(w)
    return parent, depth


def build_facets(decomp: Decomposition, variant: str) -> FacetSystem:
    """One of the four facet systems, from one pass over the sharing sets.

    globs groups the interface dofs by sharing set. bilateral_max puts each
    dof on every pair drawn from its sharing set; bilateral_properly_closed
    keeps only the pairs that are the sharing set of some dof (multiplicity
    2). bilateral_non_redundant puts each dof only on the pairs from its
    smallest subdomain: the star that Kruskal (spanning_forest) takes from
    the dof's complete graph, whose sorted edges start with every edge at
    the smallest node, and those already connect it.
    """
    if variant not in VARIANTS:
        raise ValueError(f"unknown facet variant {variant!r}")
    mult = decomp.multiplicities
    groups: dict[tuple[int, ...], list[int]] = {}
    for k in mult.interface_dofs.tolist():
        owners = mult.sharing[k]
        if variant == "globs":
            keys = (owners,)
        elif variant == "bilateral_non_redundant":
            keys = ((owners[0], b) for b in owners[1:])
        else:
            keys = combinations(owners, 2)
        for key in keys:
            groups.setdefault(key, []).append(k)
    if variant == "bilateral_properly_closed":
        closed = {mult.sharing[k] for k in np.flatnonzero(mult.mu == 2).tolist()}
        groups = {pair: dofs for pair, dofs in groups.items() if pair in closed}
    facets = tuple(Facet(subdomains=key, dofs=tuple(dofs))
                   for key, dofs in sorted(groups.items()))
    return FacetSystem(variant=variant, facets=facets, n_subdomains=decomp.n_sub)


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
        out[k] = ConnectivityGraph(dof=k, nodes=nodes, edges=edges,
                                   tree=tuple(spanning_forest(nodes, edges)))
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
    """Connectedness and coverage of each interface dof, on the system's own graphs."""
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


def redundancy_basis(system: FacetSystem, trace) -> scipy.sparse.csr_array:
    """Integer +-1 basis of ker(T^T) intersected with ker(I + X^T).

    Returns a sparse (dim_lambda, n_cycles) matrix indexed like the trace
    dofs of `trace`: one column per edge outside the spanning forest of an
    interface dof's connectivity graph, each closing one independent cycle.
    The cycle runs along the forest's path between the edge's ends, found
    from the parent pointers of rooted_forest, and back over the edge. Each
    traversed edge (p -> q) over facet F receives +1 on side p and -1 on
    side q, which is annihilated exactly by T^T (the two signs of each
    visited vertex cancel) and by I + X^T (the swap flips the facet sign).

    Glob systems are surjective-trace and have a trivial redundancy space:
    the basis has no columns.
    """
    facet_of_pair = {tuple(sorted(F.subdomains)): idx for idx, F in enumerate(system.facets)}
    graphs = connectivity_graphs(system, trace.multiplicities) if system.is_bilateral else {}
    rows, signs, sizes = [], [], []
    for k, graph in sorted(graphs.items()):
        if not graph.n_cycles:
            continue
        parent, depth = rooted_forest(graph.nodes, graph.tree)
        for a, b in sorted(set(graph.edges) - set(graph.tree)):
            # climb from the deeper end until both ends meet
            up, down = [a], [b]
            while up[-1] != down[-1]:
                deeper = up if depth[up[-1]] >= depth[down[-1]] else down
                deeper.append(parent[deeper[-1]])
            path = up + down[-2::-1]
            cycle = list(zip(path, path[1:])) + [(b, a)]
            for p, q in cycle:
                fidx = facet_of_pair[(min(p, q), max(p, q))]
                rows += (trace.slot(p, fidx, k), trace.slot(q, fidx, k))
            signs += (1.0, -1.0) * len(cycle)
            sizes.append(2 * len(cycle))
    cols = np.repeat(np.arange(len(sizes)), sizes)
    return scipy.sparse.csr_array((signs, (rows, cols)), shape=(trace.dim_lambda, len(sizes)))
