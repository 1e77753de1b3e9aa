from itertools import combinations

import numpy as np
import pytest
import scipy.sparse

from schwarzlab.facets import (VARIANTS, build_facets, check_admissibility,
                               connectivity_graphs, Facet, FacetSystem, redundancy_basis,
                               spanning_forest)
from schwarzlab.traces import build_exchange, build_trace

from conftest import make_instance


@pytest.fixture(scope="module")
def cross_dec():
    """2x2 subdomains with a single cross dof of multiplicity 4."""
    return make_instance(4, 4, 2, 2)[2]


def cross_dof(dec):
    return int(np.flatnonzero(dec.multiplicities.mu == 4)[0])


class TestBilateralVariants:
    def test_max_cross_cycles(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_max")
        graphs = connectivity_graphs(system, cross_dec.multiplicities)
        k = cross_dof(cross_dec)
        # all 6 subdomain pairs share the cross dof: 6 + 1 - 4 = 3 cycles
        assert len(graphs[k].edges) == 6
        assert graphs[k].n_cycles == 3

    def test_properly_closed_cross_cycles(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_properly_closed")
        graphs = connectivity_graphs(system, cross_dec.multiplicities)
        k = cross_dof(cross_dec)
        # only the 4 side-sharing pairs keep a facet: a 4-cycle
        assert len(graphs[k].edges) == 4
        assert graphs[k].n_cycles == 1

    def test_non_redundant_tree(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_non_redundant")
        graphs = connectivity_graphs(system, cross_dec.multiplicities)
        assert all(g.n_cycles == 0 for g in graphs.values())

    def test_unknown_variant(self, cross_dec):
        with pytest.raises(ValueError):
            build_facets(cross_dec, "bilateral_something")


def defined_system(dec, variant):
    """A facet system straight from its definition, subdomain pair by pair.

    bilateral_max: every pair with its shared interface dofs.
    bilateral_properly_closed: those pairs of bilateral_max that share some
    dof of multiplicity 2. bilateral_non_redundant: each dof on the pairs of
    the Kruskal tree of its complete sharing graph. globs: the interface
    dofs grouped by sharing set.
    """
    mult = dec.multiplicities
    dofs = [int(k) for k in mult.interface_dofs]
    if variant == "globs":
        facets = [(s, [k for k in dofs if mult.sharing[k] == s])
                  for s in sorted({mult.sharing[k] for k in dofs})]
    else:
        tree = {k: spanning_forest(mult.sharing[k], combinations(mult.sharing[k], 2))
                for k in dofs}
        facets = []
        for pair in combinations(range(dec.n_sub), 2):
            shared = [k for k in dofs if set(pair) <= set(mult.sharing[k])]
            if variant == "bilateral_non_redundant":
                shared = [k for k in shared if pair in tree[k]]
            if (variant == "bilateral_properly_closed"
                    and not any(mult.mu[k] == 2 for k in shared)):
                continue
            if shared:
                facets.append((pair, shared))
    return FacetSystem(variant=variant, n_subdomains=dec.n_sub,
                       facets=tuple(Facet(subdomains=tuple(s), dofs=tuple(d))
                                    for s, d in facets))


@pytest.mark.parametrize("boundary", ["robin", "dirichlet"])
@pytest.mark.parametrize("px,py", [(2, 2), (3, 3), (4, 4), (2, 3), (3, 2), (4, 1), (1, 3)])
def test_each_system_equals_its_definition(px, py, boundary):
    for n in (8, 12, 16):
        if n % px or n % py:
            continue
        dec = make_instance(n, n, px, py, boundary=boundary)[2]
        for variant in VARIANTS:
            system = build_facets(dec, variant)
            assert system == defined_system(dec, variant)
            assert all(type(k) is int for F in system.facets for k in F.dofs)


class TestGlobs:
    def test_2x2_globs(self, cross_dec):
        system = build_facets(cross_dec, "globs")
        sizes = sorted(len(F.subdomains) for F in system.facets)
        assert sizes == [2, 2, 2, 2, 4]     # 4 edge globs + 1 vertex glob

    def test_two_subdomain_single_glob(self):
        dec = make_instance(4, 4, 2, 1)[2]
        system = build_facets(dec, "globs")
        assert len(system.facets) == 1
        assert set(system.facets[0].dofs) == set(
            int(k) for k in dec.multiplicities.interface_dofs)

    def test_partition_of_interface(self, cross_dec):
        system = build_facets(cross_dec, "globs")
        seen = [k for F in system.facets for k in F.dofs]
        assert sorted(seen) == sorted(int(k) for k
                                      in cross_dec.multiplicities.interface_dofs)


class TestAdmissibility:
    @pytest.mark.parametrize("variant", ["bilateral_max", "bilateral_properly_closed",
                                         "bilateral_non_redundant", "globs"])
    def test_generated_systems_admissible(self, cross_dec, variant):
        system = build_facets(cross_dec, variant)
        rep = check_admissibility(system, cross_dec.multiplicities)
        assert rep.admissible and rep.covered

    def test_broken_system_flagged(self, cross_dec):
        system = build_facets(cross_dec, "globs")
        k = cross_dof(cross_dec)
        stripped = tuple(Facet(F.subdomains, tuple(d for d in F.dofs if d != k))
                         for F in system.facets)
        broken = FacetSystem(variant="globs", facets=stripped,
                             n_subdomains=system.n_subdomains)
        rep = check_admissibility(broken, cross_dec.multiplicities)
        assert not rep.covered
        assert k in rep.uncovered_dofs


class TestRedundancyBasis:
    def svd_nullity(self, dec, system):
        trace = build_trace(system, dec)
        X = build_exchange(trace).matrix
        stacked = np.vstack([trace.matrix.T.toarray(),
                             np.eye(trace.dim_lambda) + X.T])
        s = np.linalg.svd(stacked, compute_uv=False)
        return int(np.sum(s <= 1e-10)), trace, X

    @pytest.mark.parametrize("variant,expected", [
        ("bilateral_non_redundant", 0),
        ("bilateral_properly_closed", 1),
        ("bilateral_max", 3),
    ])
    def test_dimension_matches_svd(self, cross_dec, variant, expected):
        system = build_facets(cross_dec, variant)
        basis = redundancy_basis(system, build_trace(system, cross_dec))
        nullity, trace, X = self.svd_nullity(cross_dec, system)
        assert basis.shape[1] == expected == nullity

    def test_exact_annihilation(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_max")
        trace = build_trace(system, cross_dec)
        X = build_exchange(trace).matrix
        Z = redundancy_basis(system, trace).toarray()
        assert Z.shape[1] == 3
        assert np.max(np.abs(trace.matrix.T @ Z)) == 0.0
        assert np.max(np.abs(Z + X.T @ Z)) == 0.0
        assert np.linalg.matrix_rank(Z) == 3

    def test_max_vectors_have_six_entries(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_max")
        Z = redundancy_basis(system, build_trace(system, cross_dec)).toarray()
        for j in range(Z.shape[1]):
            assert np.count_nonzero(Z[:, j]) >= 6
            assert set(np.unique(Z[:, j])) <= {-1.0, 0.0, 1.0}

    @pytest.mark.parametrize("variant", VARIANTS)
    def test_basis_is_one_csr_array(self, cross_dec, variant):
        system = build_facets(cross_dec, variant)
        trace = build_trace(system, cross_dec)
        Z = redundancy_basis(system, trace)
        assert type(Z) is scipy.sparse.csr_array
        assert Z.shape[0] == trace.dim_lambda

    def test_glob_system_trivial(self, cross_dec):
        system = build_facets(cross_dec, "globs")
        basis = redundancy_basis(system, build_trace(system, cross_dec))
        assert basis.shape[1] == 0
