import numpy as np
import pytest

from schwarzlab.facets import (build_facets, check_admissibility, connectivity_graphs,
                               Facet, FacetSystem, redundancy_basis)
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
        Z = redundancy_basis(system, trace)
        assert Z.shape[1] == 3
        assert np.max(np.abs(trace.matrix.T @ Z)) == 0.0
        assert np.max(np.abs(Z + X.T @ Z)) == 0.0
        assert np.linalg.matrix_rank(Z) == 3

    def test_max_vectors_have_six_entries(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_max")
        Z = redundancy_basis(system, build_trace(system, cross_dec))
        for j in range(Z.shape[1]):
            assert np.count_nonzero(Z[:, j]) >= 6
            assert set(np.unique(Z[:, j])) <= {-1.0, 0.0, 1.0}

    def test_glob_system_trivial(self, cross_dec):
        system = build_facets(cross_dec, "globs")
        basis = redundancy_basis(system, build_trace(system, cross_dec))
        assert basis.shape[1] == 0
