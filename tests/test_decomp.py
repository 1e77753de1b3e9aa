import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from schwarzlab.decomp import (Decomposition, build_restrictions, check_assembling,
                               partition_grid)
from schwarzlab.meshfem import assemble, build_mesh

from conftest import make_instance, twin_scalar


class TestPartitionGrid:
    def test_2x2_equal_counts(self):
        mesh = build_mesh(4, 4, boundary="robin")
        part = partition_grid(mesh, 2, 2)
        assert part.n_subdomains == 4
        for i in range(4):
            assert len(part.elements_of(i)) == 8

    def test_single_subdomain(self):
        mesh = build_mesh(4, 4, boundary="robin")
        part = partition_grid(mesh, 1, 1)
        assert part.n_subdomains == 1
        assert len(part.elements_of(0)) == mesh.n_triangles

    def test_two_strips(self):
        mesh = build_mesh(4, 2, boundary="robin")
        part = partition_grid(mesh, 2, 1)
        assert part.n_subdomains == 2
        assert len(part.elements_of(0)) == len(part.elements_of(1)) == 8

    # non-square grids and a 1 x 2 strip, where an x/y transposition shows
    @pytest.mark.parametrize("nx, ny, px, py", [(6, 4, 3, 2), (3, 4, 1, 2), (6, 2, 3, 1)])
    def test_owner_follows_the_documented_formula(self, nx, ny, px, py):
        mesh = build_mesh(nx, ny, boundary="robin")
        owner = partition_grid(mesh, px, py).owner
        cw, ch = nx // px, ny // py
        for iy in range(ny):
            for ix in range(nx):
                t = 2 * (iy * nx + ix)
                assert owner[t] == owner[t + 1] == (iy // ch) * px + ix // cw

    def test_indivisible_rejected(self):
        mesh = build_mesh(5, 4, boundary="robin")
        with pytest.raises(ValueError):
            partition_grid(mesh, 2, 2)


def R_blocks(dec):
    """The per-subdomain restrictions R_i, as row blocks of the stacked R."""
    R = dec.R_stacked().toarray().real
    return [R[dec.offsets[i]:dec.offsets[i + 1]] for i in range(dec.n_sub)]


class TestRestrictions:
    def test_cross_point_multiplicity(self):
        _, _, dec = make_instance(4, 4, 2, 2)
        mu = dec.multiplicities.mu
        assert np.max(mu) == 4
        assert int(np.sum(mu == 4)) == 1     # single center cross dof

    def test_single_subdomain_identity(self):
        _, prob, dec = make_instance(4, 4, 1, 1)
        (R,) = R_blocks(dec)
        assert np.array_equal(R, np.eye(prob.n))

    def test_RRt_identity(self):
        _, _, dec = make_instance(8, 8, 2, 2)
        for R in R_blocks(dec):
            assert np.array_equal(R @ R.T, np.eye(R.shape[0]))

    def test_RtR_multiplicities(self):
        _, _, dec = make_instance(8, 8, 4, 2)
        total = sum(R.T @ R for R in R_blocks(dec))
        assert np.array_equal(total, np.diag(dec.multiplicities.mu.astype(float)))

    # a transposed pair, and a repeated dof that an injectivity test also finds
    @pytest.mark.parametrize("g", [[1, 0, 2, 3], [0, 0, 1, 2, 3]])
    def test_map_that_does_not_ascend_rejected(self, g):
        _, prob, dec = make_instance(1, 1, 1, 1)     # one cell, four dofs
        assert dec.maps[0].tolist() == [0, 1, 2, 3]
        with pytest.raises(ValueError, match="ascend strictly"):
            Decomposition(prob, [g], dec.local_parts, dec.f_locals)

    def test_coverage(self):
        _, prob, dec = make_instance(8, 8, 2, 2)
        rng = np.random.default_rng(0)
        for _ in range(20):
            vhat = rng.standard_normal(prob.n)
            assert np.linalg.norm(dec.apply_R(vhat)) > 0.0


class TestAssembling:
    def test_exact_zero(self):
        _, _, dec = make_instance(8, 8, 2, 2, wave=True, kappa=2.0, eta=2.0)
        rep = check_assembling(dec)
        assert rep.passed
        assert rep.max_dev_matrix == 0.0
        assert rep.max_dev_load == 0.0

    def test_injected_fault_located(self):
        _, _, dec = make_instance(4, 4, 2, 2)
        parts = [dict(p) for p in dec.local_parts]
        broken = parts[0]["A0"].toarray()
        r, c = np.nonzero(broken)
        broken[r[0], c[0]] += 1e-3
        parts[0] = dict(parts[0], A0=scipy.sparse.csr_array(broken))
        rep = check_assembling(dec, local_parts=parts)
        assert not rep.passed
        assert rep.worst_entry is not None
        g = dec.maps[0]
        assert rep.worst_entry == (int(g[r[0]]), int(g[c[0]]))

    def test_twin_scalar_sum(self):
        ts = twin_scalar(a=(1.0, 1.0), m=1.0, alpha=1.0, f=(1.0, 1.0))
        assert ts.decomp.problem.A_hat().toarray()[0, 0] == 2.0


@pytest.mark.parametrize("nx, ny, px, py", [(6, 4, 3, 2), (3, 4, 1, 2), (6, 2, 3, 1)])
def test_multiplicities_follow_the_maps(nx, ny, px, py):
    _, _, dec = make_instance(nx, ny, px, py)
    sharing = [[] for _ in range(dec.n)]
    for i, g in enumerate(dec.maps):
        for k in g:
            sharing[int(k)].append(i)       # subdomains in ascending order
    mult = dec.multiplicities
    assert mult.sharing == tuple(tuple(s) for s in sharing)
    assert all(type(i) is int for s in mult.sharing for i in s)
    assert mult.mu.tolist() == [len(s) for s in sharing]
    assert mult.interface_dofs.tolist() == [k for k, s in enumerate(sharing) if len(s) >= 2]


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(4, 4, 2, 2), (6, 4, 3, 2), (8, 8, 4, 4), (6, 6, 2, 3)]),
       st.booleans(), st.floats(0.0, 4.0))
def test_assembling_property(shape, wave, kappa):
    nx, ny, px, py = shape
    if wave and kappa == 0.0:
        kappa = 1.0
    mesh = build_mesh(nx, ny, boundary="robin")
    prob = assemble(mesh, kappa=kappa if wave else 0.0, eta=1.0,
                    absorption=0.25, wave=wave)
    dec = build_restrictions(mesh, partition_grid(mesh, px, py), prob)
    rep = check_assembling(dec)
    assert rep.max_dev_matrix == 0.0 and rep.max_dev_load == 0.0
