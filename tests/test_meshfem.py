import numpy as np
import pytest

from schwarzlab.meshfem import (BoundaryTag, assemble, build_mesh, element_contributions,
                                point_source_dof)


class TestBuildMesh:
    def test_1x1_robin(self):
        mesh = build_mesh(1, 1, boundary="robin")
        assert mesh.n_nodes == 4
        assert mesh.n_triangles == 2
        assert int(np.sum(mesh.boundary_tags == int(BoundaryTag.ROBIN))) == 4

    def test_2x2_dirichlet(self):
        mesh = build_mesh(2, 2, boundary="dirichlet")
        assert mesh.n_nodes == 9
        assert mesh.n_triangles == 8
        interior = np.sum(mesh.boundary_tags == int(BoundaryTag.INTERIOR))
        assert interior == 1

    def test_4x2_robin(self):
        mesh = build_mesh(4, 2, boundary="robin")
        assert mesh.n_nodes == 15
        assert mesh.n_triangles == 16

    # non-square grids, where an x/y transposition of the numbering shows
    @pytest.mark.parametrize("nx, ny", [(6, 4), (1, 2), (3, 1)])
    def test_numbering_follows_the_documented_formulas(self, nx, ny):
        mesh = build_mesh(nx, ny, boundary="robin")
        xs, ys = np.linspace(0.0, 1.0, nx + 1), np.linspace(0.0, 1.0, ny + 1)
        for iy in range(ny + 1):
            for ix in range(nx + 1):
                assert tuple(mesh.coords[iy * (nx + 1) + ix]) == (xs[ix], ys[iy])
        for iy in range(ny):
            for ix in range(nx):
                a = iy * (nx + 1) + ix
                b, c, d = a + 1, a + nx + 2, a + nx + 1
                t = 2 * (iy * nx + ix)
                assert tuple(mesh.triangles[t]) == (a, b, c)
                assert tuple(mesh.triangles[t + 1]) == (a, c, d)

    @pytest.mark.parametrize("nx, ny", [(6, 4), (1, 2), (3, 1)])
    def test_boundary_edges_side_by_side(self, nx, ny):
        mesh = build_mesh(nx, ny, boundary="robin")

        def node(ix, iy):
            return iy * (nx + 1) + ix

        expected = ([(node(ix, 0), node(ix + 1, 0), 2 * ix) for ix in range(nx)]
                    + [(node(nx, iy), node(nx, iy + 1), 2 * (iy * nx + nx - 1))
                       for iy in range(ny)]
                    + [(node(ix, ny), node(ix + 1, ny), 2 * ((ny - 1) * nx + ix) + 1)
                       for ix in range(nx)]
                    + [(node(0, iy), node(0, iy + 1), 2 * iy * nx + 1) for iy in range(ny)])
        assert list(zip(*(e.tolist() for e in mesh.boundary_edges()))) == expected
        for a, b, tri in expected:
            assert {a, b} <= set(mesh.triangles[tri].tolist())


class TestAssemble:
    def test_2x2_dirichlet_laplace(self):
        # single interior node of the P1 Laplacian on the split unit square
        mesh = build_mesh(2, 2, boundary="dirichlet")
        prob = assemble(mesh, kappa=0.0, eta=1.0, wave=False)
        assert prob.n == 1
        assert prob.A0.toarray()[0, 0] == pytest.approx(4.0)
        assert prob.A1.toarray()[0, 0] == 0.0
        assert prob.A2.toarray()[0, 0] == 0.0

    def test_consistent_mass_trace(self):
        # trace of the P1 consistent mass over the square equals area / 2
        mesh = build_mesh(1, 1, boundary="robin")
        prob = assemble(mesh, kappa=1.0, eta=1.0, wave=True)
        assert np.trace(prob.A2.toarray().real) == pytest.approx(0.5)

    def test_stiffness_annihilates_constants(self):
        mesh = build_mesh(5, 3, boundary="robin")   # no dof elimination
        prob = assemble(mesh, kappa=0.0, eta=1.0, wave=True)
        ones = np.ones(prob.n)
        assert np.max(np.abs(prob.A0.toarray() @ ones)) <= 1e-13

    @pytest.mark.parametrize("boundary", ["robin", "dirichlet"])
    def test_parts_symmetric_psd(self, boundary):
        mesh = build_mesh(4, 4, boundary=boundary)
        prob = assemble(mesh, kappa=2.0, eta=1.5, absorption=0.5,
                        wave=(boundary == "robin"))
        for part in (prob.A0, prob.A1, prob.A2):
            dense = part.toarray().real
            assert np.max(np.abs(dense - dense.T)) == 0.0
            assert np.linalg.eigvalsh(dense).min() >= -1e-12

    def test_boundary_mass_row_sums(self):
        # lumped Robin mass: every boundary node weight is eta * h, so the
        # total equals eta * perimeter
        eta, n = 2.5, 4
        mesh = build_mesh(n, n, boundary="robin")
        prob = assemble(mesh, kappa=0.0, eta=eta, wave=True)
        A1 = prob.A1.toarray().real
        assert np.max(np.abs(A1 - np.diag(np.diag(A1)))) == 0.0
        assert np.sum(A1) == pytest.approx(eta * 4.0)
        boundary_nodes = mesh.boundary_tags == int(BoundaryTag.ROBIN)
        h = 1.0 / n
        assert np.allclose(np.diag(A1)[boundary_nodes], eta * h)

    def test_wave_flag_and_alpha(self):
        mesh = build_mesh(2, 2, boundary="robin")
        assert assemble(mesh, kappa=1.0, eta=1.0).alpha == 1j
        mesh_d = build_mesh(2, 2, boundary="dirichlet")
        assert assemble(mesh_d, kappa=0.0, eta=1.0).alpha == 1.0

    def test_direct_solve_residual(self):
        mesh = build_mesh(6, 6, boundary="robin")
        prob = assemble(mesh, kappa=2.0, eta=2.0, source="point:0.3,0.4", wave=True)
        u = prob.direct_solve()
        A = prob.A_hat().toarray()
        assert np.linalg.norm(A @ u - prob.f) <= 1e-10 * np.linalg.norm(prob.f)

    def test_invalid_inputs(self):
        mesh = build_mesh(2, 2, boundary="robin")
        with pytest.raises(ValueError):
            assemble(mesh, kappa=1.0, eta=0.0)
        with pytest.raises(ValueError):
            assemble(mesh, kappa=-1.0, eta=1.0)
        with pytest.raises(ValueError):
            assemble(mesh, kappa=1.0, eta=1.0, source="point")

    def test_point_source(self):
        mesh = build_mesh(4, 4, boundary="dirichlet")
        prob = assemble(mesh, kappa=0.0, eta=1.0, source="point:0.5,0.5", wave=False)
        k = point_source_dof(prob)
        assert prob.f[k] == 1.0
        assert np.count_nonzero(prob.f) == 1


def test_assembly_matches_an_element_loop():
    # each entry's contributions gathered element by element, in element
    # order, and reduced as accumulate documents
    mesh = build_mesh(3, 2, boundary="robin")
    prob = assemble(mesh, kappa=1.7, eta=2.3, absorption=0.3, wave=True)
    batch = element_contributions(mesh, 1.7, 2.3, 0.3)
    for name, local in (("A0", batch.K), ("A1", batch.A1), ("A2", batch.A2)):
        groups = {}
        for t, nodes in enumerate(mesh.triangles):
            for i in range(3):
                for j in range(3):
                    key = (int(prob.dof_map[nodes[i]]), int(prob.dof_map[nodes[j]]))
                    groups.setdefault(key, []).append(complex(local[t, i, j]))
        keys = sorted(groups)
        data = np.array([np.add.reduceat(np.array(groups[k]), [0])[0] for k in keys])
        indptr = np.searchsorted([r for r, _ in keys], np.arange(prob.n + 1))
        A = getattr(prob, name)
        assert A.data.tobytes() == data.tobytes()
        assert A.indices.tobytes() == np.array([c for _, c in keys], dtype=np.int64).tobytes()
        assert A.indptr.tobytes() == indptr.astype(np.int64).tobytes()
