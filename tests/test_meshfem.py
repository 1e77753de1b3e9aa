import numpy as np
import pytest

from schwarzlab.meshfem import (BoundaryTag, assemble, build_mesh,
                                export_mesh_text, point_source_dof)


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


def test_export_mesh_text(tmp_path):
    mesh = build_mesh(2, 2, boundary="robin")
    path = tmp_path / "mesh.txt"
    export_mesh_text(mesh, path)
    content = path.read_text()
    assert content.strip()
