"""Shared builders for test instances, and the fault that fails each check."""

import dataclasses
from dataclasses import dataclass

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg

from schwarzlab import cli, decomp as decomp_module, formulations as formulations_module
from schwarzlab.decomp import Decomposition, build_restrictions, partition_grid
from schwarzlab.facets import Facet, FacetSystem
from schwarzlab.formulations import DualSystem, build_dual_system
from schwarzlab.linalg import factorize
from schwarzlab.meshfem import assemble, build_mesh
from schwarzlab.traces import (ExchangeOperator, TraceOperator,
                               build_exchange, build_impedance, build_trace)


def make_instance(nx=8, ny=8, px=2, py=2, *, wave=False, kappa=0.0, eta=1.0,
                  absorption=0.0, boundary="robin", source="constant"):
    """Mesh, problem, and decomposition in one call."""
    mesh = build_mesh(nx, ny, boundary=boundary)
    problem = assemble(mesh, kappa=kappa, eta=eta, absorption=absorption,
                       source=source, wave=wave)
    decomp = build_restrictions(mesh, partition_grid(mesh, px, py), problem)
    return mesh, problem, decomp


# The closed forms in which the exchange is written in the literature. With a
# side-equal, facet-block-diagonal M each one is the M-orthogonal reflection
# around the single-valued interface space, wherever it is defined.
REFLECTION_FORMS = ("swap", "multiplicity", "weighted", "glob_local", "global")


def reflection_form(trace, imp, form):
    """Dense 2 P - I for the projection P that `form` names, or None.

    swap:         the two sides of each (facet, dof) trade values; None unless
                  every facet is bilateral.
    multiplicity: plain average over each (facet, dof) group.
    weighted:     average over each group, weighted by the diagonal of M.
    glob_local:   per facet, the M_F-orthogonal projection onto the traces
                  that agree on all sides of the facet.
    global:       the M-orthogonal projection onto range(T R); None unless
                  T T^T = I.
    """
    dim = trace.dim_lambda
    M = imp.toarray()
    facets = trace.system.facets
    groups = [[trace.slot(i, fidx, k) for i in F.subdomains]
              for fidx, F in enumerate(facets) for k in F.dofs]
    if form == "swap":
        if any(len(g) != 2 for g in groups):
            return None
        X = np.zeros((dim, dim))
        for a, b in groups:
            X[a, b] = X[b, a] = 1.0
        return X
    P = np.zeros((dim, dim))
    if form in ("multiplicity", "weighted"):
        d = np.diagonal(M) if form == "weighted" else np.ones(dim)
        for g in groups:
            P[np.ix_(g, g)] = d[g] / d[g].sum()
    elif form == "glob_local":
        for fidx, F in enumerate(facets):
            rows = [trace.slot(i, fidx, k) for i in F.subdomains for k in F.dofs]
            B = np.tile(np.eye(len(F.dofs)), (len(F.subdomains), 1))
            MF = M[np.ix_(rows, rows)]
            P[np.ix_(rows, rows)] = B @ np.linalg.solve(B.T @ MF @ B, B.T @ MF)
    elif form == "global":
        T = trace.matrix
        if not np.array_equal((T @ T.T).toarray(), np.eye(dim)):
            return None
        TR = (T @ trace.decomp.R_stacked()).real.toarray()
        B = TR[:, np.any(TR != 0.0, axis=0)]
        P = B @ np.linalg.solve(B.T @ M @ B, B.T @ M)
    else:
        raise ValueError(f"unknown reflection form {form!r}")
    return 2.0 * P - np.eye(dim)


def assert_reflection_form(trace, imp, X, form):
    """X is the closed form `form` of the reflection for this trace and M."""
    expected = reflection_form(trace, imp, form)
    assert expected is not None, f"{form} is not defined on this facet system"
    assert np.max(np.abs(X.matrix.toarray() - expected)) <= 1e-12


def primal_reference(decomp):
    uhat = np.asarray(decomp.problem.direct_solve())
    return decomp.apply_R(uhat)


def solve_based_K(dual) -> np.ndarray:
    """The dense K, one augmented solve per unit vector; N takes no part."""
    return np.column_stack([dual.apply_K_and_loss(e)[0] for e in np.eye(dual.dim)])


def decay_slack(rep, d_norm, beta):
    """Slack of the decay inequality |mu_n+1|^2 <= |mu_n|^2 - beta(1-beta)|K mu_n|^2
    at each step of a Richardson run, relative to |mu_0|^2 (M^-1 norms).

    Read from the run's histories only: error_norms[n] is |mu_n| and
    residuals[n] * |d| is |K mu_n|, as d - K lam_n = -K mu_n. The slack is
    non-negative exactly when X^T S does not expand mu_n.
    """
    mu = np.asarray(rep.error_norms)
    K_mu = np.asarray(rep.residuals) * d_norm
    slack = mu[:-1] ** 2 - beta * (1.0 - beta) * K_mu[:-1] ** 2 - mu[1:] ** 2
    return slack / mu[0] ** 2


# -- twin-scalar fixture -------------------------------------------------------


@dataclass(frozen=True)
class _ScalarProblem:
    """Synthetic global problem with a single dof shared by two subdomains."""

    a: tuple[float, float]
    f_hat: complex
    wave: bool = False

    @property
    def n(self) -> int:
        return 1

    @property
    def f(self) -> np.ndarray:
        return np.array([self.f_hat], dtype=np.complex128)

    def combine(self, A0, A1, A2):
        return A0 + A1 + A2

    def A_hat(self) -> scipy.sparse.csr_array:
        return _scalar_csr(self.a[0] + self.a[1])

    def direct_solve(self) -> np.ndarray:
        return np.array([self.f_hat / (self.a[0] + self.a[1])], dtype=np.complex128)


@dataclass(frozen=True)
class TwinScalar:
    """Hand-checkable two-subdomain scalar fixture.

    One global dof, A_i = [a_i], impedance m on both sides, swap exchange.
    Scattering block per side: (alpha*m - a_i) / (alpha*m + a_i).
    """

    decomp: Decomposition
    system: FacetSystem
    trace: TraceOperator
    impedance: scipy.sparse.csr_array
    exchange: ExchangeOperator
    dual: DualSystem


def _scalar_csr(value) -> scipy.sparse.csr_array:
    return scipy.sparse.csr_array(np.array([[value]], dtype=np.complex128))


def twin_scalar(a=(1.0, 1.0), m: float = 1.0, alpha: complex = 1.0,
                f=(1.0, 1.0)) -> TwinScalar:
    problem = _ScalarProblem(a=(float(a[0]), float(a[1])),
                             f_hat=complex(f[0]) + complex(f[1]))
    zero = _scalar_csr(0.0)
    local_parts = [{"A0": _scalar_csr(a[i]), "A1": zero, "A2": zero} for i in (0, 1)]
    decomp = Decomposition(problem, [[0], [0]], local_parts,
                           [[complex(f[0])], [complex(f[1])]])
    system = FacetSystem(variant="bilateral_max",
                         facets=(Facet(subdomains=(0, 1), dofs=(0,)),),
                         n_subdomains=2)
    trace = build_trace(system, decomp)
    impedance = build_impedance(trace, "scalar", m)
    exchange = build_exchange(trace)
    dual = build_dual_system(decomp, trace, impedance, exchange, complex(alpha))
    return TwinScalar(decomp=decomp, system=system, trace=trace,
                      impedance=impedance, exchange=exchange, dual=dual)


@pytest.fixture(scope="session")
def coercive_2x2():
    """Laplace-type SPD instance on 2x2 subdomains with a cross point."""
    return make_instance(8, 8, 2, 2, wave=False, kappa=0.0, eta=1.0,
                         boundary="robin", source="point:0.3,0.4")


@pytest.fixture(scope="session")
def helmholtz_2x2():
    """All-Robin wave instance on 2x2 subdomains."""
    return make_instance(8, 8, 2, 2, wave=True, kappa=2.0, eta=2.0,
                         boundary="robin", source="point:0.3,0.4")


# -- faults of the invariant battery -------------------------------------------


def after_build(mutate):
    """A fault that `mutate`s each instance `cli.build_instance` returns."""
    def inject(monkeypatch):
        build = cli.build_instance

        def faulty(cfg):
            inst = build(cfg)
            mutate(inst)
            return inst

        monkeypatch.setattr(cli, "build_instance", faulty)
    return inject


def perturb_local_stiffness(monkeypatch):
    """One local stiffness entry off by 1e-3, in the decomposition only: the
    canonical re-accumulation stays consistent, the mesh-order assembly not."""
    contributions = decomp_module.element_contributions

    def faulty(*args, **kwargs):
        batch = contributions(*args, **kwargs)
        batch.K[0, 0, 0] += 1e-3
        return batch

    monkeypatch.setattr(decomp_module, "element_contributions", faulty)


def deepen_last_subdomain(monkeypatch):
    """The last subdomain one level deeper in FETI-H's tree: its sign flips,
    and W and the augmented operator are built from the wrong sign."""
    forest = formulations_module.rooted_forest

    def faulty(nodes, tree):
        parent, depth = forest(nodes, tree)
        return parent, {**depth, nodes[-1]: depth[nodes[-1]] + 1}

    monkeypatch.setattr(formulations_module, "rooted_forest", faulty)


def flip_leaf_sign(monkeypatch):
    """A subdomain on one tree facet one level deeper in FETI-H's tree: its
    sign flips, and with it the one tree term it has."""
    forest = formulations_module.rooted_forest

    def faulty(nodes, tree):
        parent, depth = forest(nodes, tree)
        leaf = next(v for v in nodes if sum(v in pair for pair in tree) == 1)
        return parent, {**depth, leaf: depth[leaf] + 1}

    monkeypatch.setattr(formulations_module, "rooted_forest", faulty)


def perturb_exchange_entry(inst):
    X = inst.dual.X.tocoo()
    k = np.flatnonzero(X.row != X.col)[0]
    inst.dual.X = inst.dual.X + scipy.sparse.csr_array(
        ([1e-6], ([X.row[k]], [X.col[k]])), shape=X.shape)


def oblique_pair_reflection(inst):
    """One [[0, 1], [1, 0]] pair block of X becomes [[0.4, 0.6], [1.4, -0.4]]:
    still an involution that fixes constants, but oblique in M."""
    X = inst.dual.X
    a = int(np.flatnonzero(np.diff(X.indptr) == 1)[0])   # a row of a pair block
    b = int(X.indices[X.indptr[a]])
    assert X[a, b] == X[b, a] == 1.0 and X[a, a] == X[b, b] == 0.0
    rows, cols = [a, a, b, b], [a, b, a, b]
    inst.dual.X = X + scipy.sparse.csr_array(
        (0.4 * np.array([1.0, -1.0, 1.0, -1.0]), (rows, cols)), shape=X.shape)


def quarter_turn_cross_point(inst):
    """The cross-point block of X (its rows with 4 entries) becomes
    P + Q0 R Q0^T, P = J/4, Q0 an orthonormal basis of the complement of the
    constants and R a quarter turn in two of its directions and a reflection
    in the third: still M-orthogonal on M = m I and constant-fixing, but its
    square is not the identity."""
    X = inst.dual.X.copy()
    slots = np.flatnonzero(np.diff(X.indptr) == 4)
    Q, _ = np.linalg.qr(np.column_stack([np.ones(4), np.eye(4)[:, :3]]))
    R = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])
    X[np.ix_(slots, slots)] = np.full((4, 4), 0.25) + Q[:, 1:] @ R @ Q[:, 1:].T
    inst.dual.X = X


def negate_reflection(inst):
    inst.dual.X = -inst.dual.X


def negate_outgoing_term(inst):
    # pseudo_energy forms S lam from 2 alpha M T v; no other check reads it
    outgoing = inst.dual._outgoing
    inst.dual._outgoing = lambda v: -outgoing(v)


def split_vertex_glob(inst):
    facets = []
    for F in inst.system.facets:
        if len(F.subdomains) == 4:
            a, b, c, d = F.subdomains
            facets += [dataclasses.replace(F, subdomains=(a, b)),
                       dataclasses.replace(F, subdomains=(c, d))]
        else:
            facets.append(F)
    inst.system = dataclasses.replace(inst.system, facets=tuple(facets))


def unlink_cross_point(inst):
    """The cross-point dof leaves facets (0, 1) and (2, 3) after the build:
    its graph keeps the edges 0-2 and 1-3, two components."""
    k = int(np.flatnonzero(inst.decomp.multiplicities.mu == 4)[0])
    inst.system = dataclasses.replace(inst.system, facets=tuple(
        dataclasses.replace(F, dofs=tuple(d for d in F.dofs if d != k))
        if F.subdomains in ((0, 1), (2, 3)) else F for F in inst.system.facets))


def drop_redundancy_column(inst):
    inst.redundancy = inst.redundancy[:, 1:]


def conjugate_loss(inst):
    # Im A -> -Im A in A and in Atilde alike: the balance still holds, p < 0
    dual = inst.dual
    dual._A_csr = dual._A_csr.conj()
    dual.aug.matrix = dual._A_csr + dual.alpha * (dual._Tt @ dual.M @ dual.T)
    dual.aug.factor = factorize(dual.aug.matrix)


@dataclass(frozen=True)
class Fault:
    """A run of `preset` at nx x nx on p x p subdomains, with `inject`
    installed; it fails its check and exactly the checks in `also`."""

    preset: str
    nx: int
    p: int
    inject: object              # inject(monkeypatch), before the run builds
    also: tuple = ()            # empty: the fault fails its check alone
    sets: tuple = ()            # further --set arguments


# battery check -> the fault that fails it; every check the battery returns
# on some preset has a row, and a check without one fails tier-1
FAULTS = {
    "assembling_deviation": Fault("fetih", 16, 4, deepen_last_subdomain),
    "mesh_order_deviation": Fault("loisel", 8, 2, perturb_local_stiffness),
    "admissibility": Fault("loisel", 16, 2, after_build(split_vertex_glob)),
    "involution_defect": Fault("loisel", 16, 2, after_build(quarter_turn_cross_point)),
    "conformity_fixed_defect": Fault("exceptional", 8, 2, after_build(negate_reflection)),
    "impedance_isometry_defect": Fault("loisel", 16, 2,
                                       after_build(oblique_pair_reflection)),
    "redundancy_dimension": Fault("feti2lm", 16, 4, after_build(drop_redundancy_column)),
    "pseudo_energy_defect": Fault("feti2lm", 16, 4, after_build(negate_outgoing_term)),
    "loss_sign_defect": Fault("feti2lm", 16, 2, after_build(conjugate_loss),
                              sets=("problem.type=helmholtz", "problem.kappa=8")),
}
