import itertools

import numpy as np
import pytest
import scipy.sparse

from schwarzlab.facets import VARIANTS, build_facets
from schwarzlab.formulations import build_dual_system
from schwarzlab.solvers import IterationConfig, primal_iterate
from schwarzlab.traces import IMPEDANCE_VARIANTS, build_exchange, build_impedance, build_trace

from conftest import (REFLECTION_FORMS, assert_reflection_form, make_instance, reflection_form,
                      twin_scalar)


@pytest.fixture(scope="module")
def cross_dec():
    return make_instance(4, 4, 2, 2)[2]


def build_stack(dec, facet_variant, impedance="lumped_mass", sigma=1.0):
    system = build_facets(dec, facet_variant)
    trace = build_trace(system, dec)
    imp = build_impedance(trace, impedance, sigma)
    return system, trace, imp, build_exchange(trace)


def is_orthonormal(trace):
    """T T^T = I: the rows of T select distinct local dofs."""
    TTt = (trace.matrix @ trace.matrix.T).toarray()
    return np.array_equal(TTt, np.eye(trace.dim_lambda))


class TestTraceOperator:
    def test_trace_rows_select_once(self, cross_dec):
        for variant in VARIANTS:
            trace = build_trace(build_facets(cross_dec, variant), cross_dec)
            T = trace.matrix.toarray()
            assert np.all(T.sum(axis=1) == 1.0)
            assert set(np.unique(T)) <= {0.0, 1.0}

    @pytest.mark.parametrize("variant", VARIANTS)
    @pytest.mark.parametrize("nx,px,py", [(4, 2, 2), (8, 4, 4), (8, 4, 1)])
    def test_rows_run_subdomain_by_subdomain(self, variant, nx, px, py):
        # DualSystem.N packs one trace row of every subdomain per solve
        dec = make_instance(nx, nx, px, py)[2]
        T = build_trace(build_facets(dec, variant), dec).matrix
        assert np.all(np.diff(T.indptr) == 1)
        sub = np.searchsorted(dec.offsets, T.indices, side="right") - 1
        assert np.all(np.diff(sub) >= 0)
        assert np.array_equal(np.unique(sub), np.arange(dec.n_sub))

    def test_consistency_across_sides(self, cross_dec):
        # both sides of a facet see the same global values
        system = build_facets(cross_dec, "bilateral_max")
        trace = build_trace(system, cross_dec)
        rng = np.random.default_rng(0)
        vhat = rng.standard_normal(cross_dec.n)
        t = trace.matrix @ cross_dec.apply_R(vhat)
        for fidx, F in enumerate(system.facets):
            blocks = [t[slice(*trace.slot_range(i, fidx))] for i in F.subdomains]
            for block in blocks[1:]:
                assert np.array_equal(block, blocks[0])

    def test_cross_dof_trace_counts(self, cross_dec):
        k = int(np.flatnonzero(cross_dec.multiplicities.mu == 4)[0])
        pc = build_trace(build_facets(cross_dec, "bilateral_properly_closed"),
                         cross_dec)
        assert sum(1 for (_i, _f, dof) in pc.slots if dof == k) == 8
        gl = build_trace(build_facets(cross_dec, "globs"), cross_dec)
        assert sum(1 for (_i, _f, dof) in gl.slots if dof == k) == 4

    def test_surjectivity(self, cross_dec):
        glob_trace = build_trace(build_facets(cross_dec, "globs"), cross_dec)
        assert is_orthonormal(glob_trace)
        T = glob_trace.matrix.toarray()
        assert np.linalg.matrix_rank(T) == glob_trace.dim_lambda
        bi = build_trace(build_facets(cross_dec, "bilateral_max"), cross_dec)
        # cross dof selected by several facets
        assert not is_orthonormal(bi)
        assert np.linalg.matrix_rank(bi.matrix.toarray()) < bi.dim_lambda
        # two subdomains, mu_max = 2: bilateral trace is surjective
        strip = make_instance(4, 4, 2, 1)[2]
        assert is_orthonormal(build_trace(build_facets(strip, "bilateral_max"), strip))


class TestImpedance:
    @pytest.mark.parametrize("variant", IMPEDANCE_VARIANTS)
    def test_spd(self, cross_dec, variant):
        facet_variant = "globs" if variant == "glob_block" else "bilateral_max"
        trace = build_trace(build_facets(cross_dec, facet_variant), cross_dec)
        imp = build_impedance(trace, variant, 2.0)
        M = imp.matrix.toarray()
        assert np.max(np.abs(M - M.T)) == 0.0
        assert np.linalg.eigvalsh(M).min() > 0.0
        assert np.max(np.abs(M.imag)) if np.iscomplexobj(M) else True

    def test_scalar_is_sigma_identity(self, cross_dec):
        trace = build_trace(build_facets(cross_dec, "globs"), cross_dec)
        imp = build_impedance(trace, "scalar", 3.5)
        assert np.array_equal(imp.matrix.toarray(), 3.5 * np.eye(trace.dim_lambda))

    def test_sides_share_blocks(self, cross_dec):
        system = build_facets(cross_dec, "bilateral_max")
        trace = build_trace(system, cross_dec)
        M = build_impedance(trace, "lumped_mass", 1.0).matrix.toarray()
        for fidx, F in enumerate(system.facets):
            blocks = [M[slice(*trace.slot_range(i, fidx)),
                        slice(*trace.slot_range(i, fidx))]
                      for i in F.subdomains]
            for block in blocks[1:]:
                assert np.array_equal(block, blocks[0])

    def test_edge_weights_2x2_globs(self):
        # 8x8 mesh, h = 1/8: four edge globs of four collinear dofs and the
        # isolated cross point
        sigma, h = 2.0, 0.125
        dec = make_instance(8, 8, 2, 2)[2]
        system = build_facets(dec, "globs")
        trace = build_trace(system, dec)
        lumped = build_impedance(trace, "lumped_mass", sigma).facet_blocks
        mass = build_impedance(trace, "glob_block", sigma).facet_blocks
        assert sorted(len(F.dofs) for F in system.facets) == [1, 4, 4, 4, 4]
        for fidx, F in enumerate(system.facets):
            if len(F.dofs) == 1:
                assert lumped[fidx][0, 0] == mass[fidx][0, 0] == sigma * h
                continue
            # dofs ascend along the facet: its ends carry half an edge
            expected = np.diag([sigma * h / 2, sigma * h, sigma * h, sigma * h / 2])
            assert np.array_equal(lumped[fidx], expected)
            consistent = (np.diag([1.0, 2.0, 2.0, 1.0]) / 3.0
                          + (np.eye(4, k=1) + np.eye(4, k=-1)) / 6.0)
            assert np.allclose(mass[fidx], sigma * h * consistent, rtol=0, atol=1e-16)

    def test_invalid_sigma(self, cross_dec):
        trace = build_trace(build_facets(cross_dec, "globs"), cross_dec)
        with pytest.raises(ValueError):
            build_impedance(trace, "scalar", 0.0)


# every facet system, each with the closed forms that its exchange is written in
FORM_CASES = ([(fv, "swap") for fv in VARIANTS if fv != "globs"]
              + [("globs", form) for form in REFLECTION_FORMS if form != "swap"])


def build_form_stack(dec, facet_variant, form):
    system, trace, imp, X = build_stack(dec, facet_variant)
    assert_reflection_form(trace, imp, X, form)
    return system, trace, imp, X


class TestExchange:
    @pytest.mark.parametrize("facet_variant,form", FORM_CASES)
    def test_involution_and_conformity(self, cross_dec, facet_variant, form):
        _, trace, _imp, X = build_form_stack(cross_dec, facet_variant, form)
        dim = trace.dim_lambda
        assert np.max(np.abs(X.matrix @ X.matrix - np.eye(dim))) <= 1e-12
        assert np.max(np.abs(X.matrix.imag)) == 0.0
        rng = np.random.default_rng(1)
        for _ in range(25):
            vhat = rng.standard_normal(cross_dec.n)
            t = trace.matrix @ cross_dec.apply_R(vhat)
            assert np.max(np.abs(t - X.matrix @ t)) <= 1e-12

    @pytest.mark.parametrize("facet_variant,form", FORM_CASES)
    def test_projections_idempotent(self, cross_dec, facet_variant, form):
        _, trace, _imp, X = build_form_stack(cross_dec, facet_variant, form)
        for sign in (+1.0, -1.0):
            P = 0.5 * (np.eye(trace.dim_lambda) + sign * X.matrix)
            assert np.max(np.abs(P @ P - P)) <= 1e-12

    @pytest.mark.parametrize("facet_variant,form", FORM_CASES)
    def test_impedance_isometry(self, cross_dec, facet_variant, form):
        _, _trace, imp, X = build_form_stack(cross_dec, facet_variant, form)
        M = imp.matrix
        scale = np.max(np.abs(M))
        assert np.max(np.abs(X.matrix.T @ M @ X.matrix - M)) <= 1e-10 * scale
        def norm(lam):
            return np.sqrt(np.vdot(lam, M @ lam).real)

        rng = np.random.default_rng(2)
        for _ in range(10):
            lam = rng.standard_normal(M.shape[0]) + 1j * rng.standard_normal(M.shape[0])
            assert norm(X.matrix @ lam) == pytest.approx(norm(lam), rel=1e-10)

    def test_reflection_closed_form(self, cross_dec):
        # equal impedance glob of multiplicity 4: diagonal 2/m - 1, off 2/m
        system, trace, _imp, X = build_stack(cross_dec, "globs", impedance="scalar")
        fidx = next(i for i, F in enumerate(system.facets)
                    if len(F.subdomains) == 4)
        F = system.facets[fidx]
        slots = [trace.slot(i, fidx, F.dofs[0]) for i in F.subdomains]
        block = X.matrix.toarray()[np.ix_(slots, slots)]
        expected = 0.5 * np.ones((4, 4)) - np.eye(4)
        assert np.allclose(block, expected, atol=1e-14)

    @pytest.mark.parametrize("impedance", IMPEDANCE_VARIANTS)
    @pytest.mark.parametrize("form", REFLECTION_FORMS)
    def test_one_reflection_per_slot_group(self, cross_dec, form, impedance):
        # side-equal, facet-block-diagonal M: the M-orthogonal reflection is
        # unique, 2/m J - I on each (facet, dof) group, for every facet system,
        # and it is the closed form wherever that form is defined
        strip = make_instance(4, 4, 2, 1)[2]
        defined = 0
        for dec in (cross_dec, strip):
            for facet_variant in VARIANTS:
                system, trace, imp, X = build_stack(dec, facet_variant, impedance)
                X = X.matrix
                assert isinstance(X, scipy.sparse.csr_array)
                assert np.all(X.data != 0.0)
                expected = np.zeros((trace.dim_lambda, trace.dim_lambda))
                for fidx, F in enumerate(system.facets):
                    m = len(F.subdomains)
                    for k in F.dofs:
                        slots = [trace.slot(i, fidx, k) for i in F.subdomains]
                        expected[np.ix_(slots, slots)] = 2.0 * (1.0 / m) - np.eye(m)
                assert np.array_equal(X.toarray(), expected)
                M = imp.matrix
                assert abs(X.T @ M @ X - M).max() <= 1e-14 * abs(M).max()
                closed = reflection_form(trace, imp, form)
                if closed is not None:
                    defined += 1
                    assert np.max(np.abs(X.toarray() - closed)) <= 1e-12
        assert defined > 0


def test_every_variant_name_builds_a_distinct_operator(cross_dec):
    # one name per operator: an alias of a facet system or an impedance fails here
    def same(a, b):
        return a.shape == b.shape and np.array_equal(a, b)

    stacks = [build_stack(cross_dec, variant) for variant in VARIANTS]
    for (_s, t1, _i, x1), (_t, t2, _j, x2) in itertools.combinations(stacks, 2):
        assert not (same(t1.matrix.toarray(), t2.matrix.toarray())
                    and same(x1.matrix.toarray(), x2.matrix.toarray()))
    trace = stacks[VARIANTS.index("globs")][1]
    weights = [build_impedance(trace, variant, 1.0).matrix.toarray()
               for variant in IMPEDANCE_VARIANTS]
    for M1, M2 in itertools.combinations(weights, 2):
        assert not same(M1, M2)


class TestExtension:
    """The extension E with T E = I is T^T whenever the trace is surjective."""

    def test_glob_extension_identity(self, cross_dec):
        assert is_orthonormal(build_trace(build_facets(cross_dec, "globs"), cross_dec))

    def test_twin_scalar_extension(self):
        trace = twin_scalar().trace
        assert trace.dim_lambda == 2 and is_orthonormal(trace)

    def test_bilateral_cross_rejected(self, cross_dec):
        system, trace, imp, X = build_stack(cross_dec, "bilateral_properly_closed")
        assert not is_orthonormal(trace)
        dual = build_dual_system(cross_dec, trace, imp, X, 1.0)
        with pytest.raises(ValueError, match="surjective"):
            primal_iterate(dual, IterationConfig())


class TestRangeCharacterization:
    def test_fixed_traces_are_conforming(self, cross_dec):
        # u with (I - X) T u = 0 and zeroed bubble mismatch lies in range(R)
        _sys, trace, _imp, X = build_stack(cross_dec, "globs")
        R = cross_dec.R_stacked().real.toarray()
        T = trace.matrix.toarray()
        P = 0.5 * (np.eye(trace.dim_lambda) + X.matrix)
        rng = np.random.default_rng(3)
        for _ in range(5):
            u = rng.standard_normal(R.shape[0])
            # project the trace part onto the fixed set, keep the rest
            correction = T.T @ (P @ (T @ u) - T @ u)
            u_fixed = u + correction
            resid = np.linalg.lstsq(R, u_fixed, rcond=None)[1]
            resid = float(resid[0]) if len(resid) else 0.0
            assert np.sqrt(max(resid, 0.0)) <= 1e-10 * max(np.linalg.norm(u_fixed), 1.0)
