import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from click.testing import CliRunner

from conftest import (FAULTS, after_build, conjugate_loss, flip_fetih_sign_term,
                      negate_outgoing_term, negate_reflection, perturb_exchange_entry,
                      perturb_local_stiffness, split_vertex_glob, unlink_cross_point)
from schwarzlab import cli, decomp, formulations
from schwarzlab.cli import (build_instance, execute, interface_checks,
                            load_config, main, validate)
from schwarzlab.solvers import estimate_gamma, fit_rate


FAST = ["problem.nx=8", "problem.ny=8"]


def sized(nx, p):
    """--set arguments for an nx x nx mesh on p x p subdomains."""
    return [f"problem.nx={nx}", f"problem.ny={nx}",
            f"decomposition.px={p}", f"decomposition.py={p}"]


def sized_instance(preset, nx, p):
    return build_instance(load_config(preset=preset, overrides=dict(
        s.split("=") for s in sized(nx, p))))


def run_cli(args, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUTPUT", str(tmp_path))
    return CliRunner().invoke(main, args)


class TestLoadConfig:
    def test_defaults_cover_schema(self):
        # the default kind is gmres: every [problem], [decomposition] and
        # [output] key, and of [interface] and [solver] the keys gmres reads
        cfg = load_config()
        d = cfg.sections
        assert set(d) == {"problem", "decomposition", "interface", "solver",
                          "output"}
        assert cfg.kind == "gmres"
        assert {f"{s}.{k}" for s in ("interface", "solver") for k in d[s]} == \
            set(cli.KINDS["gmres"].keys)
        assert d["solver"]["maxit"] == 2000

    def test_preset_overrides_defaults(self):
        cfg = load_config(preset="loisel")
        assert cfg.get("interface", "facets") == "globs"
        # solver.method names the kind; the exceptional preset selects one_step
        assert load_config(preset="exceptional").kind == "one_step"

    def test_explicit_override_wins(self):
        cfg = load_config(preset="loisel", overrides={"solver.tol": "1e-8"})
        assert cfg.get("solver", "tol") == 1e-8

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[problem]\nnx = 12\nny = 12\n")
        cfg = load_config(str(path))
        assert cfg.get("problem", "nx") == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"problem.frequencyy": "3"})

    @pytest.mark.parametrize("preset,setting,unread", [
        ("loisel", "solver.beta", "solver.beta"),
        ("fetih", "solver.seed", "solver.seed"),
        ("exceptional", "interface.sigma", "interface.sigma"),
        ("exceptional", "solver.maxit", "solver.maxit"),
        ("loisel", "interface.exchange", "interface.exchange"),
    ])
    def test_unread_key_rejected(self, preset, setting, unread):
        # a key the run's kind does not read is unknown to it
        value = "exceptional" if setting == "interface.exchange" else "1"
        with pytest.raises(ValueError, match=f"run: {unread}$"):
            load_config(preset=preset, overrides={setting: value})

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"physics.kappa": "3"})

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"problem.nx": "many"})

    @pytest.mark.parametrize("value,flag", [("1", True), ("True", True), ("yes", True),
                                            ("0", False), ("false", False), ("NO", False)])
    def test_dump_operators_flag(self, value, flag):
        cfg = load_config(overrides={"output.dump_operators": value})
        assert cfg.get("output", "dump_operators") is flag

    def test_source_spec_echoed_unchanged(self):
        cfg = load_config(overrides={"problem.source": "point:0.30, .4"})
        assert cfg.get("problem", "source") == "point:0.30, .4"


class TestValidate:
    def base(self, **over):
        return load_config(overrides=over)

    def test_default_config_valid(self):
        assert validate(self.base()) == []

    def test_fetih_needs_lossfree(self):
        errs = validate(self.base(**{"solver.method": "fetih"}))
        assert any("loss-free" in e for e in errs)

    def test_primal_needs_globs(self):
        errs = validate(self.base(**{"solver.method": "primal",
                                     "interface.facets": "bilateral_max"}))
        assert any("glob" in e for e in errs)

    @pytest.mark.parametrize("px,py,over,valid", [
        (3, 3, {}, False),
        (3, 1, {}, True),
        (3, 3, {"problem.type": "reaction_diffusion", "problem.kappa": "1"}, True),
    ])
    def test_exceptional_laplace_needs_boundary_subdomains(self, px, py, over,
                                                           valid, tmp_path,
                                                           monkeypatch):
        # an interior subdomain of laplace has a singular local operator
        sets = {"problem.nx": "12", "problem.ny": "12",
                "decomposition.px": str(px), "decomposition.py": str(py), **over}
        result = run_cli(["run", "--preset", "exceptional"]
                         + [f"--set={k}={v}" for k, v in sets.items()],
                         tmp_path, monkeypatch)
        assert result.exit_code == (0 if valid else 2), result.output
        if not valid:
            assert "px <= 2 or py <= 2" in result.output

    def test_exceptional_excludes_helmholtz(self):
        errs = validate(self.base(**{"problem.type": "helmholtz",
                                     "problem.kappa": "6.28",
                                     "solver.method": "one_step"}))
        assert any("coercive" in e for e in errs)

    def test_beta_out_of_range(self):
        errs = validate(self.base(**{"solver.method": "richardson",
                                     "solver.beta": "0.0"}))
        assert errs == ["solver.beta must lie in (0, 1]"]

    def test_partition_must_divide(self):
        errs = validate(self.base(**{"problem.nx": "9",
                                     "decomposition.px": "2"}))
        assert any("divide" in e for e in errs)

    @pytest.mark.parametrize("px,py", [(2, 1), (1, 3), (4, 1), (2, 2), (3, 2), (4, 4)])
    def test_bilateral_global_needs_strip(self, px, py):
        # a bilateral trace has orthonormal rows, T T^T = I, exactly on strips
        strip = px == 1 or py == 1
        for facets in ("bilateral_max", "bilateral_properly_closed",
                       "bilateral_non_redundant"):
            over = {"problem.nx": "12", "problem.ny": "12",
                    "decomposition.px": str(px), "decomposition.py": str(py),
                    "interface.facets": facets}
            T = build_instance(self.base(**over)).trace.matrix
            TTt = (T @ T.T).toarray()
            assert np.array_equal(TTt, np.eye(T.shape[0])) == strip


class TestChecks:
    def test_all_pass_on_valid_instance(self):
        cfg = load_config(preset="loisel", overrides=dict(
            (k.split("=")[0], k.split("=")[1]) for k in FAST))
        inst = build_instance(cfg)
        checks = interface_checks(inst)
        assert all(c["passed"] for c in checks.values())
        assert "assembling_deviation" in checks
        assert "pseudo_energy_defect" in checks

    def test_perturbed_weight_flags_isometry(self):
        cfg = load_config(preset="loisel", overrides=dict(
            (k.split("=")[0], k.split("=")[1]) for k in FAST))
        inst = build_instance(cfg)
        inst.dual.M[0, 0] *= 1.0 + 1e-6     # break the metric, keep the rest
        checks = interface_checks(inst)
        assert not checks["impedance_isometry_defect"]["passed"]
        assert checks["assembling_deviation"]["passed"]
        assert checks["involution_defect"]["passed"]


class TestRedundancyCheck:
    def test_runs_above_the_gamma_budget(self):
        inst = sized_instance("feti2lm", 32, 4)
        assert inst.dual.dim > cli.GAMMA_DIM_LIMIT
        checks = interface_checks(inst, n_random=1)
        assert checks["redundancy_dimension"] == {"passed": True, "cycle_count": 9}

    @pytest.mark.parametrize("fault", ["dropped_column", "flipped_sign"])
    def test_wrong_basis_exits_four(self, fault, tmp_path, monkeypatch):
        build = cli.build_instance

        def faulty(cfg):
            inst = build(cfg)
            Z = inst.redundancy.copy()
            if fault == "dropped_column":
                inst.redundancy = Z[:, 1:]
            else:
                Z.data[np.flatnonzero(Z.indices == 0)[0]] *= -1.0    # in column 0
                inst.redundancy = Z
            return inst

        monkeypatch.setattr(cli, "build_instance", faulty)
        result = run_cli(["verify", "--preset", "feti2lm"]
                         + [f"--set={s}" for s in sized(16, 4)], tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        assert "FAIL redundancy_dimension" in result.output
        assert result.output.count("FAIL") == 1


@pytest.mark.parametrize("command", ["verify", "run"])
def test_admissibility_reads_the_checked_system(command, tmp_path, monkeypatch):
    # a system changed after the build is checked on its own graphs
    after_build(unlink_cross_point)(monkeypatch)
    result = run_cli([command, "--preset", "feti2lm"]
                     + [f"--set={s}" for s in sized(16, 2)], tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert {name for name, check in checks.items() if not check["passed"]} == \
        {"admissibility"}
    assert checks["admissibility"]["disconnected"] == 1


def test_flipped_fetih_sign_term_exits_four(tmp_path, monkeypatch):
    after_build(flip_fetih_sign_term)(monkeypatch)
    result = run_cli(["verify", "--preset", "fetih"]
                     + [f"--set={s}" for s in sized(16, 4)], tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    assert "FAIL assembling_deviation" in result.output
    assert result.output.count("FAIL") == 1


@pytest.mark.parametrize("preset,p,fault,failing,only", [
    ("loisel", 2, perturb_exchange_entry,
     ["involution_defect", "conformity_fixed_defect"], False),
    ("feti2lm", 4, negate_outgoing_term, ["pseudo_energy_defect"], True),
    ("loisel", 2, split_vertex_glob, ["admissibility"], True),
], ids=["perturbed_exchange", "negated_outgoing", "split_vertex_glob"])
def test_battery_fault_exits_four(preset, p, fault, failing, only, tmp_path,
                                  monkeypatch):
    after_build(fault)(monkeypatch)
    result = run_cli(["verify", "--preset", preset]
                     + [f"--set={s}" for s in sized(16, p)], tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    for name in failing:
        assert f"FAIL {name}" in result.output
    if only:
        assert result.output.count("FAIL") == len(failing)


@pytest.mark.parametrize("preset,size", [
    ("complete_comm", lambda inst: inst.trace.dim_lambda),
    ("fetih", lambda inst: inst.problem.n),
], ids=["complete_comm-dim_lambda", "fetih-n"])
def test_battery_allocates_less_than_a_dense_square(preset, size):
    inst = sized_instance(preset, 32, 4)
    tracemalloc.start()
    try:
        interface_checks(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < size(inst) ** 2 * 16


@pytest.mark.parametrize("preset,nx", [("loisel", 64), ("feti2lm", 32)],
                         ids=["loisel-dim780", "feti2lm-dim432-9_cycles"])
def test_richardson_execute_allocates_less_than_a_dense_K(preset, nx):
    # above the gamma budget, the reference multiplier is the only dim x dim
    # work a Richardson run does: one sparse LU of K, bordered with Z
    inst = build_instance(load_config(preset=preset, overrides=dict(
        s.split("=") for s in sized(nx, 4) + ["solver.method=richardson",
                                              "solver.maxit=5"])))
    dim = inst.dual.dim
    assert dim > cli.GAMMA_DIM_LIMIT
    tracemalloc.start()
    try:
        report = execute(inst)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report["iterations"] == 5 and "gamma" in report["skipped"]
    assert peak < dim ** 2 * 16


@pytest.mark.parametrize("impedance", ["lumped_mass", "glob_block"])
def test_gamma_allocates_within_the_trace_space(impedance, monkeypatch):
    # feti2lm 64x64, 2x2, Helmholtz kappa = 8: dim lambda 264, n_u 4356
    inst = build_instance(load_config(preset="feti2lm", overrides={
        "problem.nx": "64", "problem.ny": "64", "problem.type": "helmholtz",
        "problem.kappa": "8", "interface.impedance": impedance}))
    dim, n_u = inst.dual.dim, inst.decomp.offsets[-1]
    # M's widest diagonal block: 1 for a diagonal M, else its widest facet block
    widest = 1 if inst.dual.M.nnz == dim else max(
        len(block) for block in inst.impedance.facet_blocks.values())
    eigh, widths = np.linalg.eigh, []

    def recording_eigh(a, *args, **kwargs):
        widths.append(np.shape(a)[-1])
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", recording_eigh)
    tracemalloc.start()
    try:
        estimate_gamma(inst.dual, redundancy=inst.redundancy)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < (4 * dim ** 2 + 3 * n_u * formulations.K_COLUMNS) * 16
    assert widths and max(widths) <= widest


def _per_probe_battery(inst, n_random, seed):
    """The battery's probe checks, one probe and one solve at a time."""
    rng = np.random.default_rng(seed)
    dual = inst.dual
    X, M, Tt = dual.X, dual.M, dual.T.T
    out = {}
    if not scipy.sparse.issparse(X):
        P = (rng.standard_normal((dual.dim, n_random))
             + 1j * rng.standard_normal((dual.dim, n_random)))
        XP = [X @ P[:, k] for k in range(n_random)]
        out["involution_defect"] = max(
            float(np.abs(X @ XP[k] - P[:, k]).max()) for k in range(n_random))
        out["impedance_isometry_defect"] = max(
            float(np.abs(X.T @ (M @ XP[k]) - M @ P[:, k]).max())
            for k in range(n_random))
        p_scale = float(np.abs(P).max())
        out["involution_defect"] /= p_scale
        out["impedance_isometry_defect"] /= (float(abs(M).max()) or 1.0) * p_scale
    conformity = []
    for _ in range(n_random):
        vhat = (rng.standard_normal(inst.problem.n)
                + 1j * rng.standard_normal(inst.problem.n))
        t = dual.T @ inst.decomp.apply_R(vhat)
        conformity.append(float(np.max(np.abs(t - X @ t))))
    out["conformity_fixed_defect"] = max(conformity)
    balance, sign = [], []
    for _ in range(n_random):
        lam = rng.standard_normal(dual.dim) + 1j * rng.standard_normal(dual.dim)
        v = dual.aug.apply_inv(Tt @ lam)
        quad = complex(np.vdot(v, dual._A_csr @ v))
        p = quad.imag if dual.alpha == 1j else quad.real
        S_lam = -lam + 2.0 * dual.alpha * (M @ (dual.T @ v))
        lhs = dual.ip.norm(S_lam) ** 2 + 4.0 * p
        rhs = dual.ip.norm(lam) ** 2
        balance.append(abs(lhs - rhs) / max(rhs, 1e-300))
        sign.append(max(-p, 0.0) / max(rhs, 1e-300))
    out["pseudo_energy_defect"] = max(balance)
    out["loss_sign_defect"] = max(sign)
    return out


@pytest.mark.parametrize("preset,overrides", [
    ("loisel", {}),
    ("feti2lm", {"problem.type": "helmholtz", "problem.kappa": "8"}),
    ("complete_comm", {"problem.boundary": "dirichlet"}),
    ("loisel", {"interface.impedance": "scalar"}),
    ("exceptional", {}),
    ("exceptional", {"problem.type": "reaction_diffusion", "problem.kappa": "1",
                     "decomposition.px": "3", "decomposition.py": "3",
                     "problem.nx": "12", "problem.ny": "12"}),
], ids=["loisel", "feti2lm-helmholtz", "complete_comm-dirichlet", "loisel-scalar",
        "exceptional", "exceptional-3x3"])
@pytest.mark.parametrize("n_random,seed", [(20, 0), (11, 3)])
def test_block_battery_matches_the_per_probe_values(preset, overrides, n_random, seed):
    inst = build_instance(load_config(preset=preset, overrides={
        "problem.nx": "16", "problem.ny": "16", **overrides}))
    checks = interface_checks(inst, n_random=n_random, seed=seed)
    reference = _per_probe_battery(inst, n_random, seed)
    assert {name: checks[name]["value"] for name in reference} == reference
    assert all(checks[name]["passed"] for name in reference)


def test_one_step_battery_allocates_within_its_probe_blocks(monkeypatch):
    # the probe block P plus transients of at most C column blocks of
    # K_COLUMNS probes; 20-wide solves measured C = 15, K_COLUMNS-wide ones 6
    C = 8
    inst = sized_instance("exceptional", 32, 2)
    execute(inst)
    n_u, n_random = inst.decomp.offsets[-1], 20
    check = cli.check_assembling

    def probe_peak_only(decomposition):
        # the assembling check's own arrays are its global matrices, not probes
        report = check(decomposition)
        tracemalloc.reset_peak()
        return report

    monkeypatch.setattr(cli, "check_assembling", probe_peak_only)
    tracemalloc.start()
    try:
        checks = interface_checks(inst, n_random=n_random)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(c["passed"] for c in checks.values())
    assert peak < (n_random + C * formulations.K_COLUMNS) * n_u * 16


def test_negative_loss_exits_four(tmp_path, monkeypatch):
    after_build(conjugate_loss)(monkeypatch)
    result = run_cli(["verify", "--preset", "feti2lm", "--set=problem.type=helmholtz",
                      "--set=problem.kappa=8"]
                     + [f"--set={s}" for s in sized(16, 2)], tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    assert "FAIL loss_sign_defect" in result.output
    assert "PASS pseudo_energy_defect" in result.output
    assert result.output.count("FAIL") == 1


@pytest.fixture(scope="module")
def battery_names():
    """The check names `interface_checks` returns, over every preset."""
    return set().union(*(interface_checks(sized_instance(preset, 8, 2), n_random=1)
                         for preset in cli.PRESETS))


@pytest.mark.parametrize("command", ["verify", "run"])
@pytest.mark.parametrize("name", sorted(FAULTS))
def test_each_check_fails_on_its_fault(name, command, battery_names, tmp_path,
                                       monkeypatch):
    # a check the battery gains without a fault in FAULTS fails here
    assert set(FAULTS) == battery_names
    fault = FAULTS[name]
    fault.inject(monkeypatch)
    result = run_cli([command, "--preset", fault.preset]
                     + [f"--set={s}" for s in sized(fault.nx, fault.p) + list(fault.sets)],
                     tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    checks = json.loads((tmp_path / "out" / "report.json").read_text())["checks"]
    assert {n for n, check in checks.items() if not check["passed"]} == \
        {name, *fault.also}


def _reachable(root):
    """Every object reachable from root through containers, schwarzlab
    objects, LinearOperators and the closures of the functions they hold."""
    seen, stack = {}, [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif (type(obj).__module__.startswith("schwarzlab")
              or isinstance(obj, scipy.sparse.linalg.LinearOperator)):
            stack.extend(getattr(obj, "__dict__", {}).values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return list(seen.values())


def _dense_2d_arrays(root):
    return [obj for obj in _reachable(root) if isinstance(obj, np.ndarray) and obj.ndim == 2]


@pytest.mark.parametrize("preset", sorted(cli.PRESETS))
def test_every_sparse_operator_is_a_sparse_array(preset):
    # one sparse type: no legacy spmatrix in an instance, built, run and checked
    inst = sized_instance(preset, 8, 2)
    execute(inst)
    interface_checks(inst, n_random=1)
    operators = [obj for obj in _reachable(inst) if scipy.sparse.issparse(obj)]
    assert operators
    assert all(isinstance(op, scipy.sparse.sparray) for op in operators), \
        [type(op).__name__ for op in operators]


@pytest.mark.parametrize("preset", ["feti2lm", "loisel", "complete_comm", "fetih"])
def test_interface_operators_are_sparse(preset):
    inst = build_instance(load_config(preset=preset, overrides=dict(
        s.split("=") for s in FAST)))
    operators = [inst.impedance.matrix]
    if inst.dual is not None:
        operators += [inst.exchange.matrix, inst.dual.M, inst.dual.X]
    assert all(isinstance(op, scipy.sparse.csr_array) for op in operators)
    dim = inst.trace.dim_lambda
    # no dense array spans the trace space in both directions
    assert not [a.shape for a in _dense_2d_arrays(inst) if min(a.shape) >= dim]


def test_one_step_reflection_is_applied_not_stored():
    inst = build_instance(load_config(preset="exceptional", overrides=dict(
        s.split("=") for s in FAST)))
    X = inst.dual.X
    assert isinstance(X, scipy.sparse.linalg.LinearOperator)
    assert isinstance(inst.dual.M, scipy.sparse.csr_array)
    n_u = inst.decomp.offsets[-1]
    assert X.shape == (n_u, n_u)
    # no dense array spans the product space in both directions
    assert not [a.shape for a in _dense_2d_arrays(inst) if min(a.shape) >= n_u]


@pytest.mark.parametrize("preset", ["loisel", "complete_comm", "exceptional", "fetih"])
def test_each_operator_is_built_once(preset, monkeypatch):
    local_A, splu = decomp.Decomposition.local_A, scipy.sparse.linalg.splu
    blocks, factorized = [], []

    def counting_local_A(self, i):
        blocks.append(i)
        return local_A(self, i)

    def counting_splu(A, *args, **kwargs):
        factorized.append(A)
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(decomp.Decomposition, "local_A", counting_local_A)
    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    inst = build_instance(load_config(preset=preset))
    execute(inst)
    assert len(blocks) == inst.decomp.n_sub

    def times_factorized(B):
        return sum(A.shape == B.shape and not (A != B).nnz for A in factorized)

    interface_checks(inst, n_random=1)
    # M is never factorized: the dual system applies M^-1 through M's
    # diagonal blocks, the one-step system takes M^-1 = 2 Atilde^-1 from the
    # augmented factor, and FETI-H never solves with M
    M = inst.impedance.matrix if preset == "fetih" else inst.dual.M
    assert times_factorized(M) == 0
    # the augmented operator is factorized whole, once
    aug = (inst.fetih if preset == "fetih" else inst.dual).aug
    assert times_factorized(aug.matrix) == 1


def test_gamma_solves_one_packed_column_per_block_slot():
    # feti2lm 64x64, 2x2, Helmholtz kappa = 8: dim lambda 264 in four blocks of 66
    inst = build_instance(load_config(preset="feti2lm", overrides={
        "problem.nx": "64", "problem.ny": "64", "problem.type": "helmholtz",
        "problem.kappa": "8"}))
    shapes = []
    apply_inv = inst.dual.aug.apply_inv
    inst.dual.aug.apply_inv = lambda g: shapes.append(np.shape(g)) or apply_inv(g)
    report = execute(inst)
    assert inst.dual.dim == 264 and report["gamma"] is not None
    assert report["iterations"] > 1
    # N's packed columns serve gamma and every GMRES step; beyond them, the
    # whole run solves only for d and for the primal recovery
    packed = [shape[1] for shape in shapes if len(shape) == 2]
    assert sum(packed) == 66 and max(packed) == formulations.K_COLUMNS
    assert len(shapes) - len(packed) == 2


class TestRunCommand:
    def test_needs_config_or_preset(self, tmp_path, monkeypatch):
        for args in (["run"], ["verify"], ["sweep", "--vary", "solver.beta=0.5"]):
            result = run_cli(args, tmp_path, monkeypatch)
            assert result.exit_code == 2, args
            assert "give a config file or --preset" in result.output, args

    @pytest.mark.parametrize("args", [
        ["run", "--preset", "loisel", "--set", "problem.nx"],
        ["sweep", "--preset", "loisel", "--vary", "interface.sigma"],
        ["sweep", "--preset", "loisel", "--vary", "interface.sigma="],
    ], ids=["set", "vary", "vary-no-values"])
    def test_malformed_option_exits_two(self, args, tmp_path, monkeypatch):
        result = run_cli(args, tmp_path, monkeypatch)
        assert result.exit_code == 2, result.output
        assert "must look like section.key=" in result.output
        assert not (tmp_path / "out").exists()

    def test_invalid_config_exits_two(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel",
                          "--set", "interface.exchange=swap"],
                         tmp_path, monkeypatch)
        assert result.exit_code == 2

    @pytest.mark.parametrize("preset,setting", [
        ("feti2lm", "interface.exchange=global"),
        ("feti2lm", "interface.exchange=swap"),
        ("loisel", "interface.exchange=multiplicity"),
        ("complete_comm", "interface.exchange=weighted"),
        ("loisel", "interface.exchange=glob_local"),
        ("loisel", "interface.impedance=diagonal"),
    ])
    def test_inadmissible_exchange_exits_two(self, tmp_path, monkeypatch,
                                             preset, setting):
        # the impedance fixes the one reflection, so no run reads an exchange
        # key; a former name of lumped_mass is an unknown value
        result = run_cli(["run", "--preset", preset, "--set", setting]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 2, result.output
        if "exchange" in setting:
            kind = load_config(preset=preset).kind
            assert f"unknown keys for a {kind} run: interface.exchange" in result.output
        else:
            assert "invalid configuration" in result.output
            assert str(cli.IMPEDANCE_VARIANTS) in result.output

    @pytest.mark.parametrize("setting", [
        "problem.source=point:0.3", "problem.source=point:a,b",
        "problem.source=point:0.3,0.4,0.5", "problem.source=pointy",
        "problem.source=point:nan,0.4", "output.dump_operators=on",
        "output.dump_operators=", "solver.method=exceptional",
    ])
    def test_malformed_value_exits_two(self, setting, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel", "--set", setting]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 2, result.output
        assert f"bad value for {setting.partition('=')[0]}" in result.output
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("p", [2, 4])
    def test_complete_comm_runs_with_glob_block(self, p, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "complete_comm",
                          "--set", "interface.impedance=glob_block"]
                         + [f"--set={s}" for s in sized(16, p)], tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["converged"]
        assert all(c["passed"] for c in report["checks"].values())

    def test_run_writes_outputs(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        outdir = tmp_path / "out"
        history = (outdir / "history.csv").read_text().splitlines()
        assert history[0] == "iteration,residual,primal_error,p"
        assert len(history) > 1
        report = json.loads((outdir / "report.json").read_text())
        assert report["converged"]
        assert report["config"]["interface"] == {"facets": "globs",
                                                 "impedance": "lumped_mass", "sigma": 1.0}
        assert report["config"]["solver"]["method"] == "gmres"

    @pytest.mark.parametrize("preset,sets,message", [
        ("complete_comm", ["solver.beta=0"],
         "invalid configuration: solver.beta must lie in (0, 1]"),
        ("loisel", ["solver.beta=0"],
         "config error: unknown keys for a gmres run: solver.beta"),
        ("loisel", ["solver.method=richardson", "solver.seed=-1"],
         "invalid configuration: solver.seed must be non-negative"),
    ])
    def test_solver_range_exits_two(self, preset, sets, message, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", preset]
                         + [f"--set={s}" for s in sets + FAST], tmp_path, monkeypatch)
        assert result.exit_code == 2
        assert message in result.output

    def test_nonconvergence_exits_three(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel", "--set",
                          "solver.maxit=2", "--set", "solver.tol=1e-14"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 3
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"].values())
        assert "failed checks" not in result.output

    @pytest.mark.parametrize("nx", [16, 64])
    def test_gamma_skip_is_reported(self, nx, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel"]
                         + [f"--set={s}" for s in sized(nx, 4)], tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        header = (tmp_path / "out" / "history.csv").read_text().splitlines()[0]
        assert header == "iteration,residual,primal_error,p"
        if nx == 16:
            assert report["skipped"] == {}
            assert report["gamma"] is not None and report["rho_thm"] is not None
        else:
            assert list(report["skipped"]) == ["gamma", "rho_thm"]
            assert "780" in report["skipped"]["gamma"]
            assert report["gamma"] is None and report["rho_thm"] is None

    @pytest.mark.parametrize("preset", ["loisel", "feti2lm"])
    def test_richardson_factorizes_the_global_operator_once(self, preset,
                                                            monkeypatch):
        inst = build_instance(load_config(preset=preset, overrides={
            "solver.method": "richardson", "solver.maxit": "3"}))
        splu = scipy.sparse.linalg.splu
        sizes = []

        def counting(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        execute(inst)
        assert sizes.count(inst.problem.n) == 1

    def test_deterministic_history(self, tmp_path, monkeypatch):
        args = (["run", "--preset", "complete_comm", "--set", "solver.maxit=50",
                 "--set", "output.dir=a"] + [f"--set={s}" for s in FAST])
        first = run_cli(args, tmp_path, monkeypatch)
        args[args.index("output.dir=a")] = "output.dir=b"
        second = run_cli(args, tmp_path, monkeypatch)
        assert (tmp_path / "a" / "history.csv").read_bytes() == \
               (tmp_path / "b" / "history.csv").read_bytes()

    def test_history_is_byte_identical_at_each_thread_count(self, tmp_path):
        # loisel 64 x 64 on 4 x 4 (the gmres-globs workload), two runs per BLAS
        # thread count, each in its own process with the count set there alone
        path = os.pathsep.join(filter(None, [str(Path(cli.__file__).parents[1]),
                                             os.environ.get("PYTHONPATH")]))
        for threads in ("1", "2"):
            histories = []
            for run in ("a", "b"):
                env = dict(os.environ, PYTHONPATH=path, SCHWARZLAB_OUTPUT=str(tmp_path),
                           OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                           MKL_NUM_THREADS=threads)
                outdir = f"threads{threads}{run}"
                subprocess.run([sys.executable, "-m", "schwarzlab.cli", "run",
                                "--preset", "loisel", f"--set=output.dir={outdir}"]
                               + [f"--set={s}" for s in sized(64, 4)],
                               env=env, check=True, capture_output=True)
                histories.append((tmp_path / outdir / "history.csv").read_bytes())
            assert histories[0] == histories[1], threads

    def test_dump_operators(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel",
                          "--set", "output.dump_operators=true"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        outdir = tmp_path / "out"
        assert (outdir / "A_hat.mtx").exists()
        assert (outdir / "T.mtx").exists()


@pytest.mark.parametrize("preset,nx,p", [(preset, 16, 2) for preset in cli.PRESETS]
                         + [("loisel", 64, 4)])
def test_every_null_diagnostic_says_why(preset, nx, p):
    report = execute(sized_instance(preset, nx, p))
    nulls = {key for key in ("gamma", "rho_thm", "rho_obs") if report[key] is None}
    assert set(report["skipped"]) == nulls
    assert all(isinstance(reason, str) and reason for reason in report["skipped"].values())


def test_krylov_run_reports_its_residual_rate():
    report = execute(sized_instance("loisel", 16, 2))
    residuals = [row[1] for row in report["history_rows"]]
    assert report["rho_obs"] == fit_rate(residuals)


# one run per method path at 8 x 8: (preset, extra settings)
METHOD_PATHS = {"richardson": ("loisel", ["solver.method=richardson"]),
                "gmres": ("loisel", []), "primal": ("complete_comm", []),
                "fetih": ("fetih", []), "exceptional": ("exceptional", [])}


def test_every_method_writes_one_report_schema(tmp_path, monkeypatch):
    keys = {}
    for name, (preset, sets) in METHOD_PATHS.items():
        result = run_cli(["run", "--preset", preset, "--set", f"output.dir={name}"]
                         + [f"--set={s}" for s in FAST + sets], tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / name / "report.json").read_text())
        keys[name] = set(report)
        lines = (tmp_path / name / "history.csv").read_text().splitlines()
        assert lines[0] == "iteration,residual,primal_error,p"
        rows = [line.split(",") for line in lines[1:]]
        # row i is iterate i; each column is filled on a leading run of rows
        assert [int(row[0]) for row in rows] == list(range(report["iterations"] + 1))
        for column in list(zip(*rows))[1:]:
            filled = [cell != "" for cell in column]
            assert filled == sorted(filled, reverse=True), name
        assert all(row[1] for row in rows)
        assert float(rows[-1][1]) == report["final_residual"]
        if rows[-1][2]:
            assert float(rows[-1][2]) == report["final_primal_error"]
    assert all(k == keys["gmres"] for k in keys.values()), keys
    assert {"rho_obs", "rho_thm", "final_primal_error"} <= keys["gmres"]


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, monkeypatch):
        result = run_cli(["verify", "--preset", "feti2lm"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        assert "PASS assembling_deviation" in result.output
        assert "FAIL" not in result.output

    def test_mesh_order_fault_exits_four(self, tmp_path, monkeypatch):
        perturb_local_stiffness(monkeypatch)
        result = run_cli(["verify", "--preset", "loisel"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        # the canonical re-accumulation is consistent; only the mesh order sees it
        assert "PASS assembling_deviation" in result.output
        assert "FAIL mesh_order_deviation" in result.output

    def test_verify_writes_report(self, tmp_path, monkeypatch):
        result = run_cli(["verify", "--preset", "loisel"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert all(c["passed"] for c in report["checks"].values())


class TestSweepCommand:
    def test_sweep_subdirectories(self, tmp_path, monkeypatch):
        result = run_cli(["sweep", "--preset", "loisel",
                          "--vary", "interface.sigma=1,4"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        for tag in ("sigma=1", "sigma=4"):
            assert (tmp_path / "out" / tag / "report.json").exists()

    def test_sweep_over_an_unread_key_exits_two(self, tmp_path, monkeypatch):
        # dual GMRES reads no damping: each point is refused, none is run
        result = run_cli(["sweep", "--preset", "loisel",
                          "--vary", "solver.beta=0.25,0.5,1.0"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 2
        assert "unknown keys for a gmres run: solver.beta" in result.output
        assert not (tmp_path / "out").exists()

    def test_sweep_exits_four_on_a_failed_check(self, tmp_path, monkeypatch):
        # the largest code of the points: a failed battery (4) over an invalid
        # point (2)
        perturb_local_stiffness(monkeypatch)
        result = run_cli(["sweep", "--preset", "loisel",
                          "--vary", "interface.impedance=lumped_mass,diagonal"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        assert "impedance=lumped_mass: converged after" in result.output
        assert "iterations; failed checks: mesh_order_deviation\n" in result.output
        assert "impedance=diagonal: invalid configuration" in result.output

    def test_sweep_skips_invalid_points(self, tmp_path, monkeypatch):
        result = run_cli(["sweep", "--preset", "loisel",
                          "--vary", "interface.impedance=lumped_mass,diagonal"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 2
        assert "impedance=diagonal: invalid configuration" in result.output
        assert (tmp_path / "out" / "impedance=lumped_mass"
                / "report.json").exists()


class TestExceptionalPreset:
    def test_one_step(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "exceptional"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        assert result.output.startswith("one_step: converged after 1 iterations")
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["iterations"] == 1
        assert report["final_primal_error"] <= 1e-10
        # the one-step update reads no facets, impedance, damping or limit
        assert report["config"]["interface"] == {}
        assert report["config"]["solver"] == {"method": "one_step", "tol": 1e-10}

    def test_one_step_factorizes_the_global_operator_once(self, monkeypatch):
        splu = scipy.sparse.linalg.splu
        sizes = []

        def counting(A, *args, **kwargs):
            sizes.append(A.shape[0])
            return splu(A, *args, **kwargs)

        monkeypatch.setattr(scipy.sparse.linalg, "splu", counting)
        inst = build_instance(load_config(preset="exceptional", overrides={
            "problem.nx": "16", "problem.ny": "16",
            "decomposition.px": "2", "decomposition.py": "2"}))
        execute(inst)
        # Ahat once (the reference solve reuses the reflection's factor), then
        # the augmented 2 A, whose factor also applies M^-1 = A^-1
        assert sizes == [inst.problem.n, inst.decomp.offsets[-1]]

    def test_one_step_builds_no_N(self):
        # with T = I, N would hold a dense n_u x n_u block per subdomain
        inst = build_instance(load_config(preset="exceptional", overrides=dict(
            s.split("=") for s in FAST)))
        execute(inst)
        assert "N" not in vars(inst.dual)

    def test_battery_covers_the_one_step_reflection(self):
        inst = build_instance(load_config(preset="exceptional", overrides=dict(
            s.split("=") for s in FAST)))
        checks = interface_checks(inst)
        assert {"involution_defect", "conformity_fixed_defect",
                "impedance_isometry_defect", "pseudo_energy_defect"} <= set(checks)
        assert all(c["passed"] for c in checks.values())

    @pytest.mark.parametrize("fault", ["perturbed", "negated"])
    def test_faulty_reflection_exits_four(self, fault, tmp_path, monkeypatch):
        def perturb(inst):
            X = inst.dual.X
            bump = scipy.sparse.csr_array(([1e-6], ([0], [0])), shape=X.shape)
            inst.dual.X = X + scipy.sparse.linalg.aslinearoperator(bump)

        after_build(perturb if fault == "perturbed" else negate_reflection)(monkeypatch)
        result = run_cli(["verify", "--preset", "exceptional"]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        assert "FAIL conformity_fixed_defect" in result.output
        if fault == "perturbed":
            assert "FAIL involution_defect" in result.output

    def test_non_finite_load_diverges(self, tmp_path, monkeypatch):
        build = cli.build_instance

        def faulty(cfg):
            inst = build(cfg)
            inst.dual.f = inst.dual.f.copy()
            inst.dual.f[3] = np.nan
            return inst

        monkeypatch.setattr(cli, "build_instance", faulty)
        result = run_cli(["run", "--preset", "exceptional"]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 3, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["diverged"] and not report["converged"]
