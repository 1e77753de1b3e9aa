import dataclasses
import json
import tracemalloc

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from click.testing import CliRunner

from schwarzlab import cli, decomp
from schwarzlab.cli import (build_instance, execute, interface_checks,
                            load_config, main, validate)


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
        cfg = load_config()
        d = cfg.to_dict()
        assert set(d) == {"problem", "decomposition", "interface", "solver",
                          "output"}
        assert d["solver"]["beta"] == 0.5

    def test_preset_overrides_defaults(self):
        cfg = load_config(preset="loisel")
        assert cfg.get("interface", "facets") == "globs"
        assert cfg.get("interface", "exchange") == "multiplicity"

    def test_explicit_override_wins(self):
        cfg = load_config(preset="loisel", overrides={"solver.beta": "0.75"})
        assert cfg.get("solver", "beta") == 0.75

    def test_config_file(self, tmp_path):
        path = tmp_path / "run.ini"
        path.write_text("[problem]\nnx = 12\nny = 12\n")
        cfg = load_config(str(path))
        assert cfg.get("problem", "nx") == 12

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"problem.frequencyy": "3"})

    def test_unknown_section_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"physics.kappa": "3"})

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError):
            load_config(overrides={"problem.nx": "many"})


class TestValidate:
    def base(self, **over):
        return load_config(overrides=over)

    def test_default_config_valid(self):
        assert validate(self.base()) == []

    def test_swap_needs_bilateral(self):
        errs = validate(self.base(**{"interface.facets": "globs",
                                     "interface.exchange": "swap"}))
        assert any("bilateral" in e for e in errs)

    def test_fetih_needs_lossfree(self):
        errs = validate(self.base(**{"solver.method": "fetih"}))
        assert any("loss-free" in e for e in errs)

    def test_primal_needs_globs(self):
        errs = validate(self.base(**{"solver.method": "primal",
                                     "interface.facets": "bilateral_max",
                                     "interface.exchange": "swap"}))
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
                                     "interface.exchange": "exceptional",
                                     "solver.method": "richardson"}))
        assert any("coercive" in e for e in errs)

    def test_beta_out_of_range(self):
        errs = validate(self.base(**{"solver.beta": "0.0"}))
        assert any("beta" in e for e in errs)

    def test_partition_must_divide(self):
        errs = validate(self.base(**{"problem.nx": "9",
                                     "decomposition.px": "2"}))
        assert any("divide" in e for e in errs)

    def test_weighted_needs_diagonal_impedance(self):
        errs = validate(self.base(**{"interface.impedance": "glob_block"}))
        assert any("diagonal" in e for e in errs)

    @pytest.mark.parametrize("px,py", [(2, 1), (1, 3), (4, 1), (2, 2), (3, 2), (4, 4)])
    def test_bilateral_global_needs_strip(self, px, py):
        # the rule matches the library: bilateral traces are surjective on strips
        strip = px == 1 or py == 1
        for facets in ("bilateral_max", "bilateral_properly_closed",
                       "bilateral_non_redundant"):
            over = {"problem.nx": "12", "problem.ny": "12",
                    "decomposition.px": str(px), "decomposition.py": str(py),
                    "interface.facets": facets}
            swap = build_instance(self.base(**over, **{"interface.exchange": "swap"}))
            assert swap.trace.surjective == strip
            errs = validate(self.base(**over, **{"interface.exchange": "global"}))
            assert (errs == []) == strip


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
                Z[np.flatnonzero(Z[:, 0])[0], 0] *= -1.0
                inst.redundancy = Z
            return inst

        monkeypatch.setattr(cli, "build_instance", faulty)
        result = run_cli(["verify", "--preset", "feti2lm"]
                         + [f"--set={s}" for s in sized(16, 4)], tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        assert "FAIL redundancy_dimension" in result.output
        assert result.output.count("FAIL") == 1


def test_flipped_fetih_sign_term_exits_four(tmp_path, monkeypatch):
    build = cli.build_instance

    def faulty(cfg):
        # a subdomain on one tree facet: flipping its sign flips that one term
        inst = build(cfg)
        fh = inst.fetih
        leaf = next(v for v in range(fh.decomp.n_sub)
                    if sum(v in pair for pair in fh.tree_pairs) == 1)
        signs = fh.signs.copy()
        signs[leaf] *= -1
        inst.fetih = dataclasses.replace(fh, signs=signs)
        return inst

    monkeypatch.setattr(cli, "build_instance", faulty)
    result = run_cli(["verify", "--preset", "fetih"]
                     + [f"--set={s}" for s in sized(16, 4)], tmp_path, monkeypatch)
    assert result.exit_code == 4, result.output
    assert "FAIL assembling_deviation" in result.output
    assert result.output.count("FAIL") == 1


def _perturb_exchange_entry(inst):
    X = inst.dual.X.tocoo()
    k = np.flatnonzero(X.row != X.col)[0]
    inst.dual.X = inst.dual.X + scipy.sparse.csr_array(
        ([1e-6], ([X.row[k]], [X.col[k]])), shape=X.shape)


def _negate_outgoing_term(inst):
    # pseudo_energy forms S lam from 2 alpha M T v; no other check reads it
    outgoing = inst.dual._outgoing
    inst.dual._outgoing = lambda v: -outgoing(v)


def _split_vertex_glob(inst):
    facets = []
    for F in inst.system.facets:
        if len(F.subdomains) == 4:
            a, b, c, d = F.subdomains
            facets += [dataclasses.replace(F, subdomains=(a, b)),
                       dataclasses.replace(F, subdomains=(c, d))]
        else:
            facets.append(F)
    inst.system = dataclasses.replace(inst.system, facets=tuple(facets))


@pytest.mark.parametrize("preset,p,fault,failing,only", [
    ("loisel", 2, _perturb_exchange_entry,
     ["involution_defect", "conformity_fixed_defect"], False),
    ("feti2lm", 4, _negate_outgoing_term, ["pseudo_energy_defect"], True),
    ("loisel", 2, _split_vertex_glob, ["admissibility"], True),
], ids=["perturbed_exchange", "negated_outgoing", "split_vertex_glob"])
def test_battery_fault_exits_four(preset, p, fault, failing, only, tmp_path,
                                  monkeypatch):
    build = cli.build_instance

    def faulty(cfg):
        inst = build(cfg)
        fault(inst)
        return inst

    monkeypatch.setattr(cli, "build_instance", faulty)
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


def _dense_2d_arrays(root):
    """Every 2-D ndarray reachable through containers, schwarzlab objects,
    LinearOperators and the closures of the functions they hold."""
    found, seen, stack = [], set(), [root]
    while stack:
        obj = stack.pop()
        if id(obj) in seen:
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            if obj.ndim == 2:
                found.append(obj)
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif (type(obj).__module__.startswith("schwarzlab")
              or isinstance(obj, scipy.sparse.linalg.LinearOperator)):
            stack.extend(getattr(obj, "__dict__", {}).values())
        elif callable(obj) and getattr(obj, "__closure__", None):
            stack.extend(cell.cell_contents for cell in obj.__closure__)
    return found


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

    # M is factorized by the dual system alone; FETI-H never solves with it
    M = inst.impedance.matrix if preset == "fetih" else inst.dual.M
    assert times_factorized(M) == (0 if preset == "fetih" else 1)
    # the augmented operator is factorized whole, once
    aug = (inst.fetih if preset == "fetih" else inst.dual).aug
    assert times_factorized(aug.matrix) == 1


class TestRunCommand:
    def test_needs_config_or_preset(self, tmp_path, monkeypatch):
        for args in (["run"], ["verify"], ["sweep", "--vary", "solver.beta=0.5"]):
            result = run_cli(args, tmp_path, monkeypatch)
            assert result.exit_code == 2, args
            assert "give a config file or --preset" in result.output, args

    def test_invalid_config_exits_two(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel",
                          "--set", "interface.exchange=swap"],
                         tmp_path, monkeypatch)
        assert result.exit_code == 2

    @pytest.mark.parametrize("preset,setting", [
        ("complete_comm", "interface.impedance=glob_block"),
        ("feti2lm", "interface.exchange=global"),
    ])
    def test_inadmissible_exchange_exits_two(self, tmp_path, monkeypatch,
                                             preset, setting):
        result = run_cli(["run", "--preset", preset, "--set", setting]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 2, result.output
        assert "invalid configuration" in result.output

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
        assert report["config"]["interface"]["exchange"] == "multiplicity"

    def test_nonconvergence_exits_three(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel", "--set",
                          "solver.maxit=2", "--set", "solver.tol=1e-14"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 3

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
            assert list(report["skipped"]) == ["gamma"]
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

    def test_dump_operators(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "loisel",
                          "--set", "output.dump_operators=true"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        outdir = tmp_path / "out"
        assert (outdir / "A_hat.mtx").exists()
        assert (outdir / "T.mtx").exists()


class TestVerifyCommand:
    def test_verify_passes(self, tmp_path, monkeypatch):
        result = run_cli(["verify", "--preset", "feti2lm"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        assert "PASS assembling_deviation" in result.output
        assert "FAIL" not in result.output

    def test_mesh_order_fault_exits_four(self, tmp_path, monkeypatch):
        contributions = decomp.element_contributions

        def faulty(*args, **kwargs):
            batch = contributions(*args, **kwargs)
            batch.K[0, 0, 0] += 1e-3     # one local stiffness entry
            return batch

        monkeypatch.setattr(decomp, "element_contributions", faulty)
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
                          "--vary", "solver.beta=0.5,1.0"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        for tag in ("beta=0.5", "beta=1.0"):
            assert (tmp_path / "out" / tag / "report.json").exists()

    def test_sweep_skips_invalid_points(self, tmp_path, monkeypatch):
        result = run_cli(["sweep", "--preset", "loisel",
                          "--vary", "interface.exchange=multiplicity,swap"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 2
        assert (tmp_path / "out" / "exchange=multiplicity"
                / "report.json").exists()


class TestExceptionalPreset:
    def test_one_step(self, tmp_path, monkeypatch):
        result = run_cli(["run", "--preset", "exceptional"]
                         + [f"--set={s}" for s in FAST],
                         tmp_path, monkeypatch)
        assert result.exit_code == 0, result.output
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        assert report["iterations"] == 1
        assert report["final_primal_error"] <= 1e-10

    def test_battery_covers_the_one_step_reflection(self):
        inst = build_instance(load_config(preset="exceptional", overrides=dict(
            s.split("=") for s in FAST)))
        checks = interface_checks(inst)
        assert {"involution_defect", "conformity_fixed_defect",
                "impedance_isometry_defect", "pseudo_energy_defect"} <= set(checks)
        assert all(c["passed"] for c in checks.values())

    @pytest.mark.parametrize("fault", ["perturbed", "negated"])
    def test_faulty_reflection_exits_four(self, fault, tmp_path, monkeypatch):
        build = cli.build_instance

        def faulty(cfg):
            inst = build(cfg)
            X = inst.dual.X
            if fault == "perturbed":
                bump = scipy.sparse.csr_array(([1e-6], ([0], [0])), shape=X.shape)
                inst.dual.X = X + scipy.sparse.linalg.aslinearoperator(bump)
            else:
                inst.dual.X = -X
            return inst

        monkeypatch.setattr(cli, "build_instance", faulty)
        result = run_cli(["verify", "--preset", "exceptional"]
                         + [f"--set={s}" for s in FAST], tmp_path, monkeypatch)
        assert result.exit_code == 4, result.output
        assert "FAIL conformity_fixed_defect" in result.output
        if fault == "perturbed":
            assert "FAIL involution_defect" in result.output
