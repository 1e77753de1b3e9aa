"""Config-driven experiment runner.

Reads flat INI configs (sections: problem, decomposition, interface, solver,
output), builds the requested method, runs or verifies it, and writes a JSON
report plus a deterministic per-iteration CSV history. Exit codes (`exit_code`):
0 success, 2 invalid configuration, 3 non-convergence, 4 failed invariant
check; a failed check takes precedence over non-convergence.
"""

from __future__ import annotations

import configparser
import itertools
import json
import os
import time
from dataclasses import dataclass
from pathlib import Path

import click
import numpy as np
import scipy.sparse

from .decomp import (ASSEMBLY_TOL, Decomposition, build_restrictions, check_assembling,
                     partition_grid)
from .facets import VARIANTS as FACET_VARIANTS
from .facets import build_facets, check_admissibility, redundancy_basis
from .formulations import (K_COLUMNS, DualSystem, build_dual_system,
                           exceptional_exchange, exceptional_system,
                           fetih_assembling_deviation, fetih_build, fetih_solve)
from .linalg import SingularMatrixError, bordered, factorize, save_matrix_market
from .meshfem import assemble, build_mesh, parse_source
from .solvers import (ConvergenceReport, IterationConfig, estimate_gamma, gmres_dual,
                      one_step, primal_iterate, reference_primal, rho_gmres,
                      rho_theorem, richardson)
from .traces import IMPEDANCE_VARIANTS, build_exchange, build_impedance, build_trace

__all__ = [
    "RunConfig",
    "RunKind",
    "Instance",
    "load_config",
    "validate",
    "build_instance",
    "interface_checks",
    "execute",
    "write_outputs",
    "resolve_outdir",
    "exit_code",
    "main",
]

PROBLEM_TYPES = ("laplace", "reaction_diffusion", "helmholtz")

# key -> the values it admits, checked wherever a run reads the key
CHOICES = {"type": PROBLEM_TYPES, "boundary": ("robin", "dirichlet"),
           "facets": FACET_VARIANTS, "impedance": IMPEDANCE_VARIANTS}
FLAGS = {"1": True, "true": True, "yes": True, "0": False, "false": False, "no": False}
GAMMA_DIM_LIMIT = 400    # budget for gamma's dense SVD of K (cubic in dim)
CSV_FORMAT = "%.17g"


def _flag(text: str) -> bool:
    """A yes/no config value: 1/true/yes or 0/false/no, in any case."""
    if text.lower() not in FLAGS:
        raise ValueError(f"{text!r} is not one of {', '.join(FLAGS)}")
    return FLAGS[text.lower()]


# section -> key -> (parser, default); every key is explicit in emitted reports
SCHEMA = {
    "problem": {
        "type": (str, "laplace"),
        "nx": (int, 16),
        "ny": (int, 16),
        "kappa": (float, 0.0),
        "eta": (float, 1.0),
        "absorption": (float, 0.0),
        "source": (parse_source, "constant"),
        "boundary": (str, "robin"),
    },
    "decomposition": {
        "px": (int, 2),
        "py": (int, 2),
    },
    "interface": {
        "facets": (str, "globs"),
        "impedance": (str, "lumped_mass"),
        "sigma": (float, 1.0),
    },
    "solver": {     # IterationConfig holds the defaults and the ranges
        "method": (str, "gmres"),
        "beta": (float, IterationConfig.beta),
        "tol": (float, IterationConfig.tol),
        "maxit": (int, IterationConfig.maxit),
        "seed": (int, IterationConfig.seed),
    },
    "output": {
        "dir": (str, "out"),
        "dump_operators": (_flag, False),
    },
}

PRESETS = {
    "feti2lm": {
        "interface": {"facets": "bilateral_properly_closed"},
        "solver": {"method": "gmres"},
    },
    "loisel": {
        "interface": {"facets": "globs"},
        "solver": {"method": "gmres"},
    },
    "complete_comm": {
        "interface": {"facets": "globs"},
        "solver": {"method": "primal", "beta": "0.5", "tol": "1e-9",
                   "maxit": "30000"},
    },
    "fetih": {
        "problem": {"boundary": "dirichlet"},
        "interface": {"facets": "bilateral_non_redundant"},
        "solver": {"method": "fetih", "tol": "1e-10", "maxit": "500"},
    },
    "exceptional": {
        "problem": {"type": "laplace", "kappa": "0.0"},
        "solver": {"method": "one_step"},
    },
}


@dataclass(frozen=True)
class RunKind:
    """The [interface] and [solver] keys one kind of run reads, its rules
    (inadmissible(get), reason), and why it never estimates gamma, if so."""

    keys: tuple
    rules: tuple = ()
    no_gamma: str | None = None


# every kind reads [problem], [decomposition] and [output]; solver.method names it
KRYLOV = ("interface.facets", "interface.impedance", "interface.sigma",
          "solver.method", "solver.tol", "solver.maxit")
KINDS = {
    "gmres": RunKind(KRYLOV),
    "richardson": RunKind(KRYLOV + ("solver.beta", "solver.seed")),
    "primal": RunKind(KRYLOV + ("solver.beta",), rules=(
        (lambda g: g("interface", "facets") != "globs",
         "the subdomain-field recurrence needs a right inverse of the trace, "
         "which bilateral systems with cross points do not admit; use glob facets"),),
        no_gamma="gamma is not estimated for the subdomain-field recurrence"),
    "fetih": RunKind(KRYLOV, rules=(
        (lambda g: g("interface", "facets") == "globs",
         "the one-sided jump method needs a bilateral facet system"),
        (lambda g: g("problem", "boundary") != "dirichlet" or g("problem", "absorption") > 0,
         "the one-sided jump method needs loss-free local operators: "
         "dirichlet boundary and zero absorption")),
        no_gamma="the one-sided jump method has no K in the M^-1 metric"),
    "one_step": RunKind(("solver.method", "solver.tol"), rules=(
        (lambda g: g("problem", "type") == "helmholtz",
         "the one-step reflection needs the coercive regime; helmholtz is excluded"),
        (lambda g: (g("problem", "type") == "laplace" and g("decomposition", "px") > 2
                    and g("decomposition", "py") > 2),
         "the one-step reflection on laplace needs every subdomain on the boundary "
         "(px <= 2 or py <= 2); an interior subdomain has a singular local operator")),
        no_gamma="S = 0, so K = I and gamma = 1 by construction"),
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration of one run kind; every key it reads explicit."""

    kind: str        # a key of KINDS
    sections: dict   # section -> key -> value, in schema order

    def get(self, section: str, key: str):
        return self.sections[section][key]

    def iteration(self) -> IterationConfig:
        """The kind's own [solver] keys, method apart; the defaults elsewhere."""
        return IterationConfig(**{key: self.get("solver", key)
                                  for key in self.sections["solver"] if key != "method"})


def load_config(path: str | None = None, preset: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Resolve defaults, preset, file, and explicit overrides, in that order,
    for the keys the run's kind reads; a key it does not read is an error."""
    raw: dict[str, dict[str, str]] = {}
    if preset is not None:
        if preset not in PRESETS:
            raise ValueError(f"unknown preset {preset!r}; "
                             f"choose from {', '.join(sorted(PRESETS))}")
        for section, entries in PRESETS[preset].items():
            raw.setdefault(section, {}).update(entries)
    if path is not None:
        parser = configparser.ConfigParser()
        read = parser.read(path)
        if not read:
            raise ValueError(f"cannot read config file {path}")
        for section in parser.sections():
            raw.setdefault(section, {}).update(dict(parser[section]))
    if overrides:
        for dotted, value in overrides.items():
            section, _, key = dotted.partition(".")
            if not key:
                raise ValueError(f"override {dotted!r} must look like section.key")
            raw.setdefault(section, {})[key] = value

    if set(raw) - set(SCHEMA):
        raise ValueError(f"unknown sections: {', '.join(sorted(set(raw) - set(SCHEMA)))}")
    kind = raw.get("solver", {}).get("method", SCHEMA["solver"]["method"][1])
    if kind not in KINDS:
        raise ValueError(f"bad value for solver.method: {kind!r} is not one of "
                         f"{', '.join(KINDS)}")
    sections, unread, reads = {}, [], KINDS[kind].keys
    for section, keys in SCHEMA.items():
        given, values = raw.get(section, {}), sections.setdefault(section, {})
        for key, (parse, default) in keys.items():
            if section in ("interface", "solver") and f"{section}.{key}" not in reads:
                continue
            try:
                values[key] = parse(given.pop(key)) if key in given else default
            except ValueError as exc:
                raise ValueError(f"bad value for {section}.{key}: {exc}") from exc
        unread += [f"{section}.{key}" for key in sorted(given)]
    if unread:
        raise ValueError(f"unknown keys for a {kind} run: {', '.join(unread)}")
    return RunConfig(kind=kind, sections=sections)


def validate(cfg: RunConfig) -> list[str]:
    """Return a list of reasons the configuration is inconsistent."""
    g = cfg.get
    errors = [f"{section}.{key} must be one of {CHOICES[key]}"
              for section, values in cfg.sections.items() for key, value in values.items()
              if key in CHOICES and value not in CHOICES[key]]
    ptype = g("problem", "type")
    if ptype == "laplace" and g("problem", "kappa") != 0.0:
        errors.append("laplace has no frequency; set problem.kappa = 0")
    if ptype in ("reaction_diffusion", "helmholtz") and g("problem", "kappa") <= 0.0:
        errors.append(f"{ptype} needs problem.kappa > 0")
    if g("problem", "nx") < 2 or g("problem", "ny") < 2:
        errors.append("mesh needs at least 2 cells per direction")
    if g("problem", "eta") <= 0.0:
        errors.append("problem.eta must be positive")
    if g("problem", "absorption") < 0.0:
        errors.append("problem.absorption must be non-negative")

    px, py = g("decomposition", "px"), g("decomposition", "py")
    if px < 1 or py < 1 or px * py < 2:
        errors.append("decomposition needs at least two subdomains")
    if g("problem", "nx") % px or g("problem", "ny") % py:
        errors.append("partition must divide the cell counts evenly")
    if cfg.kind != "one_step" and g("interface", "sigma") <= 0.0:
        errors.append("interface.sigma must be positive")

    errors += [reason for inadmissible, reason in KINDS[cfg.kind].rules if inadmissible(g)]
    try:
        cfg.iteration()
    except ValueError as exc:
        errors.append(f"solver.{exc}")
    return errors


# -- instance construction ---------------------------------------------------


@dataclass
class Instance:
    """Everything built from a validated config, up to the chosen method."""

    cfg: RunConfig
    problem: object
    decomp: Decomposition
    system: object = None
    trace: object = None
    impedance: object = None
    exchange: object = None
    dual: DualSystem | None = None
    fetih: object = None
    redundancy: scipy.sparse.csr_array | None = None


def build_instance(cfg: RunConfig) -> Instance:
    g, kind = cfg.get, cfg.kind
    wave = g("problem", "type") == "helmholtz"
    mesh = build_mesh(g("problem", "nx"), g("problem", "ny"),
                      boundary=g("problem", "boundary"))
    problem = assemble(mesh, kappa=g("problem", "kappa"), eta=g("problem", "eta"),
                       absorption=g("problem", "absorption"),
                       source=g("problem", "source"), wave=wave)
    partition = partition_grid(mesh, g("decomposition", "px"), g("decomposition", "py"))
    decomp = build_restrictions(mesh, partition, problem)
    inst = Instance(cfg=cfg, problem=problem, decomp=decomp)

    if kind == "one_step":
        inst.exchange = exceptional_exchange(decomp)
        inst.dual = exceptional_system(decomp, inst.exchange)
        return inst

    inst.system = build_facets(decomp, g("interface", "facets"))
    inst.trace = build_trace(inst.system, decomp)
    inst.impedance = build_impedance(inst.trace, g("interface", "impedance"),
                                     g("interface", "sigma"))
    inst.redundancy = redundancy_basis(inst.system, inst.trace)
    if kind == "fetih":
        inst.fetih = fetih_build(decomp, inst.impedance)
    else:
        inst.exchange = build_exchange(inst.trace)
        inst.dual = build_dual_system(decomp, inst.trace, inst.impedance,
                                      inst.exchange, problem.alpha)
    return inst


# -- invariant battery -------------------------------------------------------


def interface_checks(inst: Instance, n_random: int = 20,
                     seed: int = 0) -> dict[str, dict]:
    """Pass/fail battery over the constructed operators.

    Covers assembling exactness (against the canonical re-accumulation and
    the mesh-order assembly), facet admissibility, the involution and
    conformity-fixing properties of the exchange, isometry of the exchange in
    the impedance metric, the redundancy dimension against its cycle count,
    the pseudo-energy balance on random multipliers, and the sign of their
    subdomain loss. The exchange checks read X, T and M from the dual
    system, so every dual instance takes one path. A sparse X is checked
    entrywise; an X that is only applied (the one-step reflection) is
    checked on a random probe block P, through |X X P - P| / |P| and
    |X^T M X P - M P| / (max|M| |P|). Every random probe set is applied
    K_COLUMNS probes at a time, one solve per block; the values equal those
    of one probe at a time, bit for bit.
    """
    checks: dict[str, dict] = {}
    rng = np.random.default_rng(seed)
    blocks = [slice(a, min(a + K_COLUMNS, n_random))
              for a in range(0, n_random, K_COLUMNS)]

    def record(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": float(tol),
                        "passed": bool(value <= tol)}

    def probes(length, cols):
        # one probe per column of the slice, each drawn real part first
        block = np.empty((cols.stop - cols.start, length), dtype=np.complex128)
        for row in block:
            row.real = rng.standard_normal(length)
            row.imag = rng.standard_normal(length)
        return block.T

    asm = check_assembling(inst.decomp)
    deviation = max(asm.max_dev_matrix, asm.max_dev_load)
    if inst.fetih is not None:
        deviation = max(deviation, fetih_assembling_deviation(inst.fetih))
    record("assembling_deviation", deviation, 0.0)
    record("mesh_order_deviation", asm.mesh_order_dev, ASSEMBLY_TOL)

    if inst.system is not None:
        adm = check_admissibility(inst.system, inst.decomp.multiplicities)
        checks["admissibility"] = {
            "passed": bool(adm.admissible and adm.covered),
            "disconnected": len(adm.disconnected_dofs),
            "uncovered": len(adm.uncovered_dofs),
            "cycles": adm.total_cycles,
        }

    dual = inst.dual
    if dual is not None:
        X, M = dual.X, dual.M
        identity = scipy.sparse.eye_array(dual.dim)
        scale = float(abs(M).max()) or 1.0
        if scipy.sparse.issparse(X):
            involution = float(abs(X @ X - identity).max())
            isometry = float(abs(X.T @ M @ X - M).max()) / scale
        else:   # an applied X: probe both identities with a random block
            P = np.empty((dual.dim, n_random), dtype=np.complex128)
            P.real = rng.standard_normal(P.shape)
            P.imag = rng.standard_normal(P.shape)
            sizes, involutions, isometries = [], [], []
            for cols in blocks:
                XP = X @ P[:, cols]
                sizes.append(np.abs(P[:, cols]).max())
                involutions.append(np.abs(X @ XP - P[:, cols]).max())
                XP = X.T @ (M @ XP)
                XP -= M @ P[:, cols]
                isometries.append(np.abs(XP).max())
            del P, XP       # the later probe sets need no room for them
            p_scale = float(np.max(sizes))
            involution = float(np.max(involutions)) / p_scale
            isometry = float(np.max(isometries)) / (scale * p_scale)
        record("involution_defect", involution, 1e-12)
        conformity = []
        for cols in blocks:
            t = dual.T @ inst.decomp.apply_R(probes(inst.problem.n, cols))
            conformity.append(np.abs(t - X @ t).max())
        record("conformity_fixed_defect", np.max(conformity), 1e-12)
        record("impedance_isometry_defect", isometry, 1e-12)

    if dual is not None and inst.redundancy is not None:
        S = scipy.sparse.vstack([dual.T.T, identity + X.T])
        checks["redundancy_dimension"] = {
            "passed": _kernel_is_span(S, inst.redundancy),
            "cycle_count": int(inst.redundancy.shape[1]),
        }

    if dual is not None:
        balance, sign = [], []
        for cols in blocks:
            lhs, rhs, p = dual.pseudo_energy(probes(dual.dim, cols))
            balance.append((np.abs(lhs - rhs) / np.maximum(rhs, 1e-300)).max())
            sign.append((np.maximum(-p, 0.0) / np.maximum(rhs, 1e-300)).max())
        record("pseudo_energy_defect", np.max(balance), 1e-10)
        record("loss_sign_defect", np.max(sign), 1e-10)

    return checks


def _kernel_is_span(S, Z: scipy.sparse.csr_array) -> bool:
    """True iff ker S = span Z with Z of full column rank, by sparse algebra.

    S Z = 0 is tested exactly (S and Z hold small integers wherever Z has
    columns). Then S^H S bordered with Z is nonsingular exactly when Z has
    full column rank and ker S meets the orthogonal complement of span Z
    only in 0; factorize's pivot test decides that.
    """
    if (S @ Z).count_nonzero():
        return False
    try:
        factorize(bordered(S.T.conj() @ S, Z))
    except SingularMatrixError:
        return False
    return True


# -- solving and reporting ---------------------------------------------------


def execute(inst: Instance) -> dict:
    """Run the configured solver; return the report dictionary, read from
    its ConvergenceReport in the same way for every method."""
    kind, it = inst.cfg.kind, inst.cfg.iteration()
    t0 = time.perf_counter()
    u_ref = reference_primal(inst.decomp, inst.exchange and inst.exchange.factor)
    dual = inst.dual
    gamma = rho_thm = None
    reasons = {"gamma": KINDS[kind].no_gamma, "rho_thm": "no gamma, so no rate bound",
               "rho_obs": "too few logged iterates to fit a rate"}

    if kind == "one_step":
        rep = one_step(dual, it.tol, u_ref)
    elif kind == "fetih":
        rep = ConvergenceReport.krylov(*fetih_solve(inst.fetih, tol=it.tol,
                                                    maxit=it.maxit), it.tol)
    elif kind == "primal":
        rep = primal_iterate(dual, it, u_ref=u_ref)
    else:   # richardson or gmres, with the rate bound of gamma within the budget
        if dual.dim <= GAMMA_DIM_LIMIT:
            gamma = estimate_gamma(dual, redundancy=inst.redundancy)
            rho_thm = (rho_gmres(gamma) if kind == "gmres"
                       else rho_theorem(it.beta, gamma))
        else:
            reasons["gamma"] = (f"dim lambda {dual.dim} exceeds the dense "
                                f"budget {GAMMA_DIM_LIMIT}; no rho_thm")
        rep = (gmres_dual(dual, tol=it.tol, maxit=it.maxit) if kind == "gmres"
               else richardson(dual, it, u_ref=u_ref, redundancy=inst.redundancy))

    u_scale = float(np.linalg.norm(u_ref)) or 1.0
    diagnostics = {"gamma": gamma, "rho_thm": rho_thm, "rho_obs": rep.rho_obs}
    return {
        "config": inst.cfg.sections,
        "gamma": gamma,
        "sum_cycles": (int(inst.redundancy.shape[1])
                       if inst.redundancy is not None else None),
        "timings": {"solve_seconds": time.perf_counter() - t0},
        "skipped": {key: reasons[key] for key, value in diagnostics.items()
                    if value is None},
        "iterations": rep.iterations,
        "converged": bool(rep.converged),
        "diverged": bool(rep.diverged),
        "final_residual": rep.residuals[-1],
        "final_primal_error": float(np.linalg.norm(rep.u - u_ref)) / u_scale,
        "rho_obs": diagnostics["rho_obs"],
        "rho_thm": rho_thm,
        "history_rows": list(itertools.zip_longest(
            range(rep.iterations + 1), rep.residuals, rep.primal_errors,
            rep.p_history, fillvalue="")),
    }


def _fmt(value) -> str:
    return "" if value == "" else CSV_FORMAT % float(value)


def write_outputs(report: dict, outdir: Path, inst: Instance | None = None,
                  dump_operators: bool = False) -> None:
    """Emit report.json and history.csv; optional operator dumps as .mtx."""
    outdir.mkdir(parents=True, exist_ok=True)
    rows = report.pop("history_rows", [])
    with open(outdir / "history.csv", "w", encoding="ascii", newline="\n") as handle:
        handle.write("iteration,residual,primal_error,p\n")
        for it, res, err, p in rows:
            handle.write(f"{it},{_fmt(res)},{_fmt(err)},{_fmt(p)}\n")
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                        encoding="ascii")
    if dump_operators and inst is not None:
        save_matrix_market(outdir / "A_hat.mtx", inst.problem.A_hat())
        for i in range(inst.decomp.n_sub):
            save_matrix_market(outdir / f"A_{i}.mtx", inst.decomp.local_A(i))
        if inst.trace is not None:
            save_matrix_market(outdir / "T.mtx", inst.trace.matrix)


def resolve_outdir(cfg: RunConfig) -> Path:
    root = os.environ.get("SCHWARZLAB_OUTPUT", ".")
    return Path(root) / cfg.get("output", "dir")


def exit_code(report: dict) -> int:
    """4 if a battery check failed, else 3 if the run did not converge (a
    report without a solve has nothing to converge), else 0."""
    if not all(check["passed"] for check in report["checks"].values()):
        return 4
    return 0 if report.get("converged", True) else 3


def _outcome(report: dict) -> str:
    failed = [name for name, check in report["checks"].items() if not check["passed"]]
    status = "converged" if report["converged"] else "did not converge"
    return (f"{status} after {report['iterations']} iterations"
            + (f"; failed checks: {', '.join(failed)}" if failed else ""))


# -- command-line interface --------------------------------------------------


def _load_or_exit(config, preset, sets) -> RunConfig:
    if config is None and preset is None:
        raise click.UsageError("give a config file or --preset")
    overrides = {}
    for item in sets:
        dotted, _, value = item.partition("=")
        if not _:
            raise click.UsageError(f"--set {item!r} must look like section.key=value")
        overrides[dotted] = value
    try:
        cfg = load_config(config, preset, overrides)
    except ValueError as exc:
        click.echo(f"config error: {exc}", err=True)
        raise SystemExit(2)
    errors = validate(cfg)
    if errors:
        for line in errors:
            click.echo(f"invalid configuration: {line}", err=True)
        raise SystemExit(2)
    return cfg


def _solve(cfg: RunConfig, outdir: Path) -> dict:
    """Build, solve and check one configuration; write its outputs to outdir."""
    inst = build_instance(cfg)
    report = execute(inst)
    report["checks"] = interface_checks(inst)
    write_outputs(report, outdir, inst, dump_operators=cfg.get("output", "dump_operators"))
    return report


@click.group()
def main():
    """Numerical laboratory for Robin-Schwarz interface methods."""


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None,
              help="start from a named method preset")
@click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE",
              help="override a single config value")
def run(config, preset, sets):
    """Build the configured instance, solve it, and write report + history."""
    cfg = _load_or_exit(config, preset, sets)
    outdir = resolve_outdir(cfg)
    report = _solve(cfg, outdir)
    click.echo(f"{cfg.kind}: {_outcome(report)}; final primal error "
               f"{report['final_primal_error']:.3e}; outputs in {outdir}")
    raise SystemExit(exit_code(report))


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE")
def verify(config, preset, sets):
    """Run the invariant battery on the configured instance; no solve."""
    cfg = _load_or_exit(config, preset, sets)
    inst = build_instance(cfg)
    checks = interface_checks(inst)
    for name, result in checks.items():
        detail = ""
        if "value" in result:
            detail = f" (value {result['value']:.3e}, tolerance {result['tolerance']:.0e})"
        elif "cycle_count" in result:
            detail = f" (cycles {result['cycle_count']})"
        click.echo(f"{'PASS' if result['passed'] else 'FAIL'} {name}{detail}")
    report = {"config": cfg.sections, "checks": checks}
    outdir = resolve_outdir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "report.json").write_text(json.dumps(report, indent=2) + "\n",
                                        encoding="ascii")
    raise SystemExit(exit_code(report))


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE")
@click.option("--vary", "varies", multiple=True, required=True,
              metavar="SECTION.KEY=V1,V2,...",
              help="sweep a key over listed values; repeat for a Cartesian grid")
def sweep(config, preset, sets, varies):
    """Cartesian sweep: one subdirectory per parameter combination. Exits with
    the largest code of its points; an invalid point counts as 2."""
    axes = []
    for item in varies:
        dotted, _, values = item.partition("=")
        if not _ or not values:
            raise click.UsageError(f"--vary {item!r} must look like section.key=v1,v2")
        axes.append((dotted, values.split(",")))
    worst = 0
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = {dotted: value for (dotted, _), value in zip(axes, combo)}
        tag = "_".join(f"{dotted.split('.')[-1]}={value}"
                       for dotted, value in point.items())
        point_sets = [*sets, *(f"{k}={v}" for k, v in point.items())]
        try:
            cfg = _load_or_exit(config, preset, point_sets)
        except SystemExit:
            worst = max(worst, 2)
            click.echo(f"{tag}: invalid configuration")
            continue
        report = _solve(cfg, resolve_outdir(cfg) / tag)
        worst = max(worst, exit_code(report))
        click.echo(f"{tag}: {_outcome(report)}")
    raise SystemExit(worst)


if __name__ == "__main__":
    main()
