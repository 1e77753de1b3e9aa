"""Config-driven experiment runner.

Reads flat INI configs (sections: problem, decomposition, interface, solver,
output), builds the requested method, runs or verifies it, and writes a JSON
report plus a deterministic per-iteration CSV history. Exit codes: 0 success,
2 invalid configuration, 3 solver divergence or stagnation, 4 failed
invariant check.
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
from .formulations import (DualSystem, build_dual_system, exceptional_system,
                           fetih_assembling_deviation, fetih_build, fetih_solve)
from .linalg import SingularMatrixError, factorize, save_matrix_market
from .meshfem import assemble, build_mesh
from .solvers import (IterationConfig, estimate_gamma, gmres_dual, primal_iterate,
                      reference_primal, richardson)
from .traces import IMPEDANCE_VARIANTS, build_exchange, build_impedance, build_trace
from .traces import EXCHANGE_VARIANTS as _INTERFACE_EXCHANGES

__all__ = [
    "RunConfig",
    "Instance",
    "load_config",
    "validate",
    "build_instance",
    "interface_checks",
    "execute",
    "write_outputs",
    "resolve_outdir",
    "main",
]

PROBLEM_TYPES = ("laplace", "reaction_diffusion", "helmholtz")
EXCHANGE_VARIANTS = _INTERFACE_EXCHANGES + ("exceptional",)
METHODS = ("richardson", "gmres", "primal", "fetih")

GAMMA_DIM_LIMIT = 400    # dense materialization budget for gamma estimates
CSV_FORMAT = "%.17g"

# section -> key -> (parser, default); every key is explicit in emitted reports
SCHEMA = {
    "problem": {
        "type": (str, "laplace"),
        "nx": (int, 16),
        "ny": (int, 16),
        "kappa": (float, 0.0),
        "eta": (float, 1.0),
        "absorption": (float, 0.0),
        "source": (str, "constant"),
        "boundary": (str, "robin"),
    },
    "decomposition": {
        "px": (int, 2),
        "py": (int, 2),
    },
    "interface": {
        "facets": (str, "globs"),
        "exchange": (str, "weighted"),
        "impedance": (str, "lumped_mass"),
        "sigma": (float, 1.0),
    },
    "solver": {
        "method": (str, "gmres"),
        "beta": (float, 0.5),
        "tol": (float, 1e-10),
        "maxit": (int, 2000),
        "seed": (int, 0),
    },
    "output": {
        "dir": (str, "out"),
        "dump_operators": (lambda s: s.lower() in ("1", "true", "yes"), False),
    },
}

PRESETS = {
    "feti2lm": {
        "interface": {"facets": "bilateral_properly_closed", "exchange": "swap",
                      "impedance": "lumped_mass"},
        "solver": {"method": "gmres"},
    },
    "loisel": {
        "interface": {"facets": "globs", "exchange": "multiplicity",
                      "impedance": "diagonal"},
        "solver": {"method": "gmres"},
    },
    "complete_comm": {
        "interface": {"facets": "globs", "exchange": "weighted",
                      "impedance": "lumped_mass"},
        "solver": {"method": "primal", "beta": "0.5", "tol": "1e-9",
                   "maxit": "30000"},
    },
    "fetih": {
        "problem": {"boundary": "dirichlet"},
        "interface": {"facets": "bilateral_non_redundant", "exchange": "swap",
                      "impedance": "lumped_mass"},
        "solver": {"method": "fetih", "tol": "1e-10", "maxit": "500"},
    },
    "exceptional": {
        "problem": {"type": "laplace", "kappa": "0.0"},
        "interface": {"exchange": "exceptional"},
        "solver": {"method": "richardson", "beta": "1.0", "maxit": "1"},
    },
}


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved configuration; every default made explicit."""

    values: tuple  # ((section, key, value), ...) in schema order

    def get(self, section: str, key: str):
        for s, k, v in self.values:
            if s == section and k == key:
                return v
        raise KeyError(f"{section}.{key}")

    def to_dict(self) -> dict:
        out: dict[str, dict] = {}
        for s, k, v in self.values:
            out.setdefault(s, {})[k] = v
        return out


def load_config(path: str | None = None, preset: str | None = None,
                overrides: dict | None = None) -> RunConfig:
    """Resolve defaults, preset, file, and explicit overrides, in that order."""
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

    values = []
    for section, keys in SCHEMA.items():
        given = raw.pop(section, {})
        for key, (parse, default) in keys.items():
            if key in given:
                try:
                    values.append((section, key, parse(given.pop(key))))
                except ValueError as exc:
                    raise ValueError(f"bad value for {section}.{key}: {exc}") from exc
            else:
                values.append((section, key, default))
        if given:
            raise ValueError(f"unknown keys in [{section}]: {', '.join(sorted(given))}")
    if raw:
        raise ValueError(f"unknown sections: {', '.join(sorted(raw))}")
    return RunConfig(values=tuple(values))


def validate(cfg: RunConfig) -> list[str]:
    """Return a list of reasons the configuration is inconsistent."""
    errors = []
    g = cfg.get
    ptype = g("problem", "type")
    if ptype not in PROBLEM_TYPES:
        errors.append(f"problem.type must be one of {PROBLEM_TYPES}")
    if ptype == "laplace" and g("problem", "kappa") != 0.0:
        errors.append("laplace has no frequency; set problem.kappa = 0")
    if ptype in ("reaction_diffusion", "helmholtz") and g("problem", "kappa") <= 0.0:
        errors.append(f"{ptype} needs problem.kappa > 0")
    if g("problem", "boundary") not in ("robin", "dirichlet"):
        errors.append("problem.boundary must be robin or dirichlet")
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

    facets = g("interface", "facets")
    exchange = g("interface", "exchange")
    method = g("solver", "method")
    if facets not in FACET_VARIANTS:
        errors.append(f"interface.facets must be one of {FACET_VARIANTS}")
    if exchange not in EXCHANGE_VARIANTS:
        errors.append(f"interface.exchange must be one of {EXCHANGE_VARIANTS}")
    if g("interface", "impedance") not in IMPEDANCE_VARIANTS:
        errors.append(f"interface.impedance must be one of {IMPEDANCE_VARIANTS}")
    if g("interface", "sigma") <= 0.0:
        errors.append("interface.sigma must be positive")
    if method not in METHODS:
        errors.append(f"solver.method must be one of {METHODS}")

    bilateral = facets != "globs"
    if exchange == "swap" and not bilateral:
        errors.append("the swap reflection exchanges the two sides of a facet "
                      "and needs a bilateral facet system")
    if exchange in ("multiplicity", "weighted", "glob_local") and bilateral:
        errors.append(f"the {exchange} reflection averages over all sharing "
                      "subdomains and needs a glob facet system")
    if exchange == "weighted" and g("interface", "impedance") == "glob_block":
        errors.append("the weighted reflection takes its weights from a diagonal "
                      "impedance; glob_block is not diagonal")
    if exchange == "global" and bilateral and px > 1 and py > 1:
        errors.append("the global reflection needs a surjective trace, which a "
                      "bilateral facet system has only on a strip (px = 1 or py = 1)")
    if exchange == "exceptional":
        if ptype == "helmholtz":
            errors.append("the one-step reflection needs the coercive regime; "
                          "helmholtz is excluded")
        if method != "richardson":
            errors.append("the one-step reflection runs as an undamped "
                          "fixed-point update; set solver.method = richardson")
        if ptype == "laplace" and px > 2 and py > 2:
            errors.append("the one-step reflection on laplace needs every "
                          "subdomain on the boundary (px <= 2 or py <= 2); an "
                          "interior subdomain has a singular local operator")
    if method == "primal" and bilateral:
        errors.append("the subdomain-field recurrence needs a right inverse of "
                      "the trace, which bilateral systems with cross points "
                      "do not admit; use glob facets")
    if method == "fetih":
        if not bilateral:
            errors.append("the one-sided jump method needs a bilateral facet system")
        if g("problem", "boundary") != "dirichlet" or g("problem", "absorption") > 0:
            errors.append("the one-sided jump method needs loss-free local "
                          "operators: dirichlet boundary and zero absorption")

    beta = g("solver", "beta")
    if not 0.0 < beta <= 1.0:
        errors.append("solver.beta must lie in (0, 1]")
    if g("solver", "tol") <= 0.0:
        errors.append("solver.tol must be positive")
    if g("solver", "maxit") < 1:
        errors.append("solver.maxit must be at least 1")
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
    redundancy: np.ndarray | None = None


def build_instance(cfg: RunConfig) -> Instance:
    g = cfg.get
    wave = g("problem", "type") == "helmholtz"
    mesh = build_mesh(g("problem", "nx"), g("problem", "ny"),
                      boundary=g("problem", "boundary"))
    problem = assemble(mesh, kappa=g("problem", "kappa"), eta=g("problem", "eta"),
                       absorption=g("problem", "absorption"),
                       source=g("problem", "source"), wave=wave)
    partition = partition_grid(mesh, g("decomposition", "px"), g("decomposition", "py"))
    decomp = build_restrictions(mesh, partition, problem)
    inst = Instance(cfg=cfg, problem=problem, decomp=decomp)

    if g("interface", "exchange") == "exceptional":
        inst.dual = exceptional_system(decomp)
        return inst

    inst.system = build_facets(decomp, g("interface", "facets"))
    inst.trace = build_trace(inst.system, decomp)
    inst.impedance = build_impedance(inst.trace, g("interface", "impedance"),
                                     g("interface", "sigma"))
    inst.redundancy = redundancy_basis(inst.system, inst.trace).vectors
    if g("solver", "method") == "fetih":
        inst.fetih = fetih_build(decomp, inst.impedance)
    else:
        inst.exchange = build_exchange(inst.trace, inst.impedance,
                                       g("interface", "exchange"))
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
    and the pseudo-energy balance on random multipliers. The exchange checks
    read X, T and M from the dual system, so every dual instance takes one
    path. A sparse X is checked entrywise; an X that is only applied (the
    one-step reflection) is checked on a random probe block P, through
    |X X P - P| / |P| and |X^T M X P - M P| / (max|M| |P|).
    """
    checks: dict[str, dict] = {}
    rng = np.random.default_rng(seed)

    def record(name, value, tol):
        checks[name] = {"value": float(value), "tolerance": float(tol),
                        "passed": bool(value <= tol)}

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
            P = (rng.standard_normal((dual.dim, n_random))
                 + 1j * rng.standard_normal((dual.dim, n_random)))
            p_scale = float(np.abs(P).max())
            XP = X @ P
            involution = float(np.abs(X @ XP - P).max()) / p_scale
            isometry = (float(np.abs(X.T @ (M @ XP) - M @ P).max())
                        / (scale * p_scale))
        record("involution_defect", involution, 1e-12)
        worst = 0.0
        for _ in range(n_random):
            vhat = (rng.standard_normal(inst.problem.n)
                    + 1j * rng.standard_normal(inst.problem.n))
            t = dual.T @ inst.decomp.apply_R(vhat)
            worst = max(worst, float(np.max(np.abs(t - X @ t))))
        record("conformity_fixed_defect", worst, 1e-12)
        record("impedance_isometry_defect", isometry, 1e-12)

    if dual is not None and inst.redundancy is not None:
        S = scipy.sparse.vstack([dual.T.T, identity + X.T])
        checks["redundancy_dimension"] = {
            "passed": _kernel_is_span(S, inst.redundancy),
            "cycle_count": int(inst.redundancy.shape[1]),
        }

    if dual is not None:
        worst = 0.0
        for _ in range(n_random):
            lam = (rng.standard_normal(dual.dim)
                   + 1j * rng.standard_normal(dual.dim))
            lhs, rhs, _p = dual.pseudo_energy(lam)
            worst = max(worst, abs(lhs - rhs) / max(rhs, 1e-300))
        record("pseudo_energy_defect", worst, 1e-10)

    return checks


def _kernel_is_span(S, Z: np.ndarray) -> bool:
    """True iff ker S = span Z with Z of full column rank, by sparse algebra.

    S Z = 0 is tested exactly (S and Z hold small integers wherever Z has
    columns). [[S^H S, Z], [Z^H, 0]] is nonsingular exactly when Z has full
    column rank and ker S meets the complement of span Z only in 0
    (Govaerts, Numerical Methods for Bifurcations of Dynamical Equilibria,
    SIAM 2000); factorize's pivot test decides that.
    """
    Z = scipy.sparse.csr_array(Z)
    if (S @ Z).count_nonzero():
        return False
    bordered = scipy.sparse.block_array([[S.T.conj() @ S, Z], [Z.T.conj(), None]])
    try:
        factorize(bordered)
    except SingularMatrixError:
        return False
    return True


# -- solving and reporting ---------------------------------------------------


def execute(inst: Instance) -> dict:
    """Run the configured solver; return the report dictionary."""
    g = inst.cfg.get
    method = g("solver", "method")
    t0 = time.perf_counter()
    u_ref = reference_primal(inst.decomp)
    u_scale = float(np.linalg.norm(u_ref)) or 1.0
    gamma = None
    skipped: dict[str, str] = {}
    rows: list[tuple] = []

    if g("interface", "exchange") == "exceptional":
        dual = inst.dual
        d = dual.rhs_d()
        lam = d.copy()           # one undamped update from zero
        u0 = dual.primal_recover(np.zeros_like(lam))
        u = dual.primal_recover(lam)
        residual0 = 1.0
        residual = dual.norm_Minv(d - dual.apply_K(lam)) / (dual.norm_Minv(d) or 1.0)
        rows = [(0, residual0, float(np.linalg.norm(u0 - u_ref)) / u_scale, ""),
                (1, residual, float(np.linalg.norm(u - u_ref)) / u_scale, "")]
        report_core = {
            "iterations": 1,
            "converged": bool(rows[-1][2] <= g("solver", "tol")),
            "diverged": False,
            "final_residual": residual,
            "final_primal_error": rows[-1][2],
        }
    elif method == "fetih":
        u, lam, history = fetih_solve(inst.fetih, tol=g("solver", "tol"),
                                      maxit=g("solver", "maxit"))
        rows = [(i, r, "", "") for i, r in enumerate(history)]
        err = float(np.linalg.norm(u - u_ref)) / u_scale
        report_core = {
            "iterations": len(history) - 1,
            "converged": bool(history[-1] <= g("solver", "tol")),
            "diverged": not np.isfinite(history[-1]),
            "final_residual": history[-1],
            "final_primal_error": err,
        }
    else:
        dual = inst.dual
        if method in ("richardson", "gmres"):
            if dual.dim <= GAMMA_DIM_LIMIT:
                gamma = estimate_gamma(dual, redundancy=inst.redundancy)
            else:
                skipped["gamma"] = (f"dim lambda {dual.dim} exceeds the dense "
                                    f"budget {GAMMA_DIM_LIMIT}; no rho_thm")
        cfg_it = IterationConfig(beta=g("solver", "beta"), tol=g("solver", "tol"),
                                 maxit=g("solver", "maxit"), seed=g("solver", "seed"))
        if method == "richardson":
            rep = richardson(dual, cfg_it, u_ref=u_ref, redundancy=inst.redundancy,
                             gamma=gamma)
            rows = [(i, r, e, p) for i, (r, e, p) in
                    enumerate(zip(rep.residuals, rep.primal_errors, rep.p_history))]
        elif method == "gmres":
            rep = gmres_dual(dual, tol=g("solver", "tol"),
                             maxit=g("solver", "maxit"), gamma=gamma)
            rep.primal_errors = [float(np.linalg.norm(rep.u - u_ref)) / u_scale]
            rows = [(i, r, "", "") for i, r in enumerate(rep.residuals)]
        else:  # primal
            rep = primal_iterate(dual, cfg_it, u_ref=u_ref)
            rows = [(i, e, e, "") for i, e in enumerate(rep.primal_errors)]
        report_core = {
            "iterations": rep.iterations,
            "converged": bool(rep.converged),
            "diverged": bool(rep.diverged),
            "final_residual": rep.residuals[-1] if rep.residuals else 0.0,
            "final_primal_error": rep.primal_errors[-1] if rep.primal_errors else None,
            "rho_obs": rep.rho_obs,
            "rho_thm": rep.rho_thm,
        }

    elapsed = time.perf_counter() - t0
    report = {
        "config": inst.cfg.to_dict(),
        "gamma": gamma,
        "sum_cycles": (int(inst.redundancy.shape[1])
                       if inst.redundancy is not None else None),
        "timings": {"solve_seconds": elapsed},
        "skipped": skipped,
    }
    report.update(report_core)
    report["history_rows"] = rows
    return report


def _fmt(value) -> str:
    if value == "" or value is None:
        return ""
    return CSV_FORMAT % float(value)


def write_outputs(report: dict, outdir: Path, inst: Instance | None = None,
                  dump_operators: bool = False) -> None:
    """Emit report.json and history.csv; optional operator dumps as .mtx."""
    outdir.mkdir(parents=True, exist_ok=True)
    rows = report.pop("history_rows", [])
    with open(outdir / "history.csv", "w", encoding="ascii", newline="\n") as handle:
        handle.write("iteration,residual,primal_error,p\n")
        for it, res, err, p in rows:
            handle.write(f"{it},{_fmt(res)},{_fmt(err)},{_fmt(p)}\n")
    with open(outdir / "report.json", "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, default=_json_default)
        handle.write("\n")
    if dump_operators and inst is not None:
        save_matrix_market(outdir / "A_hat.mtx", inst.problem.A_hat())
        for i in range(inst.decomp.n_sub):
            save_matrix_market(outdir / f"A_{i}.mtx", inst.decomp.local_A(i))
        if inst.trace is not None:
            save_matrix_market(outdir / "T.mtx", inst.trace.matrix)


def _json_default(value):
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"not JSON serializable: {type(value)!r}")


def resolve_outdir(cfg: RunConfig) -> Path:
    root = os.environ.get("SCHWARZLAB_OUTPUT", ".")
    return Path(root) / cfg.get("output", "dir")


# -- command-line interface --------------------------------------------------


def _load_or_exit(config, preset, sets) -> RunConfig:
    if config is None and preset is None:
        click.echo("give a config file or --preset", err=True)
        raise SystemExit(2)
    overrides = {}
    for item in sets:
        dotted, _, value = item.partition("=")
        if not _:
            raise click.ClickException(f"--set {item!r} must look like section.key=value")
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
    inst = build_instance(cfg)
    report = execute(inst)
    report["checks"] = interface_checks(inst)
    outdir = resolve_outdir(cfg)
    write_outputs(report, outdir, inst,
                  dump_operators=cfg.get("output", "dump_operators"))
    status = "converged" if report["converged"] else "did not converge"
    click.echo(f"{cfg.get('solver', 'method')}: {status} after "
               f"{report['iterations']} iterations; "
               f"final primal error {report['final_primal_error']:.3e}; "
               f"outputs in {outdir}")
    if report.get("diverged") or not report["converged"]:
        raise SystemExit(3)


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE")
def verify(config, preset, sets):
    """Run the invariant battery on the configured instance; no solve."""
    cfg = _load_or_exit(config, preset, sets)
    inst = build_instance(cfg)
    checks = interface_checks(inst)
    all_passed = True
    for name, result in checks.items():
        passed = result["passed"]
        all_passed &= passed
        detail = ""
        if "value" in result:
            detail = f" (value {result['value']:.3e}, tolerance {result['tolerance']:.0e})"
        elif "cycle_count" in result:
            detail = f" (cycles {result['cycle_count']})"
        click.echo(f"{'PASS' if passed else 'FAIL'} {name}{detail}")
    report = {"config": cfg.to_dict(), "checks": checks}
    outdir = resolve_outdir(cfg)
    outdir.mkdir(parents=True, exist_ok=True)
    with open(outdir / "report.json", "w", encoding="ascii") as handle:
        json.dump(report, handle, indent=2, default=_json_default)
        handle.write("\n")
    if not all_passed:
        raise SystemExit(4)


@main.command()
@click.argument("config", required=False, type=click.Path())
@click.option("--preset", type=click.Choice(sorted(PRESETS)), default=None)
@click.option("--set", "sets", multiple=True, metavar="SECTION.KEY=VALUE")
@click.option("--vary", "varies", multiple=True, required=True,
              metavar="SECTION.KEY=V1,V2,...",
              help="sweep a key over listed values; repeat for a Cartesian grid")
def sweep(config, preset, sets, varies):
    """Cartesian sweep: one subdirectory per parameter combination."""
    axes = []
    for item in varies:
        dotted, _, values = item.partition("=")
        if not _ or not values:
            raise click.ClickException(
                f"--vary {item!r} must look like section.key=v1,v2")
        axes.append((dotted, values.split(",")))
    worst = 0
    base_sets = list(sets)
    for combo in itertools.product(*(vals for _, vals in axes)):
        point = {dotted: value for (dotted, _), value in zip(axes, combo)}
        tag = "_".join(f"{dotted.split('.')[-1]}={value}"
                       for dotted, value in point.items())
        point_sets = base_sets + [f"{k}={v}" for k, v in point.items()]
        try:
            cfg = _load_or_exit(config, preset, point_sets)
        except SystemExit as exc:
            worst = max(worst, exc.code or 0)
            click.echo(f"{tag}: invalid configuration")
            continue
        inst = build_instance(cfg)
        report = execute(inst)
        report["checks"] = interface_checks(inst)
        outdir = resolve_outdir(cfg) / tag
        write_outputs(report, outdir, inst,
                      dump_operators=cfg.get("output", "dump_operators"))
        ok = report["converged"]
        if not ok:
            worst = max(worst, 3)
        click.echo(f"{tag}: {'converged' if ok else 'did not converge'} "
                   f"after {report['iterations']} iterations")
    if worst:
        raise SystemExit(worst)


if __name__ == "__main__":
    main()
