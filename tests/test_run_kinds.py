"""Each run kind reads exactly the [interface] and [solver] keys of its
entry in `cli.KINDS`, and every benchmark input is a valid configuration.

`RunConfig.get` is recorded while `cli._solve` builds, solves and checks a
run of every preset and of the methods no preset selects. A key the table
lists but no code reads (so the run would echo a value it ignored), or a
key read but missing from the table (so `load_config` would not fill it),
fails here. `solver.method` is read by `load_config` itself: it names the
kind.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

from schwarzlab import cli

ROOT = Path(__file__).resolve().parents[1]
SMALL = {"problem.nx": "8", "problem.ny": "8"}
# name -> (preset, overrides)
RUNS = {
    **{preset: (preset, {}) for preset in sorted(cli.PRESETS)},
    "richardson-globs": ("loisel", {"solver.method": "richardson"}),
    "richardson-bilateral": ("feti2lm", {"solver.method": "richardson"}),
    "primal-defaults": ("loisel", {"solver.method": "primal"}),
}
COMMON = ("problem", "decomposition")     # read by every kind while solving


@pytest.mark.parametrize("name", list(RUNS))
def test_each_kind_reads_its_table_entry(name, tmp_path, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUTPUT", str(tmp_path))
    get, solve = cli.RunConfig.get, cli._solve
    reads, kinds = set(), []

    def recording_get(self, section, key):
        reads.add(f"{section}.{key}")
        return get(self, section, key)

    def recording_solve(cfg, outdir):
        kinds.append(cfg.kind)
        with monkeypatch.context() as patch:
            patch.setattr(cli.RunConfig, "get", recording_get)
            return solve(cfg, outdir)

    monkeypatch.setattr(cli, "_solve", recording_solve)
    preset, overrides = RUNS[name]
    result = CliRunner().invoke(cli.main, ["run", "--preset", preset] + [
        f"--set={key}={value}" for key, value in {**overrides, **SMALL}.items()])
    assert result.exit_code == 0, result.output
    assert result.output.startswith(f"{kinds[0]}: converged")
    entry = set(cli.KINDS[kinds[0]].keys)
    assert {k for k in reads if k.split(".")[0] not in COMMON + ("output",)} == \
        entry - {"solver.method"}
    assert {k for k in reads if k.split(".")[0] in COMMON} == {
        f"{s}.{k}" for s in COMMON for k in cli.SCHEMA[s]}
    # the report echoes the keys read, and no other
    config = json.loads((tmp_path / "out" / "report.json").read_text())["config"]
    assert {f"{s}.{k}" for s in ("interface", "solver") for k in config[s]} == entry


def test_every_kind_is_reached():
    kinds = {cli.load_config(None, preset, overrides).kind
             for preset, overrides in RUNS.values()}
    assert kinds == set(cli.KINDS)


def load_perfbench(name, monkeypatch):
    """perfbench/<name>.py as the module `name`, as its scripts import it."""
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


def test_benchmark_workloads_are_valid_configs(monkeypatch):
    # perfbench/sample.py loads and validates each generated config the same way
    workloads = load_perfbench("workloads", monkeypatch)
    for workload in workloads.WORKLOADS.values():
        for seed in range(3):
            overrides = workloads.generate(workload, seed)
            cfg = cli.load_config(None, workload.preset, overrides)
            assert cli.validate(cfg) == [], (workload.name, seed)


def test_readme_table_lists_each_kinds_keys():
    rows = {}
    for line in (ROOT / "README.md").read_text().splitlines():
        if line.startswith("| `"):
            kind, interface, solver = (c.strip(" `") for c in line.split("|")[1:4])
            rows[kind] = {f"interface.{k}" for k in interface.split(", ") if k} | {
                f"solver.{k}" for k in solver.split(", ")}
    assert rows == {kind: set(entry.keys) for kind, entry in cli.KINDS.items()}


def test_benchmark_samples_pass_their_gate(tmp_path, monkeypatch):
    # the presets and cli calls of perfbench/sample.py, on each workload's
    # seed-1 input at 16 x 16
    workloads = load_perfbench("workloads", monkeypatch)
    load_perfbench("tracing", monkeypatch)
    sample = load_perfbench("sample", monkeypatch)
    for workload in workloads.WORKLOADS.values():
        overrides = {**workloads.generate(workload, 1),
                     "problem.nx": "16", "problem.ny": "16"}
        result = sample.measure({"preset": workload.preset, "overrides": overrides,
                                 "battery_seed": 1,
                                 "primal_error_bound": workload.primal_error_bound},
                                tmp_path / workload.name)
        assert all(result["gate"].values()), (workload.name, result["gate"])
