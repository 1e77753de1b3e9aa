"""Self-tests of the benchmark: the gate catches faults, counts repeat.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import sample  # noqa: E402
import tracing  # noqa: E402
from schwarzlab import cli, decomp  # noqa: E402
from workloads import WORKLOADS, generate  # noqa: E402

SMALL = {"preset": "loisel",
         "overrides": {"problem.nx": "16", "problem.ny": "16",
                       "decomposition.px": "2", "decomposition.py": "2"},
         "battery_seed": 0, "primal_error_bound": 1e-8}


def judged(*results):
    return run.judge([dict(r, traced=False) for r in results])


def test_clean_run_passes_and_repeats(tmp_path):
    first = sample.measure(SMALL, tmp_path / "a")
    second = sample.measure(SMALL, tmp_path / "b")
    assert all(first["gate"].values())
    assert first["history_sha256"] == second["history_sha256"]
    assert judged(first, second) == []


def test_perturbed_exchange_fails_gate(tmp_path, monkeypatch):
    build = cli.build_instance

    def faulty(cfg):
        inst = build(cfg)
        inst.exchange.matrix[0, 0] += 1e-3
        return inst

    monkeypatch.setattr(cli, "build_instance", faulty)
    result = sample.measure(SMALL, tmp_path)
    assert not result["gate"]["checks"]
    assert judged(result)


def test_perturbed_local_stiffness_fails_gate(tmp_path, monkeypatch):
    contributions = decomp.element_contributions

    def faulty(*args, **kwargs):
        batch = contributions(*args, **kwargs)
        batch.K[0, 0, 0] += 1e-3
        return batch

    monkeypatch.setattr(decomp, "element_contributions", faulty)
    result = sample.measure(SMALL, tmp_path)
    # the CLI battery cannot see a mesh-order fault; the gate's own check does
    assert result["gate"]["checks"]
    assert not result["gate"]["assembling"]
    assert judged(result)


def test_history_mismatch_fails_run(tmp_path):
    result = sample.measure(SMALL, tmp_path)
    other = dict(result, history_sha256="0" * 64)
    assert judged(result, other) == ["sample 1: history.csv differs between repeats"]


def test_traced_counts_repeat_exactly(tmp_path):
    first = sample.measure(SMALL, tmp_path / "a", trace=True)
    second = sample.measure(SMALL, tmp_path / "b", trace=True)
    assert first["counts"] == second["counts"]
    assert first["counts"]["linalg.ip_dots"] > 0
    assert first["counts"]["formulations.apply_K_calls"] >= first["iterations"] > 0
    spans = json.loads((tmp_path / "a" / "spans.json").read_text())
    assert len(spans["spans"]) == first["counts"]["trace.spans"]


def test_instrument_restores_the_package():
    originals = (cli.gmres_dual, cli.build_instance, decomp.check_assembling,
                 vars(decomp.Decomposition)["apply_R"])
    with tracing.instrument(tracing.Tracer("t")):
        assert cli.gmres_dual is not originals[0]
    assert (cli.gmres_dual, cli.build_instance, decomp.check_assembling,
            vars(decomp.Decomposition)["apply_R"]) == originals


def test_self_time_subtracts_children():
    spans = [("a", 0.0, 10.0, -1, None), ("b", 1.0, 4.0, 0, None),
             ("c", 2.0, 3.0, 1, 7), ("b", 5.0, 6.0, 0, None)]
    stats = tracing.span_stats(spans)
    assert stats["a"] == [1, 10.0, 6.0, 0]
    assert stats["b"] == [2, 4.0, 3.0, 0]
    assert stats["c"] == [1, 1.0, 1.0, 7]


def test_manifest_names_every_metric(tmp_path):
    manifest = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in manifest["workloads"]] == list(WORKLOADS)
    traced = sample.measure(SMALL, tmp_path / "t", trace=True)
    plain = sample.measure(SMALL, tmp_path / "p")
    samples = [dict(plain, traced=False), dict(traced, traced=True)]
    assert set(run.summarize(samples[:1], trace=False)) == {
        m["name"] for m in manifest["end_to_end"]}
    assert set(run.summarize(samples, trace=True)) == {
        m["name"] for m in manifest["per_layer"]}


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_seeds_generate_fixed_configs(name):
    workload = WORKLOADS[name]
    assert generate(workload, 0) == workload.overrides
    overrides = generate(workload, 5)
    assert overrides == generate(workload, 5) != generate(workload, 6)
    x, y = map(float, overrides["problem.source"][len("point:"):].split(","))
    assert 0.0 < x < 1.0 and 0.0 < y < 1.0
    cfg = cli.load_config(None, workload.preset, overrides)
    assert cli.validate(cfg) == []


def run_script(cwd, *args):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_run_prints_one_result_line():
    proc = run_script(HERE.parent, "--workload", "fixedpoint-globs", "--seconds", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 2 and result["failed"] == 0
    assert result["metrics"]["run_s"]["unit"] == "s"


def test_run_refuses_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_script(tmp_path, "--workload", "gmres-globs")
    assert proc.returncode != 0
    assert proc.stdout == ""
