"""schwarzlab benchmark: time named workloads end to end and layer by layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Each sample is one fresh process (sample.py) that runs a generated config
through `cli.build_instance`, `cli.execute`, `cli.interface_checks` and
`cli.write_outputs`. A run takes samples until `--seconds` would be
exceeded, and never fewer than two, so that every run compares history.csv
across repeats. With `--trace 0` it reports the end-to-end metrics of
BENCHMARK.json, as medians over its samples; with `--trace 1` it alternates
untraced and traced samples and reports the per-layer metrics of the traced
ones. The last line of standard output is one JSON object; the exit code is
0 only when every sample passed the correctness gate.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, generate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUTPUT = ROOT / ".perfbench_out"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
THREADS = "1"
MIN_SAMPLES = 2
RUN_LIMIT_S = 170.0     # a run must end within 180 s


class Aborted(RuntimeError):
    """The benchmark cannot run here; no result is printed."""


def spawn(spec: dict, outdir: Path, traced: bool, timeout: float) -> dict:
    """Run one sample process; return its result, or a failure record."""
    cmd = [sys.executable, str(HERE / "sample.py"), "--spec", json.dumps(spec),
           "--outdir", str(outdir), "--trace", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                              cwd=ROOT)
    except subprocess.TimeoutExpired:
        return {"error": f"sample exceeded {timeout:.0f} s", "traced": traced}
    if proc.returncode != 0:
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}",
                "traced": traced}
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["traced"] = traced
    return result


def take_samples(spec: dict, outdir: Path, seconds: float, trace: bool) -> list[dict]:
    samples: list[dict] = []
    start = time.perf_counter()
    while True:
        elapsed = time.perf_counter() - start
        traced = trace and len(samples) % 2 == 1
        samples.append(spawn(spec, outdir / f"sample{len(samples)}", traced,
                             timeout=RUN_LIMIT_S - elapsed))
        elapsed = time.perf_counter() - start
        typical = elapsed / len(samples)
        if "gate" not in samples[-1] or elapsed + 1.5 * typical > RUN_LIMIT_S:
            break
        if len(samples) >= MIN_SAMPLES and elapsed + typical > seconds:
            break
    return samples


def judge(samples: list[dict]) -> list[str]:
    """One reason per failed sample; empty when the run is correct.

    A sample fails when it crashed, when any gate condition failed, when its
    history.csv differs from the first sample's, or when a traced sample's
    counts differ from the first traced sample's.
    """
    reasons = []
    first_history = next((s["history_sha256"] for s in samples if "gate" in s), None)
    first_counts = next((s["counts"] for s in samples if s.get("counts")), None)
    for k, s in enumerate(samples):
        if "gate" not in s:
            reasons.append(f"sample {k}: {s['error']}")
            continue
        bad = [name for name, ok in s["gate"].items() if not ok]
        if s["history_sha256"] != first_history:
            bad.append("history.csv differs between repeats")
        if s.get("counts") and s["counts"] != first_counts:
            bad.append("traced counts differ between repeats")
        if bad:
            reasons.append(f"sample {k}: " + ", ".join(bad))
    return reasons


def summarize(samples: list[dict], trace: bool) -> dict:
    ok = [s for s in samples if "gate" in s]
    if not ok:
        return {}
    median = statistics.median
    if not trace:
        return {
            "run_s": median(s["timings"]["run_s"] for s in ok),
            "setup_s": median(t for s in ok for t in s["setups_s"]),
            "solve_s": median(s["timings"]["solve_s"] for s in ok),
            "verify_s": median(t for s in ok for t in s["verifies_s"]),
            "peak_rss_mb": median(s["peak_rss_mb"] for s in ok),
        }
    traced = [s for s in ok if s["traced"]]
    untraced = [s for s in ok if not s["traced"]]
    if not traced or not untraced:
        return {}
    layers = {name: median(s["layers"][name] for s in traced)
              for name in traced[0]["layers"]}
    layers["trace.overhead_s"] = (median(s["timings"]["run_s"] for s in traced)
                                  - median(s["timings"]["run_s"] for s in untraced))
    return layers


def run_workload(name: str, seed: int, seconds: float, trace: bool, units: dict):
    workload = WORKLOADS[name]
    overrides = generate(workload, seed)
    spec = {"preset": workload.preset, "overrides": overrides, "battery_seed": seed,
            "primal_error_bound": workload.primal_error_bound}
    outdir = OUTPUT / name / f"seed{seed}-trace{int(trace)}"
    samples = take_samples(spec, outdir, seconds, trace)
    reasons = judge(samples)
    metrics = summarize(samples, trace)
    if metrics and set(metrics) != set(units):
        raise Aborted(f"metrics {sorted(set(metrics) ^ set(units))} do not match "
                      "BENCHMARK.json")

    print(f"{name} seed {seed}: --preset {workload.preset} "
          + " ".join(f"--set {k}={v}" for k, v in overrides.items()))
    env = next((s["environment"] for s in samples if "environment" in s), {})
    print(f"  environment: threads {os.environ[THREAD_VARS[0]]}, nproc {os.cpu_count()}, "
          + ", ".join(f"{k} {v}" for k, v in env.items()))
    print(f"  samples {len(samples)} ({sum(s['traced'] for s in samples)} traced), "
          f"failed {len(reasons)}, failed_ratio {len(reasons) / len(samples):.3f}")
    for reason in reasons:
        print(f"  FAILED {reason}")
    for metric, value in metrics.items():
        print(f"  {metric:42s} {value:>14.6g} {units[metric]}")
    return {"correct": not reasons, "attempted": len(samples), "failed": len(reasons),
            "metrics": {m: {"value": v, "unit": units[m]} for m, v in metrics.items()}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")

    manifest_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "schwarzlab" / "__init__.py").is_file() \
            or not manifest_path.is_file():
        print("perfbench: run from a checkout that holds src/schwarzlab and "
              "BENCHMARK.json", file=sys.stderr)
        return 2
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    units = {m["name"]: m["unit"]
             for m in manifest["per_layer" if args.trace else "end_to_end"]}
    for var in THREAD_VARS:        # inherited by every sample process
        os.environ[var] = THREADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    try:
        results = {name: run_workload(name, args.seed, args.seconds, bool(args.trace),
                                      units) for name in names}
    except Aborted as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}/{m}": v for name, r in results.items()
                             for m, v in r["metrics"].items()}}
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
