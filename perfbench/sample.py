"""One benchmark sample: a full `schwarzlab run` in this process.

Run as a script, it reads a generated config, times the run phase by phase
through the same public calls `schwarzlab run` makes, applies the
correctness gate and prints one JSON object. run.py starts one such process
per sample, with the BLAS thread count pinned in its environment, so the
peak resident memory belongs to one run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from schwarzlab import cli  # noqa: E402
from schwarzlab import decomp as decomp_module  # noqa: E402

import tracing  # noqa: E402

# after the run, set-up and battery are repeated while cheap, so that their
# medians are steadier than one short interval on a shared machine
REPEATS = 5
REPEAT_BUDGET_S = 1.0


def timed_run(cfg, battery_seed: int, outdir: Path, tracer=None):
    """build_instance, execute, interface_checks, write_outputs, timed."""
    gc.collect()
    if tracer is not None:
        tracer.active = True
    t0 = time.perf_counter()
    inst = cli.build_instance(cfg)
    t1 = time.perf_counter()
    report = cli.execute(inst)
    t2 = time.perf_counter()
    report["checks"] = cli.interface_checks(inst, seed=battery_seed)
    t3 = time.perf_counter()
    cli.write_outputs(report, outdir, inst,
                      dump_operators=cfg.get("output", "dump_operators"))
    t4 = time.perf_counter()
    if tracer is not None:
        tracer.active = False
    timings = {"run_s": t4 - t0, "setup_s": t1 - t0, "solve_s": t2 - t1,
               "verify_s": t3 - t2}
    return timings, report, inst


def repeat_timed(fn, first: float) -> list[float]:
    """`first` plus the times of further calls of `fn`, while cheap."""
    times = [first]
    while len(times) < REPEATS and sum(times) < REPEAT_BUDGET_S:
        gc.collect()
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return times


def gate(report: dict, inst, primal_error_bound: float) -> dict:
    """Pass/fail of each condition a correct run must meet.

    The assembling check is repeated here, outside the timed region, because
    the CLI battery compares against the decomposition's own re-accumulation
    and cannot see a fault in mesh order.
    """
    error = report.get("final_primal_error")
    return {
        "converged": bool(report["converged"]) and not report.get("diverged"),
        "checks": all(c["passed"] for c in report["checks"].values()),
        "primal_error": error is not None and float(error) <= primal_error_bound,
        "assembling": bool(decomp_module.check_assembling(inst.decomp).passed),
    }


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def measure(spec: dict, outdir: Path, trace: bool = False) -> dict:
    """One sample of a generated config.

    `spec` holds `preset` and `overrides` (the config), `battery_seed` and
    `primal_error_bound`.
    """
    cfg = cli.load_config(None, spec["preset"], spec["overrides"])
    errors = cli.validate(cfg)
    if errors:
        raise ValueError("invalid benchmark config: " + "; ".join(errors))
    outdir.mkdir(parents=True, exist_ok=True)
    tracer = tracing.Tracer(run_id=outdir.name) if trace else None
    with tracing.instrument(tracer) if tracer else contextlib.nullcontext():
        timings, report, inst = timed_run(cfg, spec["battery_seed"], outdir, tracer)

    result = {
        "timings": timings,
        "gate": gate(report, inst, spec["primal_error_bound"]),
        "history_sha256": hashlib.sha256((outdir / "history.csv").read_bytes()).hexdigest(),
        "iterations": int(report["iterations"]),
        "layers": None,
        "counts": None,
    }
    if tracer is not None:
        result["layers"] = tracing.layer_metrics(tracer.spans, timings["run_s"],
                                                 report, inst)
        result["counts"] = {name: result["layers"][name] for name in tracing.COUNTS}
        with open(outdir / "spans.json", "w", encoding="ascii") as handle:
            json.dump(tracer.to_json(), handle)
    else:
        result["verifies_s"] = repeat_timed(
            lambda: cli.interface_checks(inst, seed=spec["battery_seed"]),
            timings["verify_s"])
    del inst, report
    if tracer is None:
        result["setups_s"] = repeat_timed(lambda: cli.build_instance(cfg),
                                          timings["setup_s"])
    # ru_maxrss is in KiB on Linux
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["environment"] = environment()
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spec", required=True, help="generated config as JSON")
    parser.add_argument("--outdir", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    result = measure(json.loads(args.spec), args.outdir, trace=bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
