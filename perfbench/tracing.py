"""Spans and counters recorded from outside the schwarzlab package.

`instrument` wraps every public function and every public method of the
package's modules and rebinds each wrapped function wherever a module of the
package imported it, so a call is seen under the name its caller looked up.
Nothing under src/ changes; leaving the context restores the originals.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = ("meshfem", "decomp", "facets", "traces", "formulations", "linalg",
          "solvers", "cli")

# spans that also note a number taken from the call's result
NOTES = {"linalg.factorize": lambda factor: factor.size}


class Tracer:
    """In-memory span list; a span is (name, start, end, parent index, note)."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list = []
        self.active = False
        self._stack: list[int] = []

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        note = NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = len(spans)
            spans.append(None)      # reserve the slot: parents precede children
            parent = stack[-1] if stack else -1
            stack.append(idx)
            result = None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent,
                              note(result) if note and result is not None else None)

        return traced

    def to_json(self) -> dict:
        return {"run_id": self.run_id,
                "fields": ["name", "start", "end", "parent", "note"],
                "spans": self.spans}


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Wrap the package's public callables for the duration of the block."""
    modules = [importlib.import_module(f"schwarzlab.{layer}") for layer in LAYERS]
    wrapped: dict[int, object] = {}
    restore: list[tuple[object, str, object]] = []
    for layer, module in zip(LAYERS, modules):
        for name, obj in list(vars(module).items()):
            if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                wrapped[id(obj)] = tracer.wrap(f"{layer}.{name}", obj)
            elif inspect.isclass(obj):
                for attr, value in list(vars(obj).items()):
                    if attr.startswith("_"):
                        continue
                    span = f"{layer}.{name}.{attr}"
                    if inspect.isfunction(value):
                        replacement = tracer.wrap(span, value)
                    elif isinstance(value, (classmethod, staticmethod)):
                        replacement = type(value)(tracer.wrap(span, value.__func__))
                    else:
                        continue
                    restore.append((obj, attr, value))
                    setattr(obj, attr, replacement)
    for module in modules:
        for name, obj in list(vars(module).items()):
            if id(obj) in wrapped:
                restore.append((module, name, obj))
                setattr(module, name, wrapped[id(obj)])
    try:
        yield tracer
    finally:
        for owner, name, original in reversed(restore):
            setattr(owner, name, original)


# -- analysis ----------------------------------------------------------------


def span_stats(spans) -> dict[str, list]:
    """Per span name: [count, inclusive seconds, self seconds, max note].

    Self time is the span's duration minus the time its child spans cover.
    Children sit after their parent in the list, so one reverse pass
    settles every child before its parent.
    """
    child_time = [0.0] * len(spans)
    stats: dict[str, list] = {}
    for idx in range(len(spans) - 1, -1, -1):
        name, start, end, parent, note = spans[idx]
        duration = end - start
        if parent >= 0:
            child_time[parent] += duration
        entry = stats.setdefault(name, [0, 0.0, 0.0, 0])
        entry[0] += 1
        entry[1] += duration
        entry[2] += duration - child_time[idx]
        if note is not None:
            entry[3] = max(entry[3], note)
    return stats


def _sum(stats, column, names):
    return sum(stats[n][column] for n in names if n in stats)


def count(stats, *names):
    return _sum(stats, 0, names)


def inclusive(stats, *names):
    return _sum(stats, 1, names)


def self_time(stats, *names):
    return _sum(stats, 2, names)


def dense_bytes(roots, modules, seen: set) -> int:
    """Bytes of the 2-D arrays reachable from `roots`, counted once.

    Walks containers and the attributes of objects defined in `modules`;
    an array whose buffer is in `seen` was already charged elsewhere.
    Computed from array sizes, not measured.
    """
    total = 0
    visited: set[int] = set()
    stack = list(roots)
    while stack:
        obj = stack.pop()
        if obj is None or id(obj) in visited:
            continue
        visited.add(id(obj))
        if isinstance(obj, np.ndarray):
            owner = obj
            while isinstance(owner.base, np.ndarray):
                owner = owner.base
            if owner.ndim >= 2 and id(owner) not in seen:
                seen.add(id(owner))
                total += owner.nbytes
        elif isinstance(obj, (list, tuple)):
            stack.extend(obj)
        elif isinstance(obj, dict):
            stack.extend(obj.values())
        elif type(obj).__module__ in modules:
            stack.extend(getattr(obj, "__dict__", {}).values())
            stack.extend(getattr(obj, slot, None)
                         for slot in getattr(type(obj), "__slots__", ()))
    return total


def layer_metrics(spans, run_seconds: float, report: dict, inst) -> dict:
    """Per-layer metrics of one traced run.

    Names ending in `_self_s` and the linalg kernel times are self times;
    the other `_s` metrics are the whole duration of the named call.
    """
    st = span_stats(spans)
    weighted = [n for n in st if n.startswith("linalg.WeightedInnerProduct.")]
    seen: set[int] = set()
    traces_bytes = dense_bytes([inst.trace, inst.impedance, inst.exchange],
                               {"schwarzlab.traces", "schwarzlab.linalg"}, seen)
    formulations_bytes = dense_bytes([inst.dual, inst.fetih],
                                     {"schwarzlab.formulations", "schwarzlab.linalg"},
                                     seen)
    roots = sum(end - start for _n, start, end, parent, _ in spans if parent < 0)
    return {
        "linalg.ip_dots": count(st, "linalg.WeightedInnerProduct.dot"),
        "linalg.ip_dot_s": self_time(st, *weighted),
        "linalg.lu_solves": count(st, "linalg.DenseFactorization.solve"),
        "linalg.lu_solve_s": self_time(st, "linalg.DenseFactorization.solve"),
        "linalg.gmres_self_s": self_time(st, "linalg.gmres"),
        "linalg.factorizations": count(st, "linalg.factorize"),
        "linalg.factorize_max_n": st.get("linalg.factorize", [0, 0, 0, 0])[3],
        "linalg.factorize_s": self_time(st, "linalg.factorize"),
        "solvers.reference_primal_s": inclusive(st, "solvers.reference_primal"),
        "solvers.iterate_s": inclusive(st, "solvers.gmres_dual", "solvers.richardson",
                                       "solvers.primal_iterate"),
        "solvers.iterations": int(report["iterations"]),
        "solvers.estimate_gamma_s": inclusive(st, "solvers.estimate_gamma"),
        "formulations.apply_K_calls": count(st, "formulations.DualSystem.apply_K"),
        "formulations.apply_K_s": inclusive(st, "formulations.DualSystem.apply_K"),
        "formulations.aug_solves": count(st, "formulations.AugmentedLocal.apply_inv"),
        "formulations.aug_solve_s": inclusive(st, "formulations.AugmentedLocal.apply_inv"),
        "formulations.build_dual_system_s": inclusive(st, "formulations.build_dual_system"),
        "formulations.build_dual_system_self_s":
            self_time(st, "formulations.build_dual_system"),
        "formulations.exceptional_system_s":
            inclusive(st, "formulations.exceptional_system"),
        "formulations.exceptional_system_self_s":
            self_time(st, "formulations.exceptional_system"),
        "formulations.pseudo_energy_s":
            inclusive(st, "formulations.DualSystem.pseudo_energy"),
        "formulations.dense_bytes": formulations_bytes,
        "traces.build_trace_s": inclusive(st, "traces.build_trace"),
        "traces.build_impedance_s": inclusive(st, "traces.build_impedance"),
        "traces.build_exchange_s": inclusive(st, "traces.build_exchange"),
        "traces.dense_bytes": traces_bytes,
        "facets.build_facets_s": inclusive(st, "facets.build_facets"),
        "facets.redundancy_basis_s": inclusive(st, "facets.redundancy_basis"),
        "facets.check_admissibility_s": inclusive(st, "facets.check_admissibility"),
        "decomp.build_restrictions_s": inclusive(st, "decomp.build_restrictions"),
        "decomp.check_assembling_s": inclusive(st, "decomp.check_assembling"),
        "meshfem.build_mesh_s": inclusive(st, "meshfem.build_mesh"),
        "meshfem.assemble_s": inclusive(st, "meshfem.assemble"),
        "cli.execute_self_s": self_time(st, "cli.execute"),
        "cli.interface_checks_self_s": self_time(st, "cli.interface_checks"),
        "cli.write_outputs_s": inclusive(st, "cli.write_outputs"),
        "trace.spans": len(spans),
        "trace.unattributed_s": run_seconds - roots,
    }


# integer-valued metrics; two traced runs of one input must agree on them
COUNTS = ("linalg.ip_dots", "linalg.lu_solves", "linalg.factorizations",
          "linalg.factorize_max_n", "solvers.iterations", "formulations.apply_K_calls",
          "formulations.aug_solves", "formulations.dense_bytes", "traces.dense_bytes",
          "trace.spans")
