"""Every function and method of the package is reached from the command line.

`schwarzlab run` and `verify` on every preset, one Richardson run with
cycles, a point source and operator dumps, and one `sweep` over impedance x
facet system run under a profile hook that records each Python function
entered. Each named function defined in src/schwarzlab must be among them,
apart from ALLOWED, whose survival the README argues in one line each.
"""

import importlib
import inspect
import os
import pkgutil
import sys
import types
from pathlib import Path

from click.testing import CliRunner

import schwarzlab
from schwarzlab.cli import PRESETS, main

# functions no command reaches, kept for the reasons the README gives
ALLOWED = {"formulations.DualSystem.apply_S", "linalg.GmresBreakdownError.__init__",
           "linalg.load_matrix_market"}

SMALL = ["--set", "problem.nx=8", "--set", "problem.ny=8"]
COMMANDS = (
    [["run", "--preset", preset] + SMALL for preset in sorted(PRESETS)]
    + [["verify", "--preset", preset] + SMALL for preset in sorted(PRESETS)]
    + [["run", "--preset", "feti2lm", "--set", "solver.method=richardson",
        "--set", "problem.source=point:0.3,0.4", "--set", "output.dump_operators=1"]
       + SMALL,
       ["sweep", "--preset", "loisel", "--vary",
        "interface.impedance=scalar,lumped_mass,glob_block", "--vary",
        "interface.facets=globs,bilateral_max,bilateral_properly_closed,"
        "bilateral_non_redundant"] + SMALL])


def defined_functions() -> dict:
    """(file, first line) -> module.qualname of each named function in the package."""
    out = {}
    for info in pkgutil.iter_modules(schwarzlab.__path__):
        module = importlib.import_module(f"schwarzlab.{info.name}")
        path = os.path.realpath(module.__file__)
        stack = [(compile(Path(path).read_text(), path, "exec"), "")]
        while stack:
            code, prefix = stack.pop()
            function = code.co_flags & inspect.CO_OPTIMIZED
            inner = ("" if code.co_name == "<module>" else
                     prefix + code.co_name + (".<locals>." if function else "."))
            stack.extend((c, inner) for c in code.co_consts if isinstance(c, types.CodeType))
            # functions and methods; not class bodies, lambdas or comprehensions
            if function and not code.co_name.startswith("<"):
                out[(path, code.co_firstlineno)] = f"{info.name}.{prefix}{code.co_name}"
    return out


def test_every_function_is_reached(tmp_path, monkeypatch):
    monkeypatch.setenv("SCHWARZLAB_OUTPUT", str(tmp_path))
    entered = {}

    def hook(frame, event, _arg):
        if event == "call":
            entered[id(frame.f_code)] = frame.f_code

    previous = sys.getprofile()
    sys.setprofile(hook)
    try:
        results = [CliRunner().invoke(main, args) for args in COMMANDS]
    finally:
        sys.setprofile(previous)
    assert [r.exit_code for r in results] == [0] * len(COMMANDS), \
        [r.output for r in results if r.exit_code]

    called = {(os.path.realpath(c.co_filename), c.co_firstlineno)
              for c in entered.values()}
    unreached = {name for key, name in defined_functions().items() if key not in called}
    assert unreached == ALLOWED
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    assert all(name.split(".", 1)[1].removesuffix(".__init__") in readme
               for name in ALLOWED)
