"""No function in the package takes a monitor setting as a parameter of its own.

``MetricsOptions`` owns the monitors' tolerances, windows and floor; a
function that takes one of them as a keyword repeats its default and gives
library callers a second way to set it.  This check parses each module with
``ast`` and fails on any parameter named after a ``MetricsOptions`` field.
"""

import ast
import dataclasses
import pathlib

import pytest

from hrnet.metrics import MetricsOptions

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrnet"
MODULES = sorted(SRC.glob("*.py"))
FIELDS = {f.name for f in dataclasses.fields(MetricsOptions)}


def knob_parameters(tree):
    """``(function, parameter)`` for each parameter named after a field."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = a.posonlyargs + a.args + a.kwonlyargs + [p for p in (a.vararg, a.kwarg) if p]
            for param in params:
                if param.arg in FIELDS:
                    yield getattr(node, "name", "<lambda>"), param.arg


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_no_function_takes_a_metrics_option_as_a_parameter(path):
    found = list(knob_parameters(ast.parse(path.read_text(), filename=str(path))))
    assert not found, f"{path.name}: " + ", ".join(f"{fn}({arg})" for fn, arg in found)


def test_a_planted_knob_is_reported():
    tree = ast.parse("def fit(record, *, floor=1e-14):\n    pass\n"
                     "check = lambda record, tolerance=0.05: record\n")
    assert list(knob_parameters(tree)) == [("fit", "floor"), ("<lambda>", "tolerance")]
