"""No function in the package takes a grid beside a matching, bar the entries.

A matching carries its grid (``matching.domain``), so a function that takes
both a ``domain`` and a ``matching`` reads one geometry from two places that
can disagree.  Only the run entries, which check the two against each other
(:func:`hrnet.domain.run_matching`), and the two operators that take a
matching of None keep both.  This check parses each module with ``ast`` and
fails on any other function with both parameters.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrnet"
MODULES = sorted(SRC.glob("*.py"))
ALLOWED = {
    "dynamics.py": {"Integrator.__init__", "simulate", "simulate_ensemble"},
    "metrics.py": {"record_trajectory", "record_trajectories", "asynchronous_degree"},
    "domain.py": {"apply_diffusion", "network_diffusion_matrix", "run_matching"},
}


def geometry_parameters(tree, prefix=""):
    """Qualified name (``Class.method``) of each function, lambdas aside, that
    takes both a ``domain`` and a ``matching``."""
    for node in ast.iter_child_nodes(tree):
        scope = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{prefix}{node.name}."
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            if {"domain", "matching"} <= {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}:
                yield prefix + node.name
        yield from geometry_parameters(node, scope)


def found_in(path):
    return set(geometry_parameters(ast.parse(path.read_text(), filename=str(path))))


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_run_entries_take_a_domain_beside_a_matching(path):
    extra = found_in(path) - ALLOWED.get(path.name, set())
    assert not extra, f"{path.name}: " + ", ".join(sorted(extra))


def test_every_allowed_function_still_takes_both():
    # a stale entry would let a new function of that name through
    for name, allowed in ALLOWED.items():
        assert found_in(SRC / name) == allowed, name


def test_a_planted_function_is_reported():
    tree = ast.parse("class Solver:\n"
                     "    def __init__(self, domain, matching, d):\n"
                     "        def inner(u, *, matching, domain=None):\n"
                     "            pass\n"
                     "if True:\n"
                     "    def terms(matching, domain):\n"
                     "        pass\n"
                     "def one(domain, pairs):\n"
                     "    pass\n")
    assert list(geometry_parameters(tree)) == ["Solver.__init__", "Solver.__init__.inner",
                                               "terms"]
