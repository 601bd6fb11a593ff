"""No function in the package takes a grid or a network size beside a
matching, bar the run entries.

A matching carries its grid (``matching.domain``) and its network size
(``matching.n_neurons``), so a function that takes a ``domain`` or an
``n_neurons`` beside a ``matching`` reads one geometry from two places that
can disagree.  Only the run entries, which check a caller's domain and
members against the matching and turn a matching of None into one
(:func:`hrnet.domain.run_matching`), keep a ``domain`` beside it.  This
check parses each module with ``ast`` and fails on any other function with
both parameters, and on every function with ``n_neurons`` and ``matching``.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "hrnet"
MODULES = sorted(SRC.glob("*.py"))
# the functions that may take a ``domain`` beside a ``matching``; none may
# take an ``n_neurons`` beside one
ALLOWED = {
    "dynamics.py": {"Integrator.__init__", "simulate", "simulate_ensemble"},
    "metrics.py": {"record_trajectory", "record_trajectories", "asynchronous_degree"},
    "domain.py": {"run_matching"},
}


def geometry_parameters(tree, prefix=""):
    """``(name, parameter)`` for each function, lambdas aside, that takes a
    ``matching`` beside a ``domain`` or an ``n_neurons``: its qualified name
    (``Class.method``) once per such parameter."""
    for node in ast.iter_child_nodes(tree):
        scope = prefix
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scope = f"{prefix}{node.name}."
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            a = node.args
            names = {p.arg for p in a.posonlyargs + a.args + a.kwonlyargs}
            if "matching" in names:
                for name in sorted(names & {"domain", "n_neurons"}):
                    yield prefix + node.name, name
        yield from geometry_parameters(node, scope)


def found_in(path):
    return set(geometry_parameters(ast.parse(path.read_text(), filename=str(path))))


def allowed_in(name):
    return {(function, "domain") for function in ALLOWED.get(name, ())}


@pytest.mark.parametrize("path", MODULES, ids=lambda path: path.name)
def test_only_run_entries_take_a_domain_beside_a_matching(path):
    extra = found_in(path) - allowed_in(path.name)
    assert not extra, f"{path.name}: " + ", ".join(f"{f} ({p})" for f, p in sorted(extra))


def test_every_allowed_function_still_takes_both():
    # a stale entry would let a new function of that name through
    for name in ALLOWED:
        assert found_in(SRC / name) == allowed_in(name), name


def test_a_planted_function_is_reported():
    tree = ast.parse("class Solver:\n"
                     "    def __init__(self, domain, matching, d):\n"
                     "        def inner(u, *, matching, domain=None):\n"
                     "            pass\n"
                     "if True:\n"
                     "    def terms(matching, domain):\n"
                     "        pass\n"
                     "def one(domain, pairs):\n"
                     "    pass\n"
                     "def network(matching, d, p, n_neurons):\n"
                     "    pass\n"
                     "def both(domain, matching, *, n_neurons=2):\n"
                     "    pass\n"
                     "def sizes(domain, n_neurons):\n"
                     "    pass\n")
    assert list(geometry_parameters(tree)) == [
        ("Solver.__init__", "domain"), ("Solver.__init__.inner", "domain"), ("terms", "domain"),
        ("network", "n_neurons"), ("both", "domain"), ("both", "n_neurons")]
