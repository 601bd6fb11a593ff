"""The mutation table in ``tests/mutants.py`` matches the tree.

The cheap half of the harness: every row's old text occurs exactly once in
its module, and every test it names exists, one at least outside the
goldens.  Running the rows themselves is ``python tests/mutants.py``; here
one planted row whose test cannot catch it shows that a survivor fails the
harness.
"""

import ast
import io
import pathlib

import pytest

from mutants import MUTANTS, ROOT, Mutant, main, run


def defined_tests(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    return {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


@pytest.mark.parametrize("name", MUTANTS)
def test_every_old_text_occurs_once_in_src(name):
    m = MUTANTS[name]
    assert m.old != m.new
    assert (ROOT / "src" / "hrnet" / m.module).read_text().count(m.old) == 1


@pytest.mark.parametrize("name", MUTANTS)
def test_every_named_test_exists(name):
    files = []
    for test_id in MUTANTS[name].tests:
        file, function = test_id.split("[")[0].split("::")
        assert function in defined_tests(ROOT / file), test_id
        files.append(file)
    assert set(files) != {"tests/test_golden.py"}


def test_a_planted_survivor_fails_the_harness():
    out = io.StringIO()
    planted = {
        # a comment: no test can catch it
        "planted-survivor": Mutant("domain.py", "\nimport math\n", "\nimport math  # planted\n",
                                   ("tests/test_domain.py::test_boundary_flux_value",)),
        "planted-missing": Mutant("domain.py", "no such text", "", ()),
    }
    assert run(planted, out=out) == 1
    lines = out.getvalue().splitlines()
    assert lines[0].startswith("planted-survivor: survived (")
    assert lines[1] == "planted-missing: old text occurs 0 times in domain.py"
    assert main(["no-such-mutant"]) == 2
