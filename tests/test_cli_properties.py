"""The front door under drawn arguments: ``cli.main`` keeps its promises.

Each example writes a tiny run config (a 4-cell interval, two steps), lays
out an output location and calls ``main`` with argv drawn for one of the
four commands: valid and invalid ``--values``, ``--param``, ``--seed`` and
``--jobs``, and ``--out`` pointing at a new or an existing directory, a
file, a path below a file, or a directory where an artifact's name is taken
by a directory.  Whatever happens:

- the exit code is one of README's (an argument the parser rejects exits 2
  through ``SystemExit``), and no other exception escapes;
- a config that cannot run exits 2, and exit 2 leaves the file tree as it
  was;
- no ``*.tmp`` file is ever left behind;
- exit 3 from ``simulate`` leaves ``trajectory.csv``, and ``report.txt``
  starts with the failure's report word and `` failed: ``.

``verify`` runs only its step-size guard, and a sweep's pool runs threads:
both are about the front door here, not about the criteria or pickling.
"""

import concurrent.futures
import os
import pathlib
import tempfile

import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import hrnet.verify
from hrnet.cli import main
from hrnet.errors import IntegrationError, LinearSolveError

TINY = """\
[parameters]
p = 2.0
n_neurons = 2

[domain]
dim = 1
{domain}

[matching]
full = 1-2

[initial]
{initial}

[integrator]
{integrator}
record_every = 1

[output]
directory = {out}
"""

STABLE = "scheme = imex-euler\ndt = 1e-2\nt_end = 0.02"
RANDOM = "kind = uniform-random\nseed = 3"
FOUR = "extents = 1.0\ncells = 4"
# config name -> ([domain] extents and cells, [initial], [integrator], the
# report word of simulate's failure)
CONFIGS = {
    "ok": (FOUR, RANDOM, STABLE, None),
    # no backward Euler residual meets 1e-30: the first step fails
    "linear": (FOUR, RANDOM, STABLE + "\nlinear_tol = 1e-30", LinearSolveError.report_word),
    # far above the stability bound: the cubic reaction overflows within 10 steps
    "blowup": (FOUR, "kind = constant-per-neuron\nu_values = 50.0, -50.0",
               "scheme = explicit-rk4\ndt = 1.0\nt_end = 10.0", IntegrationError.report_word),
    "invalid": ("extents = 1.0\ncells = 2", RANDOM, STABLE, None),
    # a step count past float range
    "steps": (FOUR, RANDOM, "scheme = imex-euler\ndt = 1e-10\nt_end = 1e300", None),
    # eta1 and eta2 underflow to 0
    "domain": ("extents = 1e300\ncells = 4", RANDOM, STABLE, None),
    "missing": None,
}
# the configs every command but verify --list rejects with exit 2
BROKEN = {"invalid", "steps", "domain", "missing"}
CONFIG_DRAWS = ["ok", "ok", "linear", "linear", "blowup", "blowup", "invalid", "steps",
                "domain", "missing"]
ARTIFACTS = ("constants.csv", "trajectory.csv", "report.txt", "sweep.csv", "verify_report.txt")
EXIT_CODES = {0, 2, 3, 4, 5}

# README's --values=... form, so a leading minus sign is not read as a flag
VALUES = st.one_of(st.sampled_from(["0,2", "0.5", "-1,4", "8"]),
                   st.lists(st.sampled_from(["0", "0.5", "2", "-1", "nan", "high", ""]),
                            min_size=1, max_size=3).map(",".join))
# valid choices first: sampled_from shrinks towards them, and draws them more often
SEEDS = [None, None, None, "4", "-1", "x"]
PARAMS = ["p", "p", "p", "d", "a", "nope", "n_neurons"]
JOBS = [None, None, "1", "2", "2", "0", "-1", "two"]


@st.composite
def invocations(draw):
    """(config name, --out layout, argv after --config and --out)."""
    command = draw(st.sampled_from(["constants", "simulate", "sweep", "verify"]))
    argv = [command]
    seed = draw(st.sampled_from(SEEDS))
    if seed is not None:
        argv.append(f"--seed={seed}")
    if command == "constants" and draw(st.booleans()):
        argv.append("--domain-only")
    if command == "sweep":
        argv += ["--param", draw(st.sampled_from(PARAMS)),
                 f"--values={draw(VALUES)}"]
    if command in ("sweep", "verify"):
        jobs = draw(st.sampled_from(JOBS))
        if jobs is not None:
            argv.append(f"--jobs={jobs}")
    if command == "verify" and draw(st.integers(0, 4)) == 0:
        argv.append("--list")
    out = draw(st.sampled_from(["config", "new", "existing", "file", "file/sub"]
                               + [f"taken:{name}" for name in ARTIFACTS]))
    return draw(st.sampled_from(CONFIG_DRAWS)), out, argv


def lay_out(root: pathlib.Path, config: str, out: str):
    """Write the config and the output location; return (config path, --out or None)."""
    path = root / "run.ini"
    if CONFIGS[config] is not None:
        domain, initial, integrator, _ = CONFIGS[config]
        path.write_text(TINY.format(domain=domain, initial=initial, integrator=integrator,
                                    out=root / "from-config"))
    (root / "a-file").write_text("not a directory\n")
    (root / "existing").mkdir()
    if out == "config":
        return path, None
    if out.startswith("taken:"):
        (root / "taken" / out.partition(":")[2]).mkdir(parents=True)
        return path, root / "taken"
    return path, root / {"new": "new", "existing": "existing", "file": "a-file",
                         "file/sub": "a-file/sub"}[out]


def tree(root: pathlib.Path) -> dict:
    """Every path below ``root``: a file's bytes, or None for a directory."""
    found = {}
    for top, dirs, files in os.walk(root):
        for name in dirs:
            found[os.path.relpath(os.path.join(top, name), root)] = None
        for name in files:
            full = os.path.join(top, name)
            found[os.path.relpath(full, root)] = pathlib.Path(full).read_bytes()
    return found


def guard_only(cfg, jobs=1):
    return [hrnet.verify.run_criterion(13, cfg)]


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(invocations())
# one of each outcome, whatever the draws reach
@example(("linear", "existing", ["simulate"]))
@example(("blowup", "config", ["simulate"]))
@example(("blowup", "new", ["verify", "--jobs=2"]))
@example(("ok", "taken:sweep.csv", ["sweep", "--param", "p", "--values=0,2", "--jobs=2"]))
@example(("ok", "taken:report.txt", ["simulate", "--seed=4"]))
@example(("ok", "file/sub", ["constants"]))
@example(("steps", "new", ["sweep", "--param", "p", "--values=0,2"]))
@example(("domain", "config", ["constants", "--domain-only"]))
def test_main_keeps_its_exit_code_and_file_promises(invocation):
    config, out, argv = invocation
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.delenv("HRNET_OUTDIR", raising=False)
        mp.setattr(hrnet.verify, "run_all", guard_only)
        mp.setattr(concurrent.futures, "ProcessPoolExecutor",
                   concurrent.futures.ThreadPoolExecutor)
        root = pathlib.Path(tmp)
        path, out_dir = lay_out(root, config, out)
        argv = argv + ["--config", str(path)] + ([f"--out={out_dir}"] if out_dir else [])
        before = tree(root)
        try:
            code = main(argv)
        except SystemExit as stop:  # the argument parser's usage error
            code = stop.code
        assert code in EXIT_CODES, (argv, code)
        event(f"{argv[0]} exit {code}")
        after = tree(root)
        if config in BROKEN and "--list" not in argv:
            assert code == 2, argv
        if code == 2:
            assert after == before, argv
        assert not [name for name in after if name.endswith(".tmp")], argv
        if argv[0] == "simulate" and code == 3:
            written = out_dir or root / "from-config"
            assert (written / "trajectory.csv").is_file()
            word = CONFIGS[config][3]
            assert (written / "report.txt").read_text().startswith(f"{word} failed: ")
