"""Command-line behavior: artifacts, exit codes, output-dir precedence."""

import concurrent.futures
import dataclasses
import pathlib
import shlex

import numpy as np
import pytest

from hrnet.cli import _COMMANDS, build_parser, main
from hrnet.config import load_config
from hrnet.core import DerivedConstants, HRParameters
from hrnet.domain import build_domain, poincare_constants
from hrnet.runner import SWEEPABLE, build_setup, check_sweepable, run_simulate

RING_2D = pathlib.Path(__file__).resolve().parent / "golden" / "ring-2d" / "run.ini"

FAST = """\
[parameters]
p = 2.0
n_neurons = 2

[domain]
dim = 1
extents = 1.0
cells = 16

[matching]
full = 1-2

[initial]
kind = uniform-random
seed = 3
offset = 1.0
noise = 0.1

[integrator]
scheme = imex-euler
dt = 1e-2
t_end = 0.1
record_every = 5

[output]
directory = {out}
"""

TRAJ_HEADER = ("t,total_energy,gronwall_envelope,stimulation_S,"
               "threshold_literal,threshold_perpair,boundary_diff_full,"
               "K_sum,dE_1_2")


def write_config(tmp_path, text=None, **fields):
    out = tmp_path / "artifacts"
    body = (text or FAST).format(out=str(out), **fields)
    path = tmp_path / "run.ini"
    path.write_text(body)
    return path, out


def replace_line(text, old, new):
    assert old in text
    return text.replace(old, new)


def test_constants_prints_block_and_writes_csv(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert main(["constants", "--config", str(path)]) == 0
    stdout = capsys.readouterr().out
    for key in ("c1 =", "c2 =", "r_star =", "M =", "Q =", "G =", "eta1 =",
                "eta2 =", "R_literal =", "R_perpair =", "mu ="):
        assert key in stdout
    assert "analytic cross-check" in stdout
    csv = (out / "constants.csv").read_text()
    header = csv.splitlines()[0]
    assert header.startswith("a,b,alpha,beta,q,r,c,J,d,p,n_neurons,c1,c2,")
    assert len(csv.splitlines()) == 2


def test_constants_domain_only(tmp_path, capsys):
    path, out = write_config(tmp_path)
    assert main(["constants", "--config", str(path), "--domain-only"]) == 0
    stdout = capsys.readouterr().out
    assert "eta1 =" in stdout and "omega_measure =" in stdout
    assert "c1" not in stdout and "R_literal" not in stdout
    assert not out.exists()
    # it writes nothing, so an output directory that cannot be created is no error
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    assert main(["constants", "--config", str(path), "--domain-only",
                 "--out", str(blocker / "sub")]) == 0


def test_constants_prints_one_line_per_derived_constant_in_field_order(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["constants", "--config", str(path)]) == 0
    lines = capsys.readouterr().out.split("# derived constants\n")[1].splitlines()
    consts = build_setup(load_config(path))
    shown = {"big_m": "M", "big_q": "Q", "g": "G", "big_r": "R_literal", "big_r_alt": "R_perpair"}
    names = [f.name for f in dataclasses.fields(DerivedConstants)]
    assert len(lines) == len(names)
    for line, name in zip(lines, names):
        label, value = line.split(" = ")
        assert label == shown.get(name, name)
        assert float(value.split()[0]) == getattr(consts, name)


def test_domain_only_prints_the_domain_lines_of_constants_in_2d(tmp_path, capsys):
    argv = ["constants", "--config", str(RING_2D), "--out", str(tmp_path)]
    assert main(argv) == 0
    full = capsys.readouterr().out.splitlines()
    assert main(argv + ["--domain-only"]) == 0
    domain_only = capsys.readouterr().out.splitlines()
    assert [line.split(" = ")[0] for line in domain_only] == ["eta1", "eta2", "omega_measure"]
    assert domain_only == [line for line in full if line in domain_only]


@pytest.mark.parametrize("mode,other", [("discrete", "analytic"), ("analytic", "discrete")])
@pytest.mark.parametrize("options", [[], ["--domain-only"]])
def test_constants_eta1_cross_check_is_the_other_mode(tmp_path, capsys, mode, other, options):
    path, _ = write_config(tmp_path, replace_line(FAST, "cells = 16",
                                                  f"cells = 16\neta_mode = {mode}"))
    domain = build_domain(1, [1.0], [16])
    value, cross = (poincare_constants(domain, mode=m).eta1 for m in (mode, other))
    assert value != cross
    assert main(["constants", "--config", str(path), *options]) == 0
    (line,) = [s for s in capsys.readouterr().out.splitlines() if s.startswith("eta1 =")]
    assert line == f"eta1 = {value:.16e}  ({other} cross-check {cross:.16e})"


def test_sweepable_is_every_scalar_model_parameter():
    assert set(SWEEPABLE) == {f.name for f in dataclasses.fields(HRParameters)} - {"n_neurons"}
    for name in SWEEPABLE:
        check_sweepable(name)


def test_constants_singular_parameter_exit_2(tmp_path, capsys):
    text = replace_line(FAST, "p = 2.0", "p = 2.0\nbeta = 0.0")
    path, _ = write_config(tmp_path, text)
    assert main(["constants", "--config", str(path)]) == 2
    assert "beta" in capsys.readouterr().err


def test_missing_config_file_exit_2(tmp_path, capsys):
    assert main(["constants", "--config", str(tmp_path / "nope.ini")]) == 2
    assert "config error" in capsys.readouterr().err


# non-finite settings once slipped past the range checks: tolerance or
# floor = nan switched the report's checks off, linear_tol = nan failed every
# run with exit 3, and non-finite initial data crashed with exit 1
NON_FINITE = {
    "tolerance": ("[output]", "[metrics]\ntolerance = nan\n\n[output]"),
    "floor": ("[output]", "[metrics]\nfloor = nan\n\n[output]"),
    "entry_slack": ("[output]", "[metrics]\nentry_slack = inf\n\n[output]"),
    "linear_tol": ("record_every = 5", "record_every = 5\nlinear_tol = nan"),
    "noise": ("noise = 0.1", "noise = nan"),
    "offset": ("offset = 1.0", "offset = -inf"),
    "amplitude": ("noise = 0.1", "noise = 0.1\namplitude = inf"),
    "width": ("noise = 0.1", "noise = 0.1\nwidth = nan"),
    "u_values": ("noise = 0.1", "noise = 0.1\nu_values = 0.5, nan"),
    "center": ("noise = 0.1", "noise = 0.1\ncenter = inf"),
}


@pytest.mark.parametrize("command", ["simulate", "sweep"])
@pytest.mark.parametrize("key", sorted(NON_FINITE))
def test_non_finite_setting_exit_2(tmp_path, capsys, key, command):
    path, out = write_config(tmp_path, replace_line(FAST, *NON_FINITE[key]))
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--param", "p", "--values", "1.0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error" in err and key in err
    assert not out.exists()


def test_per_neuron_values_of_wrong_length_exit_2(tmp_path, capsys):
    text = replace_line(FAST, "kind = uniform-random",
                        "kind = constant-per-neuron\nu_values = 0.5")
    path, _ = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 2
    assert "u_values: expected 2 values, got 1" in capsys.readouterr().err


def test_initial_data_overflow_exit_2(tmp_path, capsys):
    # every setting is finite, but neuron 3 starts at 2 * offset = inf
    text = replace_line(FAST, "n_neurons = 2", "n_neurons = 3")
    path, _ = write_config(tmp_path, replace_line(text, "offset = 1.0", "offset = 1e308"))
    assert main(["simulate", "--config", str(path)]) == 2
    assert "overflows" in capsys.readouterr().err


def write_initial_file(tmp_path, name, **arrays):
    target = tmp_path / name
    if arrays:
        np.savez(target, **arrays)
    text = replace_line(FAST, "kind = uniform-random", f"kind = file\npath = {target}")
    return write_config(tmp_path, text)


@pytest.mark.parametrize("case", ["missing", "not-an-archive", "no-w", "shape", "nan"])
@pytest.mark.parametrize("command", ["simulate", "sweep"])
def test_bad_initial_file_exit_2(tmp_path, capsys, case, command):
    good = np.zeros((2, 16))
    arrays = {"missing": {}, "not-an-archive": {}, "no-w": {"u": good, "v": good},
              "shape": {"u": good, "v": good, "w": good[:, :8]},
              "nan": {"u": good, "v": good, "w": np.where(good == 0, np.nan, good)}}
    path, _ = write_initial_file(tmp_path, "state.npz", **arrays[case])
    if case == "not-an-archive":
        (tmp_path / "state.npz").write_text("not numpy data")
    argv = [command, "--config", str(path)]
    if command == "sweep":
        argv += ["--param", "p", "--values", "1.0,2.0"]
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert "config error: initial-condition file" in err
    expected = {"missing": "No such file", "not-an-archive": "cannot read",
                "no-w": "cannot read", "shape": "has shape (2, 8), expected (2, 16)",
                "nan": "non-finite"}[case]
    assert expected in err


def test_initial_file_round_trip_runs(tmp_path):
    rng = np.random.default_rng(1)
    path, out = write_initial_file(tmp_path, "state.npz",
                                   **{k: 0.1 * rng.normal(size=(2, 16)) for k in "uvw"})
    assert main(["simulate", "--config", str(path)]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 1 + 3


def test_sweep_reads_initial_file_once(tmp_path, monkeypatch):
    rng = np.random.default_rng(1)
    path, out = write_initial_file(tmp_path, "state.npz",
                                   **{k: 0.1 * rng.normal(size=(2, 16)) for k in "uvw"})
    load, calls = np.load, []
    monkeypatch.setattr(np, "load", lambda *args, **kw: calls.append(args) or load(*args, **kw))
    argv = ["sweep", "--config", str(path), "--param", "p", "--values", "0,0.5,2,8,32"]
    assert main(argv) == 0
    assert len(calls) == 1
    assert (out / "sweep.csv").read_text().count(",ok\n") == 5


def test_simulate_writes_trajectory_and_report(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER
    assert len(lines) == 1 + 3  # records at steps 0, 5, 10
    report = (out / "report.txt").read_text()
    assert "gronwall envelope" in report
    assert "sync rate fit" in report
    assert "absorbing entry" in report


def test_metrics_section_reaches_the_report(tmp_path):
    # an initial energy far outside the absorbing ball, so entry is not due at t = 0
    text = replace_line(FAST, "offset = 1.0", "offset = 1e6")
    text = replace_line(text, "t_end = 0.1", "t_end = 0.0")
    allowed = []
    for slack in ("0.10", "0.5"):
        path, out = write_config(tmp_path, replace_line(
            text, "[output]", f"[metrics]\nentry_slack = {slack}\n\n[output]"))
        assert main(["simulate", "--config", str(path)]) == 0
        report = (out / "report.txt").read_text()
        allowed.append(float(report.split("allowed t=", 1)[1].split(" ", 1)[0]))
    # one record, no interval: the deadline is entry_time * (1 + entry_slack)
    assert allowed[1] / allowed[0] == pytest.approx(1.5 / 1.1, rel=1e-5)


def test_simulate_t_end_zero_single_row(tmp_path):
    text = replace_line(FAST, "t_end = 0.1", "t_end = 0.0")
    path, out = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 0
    assert len((out / "trajectory.csv").read_text().splitlines()) == 2


def test_simulate_synchronized_ic_has_zero_diff_columns(tmp_path):
    text = FAST.replace(
        "kind = uniform-random\nseed = 3\noffset = 1.0\nnoise = 0.1",
        "kind = constant-per-neuron\nu_values = 0.5,0.5\nv_values = 0.1,0.1")
    path, out = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 0
    rows = (out / "trajectory.csv").read_text().splitlines()[1:]
    for row in rows:
        assert abs(float(row.split(",")[-1])) <= 1e-18


def test_run_simulate_returns_none_on_completion(tmp_path):
    path, out = write_config(tmp_path)
    failure, files = run_simulate(load_config(path))
    assert failure is None
    assert list(files) == ["trajectory.csv", "report.txt"]
    assert files["trajectory.csv"].startswith(TRAJ_HEADER + "\n")
    assert not out.exists()  # the texts are returned; cli.main alone writes


def test_simulate_rerun_byte_identical(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    first = (out / "trajectory.csv").read_bytes()
    assert main(["simulate", "--config", str(path)]) == 0
    assert (out / "trajectory.csv").read_bytes() == first


def test_simulate_seed_override_changes_data(tmp_path):
    path, out = write_config(tmp_path)
    assert main(["simulate", "--config", str(path)]) == 0
    base = (out / "trajectory.csv").read_bytes()
    assert main(["simulate", "--config", str(path), "--seed", "4"]) == 0
    assert (out / "trajectory.csv").read_bytes() != base
    # overriding with the config's own seed reproduces it exactly
    assert main(["simulate", "--config", str(path), "--seed", "3"]) == 0
    assert (out / "trajectory.csv").read_bytes() == base


@pytest.mark.parametrize("where", ["config", "flag"])
def test_negative_seed_exit_2(tmp_path, capsys, where):
    text = FAST.replace("seed = 3", "seed = -1") if where == "config" else FAST
    path, _ = write_config(tmp_path, text)
    extra = ["--seed", "-5"] if where == "flag" else []
    assert main(["simulate", "--config", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert "seed must be >= 0" in err
    assert ("[initial]" if where == "config" else "--seed:") in err


def test_simulate_blowup_exit_3_with_partial_rows(tmp_path, capsys):
    text = FAST.replace(
        "kind = uniform-random\nseed = 3\noffset = 1.0\nnoise = 0.1",
        "kind = constant-per-neuron\nu_values = 50.0,-50.0")
    text = replace_line(text, "scheme = imex-euler", "scheme = explicit-rk4")
    text = replace_line(text, "dt = 1e-2", "dt = 1.0")
    text = replace_line(text, "t_end = 0.1", "t_end = 10.0")
    text = replace_line(text, "record_every = 5", "record_every = 1")
    path, out = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 3
    assert "partial trajectory flushed" in capsys.readouterr().err
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER
    assert len(lines) >= 2  # at least the initial record survived
    assert "integration failed" in (out / "report.txt").read_text()


def test_simulate_linear_solve_failure_exit_3_with_artifacts(tmp_path, capsys):
    # no backward Euler residual meets 1e-30, so the first step fails
    text = replace_line(FAST, "record_every = 5", "record_every = 5\nlinear_tol = 1e-30")
    path, out = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 3
    assert "partial trajectory flushed" in capsys.readouterr().err
    lines = (out / "trajectory.csv").read_text().splitlines()
    assert lines[0] == TRAJ_HEADER
    assert len(lines) == 2  # the initial record
    report = (out / "report.txt").read_text()
    assert report.startswith("linear solve failed: backward Euler solve at t=0:")


STOCK = (pathlib.Path(__file__).resolve().parent.parent / "configs"
         / "default.ini").read_text().replace("directory = out", "directory = {out}")

# an explicit update that overflows: stock config at dt = 0.5, or a huge
# input current at the stock dt
BLOWUPS = {
    "dt": replace_line(STOCK, "dt = 2e-3", "dt = 0.5"),
    "J": replace_line(STOCK, "J = 3.25", "J = 1e6"),
}


@pytest.mark.parametrize("case", sorted(BLOWUPS))
def test_simulate_imex_blowup_is_an_integration_failure(tmp_path, capsys, case):
    text = replace_line(BLOWUPS[case], "t_end = 50.0", "t_end = 10.0")
    path, out = write_config(tmp_path, text)
    assert main(["simulate", "--config", str(path)]) == 3
    assert "partial trajectory flushed" in capsys.readouterr().err
    assert len((out / "trajectory.csv").read_text().splitlines()) >= 2
    report = (out / "report.txt").read_text()
    assert report.startswith("integration failed: non-finite state at t=")
    assert "max |u| seen" in report


@pytest.mark.parametrize("case", sorted(BLOWUPS))
def test_sweep_imex_blowup_marks_row_failed(tmp_path, case):
    text = replace_line(BLOWUPS[case], "t_end = 50.0", "t_end = 10.0")
    path, out = write_config(tmp_path, text)
    # the first value is the config's own, the second couples harder
    assert main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "1.0,4.0"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1:3] == ["nan", "nan"]
        assert cells[3] != "nan"
        assert cells[-1] == "failed"


def test_sweep_blowup_leaves_other_members_alone(tmp_path):
    text = replace_line(STOCK, "t_end = 50.0", "t_end = 1.0")
    path, out = write_config(tmp_path, text)
    assert main(["sweep", "--config", str(path), "--param", "J",
                 "--values", "3.25,1e6,3.25"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[2].endswith(",failed")
    assert lines[1].endswith(",ok") and lines[1] == lines[3]


def test_sweep_linear_solve_failure_marks_rows_and_continues(tmp_path):
    text = replace_line(FAST, "record_every = 5", "record_every = 5\nlinear_tol = 1e-30")
    path, out = write_config(tmp_path, text)
    assert main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "0.0,1.0"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[1:3] == ["nan", "nan"]
        assert cells[3] != "nan"  # mu is known before stepping
        assert cells[-1] == "failed(linear-solve)"


def test_sweep_duplicate_values_identical_rows(tmp_path):
    path, out = write_config(tmp_path)
    code = main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "2.0,2.0"])
    assert code == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[0] == "value,tail_dE_G,rate,mu,crossed_literal,crossed_perpair,status"
    assert len(lines) == 3
    assert lines[1] == lines[2]
    assert lines[1].endswith(",ok")


def test_sweep_parallel_jobs_match_serial(tmp_path):
    # two workers get batches of one and two members; the pair shares a factor
    path, out = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "0.0,1.0,1.0"]) == 0
    serial = (out / "sweep.csv").read_text()
    assert main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "0.0,1.0,1.0", "--jobs", "2"]) == 0
    assert (out / "sweep.csv").read_text() == serial


class RecordingPool:
    """Stand-in for ProcessPoolExecutor: records the worker count, runs serially."""

    asked = []

    def __init__(self, max_workers):
        self.asked.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.fixture
def recording_pool(monkeypatch):
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(RecordingPool, "asked", [])
    return RecordingPool.asked


@pytest.mark.parametrize("jobs", [1, 2, 3])
def test_run_tasks_returns_results_in_task_order(jobs):
    from hrnet.runner import run_tasks

    tasks = [(pow, (2, k)) for k in range(5)] + [(divmod, (17, 5))]
    assert run_tasks(tasks, jobs) == [1, 2, 4, 8, 16, (3, 2)]


def test_run_tasks_starts_no_more_workers_than_tasks(recording_pool):
    from hrnet.runner import run_tasks

    assert run_tasks([(abs, (-1,)), (abs, (-2,))], 8) == [1, 2]
    assert recording_pool == [2]
    # one worker, or one task, runs here without a pool
    assert run_tasks([(abs, (-1,)), (abs, (-2,))], 1) == [1, 2]
    assert run_tasks([(abs, (-3,))], 4) == [3]
    assert run_tasks([], 4) == []
    assert recording_pool == [2]


@pytest.mark.parametrize("jobs", [1, 2])
def test_run_tasks_propagates_a_task_exception(jobs):
    from hrnet.runner import run_tasks

    with pytest.raises(ValueError, match="invalid literal"):
        run_tasks([(int, ("1",)), (int, ("x",))], jobs)


def test_sweep_has_no_more_workers_than_members(tmp_path, recording_pool):
    import pickle

    from hrnet.config import load_config
    from hrnet.runner import sweep_rows

    path, _ = write_config(tmp_path)
    cfg = load_config(path)
    got = sweep_rows(cfg, "p", (0.0, 1.0, 2.0), jobs=64)
    assert recording_pool == [3]
    want = sweep_rows(cfg, "p", (0.0, 1.0, 2.0), jobs=1)
    assert [pickle.dumps(row) for row in got] == [pickle.dumps(row) for row in want]
    # no member at all (an all-invalid sweep) starts no pool
    rows = sweep_rows(cfg, "r", (-1.0, -2.0), jobs=4)
    assert all(row["status"].startswith("invalid(") for row in rows)
    assert recording_pool == [3]


@pytest.mark.parametrize("command", ["sweep", "verify"])
@pytest.mark.parametrize("jobs", ["0", "-1"])
def test_jobs_below_one_exit_2_before_any_work(tmp_path, capsys, monkeypatch, command, jobs):
    import hrnet.cli
    import hrnet.verify

    path, _ = write_config(tmp_path)
    monkeypatch.setattr(hrnet.cli, "load_config", lambda *a, **k: pytest.fail("loaded"))
    monkeypatch.setattr(hrnet.verify, "run_all", lambda *a, **k: pytest.fail("ran"))
    extra = ["--param", "p", "--values", "1.0"] if command == "sweep" else []
    assert main([command, "--config", str(path), f"--jobs={jobs}", *extra]) == 2
    assert "--jobs must be >= 1" in capsys.readouterr().err


def test_sweep_unknown_param_exit_2(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--param", "zeta",
                 "--values", "1.0"]) == 2
    assert "not sweepable" in capsys.readouterr().err


def test_sweep_bad_values_exit_2(tmp_path, capsys):
    path, _ = write_config(tmp_path)
    assert main(["sweep", "--config", str(path), "--param", "p",
                 "--values", "1.0,high"]) == 2
    assert "--values" in capsys.readouterr().err


@pytest.mark.parametrize("bad", [["--param", "nope", "--values", "1.0"],
                                 ["--param", "p", "--values", "1.0,high"]])
def test_bad_sweep_argument_exit_2_and_makes_nothing(tmp_path, bad):
    path, _ = write_config(tmp_path)
    out = tmp_path / "never"
    assert main(["sweep", "--config", str(path), "--out", str(out), *bad]) == 2
    assert not out.exists()


def test_failed_artifact_write_leaves_no_temp_file(tmp_path, capsys, monkeypatch):
    import hrnet.verify

    # no criterion runs: verify's write is under test
    monkeypatch.setattr(hrnet.verify, "run_all", lambda cfg, jobs=1: [])
    # the artifact's name taken by a directory: the rename fails after the write
    path, _ = write_config(tmp_path)
    for command, artifact, extra in (("constants", "constants.csv", []),
                                     ("simulate", "trajectory.csv", []),
                                     ("sweep", "sweep.csv", ["--param", "p", "--values", "1.0"]),
                                     ("verify", "verify_report.txt", [])):
        out = tmp_path / command
        (out / artifact).mkdir(parents=True)
        assert main([command, "--config", str(path), "--out", str(out), *extra]) == 5
        assert capsys.readouterr().err == (f"output error: cannot write {out / artifact}: "
                                           f"Is a directory\n")
        assert [p.name for p in out.iterdir()] == [artifact]
    # the directory cli.main created, removed during the run: it is not created again
    out = tmp_path / "removed"
    monkeypatch.setattr(hrnet.verify, "run_all", lambda cfg, jobs=1: out.rmdir() or [])
    assert main(["verify", "--config", str(path), "--out", str(out)]) == 5
    assert capsys.readouterr().err == (f"output error: cannot write {out / 'verify_report.txt'}: "
                                       f"No such file or directory\n")
    assert not out.exists()


# finite settings whose step or grid leaves float range: each once ended in
# exit 1 with a traceback
OUT_OF_RANGE = {
    "step count": ({"t_end = 0.1": "t_end = 1e300", "dt = 1e-2": "dt = 1e-10"}, "[integrator]"),
    "step size": ({"scheme = imex-euler": "scheme = explicit-rk4",
                   "dt = 1e-2": "dt = auto\ncfl_safety = 5e-324"}, "[integrator]"),
    "long interval": ({"extents = 1.0": "extents = 1e300"}, "[domain]"),
    "short interval": ({"extents = 1.0": "extents = 1e-300"}, "[domain]"),
    "large square": ({"dim = 1": "dim = 2", "extents = 1.0": "extents = 1e200, 1e200",
                      "cells = 16": "cells = 4, 4"}, "[domain]"),
}


@pytest.mark.parametrize("command", sorted(_COMMANDS))
@pytest.mark.parametrize("case", sorted(OUT_OF_RANGE))
def test_setting_outside_float_range_exit_2(tmp_path, capsys, case, command):
    changes, section = OUT_OF_RANGE[case]
    text = FAST
    for old, new in changes.items():
        text = replace_line(text, old, new)
    path, out = write_config(tmp_path, text)
    extra = ["--param", "p", "--values", "1.0"] if command == "sweep" else []
    assert main([command, "--config", str(path), *extra]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"config error: {path}: {section}: ") and err.count("\n") == 1
    assert not out.exists()


def test_sweep_value_whose_auto_step_underflows_marks_row_invalid(tmp_path):
    # the config's own step is a positive subnormal; at p = 1e300 it is 0
    text = replace_line(FAST, "scheme = imex-euler", "scheme = explicit-rk4")
    text = replace_line(text, "dt = 1e-2", "dt = auto\ncfl_safety = 1e-310")
    path, out = write_config(tmp_path, replace_line(text, "t_end = 0.1", "t_end = 0.0"))
    assert main(["sweep", "--config", str(path), "--param", "p", "--values", "2,1e300"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert lines[1].endswith(",ok")
    assert lines[2] == ("1.0000000000000001e+300,nan,nan,nan,0,0,"
                        "invalid(the step size 0 is not positive)")


def test_sweep_invalid_value_marks_row_and_continues(tmp_path):
    path, out = write_config(tmp_path)
    # --values=... form, since a leading minus would look like a flag
    assert main(["sweep", "--config", str(path), "--param", "r",
                 "--values=-1.0,0.1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "invalid" in lines[1]
    assert lines[2].endswith(",ok")


@pytest.mark.parametrize("name", SWEEPABLE)
def test_sweep_accepts_a_value_exactly_when_a_config_may_hold_it(tmp_path, name):
    from hrnet.errors import ConfigError
    from hrnet.runner import sweep_rows

    path, _ = write_config(tmp_path)
    cfg = load_config(path)
    values = (0.0, -1.0, getattr(cfg.params, name))
    for value, row in zip(values, sweep_rows(cfg, name, values)):
        # the config with this one value changed
        lines = [line for line in path.read_text().splitlines()
                 if not line.startswith(f"{name} = ")]
        lines.insert(lines.index("[parameters]") + 1, f"{name} = {value!r}")
        changed = tmp_path / "changed.ini"
        changed.write_text("\n".join(lines) + "\n")
        try:
            load_config(changed)
        except ConfigError:
            rejected = True
        else:
            rejected = False
        assert row["status"].startswith("invalid(") == rejected, (value, row["status"])


def test_verify_list_prints_names_without_running(tmp_path, capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 13
    assert out[0].endswith("constants-oracle")
    assert out[-1].endswith("step-size-guard")


def test_verify_writes_the_report_it_prints_and_exits_4_on_a_failure(
        tmp_path, capsys, monkeypatch):
    import hrnet.verify
    from hrnet.verify import CriterionResult

    path, out = write_config(tmp_path)
    results = [CriterionResult(1, "first", True, "fine"),
               CriterionResult(2, "second", False, "broken")]
    seen_jobs = []

    def run_all(cfg, jobs=1):
        seen_jobs.append(jobs)
        return results

    # no criterion runs: the command's own path is under test
    monkeypatch.setattr(hrnet.verify, "run_all", run_all)
    assert main(["verify", "--config", str(path), "--jobs", "2"]) == 4
    stdout = capsys.readouterr().out
    assert stdout == "PASS  1 first: fine\nFAIL  2 second: broken\n"
    assert (out / "verify_report.txt").read_text() == stdout
    assert seen_jobs == [2]
    results[1] = CriterionResult(2, "second", True, "mended")
    assert main(["verify", "--config", str(path)]) == 0
    assert (out / "verify_report.txt").read_text() == capsys.readouterr().out
    assert seen_jobs == [2, 1]


def test_verify_without_config_or_list_exit_2(capsys):
    assert main(["verify"]) == 2
    assert "--config" in capsys.readouterr().err


def test_outdir_env_override(tmp_path, monkeypatch):
    path, out = write_config(tmp_path)
    env_dir = tmp_path / "from_env"
    monkeypatch.setenv("HRNET_OUTDIR", str(env_dir))
    assert main(["constants", "--config", str(path)]) == 0
    assert (env_dir / "constants.csv").exists()
    assert not (out / "constants.csv").exists()


def test_outdir_flag_beats_env(tmp_path, monkeypatch):
    path, _ = write_config(tmp_path)
    monkeypatch.setenv("HRNET_OUTDIR", str(tmp_path / "from_env"))
    flag_dir = tmp_path / "from_flag"
    assert main(["constants", "--config", str(path), "--out", str(flag_dir)]) == 0
    assert (flag_dir / "constants.csv").exists()
    assert not (tmp_path / "from_env").exists()


@pytest.mark.parametrize("command", sorted(_COMMANDS))
def test_output_directory_that_cannot_be_created_exit_2_before_any_work(
        tmp_path, capsys, monkeypatch, command):
    import hrnet.cli
    import hrnet.verify

    path, _ = write_config(tmp_path)
    blocker = tmp_path / "a-file"
    blocker.write_text("")
    for module, name in ((hrnet.cli, "build_setup"), (hrnet.cli, "run_simulate"),
                         (hrnet.cli, "sweep_rows"), (hrnet.verify, "run_all")):
        monkeypatch.setattr(module, name, lambda *a, **k: pytest.fail("the run started"))
    extra = ["--param", "p", "--values", "1.0"] if command == "sweep" else []
    assert main([command, "--config", str(path), "--out", str(blocker / "sub"), *extra]) == 2
    assert capsys.readouterr().err == (f"config error: cannot create output directory "
                                       f"{blocker / 'sub'}: Not a directory\n")


def test_auto_step_covers_strong_boundary_coupling(tmp_path):
    # at p = 1000 a step bounded by the Laplacian alone blows up by t = 1e-4
    text = replace_line(STOCK, "p = 1.0", "p = 1000.0")
    text = replace_line(text, "scheme = imex-euler", "scheme = explicit-rk4")
    text = replace_line(text, "dt = 2e-3", "dt = auto")
    path, out = write_config(tmp_path, replace_line(text, "t_end = 50.0", "t_end = 0.01"))
    assert main(["simulate", "--config", str(path)]) == 0
    last = (out / "trajectory.csv").read_text().splitlines()[-1]
    assert float(last.split(",")[0]) == pytest.approx(0.01, rel=1e-12)


def test_readme_quick_start_commands_parse():
    readme = (pathlib.Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("\n## Quick start\n", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    commands = [shlex.split(line) for line in block.splitlines() if line.startswith("hrnet ")]
    dispatched = {build_parser().parse_args(argv[1:]).command for argv in commands}
    # every command README shows is one the front door runs, and it shows them all
    assert dispatched == set(_COMMANDS)


def test_missing_required_config_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
