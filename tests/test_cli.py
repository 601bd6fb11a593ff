"""Command-line behavior: artifacts, exit codes, output-dir precedence."""

import pathlib

import numpy as np
import pytest

from hrnet.cli import main

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
    assert not (out / "constants.csv").exists()


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


def test_sweep_invalid_value_marks_row_and_continues(tmp_path):
    path, out = write_config(tmp_path)
    # --values=... form, since a leading minus would look like a flag
    assert main(["sweep", "--config", str(path), "--param", "r",
                 "--values=-1.0,0.1"]) == 0
    lines = (out / "sweep.csv").read_text().splitlines()
    assert len(lines) == 3
    assert "invalid" in lines[1]
    assert lines[2].endswith(",ok")


def test_verify_list_prints_names_without_running(tmp_path, capsys):
    assert main(["verify", "--list"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert len(out) == 13
    assert out[0].endswith("constants-oracle")
    assert out[-1].endswith("step-size-guard")


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


def test_missing_required_config_flag_exits_via_argparse(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate"])
    assert exc.value.code == 2
