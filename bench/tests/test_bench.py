"""Tests of the benchmark itself: generator, tracer and reference check.

Run with ``python3 -m pytest bench/tests``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

import hrnet
from hrnet.cli import main as cli_main
from reference import check_call
from tracing import PER_LAYER, Tracer, derive, self_times
from workloads import VARIANTS, WORKLOADS

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)


def _write(workload, seed, directory):
    path = os.path.join(directory, f"{workload.name}.ini")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(workload.config_text(seed))
    return path


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("seed", [0, 7])
def test_generated_configs_load(name, seed, tmp_path):
    workload = WORKLOADS[name]
    cfg = hrnet.load_config(_write(workload, seed, tmp_path))
    assert cfg.ic.seed == seed % VARIANTS
    assert cfg.params.n_neurons == workload.n_neurons
    assert cfg.domain.cells == workload.cells
    assert cfg.integrator.scheme == "imex-euler"
    n_steps = hrnet.resolve_dt(cfg.integrator, cfg.domain, cfg.params)[1]
    assert n_steps == workload.n_steps


def test_sweep_workload_runs_the_shipped_config(tmp_path):
    shipped = hrnet.load_config(os.path.join(ROOT, "configs", "default.ini"))
    generated = hrnet.load_config(_write(WORKLOADS["sweep-1d-p"], 0, tmp_path))
    assert generated.params == shipped.params
    assert generated.ic == shipped.ic
    assert generated.integrator == shipped.integrator.replace(t_end=4.0)
    assert generated.metrics == shipped.metrics
    assert generated.domain.cells == shipped.domain.cells
    assert (generated.matching.partner == shipped.matching.partner).all()


def _short(name):
    return dataclasses.replace(WORKLOADS[name], t_end=0.1)


def _snapshot():
    """Identity of every attribute of every hrnet module and class."""
    seen = {}
    for mod_name, module in sorted(sys.modules.items()):
        if mod_name == "hrnet" or mod_name.startswith("hrnet."):
            for key, value in vars(module).items():
                seen[(mod_name, key)] = id(value)
                if isinstance(value, type) and value.__module__ == mod_name:
                    for attr, raw in vars(value).items():
                        seen[(mod_name, key, attr)] = id(raw)
    return seen


@pytest.mark.parametrize("name", ["observe-1d-n32", "sweep-1d-p"])
def test_traced_call_restores_every_attribute(name, tmp_path):
    workload = _short(name)
    config = _write(workload, 0, tmp_path)
    before = _snapshot()
    tracer = Tracer()
    tracer.install()
    try:
        code, spans = tracer.call(cli_main, workload.argv(config, str(tmp_path / "traced")))
    finally:
        tracer.restore()
    assert code == 0
    assert _snapshot() == before
    assert len(spans["name"]) > 0
    # an untraced call afterwards records nothing
    assert cli_main(workload.argv(config, str(tmp_path / "plain"))) == 0
    assert len(tracer.take()["name"]) == 0


@pytest.mark.parametrize("name", ["observe-1d-n32", "sweep-1d-p"])
def test_self_times_add_up_to_the_root(name, tmp_path):
    workload = _short(name)
    config = _write(workload, 1, tmp_path)
    tracer = Tracer()
    calls = []
    for k in range(2):
        tracer.install()
        try:
            code, spans = tracer.call(cli_main, workload.argv(config, str(tmp_path / str(k))))
        finally:
            tracer.restore()
        assert code == 0
        assert spans["parent"][0] == -1 and (spans["parent"][1:] >= 0).all()
        assert self_times(spans).sum() == pytest.approx(
            spans["end"][0] - spans["start"][0], rel=1e-9)
        calls.append(spans)
    metrics = derive(calls)
    total_self = sum(self_times(spans).sum() for spans in calls) / len(calls)
    assert total_self == pytest.approx(metrics["cli.main.s"], rel=1e-9)
    assert metrics["dynamics.step.count"] == workload.n_steps * len(workload.members)
    assert metrics["dynamics.lu_solve.count"] == metrics["dynamics.step.count"]
    if workload.command == "sweep":
        assert metrics["runner.sweep_rows.members"] == len(workload.members)


def test_reference_check_tolerance(tmp_path):
    workload = WORKLOADS["observe-1d-n32"]
    seed = 5
    out = tmp_path / "out"
    assert cli_main(workload.argv(_write(workload, seed, tmp_path), str(out))) == 0
    assert check_call(str(out), workload, seed) == (None, True)

    csv = out / "trajectory.csv"
    lines = csv.read_text().splitlines()
    cells = lines[3].split(",")
    original = float(cells[10])
    for factor, passes in ((1 + 1e-12, True), (1 + 1e-6, False)):
        cells[10] = "%.16e" % (original * factor)
        csv.write_text("\n".join(lines[:3] + [",".join(cells)] + lines[4:]) + "\n")
        problem, identical = check_call(str(out), workload, seed)
        assert (problem is None) == passes
        assert not identical
    # another seed variant is a mismatch
    csv.write_text("\n".join(lines) + "\n")
    assert check_call(str(out), workload, seed + 1)[0] is not None


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "sweep-1d-p", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)
    assert declared["workloads"] == [{"name": w.name, "why": w.why}
                                     for w in WORKLOADS.values()]
    assert [m["name"] for m in declared["per_layer"]] == (
        [metric for metric, _, _ in PER_LAYER] + ["trace.spans", "trace.overhead_pct"])
