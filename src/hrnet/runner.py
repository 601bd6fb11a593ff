"""Experiment drivers and artifact writers.

Turns a loaded :class:`~hrnet.config.RunConfig` into files on disk:
``constants.csv`` and a printed constants block, ``trajectory.csv`` plus
``report.txt`` for single runs, and ``sweep.csv`` for parameter sweeps.

All files are written atomically (temp file in the target directory, then
``os.replace``), with LF line endings and fixed ``%.16e`` float formatting,
so repeated runs of the same config produce byte-identical artifacts.
"""

from __future__ import annotations

import concurrent.futures
import contextlib
import math
import os
from dataclasses import fields, replace

import numpy as np

from .config import RunConfig
from .core import DerivedConstants, HRParameters, derive_constants
from .domain import poincare_constants
from .dynamics import resolve_dt
from .errors import ConfigError, RunFailure
from .metrics import (
    MetricsOptions,
    TrajectoryRecord,
    energy_monitor,
    envelope_check,
    fit_sync_rate,
    record_trajectories,
    record_trajectory,
    trailing_window,
)

FLOAT_FMT = "%.16e"

# parameters a sweep may scan: every scalar model constant
SWEEPABLE = tuple(f.name for f in fields(HRParameters) if f.name != "n_neurons")

# sweep.csv's columns in order, each with the value a failed or invalid run's
# row takes where it has none (every row has a value and a status)
SWEEP_COLUMNS = {"value": None, "tail_dE_G": math.nan, "rate": math.nan, "mu": math.nan,
                 "crossed_literal": False, "crossed_perpair": False, "status": None}


def fmt_float(x) -> str:
    return FLOAT_FMT % float(x)


def atomic_write_text(path, text):
    """Write text with LF endings via a temp file and atomic rename."""
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = os.path.join(directory, f".{os.path.basename(path)}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException as err:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        if isinstance(err, OSError):  # name the artifact, not the temp file
            raise OSError(err.errno, err.strerror, path) from err
        raise


def resolve_output_dir(cfg: RunConfig, cli_out=None) -> str:
    """Output directory precedence: --out flag, then HRNET_OUTDIR, then config."""
    if cli_out:
        return os.fspath(cli_out)
    return os.environ.get("HRNET_OUTDIR") or cfg.output_dir


def build_setup(cfg: RunConfig) -> DerivedConstants:
    """The derived constants of ``cfg``, from its domain's Poincare constants."""
    pc = poincare_constants(cfg.domain, mode=cfg.eta_mode)
    return derive_constants(cfg.params, cfg.domain.omega_measure, pc.eta1, pc.eta2)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

# derived constants printed under a name other than their field's
DISPLAY_NAMES = {"big_m": "M", "big_q": "Q", "g": "G", "big_r": "R_literal", "big_r_alt": "R_perpair"}
# the derived constants that depend on the domain alone (--domain-only)
DOMAIN_CONSTANTS = ("eta1", "eta2", "omega_measure")


def constants_block(cfg: RunConfig, c: DerivedConstants, domain_only=False) -> str:
    """The model parameters, then one line per derived constant in field
    order; only the domain's constants with ``domain_only``.  eta1 has the
    other ``eta_mode``'s value beside it as a cross-check."""
    lines = [] if domain_only else (
        ["# model parameters"]
        + [f"{f.name} = {getattr(cfg.params, f.name)!r}" for f in fields(HRParameters)]
        + ["# derived constants"])
    for name in [f.name for f in fields(DerivedConstants)
                 if not domain_only or f.name in DOMAIN_CONSTANTS]:
        line = f"{DISPLAY_NAMES.get(name, name)} = {fmt_float(getattr(c, name))}"
        if name == "eta1":
            other = "analytic" if cfg.eta_mode == "discrete" else "discrete"
            cross = poincare_constants(cfg.domain, mode=other).eta1
            line += f"  ({other} cross-check {fmt_float(cross)})"
        lines.append(line)
    return "\n".join(lines) + "\n"


def constants_csv(cfg: RunConfig, consts: DerivedConstants) -> str:
    param_names = [f.name for f in fields(HRParameters)]
    const_names = [f.name for f in fields(DerivedConstants)]
    header = ",".join(param_names + const_names)
    values = [repr(getattr(cfg.params, name)) if name == "n_neurons"
              else fmt_float(getattr(cfg.params, name)) for name in param_names]
    values += [fmt_float(getattr(consts, name)) for name in const_names]
    return header + "\n" + ",".join(values) + "\n"


def run_constants(cfg: RunConfig, out_dir, domain_only=False) -> str:
    """Build constants artifacts; returns the printable block."""
    consts = build_setup(cfg)
    if not domain_only:
        atomic_write_text(os.path.join(out_dir, "constants.csv"),
                          constants_csv(cfg, consts))
    return constants_block(cfg, consts, domain_only)


# ---------------------------------------------------------------------------
# single simulation
# ---------------------------------------------------------------------------

def trajectory_csv(record: TrajectoryRecord) -> str:
    lines = [",".join(record.columns())]
    for k in range(len(record)):
        # the scalar columns, in header order
        cells = [fmt_float(getattr(record, name)[k]) for name in TrajectoryRecord.SCALAR_FIELDS]
        cells += [fmt_float(v) for v in record.diff_energy_g[k]]
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def simulation_report(record: TrajectoryRecord, consts: DerivedConstants,
                      opts: MetricsOptions) -> str:
    fit = fit_sync_rate(record, opts)
    lines = (envelope_check(record, consts, opts).lines()
             + energy_monitor(record, consts, opts).lines() + fit.lines())
    if not fit.already_synchronized and consts.mu > 0:
        lines.append(f"fitted rate / mu = {fit.rate / consts.mu:.6g} "
                     f"(mu = {consts.mu:.6g} is a sufficient-condition rate)")
    with np.errstate(invalid="ignore", divide="ignore"):
        ratios = np.where(record.boundary_diff_full > 0,
                          record.k_sum / record.boundary_diff_full, np.nan)
    finite = ratios[np.isfinite(ratios)]
    if finite.size:
        lines.append(
            f"summed-K to boundary-gap ratio over run: min {finite.min():.6g}, "
            f"max {finite.max():.6g} (measured, not presumed)")
    return "\n".join(lines) + "\n"


def run_simulate(cfg: RunConfig, out_dir) -> RunFailure | None:
    """Simulate per config, writing trajectory.csv and report.txt.

    Returns None on completion, or the :class:`RunFailure` the run stopped
    with, after flushing the rows recorded so far and naming the failure in
    report.txt.
    """
    consts = build_setup(cfg)
    try:
        record = record_trajectory(cfg.ic, cfg.params, cfg.domain, cfg.matching,
                                   cfg.integrator, consts)
    except RunFailure as err:
        # the time loop observes t = 0 before its first step: rows is never empty
        record = TrajectoryRecord.from_rows(err.rows, cfg.params.n_neurons, consts)
        failure, report = err, err.report() + "\n"
    else:
        failure, report = None, simulation_report(record, consts, cfg.metrics)
    atomic_write_text(os.path.join(out_dir, "trajectory.csv"), trajectory_csv(record))
    atomic_write_text(os.path.join(out_dir, "report.txt"), report)
    return failure


# ---------------------------------------------------------------------------
# parameter sweep
# ---------------------------------------------------------------------------

def sweep_values(text) -> tuple:
    try:
        return tuple(float(tok) for tok in str(text).split(","))
    except ValueError:
        raise ConfigError(f"--values: expected comma-separated numbers, got {text!r}")


def run_tasks(tasks, jobs: int) -> list:
    """``fn(*args)`` for each ``(fn, args)`` in ``tasks``, in task order.

    At ``jobs == 1``, or with one task, everything runs in this process.
    Otherwise at most ``min(jobs, len(tasks))`` pool workers take the tasks in
    the order given, so list the longest first.  A task's exception propagates.
    """
    k = min(jobs, len(tasks))
    if k <= 1:
        return [fn(*args) for fn, args in tasks]
    with concurrent.futures.ProcessPoolExecutor(max_workers=k) as pool:
        futures = [pool.submit(fn, *args) for fn, args in tasks]
        return [future.result() for future in futures]


def check_sweepable(param: str):
    if param not in SWEEPABLE:
        raise ConfigError(
            f"--param: {param!r} is not sweepable; choose one of "
            f"{', '.join(SWEEPABLE)}")


def sweep_row(metrics: MetricsOptions, value, consts, record) -> dict:
    """One sweep row, keyed by ``SWEEP_COLUMNS``: the tail maximum of the
    summed difference energy, the fitted rate and the threshold crossings of
    ``record``, or the status of the error it failed with."""
    if isinstance(record, RunFailure):
        return {"value": value, "status": record.sweep_status, "mu": consts.mu}
    tail = record.sync_total()[trailing_window(record.t, metrics.tail_fraction)]
    return {
        "value": value,
        "tail_dE_G": float(tail.max()),
        "rate": fit_sync_rate(record, metrics).rate,
        "mu": consts.mu,
        "crossed_literal": bool(np.any(record.stimulation_s > record.threshold_literal)),
        "crossed_perpair": bool(np.any(record.stimulation_s > record.threshold_perpair)),
        "status": "ok",
    }


def sweep_rows(cfg: RunConfig, param: str, values, jobs: int = 1) -> list:
    """Run the sweep and return one result mapping per value, in order.

    The runnable values form one ensemble, split into at most ``jobs``
    contiguous batches of near-equal size, one task each (:func:`run_tasks`);
    every row is the same as from a run of its own, for any ``jobs``.
    """
    check_sweepable(param)
    rows = [None] * len(values)
    positions, params_list, consts_list = [], [], []
    for k, value in enumerate(values):
        try:
            params = cfg.params.replace(**{param: value})
            params.validate_strict()  # the values a config may hold
            consts = build_setup(replace(cfg, params=params))
            resolve_dt(cfg.integrator, cfg.domain, params)  # an auto step depends on d and p
        except ValueError as err:
            rows[k] = {"value": value, "status": f"invalid({err})"}
            continue
        positions.append(k)
        params_list.append(params)
        consts_list.append(consts)
    n, batches = len(positions), min(jobs, len(positions))
    tasks = [(record_trajectories, ([cfg.ic] * (c.stop - c.start), params_list[c],
                                    cfg.domain, cfg.matching, cfg.integrator, consts_list[c]))
             for c in (slice(n * i // batches, n * (i + 1) // batches) for i in range(batches))]
    records = [record for part in run_tasks(tasks, jobs) for record in part]
    for k, consts, record in zip(positions, consts_list, records):
        rows[k] = sweep_row(cfg.metrics, values[k], consts, record)
    return rows


def _sweep_cell(value) -> str:
    if isinstance(value, str):  # the status
        return value.replace(",", ";")
    return str(int(value)) if isinstance(value, bool) else fmt_float(value)


def sweep_csv(rows) -> str:
    lines = [",".join(SWEEP_COLUMNS)]
    for row in rows:
        row = {**SWEEP_COLUMNS, **row}
        lines.append(",".join(_sweep_cell(row[name]) for name in SWEEP_COLUMNS))
    return "\n".join(lines) + "\n"
