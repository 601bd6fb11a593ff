"""Span tracing of hrnet's layers, installed from outside the package.

``Tracer.install`` rebinds the functions and methods listed in ``TARGETS`` to
wrappers that record one span per call: name, start, end, parent span and a
work count.  A module function is rebound under every name any ``hrnet``
module holds it by, so calls through ``from .x import f`` are traced too.
``hrnet.dynamics`` reaches SuperLU through its module global ``spla``; that
global is swapped for a stand-in whose ``splu`` returns a factorization with
a traced ``solve``.  ``Tracer.restore`` puts every original object back.

Spans stay in memory and are written out by the caller when the run ends;
``derive`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import functools
import sys
import time

import numpy as np

# span name, module, attribute (``Class.method`` for methods), work count
TARGETS = (
    ("config.load_config", "hrnet.config", "load_config", None),
    ("runner.build_setup", "hrnet.runner", "build_setup", None),
    ("runner.sweep_rows", "hrnet.runner", "sweep_rows",
     lambda args, result: len(result)),
    ("runner.trajectory_csv", "hrnet.runner", "trajectory_csv", None),
    ("runner.sweep_csv", "hrnet.runner", "sweep_csv", None),
    ("runner.simulation_report", "hrnet.runner", "simulation_report", None),
    # artifacts are ASCII, so characters are bytes
    ("runner.atomic_write_text", "hrnet.runner", "atomic_write_text",
     lambda args, result: len(args[1])),
    ("domain.poincare_constants", "hrnet.domain", "poincare_constants",
     lambda args, result: result.iterations),
    ("domain.network_diffusion_matrix", "hrnet.domain", "network_diffusion_matrix",
     lambda args, result: result.nnz),
    ("dynamics.Integrator", "hrnet.dynamics", "Integrator.__init__", None),
    ("dynamics.step", "hrnet.dynamics", "Integrator.step", None),
    ("dynamics.reaction_rhs", "hrnet.dynamics", "reaction_rhs", None),
    ("dynamics.simulate", "hrnet.dynamics", "simulate", None),
    ("metrics.observer", "hrnet.metrics", "TrajectoryObserver.__call__", None),
    ("metrics.pair_differences", "hrnet.metrics", "pair_differences", None),
    ("metrics.compute_K", "hrnet.metrics", "compute_K", None),
    ("metrics.stimulation_signal", "hrnet.metrics", "stimulation_signal", None),
    ("metrics.from_rows", "hrnet.metrics", "TrajectoryRecord.from_rows", None),
)
ROOT = "cli.main"
SPAN_NAMES = (ROOT,) + tuple(t[0] for t in TARGETS) + ("dynamics.splu", "dynamics.lu_solve")

# computed, not measured: bytes a triangular solve reads per stored LU entry
# (8-byte value plus 4-byte row index)
BYTES_PER_LU_ENTRY = 12


class _TracedLU:
    """A SuperLU factorization whose ``solve`` records a span.

    The work count of each solve is the factorization's stored nonzeros
    (``SuperLU.nnz``, the fill of L and U).
    """

    def __init__(self, lu, tracer):
        self._lu = lu
        self.fill = lu.nnz
        self.solve = tracer.wrap("dynamics.lu_solve", lu.solve,
                                 lambda args, result: self.fill)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class _TracedLinalg:
    """Stands in for ``scipy.sparse.linalg`` inside ``hrnet.dynamics``."""

    def __init__(self, linalg, tracer):
        self._linalg = linalg

        def splu(*args, **kwargs):
            return _TracedLU(linalg.splu(*args, **kwargs), tracer)

        self.splu = tracer.wrap("dynamics.splu", splu,
                                lambda args, result: result.fill)

    def __getattr__(self, name):
        return getattr(self._linalg, name)


class Tracer:
    """Records spans of wrapped calls; one instance per process."""

    def __init__(self):
        self._ids = {name: i for i, name in enumerate(SPAN_NAMES)}
        self._undo = []
        self._stack = []
        self._clear()

    def _clear(self):
        self._name, self._parent, self._start, self._end, self._work = [], [], [], [], []

    def wrap(self, name, fn, work=None):
        """Return ``fn`` wrapped to record a span named ``name`` per call."""
        name_id = self._ids[name]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self._name)
            self._name.append(name_id)
            self._parent.append(stack[-1] if stack else -1)
            self._start.append(0.0)
            self._end.append(0.0)
            self._work.append(0.0)
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                self._start[idx] = start
                self._end[idx] = end
            if work is not None:
                self._work[idx] = float(work(args, result))
            return result

        return traced

    def _rebind(self, owner, key, new):
        self._undo.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, new)

    def install(self):
        """Wrap every target; ``hrnet`` must already be imported."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for n, m in sorted(sys.modules.items())
                   if n == "hrnet" or n.startswith("hrnet.")]
        for name, module_name, attr, work in TARGETS:
            module = sys.modules[module_name]
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                if isinstance(raw, classmethod):
                    new = classmethod(self.wrap(name, raw.__func__, work))
                else:
                    new = self.wrap(name, raw, work)
                self._rebind(cls, method, new)
                continue
            original = getattr(module, attr)
            new = self.wrap(name, original, work)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._rebind(mod, key, new)
        dynamics = sys.modules["hrnet.dynamics"]
        self._rebind(dynamics, "spla", _TracedLinalg(dynamics.spla, self))

    def restore(self):
        """Put back every object ``install`` replaced, newest first."""
        while self._undo:
            owner, key, old = self._undo.pop()
            setattr(owner, key, old)

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span; returns (result, spans)."""
        self._clear()
        result = self.wrap(ROOT, fn)(*args)
        return result, self.take()

    def take(self) -> dict:
        """The spans recorded since the last call, as arrays, in start order."""
        spans = {
            "name": np.asarray(self._name, dtype=np.int16),
            "parent": np.asarray(self._parent, dtype=np.int64),
            "start": np.asarray(self._start, dtype=np.float64),
            "end": np.asarray(self._end, dtype=np.float64),
            "work": np.asarray(self._work, dtype=np.float64),
        }
        self._clear()
        return spans


# per-layer metric -> (span name, statistic); see ``derive``
PER_LAYER = (
    ("cli.main.s", ROOT, "s"),
    ("cli.main.self_s", ROOT, "self_s"),
    ("config.load_config.s", "config.load_config", "s"),
    ("runner.build_setup.s", "runner.build_setup", "s"),
    ("runner.sweep_rows.s", "runner.sweep_rows", "s"),
    ("runner.sweep_rows.members", "runner.sweep_rows", "work"),
    ("runner.sweep_rows.share", "runner.sweep_rows", "share"),
    ("runner.trajectory_csv.s", "runner.trajectory_csv", "s"),
    ("runner.sweep_csv.s", "runner.sweep_csv", "s"),
    ("runner.simulation_report.s", "runner.simulation_report", "s"),
    ("runner.atomic_write_text.s", "runner.atomic_write_text", "s"),
    ("runner.atomic_write_text.bytes", "runner.atomic_write_text", "work"),
    ("domain.poincare_constants.s", "domain.poincare_constants", "s"),
    ("domain.poincare_constants.iterations", "domain.poincare_constants", "work"),
    ("domain.network_diffusion_matrix.s", "domain.network_diffusion_matrix", "s"),
    ("domain.network_diffusion_matrix.nnz", "domain.network_diffusion_matrix", "work"),
    ("dynamics.Integrator.s", "dynamics.Integrator", "s"),
    ("dynamics.splu.s", "dynamics.splu", "s"),
    ("dynamics.lu_fill", "dynamics.splu", "work"),
    ("dynamics.simulate.self_s", "dynamics.simulate", "self_s"),
    ("dynamics.step.s", "dynamics.step", "s"),
    ("dynamics.step.count", "dynamics.step", "count"),
    ("dynamics.step.p50_us", "dynamics.step", "p50_us"),
    ("dynamics.step.p99_us", "dynamics.step", "p99_us"),
    ("dynamics.step.self_s", "dynamics.step", "self_s"),
    ("dynamics.step.share", "dynamics.step", "share"),
    ("dynamics.reaction_rhs.s", "dynamics.reaction_rhs", "s"),
    ("dynamics.lu_solve.s", "dynamics.lu_solve", "s"),
    ("dynamics.lu_solve.count", "dynamics.lu_solve", "count"),
    ("dynamics.lu_solve.computed_bytes", "dynamics.lu_solve", "computed_bytes"),
    ("dynamics.lu_solve.share", "dynamics.lu_solve", "share"),
    ("metrics.observer.s", "metrics.observer", "s"),
    ("metrics.observer.rows", "metrics.observer", "count"),
    ("metrics.observer.p50_us", "metrics.observer", "p50_us"),
    ("metrics.observer.share", "metrics.observer", "share"),
    ("metrics.pair_differences.s", "metrics.pair_differences", "s"),
    ("metrics.compute_K.s", "metrics.compute_K", "s"),
    ("metrics.stimulation_signal.s", "metrics.stimulation_signal", "s"),
    ("metrics.from_rows.s", "metrics.from_rows", "s"),
)


def self_times(spans: dict) -> np.ndarray:
    """Each span's duration minus the time its child spans cover."""
    duration = spans["end"] - spans["start"]
    covered = np.zeros_like(duration)
    nested = spans["parent"] >= 0
    np.add.at(covered, spans["parent"][nested], duration[nested])
    return duration - covered


def derive(calls: list) -> dict:
    """Per-layer metrics from the spans of each traced CLI call.

    Times, counts and work are per call (summed over a call's spans, averaged
    over calls); percentiles are over all spans of the name; shares are a
    layer's time as a percentage of ``cli.main.s``.  Byte counts are
    computed from LU fill, not measured.
    """
    n_calls = len(calls)
    names = np.concatenate([spans["name"] for spans in calls])
    durations_all = np.concatenate([spans["end"] - spans["start"] for spans in calls])
    selfs_all = np.concatenate([self_times(spans) for spans in calls])
    works_all = np.concatenate([spans["work"] for spans in calls])
    stats = {}
    for name_id, name in enumerate(SPAN_NAMES):
        mask = names == name_id
        durations = durations_all[mask]
        works = works_all[mask]
        count = durations.size
        stats[name] = {
            "s": float(durations.sum()) / n_calls,
            "self_s": float(selfs_all[mask].sum()) / n_calls,
            "count": count / n_calls,
            "work": float(works.sum()) / n_calls,
            "p50_us": float(np.percentile(durations, 50)) * 1e6 if count else 0.0,
            "p99_us": float(np.percentile(durations, 99)) * 1e6 if count else 0.0,
            "computed_bytes": (BYTES_PER_LU_ENTRY * float(works.mean())
                               if count else 0.0),
        }
    total = stats[ROOT]["s"]
    for entry in stats.values():
        entry["share"] = 100.0 * entry["s"] / total
    metrics = {metric: stats[span][stat] for metric, span, stat in PER_LAYER}
    metrics["trace.spans"] = names.size / n_calls
    return metrics
