"""One benchmark run of one workload, in a fresh process.

Usage: ``python3 bench/worker.py SPEC.json``; ``run.py`` writes the spec and
starts this process.

Calls ``hrnet.cli.main`` on the workload's arguments until the time budget is
spent, each call writing into its own output directory.  Every call is timed,
the first one too: a user pays its one-time costs on every CLI invocation.
Before the first call and after every call it also times the workload's
reference kernel, a fixed computation of the same kind as the workload's
bottleneck that does not involve hrnet; each call is paired with the mean of
the kernel times just before and just after it, so that ``run.py`` can divide
out the machine's speed around that call.
Untraced, it also times the set-up sequence on its own after every call, and
repeats it at the end until enough samples ran, so that the set-up samples
are spread over the whole run like the calls.  Traced, every other
call is traced and the spans are written out when the run ends.  The result
(wall time, kernel time and exit status of each call, set-up times, peak RSS
of this process, environment) goes to the JSON file the spec names.
"""

from __future__ import annotations

import dataclasses
import json
import os
import platform
import resource
import sys
import time
import traceback

import numpy as np

from workloads import WORKLOADS

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# stop starting calls after this long even if too few calls ran, so a much
# slower program still ends within the run's time limit
HARD_CAP_S = 100.0
MIN_PLAIN_CALLS = 3
SETUP_MIN_REPS = 3
SETUP_SECONDS = 2.0


def import_hrnet(src):
    """Import hrnet from ``src`` only, never from an installed copy."""
    src = os.path.abspath(src)
    sys.path.insert(0, src)
    import hrnet

    where = os.path.dirname(os.path.abspath(hrnet.__file__))
    if where != os.path.join(src, "hrnet"):
        raise ImportError(f"hrnet was imported from {where}, not from {src}")
    return hrnet


def small_array_kernel():
    """Seconds for 3000 rounds of small-array numpy arithmetic and norms, the
    kind of work one 1D step does."""
    x = np.linspace(0.0, 1.0, 256)
    y = x.copy()
    t0 = time.perf_counter()
    for _ in range(3000):
        x2 = x * x
        y = 0.5 * y + 1e-3 * (3.0 * x2 - x2 * x + 1.0)
        np.linalg.norm(y)
    return time.perf_counter() - t0


def sparse_solve_kernel():
    """Seconds to factor a fixed 160 x 160 2D backward-Euler system, solve with
    it 100 times and sum a 48 MB array 20 times: the factorization, the
    triangular solves and the main-memory traffic a 2D call is made of (its
    own factor is about 100 MB, the kernel's about 27 MB).  Each part follows
    the shared machine's speed in its own way and their sum follows a call
    more closely than any one of them; at about half a second it also
    averages over the second-scale changes of that speed.  Nothing is kept
    between kernels, so they hold no memory while the program runs."""
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

    n = 160
    lap1 = sp.diags([np.ones(n - 1), np.full(n, -2.0), np.ones(n - 1)], [-1, 0, 1])
    lap = sp.kron(lap1, sp.identity(n)) + sp.kron(sp.identity(n), lap1)
    system = (sp.identity(n * n) - 0.5 * lap).tocsc()
    b = np.ones(n * n)
    t0 = time.perf_counter()
    lu = spla.splu(system)
    for _ in range(100):
        b = lu.solve(b)
    seconds = time.perf_counter() - t0
    del lu
    big = np.ones(6_000_000)
    t0 = time.perf_counter()
    for _ in range(20):
        big.sum()
    return seconds + time.perf_counter() - t0


KERNELS = {"small-array": small_array_kernel, "sparse-solve": sparse_solve_kernel}


def _call(main, argv, tracer):
    """(exit code or error text, spans or None) of one CLI call."""
    try:
        if tracer is None:
            return main(argv), None
        return tracer.call(main, argv)
    except Exception as err:  # a crashing call is a failed call, not a failed run
        traceback.print_exc()
        return f"{type(err).__name__}: {err}", None


def run_calls(spec, workload, main, tracer, setup):
    """Call the CLI until ``spec["seconds"]`` of calls ran; with a tracer,
    calls alternate untraced and traced.  ``setup``, if given, is timed once
    after every call."""
    calls, spans, setups = [], [], []
    started = time.perf_counter()
    # untraced, the median needs a few calls; traced, one of each kind
    min_calls = MIN_PLAIN_CALLS if tracer is None else 2
    kernel = KERNELS[workload.kernel]
    before = kernel()
    while True:
        traced = tracer is not None and len(calls) % 2 == 1
        out = os.path.join(spec["calls_dir"], str(len(calls)))
        argv = workload.argv(spec["config"], out)
        if traced:
            tracer.install()
        try:
            t0 = time.perf_counter()
            code, call_spans = _call(main, argv, tracer if traced else None)
            wall = time.perf_counter() - t0
        finally:
            if traced:
                tracer.restore()
        after = kernel()
        calls.append({"mode": "traced" if traced else "plain", "code": code,
                      "wall": wall, "kernel": (before + after) / 2, "out": out})
        before = after
        if setup is not None:
            setups.append(setup())
        if call_spans is not None:
            spans.append(call_spans)
        if time.perf_counter() - started > HARD_CAP_S:
            break
        if len(calls) >= min_calls and sum(c["wall"] for c in calls) >= spec["seconds"]:
            break
    return calls, spans, setups


def setup_timer(spec, workload):
    """A function timing load_config + build_setup + Integrator for every
    member once."""
    from hrnet.config import load_config
    from hrnet.dynamics import Integrator
    from hrnet.runner import build_setup

    def once():
        t0 = time.perf_counter()
        cfg = load_config(spec["config"])
        for change in workload.members:
            member = (dataclasses.replace(cfg, params=cfg.params.replace(**change))
                      if change else cfg)
            build_setup(member)
            Integrator(member.params, member.domain, member.matching, member.integrator)
        return time.perf_counter() - t0

    return once


def environment():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {name: os.environ.get(name) for name in THREAD_VARS},
    }


def main(spec_path):
    with open(spec_path, encoding="utf-8") as handle:
        spec = json.load(handle)
    workload = WORKLOADS[spec["workload"]]
    import_hrnet(spec["src"])
    from hrnet.cli import main as cli_main

    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    setup = None if tracer is not None else setup_timer(spec, workload)
    calls, spans, setups = run_calls(spec, workload, cli_main, tracer, setup)
    while setup is not None and (len(setups) < SETUP_MIN_REPS
                                 or sum(setups) < SETUP_SECONDS):
        setups.append(setup())
    result = {
        "calls": calls,
        "setup_s": setups,
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "env": environment(),
    }
    if spans:
        np.savez(spec["spans"], **{f"{i}.{key}": value
                                   for i, call in enumerate(spans)
                                   for key, value in call.items()})
    with open(spec["result"], "w", encoding="utf-8") as handle:
        json.dump(result, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
