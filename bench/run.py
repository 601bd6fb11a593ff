"""hrnet benchmark: one run of one workload.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The program is imported from the ``src/`` of the checkout this file sits in.
A run writes the workload's INI config, generated from the seed, into
``.bench_work/``, starts one fresh worker process that calls
``hrnet.cli.main`` for about S seconds (see ``worker.py``), checks every
call's artifacts against the references (see ``reference.py``) and prints
an ``env`` line, a ``check`` line and, last, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones in BENCHMARK.json:

- ``wall_rel``: the median over untraced calls of the call's wall time
  divided by the time of the workload's fixed reference kernel
  (``worker.KERNELS``) around it, the mean of the kernel timed just before and
  just after the call in the same process.  On a shared machine whose speed
  drifts by a quarter over minutes the ratio moves less than the seconds do;
- ``setup_s``: median time of load_config + build_setup + Integrator for
  every run member, timed as its own call sequence after every call and
  again at the end until there are enough samples;
- ``peak_rss_mb``: peak RSS of the worker process.

The ``check`` line carries the raw figures: ``wall_s``, the median wall time
of a ``cli.main`` call with its artifacts written (interpreter start and
imports excluded), its sample count, ``kernel_s``, and ``cell_steps_per_s``,
N x cells x steps summed over members, over ``wall_s``.

With ``--trace 1`` they are the per-layer metrics of ``tracing.PER_LAYER``,
from the spans of every other call, plus ``trace.spans`` and
``trace.overhead_pct``, the median traced call against the median untraced
call of the same run.

Every call counts as attempted.  A call fails when it raises, exits nonzero
or its artifacts do not match the reference.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

from reference import check_call
from worker import THREAD_VARS
from workloads import VARIANTS, WORKLOADS

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
# a run must end within 180 s; leave room for checking and cleanup
WORKER_LIMIT_S = 165.0


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def git_sha():
    try:
        done = subprocess.run(
            ["git", f"--git-dir={os.path.join(ROOT, '.git')}", "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def load_spans(path):
    """The per-call span arrays the worker saved, in call order."""
    import numpy as np

    calls = {}
    with np.load(path) as data:
        for key in data.files:
            call, field = key.split(".")
            calls.setdefault(int(call), {})[field] = data[key]
    return [calls[k] for k in sorted(calls)]


def run_worker(spec, started):
    spec_path = os.path.join(spec["work"], "spec.json")
    with open(spec_path, "w", encoding="utf-8") as handle:
        json.dump(spec, handle)
    env = dict(os.environ)
    for name in THREAD_VARS:
        env.setdefault(name, "1")
    limit = WORKER_LIMIT_S - (time.perf_counter() - started)
    try:
        done = subprocess.run([sys.executable, os.path.join(BENCH, "worker.py"), spec_path],
                              cwd=ROOT, env=env, stdout=sys.stderr, timeout=limit)
    except subprocess.TimeoutExpired:
        print(f"benchmark: worker did not finish within {limit:.0f} s", file=sys.stderr)
        return None
    if done.returncode != 0:
        print(f"benchmark: worker exited with code {done.returncode}", file=sys.stderr)
        return None
    with open(spec["result"], encoding="utf-8") as handle:
        return json.load(handle)


def check_calls(calls, workload, seed):
    """(failed, byte-identical) counts over every call; problems go to stderr."""
    failed = identical = 0
    for k, call in enumerate(calls):
        if call["code"] != 0:
            problem, same = f"exit {call['code']}", False
        else:
            problem, same = check_call(call["out"], workload, seed)
        if problem is not None:
            failed += 1
            print(f"benchmark: call {k} failed: {problem}", file=sys.stderr)
        identical += same
    return failed, identical


def measure(args, workload, work, started):
    config = os.path.join(work, f"{workload.name}.ini")
    with open(config, "w", encoding="utf-8") as handle:
        handle.write(workload.config_text(args.seed))
    spec = {
        "workload": workload.name, "src": os.path.join(ROOT, "src"),
        "config": config, "seconds": args.seconds, "trace": bool(args.trace),
        "work": work, "calls_dir": os.path.join(work, "calls"),
        "result": os.path.join(work, "result.json"),
        "spans": os.path.join(work, "spans.npz"),
    }
    result = run_worker(spec, started)
    if result is None:
        return None
    calls = result["calls"]
    failed, identical = check_calls(calls, workload, args.seed)
    walls = {mode: [c["wall"] for c in calls if c["mode"] == mode]
             for mode in ("plain", "traced")}
    wall = statistics.median(walls["plain"])
    kernel = statistics.median(c["kernel"] for c in calls)
    wall_rel = statistics.median(c["wall"] / c["kernel"]
                                 for c in calls if c["mode"] == "plain")
    if args.trace:
        from tracing import derive

        values = derive(load_spans(spec["spans"]))
        values["trace.overhead_pct"] = 100.0 * (statistics.median(walls["traced"]) - wall) / wall
    else:
        values = {
            "wall_rel": wall_rel,
            "setup_s": statistics.median(result["setup_s"]),
            "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
        }
    env = {**result["env"], "git_sha": git_sha(), "workload": workload.name,
           "seed": args.seed, "ic_seed": args.seed % VARIANTS}
    check = {"attempted": len(calls), "failed": failed, "byte_identical": identical,
             "wall_s": wall, "wall_samples": len(walls["plain"]),
             "traced_samples": len(walls["traced"]), "kernel_s": kernel,
             "cell_steps_per_s": workload.cell_steps / wall,
             "setup_samples": len(result["setup_s"])}
    return values, env, check


def main(argv=None):
    args = parse_args(argv)
    started = time.perf_counter()
    if not os.path.isfile(os.path.join(ROOT, "src", "hrnet", "cli.py")):
        print(f"benchmark: no hrnet sources under {os.path.join(ROOT, 'src')}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        declared = json.load(handle)["per_layer" if args.trace else "end_to_end"]
    workload = WORKLOADS[args.workload]
    work = os.path.join(ROOT, ".bench_work", f"{workload.name}-{args.seed}-{os.getpid()}")
    os.makedirs(work)
    try:
        measured = measure(args, workload, work, started)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # another run is using it
    if measured is None:
        return 1
    values, env, check = measured
    names = [m["name"] for m in declared]
    if sorted(names) != sorted(values):
        print(f"benchmark: measured {sorted(values)}, declared {sorted(names)}",
              file=sys.stderr)
        return 1
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    print("env " + json.dumps(env, sort_keys=True))
    print("check " + json.dumps(check))
    print(json.dumps({"correct": check["failed"] == 0, "attempted": check["attempted"],
                      "failed": check["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
