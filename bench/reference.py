"""Reference artifacts and the check of each call's artifacts against them.

References live in ``reference/<workload>/seed<k>/<artifact>.xz``, one set
per initial-condition variant k (see ``workloads.VARIANTS``).  They were
written from the commit that added the benchmark by running this file:

    python3 bench/reference.py

A call's artifacts pass when, for every artifact of its workload:

- CSV: the header line is identical, there are as many rows with as many
  cells, every numeric cell lies within ``RTOL`` of the reference, relative,
  with an absolute floor of ``ATOL_SCALE`` times the largest magnitude in its
  reference column, and every other cell is identical.  The runs are not
  chaotic: a 1e-13 perturbation of the initial data moves no column by more
  than 2.3e-10 relative at t=50, so rounding-order changes stay far inside
  ``RTOL``.
- report.txt: the text between numbers is identical and every number lies
  within ``REPORT_RTOL`` of the reference.  The report prints some values
  with four significant digits, so a change in the last bits can flip its
  last digit; the CSV check above is the tight one.

Byte identity with the reference is counted separately.
"""

from __future__ import annotations

import lzma
import math
import os
import re
import shutil
import sys

from workloads import VARIANTS, WORKLOADS

RTOL = 1e-9
ATOL_SCALE = 1e-12
REPORT_RTOL = 1e-3
REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "reference")

_NUMBER = re.compile(r"[-+]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][-+]?\d+)?")


def reference_path(workload_name, seed, artifact):
    return os.path.join(REFERENCE_DIR, workload_name, f"seed{seed % VARIANTS}",
                        artifact + ".xz")


def _close(a, b, rtol, atol):
    if a == b or (math.isnan(a) and math.isnan(b)):
        return True
    return abs(a - b) <= rtol * max(abs(a), abs(b)) + atol


def _number(cell):
    try:
        return float(cell)
    except ValueError:
        return None


def compare_csv(got: str, ref: str):
    """None if ``got`` matches ``ref`` within tolerance, else the first difference."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if got_lines[:1] != ref_lines[:1]:
        return "header differs"
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines) - 1} rows, reference has {len(ref_lines) - 1}"
    got_rows = [line.split(",") for line in got_lines[1:]]
    ref_rows = [line.split(",") for line in ref_lines[1:]]
    scale = {}
    for row in ref_rows:
        for col, cell in enumerate(row):
            value = _number(cell)
            if value is not None and math.isfinite(value):
                scale[col] = max(scale.get(col, 0.0), abs(value))
    for r, (got_row, ref_row) in enumerate(zip(got_rows, ref_rows), start=1):
        if len(got_row) != len(ref_row):
            return f"row {r}: {len(got_row)} cells, reference has {len(ref_row)}"
        for col, (g, f) in enumerate(zip(got_row, ref_row)):
            gv, fv = _number(g), _number(f)
            if gv is None or fv is None:
                if g != f:
                    return f"row {r} column {col + 1}: {g!r} != {f!r}"
            elif not _close(gv, fv, RTOL, ATOL_SCALE * scale.get(col, 0.0)):
                return f"row {r} column {col + 1}: {g} != {f}"
    return None


def compare_report(got: str, ref: str):
    """None if ``got`` matches ``ref`` within tolerance, else the first difference."""
    got_lines, ref_lines = got.splitlines(), ref.splitlines()
    if len(got_lines) != len(ref_lines):
        return f"{len(got_lines)} report lines, reference has {len(ref_lines)}"
    for i, (g, f) in enumerate(zip(got_lines, ref_lines), start=1):
        if _NUMBER.sub("#", g) != _NUMBER.sub("#", f):
            return f"report line {i}: text differs"
        for a, b in zip(_NUMBER.findall(g), _NUMBER.findall(f)):
            if not _close(float(a), float(b), REPORT_RTOL, 1e-12):
                return f"report line {i}: {a} != {b}"
    return None


def check_call(out_dir, workload, seed):
    """(problem or None, byte-identical) for one call's artifacts."""
    identical = True
    for artifact in workload.artifacts:
        with lzma.open(reference_path(workload.name, seed, artifact), "rb") as handle:
            ref = handle.read()
        try:
            with open(os.path.join(out_dir, artifact), "rb") as handle:
                got = handle.read()
        except OSError as err:
            return f"{artifact}: {err.strerror}", False
        if got == ref:
            continue
        identical = False
        compare = compare_report if artifact == "report.txt" else compare_csv
        problem = compare(got.decode("utf-8", "replace"), ref.decode("utf-8"))
        if problem is not None:
            return f"{artifact}: {problem}", False
    return None, identical


def main():
    """Rewrite every reference from the program in this checkout."""
    from worker import import_hrnet

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    import_hrnet(os.path.join(root, "src"))
    from hrnet.cli import main as cli_main

    work = os.path.join(root, ".bench_work", "reference")
    try:
        for workload in WORKLOADS.values():
            for seed in range(VARIANTS):
                os.makedirs(work, exist_ok=True)
                config = os.path.join(work, "run.ini")
                with open(config, "w", encoding="utf-8") as handle:
                    handle.write(workload.config_text(seed))
                out = os.path.join(work, "out")
                code = cli_main(workload.argv(config, out))
                if code != 0:
                    raise SystemExit(f"{workload.name} seed {seed}: exit code {code}")
                for artifact in workload.artifacts:
                    path = reference_path(workload.name, seed, artifact)
                    os.makedirs(os.path.dirname(path), exist_ok=True)
                    with open(os.path.join(out, artifact), "rb") as handle:
                        data = handle.read()
                    with open(path, "wb") as handle:
                        handle.write(lzma.compress(data, preset=9 | lzma.PRESET_EXTREME))
                shutil.rmtree(work)
                print(f"{workload.name} seed {seed}: written", file=sys.stderr)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work))
        except OSError:
            pass  # a benchmark run is using it
    return 0


if __name__ == "__main__":
    sys.exit(main())
