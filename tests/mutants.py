"""Known single-line faults, each with the tests that catch it.

Each row of ``MUTANTS`` plants one fault in ``src/hrnet/``: the module, the
exact old text (which must occur there exactly once), the new text, and the
ids of tests that fail under it, at least one of them not a golden.

    python tests/mutants.py [NAME ...]

copies ``src/``, ``tests/``, ``configs/``, ``pyproject.toml`` and ``README.md``
into a temporary directory, applies one row at a time (every row, or the
named ones) and runs only that row's tests with ``-x -q -p no:cacheprovider``.
It prints killed or survived per row, and exits non-zero if a row survives,
if its old text does not occur exactly once, or if its tests fail to run.
Pytest does not collect this file, since its name does not match
``test_*.py``; ``tests/test_mutants.py`` checks the table against the tree.
A change that moves a mutated line updates its row in the same change.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time
from typing import NamedTuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "configs", "pyproject.toml", "README.md")


class Mutant(NamedTuple):
    module: str  # under src/hrnet/
    old: str
    new: str
    tests: tuple  # pytest ids, run in this order; the first failure kills the row


MUTANTS = {
    # a boundary face's flux points the wrong way
    "flux-flipped": Mutant(
        "domain.py", "coef * (partner - uf)", "coef * (uf - partner)",
        ("tests/test_domain.py::test_boundary_flux_value",
         "tests/test_coupling_oracle.py::test_record_amplification")),
    # the assembled operator adds the coupling to its diagonal
    "coupling-diagonal-added": Mutant(
        "domain.py", "np.subtract.at(data, ", "np.add.at(data, ",
        ("tests/test_domain.py::test_matrix_route_matches_stencil_route",
         "tests/test_ensemble_properties.py::test_network_matrix_equals_per_face_loop")),
    "mu-without-factor-2": Mutant(
        "core.py", "min(2.0 * eta1 * params.d,", "min(eta1 * params.d,",
        ("tests/test_params.py::test_mu_direct_substitution",)),
    "record-step-off-by-one": Mutant(
        "dynamics.py", "k % cfg.record_every == 0", "k % cfg.record_every == 1",
        ("tests/test_metrics.py::test_record_trajectory_shapes_and_invariants",
         "tests/test_coupling_oracle.py::test_record_amplification")),
    "1d-correction-added": Mutant(
        "dynamics.py", "y -= np.matmul(c, self._columns)", "y += np.matmul(c, self._columns)",
        ("tests/test_coupling_oracle.py::test_record_amplification",
         "tests/test_capacitance_solver.py::test_1d_solver_matches_splu")),
    "guard-tolerance-not-squared": Mutant(
        "dynamics.py", "linear_tol ** 2 * scale", "linear_tol * scale",
        ("tests/test_capacitance_solver.py::test_wrong_2d_solve_fails_the_residual_guard",)),
    "gronwall-prefactor-min": Mutant(
        "metrics.py", "(max(c.c1, 1.0) / lo)", "(min(c.c1, 1.0) / lo)",
        ("tests/test_metrics.py::test_from_rows_derives_envelope_and_thresholds_per_row",)),
    "matched-gap-without-area": Mutant(
        "metrics.py", "pair_gap * pair_gap * face_area, axis=1", "pair_gap * pair_gap, axis=1",
        ("tests/test_metrics.py::test_stimulation_signal_2d_area_weighting",)),
    "energy-monitor-without-half": Mutant(
        "metrics.py", "consts.r_star * 0.5 * (b[:-1] + b[1:])", "consts.r_star * (b[:-1] + b[1:])",
        ("tests/test_metrics.py::test_energy_monitor_flags_violation",)),
    # the sweep's tail measured from the first record, not back from the last
    "tail-from-the-start": Mutant(
        "metrics.py", "t >= t[-1] - fraction * (t[-1] - t[0])",
        "t >= t[0] + fraction * (t[-1] - t[0])",
        ("tests/test_acceptance.py::test_coupling_sweep_criterion_catches_a_stalled_synchronization",)),
    "input-current-flipped": Mutant(
        "dynamics.py", "du += params.J", "du -= params.J",
        ("tests/test_dynamics.py::test_reaction_at_origin",)),
    "rk4-third-stage-weight": Mutant(
        "dynamics.py", "2 * c + d)", "c + d)",
        ("tests/test_dynamics.py::test_rk4_fourth_order_self_convergence",
         "tests/test_coupling_oracle.py::test_record_amplification")),
    "cfl-without-volume": Mutant(
        "dynamics.py", "p * domain.face_area / domain.cell_volume", "p * domain.face_area",
        ("tests/test_dynamics.py::test_cfl_bound_counts_the_coupled_boundary_rows",)),
    "rk4-second-stage-weight": Mutant(
        "dynamics.py", "(a + 2 * b + ", "(a + b + ",
        ("tests/test_coupling_oracle.py::test_record_amplification",
         "tests/test_dynamics.py::test_rk4_fourth_order_self_convergence")),
    # np.add.reduceat adds each row in order, not in a row sum's pairwise order
    "group-sums-by-reduceat": Mutant(
        "metrics.py", "np.sum(pair_gap * pair_gap * face_area, axis=1)",
        "np.add.reduceat((pair_gap * pair_gap * face_area).ravel(), "
        "np.arange(0, pair_gap.size, pair_gap.shape[1]))",
        ("tests/test_metrics_properties.py::test_observables_equal_per_pair_oracle",)),
    # a row sum over another layout adds in another order
    "pair-block-fortran-order": Mutant(
        "metrics.py", "diff = fields.take(i[s:s + size], axis=1)",
        "diff = np.asfortranarray(fields.take(i[s:s + size], axis=1))",
        ("tests/test_metrics_properties.py::test_observables_equal_per_pair_oracle",)),
}


def run(mutants: dict, out=sys.stdout) -> int:
    """Apply each of ``mutants`` alone to a copy of the tree and run its tests;
    0 if every row is killed, else 1."""
    bad = 0
    with tempfile.TemporaryDirectory(prefix="hrnet-mutants-") as tmp:
        work = pathlib.Path(tmp)
        for name in COPIED:
            (shutil.copytree if (ROOT / name).is_dir() else shutil.copy2)(ROOT / name, work / name)
        for name, m in mutants.items():
            path = work / "src" / "hrnet" / m.module
            text = path.read_text()
            if text.count(m.old) != 1:
                print(f"{name}: old text occurs {text.count(m.old)} times in {m.module}",
                      file=out)
                bad += 1
                continue
            path.write_text(text.replace(m.old, m.new))
            start = time.perf_counter()
            try:
                code = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     *m.tests], cwd=work, env={**os.environ, "PYTHONPATH": str(work / "src")},
                    stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
                ).returncode
            finally:
                path.write_text(text)
            # pytest's exit code 1: tests ran and one failed; any other is an error
            verdict = {0: "survived", 1: "killed"}.get(code, f"error (pytest exit {code})")
            print(f"{name}: {verdict} ({time.perf_counter() - start:.1f} s)", file=out)
            bad += verdict != "killed"
    return 1 if bad else 0


def main(argv) -> int:
    unknown = [name for name in argv if name not in MUTANTS]
    if unknown:
        print(f"unknown mutants {unknown}; known: {', '.join(MUTANTS)}", file=sys.stderr)
        return 2
    return run({name: MUTANTS[name] for name in argv or MUTANTS})


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
