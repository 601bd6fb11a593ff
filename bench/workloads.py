"""The benchmark's workloads and the run configs generated for them.

Every workload is one closed-loop ``hrnet`` CLI command (a call starts only
after the previous one returned), run in a single process with the
IMEX-Euler scheme at dt = 2e-3.  The program sees only the INI files written
here.  The workload seed selects one of ``VARIANTS`` initial conditions and is
written into ``[initial] seed`` as ``seed % VARIANTS``; the reference
artifacts under ``reference/`` are pinned for exactly those variants.

Why these three, and what was left out:

- ``observe-1d-n32`` has N=32 on a ring matching (496 neuron pairs).  The
  ``metrics`` observer takes about 70 % of a call; stepping is light.
- ``solve-2d-128`` is the unit square at 128 x 128 cells with N=4.  Sparse LU
  factorization and triangular solves dominate; 1D runs never reach this
  size, so they are its control.
- ``sweep-1d-p`` runs the shipped ``configs/default.ini`` (1D, 128 cells,
  N=2), shortened to t=4, for five values of the coupling strength p with
  ``--jobs 1``.  Per-step Python overhead in ``dynamics`` dominates (about
  78 % of a call), as in the stock run users make most.  Its five members
  let ensemble batching show; the single-run workloads are batching's
  control.  It has the shape of the most expensive verify criterion (#8, a
  coupling sweep).
- Left out: the stock ``simulate`` of ``configs/default.ini`` itself (same
  layers as ``sweep-1d-p``; on a shared 2-core box its raw throughput spread
  reached 26.5 % between ten 20-second runs, over the largest allowed bound
  of 25 %; it was dropped before the kernel-relative ``wall_rel`` existed
  and has not been measured with it), ``hrnet verify`` (one run takes about 48 s), 2D at 256 x 256
  cells with N=4 (3.3 s to factor, 72 ms per step, 41 M LU fill) and
  ``sweep --jobs 2`` (two workers on two shared cores time too noisily).
"""

from __future__ import annotations

from dataclasses import dataclass

VARIANTS = 4

_STOCK_PARAMETERS = {
    "a": "3.0", "b": "1.0", "alpha": "1.0", "beta": "5.0", "q": "0.4",
    "r": "0.1", "c": "-1.6", "J": "3.25", "d": "1.0", "p": "1.0",
}
_STOCK_METRICS = {
    "tolerance": "0.05", "entry_slack": "0.10", "decay_tolerance": "0.10",
    "window_fraction": "0.5", "tail_fraction": "0.2", "floor": "1e-14",
}
DT = 2e-3


def _ring(n):
    """Ring matching: left side pairs 1-2,3-4,..., right side 2-3,...,n-1."""
    left = ",".join(f"{i}-{i + 1}" for i in range(1, n, 2))
    right = ",".join([f"{i}-{i + 1}" for i in range(2, n, 2)] + [f"{n}-1"])
    return left, right


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    n_neurons: int
    cells: tuple
    matching: dict
    t_end: float
    record_every: int
    sweep_param: str = ""
    sweep_values: tuple = ()
    # reference kernel in worker.KERNELS: the same kind of work as the bottleneck
    kernel: str = "small-array"

    @property
    def command(self) -> str:
        return "sweep" if self.sweep_values else "simulate"

    @property
    def artifacts(self) -> tuple:
        if self.command == "sweep":
            return ("sweep.csv",)
        return ("trajectory.csv", "report.txt")

    @property
    def members(self) -> tuple:
        """Parameter overrides of each run member: one per sweep value."""
        if self.command == "sweep":
            return tuple({self.sweep_param: v} for v in self.sweep_values)
        return ({},)

    @property
    def n_steps(self) -> int:
        return round(self.t_end / DT)

    @property
    def cell_steps(self) -> int:
        """N x cells x steps summed over members: the work one call does."""
        n_cells = 1
        for n in self.cells:
            n_cells *= n
        return self.n_neurons * n_cells * self.n_steps * len(self.members)

    def config_text(self, seed: int) -> str:
        """The INI run config of this workload for ``seed``."""
        dim = len(self.cells)
        sections = {
            "parameters": {**_STOCK_PARAMETERS, "n_neurons": str(self.n_neurons)},
            "domain": {
                "dim": str(dim),
                "extents": ",".join(["1.0"] * dim),
                "cells": ",".join(str(n) for n in self.cells),
                "eta_mode": "discrete",
            },
            "matching": self.matching,
            "initial": {"kind": "uniform-random", "seed": str(seed % VARIANTS),
                        "offset": "1.0", "noise": "0.1"},
            "integrator": {"scheme": "imex-euler", "dt": repr(DT),
                           "t_end": repr(self.t_end),
                           "record_every": str(self.record_every),
                           "linear_tol": "1e-10"},
            "metrics": _STOCK_METRICS,
            "output": {"directory": "out"},
        }
        lines = []
        for section, values in sections.items():
            lines.append(f"[{section}]")
            lines.extend(f"{key} = {value}" for key, value in values.items())
            lines.append("")
        return "\n".join(lines)

    def argv(self, config_path: str, out_dir: str) -> list:
        argv = [self.command, "--config", config_path, "--out", out_dir]
        if self.command == "sweep":
            argv += ["--param", self.sweep_param,
                     "--values", ",".join(repr(v) for v in self.sweep_values),
                     "--jobs", "1"]
        return argv


_LEFT32, _RIGHT32 = _ring(32)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="observe-1d-n32",
        why="1D, 128 cells, N=32 on a ring (496 pairs): the metrics observer "
            "(pair differences, K) takes about 70 % of a call, stepping is light",
        n_neurons=32, cells=(128,),
        matching={"segment_left": f"side=left pairs={_LEFT32}",
                  "segment_right": f"side=right pairs={_RIGHT32}"},
        t_end=1.0, record_every=50,
    ),
    Workload(
        name="solve-2d-128",
        why="2D 128x128 cells, N=4: sparse LU factor and solve dominate, which "
            "1D bypasses. 256x256 left out: 3.3 s factor, 72 ms/step, 41 M fill",
        n_neurons=4, cells=(128, 128),
        matching={"segment_left": "side=left pairs=1-2,3-4",
                  "segment_right": "side=right pairs=1-2,3-4",
                  "segment_bottom": "side=bottom pairs=2-3,4-1",
                  "segment_top": "side=top pairs=2-3,4-1"},
        t_end=0.3, record_every=20, kernel="sparse-solve",
    ),
    Workload(
        name="sweep-1d-p",
        why="configs/default.ini swept over p=0,0.5,2,8,32: per-step Python "
            "overhead in dynamics; shows batching; shape of verify #8 (verify, "
            "48 s a run, and --jobs 2, too noisy on 2 cores, left out)",
        n_neurons=2, cells=(128,), matching={"full": "1-2"},
        t_end=4.0, record_every=50,
        sweep_param="p", sweep_values=(0.0, 0.5, 2.0, 8.0, 32.0),
    ),
)}
