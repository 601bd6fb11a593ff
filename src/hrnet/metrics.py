"""Analysis observables along trajectories.

Everything the verification harness monitors lives here: pairwise difference
energies (plain and G-weighted), the boundary stimulation signal, the
boundary cross-term K with its companion identity probe, the decay and
absorbing-set envelopes, exponential rate fits, and the Monte-Carlo
asynchronous-degree estimator.

Two deliberate cautions are wired in rather than assumed away: the summed
K identity is computed on BOTH sides and reported as a ratio, and the
conditional decay envelope is only enforced on windows where the measured
stimulation signal actually exceeds the threshold.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields, replace

import numpy as np

from .core import DerivedConstants, HRParameters, entry_time
from .domain import BoundaryMatching, Domain, run_matching
from .dynamics import InitialCondition, IntegratorConfig, NetworkState, simulate_ensemble
from .errors import RunFailure


@dataclass(frozen=True)
class MetricsOptions:
    """Tolerances and window rules of the monitors and the report writers."""

    tolerance: float = 0.05
    entry_slack: float = 0.10
    decay_tolerance: float = 0.10
    window_fraction: float = 0.5
    tail_fraction: float = 0.2
    floor: float = 1e-14

    def __post_init__(self):
        # nan fails every comparison, so it would slip past the range checks
        # below and switch the monitors' checks off
        for f in fields(self):
            if not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        for name in ("tolerance", "entry_slack", "decay_tolerance"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        if not 0.0 < self.window_fraction <= 1.0:
            raise ValueError("window_fraction must lie in (0, 1]")
        if not 0.0 < self.tail_fraction <= 1.0:
            raise ValueError("tail_fraction must lie in (0, 1]")
        if self.floor <= 0:
            raise ValueError("floor must be > 0")


def trailing_window(t: np.ndarray, fraction: float) -> np.ndarray:
    """The mask of the times ``t`` in the trailing ``fraction`` of their range."""
    return t >= t[-1] - fraction * (t[-1] - t[0])


# the pairs i < j of n neurons in row-major order, computed once per n
_pairs = functools.cache(functools.partial(np.triu_indices, k=1))


def pair_differences(state: NetworkState, domain: Domain) -> np.ndarray:
    """Quadrature norms of u_i - u_j, v_i - v_j and w_i - w_j, each pair once.

    Returns a (3, ..., pairs) array over the state's batch axes, one column per
    pair i < j in row-major order.  Per block of pairs, one gather of each side
    and one row sum per member, pair and field.
    """
    # C order: a row reduction over another layout sums in another order
    fields = np.ascontiguousarray([state.u, state.v, state.w])
    i, j = _pairs(state.n_neurons)
    # blocks of at most 8192 cells per field over the whole batch, one pair at
    # least: 192 KB of differences, the fastest measured for 1D and for 2D rows
    size = max(1, 8192 * state.n_neurons // state.u.size)
    out = np.empty((*fields.shape[:-2], i.size))
    for s in range(0, i.size, size):
        diff = fields.take(i[s:s + size], axis=-2)
        diff -= fields.take(j[s:s + size], axis=-2)
        diff *= diff
        diff.sum(axis=-1, out=out[..., s:s + size])
    out *= domain.cell_volume
    return out


def stimulation_signal(state: NetworkState, matching: BoundaryMatching, p: float) -> float:
    """p times the squared membrane gaps integrated over matched boundary pieces.

    Sums over unordered pairs i < j; faces where a neuron is matched to
    itself contribute nothing.
    """
    return p * compute_K(state, matching).matched_gap


@dataclass(frozen=True)
class KResult:
    """Boundary cross-terms and both sides of their summed identity.

    ``k[i, j]`` integrates, over the whole boundary, the difference of
    coupling residuals (u_i - u_at_partner_of_i) - (u_j - u_at_partner_of_j)
    against (u_i - u_j).  ``boundary_diff_full`` is the ordered-pair sum of
    squared gaps over the whole boundary, recorded alongside ``k_sum`` so the
    relation between the two is measured, never presumed.  ``matched_gap``
    integrates the squared gaps only where the pair is matched, once per
    unordered pair: the stimulation signal before its factor p.
    """

    k: np.ndarray
    k_sum: float
    boundary_diff_full: float
    matched_gap: float


def compute_K(state: NetworkState, matching: BoundaryMatching) -> KResult:
    """Every boundary observable of each member of ``state``, from one gather of its
    face values and, for the matched gap, one per group of ``matching.face_groups``."""
    # take returns C order, so row sums add in the order of 1-D sums
    uf = state.u.take(matching.domain.face_cell, axis=-1)
    lead = uf.shape[:-2]
    # coupling residuals u_i - u_partner(i)
    resid = uf - uf.reshape(*lead, -1).take(matching.partner_index, axis=-1)
    area = matching.domain.face_area
    # (..., N, N, F): entry (i, j) summed over contiguous faces, as a row of its own
    du = uf[..., :, None, :] - uf[..., None, :, :]
    k = ((resid[..., :, None, :] - resid[..., None, :, :]) * du * area).sum(axis=-1)
    gap = (du * du * area).sum(axis=-1)
    # ordered pairs summed left to right in row-major order; the zero
    # diagonal leaves the running sum unchanged
    boundary_diff_full = gap.reshape(*lead, -1).cumsum(axis=-1).take(-1, axis=-1)
    # the pairs in matched_pairs order, then a zero that ends the running sum
    gaps = np.zeros((*lead, len(matching.matched_pairs) + 1))
    for at, faces, face_area in matching.face_groups:
        # on the faces where i is matched to j, resid[i] is u_i - u_j
        pair_gap = resid.reshape(*lead, -1).take(faces, axis=-1)
        gaps[..., at] = (pair_gap * pair_gap * face_area).sum(axis=-1)
    return KResult(k=k, k_sum=k.reshape(*lead, -1).sum(axis=-1),
                   boundary_diff_full=boundary_diff_full,
                   matched_gap=gaps.cumsum(axis=-1).take(-1, axis=-1))


@dataclass
class TrajectoryRecord:
    """Time series of every monitored scalar for one run.

    ``diff_energy_g`` has one column per unordered pair i < j, in row-major
    order, as in trajectory.csv's ``dE_i_j`` columns.  ``weighted_energy`` is
    the c1-weighted bracket monitored by the energy inequality;
    ``total_energy`` is the plain squared-norm sum the absorbing-set results
    bound.
    """

    t: np.ndarray
    total_energy: np.ndarray
    weighted_energy: np.ndarray
    gronwall_envelope: np.ndarray
    stimulation_s: np.ndarray
    threshold_literal: np.ndarray
    threshold_perpair: np.ndarray
    boundary_diff_full: np.ndarray
    k_sum: np.ndarray
    diff_energy_g: np.ndarray
    n_neurons: int
    consts: DerivedConstants

    SCALAR_FIELDS = (
        "t", "total_energy", "gronwall_envelope", "stimulation_s",
        "threshold_literal", "threshold_perpair", "boundary_diff_full", "k_sum",
    )
    # trajectory.csv's scalar columns named other than their field
    COLUMN_NAMES = {"stimulation_s": "stimulation_S", "k_sum": "K_sum"}

    def __len__(self) -> int:
        return self.t.shape[0]

    def columns(self) -> list:
        """trajectory.csv's header: the scalar fields, then ``dE_i_j`` (1-based) per pair."""
        i, j = _pairs(self.n_neurons)
        return ([self.COLUMN_NAMES.get(name, name) for name in self.SCALAR_FIELDS]
                + [f"dE_{a}_{b}" for a, b in zip(i + 1, j + 1)])

    def sync_total(self) -> np.ndarray:
        """Sum of G-weighted pair difference energies per row."""
        return self.diff_energy_g.sum(axis=1)

    @classmethod
    def from_rows(cls, rows, n_neurons, consts) -> "TrajectoryRecord":
        """The record of :class:`TrajectoryObserver` rows: the Gronwall envelope
        anchored at row 0's total energy, the thresholds repeated per row."""
        if not rows:
            raise ValueError("no rows recorded")
        table = np.array(rows, dtype=np.float64)
        t, total, weighted, stimulation, gap, k_sum = table[:, :6].T.copy()
        c, lo, rho0 = consts, min(consts.c1, 1.0), float(total[0])
        envelope = [(max(c.c1, 1.0) / lo) * math.exp(-c.r_star * tk) * rho0
                    + c.big_m * c.omega_measure / lo for tk in t.tolist()]
        return cls(t=t, total_energy=total, weighted_energy=weighted,
                   gronwall_envelope=np.array(envelope), stimulation_s=stimulation,
                   threshold_literal=np.full(len(t), c.big_r * c.omega_measure),
                   threshold_perpair=np.full(len(t), c.big_r_alt * c.omega_measure),
                   boundary_diff_full=gap, k_sum=k_sum, diff_energy_g=table[:, 6:].copy(),
                   n_neurons=n_neurons, consts=consts)


class TrajectoryObserver:
    """Row builder with no state of its own for one member, or a sequence of them
    as :class:`~hrnet.dynamics.Integrator` takes them.  ``observer(state, members)``
    returns one row per member of a (B, N, cells) batch, ``members`` being their
    positions in the sequence; ``observer(state)``, member 0's row of one (N, cells)
    state.  A row is float64: ``t``, the total and the c1-weighted energy, ``p *
    matched_gap``, ``boundary_diff_full``, ``k_sum``, then the G-weighted energy
    of every pair i < j in row-major order.  The record derives the envelope and
    threshold columns (:meth:`TrajectoryRecord.from_rows`).
    """

    def __init__(self, params, matching: BoundaryMatching, consts):
        params, consts = ([params], [consts]) if isinstance(params, HRParameters) else (params, consts)
        if len(consts) != len(params):
            raise ValueError("need one parameter set and set of derived constants per member")
        self.matching = matching
        self._constants = np.array([(m.p, c.c1, c.g) for m, c in zip(params, consts)])

    def __call__(self, state: NetworkState, members=0) -> np.ndarray:
        p, c1, g = self._constants.take(members, axis=0).T
        lead = state.u.shape[:-2]
        vol = self.matching.domain.cell_volume
        # per member, one row sum over its N * cells values
        u_energy, v_energy, w_energy = ((x * x).reshape(*lead, -1).sum(axis=-1) * vol
                                        for x in (state.u, state.v, state.w))
        u_sq, v_sq, w_sq = pair_differences(state, self.matching.domain)
        kres = compute_K(state, self.matching)
        rows = np.empty((*lead, 6 + u_sq.shape[-1]))
        for k, column in enumerate((state.t, u_energy + v_energy + w_energy,
                                    c1 * u_energy + v_energy + w_energy, p * kres.matched_gap,
                                    kres.boundary_diff_full, kres.k_sum)):
            rows[..., k] = column
        rows[..., 6:] = g[..., None] * u_sq + v_sq + w_sq
        return rows


def record_trajectory(ic, params: HRParameters, domain: Domain,
                      matching: BoundaryMatching, cfg: IntegratorConfig,
                      consts: DerivedConstants) -> TrajectoryRecord:
    """Run one simulation and collect the full observable record.

    On integration or linear-solve failure the :class:`~hrnet.errors.RunFailure`
    is raised, the rows recorded up to the failure on its ``rows``.  ``domain``
    must describe the matching's grid (else a ValueError).  This is the
    one-member case of :func:`record_trajectories`.
    """
    (record,) = record_trajectories([ic], [params], domain, matching, cfg, [consts])
    if isinstance(record, RunFailure):
        raise record
    return record


def record_trajectories(ics, params_list, domain: Domain,
                        matching: BoundaryMatching, cfg: IntegratorConfig,
                        consts_list) -> list:
    """Run an ensemble (see :func:`~hrnet.dynamics.simulate_ensemble`) and
    collect each member's observable record.

    Returns, per member in order, its :class:`TrajectoryRecord` or the
    :class:`~hrnet.errors.RunFailure` it failed with, which holds the rows
    recorded before the failure.  ``domain`` must describe the matching's
    grid (else a ValueError); a None matching couples no face.
    """
    matching = run_matching(params_list, domain, matching)  # the observer reads it
    observer = TrajectoryObserver(params_list, matching, consts_list)
    results = simulate_ensemble(ics, params_list, domain, matching, cfg, observer)
    return [result if isinstance(result, RunFailure)
            else TrajectoryRecord.from_rows(result.rows, params.n_neurons, consts)
            for params, consts, result in zip(params_list, consts_list, results)]


# ---------------------------------------------------------------------------
# envelope and monitor checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GronwallViolation:
    t: float
    energy: float
    bound: float


@dataclass(frozen=True)
class DecayWindow:
    """One maximal stretch of records with the stimulation signal above threshold."""

    t_start: float
    t_end: float
    n_rows: int
    envelope_ok: bool
    monotonic_ok: bool
    max_envelope_ratio: float


@dataclass
class EnvelopeReport:
    big_q: float
    gronwall_violations: list
    entry_allowed: float
    entry_time_observed: object
    entry_due: bool
    entry_ok: bool
    windows: list
    decay_ok: bool

    @property
    def ok(self) -> bool:
        return not self.gronwall_violations and self.entry_ok and self.decay_ok

    def lines(self) -> list:
        out = []
        status = "pass" if not self.gronwall_violations else "FAIL"
        out.append(
            f"gronwall envelope: {status} "
            f"({len(self.gronwall_violations)} violation(s))"
        )
        for v in self.gronwall_violations[:10]:
            out.append(f"  t={v.t:.6g}: energy {v.energy:.6e} > bound {v.bound:.6e}")
        if self.entry_time_observed is not None:
            out.append(
                f"absorbing entry: {'pass' if self.entry_ok else 'FAIL'} "
                f"(observed t={self.entry_time_observed:.6g}, "
                f"allowed t={self.entry_allowed:.6g}, radius Q={self.big_q:.6e})"
            )
        elif not self.entry_due:
            out.append(
                f"absorbing entry: not yet due "
                f"(allowed t={self.entry_allowed:.6g} exceeds the horizon)"
            )
        else:
            out.append(
                f"absorbing entry: FAIL (never observed below Q={self.big_q:.6e} "
                f"though due by t={self.entry_allowed:.6g})"
            )
        if not self.windows:
            out.append(
                "conditional decay: no records with stimulation above the "
                "per-pair threshold; check passes vacuously"
            )
        else:
            status = "pass" if self.decay_ok else "FAIL"
            out.append(f"conditional decay: {status} over {len(self.windows)} window(s)")
            for w in self.windows:
                out.append(
                    f"  window t=[{w.t_start:.6g}, {w.t_end:.6g}] rows={w.n_rows} "
                    f"envelope_ratio={w.max_envelope_ratio:.3e} "
                    f"monotonic={'yes' if w.monotonic_ok else 'NO'}"
                )
        return out


def envelope_check(record: TrajectoryRecord, consts: DerivedConstants,
                   opts: MetricsOptions = MetricsOptions()) -> EnvelopeReport:
    """Check the decay-plus-constant bound, absorbing entry, and conditional decay.

    The absorbing-entry deadline gets ``opts.entry_slack`` plus one record
    interval of slack, since entry is only observable at record times.  The
    conditional decay envelope is the theorem's exponential
    2 max(g,1) Q exp(-mu (t - t_start)) anchored at each window start, and
    window rows must also be non-increasing within ``opts.decay_tolerance``.
    """
    t = record.t
    violations = [
        GronwallViolation(float(tk), float(ek), float(bk))
        for tk, ek, bk in zip(t, record.total_energy, record.gronwall_envelope)
        if ek > bk * (1.0 + opts.tolerance)
    ]

    bound = entry_time(float(record.total_energy[0]), consts)
    interval = float(t[1] - t[0]) if len(record) > 1 else 0.0
    allowed = bound * (1.0 + opts.entry_slack) + interval
    below = np.flatnonzero(record.total_energy < consts.big_q)
    observed = float(t[below[0]]) if below.size else None
    due = float(t[-1]) >= allowed
    entry_ok = (observed is not None and observed <= allowed) or (
        observed is None and not due
    )

    sync = record.sync_total()
    above = record.stimulation_s > record.threshold_perpair
    # every maximal run of rows above threshold, as its first row and the row after its last
    edges = np.flatnonzero(np.diff(np.concatenate(([False], above, [False]))))
    windows = []
    amplitude = 2.0 * max(consts.g, 1.0) * consts.big_q
    for k0, k1 in edges.reshape(-1, 2):
        seg_t = t[k0:k1]
        seg_s = sync[k0:k1]
        env = amplitude * np.exp(-consts.mu * (seg_t - seg_t[0]))
        ratios = seg_s / (env * (1.0 + opts.decay_tolerance))
        increases = seg_s[1:] / np.maximum(seg_s[:-1], opts.floor)
        windows.append(DecayWindow(
            t_start=float(seg_t[0]),
            t_end=float(seg_t[-1]),
            n_rows=int(seg_s.size),
            envelope_ok=bool(np.all(ratios <= 1.0)),
            monotonic_ok=bool(np.all(increases <= 1.0 + opts.decay_tolerance)),
            max_envelope_ratio=float(ratios.max()),
        ))
    decay_ok = all(w.envelope_ok and w.monotonic_ok for w in windows)

    return EnvelopeReport(
        big_q=consts.big_q,
        gronwall_violations=violations,
        entry_allowed=allowed,
        entry_time_observed=observed,
        entry_due=due,
        entry_ok=entry_ok,
        windows=windows,
        decay_ok=decay_ok,
    )


@dataclass(frozen=True)
class EnergyViolation:
    t_mid: float
    lhs: float
    bound: float


@dataclass
class EnergyReport:
    """``max_lhs`` is the largest left-hand side over all intervals (-inf
    without intervals)."""

    rhs: float
    violations: list
    n_intervals: int
    max_lhs: float

    @property
    def ok(self) -> bool:
        return not self.violations

    def lines(self) -> list:
        status = "pass" if self.ok else "FAIL"
        out = [
            f"energy inequality monitor: {status} "
            f"({len(self.violations)} of {self.n_intervals} intervals violated, "
            f"rhs={self.rhs:.6e})"
        ]
        for v in self.violations[:10]:
            out.append(f"  t~{v.t_mid:.6g}: lhs {v.lhs:.6e} > bound {v.bound:.6e}")
        return out


def energy_monitor(record: TrajectoryRecord, consts: DerivedConstants,
                   opts: MetricsOptions = MetricsOptions()) -> EnergyReport:
    """Finite-difference check of the dissipation inequality between records.

    Per consecutive record pair: (B(t2) - B(t1)) / dt + r_star * (B(t1) +
    B(t2)) / 2 must stay below (c2 + c1^2/32) N |Omega| within
    ``opts.tolerance``, where B is the c1-weighted energy bracket.
    """
    rhs = (consts.c2 + consts.c1 * consts.c1 / 32.0) * record.n_neurons * consts.omega_measure
    bound = rhs * (1.0 + opts.tolerance)
    b = record.weighted_energy
    t = record.t
    lhs = (b[1:] - b[:-1]) / np.diff(t) + consts.r_star * 0.5 * (b[:-1] + b[1:])
    violations = [EnergyViolation(float(0.5 * (t[k] + t[k + 1])), float(lhs[k]), bound)
                  for k in np.flatnonzero(lhs > bound)]
    return EnergyReport(rhs=rhs, violations=violations, n_intervals=lhs.size,
                        max_lhs=float(lhs.max(initial=-math.inf)))


# ---------------------------------------------------------------------------
# rate fitting and the asynchronous degree
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RateFit:
    rate: float
    r_squared: float
    t_start: float
    t_end: float
    n_points: int
    already_synchronized: bool

    def lines(self) -> list:
        if self.already_synchronized:
            return ["sync rate fit: difference energy at floor everywhere "
                    "(already synchronized); rate = inf"]
        return [
            f"sync rate fit: rate={self.rate:.6g} r2={self.r_squared:.6f} "
            f"over t=[{self.t_start:.6g}, {self.t_end:.6g}] ({self.n_points} points)"
        ]


def fit_sync_rate(record: TrajectoryRecord, opts: MetricsOptions = MetricsOptions()) -> RateFit:
    """Exponential rate of the summed G-weighted difference energy.

    Fits log(sum diff_energy_g) against t by least squares over the trailing
    ``opts.window_fraction`` of the time range before the signal first
    reaches ``opts.floor``.  A record entirely at the floor returns the
    already-synchronized sentinel with rate = +inf.
    """
    s = record.sync_total()
    t = record.t
    above = s > opts.floor
    if not above.any():
        return RateFit(rate=math.inf, r_squared=1.0, t_start=float(t[0]),
                       t_end=float(t[-1]), n_points=0, already_synchronized=True)
    hit_floor = np.flatnonzero(~above)
    end = int(hit_floor[0]) if hit_floor.size else len(s)
    end = max(end, min(2, len(s)))
    seg_t = t[:end]
    seg_y = np.log(np.maximum(s[:end], opts.floor))
    if seg_t.shape[0] < 2:
        return RateFit(rate=0.0, r_squared=1.0, t_start=float(seg_t[0]),
                       t_end=float(seg_t[-1]), n_points=1, already_synchronized=False)
    mask = trailing_window(seg_t, opts.window_fraction)
    if int(mask.sum()) < 2:
        mask = np.zeros_like(mask)
        mask[-2:] = True
    x = seg_t[mask]
    y = seg_y[mask]
    design = np.column_stack([x, np.ones_like(x)])
    coef, *_ = np.linalg.lstsq(design, y, rcond=None)
    fitted = design @ coef
    ss_res = float(np.sum((y - fitted) ** 2))
    ss_tot = float(np.sum((y - y.mean()) ** 2))
    r_squared = 1.0 if ss_tot <= 1e-30 else 1.0 - ss_res / ss_tot
    return RateFit(rate=float(-coef[0]), r_squared=r_squared,
                   t_start=float(x[0]), t_end=float(x[-1]),
                   n_points=int(x.shape[0]), already_synchronized=False)


def asynchronous_degree(params: HRParameters, domain: Domain,
                        matching: BoundaryMatching, cfg: IntegratorConfig,
                        sample_count: int, seed: int,
                        ic: InitialCondition = InitialCondition()) -> float:
    """Monte-Carlo estimate of the summed worst-case pairwise state gap.

    Draws ``sample_count`` initial conditions (sample k reseeds the template
    with seed + k), simulates each to ``cfg.t_end``, approximates the limiting
    pairwise gap by the max over the trailing ``MetricsOptions.tail_fraction``
    of recorded times, and sums the per-pair worst case over all ordered pairs.
    ``domain`` must be the matching's grid (else a ValueError); None couples no face.
    """
    if sample_count < 1:
        raise ValueError("sample_count must be >= 1")
    matching = run_matching([params], domain, matching)  # the observer reads it
    ics = [replace(ic, seed=seed + k) if ic.kind != "file" else ic
           for k in range(sample_count)]

    def observer(state, members):
        u_sq, v_sq, w_sq = pair_differences(state, matching.domain)
        return u_sq + v_sq + w_sq

    results = simulate_ensemble(ics, [params] * sample_count, domain, matching, cfg, observer)
    n = params.n_neurons
    worst_sq = 0.0  # per pair i < j, its largest tail maximum so far
    for k, result in enumerate(results):
        if isinstance(result, RunFailure):
            result.note = f"asynchronous-degree sample {k} (seed {seed + k})"
            raise result
        tail = trailing_window(np.asarray(result.times), MetricsOptions.tail_fraction)
        worst_sq = np.maximum(worst_sq, np.max(np.asarray(result.rows)[tail], axis=0))
    # summed over ordered pairs: the worst gaps mirrored across a zero diagonal
    ordered = np.zeros((n, n))
    ordered[_pairs(n)] = worst_sq
    return float(np.sqrt(ordered + ordered.T).sum())
