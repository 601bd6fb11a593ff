"""Acceptance-criteria suite.

Each criterion is an independent, self-contained check at desk scale.  The
constants criterion re-derives every closed-form quantity with exact
rational arithmetic (plus high-precision decimal logarithms), sharing no
code with the float implementation it judges.  Simulation-based criteria
fix their own scenarios; the loaded run config only feeds the determinism
and step-size-guard criteria, which are about the config itself.

``run_all`` builds each run that several criteria read (``SHARED``) once and
never raises: a criterion that crashes, or reads a run that failed, is
reported as a failure with the exception text.
"""

from __future__ import annotations

import dataclasses
import decimal
import functools
import math
import os
import pathlib
import random
import tempfile
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .config import RunConfig
from .core import HRParameters, derive_constants, entry_time
from .domain import (
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    parse_matching,
    poincare_constants,
)
from .dynamics import InitialCondition, IntegratorConfig, NetworkState, cfl_bound, simulate
from .errors import RunFailure
from .metrics import (
    MetricsOptions,
    asynchronous_degree,
    compute_K,
    energy_monitor,
    envelope_check,
    record_trajectories,
    record_trajectory,
)
from .runner import run_simulate, run_tasks, sweep_csv, sweep_row, sweep_rows

SWEEP_P_VALUES = (0.0, 0.5, 2.0, 8.0, 32.0)
ENVELOPE_SEEDS = tuple(range(100, 110))


@dataclass(frozen=True)
class CriterionResult:
    number: int
    name: str
    passed: bool
    detail: str


def format_result(result: CriterionResult) -> str:
    status = "PASS" if result.passed else "FAIL"
    return f"{status} {result.number:2d} {result.name}: {result.detail}"


def stock_network():
    """The stock 1D network: (domain, matching, Poincare constants)."""
    domain = build_domain(1, [1.0], [128])
    matching = full_boundary_matching(domain, 2, "1-2")
    return domain, matching, poincare_constants(domain, mode="discrete")


def _stock_ensemble(seeds, params_list, t_end, record_every):
    """Records of random-IC runs on the stock network, one per seed and parameters."""
    domain, matching, pc = stock_network()
    ics = [InitialCondition(seed=seed) for seed in seeds]
    consts_list = [derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
                   for params in params_list]
    cfg = IntegratorConfig(t_end=t_end, scheme="imex-euler", dt=2e-3,
                           record_every=record_every)
    return record_trajectories(ics, params_list, domain, matching, cfg, consts_list)


# the runs several criteria read, by name: a call that returns, per member,
# its record or error; the longest first, since run_all hands them to the
# workers in this order.  "sweep" is the coupling-strength sweep to t = 200,
# one member per SWEEP_P_VALUES entry (criteria 8, 9); "envelope" is ten
# default-parameter runs to t = 20, one per ENVELOPE_SEEDS entry (6, 7, 9)
SHARED = {
    "sweep": functools.partial(_stock_ensemble, [42] * len(SWEEP_P_VALUES),
                               [HRParameters.default(p=p) for p in SWEEP_P_VALUES], 200.0, 100),
    "envelope": functools.partial(_stock_ensemble, ENVELOPE_SEEDS,
                                  [HRParameters.default()] * len(ENVELOPE_SEEDS), 20.0, 50),
}


# ---------------------------------------------------------------------------
# criterion 1: constants against an independent exact evaluation
# ---------------------------------------------------------------------------

def _ln_fraction(x: Fraction) -> decimal.Decimal:
    ctx = decimal.Context(prec=50)
    return ctx.subtract(ctx.ln(decimal.Decimal(x.numerator)),
                        ctx.ln(decimal.Decimal(x.denominator)))


def _rel_err(got: float, want) -> float:
    want_f = float(want)
    scale = max(abs(want_f), 1e-300)
    return abs(got - want_f) / scale


def _criterion_constants_oracle(cfg: RunConfig, runs):
    rng = random.Random(20260815)

    def positive(hi, den):
        return Fraction(rng.randint(1, hi), rng.randint(1, den))

    worst = 0.0
    for _ in range(25):
        a = Fraction(rng.randint(0, 40), rng.randint(1, 8))
        b = positive(40, 8)
        alpha = Fraction(rng.randint(0, 40), rng.randint(1, 8))
        beta = positive(40, 8)
        q = positive(40, 8)
        r = positive(40, 8)
        c = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        big_j = Fraction(rng.randint(-30, 30), rng.randint(1, 8))
        d = positive(20, 8)
        eta1 = positive(30, 8)
        eta2 = positive(30, 8)
        omega = positive(10, 4)
        n = rng.randint(2, 4)

        params = HRParameters(a=float(a), b=float(b), alpha=float(alpha),
                              beta=float(beta), q=float(q), r=float(r),
                              c=float(c), J=float(big_j), d=float(d), p=1.0,
                              n_neurons=n)
        consts = derive_constants(params, float(omega), float(eta1), float(eta2))

        # exact rational re-derivation, no shared code with the implementation
        c1 = (beta * beta + 4) / b
        c2 = (2 * (c1 * a) ** 4 + 2 * c1 * big_j ** 2
              + 2 * (c1 * c1 * (2 + 1 / r) + c1) ** 2 + 4 * alpha ** 2
              + 2 * q * q * c * c / r + 2 * q ** 4 / (r * r))
        r_star = Fraction(1, 2) * min(Fraction(1), r)
        big_m = (n / r_star) * (c2 + c1 * c1 / 32)
        big_q = 2 * big_m * omega / min(c1, Fraction(1))
        g = 8 * beta * beta / b
        mu = min(2 * eta1 * d, Fraction(1), r)
        # the two bracket spellings coincide exactly in rational arithmetic:
        # b / (16 beta^2 r) == 1 / (2 r g)
        bracket = eta2 * d * omega + g + 2 * a * a / b + (q - g) ** 2 / (2 * r * g)
        energy = c1 * c1 / 16 + 2 * c2
        prefactor = 1 / (r_star * min(c1, Fraction(1)))
        big_r = (n * n * (n - 1)) * prefactor * energy * bracket
        big_r_alt = n * prefactor * energy * bracket

        checks = [
            (consts.c1, c1), (consts.c2, c2), (consts.r_star, r_star),
            (consts.big_m, big_m), (consts.big_q, big_q), (consts.g, g),
            (consts.mu, mu), (consts.big_r, big_r),
            (consts.big_r_alt, big_r_alt),
        ]
        for got, want in checks:
            worst = max(worst, _rel_err(got, want))

        # entry time: exercise both the clamped and the logarithmic branch
        k = Fraction(rng.randint(1, 8), 2)
        rho = k * big_m * omega / max(c1, Fraction(1))
        got_t0 = entry_time(float(rho), consts)
        if k <= 1:
            worst = max(worst, abs(got_t0))
        else:
            want_t0 = _ln_fraction(k) / (decimal.Decimal(r_star.numerator)
                                         / decimal.Decimal(r_star.denominator))
            worst = max(worst, _rel_err(got_t0, want_t0))

    passed = worst <= 1e-12
    return passed, (f"25 random parameter sets, 9 constants + entry time vs "
                    f"exact rational/decimal evaluation: max rel err {worst:.3e} "
                    f"(tolerance 1e-12)")


# ---------------------------------------------------------------------------
# criterion 2: Poincare constants
# ---------------------------------------------------------------------------

def _criterion_poincare(cfg: RunConfig, runs):
    errors = []
    for n in (32, 64, 128):
        pc = poincare_constants(build_domain(1, [math.pi], [n]), mode="discrete")
        errors.append(abs(pc.eta1 - 1.0))
    orders = [math.log2(errors[0] / errors[1]), math.log2(errors[1] / errors[2])]
    rect = poincare_constants(build_domain(2, [2.0, 1.0], [96, 48]),
                              mode="discrete")
    target = (math.pi / 2.0) ** 2
    rect_rel = abs(rect.eta1 - target) / target
    passed = all(1.8 <= o <= 2.2 for o in orders) and rect_rel <= 0.01
    return passed, (f"[0, pi]: orders {orders[0]:.3f}, {orders[1]:.3f} "
                    f"(band 2.0 +/- 0.2); rectangle eta1 vs (pi/max L)^2 "
                    f"rel err {rect_rel:.3e} (<= 1e-2)")


# ---------------------------------------------------------------------------
# criterion 3: spatial operator order
# ---------------------------------------------------------------------------

def _criterion_operator_order(cfg: RunConfig, runs):
    d = 1.0
    length = 1.0
    errors = []
    for n in (32, 64, 128):
        domain = build_domain(1, [length], [n])
        (x,) = domain.cell_center_coords()
        u = np.cos(math.pi * x / length)[None, :]
        got = apply_diffusion(u, domain, None, d=d, p=0.0)
        want = -d * (math.pi / length) ** 2 * u
        errors.append(float(np.abs(got - want).max()))
    orders = [math.log2(errors[0] / errors[1]), math.log2(errors[1] / errors[2])]
    passed = all(1.8 <= o <= 2.2 for o in orders)
    return passed, (f"manufactured cosine, zero-flux: sup errors "
                    f"{errors[0]:.3e} -> {errors[1]:.3e} -> {errors[2]:.3e}, "
                    f"orders {orders[0]:.3f}, {orders[1]:.3f} (band 2.0 +/- 0.2)")


# ---------------------------------------------------------------------------
# criterion 4: conservation with the reaction off
# ---------------------------------------------------------------------------

def _criterion_conservation(cfg: RunConfig, runs):
    domain, matching, _ = stock_network()
    params = HRParameters(a=0.0, b=0.0, alpha=0.0, beta=0.0, q=0.0, r=1.0,
                          c=0.0, J=0.0, d=1.0, p=1.0, n_neurons=2)
    ic = InitialCondition(kind="smooth-bump", offset=1.0, amplitude=1.0,
                          width=0.2)
    cfg = IntegratorConfig(t_end=10.0, scheme="imex-euler", dt=2e-3,
                           record_every=100)
    vol = domain.cell_volume
    result = simulate(ic, params, domain, matching, cfg,
                      observer=lambda st: float(np.sum(st.u)) * vol)
    initial = result.rows[0]
    drift = max(abs(v - initial) for v in result.rows)
    rel = drift / abs(initial)
    passed = rel <= 1e-11
    return passed, (f"reaction off, N=2, p=1, t in [0, 10]: total mass "
                    f"{initial:.6g}, max drift {drift:.3e} "
                    f"(rel {rel:.3e} <= 1e-11)")


# ---------------------------------------------------------------------------
# criterion 5: synchronized-manifold invariance
# ---------------------------------------------------------------------------

def _criterion_sync_manifold(cfg: RunConfig, runs):
    domain = build_domain(1, [1.0], [128])
    matching = parse_matching(
        [{"side": "left", "pairs": "1-2"}, {"side": "right", "pairs": "2-3"}],
        domain, 3)
    pc = poincare_constants(domain, mode="discrete")
    params = HRParameters.default(n_neurons=3)
    consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
    ic = InitialCondition(kind="constant-per-neuron",
                          u_values=(0.8, 0.8, 0.8), v_values=(0.2, 0.2, 0.2),
                          w_values=(0.1, 0.1, 0.1))
    cfg = IntegratorConfig(t_end=50.0, scheme="imex-euler", dt=2e-3,
                           record_every=250)
    record = record_trajectory(ic, params, domain, matching, cfg, consts)
    worst = float(record.diff_energy_g.max())
    passed = worst <= 1e-16
    return passed, (f"N=3 identical initial data, chain coupling, t_end=50: "
                    f"max pairwise difference energy {worst:.3e} (<= 1e-16) "
                    f"over {len(record)} records")


# ---------------------------------------------------------------------------
# criteria 6 and 7: envelopes along ten random runs
# ---------------------------------------------------------------------------

def _criterion_gronwall(cfg: RunConfig, runs):
    worst_ratio = 0.0
    failures = []
    for seed, record in zip(ENVELOPE_SEEDS, runs["envelope"]):
        report = envelope_check(record, record.consts)
        worst_ratio = max(worst_ratio, float(
            (record.total_energy / record.gronwall_envelope).max()))
        if report.gronwall_violations:
            failures.append(f"seed {seed}: {len(report.gronwall_violations)} "
                            f"envelope violations")
        if not report.entry_ok:
            failures.append(f"seed {seed}: absorbing entry late or missing")
    return not failures, "; ".join(failures) or (
        f"10 random-IC runs, t_end=20: worst energy/envelope ratio "
        f"{worst_ratio:.3e} at 5% tolerance; absorbing entry within "
        f"entry_time + 10% on every run")


def _criterion_energy_monitor(cfg: RunConfig, runs):
    worst = -math.inf
    failures = []
    for seed, record in zip(ENVELOPE_SEEDS, runs["envelope"]):
        report = energy_monitor(record, record.consts)
        worst = max(worst, report.max_lhs / report.rhs)
        if not report.ok:
            failures.append(f"seed {seed}: {len(report.violations)} violations")
    return not failures, "; ".join(failures) or (
        f"10 runs: worst finite-difference lhs is {worst:.3e} of the "
        f"right-hand side (must stay <= 1.05)")


# ---------------------------------------------------------------------------
# criterion 8: synchronization under strong coupling
# ---------------------------------------------------------------------------

def _criterion_coupling_sweep(cfg: RunConfig, runs):
    # the rows hrnet sweep writes, at the default metrics options
    metrics = MetricsOptions()
    rows = [sweep_row(metrics, p, record.consts, record)
            for p, record in zip(SWEEP_P_VALUES, runs["sweep"])]
    clamped = [max(row["tail_dE_G"], metrics.floor) for row in rows]
    monotone = all(clamped[k + 1] <= clamped[k] * 1.05
                   for k in range(len(clamped) - 1))
    last = rows[-1]
    final_sync = float(runs["sweep"][-1].sync_total()[-1])
    below = final_sync <= 1e-8
    rate_ok = last["rate"] > 0
    passed = monotone and below and rate_ok
    tail_text = ", ".join(f"p={row['value']:g}: {row['tail_dE_G']:.2e}" for row in rows)
    return passed, (f"tails ({tail_text}) non-increasing with floor {metrics.floor:g}: "
                    f"{monotone}; p={last['value']:g} final {final_sync:.2e} <= 1e-8: "
                    f"{below}; fitted rate {last['rate']:.4g} > 0 "
                    f"(rate/mu = {last['rate'] / last['mu']:.3g}, mu is a sufficient-"
                    f"condition rate, no hard bound)")


# ---------------------------------------------------------------------------
# criterion 9: conditional decay envelope
# ---------------------------------------------------------------------------

def _criterion_conditional_decay(cfg: RunConfig, runs):
    sources = [(f"seed {seed}", record)
               for seed, record in zip(ENVELOPE_SEEDS, runs["envelope"])]
    sources += [(f"p={p:g}", record) for p, record in zip(SWEEP_P_VALUES, runs["sweep"])]
    n_windows = 0
    failures = []
    for label, record in sources:
        report = envelope_check(record, record.consts)
        n_windows += len(report.windows)
        if not report.decay_ok:
            failures.append(f"{label}: decay envelope violated")
    if n_windows == 0:
        detail = (f"no records with stimulation above the per-pair threshold "
                  f"across {len(sources)} runs; criterion passes vacuously")
    else:
        detail = "; ".join(failures) or (
            f"{n_windows} above-threshold window(s) across {len(sources)} runs, "
            f"all within the exponential envelope at 10% tolerance")
    return not failures, detail


# ---------------------------------------------------------------------------
# criterion 10: boundary cross-term probe
# ---------------------------------------------------------------------------

def _criterion_k_probe(cfg: RunConfig, runs):
    domain, matching, _ = stock_network()
    delta = 0.37
    u = np.zeros((2, domain.n_cells))
    u[0] = delta
    state = NetworkState(t=0.0, u=u, v=np.zeros_like(u), w=np.zeros_like(u))
    res = compute_K(state, matching)
    gamma = domain.boundary_measure
    want_sum = 4.0 * delta * delta * gamma
    want_diff = 2.0 * delta * delta * gamma
    rel_sum = abs(res.k_sum - want_sum) / want_sum
    rel_diff = abs(res.boundary_diff_full - want_diff) / want_diff
    passed = rel_sum <= 1e-10 and rel_diff <= 1e-10
    ratio = res.k_sum / res.boundary_diff_full  # the gap is 2 d^2 |Gamma| > 0
    return passed, (f"u1 - u2 = {delta}: summed K = {res.k_sum:.12g} "
                    f"(4 d^2 |Gamma|, rel {rel_sum:.1e}), full boundary gap "
                    f"= {res.boundary_diff_full:.12g} (2 d^2 |Gamma|, rel "
                    f"{rel_diff:.1e}); measured ratio {ratio:.6g} — the "
                    f"factor-2 discrepancy is documented output, not a failure")


# ---------------------------------------------------------------------------
# criterion 11: determinism
# ---------------------------------------------------------------------------

def _criterion_determinism(cfg: RunConfig, runs):
    with tempfile.TemporaryDirectory() as tmp:
        dirs = [os.path.join(tmp, name) for name in ("a", "b")]
        for out_dir in dirs:
            if (failure := run_simulate(cfg, out_dir)) is not None:
                raise failure  # run_criterion reports it in the failure's own words
        bytes_a, bytes_b = (pathlib.Path(out_dir, "trajectory.csv").read_bytes()
                            for out_dir in dirs)
    identical = bytes_a == bytes_b

    short_cfg = dataclasses.replace(cfg, integrator=cfg.integrator.replace(t_end=5.0))
    rows = sweep_rows(short_cfg, "p", (2.0, 2.0), jobs=1)  # no pool inside a pool
    lines = sweep_csv(rows).splitlines()
    dup_identical = lines[1] == lines[2]
    passed = identical and dup_identical
    return passed, (f"repeated stock run byte-identical: {identical} "
                    f"({len(bytes_a)} bytes); duplicate sweep values give "
                    f"identical rows: {dup_identical}")


# ---------------------------------------------------------------------------
# criterion 12: asynchronous-degree estimator
# ---------------------------------------------------------------------------

def _criterion_async_degree(cfg: RunConfig, runs):
    domain = build_domain(1, [1.0], [64])
    matching = full_boundary_matching(domain, 2, "1-2")
    het_cfg = IntegratorConfig(t_end=5.0, scheme="imex-euler", dt=2e-3,
                               record_every=25)
    deg_het = asynchronous_degree(
        HRParameters.default(p=0.0), domain, matching, het_cfg,
        sample_count=3, seed=7)
    sync_cfg = IntegratorConfig(t_end=1.0, scheme="explicit-rk4", dt="auto",
                                record_every=100)
    ic_sync = InitialCondition(kind="constant-per-neuron",
                               u_values=(0.5, 0.5), v_values=(0.1, 0.1))
    deg_sync = asynchronous_degree(
        HRParameters.default(), domain, matching, sync_cfg,
        sample_count=2, seed=7, ic=ic_sync)
    passed = deg_het > 0.0 and deg_sync <= 1e-12
    return passed, (f"p=0 heterogeneous sampling: {deg_het:.4g} (> 0); "
                    f"synchronized-IC sampling: {deg_sync:.3e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# criterion 13: explicit step-size guard for the loaded config
# ---------------------------------------------------------------------------

def _criterion_cfl_guard(cfg: RunConfig, runs):
    integ = cfg.integrator
    bound = cfl_bound(cfg.domain, cfg.params.d, cfg.params.p) * integ.cfl_safety
    if integ.scheme != "explicit-rk4":
        return True, (f"scheme {integ.scheme} treats diffusion implicitly; "
                      f"explicit bound {bound:.6e} not binding")
    if integ.dt == "auto":
        return True, f"auto step size respects the bound {bound:.6e} by construction"
    dt = float(integ.dt)
    if dt <= bound:
        return True, f"configured dt {dt:.6e} within the stability bound {bound:.6e}"
    return False, (f"configured dt {dt:.6e} exceeds the explicit diffusion "
                   f"stability bound {bound:.6e}")


# number, name, judge(cfg, runs), the SHARED runs it reads
CRITERIA = (
    (1, "constants-oracle", _criterion_constants_oracle, ()),
    (2, "poincare-constants", _criterion_poincare, ()),
    (3, "operator-order", _criterion_operator_order, ()),
    (4, "conservation", _criterion_conservation, ()),
    (5, "sync-manifold-invariance", _criterion_sync_manifold, ()),
    (6, "decay-envelope-and-entry", _criterion_gronwall, ("envelope",)),
    (7, "energy-inequality-monitor", _criterion_energy_monitor, ("envelope",)),
    (8, "coupling-sweep-sync", _criterion_coupling_sweep, ("sweep",)),
    (9, "conditional-decay-windows", _criterion_conditional_decay, ("envelope", "sweep")),
    (10, "boundary-cross-term-probe", _criterion_k_probe, ()),
    (11, "determinism", _criterion_determinism, ()),
    (12, "asynchronous-degree", _criterion_async_degree, ()),
    (13, "step-size-guard", _criterion_cfl_guard, ()),
)


def run_criterion(number: int, cfg: RunConfig, runs=None) -> CriterionResult:
    """Judge criterion ``number``; ``runs`` maps each SHARED name it reads to
    that run's members, and the first failed member fails the criterion."""
    for num, name, fn, reads in CRITERIA:
        if num == number:
            try:
                failed = [r for key in reads for r in runs[key] if isinstance(r, Exception)]
                if failed:
                    raise failed[0]
                passed, detail = fn(cfg, runs)
            except RunFailure as err:
                passed, detail = False, err.report()
            except Exception as err:  # a crashing criterion is a failed criterion
                passed, detail = False, f"raised {type(err).__name__}: {err}"
            return CriterionResult(num, name, passed, detail)
    raise ValueError(f"no criterion numbered {number}")


def _shared_run(name):
    """``SHARED[name]()``, or one failed member: the error building it raised."""
    try:
        return SHARED[name]()
    except Exception as err:
        return [err]


def run_all(cfg: RunConfig, jobs: int = 1) -> list:
    """Every criterion's result, in criterion order.

    The SHARED runs and the criteria that read none are independent tasks on
    at most ``jobs`` workers; the rest are judged here, from the shared runs.
    """
    own = [number for number, _, _, reads in CRITERIA if not reads]
    done = run_tasks([(_shared_run, (name,)) for name in SHARED]
                     + [(run_criterion, (number, cfg)) for number in own], jobs)
    runs = dict(zip(SHARED, done))
    results = dict(zip(own, done[len(SHARED):]))
    return [results[number] if number in results else run_criterion(number, cfg, runs)
            for number, _, _, _ in CRITERIA]
