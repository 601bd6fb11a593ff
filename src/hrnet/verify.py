"""Acceptance-criteria suite.

Each criterion is an independent, self-contained check at desk scale.  The
constants criterion re-derives every closed-form quantity with exact
rational arithmetic (plus high-precision decimal logarithms), sharing no
code with the float implementation it judges.  Simulation-based criteria
fix their own scenarios; the loaded run config only feeds the determinism
and step-size-guard criteria, which are about the config itself.

``run_all`` executes the registry in order and never raises: a criterion
that crashes is reported as a failure with the exception text.
"""

from __future__ import annotations

import dataclasses
import decimal
import math
import os
import random
import tempfile
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .config import MetricsOptions, RunConfig
from .core import HRParameters, derive_constants, entry_time
from .domain import (
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    parse_matching,
    poincare_constants,
)
from .dynamics import InitialCondition, IntegratorConfig, NetworkState, cfl_bound, simulate
from .errors import IntegrationError
from .metrics import (
    asynchronous_degree,
    compute_K,
    energy_monitor,
    envelope_check,
    record_trajectory,
)
from .runner import record_ensemble, run_simulate, sweep_csv, sweep_row, sweep_rows

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


@dataclass
class VerifyContext:
    """Shared scenario cache so multi-criterion runs are built once."""

    cfg: RunConfig
    jobs: int = 1
    _cache: dict = field(default_factory=dict)

    def stock_network(self, n_cells=128, n_neurons=2):
        key = ("network", n_cells, n_neurons)
        if key not in self._cache:
            domain = build_domain(1, [1.0], [n_cells])
            matching = full_boundary_matching(domain, n_neurons, "1-2")
            pc = poincare_constants(domain, mode="discrete")
            self._cache[key] = (domain, matching, pc)
        return self._cache[key]

    def envelope_records(self):
        """Ten default-parameter random-IC runs to t = 20 (criteria 6, 7, 9)."""
        if "envelope" not in self._cache:
            domain, matching, pc = self.stock_network()
            params = HRParameters.default()
            consts = derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
            cfg = IntegratorConfig(t_end=20.0, scheme="imex-euler", dt=2e-3,
                                   record_every=50)
            ics = [InitialCondition(kind="uniform-random", seed=seed,
                                    offset=1.0, noise=0.1)
                   for seed in ENVELOPE_SEEDS]
            n = len(ics)
            records = self.ensemble(ics, [params] * n, domain, matching, cfg,
                                    [consts] * n)
            self._cache["envelope"] = (records, consts)
        return self._cache["envelope"]

    def sweep_records(self):
        """Coupling-strength sweep to t = 200 (criteria 8, 9)."""
        if "sweep" not in self._cache:
            domain, matching, pc = self.stock_network()
            ic = InitialCondition(kind="uniform-random", seed=42,
                                  offset=1.0, noise=0.1)
            cfg = IntegratorConfig(t_end=200.0, scheme="imex-euler", dt=2e-3,
                                   record_every=100)
            params_list = [HRParameters.default(p=p) for p in SWEEP_P_VALUES]
            consts_list = [derive_constants(params, domain.omega_measure,
                                            pc.eta1, pc.eta2)
                           for params in params_list]
            records = self.ensemble([ic] * len(params_list), params_list,
                                    domain, matching, cfg, consts_list)
            self._cache["sweep"] = list(zip(SWEEP_P_VALUES, records))
        return self._cache["sweep"]

    def ensemble(self, ics, params_list, domain, matching, cfg, consts_list):
        """Records of one ensemble over ``jobs`` workers; the first failed
        member's error is raised."""
        records = record_ensemble(ics, params_list, domain, matching, cfg,
                                  consts_list, self.jobs)
        for record in records:
            if isinstance(record, Exception):
                raise record
        return records


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


def _criterion_constants_oracle(ctx: VerifyContext):
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

def _criterion_poincare(ctx: VerifyContext):
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

def _criterion_operator_order(ctx: VerifyContext):
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

def _criterion_conservation(ctx: VerifyContext):
    domain, matching, _ = ctx.stock_network()
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

def _criterion_sync_manifold(ctx: VerifyContext):
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

def _criterion_gronwall(ctx: VerifyContext):
    records, consts = ctx.envelope_records()
    worst_ratio = 0.0
    failures = []
    for seed, record in zip(ENVELOPE_SEEDS, records):
        report = envelope_check(record, consts, tolerance=0.05, entry_slack=0.10)
        worst_ratio = max(worst_ratio, float(
            (record.total_energy / record.gronwall_envelope).max()))
        if report.gronwall_violations:
            failures.append(f"seed {seed}: {len(report.gronwall_violations)} "
                            f"envelope violations")
        if not report.entry_ok:
            failures.append(f"seed {seed}: absorbing entry late or missing")
    passed = not failures
    detail = (f"10 random-IC runs, t_end=20: worst energy/envelope ratio "
              f"{worst_ratio:.3e} at 5% tolerance; absorbing entry within "
              f"entry_time + 10% on every run")
    if failures:
        detail = "; ".join(failures)
    return passed, detail


def _criterion_energy_monitor(ctx: VerifyContext):
    records, consts = ctx.envelope_records()
    worst = -math.inf
    failures = []
    for seed, record in zip(ENVELOPE_SEEDS, records):
        report = energy_monitor(record, consts, tolerance=0.05)
        worst = max(worst, report.max_lhs / report.rhs)
        if not report.ok:
            failures.append(f"seed {seed}: {len(report.violations)} violations")
    passed = not failures
    detail = (f"10 runs: worst finite-difference lhs is {worst:.3e} of the "
              f"right-hand side (must stay <= 1.05)")
    if failures:
        detail = "; ".join(failures)
    return passed, detail


# ---------------------------------------------------------------------------
# criterion 8: synchronization under strong coupling
# ---------------------------------------------------------------------------

def _criterion_coupling_sweep(ctx: VerifyContext):
    # the rows hrnet sweep writes, at the default metrics options
    metrics = MetricsOptions()
    rows = [sweep_row(metrics, p, record.consts, record)
            for p, record in ctx.sweep_records()]
    clamped = [max(row["tail"], metrics.floor) for row in rows]
    monotone = all(clamped[k + 1] <= clamped[k] * 1.05
                   for k in range(len(clamped) - 1))
    last = rows[-1]
    final_sync = float(ctx.sweep_records()[-1][1].sync_total()[-1])
    below = final_sync <= 1e-8
    rate_ok = last["rate"] > 0
    passed = monotone and below and rate_ok
    tail_text = ", ".join(f"p={row['value']:g}: {row['tail']:.2e}" for row in rows)
    return passed, (f"tails ({tail_text}) non-increasing with floor {metrics.floor:g}: "
                    f"{monotone}; p={last['value']:g} final {final_sync:.2e} <= 1e-8: "
                    f"{below}; fitted rate {last['rate']:.4g} > 0 "
                    f"(rate/mu = {last['rate'] / last['mu']:.3g}, mu is a sufficient-"
                    f"condition rate, no hard bound)")


# ---------------------------------------------------------------------------
# criterion 9: conditional decay envelope
# ---------------------------------------------------------------------------

def _criterion_conditional_decay(ctx: VerifyContext):
    records, consts = ctx.envelope_records()
    sources = [(f"seed {seed}", record, consts)
               for seed, record in zip(ENVELOPE_SEEDS, records)]
    sources += [(f"p={p:g}", record, record.consts)
                for p, record in ctx.sweep_records()]
    n_windows = 0
    failures = []
    for label, record, record_consts in sources:
        report = envelope_check(record, record_consts, decay_tolerance=0.10)
        n_windows += len(report.windows)
        if not report.decay_ok:
            failures.append(f"{label}: decay envelope violated")
    passed = not failures
    if n_windows == 0:
        detail = (f"no records with stimulation above the per-pair threshold "
                  f"across {len(sources)} runs; criterion passes vacuously")
    else:
        detail = (f"{n_windows} above-threshold window(s) across "
                  f"{len(sources)} runs, all within the exponential envelope "
                  f"at 10% tolerance")
        if failures:
            detail = "; ".join(failures)
    return passed, detail


# ---------------------------------------------------------------------------
# criterion 10: boundary cross-term probe
# ---------------------------------------------------------------------------

def _criterion_k_probe(ctx: VerifyContext):
    domain, matching, _ = ctx.stock_network()
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
    return passed, (f"u1 - u2 = {delta}: summed K = {res.k_sum:.12g} "
                    f"(4 d^2 |Gamma|, rel {rel_sum:.1e}), full boundary gap "
                    f"= {res.boundary_diff_full:.12g} (2 d^2 |Gamma|, rel "
                    f"{rel_diff:.1e}); measured ratio {res.ek_ratio:.6g} — the "
                    f"factor-2 discrepancy is documented output, not a failure")


# ---------------------------------------------------------------------------
# criterion 11: determinism
# ---------------------------------------------------------------------------

def _criterion_determinism(ctx: VerifyContext):
    with tempfile.TemporaryDirectory() as tmp:
        dir_a = os.path.join(tmp, "a")
        dir_b = os.path.join(tmp, "b")
        code_a = run_simulate(ctx.cfg, dir_a)
        code_b = run_simulate(ctx.cfg, dir_b)
        if code_a != 0 or code_b != 0:
            return False, f"stock simulation failed (exit {code_a}, {code_b})"
        with open(os.path.join(dir_a, "trajectory.csv"), "rb") as fa:
            bytes_a = fa.read()
        with open(os.path.join(dir_b, "trajectory.csv"), "rb") as fb:
            bytes_b = fb.read()
    identical = bytes_a == bytes_b

    short_cfg = dataclasses.replace(
        ctx.cfg, integrator=ctx.cfg.integrator.replace(t_end=5.0))
    rows = sweep_rows(short_cfg, "p", (2.0, 2.0), jobs=ctx.jobs)
    lines = sweep_csv(rows).splitlines()
    dup_identical = lines[1] == lines[2]
    passed = identical and dup_identical
    return passed, (f"repeated stock run byte-identical: {identical} "
                    f"({len(bytes_a)} bytes); duplicate sweep values give "
                    f"identical rows: {dup_identical}")


# ---------------------------------------------------------------------------
# criterion 12: asynchronous-degree estimator
# ---------------------------------------------------------------------------

def _criterion_async_degree(ctx: VerifyContext):
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

def _criterion_cfl_guard(ctx: VerifyContext):
    integ = ctx.cfg.integrator
    bound = cfl_bound(ctx.cfg.domain, ctx.cfg.params.d, ctx.cfg.params.p) * integ.cfl_safety
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


CRITERIA = (
    (1, "constants-oracle", _criterion_constants_oracle),
    (2, "poincare-constants", _criterion_poincare),
    (3, "operator-order", _criterion_operator_order),
    (4, "conservation", _criterion_conservation),
    (5, "sync-manifold-invariance", _criterion_sync_manifold),
    (6, "decay-envelope-and-entry", _criterion_gronwall),
    (7, "energy-inequality-monitor", _criterion_energy_monitor),
    (8, "coupling-sweep-sync", _criterion_coupling_sweep),
    (9, "conditional-decay-windows", _criterion_conditional_decay),
    (10, "boundary-cross-term-probe", _criterion_k_probe),
    (11, "determinism", _criterion_determinism),
    (12, "asynchronous-degree", _criterion_async_degree),
    (13, "step-size-guard", _criterion_cfl_guard),
)


def run_criterion(number: int, ctx: VerifyContext) -> CriterionResult:
    for num, name, fn in CRITERIA:
        if num == number:
            try:
                passed, detail = fn(ctx)
            except IntegrationError as err:
                passed, detail = False, f"integration failed: {err}"
            except Exception as err:  # a crashing criterion is a failed criterion
                passed, detail = False, f"raised {type(err).__name__}: {err}"
            return CriterionResult(number=num, name=name, passed=passed,
                                   detail=detail)
    raise ValueError(f"no criterion numbered {number}")


def run_all(cfg: RunConfig, jobs: int = 1) -> list:
    ctx = VerifyContext(cfg=cfg, jobs=jobs)
    return [run_criterion(number, ctx) for number, _, _ in CRITERIA]
