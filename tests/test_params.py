"""Closed-form constants: frozen oracle values and algebraic properties.

The reference values below were computed with exact rational arithmetic
(fractions.Fraction) outside the library and frozen here as fractions.  The
oracle helpers in this module recompute each formula the same exact way, so
the float implementation is checked against an independent evaluation route,
not against itself.
"""

import dataclasses
import math
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest

from hrnet import (
    HRParameters,
    SingularParameterError,
    compute_c1,
    compute_c2,
    compute_mu,
    derive_constants,
    entry_time,
)


def params(**overrides):
    """Degenerate-friendly base profile for formula probes."""
    base = dict(
        a=0.0, b=1.0, alpha=0.0, beta=0.0, q=0.0, r=1.0,
        c=0.0, J=0.0, d=1.0, p=1.0, n_neurons=2,
    )
    base.update(overrides)
    return HRParameters(**base)


# ---------------------------------------------------------------------------
# Exact-rational oracle: same formulas, independent arithmetic.
# ---------------------------------------------------------------------------

def oracle_c1(b, beta):
    return (Fraction(beta) ** 2 + 4) / Fraction(b)


def oracle_c2(a, b, alpha, beta, q, r, c, J):
    c1 = oracle_c1(b, beta)
    a, alpha, q, r, c, J = map(Fraction, (a, alpha, q, r, c, J))
    return (
        2 * (c1 * a) ** 4
        + 2 * c1 * J * J
        + 2 * (c1 * c1 * (2 + 1 / r) + c1) ** 2
        + 4 * alpha * alpha
        + 2 * q * q * c * c / r
        + 2 * q ** 4 / (r * r)
    )


def oracle_absorbing(c1, c2, r, n, omega):
    c1, c2, r, omega = map(Fraction, (c1, c2, r, omega))
    r_star = Fraction(1, 2) * min(Fraction(1), r)
    big_m = n / r_star * (c2 + c1 * c1 / 32)
    big_q = 2 * big_m * omega / min(c1, Fraction(1))
    return r_star, big_m, big_q


def oracle_log(x, prec=50):
    """High-precision natural log via decimal, for the entry-time check."""
    with localcontext() as ctx:
        ctx.prec = prec
        return Decimal(x).ln()


# ---------------------------------------------------------------------------
# compute_c1
# ---------------------------------------------------------------------------

def test_c1_direct_substitution():
    assert compute_c1(params(b=1.0, beta=2.0)) == 8.0
    assert compute_c1(params(b=8.0, beta=2.0)) == 1.0
    assert compute_c1(params(b=1.0, beta=0.0)) == 4.0


def test_c1_monotone_in_b_and_beta():
    import random
    rng = random.Random(9157)
    for _ in range(200):
        b = rng.uniform(0.05, 50.0)
        beta = rng.uniform(0.0, 20.0)
        db = rng.uniform(0.01, 5.0)
        dbeta = rng.uniform(0.01, 5.0)
        assert compute_c1(params(b=b + db, beta=beta)) < compute_c1(params(b=b, beta=beta))
        assert compute_c1(params(b=b, beta=beta + dbeta)) > compute_c1(params(b=b, beta=beta))


def test_c1_matches_rational_oracle():
    import random
    rng = random.Random(40321)
    for _ in range(50):
        # dyadic inputs are exact in binary, so the float route must agree
        # with the Fraction route to the last few ulps
        b = rng.randrange(1, 64) / 16.0
        beta = rng.randrange(0, 64) / 16.0
        got = compute_c1(params(b=b, beta=beta))
        want = oracle_c1(b, beta)
        assert got == pytest.approx(float(want), rel=1e-15)


# ---------------------------------------------------------------------------
# compute_c2
# ---------------------------------------------------------------------------

def test_c2_degenerate_third_term_only():
    # a = J = alpha = q = 0, r = 1, c1 = 4: only 2*(c1^2*3 + c1)^2 survives
    assert compute_c2(params(r=1.0)) == pytest.approx(5408.0, rel=1e-15)
    assert compute_c2(params(r=1.0, alpha=1.0)) == pytest.approx(5412.0, rel=1e-15)


def test_c2_frozen_full_profile():
    # exact value 3440116856/25, frozen from rational evaluation
    p = params(a=3.0, b=1.0, alpha=1.0, beta=5.0, q=1.0, r=0.5, c=-1.6, J=2.0)
    want = Fraction(3440116856, 25)
    assert float(want) == 137604674.24
    assert compute_c2(p) == pytest.approx(float(want), rel=1e-12)
    recomputed = oracle_c2(a=3, b=1, alpha=1, beta=5, q=1, r=Fraction(1, 2),
                           c=Fraction(-8, 5), J=2)
    assert recomputed == want


def test_c2_matches_rational_oracle_random():
    import random
    rng = random.Random(77002)
    for _ in range(40):
        a = rng.randrange(0, 8) / 2.0
        b = rng.randrange(1, 16) / 4.0
        alpha = rng.randrange(0, 8) / 4.0
        beta = rng.randrange(0, 12) / 4.0
        q = rng.randrange(0, 8) / 4.0
        r = rng.randrange(1, 16) / 8.0
        c = rng.randrange(-8, 8) / 4.0
        J = rng.randrange(0, 12) / 4.0
        p = params(a=a, b=b, alpha=alpha, beta=beta, q=q, r=r, c=c, J=J)
        want = float(oracle_c2(a, b, alpha, beta, q, r, c, J))
        assert compute_c2(p) == pytest.approx(want, rel=1e-12)


# ---------------------------------------------------------------------------
# the absorbing set / entry_time
# ---------------------------------------------------------------------------

def test_absorbing_chained_example():
    # with c1 = 4, c2 = 5408, r = 1, N = 2, |Omega| = 1:
    # r_star = 0.5, M = 4*(5408 + 0.5) = 21634, Q = 2*21634/1 = 43268
    p = params(r=1.0, b=2.0, beta=2.0)
    assert compute_c1(p) == 4.0
    assert compute_c2(p) == pytest.approx(5408.0, rel=1e-15)
    ab = derive_constants(p, omega_measure=1.0, eta1=1.0, eta2=1.0)
    assert ab.r_star == 0.5
    assert ab.big_m == pytest.approx(21634.0, rel=1e-14)
    assert ab.big_q == pytest.approx(43268.0, rel=1e-14)


def test_r_star_clamps_at_one():
    assert derive_constants(params(r=4.0, beta=1.0), 1.0, 1.0, 1.0).r_star == 0.5
    assert derive_constants(params(r=0.5, beta=1.0), 1.0, 1.0, 1.0).r_star == 0.25


def test_big_q_linear_in_measure():
    import random
    rng = random.Random(3344)
    p = params(r=1.0, beta=2.0)
    for _ in range(20):
        omega = rng.uniform(0.01, 100.0)
        q1 = derive_constants(p, omega, 1.0, 1.0).big_q
        q2 = derive_constants(p, 2.0 * omega, 1.0, 1.0).big_q
        assert q2 == pytest.approx(2.0 * q1, rel=1e-14)


def test_entry_time_clamps_and_log_value():
    p = params(r=1.0, beta=1.0)
    consts = derive_constants(p, omega_measure=1.0, eta1=1.0, eta2=1.0)
    scale = consts.big_m * consts.omega_measure / max(consts.c1, 1.0)
    assert entry_time(0.0, consts) == 0.0
    assert entry_time(scale, consts) == 0.0
    assert entry_time(0.5 * scale, consts) == 0.0
    # r_star = 0.5 here, so rho = e*scale gives (1/0.5)*log(e) = 2
    assert entry_time(math.e * scale, consts) == pytest.approx(2.0, rel=1e-14)


def test_entry_time_against_decimal_log():
    p = params(r=0.5, beta=3.0, a=1.0, J=2.0)
    consts = derive_constants(p, omega_measure=2.0, eta1=4.0, eta2=2.0)
    rho = 1e9
    arg = rho * max(consts.c1, 1.0) / (consts.big_m * consts.omega_measure)
    want = float(oracle_log(arg)) / consts.r_star
    assert entry_time(rho, consts) == pytest.approx(want, rel=1e-12)


def test_entry_time_nondecreasing():
    import random
    rng = random.Random(515)
    p = params(r=1.0, beta=1.0)
    consts = derive_constants(p, 1.0, 1.0, 1.0)
    rhos = sorted(rng.uniform(0.0, 1e9) for _ in range(50))
    times = [entry_time(x, consts) for x in rhos]
    assert all(t2 >= t1 for t1, t2 in zip(times, times[1:]))


def test_entry_time_rejects_negative_rho():
    p = params(r=1.0, beta=1.0)
    consts = derive_constants(p, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        entry_time(-1.0, consts)


# ---------------------------------------------------------------------------
# the threshold, both readings
# ---------------------------------------------------------------------------

def test_g_direct_substitution():
    assert derive_constants(params(b=8.0, beta=1.0), 1.0, 1.0, 1.0).g == 1.0


def test_threshold_frozen_values_both_readings():
    # exact values 8673/20 and 8673/40, frozen from rational evaluation;
    # components: c1 = 5/8, c2 = 17321/2048, both brackets equal 2
    p = params(a=0.0, b=8.0, beta=1.0, q=1.0, r=1.0, n_neurons=2)
    assert compute_c1(p) == 0.625
    assert compute_c2(p) == pytest.approx(float(Fraction(17321, 2048)), rel=1e-15)
    th = derive_constants(p, omega_measure=1.0, eta1=1.0, eta2=1.0)
    assert th.g == 1.0
    assert th.big_r == pytest.approx(433.65, rel=1e-12)
    assert th.big_r_alt == pytest.approx(216.825, rel=1e-12)
    assert float(Fraction(8673, 20)) == 433.65
    assert float(Fraction(8673, 40)) == 216.825


def test_threshold_readings_differ_by_network_size_factor():
    # the two readings share every factor except N^2(N-1) versus N
    import random
    rng = random.Random(2211)
    for _ in range(30):
        n = rng.randrange(2, 7)
        p = params(
            a=rng.randrange(0, 6) / 2.0,
            b=rng.randrange(1, 12) / 4.0,
            beta=rng.randrange(1, 10) / 2.0,
            q=rng.randrange(0, 8) / 4.0,
            r=rng.randrange(1, 12) / 8.0,
            n_neurons=n,
        )
        th = derive_constants(p, omega_measure=3.0, eta1=1.0, eta2=2.0)
        assert th.big_r == pytest.approx(th.big_r_alt * n * (n - 1), rel=1e-12)


def test_threshold_rejects_zero_beta():
    with pytest.raises(SingularParameterError, match="threshold formula divides by beta"):
        derive_constants(params(beta=0.0), 1.0, 1.0, 1.0)


# ---------------------------------------------------------------------------
# compute_mu / derive_constants
# ---------------------------------------------------------------------------

def test_mu_direct_substitution():
    assert compute_mu(params(r=2.0, d=1.0), eta1=1.0) == 1.0
    assert compute_mu(params(r=2.0, d=1.0), eta1=0.1) == pytest.approx(0.2)
    assert compute_mu(params(r=0.3, d=1.0), eta1=10.0) == 0.3


def test_derived_constants_all_finite_positive():
    import random
    rng = random.Random(606)
    for _ in range(50):
        p = params(
            a=rng.uniform(0.1, 5.0),
            b=rng.uniform(0.1, 5.0),
            alpha=rng.uniform(0.1, 3.0),
            beta=rng.uniform(0.1, 8.0),
            q=rng.uniform(0.1, 4.0),
            r=rng.uniform(0.05, 3.0),
            c=rng.uniform(-3.0, 3.0),
            J=rng.uniform(0.0, 5.0),
            d=rng.uniform(0.1, 4.0),
            n_neurons=rng.randrange(2, 6),
        )
        k = derive_constants(p, omega_measure=rng.uniform(0.1, 10.0),
                             eta1=rng.uniform(0.1, 20.0), eta2=rng.uniform(0.1, 20.0))
        for f in dataclasses.fields(k):
            v = getattr(k, f.name)
            assert math.isfinite(v) and v > 0, (f.name, v)


@pytest.mark.parametrize("args, error, message", [
    # b = 0 with beta = 0: b is checked first
    ((params(b=0.0), 0.0, 0.0, 0.0), ValueError, "omega_measure must be > 0"),
    ((params(b=0.0), 1.0, 0.0, 0.0), SingularParameterError, "c1 divides by b"),
    ((params(), 1.0, 0.0, 0.0), SingularParameterError, "divides by beta"),
    ((params(beta=1.0), 1.0, 0.0, 0.0), ValueError, "eta2 and omega_measure must be > 0"),
    ((params(beta=1.0), 1.0, 0.0, 1.0), ValueError, "eta1 must be > 0"),
])
def test_derive_constants_reports_the_first_bad_input(args, error, message):
    with pytest.raises(error, match=message):
        derive_constants(*args)


def test_derive_constants_is_deterministic():
    p = HRParameters.default()
    a = derive_constants(p, 1.0, 9.8696, 9.8696)
    b = derive_constants(p, 1.0, 9.8696, 9.8696)
    assert a == b


# ---------------------------------------------------------------------------
# HRParameters validation
# ---------------------------------------------------------------------------

def test_parameters_reject_nonpositive_required():
    for name in ("r", "d"):
        with pytest.raises(ValueError):
            params(**{name: 0.0})
        with pytest.raises(ValueError):
            params(**{name: -1.0})


def test_parameters_reject_negative_optional():
    for name in ("a", "b", "alpha", "beta", "q", "p"):
        with pytest.raises(ValueError):
            params(**{name: -0.5})


def test_zero_b_is_constructible_but_rejected_by_constants():
    # b = 0 turns the cubic reaction term off (needed for pure-transport
    # control runs); the constant formulas divide by b and must refuse it
    p = params(b=0.0)
    with pytest.raises(SingularParameterError):
        compute_c1(p)
    with pytest.raises(SingularParameterError):
        compute_c2(p)


def test_parameters_reject_bad_network_size():
    with pytest.raises(ValueError):
        params(n_neurons=1)
    with pytest.raises(ValueError):
        params(n_neurons=2.5)


def test_parameters_reject_nonfinite():
    with pytest.raises(ValueError):
        params(J=math.nan)
    with pytest.raises(ValueError):
        params(c=math.inf)


def test_strict_validation_flags_degenerate_zero():
    params(q=0.0).validate_strict is not None  # construction itself is fine
    with pytest.raises(SingularParameterError):
        params(q=0.0).validate_strict()
    with pytest.raises(SingularParameterError):
        params(beta=0.0).validate_strict()
    # p = 0 stays legal: uncoupled control runs
    HRParameters.default(p=0.0).validate_strict()


def test_replace_returns_new_frozen_instance():
    p = HRParameters.default()
    p2 = p.replace(r=0.5)
    assert p2.r == 0.5 and p.r == 0.1
    with pytest.raises(Exception):
        p.r = 1.0
