"""Model parameters and the closed-form constants derived from them.

Every quantity here is an explicit algebraic function of the model
parameters (plus the domain measure and Poincare constants, which are
supplied by :mod:`hrnet.domain`).  All arithmetic is plain float64 with a
fixed evaluation order, so recomputing from the same inputs is
bit-reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields, replace as _replace

from .errors import SingularParameterError

# Conventional default profile (classical fast-subsystem constants; the
# adaptation pair q, r keeps the classical q = 4r ratio but sits at a faster
# scale so that network-level decay rates are observable at desk horizons).
DEFAULT_PROFILE = {
    "a": 3.0,
    "b": 1.0,
    "alpha": 1.0,
    "beta": 5.0,
    "q": 0.4,
    "r": 0.1,
    "c": -1.6,
    "J": 3.25,
    "d": 1.0,
    "p": 1.0,
    "n_neurons": 2,
}


@dataclass(frozen=True)
class HRParameters:
    """Biological and coupling constants of the network.

    ``a, b`` shape the cubic membrane nonlinearity, ``alpha, beta`` drive the
    fast ion-channel variable, ``q, r`` the slow adaptation variable with
    reference potential ``c``, ``J`` is the input current, ``d`` the membrane
    diffusivity, ``p`` the boundary coupling strength, and ``n_neurons`` the
    network size.

    Construction accepts degenerate zero values for ``a, b, alpha, beta, q``
    (useful for formula probes and reaction-off control runs); fully positive
    profiles can be demanded with :meth:`validate_strict`, which is what the
    run-config loader uses.  The derived-constant formulas themselves raise
    :class:`SingularParameterError` where they divide by a zero parameter.
    """

    a: float
    b: float
    alpha: float
    beta: float
    q: float
    r: float
    c: float
    J: float
    d: float
    p: float
    n_neurons: int

    def __post_init__(self):
        for f in fields(self):
            v = getattr(self, f.name)
            if not math.isfinite(v):
                raise ValueError(f"parameter {f.name} must be finite, got {v!r}")
        for name in ("a", "b", "alpha", "beta", "q", "p"):
            if getattr(self, name) < 0:
                raise ValueError(f"parameter {name} must be >= 0")
        for name in ("r", "d"):
            if getattr(self, name) <= 0:
                raise ValueError(f"parameter {name} must be > 0")
        if int(self.n_neurons) != self.n_neurons or self.n_neurons < 2:
            raise ValueError("n_neurons must be an integer >= 2")

    def validate_strict(self):
        """Require the full positivity the network model assumes.

        Raises :class:`SingularParameterError` naming the first offending
        parameter.  ``p = 0`` stays legal (uncoupled control runs).
        """
        for name in ("a", "b", "alpha", "beta", "q", "r", "d"):
            if getattr(self, name) <= 0:
                raise SingularParameterError(
                    f"parameter {name} must be > 0 for a full network run, "
                    f"got {getattr(self, name)!r}"
                )

    def replace(self, **changes) -> "HRParameters":
        return _replace(self, **changes)

    @classmethod
    def default(cls, **overrides) -> "HRParameters":
        values = dict(DEFAULT_PROFILE)
        values.update(overrides)
        return cls(**values)


@dataclass(frozen=True)
class DerivedConstants:
    """Every derived constant of the analysis, for one parameter set.

    ``eta1, eta2`` are the generalized Poincare constants of the domain and
    come from :func:`hrnet.domain.poincare_constants`; everything else is
    closed-form in the parameters and ``omega_measure``.

    The boundary-signal threshold multiplier comes in two readings:
    ``big_r`` multiplies three factors with the network-size prefactor
    N^2 (N-1); ``big_r_alt`` is the per-pair variant with prefactor N obtained
    by back-solving the summed differential inequality.  The two readings
    disagree only in that prefactor; both are computed and reported, never
    silently chosen.
    """

    c1: float
    c2: float
    r_star: float
    big_m: float
    big_q: float
    g: float
    eta1: float
    eta2: float
    big_r: float
    big_r_alt: float
    mu: float
    omega_measure: float


def compute_c1(params: HRParameters) -> float:
    """Weight of the membrane-potential norm in the dissipation estimate.

    c1 = (beta^2 + 4) / b
    """
    if params.b == 0:
        raise SingularParameterError(
            "parameter b must be > 0 for derived constants: c1 divides by b"
        )
    return (params.beta * params.beta + 4.0) / params.b


def compute_c2(params: HRParameters) -> float:
    """Constant source term of the total-energy differential inequality.

    c2 = 2 (c1 a)^4 + 2 c1 J^2 + 2 [c1^2 (2 + 1/r) + c1]^2
         + 4 alpha^2 + 2 q^2 c^2 / r + 2 q^4 / r^2
    """
    return _source_term(params, compute_c1(params))


def _source_term(params: HRParameters, c1: float) -> float:
    a, alpha, q, r, c, J = params.a, params.alpha, params.q, params.r, params.c, params.J
    return (
        2.0 * (c1 * a) ** 4
        + 2.0 * c1 * J * J
        + 2.0 * (c1 * c1 * (2.0 + 1.0 / r) + c1) ** 2
        + 4.0 * alpha * alpha
        + 2.0 * q * q * c * c / r
        + 2.0 * q ** 4 / (r * r)
    )


def entry_time(rho: float, consts: DerivedConstants) -> float:
    """Latest time by which total energy rho enters the absorbing ball.

    (1 / r_star) * log+( rho * max(c1, 1) / (M |Omega|) ),  log+(x) = max(0, log x).

    The clamp at zero also covers rho = 0, where the bare logarithm would
    diverge to -inf.
    """
    if rho < 0:
        raise ValueError("rho must be >= 0")
    arg = rho * max(consts.c1, 1.0) / (consts.big_m * consts.omega_measure)
    if arg <= 1.0:
        return 0.0
    return math.log(arg) / consts.r_star


def compute_mu(params: HRParameters, eta1: float) -> float:
    """Uniform exponential convergence rate min(2 eta1 d, 1, r)."""
    if eta1 <= 0:
        raise ValueError("eta1 must be > 0")
    return min(2.0 * eta1 * params.d, 1.0, params.r)


def derive_constants(
    params: HRParameters, omega_measure: float, eta1: float, eta2: float
) -> DerivedConstants:
    """Assemble the full constant set for one parameter/domain combination.

    The absorbing set: r_star = min(1, r) / 2,
    M = (N / r_star) (c2 + c1^2 / 32) and Q = 2 M |Omega| / min(c1, 1).

    The threshold: g = 8 beta^2 / b.  The common bracket is

        eta2 d |Omega| + g + 2 a^2 / b + (q - g)^2 / (2 r g)

    and the energy bracket is c1^2/16 + 2 c2.  The printed reading uses the
    prefactor N^2 (N-1) / (r_star min(c1,1)); the per-pair reading replaces
    the network-size factor by N.
    """
    if omega_measure <= 0:
        raise ValueError("omega_measure must be > 0")
    c1 = compute_c1(params)
    c2 = _source_term(params, c1)
    if params.beta == 0:
        raise SingularParameterError(
            "parameter beta must be nonzero: the threshold formula divides by beta^2"
        )
    if eta2 <= 0:
        raise ValueError("eta2 and omega_measure must be > 0")
    a, b, q, r = params.a, params.b, params.q, params.r
    n = params.n_neurons
    r_star = 0.5 * min(1.0, r)
    big_m = (n / r_star) * (c2 + c1 * c1 / 32.0)
    g = 8.0 * params.beta * params.beta / b
    energy_bracket = c1 * c1 / 16.0 + 2.0 * c2
    signal_bracket = (
        eta2 * params.d * omega_measure
        + (g + 2.0 * a * a / b + (b / (16.0 * params.beta * params.beta * r)) * (q - g) ** 2)
    )
    signal_bracket_alt = (
        eta2 * params.d * omega_measure
        + g + 2.0 * a * a / b + (q - g) ** 2 / (2.0 * r * g)
    )
    return DerivedConstants(
        c1=c1,
        c2=c2,
        r_star=r_star,
        big_m=big_m,
        big_q=2.0 * big_m * omega_measure / min(c1, 1.0),
        g=g,
        eta1=eta1,
        eta2=eta2,
        big_r=(n * n * (n - 1) / (r_star * min(c1, 1.0))) * energy_bracket * signal_bracket,
        big_r_alt=(n / (r_star * min(c1, 1.0))) * energy_bracket * signal_bracket_alt,
        mu=compute_mu(params, eta1),
        omega_measure=omega_measure,
    )
