"""Simulator and verification harness for boundary-coupled Hindmarsh-Rose networks."""

from .config import RunConfig, load_config
from .core import (
    DEFAULT_PROFILE,
    DerivedConstants,
    HRParameters,
    compute_c1,
    compute_c2,
    compute_mu,
    derive_constants,
    entry_time,
)
from .domain import (
    BoundaryMatching,
    Domain,
    PoincareConstants,
    apply_diffusion,
    build_domain,
    full_boundary_matching,
    integrate_domain,
    network_diffusion_matrix,
    neumann_laplacian,
    parse_matching,
    parse_pairs,
    poincare_constants,
)
from .dynamics import (
    IC_KINDS,
    SCHEMES,
    InitialCondition,
    IntegratorConfig,
    NetworkState,
    SimulationResult,
    cfl_bound,
    initial_state,
    reaction_rhs,
    resolve_dt,
    simulate,
    simulate_ensemble,
)
from .errors import (
    ConfigError,
    IntegrationError,
    LinearSolveError,
    MatchingError,
    RunFailure,
    SingularParameterError,
)
from .metrics import (
    KResult,
    MetricsOptions,
    RateFit,
    TrajectoryObserver,
    TrajectoryRecord,
    asynchronous_degree,
    compute_K,
    energy_monitor,
    envelope_check,
    fit_sync_rate,
    pair_differences,
    record_trajectories,
    record_trajectory,
    stimulation_signal,
)

__version__ = "0.1.0"
