"""
Synchronization versus coupling strength
=========================================

The coupling strength p enters only through the boundary condition, yet it
decides whether the two neurons lock together.  We sweep p from zero
upward with identical initial data and compare the trailing pairwise
difference energy: uncoupled neurons wander apart chaotically, coupled
ones collapse onto the synchronized manifold at a rate roughly twice the
slow adaptation rate r.
"""

from hrnet import (
    HRParameters,
    InitialCondition,
    IntegratorConfig,
    build_domain,
    derive_constants,
    fit_sync_rate,
    full_boundary_matching,
    poincare_constants,
    record_trajectories,
)

# 1. fixed scenario, only p varies; every run uses the same seed.  The four
#    runs form one ensemble: they advance through one time loop together,
#    and each is bit for bit the run it would be on its own.
domain = build_domain(1, [1.0], [64])
matching = full_boundary_matching(domain, 2, "1-2")
pc = poincare_constants(domain, mode="discrete")
ic = InitialCondition(kind="uniform-random", seed=42, offset=1.0, noise=0.1)
cfg = IntegratorConfig(t_end=60.0, scheme="imex-euler", dt=2e-3, record_every=200)

couplings = (0.0, 0.5, 2.0, 8.0)
params_list = [HRParameters.default(p=p) for p in couplings]
consts_list = [derive_constants(params, domain.omega_measure, pc.eta1, pc.eta2)
               for params in params_list]
records = record_trajectories([ic] * len(couplings), params_list, domain,
                              matching, cfg, consts_list)

print("    p    tail diff energy    fitted rate    2r")
for p, params, record in zip(couplings, params_list, records):
    sync = record.sync_total()
    tail = sync[record.t >= record.t[-1] - 0.2 * record.t[-1]]
    fit = fit_sync_rate(record)
    rate = "synced" if fit.already_synchronized else f"{fit.rate:10.4g}"
    print(f"  {p:5.1f}   {tail.max():14.6e}    {rate}    {2 * params.r:g}")

# 2. reading the table: the p = 0 row stays at order one or above (two
#    independent chaotic bursters), while every coupled row decays; the
#    fitted rate settles near 2 r because the slow variable w is the last
#    to synchronize and energies are squared quantities.
print("\nuncoupled neurons stay apart; boundary coupling synchronizes the pair")
