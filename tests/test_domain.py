"""One seeded sweep over the whole domain the scenario accepts.

Every draw is a scenario that NetworkScenario accepts: positive fields
log-uniform over 1e+-150 (tx_power over 1e+-100), shadowing means within
+-20 dB and deviations 0 or 8 dB, path loss exponents 2.0001, 3, 4 and 6,
SIR targets from 1e-6 to 1e12, one to three tiers and batteries up to 3000.
On each, every public closed form returns a finite value in its range or
raises ScenarioError; a warning is an error in this suite, so an overflow
on the way fails the draw too.  On the same draws the coverage probability
matches mpmath's 2F1, and region membership at the draw's rho matches one
root search per tier.  A second sweep checks the availability
fixed point itself against mpmath on feasible draws, as drawn and with
gamma moved to just above 1.
"""

import math
from dataclasses import replace

import numpy as np

from harvnet import analytic
from harvnet.analytic import (
    check_feasibility,
    energy_outage_bound,
    energy_utilization,
    g,
    mean_service_area,
    solve_availability,
)
from harvnet.coverage import RateQuery, coverage_prob, rate_ccdf, tier_association_prob
from harvnet.model import NetworkScenario, ScenarioError, ShadowingSpec, TierParams
from harvnet.region import boundary, contains, grid_coverage, sweep_boundary
from oracles import mp_fixed_point, mp_hyper_f, root_search_contains

DRAWS = 300
FIXED_POINT_DRAWS = 40


def _log_uniform(rng, exponent):
    return float(10.0 ** rng.uniform(-exponent, exponent))


def _draw(rng) -> NetworkScenario:
    tiers = tuple(
        TierParams(density=_log_uniform(rng, 150), tx_power=_log_uniform(rng, 100),
                   harvest_rate=_log_uniform(rng, 150),
                   battery=int(rng.choice([1, 2, 10, 300, 3000])),
                   shadowing=ShadowingSpec(float(rng.uniform(-20, 20)),
                                           float(rng.choice([0.0, 8.0]))))
        for _ in range(int(rng.integers(1, 4))))
    return NetworkScenario(tiers, path_loss_exp=float(rng.choice([2.0001, 3.0, 4.0, 6.0])),
                           sir_target=float(10.0 ** rng.uniform(-6, 12)),
                           user_density=_log_uniform(rng, 150))


def _unit(x) -> bool:
    x = np.asarray(x, dtype=float)
    return bool(np.all((x >= 0.0) & (x <= 1.0)))


def _positive(x) -> bool:
    return 0.0 < x < math.inf


def test_every_closed_form_is_in_range_or_an_error_over_the_domain():
    rng = np.random.default_rng(20261019)
    failures = []
    for draw in range(DRAWS):
        sc = _draw(rng)
        k_tiers = sc.k_tiers
        rho = rng.uniform(0.05, 1.0, k_tiers)
        others = rho[1:]
        checks = [
            ("solve_availability", lambda: solve_availability(sc),
             lambda r: _unit(r.rho) and math.isfinite(r.residual)),
            ("check_feasibility", lambda: (*check_feasibility(sc), solve_availability(sc)),
             lambda v: 0.0 <= v[1] < math.inf and v[0] == v[2].feasible),
            ("energy_outage_bound", lambda: energy_outage_bound(sc), _unit),
            ("boundary", lambda: boundary(sc, 0, others), _unit),
            ("contains", lambda: contains(sc, rho), lambda v: isinstance(v, bool)),
            ("tier_association_prob", lambda: tier_association_prob(sc, rho),
             lambda p: _unit(p) and abs(p.sum() - 1.0) < 1e-12),
            ("mean_service_area", lambda: mean_service_area(sc, rho, k_tiers - 1), _positive),
            ("energy_utilization", lambda: energy_utilization(sc, rho, 0),
             lambda v: 0.0 <= v < math.inf),
            ("g", lambda: g(sc, rho, 0), _unit),
            ("coverage_prob", lambda: coverage_prob(sc), _unit),
            ("coverage_prob vs mpmath 2F1",
             lambda: (coverage_prob(sc), 1 / (1 + mp_hyper_f(sc.sir_target, sc.path_loss_exp))),
             lambda v: abs(v[0] - v[1]) <= 1e-13 * v[1]),
            ("contains vs root search", lambda: (contains(sc, rho), root_search_contains(sc, rho)),
             lambda v: v[0] == v[1]),
            ("rate_ccdf", lambda: rate_ccdf(sc, rho, RateQuery(rate_target=0.5)), _unit),
        ]
        if k_tiers == 2:
            checks += [
                ("sweep_boundary", lambda: sweep_boundary(sc, 1, 5).values, _unit),
                ("grid_coverage", lambda: grid_coverage(sc, 5), _unit),
            ]
        for name, call, in_range in checks:
            try:
                value = call()
            except ScenarioError:
                continue
            except Exception as exc:    # warnings included
                failures.append((draw, name, repr(exc)))
                continue
            if not in_range(value):
                failures.append((draw, name, value))
    assert not failures, f"{len(failures)} failures, first: {failures[:5]}"


def _with_gamma(sc: NetworkScenario, gamma: float, target: float) -> NetworkScenario:
    """`sc` with every harvest rate scaled by target/gamma, so gamma becomes about target."""
    return replace(sc, tiers=tuple(replace(t, harvest_rate=t.harvest_rate * (target / gamma))
                                   for t in sc.tiers))


def test_fixed_point_matches_mpmath_over_the_domain_and_just_above_gamma_one():
    # Each feasible draw runs as drawn and with gamma - 1 moved to 1e-3, 1e-9
    # and 1e-15.  The oracle solves from the solver's own float tier
    # constants, so both see the same inputs.  Its scan reaches 1e-1001 of
    # the top load, not 1e-60: a tier far heavier than the rest can put the
    # root near 1e-137 of it.
    rng = np.random.default_rng(20261020)
    failures, compared, drawn = [], 0, 0
    while drawn < FIXED_POINT_DRAWS:
        sc = _draw(rng)
        try:
            feasible, gamma = check_feasibility(sc)
        except ScenarioError:
            continue
        if not feasible:
            continue
        drawn += 1
        for excess in (None, 1e-3, 1e-9, 1e-15):
            try:
                v = sc if excess is None else _with_gamma(sc, gamma, 1.0 + excess)
            except ScenarioError:       # a harvest rate rounds to 0
                continue
            if not check_feasibility(v)[0]:
                continue                # rounding leaves gamma <= 1
            res = solve_availability(v)
            c, s = analytic._tier_constants(v)
            want = mp_fixed_point(c, s, v.batteries(), [1] * v.k_tiers, decades=1000)
            err = float(np.max(np.abs(res.rho - want)))
            compared += 1
            if not err <= res.bracket + 1e-12:
                failures.append((drawn, excess, err, res.bracket))
    assert not failures, f"{len(failures)} of {compared} solves off, first: {failures[:5]}"
    assert compared >= 3 * FIXED_POINT_DRAWS
