"""Acceptance suite: every headline guarantee, verified end to end at its
stated tolerance. One CRITERION line prints per test (visible with -s).

Criteria with runtime budgets time exactly the measured workload: the random
profile sweeps, the fresh construction plus audit of the fifty-scenario
suite, and the solver-versus-grid-oracle comparison.
"""

import time

from corpus import (
    PROFILES_PER_TOPOLOGY,
    concave_suite,
    profile_corpus,
    sigmoid_suite,
    topology_corpus,
    with_params,
)
from nash_unicast.dynamics import DynamicsConfig, run_dynamics
from nash_unicast.equilibrium import (
    audit,
    check_optimality,
    construct_ne,
    ne_tax_closed_form,
    own_tax_table,
    posted_prices,
)
from nash_unicast.mechanism import (
    assign_subsidies,
    link_subsidy,
    outcome,
    penalty,
    tax_link,
)
from nash_unicast.network import build_network
from nash_unicast.solver import solve_centralized, welfare
from nash_unicast.utilities import log_utility, value
from oracles import brute_force_centralized, with_price, with_rate, zero_tax_deviation_price

SWEEPS = ((10.0, 1.0), (0.1, 1.0), (1.0, 10.0), (1.0, 0.1))


def _criterion(num, name, ok, detail=""):
    line = f"CRITERION {num:>2} [{'PASS' if ok else 'FAIL'}] {name}"
    if detail:
        line += f" | {detail}"
    print(line)
    assert ok, line


def _subsidy_cache():
    return {b.name: assign_subsidies(b.net, b.params.rng_seed) for b in topology_corpus()}


def _budget_gaps(params_scale=None):
    """Worst relative budget gap over the random feasible profile corpus."""
    subs = _subsidy_cache()
    worst = 0.0
    for b, profile in profile_corpus():
        params = b.params if params_scale is None else with_scaled(b.params, *params_scale)
        alloc = outcome(b.net, profile, params, subs[b.name])
        gap = abs(sum(alloc.taxes.values()))
        scale = 1.0 + sum(abs(t) for t in alloc.taxes.values())
        worst = max(worst, gap / scale)
    return worst


def with_scaled(params, alpha_scale, gamma_scale):
    from nash_unicast.mechanism import MechanismParams

    return MechanismParams(
        alpha=params.alpha * alpha_scale,
        gamma=params.gamma * gamma_scale,
        epsilon=params.epsilon,
        price_bound=params.price_bound,
        rng_seed=params.rng_seed,
    )


def _link_balance_gaps(params_scale=None):
    """Worst per-link tax-sum violation over the corpus: group sums for three
    or more users, pair sums plus their subsidy for two."""
    worst = 0.0
    for b, profile in profile_corpus():
        params = b.params if params_scale is None else with_scaled(b.params, *params_scale)
        for l in b.net.links():
            group = b.net.group(l)
            if len(group) < 2:
                continue
            taxes = tax_link(b.net, profile, l, params)
            if len(group) == 2:
                i, j = group
                total = (taxes[i].total + taxes[j].total) + link_subsidy(
                    b.net, profile, l, params
                )
            else:
                total = sum(t.total for t in taxes.values())
            worst = max(worst, abs(total))
    return worst


def _witness_worst_tax(suite):
    """Worst per-link tax magnitude of the zero-rate, zero-tax-price deviation,
    asserting along the way that the deviator's payoff (subsidy transfers
    included) never drops below the outside option."""
    worst = 0.0
    for s in suite:
        for user in s.net.users():
            deviated = dict(s.profile)
            m = with_rate(s.profile[user], 0.0)
            for link in s.net.route(user):
                if len(s.net.group(link)) >= 2:
                    price = zero_tax_deviation_price(s.net, s.profile, link, user, s.params)
                    assert 0.0 <= price <= s.params.price_bound
                    m = with_price(m, link, price)
                else:
                    m = with_price(m, link, 0.0)
            deviated[user] = m
            pay = 0.0  # zero rate earns zero utility
            for link in s.net.route(user):
                t = tax_link(s.net, deviated, link, s.params)[user].total
                worst = max(worst, abs(t))
                pay -= t
            for link, recipient in s.subsidies.items():
                if recipient == user:
                    pay -= link_subsidy(s.net, deviated, link, s.params)
            assert pay >= -1e-8, (s.name, user, pay)
    return worst


def _audit_fields(suite, br_grid=200):
    fields = {
        "uniformity": 0.0,
        "slackness": 0.0,
        "derivative": 0.0,
        "br_gap": 0.0,
        "ir_min": float("inf"),
        "budget": 0.0,
        "corollary": 0.0,
    }
    for s in suite:
        alloc = outcome(s.net, s.profile, s.params, s.subsidies)
        rep = audit(s.net, s.utilities, s.profile, s.params, alloc, br_grid=br_grid)
        assert rep.feasibility, s.name
        fields["uniformity"] = max(fields["uniformity"], rep.price_uniformity)
        fields["slackness"] = max(fields["slackness"], rep.complementary_slackness)
        fields["derivative"] = max(fields["derivative"], rep.tax_derivative_gap)
        fields["br_gap"] = max(fields["br_gap"], rep.best_response_gap)
        fields["ir_min"] = min(fields["ir_min"], rep.ir_min_payoff)
        fields["budget"] = max(fields["budget"], rep.budget_gap)
        fields["corollary"] = max(fields["corollary"], rep.corollary_tax_gap)
    return fields


def test_criterion_01_budget_balance():
    corpus = profile_corpus()
    assert len(corpus) == len(topology_corpus()) * PROFILES_PER_TOPOLOGY >= 1000
    assert len(topology_corpus()) >= 20
    start = time.perf_counter()
    worst = _budget_gaps()
    elapsed = time.perf_counter() - start
    _criterion(
        1,
        "budget balance over random feasible profiles",
        worst <= 1e-9 and elapsed < 10.0,
        f"worst relative gap {worst:.2e} over {len(corpus)} profiles in {elapsed:.1f}s",
    )


def test_criterion_02_link_balance():
    worst = _link_balance_gaps()
    _criterion(
        2,
        "per-link tax sums vanish (groups of 3+, pairs plus subsidy)",
        worst <= 1e-9,
        f"worst link-sum magnitude {worst:.2e}",
    )


def test_criterion_03_ne_construction():
    start = time.perf_counter()
    fields = {}
    for s in concave_suite():
        res = solve_centralized(s.net, s.utilities, s.solver_config)
        profile = construct_ne(s.net, s.utilities, s.params, solve_result=res)
        alloc = outcome(s.net, profile, s.params, s.subsidies)
        rep = audit(s.net, s.utilities, profile, s.params, alloc, br_grid=200)
        fields.setdefault("uniformity", []).append(rep.price_uniformity)
        fields.setdefault("slackness", []).append(rep.complementary_slackness)
        fields.setdefault("derivative", []).append(rep.tax_derivative_gap)
        fields.setdefault("br_gap", []).append(rep.best_response_gap)
    elapsed = time.perf_counter() - start
    ok = (
        all(v == 0.0 for v in fields["uniformity"])
        and max(fields["slackness"]) <= 1e-6
        and max(fields["derivative"]) <= 1e-5
        and max(fields["br_gap"]) <= 1e-4
        and elapsed < 60.0
    )
    _criterion(
        3,
        "constructed equilibria: uniform prices, slackness, derivatives, grid gap",
        ok,
        f"50 scenarios in {elapsed:.1f}s; worst slack {max(fields['slackness']):.1e}, "
        f"deriv {max(fields['derivative']):.1e}, br {max(fields['br_gap']):.1e}",
    )


def test_criterion_04_nash_implementation():
    suite = concave_suite()
    worst_rel = 0.0
    for s in suite:
        alloc = outcome(s.net, s.profile, s.params, s.subsidies)
        ok, gap = check_optimality(s.utilities, alloc, s.result)
        assert ok, s.name
        worst_rel = max(worst_rel, gap)

    small = [s for s in suite if s.net.num_users <= 3]
    assert small, "the random suite must contain small instances for the oracle"
    worst_excess = 0.0
    h = 1e-3
    for s in small:
        grid_rates = brute_force_centralized(s.net, s.utilities, h)
        diff = s.result.objective - welfare(s.utilities, grid_rates)
        modulus = sum(float(value(u, h)) for u in s.utilities.values())
        assert -1e-6 <= diff <= modulus + 1e-6, s.name
        worst_excess = max(worst_excess, diff / max(modulus, 1e-12))

    net = build_network({"A": 1.0}, {1: ["A"], 2: ["A"]})
    res = solve_centralized(net, {0: log_utility(1.0), 1: log_utility(1.0)})
    hand_ok = (
        abs(res.rates[0] - 0.5) <= 1e-6
        and abs(res.rates[1] - 0.5) <= 1e-6
        and abs(res.lambdas[0] - 2.0 / 3.0) <= 1e-6
    )
    _criterion(
        4,
        "equilibrium welfare equals the centralized optimum",
        worst_rel <= 1e-6 and hand_ok,
        f"worst relative gap {worst_rel:.2e}; {len(small)} grid-oracle instances",
    )


def test_criterion_05_individual_rationality():
    suite = concave_suite()
    ir_min = float("inf")
    worst_budget = 0.0
    for s in suite:
        alloc = outcome(s.net, s.profile, s.params, s.subsidies)
        for u in s.net.users():
            pay = float(value(s.utilities[u], alloc.rates[u])) - alloc.taxes[u]
            ir_min = min(ir_min, pay)
        gap = abs(sum(alloc.taxes.values()))
        worst_budget = max(worst_budget, gap / (1.0 + sum(abs(t) for t in alloc.taxes.values())))
    worst_witness = _witness_worst_tax(suite)
    _criterion(
        5,
        "participation is individually rational, with an exact exit deviation",
        ir_min >= -1e-9 and worst_witness <= 1e-9 and worst_budget <= 1e-9,
        f"min payoff {ir_min:.3e}; worst witness link tax {worst_witness:.2e}; "
        f"equilibrium budget gap {worst_budget:.1e}",
    )


def test_criterion_06_equilibrium_tax_forms():
    worst = 0.0
    for s in concave_suite():
        alloc = outcome(s.net, s.profile, s.params, s.subsidies)
        table, posted = own_tax_table(s.net, s.profile, s.params), posted_prices(s.net, s.profile)
        for (user, link), lt in alloc.breakdown.link_taxes.items():
            expected = ne_tax_closed_form(s.net, s.profile, link, user, table[(user, link)], posted[link])
            worst = max(worst, abs(lt.total - expected))
    _criterion(
        6,
        "equilibrium taxes match their closed forms",
        worst <= 1e-9,
        f"worst deviation {worst:.2e}",
    )


def test_criterion_07_walrasian():
    passing_endpoints = 0
    for b, start_profile in sigmoid_suite():
        starts = [start_profile]
        nudged = dict(start_profile)
        first = b.net.group(0)[0]
        nudged[first] = with_rate(start_profile[first], start_profile[first].rate * 0.7)
        starts.append(nudged)
        for start in starts:
            config = DynamicsConfig(max_rounds=12, br_grid=120, stop_tolerance=1e-7)
            traj = run_dynamics(b.net, b.utilities, start, config, b.params)
            subs = assign_subsidies(b.net, b.params.rng_seed)
            alloc = outcome(b.net, traj.final_profile, b.params, subs)
            rep = audit(b.net, b.utilities, traj.final_profile, b.params, alloc, br_grid=200)
            # the competitive check tolerates 1e-6 in payoffs, so only
            # endpoints equilibrated to that resolution qualify; a 1e-4-level
            # approximate equilibrium can sit far from the user's demand
            audit_pass = (
                rep.feasibility
                and rep.price_uniformity <= 1e-9
                and rep.complementary_slackness <= 1e-6
                and rep.best_response_gap <= 1e-6
            )
            if not audit_pass:
                continue
            passing_endpoints += 1
            assert rep.competitive_gap <= 1e-6, (b.name, rep.competitive_gap)

    concave_ok = True
    for s in concave_suite():
        alloc = outcome(s.net, s.profile, s.params, s.subsidies)
        rep = audit(s.net, s.utilities, s.profile, s.params, alloc, br_grid=2)
        concave_ok = concave_ok and rep.competitive_gap <= 1e-6
    _criterion(
        7,
        "audited equilibria are competitive allocations",
        passing_endpoints >= 1 and concave_ok,
        f"{passing_endpoints} sigmoid endpoints passed the audit and the competitive check",
    )


def test_criterion_08_penalty_calibration():
    eps = 1e-6
    target = 1.0 / (2.0 * eps)
    fired = penalty(True, True, eps)
    ok = (
        abs(fired - target) / target <= 0.01
        and penalty(True, False, eps) == 0.0
        and penalty(False, True, eps) == 0.0
        and penalty(False, False, eps) == 0.0
    )
    _criterion(8, "overload penalty calibrates to 1/(2*epsilon)", ok, f"value {fired:.1f}")


def test_criterion_09_parameter_robustness():
    suite = concave_suite()
    details = []
    all_ok = True
    for alpha_scale, gamma_scale in SWEEPS:
        budget = _budget_gaps((alpha_scale, gamma_scale))
        link = _link_balance_gaps((alpha_scale, gamma_scale))
        swept = [with_params(s, alpha_scale, gamma_scale) for s in suite]
        fields = _audit_fields(swept, br_grid=200)
        witness = _witness_worst_tax(swept)
        worst_corr = 0.0
        for s in swept:
            alloc = outcome(s.net, s.profile, s.params, s.subsidies)
            table, posted = own_tax_table(s.net, s.profile, s.params), posted_prices(s.net, s.profile)
            for (user, l), lt in alloc.breakdown.link_taxes.items():
                worst_corr = max(
                    worst_corr,
                    abs(lt.total - ne_tax_closed_form(s.net, s.profile, l, user, table[(user, l)], posted[l])),
                )
        opt_ok = all(
            check_optimality(s.utilities, outcome(s.net, s.profile, s.params, s.subsidies), s.result)[0]
            for s in swept
        )
        ok = (
            budget <= 1e-9
            and link <= 1e-9
            and fields["uniformity"] == 0.0
            and fields["slackness"] <= 1e-6
            and fields["derivative"] <= 1e-5
            and fields["br_gap"] <= 1e-4
            and fields["ir_min"] >= -1e-9
            and witness <= 1e-9
            and worst_corr <= 1e-9
            and opt_ok
        )
        all_ok = all_ok and ok
        details.append(f"a×{alpha_scale:g}/g×{gamma_scale:g}:{'ok' if ok else 'FAIL'}")
    _criterion(9, "every guarantee survives 10x parameter sweeps", all_ok, " ".join(details))


def test_criterion_10_solver_oracle():
    suite = concave_suite()
    start = time.perf_counter()
    worst_resid = max(s.result.kkt_residual for s in suite)
    slack_ok = True
    for s in suite:
        for l in s.net.links():
            load = sum(s.result.rates[u] for u in s.net.group(l))
            if load < s.net.capacity(l) - 1e-6:
                slack_ok = slack_ok and s.result.lambdas[l] <= 1e-6
    small = [s for s in suite if s.net.num_users <= 3]
    h = 1e-3
    oracle_ok = True
    for s in small:
        grid_rates = brute_force_centralized(s.net, s.utilities, h)
        diff = s.result.objective - welfare(s.utilities, grid_rates)
        modulus = sum(float(value(u, h)) for u in s.utilities.values())
        oracle_ok = oracle_ok and (-1e-6 <= diff <= modulus + 1e-6)
    elapsed = time.perf_counter() - start
    _criterion(
        10,
        "dual solver certified by residuals and the grid oracle",
        worst_resid <= 1e-8 and oracle_ok and slack_ok and elapsed < 30.0,
        f"worst residual {worst_resid:.2e}; {len(small)} oracle instances in {elapsed:.1f}s",
    )
