"""Equilibrium construction and auditing.

``construct_ne`` turns the centralized solution into a message profile: each
user requests its optimal rate and posts the link multipliers as prices.
``audit`` measures every equilibrium property of a candidate profile without
judging it: price uniformity, complementary slackness, each tax's slope in
the own rate (linear below the overload walls) against the link price, a
best-response gap, individual rationality, budget balance, agreement of
the taxes with their equilibrium closed forms (``ne_tax_closed_form``), and
how far each user's rate falls short of competitive at those prices. A
link's posted price is the least price its users post (``posted_prices``),
the common price on a uniform profile; the audit computes it once and every
price check reads it. Every (user, link) pair's ``own_tax_terms`` is built
once per command (``own_tax_table``) and read by ``outcome`` and ``audit``
alike.

``best_deviation`` is the one best response, of the audit and of play
alike, searched one user at a time in plain floats. At a fixed own rate a
link's tax is a convex quadratic in the own price, so each link's best
price is that quadratic's vertex clipped to the price box
(``_vertex_price``), and the route's best tax is the sum of the links'.
Over the own rate that payoff is smooth between a few breakpoints, and on
each piece it is concave on at most one interval and convex elsewhere; so
it peaks at a breakpoint, at an end of such an interval or at the one root
of its slope inside it (``_best_rate``), and the best-response gap is exact
up to rounding. It returns each user's winning message and gain;
``audit`` reads the largest gain over all users, and dynamics moves a
colour class of users who share no link by their winning messages.
The audit's competitive check prices each user's route at the sum of its
links' posted prices and compares the payoff of the user's rate with that
of its ``demand`` there over the whole route capacity, whatever room the
others leave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, Sequence, Tuple

from .mechanism import (
    Allocation,
    MechanismError,
    MechanismParams,
    Message,
    MessageProfile,
    OwnTaxTable,
    OwnTaxTerms,
    _cyclic_peers,
    eval_own_tax,
    own_tax_parts,
    own_tax_terms,
    validate_profile,
)

# Not called here: bench/spans.py wraps these names on this module.
from .mechanism import balance_term_large_group, balance_term_three_user, outcome  # noqa: F401
from .network import BOUNDARY_TOL, Network, is_feasible, link_load, min_route_capacity
from .solver import SolveResult, SolverConfig, _worse, solve_centralized, welfare
from .utilities import UtilitySpec, demand, family_value, interior_candidates, payoff, value


class PriceBoundExceeded(MechanismError):
    pass


@dataclass(frozen=True)
class NeAuditReport:
    """Measured equilibrium diagnostics; every field is a pure function of the
    inputs. Small is good everywhere except ``ir_min_payoff``."""

    feasibility: bool
    price_uniformity: float
    complementary_slackness: float
    tax_derivative_gap: float
    best_response_gap: float
    ir_min_payoff: float
    budget_gap: float
    corollary_tax_gap: float
    competitive_gap: float


def construct_ne(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    params: MechanismParams,
    solver_config: SolverConfig | None = None,
    solve_result: SolveResult | None = None,
) -> MessageProfile:
    """Equilibrium profile from the centralized solution: optimal rates, link
    multipliers as uniform prices. Fails loudly if a multiplier does not fit
    under the price bound (enlarge it) rather than clamping silently."""
    res = solve_result if solve_result is not None else solve_centralized(net, utilities, solver_config)
    for l, lam in res.lambdas.items():
        if lam > params.price_bound + 1e-12:
            raise PriceBoundExceeded(
                f"multiplier {lam} on link {net.link_labels[l]!r} exceeds the price bound"
                f" {params.price_bound}"
            )
    profile = {
        i: Message(rate=res.rates[i], prices={l: res.lambdas[l] for l in net.route(i)})
        for i in net.users()
    }
    validate_profile(net, profile, params)
    return profile


def own_tax_table(net: Network, profile: MessageProfile, params: MechanismParams) -> OwnTaxTable:
    """Every (user, route link) pair's ``own_tax_terms`` of a valid profile:
    the table a command builds once and passes to ``outcome`` and ``audit``.
    Raises what ``validate_profile`` raises."""
    validate_profile(net, profile, params)
    return {(u, l): own_tax_terms(net, profile, l, u, params) for u in net.users() for l in net.route(u)}


def posted_prices(net: Network, profile: MessageProfile) -> Dict[int, float]:
    """Each link's posted price: the least price its users post, 0.0 on a
    link no route uses. On a uniform profile it is the common price, bit for
    bit, which is what the certified solver start needs."""
    return {l: min((profile[u].prices[l] for u in group), default=0.0) for l, group in enumerate(net.groups)}


def ne_tax_closed_form(net, profile, link, user, terms: OwnTaxTerms, price: float) -> float:
    """The link tax a uniform-price profile implies in closed form, given the
    user's ``own_tax_terms`` on the link and the link's posted ``price``.

    Two users: price times own rate. More than three: price times the gap
    between the own rate and the peers' mean rate (their ``peer_rate_sum``
    over their count). Exactly three: the same plus an order-1/gamma skew
    between the two peers, the exact residue of the three-user balance term.
    """
    n = terms.group_size
    if n == 1:
        return 0.0
    x = profile[user].rate
    if n == 2:
        return price * x
    if n > 3:
        return price * (x - terms.peer_rate_sum / (n - 1))
    j, k = _cyclic_peers(net.group(link), user)
    xj, xk = profile[j].rate, profile[k].rate
    return price * (x - 0.5 * (xj + xk)) + price * price * (xk - xj) / (2.0 * terms.gamma)


def _vertex_price(t: OwnTaxTerms, x: float, bound: float) -> float:
    """The own price that minimises a shared link's tax at own rate ``x``,
    clipped to [0, ``bound``]: the vertex ``p + p*load/(gamma*quad_weight)``
    of the tax's quadratic in the price, p the peers' mean price and load
    ``peer_excess + x``. Where ``gamma*quad_weight`` underflows to 0 the
    tax is linear in the price, so the best price is an end, or p at slope
    0 (no 0/0)."""
    pull = t.peer_price_mean * (t.peer_excess + x)
    curvature = t.gamma * t.quad_weight
    if curvature == 0.0:
        return bound if pull > 0.0 else 0.0 if pull < 0.0 else t.peer_price_mean
    vertex = t.peer_price_mean + pull / curvature
    return 0.0 if vertex < 0.0 else bound if vertex > bound else vertex  # a NaN stays


def _best_rate(spec: UtilitySpec, shared: List[OwnTaxTerms], cap: float, rate: float, bound: float):
    """The first best own rate, in ascending order, and its payoff, with
    every ``shared`` link at its ``_vertex_price``, over [0, ``cap``] and
    the current ``rate``.

    The payoff is phi(x) = V(x) - sum of the taxes; by the envelope theorem
    phi'(x) = V'(x) - sum of ((peer_price_mean + price_adjust) + h), h at
    the vertex price. Its breakpoints are 0, the cap, quadcap's peak and,
    per link, its overload wall (beyond which the penalty fires), the rates
    where the vertex price clips to 0 or to the bound, and, where
    gamma*quad_weight underflows to 0, its zero load. Between two of them
    phi'' = V'' + beta, beta the sum of 2*p^2/(gamma^2*quad_weight) over
    the unclipped links, so phi peaks at a breakpoint or at one of the
    piece's ``interior_candidates``. Those, each link's zero load -e and
    the current rate (so the gain cannot read below 0 on rounding) are
    scored with ``eval_own_tax``, but not a rate above 0 that loads a link
    past its capacity short of its wall: that stretch is the penalty's
    rounding slack, where a peer's sum or the feasibility check may read
    the load past the wall, so the search stops at -e, at most
    BOUNDARY_TOL times the slope short. A NaN score makes the payoff NaN.
    """
    points, slack = {0.0, cap}, []
    if spec.family == "quadcap":
        points.add(spec.a / (2.0 * spec.b))
    for t in shared:
        e, p, c = t.peer_excess, t.peer_price_mean, t.gamma * t.quad_weight
        # the penalty fires where x > BOUNDARY_TOL and e + x > BOUNDARY_TOL
        wall = max(BOUNDARY_TOL, BOUNDARY_TOL - e)
        points.add(wall)
        slack.append((-e, wall))
        if c == 0.0:  # the flat vertex price jumps where the load changes sign
            points.add(-e)
        elif p != 0.0:  # the vertex p + p*(e + x)/c reaches 0 and the bound
            points.update((-e - c, -e + (bound - p) * c / p))
    points = sorted(x for x in points if 0.0 <= x <= cap)  # NaN drops out

    candidates = set(points).union(x for x, _ in slack if 0.0 <= x <= cap)
    for lo, hi in zip(points, points[1:]):
        mid, beta, at_lo = lo + 0.5 * (hi - lo), 0.0, 0.0
        for t in shared:
            c = t.gamma * t.quad_weight
            if c != 0.0 and 0.0 < _vertex_price(t, mid, bound) < bound:
                beta += 2.0 * (t.peer_price_mean / t.gamma) * (t.peer_price_mean / c)
            h = own_tax_parts(t, lo, _vertex_price(t, lo, bound))[3]
            at_lo += (t.peer_price_mean + t.price_adjust) + h
        # the marginal cost falls at rate beta across the piece
        candidates.update(interior_candidates(spec, lambda x: at_lo - beta * (x - lo), beta, lo, hi))

    candidates = {x for x in candidates if x == 0.0 or not any(lo < x <= hi for lo, hi in slack)}
    best, best_pay = rate, -math.inf
    for x in sorted(candidates | {rate}):
        tax = 0.0
        for t in shared:
            tax += eval_own_tax(t, x, _vertex_price(t, x, bound))
        pay = family_value(spec.family, spec.a, spec.b, x) - tax
        if pay != pay:
            return x, pay
        if pay > best_pay:
            best, best_pay = x, pay
    return best, best_pay


def best_deviation(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    users: Sequence[int],
    params: MechanismParams,
    table: OwnTaxTable,
) -> Tuple[List[Message], List[float]]:
    """Each of ``users``' best own message and how much it gains (subsidies
    aside) over the current one: the best response of the audit and of play.

    ``table`` holds the ``own_tax_terms`` of every (user, route link) pair
    of ``users`` at ``profile``. A user's best rate is ``_best_rate``'s,
    with each shared link at its ``_vertex_price`` there and each singleton
    link at price 0, the least of the tied prices: on [0, route capacity] a
    singleton link's tax is 0 at every price. The gain is measured against
    the current message's payoff, its route taxes summed from 0.0 in route
    order; a tax that overflows gives a NaN or infinite gain.

    Returns (messages, gains), both in the order of ``users``.
    """
    bound = params.price_bound
    messages, gains = [], []
    for u in users:
        spec, cur, route = utilities[u], profile[u], net.route(u)
        terms = [table[u, l] for l in route]
        tax = 0.0
        for t, l in zip(terms, route):
            tax += eval_own_tax(t, cur.rate, cur.prices[l])
        shared = [t for t in terms if t.group_size > 1]
        rate, pay = _best_rate(spec, shared, min_route_capacity(net, u), cur.rate, bound)
        prices = {l: _vertex_price(t, rate, bound) if t.group_size > 1 else 0.0 for l, t in zip(route, terms)}
        messages.append(Message(rate=rate, prices=prices))
        gains.append(pay - (family_value(spec.family, spec.a, spec.b, cur.rate) - tax))
    return messages, gains


def audit(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    params: MechanismParams,
    alloc: Allocation,
    table: OwnTaxTable | None = None,
) -> NeAuditReport:
    """Measure every equilibrium diagnostic of a valid profile. Reports only;
    callers decide what counts as passing.

    ``alloc`` is the profile's ``outcome`` under the scenario's subsidy
    assignment; its rates, taxes and per-link breakdown feed the
    feasibility, individual-rationality, budget and closed-form checks.
    The best-response gap is the largest gain of ``best_deviation`` (looked
    up through this module's global) over all users. ``table`` is the
    profile's ``own_tax_table``, which validated the profile, as the
    command built it for ``outcome``; without it ``audit`` builds its own.
    The tax derivatives, the best response and the closed forms all read
    it. The derivative check reads the tax's slope in the own
    rate, ``(peer_price_mean + price_adjust) + h``, exact below the overload
    walls; past one ``feasibility`` fails. The competitive gap is the most a
    user gains by buying its ``demand`` at its route's price, the sum of its
    links' posted prices, anywhere up to its route capacity, over its own
    rate at that price. The running maxima and the budget gap read a
    non-finite measurement as inf, the least payoff one as -inf.
    """
    if table is None:
        table = own_tax_table(net, profile, params)
    rates = alloc.rates

    posted = posted_prices(net, profile)
    uniformity = comp_slack = deriv_gap = corr_gap = 0.0
    for l, group in enumerate(net.groups):
        if not group:
            continue
        p_link = posted[l]
        excess = link_load(net, rates, l) - net.capacity(l)
        comp_slack = _worse(comp_slack, p_link * abs(excess) / params.gamma)
        for user in group:
            m, t = profile[user], table[user, l]
            uniformity = _worse(uniformity, m.prices[l] - p_link)
            expected = ne_tax_closed_form(net, profile, l, user, t, p_link)
            corr_gap = _worse(corr_gap, abs(alloc.breakdown.link_taxes[user, l].total - expected))
            if t.group_size == 1 or m.rate <= 1e-12:
                # a lone user's tax has no price part; a zero rate has no left
                # derivative (whether to check such a user is ROADMAP item 1)
                continue
            h = own_tax_parts(t, m.rate, m.prices[l])[3]
            deriv_gap = _worse(deriv_gap, abs((t.peer_price_mean + t.price_adjust) + h - p_link))

    br_gap = 0.0
    for gain in best_deviation(net, utilities, profile, net.users(), params, table)[1]:
        br_gap = _worse(br_gap, gain)

    # one walk over users: V at the own rate enters both its payoff after
    # tax and, less price times rate, its payoff at the route's price
    comp_gap, ir_min = 0.0, math.inf
    for u in net.users():
        spec, x, price = utilities[u], rates[u], sum(posted[l] for l in net.route(u))
        v = float(value(spec, x))
        best = demand(spec, max(price, 0.0), min_route_capacity(net, u))
        comp_gap = _worse(comp_gap, payoff(spec, best, price * best) - (v - price * x))
        own = v - alloc.taxes[u]
        ir_min = min(ir_min, own if math.isfinite(own) else -math.inf)
    budget_gap = _worse(0.0, abs(sum(alloc.taxes.values())))

    return NeAuditReport(
        feasibility=is_feasible(net, rates),
        price_uniformity=uniformity,
        complementary_slackness=comp_slack,
        tax_derivative_gap=deriv_gap,
        best_response_gap=br_gap,
        ir_min_payoff=ir_min,
        budget_gap=budget_gap,
        corollary_tax_gap=corr_gap,
        competitive_gap=comp_gap,
    )


def check_optimality(
    utilities: Mapping[int, UtilitySpec],
    alloc: Allocation,
    solve_result: SolveResult,
) -> Tuple[bool, float]:
    """Does a profile's allocation ``alloc`` (its ``outcome``) attain the
    centralized optimum?

    True iff the welfare gap against the certified solver objective is within
    1e-6 (relative) and the taxes net out to zero within 1e-6.
    """
    w = welfare(utilities, alloc.rates)
    gap = abs(w - solve_result.objective) / max(1.0, abs(solve_result.objective))
    balanced = abs(sum(alloc.taxes.values())) <= 1e-6
    return (gap <= 1e-6 and balanced), gap
