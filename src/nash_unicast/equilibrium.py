"""Equilibrium construction and auditing.

``construct_ne`` turns the centralized solution into a message profile: each
user requests its optimal rate and posts the link multipliers as prices.
``audit`` measures every equilibrium property of a candidate profile without
judging it: price uniformity, complementary slackness, left-sided tax
derivatives against the link price, a best-response gap, individual
rationality, budget balance, and agreement of the taxes with their
equilibrium closed forms (``ne_tax_closed_form``). A link's posted price is
the least price its users post (``posted_prices``), the common price on a
uniform profile; the audit computes it once and every price check reads it.
Every (user, link) pair's ``own_tax_terms`` is built once per command
(``own_tax_table``) and read by ``outcome`` and ``audit`` alike.

``best_deviation`` is the one best response, of the audit and of play
alike. For each user searched it builds the candidate own rates itself:
evenly spaced rates over [0, the user's route capacity], its current rate
and the analytic rate response (``_analytic_rate``). At a fixed own rate a
link's tax is a convex quadratic in the own price, so each link's best price
is that quadratic's vertex clipped to the price box (``_vertex_price``), and
the route's best tax is the sum of the links'. The users searched together
go in one array pass: one rate grid holds every user's candidates, a row
each, V on it takes one pass of the value formulas per utility family, and
the (user, link) pairs are stacked by route position for one tax-kernel
call on all candidates. It returns each user's winning message and gain;
``audit`` reads the largest gain over all users, and dynamics moves a colour
class of users who share no link by their winning messages.
``check_walrasian`` checks that every user's rate maximizes its payoff at
the posted prices over the rates the others leave available, against the
user's ``demand`` there, not a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from operator import attrgetter
from typing import Dict, List, Mapping, Sequence, Tuple

import numpy as np

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
from .network import Network, is_feasible, link_load, min_route_capacity
from .solver import SolveResult, SolverConfig, _worse, solve_centralized, welfare
from .utilities import UtilitySpec, demand, family_value, payoff


class PriceBoundExceeded(MechanismError):
    pass


class NonUniformPrices(MechanismError):
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


@dataclass(frozen=True)
class WalrasianCheck:
    ok: bool
    argmax_distance: float
    payoff_gap: float


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


def _analytic_rate(u: UtilitySpec, terms, hs, room: float) -> float:
    """The exact rate response at the current prices, given each route link's
    terms and h at its current price: the tax is linear in the own rate up to
    the overload wall, so the maximizer is a ``demand`` evaluation at the
    marginal own cost (each shared link's price coefficient plus its h) below
    the rate beyond which some link's overload penalty fires."""
    slope = 0.0
    for t, h in zip(terms, hs):
        if t.group_size == 1:
            continue
        slope += (t.peer_price_mean + t.price_adjust) + h
        room = min(room, max(-t.peer_excess, 0.0))
    return demand(u, max(slope, 0.0), room)


_term_row = attrgetter(*(f.name for f in fields(OwnTaxTerms)))


def _vertex_price(t: OwnTaxTerms, x, bound: float) -> np.ndarray:
    """The own price that minimises a shared link's tax at each own rate in
    ``x``, clipped to [0, ``bound``]: the vertex ``p + p*(peer_excess + x) /
    (gamma*quad_weight)`` of the tax's quadratic in the price, p the peers'
    mean price. Where ``gamma*quad_weight`` underflows to 0 the tax is linear
    in the price, so the best price is an end, or p at slope 0 (no 0/0).
    The fields of ``t`` may be columns, one (user, link) pair per row."""
    pull = t.peer_price_mean * (t.peer_excess + x)
    curvature = t.gamma * t.quad_weight
    with np.errstate(over="ignore"):  # an overflowing quotient clips to an end
        shift = np.divide(pull, curvature, out=np.zeros(np.shape(pull)), where=curvature != 0.0)
    vertex = np.minimum(np.maximum(t.peer_price_mean + shift, 0.0), bound)
    flat = curvature == 0.0
    if not np.any(flat):
        return vertex
    return np.where(flat, np.where(pull > 0.0, bound, np.where(pull < 0.0, 0.0, t.peer_price_mean)), vertex)


def _rate_grid(caps: np.ndarray, n: int) -> np.ndarray:
    """``np.linspace(0.0, cap, n)`` for each of ``caps``, one row each, bit
    for bit: ``k*step``, or ``(k/(n-1))*cap`` on a row whose step
    underflows to 0, as linspace computes them, then ``cap`` itself last.
    (Adding linspace's start 0.0 changes no non-negative rate.)"""
    if n < 2:
        return np.zeros((len(caps), n))
    k = np.arange(n, dtype=float)
    step = caps / (n - 1)
    grid = k * step[:, None]
    tiny = step == 0.0
    if tiny.any():
        grid[tiny] = k / (n - 1) * caps[tiny, None]
    grid[:, -1] = caps
    return grid


def best_deviation(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    users: Sequence[int],
    params: MechanismParams,
    br_grid: int,
    table: OwnTaxTable,
) -> Tuple[List[Message], List[float]]:
    """Each of ``users``' best own message and how much it gains (subsidies
    aside) over the current one: the best response of the audit and of play.

    ``table`` holds the ``own_tax_terms`` of every (user, route link) pair of
    ``users`` at ``profile``. A user's candidate rates are ``br_grid`` rates
    spaced evenly over [0, its route capacity], its current rate and the
    analytic rate response at the current prices (``_analytic_rate``). At
    each of them every shared link takes its ``_vertex_price``; a singleton
    link's tax does not depend on the price. The winner is the first best
    candidate rate, with each shared link at its vertex price there and each
    singleton link at price 0, the least of the tied prices.

    The candidates of all ``users`` form one array, a row per user: the
    grid part comes from one ``_rate_grid`` call, with each row's bits of
    ``np.linspace(0.0, cap, br_grid)``, and V on the rows from one
    ``family_value`` pass per utility family, each row with its own
    parameters. Each pair's tax and coupling coefficient h at the current
    message, which the current payoff and ``_analytic_rate`` read, come from
    the scalar path of ``eval_own_tax`` and ``own_tax_parts``, in Python
    floats. The (user, route link) pairs are stacked by route position: the
    first link of every route, then the second link of every route that has
    one, and so on, in the order of ``users`` within a position. Their terms
    become one ``OwnTaxTerms`` of (pairs, 1) columns, so ``eval_own_tax``
    runs once on all (pairs x candidates) rates. Each user's link taxes are
    summed from 0.0 one position at a time, in route order as builtin
    ``sum`` adds them, and each row is reduced by its own argmax, so every
    gain has the bits of a search run one user at a time, whichever users
    are searched together.

    Returns (messages, gains), both in the order of ``users``.
    """
    routes = [net.route(u) for u in users]
    cur = [profile[u] for u in users]
    pairs, ends, slots = [], [], [[] for _ in users]  # slots[i]: users[i]'s pairs in route order
    for s in range(max(map(len, routes))):
        for i, route in enumerate(routes):
            if len(route) > s:
                slots[i].append(len(pairs))
                pairs.append((i, route[s]))
        ends.append(len(pairs))
    owner = np.array([i for i, _ in pairs])
    t = OwnTaxTerms(*np.array([_term_row(table[users[i], l]) for i, l in pairs], dtype=float).T[:, :, None])
    p = np.array([[cur[i].prices[l]] for i, l in pairs], dtype=float)

    def route_sums(a):
        total = 0.0 + a[: ends[0]]  # position 0 holds every user, in order
        for start, end in zip(ends, ends[1:]):
            total[owner[start:end]] += a[start:end]
        return total

    # the current message's taxes and h, one pair at a time in Python floats
    caps = [min_route_capacity(net, u) for u in users]
    cur_tax, x_best = [], []
    for u, m, route, cap in zip(users, cur, routes, caps):
        terms, hs, tax = [table[u, l] for l in route], [], 0.0
        for tl, l in zip(terms, route):
            tax += eval_own_tax(tl, m.rate, m.prices[l])
            hs.append(own_tax_parts(tl, m.rate, m.prices[l])[3])
        cur_tax.append(tax)
        x_best.append(_analytic_rate(utilities[u], terms, hs, cap))

    rates = np.empty((len(users), br_grid + 2))
    rates[:, :br_grid] = _rate_grid(np.array(caps), br_grid)
    rates[:, br_grid] = [m.rate for m in cur]
    rates[:, br_grid + 1] = x_best
    families: Dict[str, List[int]] = {}
    for i, u in enumerate(users):
        families.setdefault(utilities[u].family, []).append(i)
    values = np.empty_like(rates)
    for family, rows in families.items():
        ab = np.array([(utilities[users[i]].a, utilities[users[i]].b) for i in rows])
        values[rows] = family_value(family, ab[:, :1], ab[:, 1:], rates[rows])
    v_cur = values[:, br_grid]

    x = rates[owner]
    single = t.group_size == 1
    vertex = _vertex_price(t, x, params.price_bound)
    pays = values - route_sums(eval_own_tax(t, x, np.where(single, p, vertex)))
    best = pays.argmax(axis=1)
    each = np.arange(len(users))
    gains = pays[each, best] - (v_cur - np.array(cur_tax))
    won_rates = rates[each, best].tolist()
    won_prices = np.where(single[:, 0], 0.0, vertex[np.arange(len(pairs)), best[owner]]).tolist()
    messages = [
        Message(rate=r, prices={l: won_prices[k] for k, l in zip(slot, route)})
        for r, slot, route in zip(won_rates, slots, routes)
    ]
    return messages, gains.tolist()


def audit(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    params: MechanismParams,
    alloc: Allocation,
    br_grid: int = 200,
    table: OwnTaxTable | None = None,
) -> NeAuditReport:
    """Measure every equilibrium diagnostic of a valid profile. Reports only;
    callers decide what counts as passing.

    ``alloc`` is the profile's ``outcome`` under the scenario's subsidy
    assignment; its rates, taxes and per-link breakdown feed the
    feasibility, individual-rationality, budget and closed-form checks.
    ``br_grid`` is the number of grid rates each user's best response tries
    (``best_deviation``, looked up through this module's global). ``table`` is the profile's ``own_tax_table``,
    which validated the profile, as the command built it for ``outcome``;
    without it ``audit`` builds its own. The tax derivatives, the best
    response and the closed forms all read it. The running maxima read a
    non-finite measurement as inf, so it never passes a bound.
    """
    if table is None:
        table = own_tax_table(net, profile, params)
    rates = alloc.rates

    posted = posted_prices(net, profile)
    uniformity = comp_slack = deriv_gap = 0.0
    for l in net.links():
        group = net.group(l)
        if not group:
            continue
        p_link = posted[l]
        excess = link_load(net, rates, l) - net.capacity(l)
        comp_slack = _worse(comp_slack, p_link * abs(excess) / params.gamma)
        if len(group) < 2:
            continue
        uniformity = _worse(uniformity, max(profile[u].prices[l] for u in group) - p_link)
        for user in group:
            x = profile[user].rate
            if x <= 1e-12:
                continue  # no room for a left-sided step
            h = min(1e-6 * (1.0 + x), x)
            t = table[(user, l)]
            p_own = profile[user].prices[l]
            fd = (float(eval_own_tax(t, x, p_own)) - float(eval_own_tax(t, x - h, p_own))) / h
            deriv_gap = _worse(deriv_gap, abs(fd - p_link))

    br_gap = 0.0
    for gain in best_deviation(net, utilities, profile, net.users(), params, br_grid, table)[1]:
        br_gap = _worse(br_gap, gain)

    ir_min = min(payoff(utilities[i], rates[i], alloc.taxes[i]) for i in net.users())
    budget_gap = abs(sum(alloc.taxes.values()))

    corr_gap = 0.0
    for (user, l), lt in alloc.breakdown.link_taxes.items():
        expected = ne_tax_closed_form(net, profile, l, user, table[(user, l)], posted[l])
        corr_gap = _worse(corr_gap, abs(lt.total - expected))

    return NeAuditReport(
        feasibility=is_feasible(net, rates),
        price_uniformity=uniformity,
        complementary_slackness=comp_slack,
        tax_derivative_gap=deriv_gap,
        best_response_gap=br_gap,
        ir_min_payoff=ir_min,
        budget_gap=budget_gap,
        corollary_tax_gap=corr_gap,
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


def check_walrasian(
    net: Network, utilities: Mapping[int, UtilitySpec], profile: MessageProfile
) -> Dict[int, WalrasianCheck]:
    """Check the competitive property of a uniform-price profile.

    For each user, compare its payoff at the posted prices (``posted_prices``)
    with its payoff at its ``demand`` for the route price over the rate the
    others leave available on its route. Passes when the gap is within 1e-6;
    ``argmax_distance`` is how far the user's rate sits from that demand.
    Raises ``NonUniformPrices`` when a link's prices spread more than 1e-9.
    """
    posted = posted_prices(net, profile)
    for l, group in enumerate(net.groups):
        spread = max((profile[u].prices[l] for u in group), default=0.0) - posted[l]
        if spread > 1e-9:
            raise NonUniformPrices(f"link {net.link_labels[l]!r} prices spread {spread}")

    out: Dict[int, WalrasianCheck] = {}
    for i in net.users():
        room = min(
            net.capacity(l) - sum(profile[j].rate for j in net.group(l) if j != i)
            for l in net.route(i)
        )
        price = sum(posted[l] for l in net.route(i))
        u, x = utilities[i], profile[i].rate
        best = demand(u, max(price, 0.0), max(room, 0.0))
        pay_gap = payoff(u, best, price * best) - payoff(u, x, price * x)
        out[i] = WalrasianCheck(ok=pay_gap <= 1e-6, argmax_distance=abs(x - best), payoff_gap=pay_gap)
    return out
