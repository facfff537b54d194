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
alike. A user's candidate own rates are evenly spaced rates over [0, its
route capacity], its current rate and the analytic rate response
(``_analytic_rate``). No message moves the evenly spaced rows or V on them,
so a command builds them once for every user (``search_grid``: one rate
grid, a row per user, and one pass of the value formulas per utility
family) and each search adds only the two rates that its profile decides.
At a fixed own rate a link's tax is a convex quadratic in the own price, so
each link's best price is that quadratic's vertex clipped to the price box
(``_vertex_price``), and the route's best tax is the sum of the links'. The
users searched together go in one array pass: the (user, link) pairs are
stacked by route position, and one array of link loads feeds the vertex
prices and one tax-kernel call on all candidates. It returns each user's
winning message and gain; ``audit`` reads the largest gain over all users,
and dynamics moves a colour class of users who share no link by their
winning messages.
The audit's competitive check prices each user's route at the sum of its
links' posted prices and compares the payoff of the user's rate with that
of its ``demand`` there over the whole route capacity, whatever room the
others leave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Mapping, NamedTuple, Sequence, Tuple

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
    own_tax_and_h,
    own_tax_terms,
    validate_profile,
)

# Not called here: bench/spans.py wraps these names on this module.
from .mechanism import balance_term_large_group, balance_term_three_user, outcome  # noqa: F401
from .network import Network, is_feasible, link_load, min_route_capacity
from .solver import SolveResult, SolverConfig, _worse, solve_centralized, welfare
from .utilities import UtilitySpec, demand, family_value, payoff, value

DEFAULT_BR_GRID = 200  # grid rates per user of the best response: audit's, play's and --grid's default


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


def _vertex_price(t: OwnTaxTerms, load, bound: float) -> np.ndarray:
    """The own price that minimises a shared link's tax at each own rate,
    given the link's ``load`` there (``peer_excess`` plus the rate), clipped
    to [0, ``bound``]: the vertex ``p + p*load / (gamma*quad_weight)`` of the
    tax's quadratic in the price, p the peers' mean price. Where
    ``gamma*quad_weight`` underflows to 0 the tax is linear in the price, so
    the best price is an end, or p at slope 0 (no 0/0). A singleton link's
    tax ignores the price; its row reads 0 at a finite load. The fields of
    ``t`` may be columns, one (user, link) pair per row."""
    pull = t.peer_price_mean * load
    curvature = t.gamma * t.quad_weight
    flat = curvature == 0.0
    with np.errstate(over="ignore"):  # an overflowing quotient clips to an end
        shift = pull / np.where(flat, 1.0, curvature)
        vertex = np.minimum(np.maximum(t.peer_price_mean + shift, 0.0), bound)
    # a singleton row is flat with pull 0 (a lone user's peer mean price is
    # 0), so dividing it by 1 gives it the flat price, 0
    if not np.any(flat & (t.group_size != 1)):
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


class SearchGrid(NamedTuple):
    """The part of every user's best-response search that no message moves,
    built once per command by ``search_grid`` and only read after: a row of
    evenly spaced rates per user, V on each row and each route capacity.
    Row ``u`` belongs to user ``u``."""

    rates: np.ndarray  # (users, br_grid): np.linspace(0.0, cap, br_grid) per row, bit for bit
    values: np.ndarray  # V on rates, each row with its user's parameters
    caps: List[float]  # min_route_capacity per user


def search_grid(net: Network, utilities: Mapping[int, UtilitySpec], br_grid: int) -> SearchGrid:
    """Every user's ``br_grid`` rates spaced evenly over [0, its route
    capacity], with the bits of ``np.linspace(0.0, cap, br_grid)``, from one
    ``_rate_grid`` call, and V on them from one ``family_value`` pass per
    utility family, a column of each user's parameters against its row."""
    caps = [min_route_capacity(net, u) for u in net.users()]
    rates = _rate_grid(np.array(caps), br_grid)
    families: Dict[str, List[int]] = {}
    for u in net.users():
        families.setdefault(utilities[u].family, []).append(u)
    values = np.empty_like(rates)
    for family, rows in families.items():
        ab = np.array([(utilities[u].a, utilities[u].b) for u in rows])
        values[rows] = family_value(family, ab[:, :1], ab[:, 1:], rates[rows])
    return SearchGrid(rates, values, caps)


def best_deviation(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    users: Sequence[int],
    params: MechanismParams,
    grid: SearchGrid,
    table: OwnTaxTable,
) -> Tuple[List[Message], List[float]]:
    """Each of ``users``' best own message and how much it gains (subsidies
    aside) over the current one: the best response of the audit and of play.

    ``grid`` is the command's ``search_grid`` and ``table`` holds the
    ``own_tax_terms`` of every (user, route link) pair of ``users`` at
    ``profile``. A user's candidate rates are its grid row, its current
    rate and the analytic rate response at the current prices
    (``_analytic_rate``). At each of them every shared link takes its
    ``_vertex_price``; a singleton link's tax does not depend on the price.
    The winner is the first best candidate rate, with each shared link at
    its vertex price there and each singleton link at price 0, the least of
    the tied prices.

    The candidates of all ``users`` form one array, a row per user: their
    grid rows and V on them, copied from ``grid``, and two columns added
    here, the current and the analytic rate, with V from ``family_value``
    on each float, which checks no rate: an analytic rate that reads NaN
    (its slope inf - inf) gives a NaN gain. Each pair's tax and coupling
    coefficient h at the current message, which the current payoff and
    ``_analytic_rate`` read, come from one scalar ``own_tax_and_h`` call. The
    (user, route link) pairs are stacked by route position: the first link
    of every route, then the second link of every route that has one, and
    so on, in the order of ``users`` within a position. Their terms become
    one ``OwnTaxTerms`` of (pairs, 1) columns, so the vertex prices and
    ``eval_own_tax`` run once on all (pairs x candidates) rates, on one
    array of link loads. Each user's link taxes are summed from 0.0 one
    position at a time, in route order as builtin ``sum`` adds them, and
    each row is reduced by its own argmax, so every gain has the bits of a
    search run one user at a time, whichever users are searched together.

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
    t = OwnTaxTerms(*np.array([table[users[i], l] for i, l in pairs], dtype=float).T[:, :, None])

    def route_sums(a):
        total = 0.0 + a[: ends[0]]  # position 0 holds every user, in order
        for start, end in zip(ends, ends[1:]):
            total[owner[start:end]] += a[start:end]
        return total

    # the current message's payoff and analytic rate, in Python floats
    v_cur, cur_pay, x_best, v_best = [], [], [], []
    for u, m, route in zip(users, cur, routes):
        spec, terms, hs, tax = utilities[u], [table[u, l] for l in route], [], 0.0
        for tl, l in zip(terms, route):
            tax_l, h = own_tax_and_h(tl, m.rate, m.prices[l])
            tax += tax_l
            hs.append(h)
        v_cur.append(family_value(spec.family, spec.a, spec.b, m.rate))
        cur_pay.append(v_cur[-1] - tax)
        x_best.append(_analytic_rate(spec, terms, hs, grid.caps[u]))
        v_best.append(family_value(spec.family, spec.a, spec.b, x_best[-1]))

    n = grid.rates.shape[1]
    rates = np.empty((len(users), n + 2))
    values = np.empty_like(rates)
    rates[:, :n] = grid.rates[users]
    values[:, :n] = grid.values[users]
    rates[:, n] = [m.rate for m in cur]
    rates[:, n + 1] = x_best
    values[:, n] = v_cur
    values[:, n + 1] = v_best

    x = rates[owner]
    load = t.peer_excess + x
    vertex = _vertex_price(t, load, params.price_bound)
    single = t.group_size == 1
    own = vertex
    if single.any():  # a singleton link's tax reads the current price
        p = np.array([[cur[i].prices[l]] for i, l in pairs], dtype=float)
        own = np.where(single, p, vertex)
    pays = values - route_sums(eval_own_tax(t, x, own, load))
    best = pays.argmax(axis=1)
    each = np.arange(len(users))
    gains = pays[each, best] - np.array(cur_pay)
    won_rates = rates[each, best].tolist()
    won = vertex[np.arange(len(pairs)), best[owner]]
    won_prices = (np.where(single[:, 0], 0.0, won) if single.any() else won).tolist()
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
    br_grid: int = DEFAULT_BR_GRID,
    table: OwnTaxTable | None = None,
) -> NeAuditReport:
    """Measure every equilibrium diagnostic of a valid profile. Reports only;
    callers decide what counts as passing.

    ``alloc`` is the profile's ``outcome`` under the scenario's subsidy
    assignment; its rates, taxes and per-link breakdown feed the
    feasibility, individual-rationality, budget and closed-form checks.
    ``br_grid`` is the number of grid rates each user's best response tries:
    the audit builds one ``search_grid`` of them and searches every user at
    once (``best_deviation``, looked up through this module's global).
    ``table`` is the profile's ``own_tax_table``, which validated the
    profile, as the command built it for ``outcome``; without it ``audit``
    builds its own. The tax derivatives, the best response and the closed
    forms all read it. The derivative check reads the tax's slope in the own
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
            h = own_tax_and_h(t, m.rate, m.prices[l])[1]
            deriv_gap = _worse(deriv_gap, abs((t.peer_price_mean + t.price_adjust) + h - p_link))

    br_gap = 0.0
    grid = search_grid(net, utilities, br_grid)
    for gain in best_deviation(net, utilities, profile, net.users(), params, grid, table)[1]:
        br_gap = _worse(br_gap, gain)

    # one walk over users: V at the own rate enters both its payoff after
    # tax and, less price times rate, its payoff at the route's price
    comp_gap, ir_min = 0.0, math.inf
    for u in net.users():
        spec, x, price = utilities[u], rates[u], sum(posted[l] for l in net.route(u))
        v = float(value(spec, x))
        best = demand(spec, max(price, 0.0), grid.caps[u])
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
