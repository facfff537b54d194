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

The audit's best response (``_best_response_gaps``) builds each user's
candidate own rates itself: evenly spaced rates over [0, the user's route
capacity], its current rate and the analytic rate response
(``_analytic_rate``). At a fixed own rate a link's tax is a convex quadratic
in the own price, so each link's best price is that quadratic's vertex
clipped to the price box (``_vertex_price``), and the route's best tax is
the sum of the links'. Every user is searched in one array pass: the pairs
are stacked by route position, and the tax kernel runs once per position.

``best_deviation`` is the move rule of best-response dynamics: a grid search
over rates and prices, on axes that depend only on the static game (a
``DeviationGrid``, built once per dynamics run by ``deviation_grid``: one
price axis, and per user a rate row and V on it). It rests on a link tax
separating into a rate part, a price part and a rate-times-price coupling,
so a user's whole rate-by-price lattice is the outer sum of three per-route
vectors. Each price column has a bound that no float entry of it can exceed
(its coupling is least at rate 0 or at the top rate, and rounding is
monotone), so only the columns whose bound reaches the best column's max
are evaluated, and when only that column does, its own argmax is the
answer; the result is the full lattice's, bit for bit. Discrete
prices are what let play settle. ``check_walrasian`` checks that every
user's rate maximizes its payoff at the posted prices over the rates the
others leave available, against the user's ``demand`` there, not a grid.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import partial
from operator import attrgetter
from typing import Dict, Mapping, Tuple

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
    own_tax_axes,
    own_tax_parts,
    own_tax_terms,
    validate_profile,
)

# Not called here: bench/spans.py wraps these names on this module.
from .mechanism import balance_term_large_group, balance_term_three_user, outcome  # noqa: F401
from .network import Network, is_feasible, link_load, min_route_capacity
from .solver import SolveResult, SolverConfig, _worse, solve_centralized, welfare
from .utilities import UtilitySpec, demand, payoff, value


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
class DeviationGrid:
    """The search axes of ``best_deviation``, fixed by the static game: the
    price axis all users share, and per user id its rate axis over its route
    capacity (``rates[u]``) and the utility on that axis (``values[u]``).
    Every array is 1-D and read-only."""

    prices: np.ndarray
    rates: Tuple[np.ndarray, ...]
    values: Tuple[np.ndarray, ...]


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def deviation_grid(
    net: Network, utilities: Mapping[int, UtilitySpec], params: MechanismParams, br_grid: int
) -> DeviationGrid:
    """``br_grid`` points per axis: prices over [0, price_bound], and per
    user ``np.linspace(0.0, cap, br_grid)`` over its route capacity and
    ``value`` on those rates."""
    rates = [np.linspace(0.0, min_route_capacity(net, u), br_grid) for u in net.users()]
    return DeviationGrid(
        prices=_read_only(np.linspace(0.0, params.price_bound, br_grid)),
        rates=tuple(_read_only(xs) for xs in rates),
        values=tuple(_read_only(value(utilities[u], xs)) for u, xs in zip(net.users(), rates)),
    )


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


def _lattice_argmax(
    xs: np.ndarray, a: np.ndarray, h_sum: np.ndarray, g_sum: np.ndarray
) -> Tuple[int, int, float]:
    """First max in row-major order (smallest rate, then price) of the lattice
    ``a[i] - (xs[i] * h_sum[j] + g_sum[j])`` over ascending rates ``xs >= 0``,
    as (i, j, value). The best-bounded column is filled first and its max is
    the floor; only the columns whose bound is not below it are kept (ties
    and NaN keep a column). That column always keeps itself, so when it is
    the only one kept its own argmax is the answer; otherwise the kept
    columns are filled as one block."""
    low_x = np.where(h_sum < 0.0, xs[-1], 0.0)
    bound = a.max() - (low_x * h_sum + g_sum)
    top = int(bound.argmax())
    column = a - (xs * h_sum[top] + g_sum[top])
    i = int(column.argmax())
    keep = np.flatnonzero(~(bound < column[i]))
    if len(keep) == 1:
        return i, top, float(column[i])
    block = a[:, None] - (np.multiply.outer(xs, h_sum[keep]) + g_sum[keep])
    i, k = divmod(int(block.argmax()), len(keep))
    return i, int(keep[k]), float(block[i, k])


def _uniform_message(rate: float, price: float, route) -> Message:
    return Message(rate=rate, prices={l: price for l in route})


def _same(message: Message) -> Message:
    return message


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


def _tax_total(t: OwnTaxTerms, x, parts) -> float:
    """The link tax at own rate ``x`` from its ``own_tax_parts``, added in
    ``eval_own_tax``'s order of operations, so with its bits."""
    price, pen, quad, h = parts
    return float(price + quad + h * (t.peer_excess + x) + t.balance_const + pen)


def _best_candidate(route, cur: Message, cur_pay: float, lattice, at_cur_prices, sweeps):
    """The best of one user's candidates, as (message, payoff, ``cur_pay``).

    ``lattice`` is the (payoff, rate, price) of the uniform-price lattice,
    ``at_cur_prices`` the (payoff, rate) pairs found holding the current
    prices, and ``sweeps`` the (payoff, price) of each route link's price
    sweep, in route order; the current message comes last. Ties break toward
    the smallest rate, then the lexicographically smallest price vector. Only
    the winner's message is built.
    """
    cur_prices = tuple(cur.prices[l] for l in route)
    pay0, x0, p0 = lattice
    best = (pay0, x0, (p0,) * len(route), partial(_uniform_message, x0, p0, route))
    cands = [(pay, x, cur_prices, partial(Message, x, cur.prices)) for pay, x in at_cur_prices]
    for l, (pay, p) in zip(route, sweeps):
        prices = tuple(p if m == l else cur.prices[m] for m in route)
        cands.append((pay, cur.rate, prices, partial(cur.with_price, l, p)))
    cands.append((cur_pay, cur.rate, cur_prices, partial(_same, cur)))
    for c in cands:
        if c[0] > best[0] or (c[0] == best[0] and c[1:3] < best[1:3]):
            best = c
    return best[3](), best[0], cur_pay


def best_deviation(
    net: Network,
    utilities: Mapping[int, UtilitySpec],
    profile: MessageProfile,
    user: int,
    params: MechanismParams,
    grid: DeviationGrid,
) -> Tuple[Message, float, float]:
    """Grid-argmax of one user's payoff over its own message box.

    ``grid`` is ``deviation_grid`` of the same network, utilities and params;
    it does not depend on the profile, so one grid serves every call of a
    dynamics run. Dynamics calls this one user at a time, because each move
    changes what the next user faces. It is the move rule of play only; the
    audit's best response prices each link in closed form
    (``_best_response_gaps``).

    Candidates: a rate-by-uniform-price lattice spanning the whole box, a
    rate sweep holding the current prices (the price box is huge, so the
    uniform-price axis alone is too coarse to represent "ask for more at the
    going rate"), the analytic rate response at the current prices
    (``_analytic_rate``; a uniform grid cannot be trusted to straddle the
    exact maximizer), one single-link price sweep per route link off the
    current message, and the current message itself (so the reported best
    never loses to staying put). Subsidies received are omitted throughout;
    they do not depend on the user's own message. Ties break toward the
    smallest rate, then the lexicographically smallest price vector
    (``_best_candidate``).

    Each link tax splits as f(x) + g(p) + x*h(p) (``own_tax_axes``, built
    from the tax kernel ``own_tax_parts``), so the route's tax is fixed by
    three vectors summed over the route once: the lattice is their outer
    sum, and the sweeps are the same vectors with the other axis held at the
    current message. The lattice is searched by price column
    (``_lattice_argmax``). No entry of column j exceeds the same float
    operations at ``max(V - f)`` and at the rate where x*h(p_j) is least: 0
    if h >= 0, else the top rate, as rates are non-negative and ascending
    and rounding is monotone. Columns whose bound falls short of the
    best-bounded column's max are never filled. When that column is the only
    one kept, its own argmax is returned; otherwise the kept ones are filled
    with the lattice's own operations. Either way the argmax and its value
    are those of the full G-by-G lattice, bit for bit.

    Each route link's tax at the current message and its (f, g, h) there
    come from one ``own_tax_parts`` call, added in ``eval_own_tax``'s and
    ``own_tax_axes``' orders of operations (``_tax_total``), and so does its
    tax at the analytic rate: the current payoff and the analytic candidate
    carry ``eval_own_tax``'s bits.

    Returns (best message, best payoff, current payoff).
    """
    route = net.route(user)
    terms = [own_tax_terms(net, profile, l, user, params) for l in route]
    u = utilities[user]
    cur = profile[user]
    cur_prices = [cur.prices[l] for l in route]
    # per link, from one own_tax_parts call at the current message: the tax,
    # and (f, g, h) in own_tax_axes' order of operations
    cur_tax, at_cur = [], []
    for t, p in zip(terms, cur_prices):
        parts = price, pen, quad, h = own_tax_parts(t, cur.rate, p)
        cur_tax.append(_tax_total(t, cur.rate, parts))
        at_cur.append((float(price + pen), float(quad + h * t.peer_excess + t.balance_const), float(h)))
    v_cur = float(value(u, cur.rate))
    cur_pay = v_cur - sum(cur_tax)

    xs, vs, ps = grid.rates[user], grid.values[user], grid.prices

    # per link (f(xs), g(ps), h(ps)) on the grid; the route sums of each.
    # builtin sum adds the rows in order, starting from 0 as np.sum over a
    # stacked axis does, so the bits are the same without the stacking
    on_grid = [own_tax_axes(t, xs, ps) for t in terms]
    f_sum, g_sum, h_sum = (sum(rows) for rows in zip(*on_grid))
    _, g_cur, h_cur = (sum(vals) for vals in zip(*at_cur))

    i0, j0, lattice_pay = _lattice_argmax(xs, vs - f_sum, h_sum, g_sum)
    rate_pays = vs - (f_sum + g_cur + xs * h_cur)
    i1 = int(rate_pays.argmax())
    cap = min_route_capacity(net, user)
    x_best = _analytic_rate(u, terms, [h for _, _, h in at_cur], cap)
    best_tax = sum(_tax_total(t, x_best, own_tax_parts(t, x_best, p)) for t, p in zip(terms, cur_prices))
    at_cur_prices = [(float(rate_pays[i1]), float(xs[i1])), (float(value(u, x_best)) - best_tax, x_best)]

    sweeps = []
    for k, ((_, g, h), (f_at, _, _)) in enumerate(zip(on_grid, at_cur)):
        sweep = f_at + g + cur.rate * h
        other = sum(v for m, v in enumerate(cur_tax) if m != k)
        pays = v_cur - other - sweep
        j = int(pays.argmax())
        sweeps.append((float(pays[j]), float(ps[j])))

    lattice = (lattice_pay, float(xs[i0]), float(ps[j0]))
    return _best_candidate(route, cur, cur_pay, lattice, at_cur_prices, sweeps)


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


def _best_response_gaps(net, utilities, profile, params, br_grid: int, table: OwnTaxTable) -> np.ndarray:
    """How much each user gains (subsidies aside) by its best own message
    over its current one, as the audit measures it, in user order.

    ``table`` is the profile's ``own_tax_table``. A user's candidate rates
    are ``br_grid`` rates spaced evenly over [0, its route capacity], its
    current rate and the analytic rate response at the current prices
    (``_analytic_rate``), with V on them from one ``value`` call. At each of
    them every shared link takes its ``_vertex_price``; a singleton link's
    tax does not depend on the price.

    The (user, route link) pairs are stacked by route position: the first
    link of every route, then the second link of every route that has one,
    and so on, users ascending within a position. Their terms become one
    ``OwnTaxTerms`` of (pairs, 1) columns, so ``eval_own_tax`` runs once on
    all pairs at the current messages and once on all (pairs x candidates)
    rates. Each user's link taxes are summed from 0.0 one position at a
    time, in route order as builtin ``sum`` adds them, and each row is
    reduced by its own maximum, so every gain has the bits of a search run
    one user at a time.
    """
    users = net.users()
    routes = [net.route(u) for u in users]
    cur = [profile[u] for u in users]
    pairs, ends, slots = [], [], [[] for _ in users]  # slots[u]: u's pairs in route order
    for s in range(max(map(len, routes))):
        for u in users:
            if len(routes[u]) > s:
                slots[u].append(len(pairs))
                pairs.append((u, routes[u][s]))
        ends.append(len(pairs))
    owner = np.array([u for u, _ in pairs])
    t = OwnTaxTerms(*np.array([_term_row(table[pair]) for pair in pairs], dtype=float).T[:, :, None])
    p = np.array([[cur[u].prices[l]] for u, l in pairs], dtype=float)

    def route_sums(a):
        total = 0.0 + a[: ends[0]]  # position 0 holds every user, in order
        for start, end in zip(ends, ends[1:]):
            total[owner[start:end]] += a[start:end]
        return total

    x = np.array([[m.rate] for m in cur], dtype=float)[owner]
    cur_tax = route_sums(eval_own_tax(t, x, p))[:, 0]
    h = own_tax_parts(t, x, p)[3][:, 0].tolist()

    rates = np.empty((len(users), br_grid + 2))
    values = np.empty_like(rates)
    v_cur = np.empty(len(users))
    for u in users:
        spec, m, cap = utilities[u], cur[u], min_route_capacity(net, u)
        x_best = _analytic_rate(spec, [table[pairs[k]] for k in slots[u]], [h[k] for k in slots[u]], cap)
        rates[u, :br_grid] = np.linspace(0.0, cap, br_grid)
        rates[u, br_grid:] = m.rate, x_best
        values[u] = value(spec, rates[u])
        v_cur[u] = value(spec, m.rate)

    x = rates[owner]
    tax = route_sums(eval_own_tax(t, x, np.where(t.group_size == 1, p, _vertex_price(t, x, params.price_bound))))
    return (values - tax).max(axis=1) - (v_cur - cur_tax)


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
    (``_best_response_gaps``). ``table`` is the profile's ``own_tax_table``,
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
    for gain in _best_response_gaps(net, utilities, profile, params, br_grid, table).tolist():
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
