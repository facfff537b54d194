"""The rate-allocation game form: messages, per-link taxes, subsidies, outcome.

Every user posts one message: a rate request (common to every link on its
route) and a price per unit for each route link. The outcome grants each
request verbatim and charges per-link taxes built from four ingredients:

* a price part: the rate times the mean of the *peers'* posted prices, so no
  user controls the price it pays;
* an incentive part: a quadratic charge for disagreeing with the peers' mean
  price, a capacity-coupling term, and a very large penalty that fires only
  when the user requests a positive rate on an overloaded link;
* a balance part, independent of the user's own message, that makes each
  link's taxes sum to zero when three or more users share the link;
* for two-user links, where no such balance part exists, a subsidy equal to
  the negated link taxes is paid to a randomly chosen outside user, which
  restores the overall budget without distorting anyone's incentives.

Taxes sum to zero across all users at every feasible rate profile, on or off
equilibrium. The per-link formula is written out once: ``own_tax_terms``
gathers the peer statistics of one user on one link in one walk over the
link's group, and ``own_tax_parts`` turns them into the tax's parts at any
own rate and price. ``tax_link``, ``link_subsidy`` and ``eval_own_tax`` all
assemble those parts. A command builds every (user, link) pair's terms once,
as a table that ``outcome`` (and through it ``tax_link`` and
``link_subsidy``) and the audit share. All functions are
pure; the only randomness is the seeded subsidy-recipient draw.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Dict, Mapping, NamedTuple, Tuple

from .network import BOUNDARY_TOL, Network, min_route_capacity
from .utilities import UtilitySpec, initial_slope


class MechanismError(ValueError):
    pass


class UserNotOnLink(MechanismError):
    pass


class WrongGroupSize(MechanismError):
    pass


class NoEligibleRecipient(MechanismError):
    pass


class RateOutOfBounds(MechanismError):
    pass


class PriceOutOfBounds(MechanismError):
    pass


class RouteMismatch(MechanismError):
    pass


@dataclass(frozen=True)
class MechanismParams:
    """Tax-shape constants.

    ``alpha`` and ``gamma`` damp the quadratic and coupling terms and must be
    large relative to the scenario's capacities and prices; ``epsilon``
    controls how hard the overload penalty bites (about ``1/(2*epsilon)``);
    ``price_bound`` closes the price box; ``rng_seed`` fixes the subsidy
    recipient draw.
    """

    alpha: float
    gamma: float
    epsilon: float = 1e-6
    price_bound: float = 1e3
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("alpha", "gamma", "price_bound"):
            v = getattr(self, name)
            number = isinstance(v, (int, float)) and not isinstance(v, bool)
            if not (number and math.isfinite(v) and v > 0.0):
                raise MechanismError(f"{name} must be a finite positive number, got {v!r}")
        eps = self.epsilon
        if isinstance(eps, bool) or not isinstance(eps, (int, float)) or not 0.0 < eps < 0.5:
            raise MechanismError(f"epsilon must lie in (0, 0.5), got {eps!r}")
        if isinstance(self.rng_seed, bool) or not isinstance(self.rng_seed, int):
            raise MechanismError(f"rng_seed must be an integer, got {self.rng_seed!r}")

    @staticmethod
    def defaults(net: Network, utilities: Mapping[int, UtilitySpec], **given) -> "MechanismParams":
        """The ``given`` fields, and scenario-scaled defaults for what they
        leave out: alpha = gamma = 1e4 * (max capacity)^2 and a price bound
        of 1e3 times the steepest initial marginal utility. A default that
        is not a finite number raises ``MechanismError`` naming its field."""
        missing = [name for name in ("alpha", "gamma") if name not in given]
        if missing:
            widest = max(net.capacities)
            try:
                scale = 1e4 * widest**2
            except OverflowError:  # a float power raises where a product reads inf
                scale = math.inf
            if not math.isfinite(scale):
                raise MechanismError(
                    f"{missing[0]} must be a finite positive number, got an overflow from 1e4 times"
                    f" the square of the largest capacity {widest!r}"
                )
            for name in missing:
                given[name] = scale
        if "price_bound" not in given:
            slopes = {u: initial_slope(spec) for u, spec in utilities.items()}
            steepest = max(slopes, key=slopes.get)
            given["price_bound"] = 1e3 * slopes[steepest]
            if not math.isfinite(given["price_bound"]):
                raise MechanismError(
                    f"price_bound must be a finite positive number, got {given['price_bound']!r}"
                    f" from 1e3 times the initial slope {slopes[steepest]!r} of user"
                    f" {net.user_labels[steepest]!r}"
                )
        return MechanismParams(**given)


@dataclass(frozen=True)
class Message:
    """One user's strategy: a rate request plus a price per route link."""

    rate: float
    prices: Dict[int, float]


MessageProfile = Dict[int, Message]
SubsidyAssignment = Dict[int, int]


@dataclass(frozen=True)
class LinkTax:
    """One user's tax on one link, split into its components.

    ``penalty`` repeats the overload penalty contained in ``incentive_part``
    so reports can single it out.
    """

    price_part: float
    incentive_part: float
    balance_part: float
    penalty: float

    @property
    def total(self) -> float:
        return (self.price_part + self.incentive_part) + self.balance_part


@dataclass
class TaxBreakdown:
    link_taxes: Dict[tuple, LinkTax]  # (user, link) -> components
    subsidies: Dict[int, float]  # user -> money received through subsidy transfers


@dataclass
class Allocation:
    rates: Dict[int, float]
    taxes: Dict[int, float]
    breakdown: TaxBreakdown


def indicator(holds: bool, eps: float) -> float:
    """Soft truth value: 1 - eps when the condition holds, else 0."""
    return 1.0 - eps if holds else 0.0


def penalty(a: bool, b: bool, eps: float) -> float:
    """q/(1-q) with q the product of both soft indicators.

    Roughly 1/(2*eps) when both conditions hold, exactly 0 otherwise.
    """
    q = indicator(a, eps) * indicator(b, eps)
    return q / (1.0 - q)


def _not_on_link(net: Network, user, link: int) -> UserNotOnLink:
    name = net.user_labels[user] if user in net.users() else user
    return UserNotOnLink(f"user {name!r} is not on link {net.link_labels[link]!r}")


def _link_names(net: Network, links) -> list:
    """Link labels for messages; an id outside the network stays an id."""
    return [net.link_labels[l] if l in net.links() else l for l in links]


def _cyclic_peers(group, user):
    """The two other users of a three-user link, in ascending-id cyclic order."""
    order = list(group)
    pos = order.index(user)
    return order[(pos + 1) % 3], order[(pos + 2) % 3]


def _three_user_balance(pj, xj, pk, xk, c, g) -> float:
    """The balance part on a three-user link, from the two peers' prices and
    rates in cyclic order (``_cyclic_peers``). Together with the matching
    per-unit price adjustment in the tax it makes the three link taxes sum
    to zero at every feasible profile."""
    mean_p = 0.5 * (pj + pk)
    peer_excess = xj + xk - c
    pairs = ((pj, xj, pk, xk), (pk, xk, pj, xj))
    quad_pairs = sum(2.0 * pr * ps * (1.0 + xr / g) - xr * ps for pr, xr, ps, _ in pairs) / 2.0
    coupling_pairs = sum(
        2.0 * ps * (pr * (2.0 * xs - c) - xr * ps) for pr, xr, ps, xs in pairs
    ) / (4.0 * g)
    # The -c*pj*pk/g piece is required for the link's three taxes to sum to
    # zero; without it the sum is c*(sum of pairwise price products)/gamma.
    lead = (pj * pj * xk - c * pj * pk) / g
    return (
        lead
        + quad_pairs
        + coupling_pairs
        - 0.5 * (pj * pj + pk * pk)
        - mean_p * mean_p
        - 2.0 * peer_excess * mean_p * mean_p / g
    )


def _large_group_balance(m, p1, p2, x1, px, p2x, c, g) -> float:
    """The balance part on a link of ``m + 1 > 3`` users, from the peers'
    power sums of price p and rate x: p, p^2, x, p*x and p^2*x.

    The term is built from sums over ordered pairs and triples of distinct
    peers, and each closes in O(1) from those five sums.
    """
    # the peers' scaled excesses e = m*x - c, summed with weights 1, p and p^2
    e1 = m * x1 - m * c
    pe = m * px - c * p1
    p2e = m * p2x - c * p2

    # Distinct-index sums: over j != k, sum a_j*b_k = A*B - sum(ab); over
    # distinct j, k, r, sum a_j*b_k*c_r =
    # A*B*C - sum(ab)*C - sum(ac)*B - sum(bc)*A + 2*sum(abc).
    quad = 2.0 * (p1 * p1 - p2) + (2.0 / g) * (px * p1 - p2x) - (x1 * p1 - px)
    pair_coupling = 2.0 * (p1 * pe - p2e) - 2.0 * (x1 * p2 - p2x)
    triple_coupling = 2.0 * (p1 * p1 * e1 - p2 * e1 - 2.0 * pe * p1 + 2.0 * p2e) - 2.0 * (
        x1 * p1 * p1 - 2.0 * px * p1 - p2 * x1 + 2.0 * p2x
    )
    quad /= m * (m - 1)
    pair_coupling /= g * m**2 * (m - 1)
    triple_coupling /= g * m**2 * (m - 2)

    mean_p = p1 / m
    return (
        quad
        + triple_coupling
        + pair_coupling
        - p2 / m
        - mean_p * mean_p
        - 2.0 * (x1 - c) * mean_p * mean_p / g
    )


def balance_term_three_user(
    net: Network, profile: MessageProfile, link: int, user: int, params: MechanismParams
) -> float:
    """Message-independent balance term for a user on a three-user link: the
    ``balance_const`` of its ``own_tax_terms``."""
    n = len(net.group(link))
    if n != 3:
        raise WrongGroupSize(f"link {net.link_labels[link]!r} has {n} users, need 3")
    return own_tax_terms(net, profile, link, user, params).balance_const


def balance_term_large_group(
    net: Network, profile: MessageProfile, link: int, user: int, params: MechanismParams
) -> float:
    """Message-independent balance term for links shared by more than three
    users, which zeroes the link's tax sum at every feasible profile: the
    ``balance_const`` of the user's ``own_tax_terms``, O(n) per call."""
    n = len(net.group(link))
    if n <= 3:
        raise WrongGroupSize(f"link {net.link_labels[link]!r} has {n} users, need more than 3")
    return own_tax_terms(net, profile, link, user, params).balance_const


class OwnTaxTerms(NamedTuple):
    """Coefficients fixing one user's link tax as a function of its own message.

    Everything here depends only on the peers' messages and the parameters:
    the peers' mean price, their total rate (and that less the capacity),
    and the balance part. ``own_tax_parts`` turns them into the tax at any
    own (rate, price), for the outcome function and deviation searches alike.
    """

    group_size: int
    capacity: float
    gamma: float
    peer_price_mean: float
    price_adjust: float  # per-unit surcharge from peers' prices (three-user links only)
    quad_weight: float  # 0 on singleton links, 1/alpha on two-user links, 1 on larger ones
    peer_rate_sum: float
    peer_excess: float
    balance_const: float
    penalty_both: float  # overload penalty when requesting a positive rate
    penalty_single: float  # singleton-link overload penalty


def own_tax_terms(
    net: Network, profile: MessageProfile, link: int, user: int, params: MechanismParams
) -> OwnTaxTerms:
    """The peer statistics of one user's tax on one link; the user's own
    message is never read. One walk over the group adds up the peers' p and
    x, and on groups of four or more p^2, p*x and p^2*x, each from 0.0 in
    group order (the bits of builtin ``sum`` on CPython 3.11)."""
    group = net.group(link)
    if user not in group:
        raise _not_on_link(net, user, link)
    n = len(group)
    c = net.capacity(link)
    g = params.gamma
    large = n > 3
    p1 = x1 = p2 = px = p2x = 0.0
    for u in group:
        if u == user:
            continue
        m = profile[u]
        p, x = m.prices[link], m.rate
        p1 += p
        x1 += x
        if large:
            p2 += p * p
            px += p * x
            p2x += p * p * x
    adjust = balance = 0.0
    if n == 3:
        j, k = (profile[v] for v in _cyclic_peers(group, user))
        pj, pk = j.prices[link], k.prices[link]
        adjust = pk * (pj - pk) / g
        balance = _three_user_balance(pj, j.rate, pk, k.rate, c, g)
    elif large:
        balance = _large_group_balance(n - 1, p1, p2, x1, px, p2x, c, g)
    eps = params.epsilon
    return OwnTaxTerms(
        group_size=n,
        capacity=c,
        gamma=g,
        peer_price_mean=p1 / (n - 1) if n > 1 else 0.0,
        price_adjust=adjust,
        quad_weight=0.0 if n == 1 else 1.0 / params.alpha if n == 2 else 1.0,
        peer_rate_sum=x1,
        peer_excess=x1 - c,
        balance_const=balance,
        penalty_both=penalty(True, True, eps),
        penalty_single=indicator(True, eps) / (1.0 - indicator(True, eps)),
    )


def own_tax_parts(terms: OwnTaxTerms, x, p):
    """One user's link tax at own rate ``x`` and own price ``p``, in parts.

    Returns ``(price, penalty, quad, h)``: the price part and the overload
    penalty depend on ``x`` alone, the quadratic charge and the coupling
    coefficient ``h`` on ``p`` alone, and the tax is
    ``price + quad + h * (peer_excess + x) + balance_const + penalty``.
    ``x`` and ``p`` are floats or broadcasting numpy arrays. This is the
    one place the tax formula is written out.
    """
    dev = p - terms.peer_price_mean
    quad = terms.quad_weight * dev * dev
    h = -(2.0 / terms.gamma) * terms.peer_price_mean * dev
    if terms.group_size == 1:
        return 0.0, terms.penalty_single * (x > terms.capacity + BOUNDARY_TOL), quad, h
    firing = (x > BOUNDARY_TOL) & (terms.peer_excess + x > BOUNDARY_TOL)
    return (terms.peer_price_mean + terms.price_adjust) * x, terms.penalty_both * firing, quad, h


def eval_own_tax(terms: OwnTaxTerms, x, p):
    """The user's link tax at own rate ``x`` and own link price ``p``, the
    sum of its ``own_tax_parts``. Broadcasts over numpy arrays of rates and
    prices, as ``own_tax_parts`` does."""
    price, pen, quad, h = own_tax_parts(terms, x, p)
    return price + quad + h * (terms.peer_excess + x) + terms.balance_const + pen


OwnTaxTable = Dict[Tuple[int, int], OwnTaxTerms]  # (user, link) -> that pair's own_tax_terms


def _message_tax(net, profile: MessageProfile, link: int, user: int, params, table: OwnTaxTable | None):
    """One user's link tax at its own message, as (terms, price part,
    incentive part less the penalty, penalty); the terms come from
    ``table`` when one is given."""
    terms = own_tax_terms(net, profile, link, user, params) if table is None else table[(user, link)]
    m = profile[user]
    price, pen, quad, h = own_tax_parts(terms, m.rate, m.prices[link])
    return terms, price, quad + h * (terms.peer_excess + m.rate), pen


def tax_link(
    net: Network,
    profile: MessageProfile,
    link: int,
    params: MechanismParams,
    table: OwnTaxTable | None = None,
) -> Dict[int, LinkTax]:
    """Per-user link taxes with their component breakdown. ``table`` holds
    the profile's ``own_tax_terms`` by (user, link); without it each user's
    terms are built here."""
    out: Dict[int, LinkTax] = {}
    for user in net.group(link):
        terms, price, incentive, pen = _message_tax(net, profile, link, user, params, table)
        out[user] = LinkTax(
            price_part=price, incentive_part=incentive + pen, balance_part=terms.balance_const, penalty=pen
        )
    return out


def link_subsidy(
    net: Network,
    profile: MessageProfile,
    link: int,
    params: MechanismParams,
    table: OwnTaxTable | None = None,
) -> float:
    """The transfer that cancels a two-user link's non-penalty taxes.

    Negative whenever the pair pays net positive tax; added to the recipient's
    tax total. Penalties stay out: they are zero at every feasible profile,
    which is exactly where budget balance is claimed. Never depends on the
    recipient's message. ``table`` is as in ``tax_link``.
    """
    group = net.group(link)
    if len(group) != 2:
        raise WrongGroupSize(f"link {net.link_labels[link]!r} has {len(group)} users, need 2")
    total = 0.0
    for user in group:
        _, price, incentive, _ = _message_tax(net, profile, link, user, params, table)
        total += price + incentive
    return -total


def assign_subsidies(net: Network, rng_seed: int) -> SubsidyAssignment:
    """Pick, for every two-user link, a uniformly random recipient outside the
    link's group. Deterministic given the seed; recipients need not be
    distinct across links."""
    rng = random.Random(rng_seed)
    assignment: SubsidyAssignment = {}
    for link in net.links():
        group = net.group(link)
        if len(group) != 2:
            continue
        eligible = [u for u in net.users() if u not in group]
        if not eligible:
            raise NoEligibleRecipient(
                f"link {net.link_labels[link]!r} is shared by two users and nobody else"
                " exists to receive its subsidy"
            )
        assignment[link] = eligible[rng.randrange(len(eligible))]
    return assignment


def validate_profile(net: Network, profile: MessageProfile, params: MechanismParams) -> None:
    """Check every message against its box: price keys equal the route, the
    rate fits below the route's narrowest link, prices fit below the bound.
    Boundaries are closed. The rate's floor is exactly 0, as utilities take
    no negative rate; the other walls carry BOUNDARY_TOL slack for
    arithmetic noise."""
    missing = [net.user_labels[u] for u in net.users() if u not in profile]
    extra = [u for u in profile if not 0 <= u < net.num_users]
    if missing or extra:
        raise RouteMismatch(f"profile users mismatch: missing {missing}, unknown ids {extra}")
    for user in net.users():
        m = profile[user]
        name = net.user_labels[user]
        route = set(net.route(user))
        keys = set(m.prices)
        if keys != route:
            raise RouteMismatch(
                f"user {name!r}: price links {_link_names(net, sorted(keys))} do not match route"
                f" {[net.link_labels[l] for l in sorted(route)]}"
            )
        cap = min_route_capacity(net, user)
        if not 0.0 <= m.rate <= cap + BOUNDARY_TOL:
            raise RateOutOfBounds(f"user {name!r}: rate {m.rate} outside [0, {cap}]")
        for link, price in m.prices.items():
            if not -BOUNDARY_TOL <= price <= params.price_bound + BOUNDARY_TOL:
                raise PriceOutOfBounds(
                    f"user {name!r}: price {price} on link {net.link_labels[link]!r}"
                    f" outside [0, {params.price_bound}]"
                )


def outcome(
    net: Network,
    profile: MessageProfile,
    params: MechanismParams,
    subsidies: SubsidyAssignment,
    table: OwnTaxTable | None = None,
) -> Allocation:
    """Rates as requested plus the full tax vector and its breakdown.

    ``subsidies`` must name a recipient outside the group for every two-user
    link (see ``assign_subsidies``). ``table`` maps every (user, route link)
    pair of the profile to its ``own_tax_terms``, as a command builds it once
    for ``outcome`` and the audit alike (``equilibrium.own_tax_table``, which
    validated the profile, so a given table is trusted); without it
    ``outcome`` validates the profile and builds its own. ``tax_link`` and
    ``link_subsidy`` read their terms from it.
    """
    if table is None:
        validate_profile(net, profile, params)
        table = {(u, l): own_tax_terms(net, profile, l, u, params) for u in net.users() for l in net.route(u)}
    two_user_links = {l for l in net.links() if len(net.group(l)) == 2}
    if set(subsidies) != two_user_links:
        raise MechanismError(
            f"subsidy assignment covers links {_link_names(net, sorted(subsidies))},"
            f" expected {_link_names(net, sorted(two_user_links))}"
        )
    for link, recipient in subsidies.items():
        if recipient in net.group(link):
            raise MechanismError(
                f"subsidy recipient {net.user_labels[recipient]!r} sits on its own link"
                f" {net.link_labels[link]!r}"
            )

    link_taxes: Dict[tuple, LinkTax] = {}
    totals: Dict[int, float] = {u: 0.0 for u in net.users()}
    received: Dict[int, float] = {u: 0.0 for u in net.users()}
    for link in net.links():
        for user, lt in tax_link(net, profile, link, params, table).items():
            link_taxes[(user, link)] = lt
            totals[user] += lt.total
    for link in sorted(subsidies):
        q = link_subsidy(net, profile, link, params, table)
        recipient = subsidies[link]
        totals[recipient] += q
        received[recipient] -= q

    rates = {u: profile[u].rate for u in net.users()}
    breakdown = TaxBreakdown(link_taxes=link_taxes, subsidies=received)
    return Allocation(rates=rates, taxes=totals, breakdown=breakdown)
