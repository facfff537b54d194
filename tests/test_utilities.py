import math
import random
import sys
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_unicast.utilities import (
    NegativeRate,
    UtilityError,
    UtilitySpec,
    demand,
    derivative,
    family_value,
    initial_slope,
    log_utility,
    payoff,
    power_utility,
    quad_cap_utility,
    sigmoid_utility,
    value,
)

from oracles import sigmoid_demand_numpy

FAMILY_POOL = [
    log_utility(1.0),
    log_utility(2.5),
    power_utility(1.0, 0.5),
    power_utility(1.7, 0.35),
    quad_cap_utility(2.0, 1.0),
    quad_cap_utility(1.2, 0.4),
    sigmoid_utility(2.0, 1.0),
    sigmoid_utility(1.5, 0.6),
]


def test_value_examples():
    assert value(log_utility(1.0), 0.0) == 0.0
    assert value(log_utility(1.0), math.e - 1.0) == pytest.approx(1.0, abs=1e-12)
    assert value(sigmoid_utility(2.0, 1.0), 1.0) == pytest.approx(1.0, abs=1e-12)


def test_value_zero_everywhere():
    for u in FAMILY_POOL:
        assert value(u, 0.0) == 0.0


def test_negative_rate_rejected():
    for fn in (value, derivative):
        with pytest.raises(NegativeRate):
            fn(log_utility(1.0), -0.5)
    # NaN is no rate either, as a float, a numpy scalar or inside an array
    for rate in (math.nan, np.float64(math.nan), np.array([0.5, math.nan])):
        for u in FAMILY_POOL:
            for fn in (value, derivative):
                with pytest.raises(NegativeRate):
                    fn(u, rate)


def float_path_rates(u, rng):
    """Zero, the least subnormal, a tiny rate, the quadcap peak with a float
    either side, and 1,000 random rates over six decades."""
    rates = [0.0, 5e-324, 1e-300]
    if u.family == "quadcap":
        peak = u.a / (2.0 * u.b)
        rates += [math.nextafter(peak, 0.0), peak, math.nextafter(peak, math.inf)]
    rates += [10.0 ** rng.uniform(-3.0, 3.0) for _ in range(1000)]
    return rates


def test_float_path_matches_array_path_bit_for_bit():
    rng = random.Random(17)
    for u in FAMILY_POOL:
        rates = float_path_rates(u, rng)
        on_array = value(u, np.array(rates))
        for x, want in zip(rates, on_array):
            got = value(u, x)
            assert type(got) is float, (u, x)
            assert np.float64(got).tobytes() == want.tobytes(), (u, x, got, want)
        # family_value checks no rate: a NaN passes on both paths
        on_float = family_value(u.family, u.a, u.b, math.nan)
        assert type(on_float) is float and math.isnan(on_float), (u, on_float)
        assert math.isnan(family_value(u.family, u.a, u.b, np.array([math.nan]))[0]), u



@pytest.mark.parametrize("x", [5e-324, 1e-310, 2.2e-308])
@pytest.mark.parametrize("theta", [0.01, 0.5, 0.99])
def test_power_slope_at_subnormal_rates_warns_nothing(x, theta):
    u = power_utility(1.0, theta)
    with np.errstate(over="ignore"):  # the slope's formula, without its warning
        want = 1.0 * theta * float(np.power(np.float64(x), theta - 1.0))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = derivative(u, x)
    assert type(got) is float and got == want
    assert (got == math.inf) == (x == 5e-324 and theta == 0.01)

def test_parameter_validation():
    with pytest.raises(UtilityError):
        log_utility(0.0)
    with pytest.raises(UtilityError):
        power_utility(1.0, 1.0)
    with pytest.raises(UtilityError):
        quad_cap_utility(1.0, 0.0)
    with pytest.raises(UtilityError):
        UtilitySpec("nope", 1.0)


def test_derivative_examples():
    assert derivative(log_utility(1.0), 0.5) == pytest.approx(1 / 1.5, abs=1e-12)
    assert derivative(quad_cap_utility(2.0, 1.0), 1.5) == 0.0  # past the peak at 1


def test_derivative_matches_finite_differences():
    rng = random.Random(42)
    h = 1e-6
    for _ in range(1000):
        u = rng.choice(FAMILY_POOL)
        x = rng.uniform(0.01, 5.0)
        if u.family == "quadcap":
            peak = u.a / (2 * u.b)
            if abs(x - peak) < 10 * h:  # kink point, one-sided slopes differ
                continue
        fd = (float(value(u, x + h)) - float(value(u, x - h))) / (2 * h)
        d = float(derivative(u, x))
        assert d == pytest.approx(fd, rel=1e-6, abs=1e-9)


def test_value_and_derivative_vectorize():
    xs = np.linspace(0.0, 3.0, 7)
    for u in FAMILY_POOL:
        vals = value(u, xs)
        assert vals.shape == xs.shape
        assert np.all(np.diff(vals) >= -1e-15)


def test_demand_examples():
    assert demand(log_utility(1.0), 2.0 / 3.0, 1.0) == pytest.approx(0.5, abs=1e-12)
    # theta*x^(theta-1) = 1 at x = 0.25 for a=1, theta=0.5
    assert demand(power_utility(1.0, 0.5), 1.0, 10.0) == pytest.approx(0.25, abs=1e-9)


def test_demand_at_zero_price_hits_the_cap():
    # quadcap capped below its plateau so the maximizer is unique
    pool = [log_utility(1.0), power_utility(1.0, 0.5), quad_cap_utility(2.0, 1.0), sigmoid_utility(2.0, 1.0)]
    for u in pool:
        assert demand(u, 0.0, 0.3) == 0.3


def test_quadcap_demand_plateau_prefers_smallest_maximizer():
    u = quad_cap_utility(2.0, 1.0)  # peak at 1.0
    assert demand(u, 0.0, 5.0) == 1.0


@given(
    st.sampled_from(range(len(FAMILY_POOL))),
    st.floats(0.0, 4.0),
    st.floats(0.01, 3.0),
)
@settings(max_examples=200, deadline=None)
def test_demand_stays_in_the_box(idx, price, cap):
    u = FAMILY_POOL[idx]
    d = demand(u, price, cap)
    assert 0.0 <= d <= cap


@given(st.sampled_from(range(6)), st.floats(0.0, 3.0), st.floats(0.0, 3.0))
@settings(max_examples=200, deadline=None)
def test_demand_monotone_in_price_for_concave(idx, p1, p2):
    u = FAMILY_POOL[idx]  # first six entries are the concave ones
    assert u.is_concave
    lo, hi = sorted((p1, p2))
    assert demand(u, lo, 2.0) >= demand(u, hi, 2.0) - 1e-12


def test_demand_first_order_condition():
    rng = random.Random(7)
    for _ in range(300):
        u = FAMILY_POOL[rng.randrange(6)]
        p = rng.uniform(0.05, 3.0)
        cap = rng.uniform(0.5, 4.0)
        d = demand(u, p, cap)
        if 1e-9 < d < cap - 1e-9:
            assert abs(float(derivative(u, d)) - p) <= 1e-8


def test_sigmoid_demand_against_grid():
    rng = random.Random(11)
    for _ in range(50):
        u = sigmoid_utility(rng.uniform(0.8, 3.0), rng.uniform(0.4, 2.0))
        p = rng.uniform(0.01, 1.5)
        cap = rng.uniform(0.5, 4.0)
        d = demand(u, p, cap)
        xs = np.linspace(0.0, cap, 4001)
        best = float(np.max(value(u, xs) - p * xs))
        assert float(value(u, d)) - p * d >= best - 1e-6


def _sigmoid_objective(u, price, x):
    """U(x) - price*x in exact rationals, 0 at x = 0 whatever the price."""
    if x == 0.0:
        return Fraction(0)
    x = Fraction(x)
    return Fraction(u.a) * x * x / (Fraction(u.b) + x * x) - Fraction(price) * x


def test_sigmoid_demand_is_never_below_the_golden_section_search():
    # random cases, caps whose step cap/64 in the former scan underflowed to
    # 0 (up to 32 smallest subnormals, 1.58e-322), caps whose squares
    # overflow, and an infinite price; the objective is read exactly, so
    # the rounding of its floats favours neither side
    rng = random.Random(53)
    cases = []
    for _ in range(4000):
        u = sigmoid_utility(10 ** rng.uniform(-4, 4), 10 ** rng.uniform(-4, 4))
        price = rng.choice([10 ** rng.uniform(-8, 4), rng.uniform(0.0, 5.0), math.inf])
        cap = rng.choice([10 ** rng.uniform(-12, 8), rng.uniform(0.0, 10.0), 10 ** rng.uniform(150, 300)])
        cases.append((u, price, cap))
    denormal_caps = (5e-324, 1e-323, 1.58e-322, 1.63e-322, 3.2e-322, 1e-320, 1e-310)
    for u in (sigmoid_utility(1.0, 1.0), sigmoid_utility(1e300, 1e-300), sigmoid_utility(1e-300, 1e300)):
        for price in (1e-300, 0.5, 1e300, math.inf):
            for cap in denormal_caps + (1e155, 1e300):
                cases.append((u, price, cap))
    interior = 0
    for u, price, cap in cases:
        got = demand(u, price, cap)
        assert type(got) is float and 0.0 <= got <= cap, (u, price, cap, got)
        if price == math.inf:
            assert got == 0.0, (u, cap, got)
            continue
        with np.errstate(all="ignore"):  # overflowing scans
            ref = float(sigmoid_demand_numpy(u, price, cap))
        best, old = _sigmoid_objective(u, price, got), _sigmoid_objective(u, price, ref)
        assert best >= old - abs(old) * Fraction(1e-15), (u, price, cap, got, ref)
        interior += 0.0 < got < cap
    assert interior > 500, interior


def test_power_demand_is_zero_when_its_ratio_underflows():
    # a*theta/price rounds to 0.0, whose log is undefined
    u = power_utility(1e-38, 1e-300)
    assert u.a * u.b / 1.0 == 0.0
    assert demand(u, 1.0, 2.0) == 0.0


@pytest.mark.parametrize("u", FAMILY_POOL, ids=lambda u: f"{u.family}-{u.a}-{u.b}")
def test_demand_returns_a_python_float(u):
    for price in (0.0, 0.05, 0.7, 2.5, 40.0):
        for cap in (0.0, 1e-300, 0.3, 3.0):
            assert type(demand(u, price, cap)) is float, (u, price, cap)


def test_payoff():
    assert payoff(log_utility(1.0), 0.0, 0.0) == 0.0
    assert payoff(log_utility(1.0), math.e - 1.0, 0.4) == pytest.approx(0.6, abs=1e-12)
    assert payoff(log_utility(1.0), 0.0, -1.0) == 1.0  # a subsidy raises the payoff


def test_strict_monotonicity_off_plateau():
    rng = random.Random(3)
    for u in FAMILY_POOL:
        for _ in range(100):
            y = rng.uniform(0.0, 2.0)
            x = y + rng.uniform(1e-6, 1.0)
            if u.family == "quadcap":
                plateau = u.a / (2 * u.b)
                if x > plateau:
                    assert float(value(u, x)) >= float(value(u, y))
                    continue
            assert float(value(u, x)) > float(value(u, y))


def test_serialization_round_trip():
    for u in FAMILY_POOL:
        assert UtilitySpec.from_dict(u.to_dict()) == u


def test_sigmoid_peak_slope_keeps_its_bits_where_finite():
    rng = random.Random(17)
    cases = [(1.0, 1.0), (2.0, 0.5), (1e300, 1e-100), (1e-300, 1e300)]
    cases += [(10 ** rng.uniform(-300, 300), 10 ** rng.uniform(-150, 300)) for _ in range(500)]
    for a, s in cases:
        u = sigmoid_utility(a, s)
        with np.errstate(all="ignore"):
            peak = float(derivative(u, math.sqrt(s / 3.0)))
        if math.isfinite(peak):
            assert float.hex(initial_slope(u)) == float.hex(peak), (a, s)


@pytest.mark.parametrize("s", [1e-300, 5e-324, 1e-170])
def test_sigmoid_peak_slope_of_a_tiny_s_is_its_closed_form(s):
    import warnings

    from nash_unicast.mechanism import MechanismParams
    from nash_unicast.network import build_network

    u = sigmoid_utility(1.0, s)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        slope = initial_slope(u)
        net = build_network({"L0": 1.0}, {"bob": ["L0"], "amy": ["L0"]})
        params = MechanismParams.defaults(net, {0: u, 1: log_utility(1.0)})
    assert slope == pytest.approx(3.0 * math.sqrt(3.0) / 8.0 / math.sqrt(s), rel=1e-15)
    assert math.isfinite(params.price_bound) and params.price_bound == 1e3 * slope


def _sigmoid_exact(a, s, x):
    """Sigmoid's V and U' in exact rationals, from the closed forms
    a*x^2/(s + x^2) and 2*a*s*x/(s + x^2)^2."""
    a, s, x = Fraction(a), Fraction(s), Fraction(x)
    return a * x * x / (s + x * x), 2 * a * s * x / (s + x * x) ** 2


def _assert_near(got, exact, bar, where):
    """``got`` is not NaN, and within ``bar`` of ``exact`` relative where
    ``exact`` is a normal float."""
    assert not math.isnan(got), where
    if sys.float_info.min <= exact <= sys.float_info.max:
        assert abs(Fraction(got) - exact) <= bar * exact, (where, got, float(exact))


def test_sigmoid_value_and_slope_meet_their_exact_closed_forms():
    rng = random.Random(28)
    cases = [(1.0, 1.0, 1e200), (1.0, 1e-300, 1e-160), (1e300, 1e-300, 1e300), (1.0, 1.0, 0.0)]
    cases += [(1.0, 1.0, 5e-324), (1e300, 1e300, 5e-324), (1e-300, 1e-300, 1e300), (3.0, 4.0, 2.0)]
    cases += [tuple(10.0 ** rng.uniform(-300.0, 300.0) for _ in range(3)) for _ in range(3000)]
    bar = Fraction(1, 10**14)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        on_array = family_value("sigmoid", *(np.array(column) for column in zip(*cases)))
        for (a, s, x), v_array in zip(cases, on_array):
            v, slope = family_value("sigmoid", a, s, x), derivative(sigmoid_utility(a, s), x)
            exact_v, exact_slope = _sigmoid_exact(a, s, x)
            assert np.float64(v).tobytes() == v_array.tobytes(), (a, s, x)
            _assert_near(v, exact_v, bar, ("V", a, s, x))
            _assert_near(slope, exact_slope, bar, ("U'", a, s, x))
    assert family_value("sigmoid", 1.0, 1.0, 1e200) == 1.0
    assert derivative(sigmoid_utility(1.0, 1e-300), 1e-160) == pytest.approx(2e140, rel=1e-14)


def test_sigmoid_value_on_arrays_warns_nothing_at_zero_and_tiny_rates():
    xs = np.array([0.0, 5e-324, 1e-310, 1e-160, 1.0, 1e160, 1e300, math.inf])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = family_value("sigmoid", 2.0, 1e-300, xs)
    assert got[0] == 0.0 and got[-1] == 2.0 and not np.isnan(got).any()
    assert [family_value("sigmoid", 2.0, 1e-300, float(x)) for x in xs] == list(got)
