import math
import random
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nash_unicast.utilities import (
    NegativeRate,
    UtilityError,
    UtilitySpec,
    _scan_grid,
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
        for fn in (value, derivative):
            on_array = fn(u, np.array(rates))
            for x, want in zip(rates, on_array):
                got = fn(u, x)
                assert type(got) is float, (u, fn.__name__, x)
                assert np.float64(got).tobytes() == want.tobytes(), (u, fn.__name__, x, got, want)
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
        on_array = derivative(u, np.array([x]))[0]
    assert got == want and on_array == want
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
        ders = derivative(u, xs)
        assert vals.shape == xs.shape and ders.shape == xs.shape
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


def sigmoid_demand_reference(u, price, cap):
    """The sigmoid demand with its former coarse scan, one call of the
    closure per grid point; the oracle for the array scan."""
    if price == 0.0:
        return cap

    def f(x):
        return u.a * x * x / (u.b + x * x) - price * x

    grid = np.linspace(0.0, cap, 65)
    vals = [f(x) for x in grid]
    k = int(np.argmax(vals))
    lo = grid[max(k - 1, 0)]
    hi = grid[min(k + 1, len(grid) - 1)]
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    c = hi - invphi * (hi - lo)
    d = lo + invphi * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo > 1e-10:
        if fc > fd:
            hi, d, fd = d, c, fc
            c = hi - invphi * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + invphi * (hi - lo)
            fd = f(d)
    best = 0.5 * (lo + hi)
    return min([0.0, cap, best], key=lambda x: (-f(x), x))


def test_sigmoid_demand_matches_closure_scan_exactly():
    rng = random.Random(29)
    for _ in range(2000):
        u = sigmoid_utility(rng.uniform(0.2, 5.0), rng.uniform(0.05, 4.0))
        price = rng.choice([0.0, rng.uniform(0.0, 0.05), rng.uniform(0.0, 3.0)])
        cap = rng.choice([rng.uniform(1e-6, 0.1), rng.uniform(0.1, 10.0)])
        assert demand(u, price, cap) == sigmoid_demand_reference(u, price, cap), (u, price, cap)


def _sigmoid_cases():
    rng = random.Random(41)
    cases = []
    for _ in range(1200):
        u = sigmoid_utility(10 ** rng.uniform(-3, 3), 10 ** rng.uniform(-3, 3))
        price = rng.choice([0.0, 10 ** rng.uniform(-6, 3), rng.uniform(0.0, 3.0)])
        cap = rng.choice([0.0, 5e-324, 1e-300, 10 ** rng.uniform(-9, 6), rng.uniform(0.1, 10.0)])
        cases.append((u, price, cap))
    for a, s in ((1e300, 1e-300), (1e-300, 1e300), (1e300, 1e300), (1e-300, 1e-300)):
        for price in (0.0, 1e-300, 1.0, 1e300):
            for cap in (0.0, 5e-324, 1e-300, 1.0, 1e6, 1e300):
                cases.append((sigmoid_utility(a, s), price, cap))
    return cases


def _scan_argmax(u, price, cap):
    grid = np.linspace(0.0, cap, 65)
    return int(np.argmax(u.a * grid * grid / (u.b + grid * grid) - price * grid))


def test_sigmoid_demand_float_refinement_matches_numpy_scalars_bit_for_bit():
    cases = _sigmoid_cases()
    # the coarse scan peaking at either end of its grid
    first_point = (sigmoid_utility(1.0, 1.0), 5.0, 2.0)
    last_point = (sigmoid_utility(2.0, 1.0), 0.01, 0.3)
    assert _scan_argmax(*first_point) == 0 and _scan_argmax(*last_point) == 64
    cases += [first_point, last_point]
    ends = set()
    with np.errstate(all="ignore"):  # overflowing scans, alike on both sides
        for u, price, cap in cases:
            got, ref = demand(u, price, cap), sigmoid_demand_numpy(u, price, cap)
            assert type(got) is float, (u, price, cap, type(got))
            assert float.hex(got) == float.hex(ref), (u, price, cap, got, ref)
            if price > 0.0 and cap > 0.0:
                ends.add(_scan_argmax(u, price, cap))
    assert {0, 64} <= ends


def test_sigmoid_demand_scan_matches_numpy_linspace_bit_for_bit():
    # the coarse scan's points against np.linspace's: random cases, caps
    # whose step cap/64 underflows to 0 (up to 32 smallest subnormals,
    # 1.58e-322) or sits at the edge, an infinite price (the scan's first
    # point reads inf*0 = NaN) and caps whose squares overflow (NaN later on)
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
    assert 1.58e-322 / 64 == 0.0 and 1.63e-322 / 64 > 0.0
    # on caps this small every demand is 0, so the points are compared alone
    for cap in {cap for _, _, cap in cases} | {k * 5e-324 for k in range(1, 200)}:
        assert np.linspace(0.0, cap, 65).tobytes() == _scan_grid(cap).tobytes(), cap
    scanned = set()
    with np.errstate(all="ignore"):
        for u, price, cap in cases:
            got, ref = demand(u, price, cap), sigmoid_demand_numpy(u, price, cap)
            assert type(got) is float, (u, price, cap, type(got))
            assert float.hex(got) == float.hex(ref), (u, price, cap, got, ref)
            scanned.add(_scan_argmax(u, price, cap))
    assert {0, 64} <= scanned and len(scanned) > 10


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
