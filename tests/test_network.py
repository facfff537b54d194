import random

import pytest

from nash_unicast.network import (
    BOUNDARY_TOL,
    DuplicateUser,
    EmptyRoute,
    MissingUser,
    NonPositiveCapacity,
    UnknownLink,
    UnknownUser,
    build_network,
    is_feasible,
    min_route_capacity,
)


def label_groups(net):
    return {
        net.link_labels[l]: {net.user_labels[u] for u in net.group(l)} for l in net.links()
    }


def test_groups_from_routes():
    net = build_network({"A": 10.0}, {1: ["A"], 2: ["A"]})
    assert label_groups(net) == {"A": {"1", "2"}}


def test_groups_multi_link():
    net = build_network({"A": 1.0, "B": 2.0}, {1: ["A", "B"], 2: ["B"], 3: ["A"]})
    assert label_groups(net) == {"A": {"1", "3"}, "B": {"1", "2"}}


def test_unknown_link_rejected():
    with pytest.raises(UnknownLink):
        build_network({"A": 1.0}, {1: ["Z"]})


def test_nonpositive_capacity_rejected():
    for cap in (0.0, -2.0, float("inf"), float("nan")):
        with pytest.raises(NonPositiveCapacity):
            build_network({"A": cap}, {1: ["A"]})


def test_duplicate_user_rejected():
    with pytest.raises(DuplicateUser):
        build_network({"A": 1.0}, [("1", ["A"]), ("1", ["A"])])


def test_empty_route_rejected():
    with pytest.raises(EmptyRoute):
        build_network({"A": 1.0}, {1: []})


def test_route_duplicates_collapse():
    net = build_network({"A": 1.0, "B": 1.0}, {1: ["A", "B", "A"]})
    assert net.route(0) == (0, 1)


def test_group_derivation_is_declaration_order_independent():
    links = {"A": 1.0, "B": 2.0, "C": 3.0}
    routes = [("x", ["A", "C"]), ("y", ["B"]), ("z", ["A", "B"])]
    net1 = build_network(links, routes)
    net2 = build_network(links, list(reversed(routes)))
    assert label_groups(net1) == label_groups(net2)


def test_feasibility_boundary_counts():
    net = build_network({"A": 10.0}, {1: ["A"], 2: ["A"]})
    assert is_feasible(net, {0: 4.0, 1: 6.0})
    assert not is_feasible(net, {0: 4.0, 1: 6.5})
    assert not is_feasible(net, {0: -0.1, 1: 0.0})
    assert is_feasible(net, {0: 4.0, 1: 6.0 + 0.5 * BOUNDARY_TOL})


def test_feasibility_missing_user():
    net = build_network({"A": 10.0}, {1: ["A"], 2: ["A"]})
    with pytest.raises(MissingUser):
        is_feasible(net, {0: 4.0})


def test_feasibility_monotone():
    import random

    rng = random.Random(5)
    net = build_network(
        {"A": 2.0, "B": 1.0}, {1: ["A"], 2: ["A", "B"], 3: ["B"]}
    )
    for _ in range(200):
        x = {0: rng.uniform(0, 1.2), 1: rng.uniform(0, 0.6), 2: rng.uniform(0, 0.6)}
        if not is_feasible(net, x):
            continue
        u = rng.randrange(3)
        x[u] *= rng.random()
        assert is_feasible(net, x)


def test_min_route_capacity():
    net = build_network({"A": 1.0, "B": 2.0}, {1: ["A", "B"], 2: ["B"]})
    assert min_route_capacity(net, 0) == 1.0
    assert min_route_capacity(net, 1) == 2.0
    with pytest.raises(UnknownUser):
        min_route_capacity(net, 9)


def test_min_route_capacity_bounded_by_every_link():
    net = build_network({"A": 1.5, "B": 2.0, "C": 0.7}, {1: ["A", "B", "C"]})
    cap = min_route_capacity(net, 0)
    assert 0 <= cap <= min(net.capacities)


def test_min_route_capacity_defends_against_empty_route():
    from nash_unicast.network import Network

    # only reachable by hand-building the frozen record; the builder refuses it
    net = Network(
        capacities=(1.0,),
        routes=((),),
        groups=((),),
        link_labels=("A",),
        user_labels=("u",),
    )
    with pytest.raises(EmptyRoute):
        min_route_capacity(net, 0)


def test_large_network_builds_and_resolves_every_label():
    rng = random.Random(20)
    links = {f"L{j}": 1.0 + j for j in range(40)}
    routes = [(f"u{i}", rng.sample(sorted(links), rng.randint(1, 3))) for i in range(20000)]
    net = build_network(links, routes)
    assert net.num_users == 20000
    for i, (label, route) in enumerate(routes):
        assert net.user_id(label) == i
        assert net.route(i) == tuple(net.link_id(l) for l in route)
    for j, label in enumerate(links):
        assert net.link_id(label) == j
        group = net.group(j)
        assert list(group) == sorted(set(group))
        assert group == tuple(i for i, (_, route) in enumerate(routes) if label in route)
    with pytest.raises(UnknownUser):
        net.user_id("u20000")
    with pytest.raises(UnknownLink):
        net.link_id("L40")


def test_label_lookups_keep_their_errors():
    net = build_network({"A": 1.0, 7: 2.0}, {"x": ["A"], 3: [7]})
    assert net.link_id(7) == 1 and net.link_id("7") == 1
    assert net.user_id(3) == 1 and net.user_id("x") == 0
    with pytest.raises(UnknownLink, match="no link labelled 'B'"):
        net.link_id("B")
    with pytest.raises(UnknownUser, match="no user labelled 4"):
        net.user_id(4)
    with pytest.raises(DuplicateUser, match="user 'x' declared twice"):
        build_network({"A": 1.0}, [("x", ["A"]), ("y", ["A"]), ("x", ["A"])])
