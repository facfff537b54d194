import json
import math
from pathlib import Path

from nash_unicast import cli
from nash_unicast.cli import _emit, main

SCENARIO_DIR = Path(__file__).resolve().parent.parent / "scenarios"
GOLDEN = str(SCENARIO_DIR / "two_users_one_link.json")


def test_solve_golden(capsys):
    assert main(["solve", "--scenario", GOLDEN]) == 0
    out = capsys.readouterr().out
    assert "0.666666666667" in out
    assert "0.5" in out


import pytest


@pytest.mark.parametrize("name", ["two_users_one_link", "shared_backbone"])
def test_construct_then_audit_round_trip(tmp_path, capsys, name):
    scenario = str(SCENARIO_DIR / f"{name}.json")
    ne_path = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", scenario, "--out", str(ne_path)]) == 0
    first = json.loads(ne_path.read_text())
    capsys.readouterr()

    audit_path = tmp_path / "audit.json"
    code = main(
        ["audit", "--scenario", scenario, "--profile", str(ne_path), "--out", str(audit_path)]
    )
    assert code == 0
    second = json.loads(audit_path.read_text())
    # identical numbers on re-ingestion, not merely close
    assert second["audit"] == first["audit"]
    assert second["profile"] == first["profile"]
    assert second["tax_breakdown"] == first["tax_breakdown"]


def test_construct_is_deterministic(tmp_path, capsys):
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    main(["construct-ne", "--scenario", GOLDEN, "--out", str(p1)])
    main(["construct-ne", "--scenario", GOLDEN, "--out", str(p2)])
    assert p1.read_text() == p2.read_text()


def test_audit_tampered_profile_fails(tmp_path, capsys):
    ne_path = tmp_path / "ne.json"
    main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne_path)])
    report = json.loads(ne_path.read_text())
    report["profile"]["u1"]["rate"] = 0.9  # overload the unit link
    bad = tmp_path / "tampered.json"
    bad.write_text(json.dumps(report))
    capsys.readouterr()
    code = main(["audit", "--scenario", GOLDEN, "--profile", str(bad)])
    captured = capsys.readouterr()
    assert code == 2
    assert "failed checks" in captured.err
    assert "feasibility" in captured.err


def test_audit_without_profile_errors(capsys):
    assert main(["audit", "--scenario", GOLDEN]) == 1
    assert "profile" in capsys.readouterr().err


def test_missing_scenario_file(capsys):
    assert main(["solve", "--scenario", "/nope/missing.json"]) == 1
    assert "error" in capsys.readouterr().err


def test_simulate_from_construct_output(tmp_path, capsys):
    ne_path = tmp_path / "ne.json"
    main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne_path)])
    capsys.readouterr()
    code = main(
        [
            "simulate",
            "--scenario",
            GOLDEN,
            "--profile",
            str(ne_path),
            "--rounds",
            "5",
        ]
    )
    out = capsys.readouterr().out
    assert code == 0
    assert "converged" in out


def test_audit_reads_final_profile_of_simulate_report(tmp_path, capsys):
    ne_path, sim_path = tmp_path / "ne.json", tmp_path / "sim.json"
    main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne_path)])
    sim_args = ["--rounds", "5", "--out", str(sim_path)]
    assert main(["simulate", "--scenario", GOLDEN, "--profile", str(ne_path), *sim_args]) == 0
    capsys.readouterr()
    audit_path = tmp_path / "audit.json"
    code = main(
        ["audit", "--scenario", GOLDEN, "--profile", str(sim_path), "--out", str(audit_path)]
    )
    assert code == 0, capsys.readouterr().err
    final = json.loads(sim_path.read_text())["final_profile"]
    assert json.loads(audit_path.read_text())["profile"] == final


@pytest.mark.parametrize("label", ["profile", "final_profile"])
def test_a_user_labelled_like_a_report_key_reads_from_both_file_kinds(tmp_path, capsys, label):
    # only a report (its schema says so) keeps the profile under a key; a
    # bare profile's keys are user labels, these two included
    scenario = tmp_path / "s.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "nash-unicast/scenario-v1",
                "name": "labels",
                "links": {"A": 1.0},
                "routes": {label: ["A"], "u2": ["A"], "u3": ["A"]},
                "utilities": {u: {"family": "log", "params": {"a": 1.0}} for u in (label, "u2", "u3")},
            }
        )
    )
    ne, sim, bare, bare_final = (tmp_path / f"{name}.json" for name in ("ne", "sim", "bare", "bare_final"))
    assert main(["construct-ne", "--scenario", str(scenario), "--out", str(ne)]) == 0
    profile = json.loads(ne.read_text())["profile"]
    assert set(profile) == {label, "u2", "u3"}
    bare.write_text(json.dumps(profile))
    assert main(["simulate", "--scenario", str(scenario), "--profile", str(bare), "--out", str(sim)]) == 0
    bare_final.write_text(json.dumps(json.loads(sim.read_text())["final_profile"]))
    for path in (ne, bare, sim, bare_final):
        out = tmp_path / "audit.json"
        code = main(["audit", "--scenario", str(scenario), "--profile", str(path), "--out", str(out)])
        assert code == 0, (path.name, capsys.readouterr().err)
        assert json.loads(out.read_text())["profile"] == profile, path.name


def test_solve_rejects_infinite_capacity(tmp_path, capsys):
    scenario = json.loads(Path(GOLDEN).read_text())
    scenario["links"]["A"] = float("inf")
    path = tmp_path / "inf.json"
    path.write_text(json.dumps(scenario))  # written as the JSON token Infinity
    assert main(["solve", "--scenario", str(path)]) == 1
    captured = capsys.readouterr()
    assert "'A'" in captured.err and "inf" in captured.err
    assert "objective" not in captured.out


def test_solve_rejects_infinite_tolerance_override(capsys):
    assert main(["solve", "--scenario", GOLDEN, "--tolerance", "inf"]) == 1
    captured = capsys.readouterr()
    assert "tolerance" in captured.err and "inf" in captured.err
    assert "objective" not in captured.out


def _huge_link_scenario(tmp_path, mechanism):
    # 1e4 * 1e200**2 overflows: the default alpha and gamma are not numbers
    scenario = {
        "schema": "nash-unicast/scenario-v1",
        "links": {"A": 1e200},
        "routes": {f"u{k}": ["A"] for k in (1, 2, 3)},
        "utilities": {f"u{k}": {"family": "log", "params": {"a": float(k)}} for k in (1, 2, 3)},
        "mechanism": mechanism,
    }
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(scenario))
    return str(path)


def test_solve_needs_no_default_that_the_scenario_gives(tmp_path, capsys):
    path = _huge_link_scenario(tmp_path, {"alpha": 1e4, "gamma": 1e4})
    assert main(["solve", "--scenario", path]) == 0
    captured = capsys.readouterr()
    assert "objective" in captured.out and captured.err == ""


@pytest.mark.parametrize(
    "mechanism, field", [({}, "alpha"), ({"alpha": 1e4}, "gamma"), ({"gamma": 1e4}, "alpha")]
)
def test_an_overflowing_default_is_a_mechanism_error(tmp_path, capsys, mechanism, field):
    path = _huge_link_scenario(tmp_path, mechanism)
    assert main(["solve", "--scenario", path]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: mechanism {field} must be a finite positive number"), err
    assert "1e+200" in err and "Traceback" not in err


@pytest.mark.parametrize("grid", [0, 1])
def test_grid_below_two_rejected(tmp_path, capsys, grid):
    # the best response is exact and --grid is gone: any value of it, the
    # ones once refused as below two included, is an unrecognized argument
    ne = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne)]) == 0
    capsys.readouterr()
    for command in ("construct-ne", "audit", "simulate"):
        argv = [command, "--scenario", GOLDEN, "--grid", str(grid)]
        if command != "construct-ne":
            argv += ["--profile", str(ne)]
        assert main(argv) == 1, command
        assert f"unrecognized arguments: --grid {grid}" in capsys.readouterr().err, command


def test_blocked_user_fails_only_the_competitive_and_optimality_checks(tmp_path, capsys):
    # u2 values link A most, but A is exactly full, so any positive rate of
    # its own fires the overload penalty: the eight best-response, price and
    # tax checks pass at a profile below the optimum, and play settles there
    # at once; at A's posted price u2 would buy A's whole capacity
    path = str(SCENARIO_DIR / "blocked_user.json")
    audited, simulated = tmp_path / "audit.json", tmp_path / "simulate.json"
    assert main(["audit", "--scenario", path, "--out", str(audited)]) == 2
    report = json.loads(audited.read_text())
    checks = report["checks"]
    assert [c["name"] for c in checks if not c["pass"]] == ["competitive_gap", "optimality_gap"]
    assert len(checks) == 10
    assert checks[-2]["value"] == report["audit"]["competitive_gap"] == pytest.approx(1.4128, abs=1e-4)
    assert checks[-1]["value"] == pytest.approx(0.4575, abs=1e-4)
    assert capsys.readouterr().err == "failed checks: competitive_gap, optimality_gap\n"
    assert main(["simulate", "--scenario", path, "--out", str(simulated)]) == 0
    report = json.loads(simulated.read_text())
    assert (report["verdict"], report["rounds"], report["moves"]) == ("converged", 1, [])
    assert report["final_profile"] == json.loads(Path(path).read_text())["profile"]


def test_emit_rejects_nan_without_writing(tmp_path, capsys):
    path = tmp_path / "report.json"
    with pytest.raises(ValueError):
        _emit({"objective": float("nan")}, str(path), [])
    assert not path.exists()


def test_simulate_sigmoid_market(capsys):
    code = main(
        [
            "simulate",
            "--scenario",
            str(SCENARIO_DIR / "sigmoid_market.json"),
            "--rounds",
            "5",
        ]
    )
    assert code == 0
    assert "converged" in capsys.readouterr().out


@pytest.mark.parametrize("tolerance", ["nan", "inf", "-1"])
def test_simulate_rejects_a_stop_tolerance_that_is_not_finite_and_nonnegative(capsys, tolerance):
    argv = ["simulate", "--scenario", str(SCENARIO_DIR / "sigmoid_market.json"), "--stop-tolerance", tolerance]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: stop_tolerance must be a finite number >= 0"), captured.err
    assert captured.out == ""


def test_report_over_directory(tmp_path, capsys):
    code = main(["report", "--scenario", str(SCENARIO_DIR)])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("two_users_one_link", "shared_backbone", "sigmoid_market"):
        assert name in out
    assert "fail" not in out.replace("failing", "")



def test_report_lists_every_file_past_a_failing_one(tmp_path, capsys):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    golden = json.loads(Path(GOLDEN).read_text())
    (directory / "two_users_one_link.json").write_text(json.dumps(golden))
    one_round = json.loads((SCENARIO_DIR / "shared_backbone.json").read_text())
    one_round["solver"] = {"max_iterations": 1}  # NotConverged after one round
    (directory / "one_round.json").write_text(json.dumps(one_round))
    tight = {**golden, "mechanism": {"price_bound": 0.01}}  # PriceBoundExceeded
    (directory / "tight_bound.json").write_text(json.dumps(tight))
    errors = {}
    for name, command in (("one_round", "solve"), ("tight_bound", "construct-ne")):
        assert main([command, "--scenario", str(directory / f"{name}.json")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        errors[f"{name}.json"] = err[len("error: "):].rstrip("\n")
    out = tmp_path / "report.json"
    assert main(["report", "--scenario", str(directory), "--out", str(out)]) == 2
    rows = {r["file"]: r for r in json.loads(out.read_text())["scenarios"]}
    assert sorted(rows) == ["one_round.json", "tight_bound.json", "two_users_one_link.json"]
    assert rows["two_users_one_link.json"]["verdict"] == "pass"
    for name, message in errors.items():
        assert rows[name] == {"file": name, "verdict": "error", "error": message}
    assert "still above tolerance" in errors["one_round.json"]
    assert "exceeds the price bound 0.01" in errors["tight_bound.json"]

def test_report_rejects_file_path(capsys):
    assert main(["report", "--scenario", GOLDEN]) == 1


def test_seed_override_changes_recipient(tmp_path, capsys):
    # a scenario with several eligible recipients for the pair link
    scenario = {
        "schema": "nash-unicast/scenario-v1",
        "name": "many-bystanders",
        "links": {"A": 1.0, "B": 3.0},
        "routes": {"a": ["A"], "b": ["A"], "c": ["B"], "d": ["B"], "e": ["B"]},
        "utilities": {
            u: {"family": "log", "params": {"a": 1.0}} for u in ("a", "b", "c", "d", "e")
        },
    }
    path = tmp_path / "many.json"
    path.write_text(json.dumps(scenario))
    recipients = set()
    for seed in range(8):
        out = tmp_path / f"r{seed}.json"
        main(
            [
                "construct-ne",
                "--scenario",
                str(path),
                "--seed",
                str(seed),
                "--out",
                str(out),
            ]
        )
        recipients.add(json.loads(out.read_text())["subsidies"]["A"])
    assert len(recipients) > 1

@pytest.mark.parametrize("command", ["audit", "simulate"])
@pytest.mark.parametrize(
    "user, field, value, expected",
    [
        ("u5", "rate", 99.0, "user 'u5': rate 99.0 outside [0, 1.5]"),
        ("u5", "rate", float("nan"), "user 'u5': rate nan outside"),
        # within BOUNDARY_TOL of 0, yet no utility takes a negative rate
        ("u2", "rate", -1e-13, "user 'u2': rate -1e-13 outside [0, "),
        ("u1", "rate", float("inf"), "user 'u1': rate inf outside"),
        ("u3", "core", float("nan"), "user 'u3': price nan on link 'core' outside"),
        ("u2", "west", float("-inf"), "user 'u2': price -inf on link 'west' outside"),
        ("u4", "east", 1e9, "user 'u4': price 1000000000.0 on link 'east' outside"),
    ],
)
def test_bad_profile_value_rejected_by_label(tmp_path, capsys, command, user, field, value, expected):
    scenario = str(SCENARIO_DIR / "shared_backbone.json")
    ne_path = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", scenario, "--out", str(ne_path)]) == 0
    profile = json.loads(ne_path.read_text())["profile"]
    if field == "rate":
        profile[user]["rate"] = value
    else:
        profile[user]["prices"][field] = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(profile))  # NaN and Infinity as JSON tokens
    capsys.readouterr()
    code = main([command, "--scenario", scenario, "--profile", str(bad)])
    captured = capsys.readouterr()
    assert code == 1
    assert expected in captured.err, captured.err
    assert "certified" not in captured.out and "converged" not in captured.out


def test_audit_validates_its_profile_once(tmp_path, capsys, monkeypatch):
    # imported here: a test below takes a parameter named mechanism
    from nash_unicast import equilibrium, mechanism

    scenario = str(SCENARIO_DIR / "shared_backbone.json")
    ne_path = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", scenario, "--out", str(ne_path)]) == 0
    calls = []
    validate = mechanism.validate_profile

    def counted(net, profile, params):
        calls.append(profile)
        return validate(net, profile, params)

    # outcome looks the name up on mechanism, own_tax_table on equilibrium
    monkeypatch.setattr(equilibrium, "validate_profile", counted)
    monkeypatch.setattr(mechanism, "validate_profile", counted)
    assert main(["audit", "--scenario", scenario, "--profile", str(ne_path)]) == 0
    capsys.readouterr()
    assert len(calls) == 1


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--scenario", GOLDEN, "--bogus"], "unrecognized arguments: --bogus"),
        # flags that no step of the command reads are not taken
        (["solve", "--scenario", GOLDEN, "--grid", "5"], "unrecognized arguments: --grid 5"),
        (["solve", "--scenario", GOLDEN, "--seed", "3"], "unrecognized arguments: --seed 3"),
        (["simulate", "--scenario", GOLDEN, "--tolerance", "inf"], "unrecognized arguments: --tolerance inf"),
        (["simulate", "--scenario", GOLDEN, "--rounds", "abc"], "argument --rounds: invalid int value: 'abc'"),
        (["audit"], "the following arguments are required: --scenario"),
        ([], "the following arguments are required: command"),
        # a missing input is a usage error too
        pytest.param(
            ["audit", "--scenario", GOLDEN],
            "audit needs a profile: pass --profile or embed one in the scenario",
            id="audit-without-profile",
        ),
        pytest.param(
            ["simulate", "--scenario", GOLDEN],
            "simulate needs a start profile: pass --profile or embed one",
            id="simulate-without-profile",
        ),
        pytest.param(
            ["report", "--scenario", GOLDEN], f"{GOLDEN} is not a directory of scenarios", id="report-on-a-file"
        ),
    ],
)
def test_usage_errors_exit_1(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"error: {message}\n", captured.err
    assert captured.out == ""


@pytest.mark.parametrize("argv", [["--help"], ["solve", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    assert "usage: nash-unicast" in capsys.readouterr().out


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    a, b, fresh = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "fresh.json"
    argv = ["construct-ne", "--scenario", GOLDEN, "--seed", "3", "--tolerance", "1e-9"]
    assert main(argv + ["--out", str(a)]) == 0
    assert main(["construct-ne", "--scenario", GOLDEN, "--no-such-flag"]) == 1
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(b)]) == 0
    assert len(built) == 1

    cli._parser.cache_clear()
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(fresh)]) == 0
    assert len(built) == 2
    assert b.read_bytes() == fresh.read_bytes()
    assert a.read_bytes() != b.read_bytes()  # the first call's flags were in effect
    cli._parser.cache_clear()


# --- every report is json.dumps' strict, compact JSON --------------------------


import tempfile  # noqa: E402
from dataclasses import replace  # noqa: E402

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nash_unicast.scenario import (  # noqa: E402
    Scenario,
    profile_to_labels,
    random_feasible_profile,
    random_scenario,
    save_scenario,
)

from corpus import crowded_scenario, denormal_net, mixed_scenario  # noqa: E402

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.5e-308]),
    st.text(max_size=12),
    st.sampled_from(["é", "ü ", "日本", "\x00\n\t\"\\", "😀", "\u2028"]),
)
_KEYS = st.one_of(st.text(max_size=8), st.sampled_from(["", "é", "naïve key", "日本", "\"q\"", "u1"]))
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.dictionaries(_KEYS, inner, max_size=5),
        st.lists(st.dictionaries(_KEYS, inner, max_size=4), max_size=4),
    ),
    max_leaves=40,
)


def _reference_text(report) -> str:
    return json.dumps(report, allow_nan=False)


def _exact(value):
    """``value`` with every float as its hex and every scalar tagged with its
    type, so that == compares bits: -0.0 differs from 0.0, True from 1."""
    if isinstance(value, dict):
        return {k: _exact(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_exact(v) for v in value]
    if isinstance(value, float):
        return "float", value.hex()
    return type(value).__name__, value


def report_json(report) -> str:
    """The report file ``_emit`` writes, without its closing newline."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "report.json"
        _emit(report, str(path), [])
        text = path.read_text(encoding="utf-8")
    assert text.endswith("\n")
    return text[:-1]


@given(_JSON)
@settings(max_examples=300, deadline=None)
def test_report_json_equals_json_dumps(value):
    # and reads back bit for bit, so a profile round-trips through a report
    text = report_json(value)
    assert text == _reference_text(value)
    assert _exact(json.loads(text)) == _exact(value)


@pytest.mark.parametrize(
    "value",
    [
        {},
        [],
        {"a": {}},
        {"a": [[]]},
        [{}],
        ({"t": (1, 2.5)},),
        {1: 2.0, None: True},
        "x",
        5e-324,
        {"numpy": [np.float64(0.1), np.float64(-0.0)]},
    ],
)
def test_report_json_equals_json_dumps_on_edge_shapes(value):
    assert report_json(value) == _reference_text(value)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_report_json_raises_as_json_dumps_does(tmp_path, bad):
    # the text is built before the file is opened: no file, not an empty one
    path = tmp_path / "report.json"
    for report in ({"a": {"b": [1.0, bad]}}, {"x": bad}, [bad], bad):
        with pytest.raises(ValueError) as got:
            _emit(report, str(path), [])
        with pytest.raises(ValueError) as ref:
            _reference_text(report)
        assert str(got.value) == str(ref.value)
        assert not path.exists()


def _overflowing_scenario(tmp_path) -> Path:
    """``corpus.denormal_net`` at alpha = 1e300 and gamma = 1e-300, with
    ``random_feasible_profile`` seed 0 embedded: six users' taxes overflow
    to NaN."""
    net, uts, params = denormal_net()
    with np.errstate(over="ignore", invalid="ignore"):
        profile = random_feasible_profile(net, replace(params, alpha=1e300, gamma=1e-300), seed=0)
    scenario = Scenario(
        "denormal-overflow",
        {net.link_labels[l]: net.capacity(l) for l in net.links()},
        {net.user_labels[u]: [net.link_labels[l] for l in net.route(u)] for u in net.users()},
        {net.user_labels[u]: uts[u] for u in net.users()},
        mechanism={"alpha": 1e300, "gamma": 1e-300, "price_bound": params.price_bound},
        profile=profile_to_labels(profile, net),
    )
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    return path


def test_budget_check_of_an_overflowing_profile_reads_inf_not_nan(tmp_path, capsys):
    # the taxes sum to NaN and so does the tax scale: the gap reads inf, the
    # bound inf, and the check fails though inf <= inf
    path = str(_overflowing_scenario(tmp_path))
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["audit", "--scenario", path]) == 2
    out = capsys.readouterr().out
    assert "  [FAIL] budget_gap: inf (<= inf)\n" in out
    assert "nan (" not in out


def test_audit_out_on_an_overflowing_profile_exits_1_without_a_file(tmp_path, capsys):
    path, out = str(_overflowing_scenario(tmp_path)), tmp_path / "audit.json"
    with np.errstate(over="ignore", invalid="ignore"):
        assert main(["audit", "--scenario", path, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: Out of range float values are not JSON compliant")
    assert not out.exists()


def _assert_every_report_is_compact_json(tmp_path, path):
    """Run solve, construct-ne, audit and simulate on the scenario file
    ``path``; each report file must hold the bytes of ``json.dumps(report,
    allow_nan=False)`` and a newline. Returns the files written."""
    solve, ne, audit, sim = (tmp_path / f"{name}.json" for name in ("solve", "ne", "audit", "sim"))
    main(["solve", "--scenario", str(path), "--out", str(solve)])
    main(["construct-ne", "--scenario", str(path), "--out", str(ne)])
    profile = ne if ne.exists() else None
    if profile is None:  # non-concave: the scenario embeds its profile
        main(["audit", "--scenario", str(path), "--out", str(audit)])
    else:
        main(["audit", "--scenario", str(path), "--profile", str(ne), "--out", str(audit)])
    main(["simulate", "--scenario", str(path), "--rounds", "3", "--out", str(sim)]
         + (["--profile", str(ne)] if profile else []))
    written = [p for p in (solve, ne, audit, sim) if p.exists()]
    assert audit in written and sim in written
    for p in written:
        text = p.read_text()
        assert text == _reference_text(json.loads(text)) + "\n", p.name
    return written


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_report_files_equal_json_dumps(tmp_path, capsys, path):
    _assert_every_report_is_compact_json(tmp_path, path)


@pytest.mark.parametrize("shape", ["concave market", "mixed market", "crowded link"])
def test_audit_sized_report_files_equal_json_dumps(tmp_path, capsys, shape):
    # the mixed-play benchmark's shape, in a concave market (construct-ne
    # runs) and in the mixed market with a random feasible start, and the
    # crowded-links benchmark's 26 users on one link
    sizes = dict(users_range=(28, 32), links_range=(18, 22))
    if shape == "crowded link":
        scenario = crowded_scenario()
    elif shape == "concave market":
        scenario = random_scenario(4400, **sizes)
    else:
        scenario = mixed_scenario(4400, **sizes)
        net, _, params, _ = scenario.build()
        scenario.profile = profile_to_labels(random_feasible_profile(net, params, seed=4400), net)
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    written = _assert_every_report_is_compact_json(tmp_path, path)
    assert len(written) == (2 if shape == "mixed market" else 4)
    assert (tmp_path / "audit.json").stat().st_size > 8_000  # the crowded link's is the least, 8.5 KB


def test_report_command_file_is_the_writers_own(tmp_path, capsys):
    out = tmp_path / "report.json"
    main(["report", "--scenario", str(SCENARIO_DIR), "--out", str(out)])
    text = out.read_text()
    assert text == _reference_text(json.loads(text)) + "\n"


# --- log lines follow the caller's stderr ---------------------------------------


def test_log_lines_go_to_the_stderr_of_each_call(monkeypatch):
    import contextlib
    import io

    monkeypatch.setenv("NASH_UNICAST_LOG", "info")
    scenario = str(SCENARIO_DIR / "sigmoid_market.json")
    buffers = []
    for _ in range(2):
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["audit", "--scenario", scenario]) == 0
        buffers.append(err.getvalue())
    monkeypatch.setenv("NASH_UNICAST_LOG", "warning")
    quiet = io.StringIO()
    with contextlib.redirect_stderr(quiet), contextlib.redirect_stdout(io.StringIO()):
        main(["audit", "--scenario", scenario])
    line = "INFO:nash_unicast:optimality check skipped: non-concave utilities\n"
    assert buffers == [line, line]
    assert quiet.getvalue() == ""


# --- errors name users by label -------------------------------------------------


def test_non_concave_error_names_the_user_by_label(tmp_path, capsys):
    scenario = tmp_path / "tiny_s.json"
    scenario.write_text(
        json.dumps(
            {
                "schema": "nash-unicast/scenario-v1",
                "name": "tiny_s",
                "links": {"L0": 1},
                "routes": {"bob": ["L0"], "amy": ["L0"]},
                "utilities": {
                    "bob": {"family": "sigmoid", "params": {"a": 1, "s": 1e-300}},
                    "amy": {"family": "log", "params": {"a": 1}},
                },
            }
        )
    )
    assert main(["solve", "--scenario", str(scenario)]) == 1
    err = capsys.readouterr().err
    assert err == "error: user 'bob' has a non-concave (sigmoid) utility\n", err


SIGMOID = SCENARIO_DIR / "sigmoid_market.json"


def _malformed(kind: str) -> dict:
    scenario = json.loads(SIGMOID.read_text())
    if kind == "profile list":
        scenario["profile"] = list(scenario["profile"].values())
    elif kind == "prices list":
        scenario["profile"]["u1"]["prices"] = [0.5]
    else:  # a rate that is no number
        scenario["profile"]["u1"]["rate"] = "abc"
    return scenario


@pytest.mark.parametrize(
    "kind, message",
    [
        ("profile list", "profile must be a JSON object of user messages"),
        ("prices list", "profile entry for user 'u1' is malformed: prices must be a JSON object, not list"),
        ("rate abc", "profile entry for user 'u1' is malformed: rate must be a JSON number, not 'abc'"),
    ],
)
def test_malformed_embedded_profile_is_a_named_error(tmp_path, capsys, kind, message):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    (directory / "bad.json").write_text(json.dumps(_malformed(kind)))
    (directory / "good.json").write_text(SIGMOID.read_text())
    assert main(["audit", "--scenario", str(directory / "bad.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    out = tmp_path / "report.json"
    assert main(["report", "--scenario", str(directory), "--out", str(out)]) == 2
    rows = {r["file"]: r for r in json.loads(out.read_text())["scenarios"]}
    assert rows["bad.json"]["verdict"] == "error" and message in rows["bad.json"]["error"]
    assert rows["good.json"]["verdict"] == "pass"


def test_profile_file_holding_a_list_is_a_named_error(tmp_path, capsys):
    path = tmp_path / "profile.json"
    path.write_text(json.dumps([{"rate": 0.5, "prices": {"A": 0.5}}]))
    assert main(["audit", "--scenario", GOLDEN, "--profile", str(path)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a profile must be a JSON object of user messages, not list"), err


@pytest.mark.parametrize(
    "mechanism, utility_a, codes",
    [
        ({"alpha": 1, "gamma": 1}, 1.0, {2}),
        ({"alpha": 0.1, "gamma": 0.1}, 1.0, {2}),
        ({}, 1e5, {2}),
        # gamma * quad_weight underflows to 0 on the two-user link
        ({"alpha": 1e300, "gamma": 1e-300}, 1.0, {1, 2}),
    ],
)
def test_construct_ne_fails_where_a_deviation_pays(tmp_path, capsys, mechanism, utility_a, codes):
    scenario = json.loads(Path(GOLDEN).read_text())
    scenario["mechanism"].update(mechanism)
    for spec in scenario["utilities"].values():
        spec["params"]["a"] = utility_a
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(scenario))
    assert main(["construct-ne", "--scenario", str(path)]) in codes
    assert "[PASS] best_response_gap" not in capsys.readouterr().out


# --- audit certifies a profile with its own prices --------------------------


@pytest.mark.parametrize("seed", [1046, 1121, 1204])
def test_audit_certifies_an_equilibrium_the_default_budget_cannot_solve_cold(tmp_path, capsys, seed):
    from nash_unicast.scenario import random_scenario, save_scenario

    scenario = random_scenario(seed)
    scenario.solver["max_iterations"] = 2000
    long_budget = tmp_path / "long.json"
    save_scenario(scenario, long_budget)
    ne_path = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", str(long_budget), "--out", str(ne_path)]) == 0

    scenario.solver.pop("max_iterations")
    default_budget = tmp_path / "default.json"
    save_scenario(scenario, default_budget)
    capsys.readouterr()
    assert main(["solve", "--scenario", str(default_budget)]) == 1  # the cold solve gives up
    assert "still above tolerance" in capsys.readouterr().err
    assert main(["audit", "--scenario", str(default_budget), "--profile", str(ne_path)]) == 0
    assert "[PASS] optimality_gap" in capsys.readouterr().out


def _audit_log(monkeypatch, argv) -> list:
    """The log lines a command writes to stderr under NASH_UNICAST_LOG=debug."""
    import contextlib
    import io

    monkeypatch.setenv("NASH_UNICAST_LOG", "debug")
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        main(argv)
    return [line for line in err.getvalue().splitlines() if ":nash_unicast:" in line]


def test_audit_logs_its_optimality_reference(tmp_path, monkeypatch):
    ne_path = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne_path)]) == 0
    report = json.loads(ne_path.read_text())
    lines = _audit_log(monkeypatch, ["audit", "--scenario", GOLDEN, "--profile", str(ne_path)])
    residual = report["solve"]["kkt_residual"]
    assert lines == [f"DEBUG:nash_unicast:optimality reference: the profile's prices certify (KKT residual {residual:.3g})"]

    for message in report["profile"].values():  # off equilibrium: the cold solve runs
        message["rate"] *= 0.5
        message["prices"] = {l: 0.5 * p for l, p in message["prices"].items()}
    halved = tmp_path / "halved.json"
    halved.write_text(json.dumps(report["profile"]))
    lines = _audit_log(monkeypatch, ["audit", "--scenario", GOLDEN, "--profile", str(halved)])
    rounds = report["solve"]["iterations"]
    assert lines == [f"DEBUG:nash_unicast:optimality reference: solved in {rounds} clearing rounds"]

    lines = _audit_log(monkeypatch, ["audit", "--scenario", str(SCENARIO_DIR / "sigmoid_market.json")])
    assert lines == [
        "INFO:nash_unicast:optimality check skipped: non-concave utilities",
        "DEBUG:nash_unicast:optimality reference: skipped: non-concave",
    ]


def test_sigmoid_users_on_a_1e200_link_play_and_audit_to_finite_gains(tmp_path, capsys):
    # sigmoid's V read straight from a*x^2/(s + x^2) is NaN from x of about
    # 1.34e154 on, where x^2 overflows; the best response scores rates up
    # to the route capacity
    sigmoid = lambda a: {"family": "sigmoid", "params": {"a": a, "s": 1.0}}  # noqa: E731
    scenario = {
        "schema": "nash-unicast/scenario-v1",
        "name": "huge_link",
        "links": {"A": 1e200, "B": 1.0},
        "routes": {"u0": ["A"], "u1": ["A"], "u2": ["A"], "u3": ["B"]},
        "utilities": {
            "u0": sigmoid(1.0),
            "u1": sigmoid(2.0),
            "u2": {"family": "log", "params": {"a": 1.0}},
            "u3": {"family": "log", "params": {"a": 1.0}},
        },
        "mechanism": {"alpha": 1e4, "gamma": 1e4},
        "profile": {
            u: {"rate": 0.5 if u == "u3" else 1.0, "prices": {"B" if u == "u3" else "A": 0.1}}
            for u in ("u0", "u1", "u2", "u3")
        },
    }
    path = tmp_path / "huge_link.json"
    path.write_text(json.dumps(scenario))
    assert main(["simulate", "--scenario", str(path), "--rounds", "3"]) == 0
    out = tmp_path / "audit.json"
    main(["audit", "--scenario", str(path), "--out", str(out)])
    assert math.isfinite(json.loads(out.read_text())["audit"]["best_response_gap"])
    assert "nan" not in capsys.readouterr().err
