import json
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
            "--grid",
            "64",
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
    sim_args = ["--grid", "64", "--rounds", "5", "--out", str(sim_path)]
    assert main(["simulate", "--scenario", GOLDEN, "--profile", str(ne_path), *sim_args]) == 0
    capsys.readouterr()
    audit_path = tmp_path / "audit.json"
    code = main(
        ["audit", "--scenario", GOLDEN, "--profile", str(sim_path), "--out", str(audit_path)]
    )
    assert code == 0, capsys.readouterr().err
    final = json.loads(sim_path.read_text())["final_profile"]
    assert json.loads(audit_path.read_text())["profile"] == final


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


@pytest.mark.parametrize("grid", [0, 1])
def test_grid_below_two_rejected(tmp_path, capsys, grid):
    ne = tmp_path / "ne.json"
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(ne)]) == 0
    capsys.readouterr()
    for command in ("construct-ne", "audit", "simulate"):
        argv = [command, "--scenario", GOLDEN, "--grid", str(grid)]
        if command != "construct-ne":
            argv += ["--profile", str(ne)]
        assert main(argv) == 1, command
        assert "--grid" in capsys.readouterr().err, command


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
            "--grid",
            "64",
            "--rounds",
            "5",
        ]
    )
    assert code == 0
    assert "converged" in capsys.readouterr().out


def test_report_over_directory(tmp_path, capsys):
    code = main(["report", "--scenario", str(SCENARIO_DIR), "--grid", "80"])
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
                "--grid",
                "40",
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
    code = main([command, "--scenario", scenario, "--profile", str(bad), "--grid", "16"])
    captured = capsys.readouterr()
    assert code == 1
    assert expected in captured.err, captured.err
    assert "certified" not in captured.out and "converged" not in captured.out


def test_reused_parser_keeps_no_state_between_calls(tmp_path, capsys, monkeypatch):
    built = []
    original = cli.build_parser

    def counting():
        built.append(1)
        return original()

    monkeypatch.setattr(cli, "build_parser", counting)
    cli._parser.cache_clear()
    a, b, fresh = tmp_path / "a.json", tmp_path / "b.json", tmp_path / "fresh.json"
    argv = ["construct-ne", "--scenario", GOLDEN, "--seed", "3", "--tolerance", "1e-9", "--grid", "50"]
    assert main(argv + ["--out", str(a)]) == 0
    with pytest.raises(SystemExit):
        main(["construct-ne", "--scenario", GOLDEN, "--no-such-flag"])
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(b)]) == 0
    assert len(built) == 1

    cli._parser.cache_clear()
    assert main(["construct-ne", "--scenario", GOLDEN, "--out", str(fresh)]) == 0
    assert len(built) == 2
    assert b.read_bytes() == fresh.read_bytes()
    assert a.read_bytes() != b.read_bytes()  # the first call's flags were in effect
    cli._parser.cache_clear()


# --- the report writer against json.dumps ---------------------------------------

import numpy as np  # noqa: E402
from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from nash_unicast.cli import report_json  # noqa: E402

_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-(2**70), 2**70),
    st.floats(allow_nan=False, allow_infinity=False),
    st.sampled_from([-0.0, 0.0, 5e-324, -5e-324, 1e308, -1e308, 2.5e-308]),
    st.text(max_size=12),
    st.sampled_from(["é", "ü ", "日本", "\x00\n\t\"\\", "😀", " "]),
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
    return json.dumps(report, indent=2, allow_nan=False)


@given(_JSON)
@settings(max_examples=300, deadline=None)
def test_report_json_equals_json_dumps(value):
    assert report_json(value) == _reference_text(value)


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
def test_report_json_raises_as_json_dumps_does(bad):
    for report in ({"a": {"b": [1.0, bad]}}, {"x": bad}, [bad]):
        with pytest.raises(ValueError) as got:
            report_json(report)
        with pytest.raises(ValueError) as ref:
            _reference_text(report)
        assert str(got.value) == str(ref.value)


def test_report_json_falls_back_without_the_c_encoder(monkeypatch):
    monkeypatch.setattr(cli, "c_make_encoder", None)
    report = {"é": [{"a": -0.0}, 1e308], "b": {}}
    assert report_json(report) == _reference_text(report)


@pytest.mark.parametrize("path", sorted(SCENARIO_DIR.glob("*.json")), ids=lambda p: p.stem)
def test_report_files_equal_json_dumps(tmp_path, capsys, path):
    ne, audit, sim = (tmp_path / f"{name}.json" for name in ("ne", "audit", "sim"))
    main(["construct-ne", "--scenario", str(path), "--out", str(ne), "--grid", "24"])
    profile = ne if ne.exists() else None
    if profile is None:  # non-concave: the scenario embeds its profile
        main(["audit", "--scenario", str(path), "--out", str(audit), "--grid", "24"])
    else:
        main(["audit", "--scenario", str(path), "--profile", str(ne), "--out", str(audit), "--grid", "24"])
    main(["simulate", "--scenario", str(path), "--rounds", "3", "--grid", "24", "--out", str(sim)]
         + (["--profile", str(ne)] if profile else []))
    written = [p for p in (ne, audit, sim) if p.exists()]
    assert audit in written and sim in written
    for p in written:
        text = p.read_text()
        assert text == _reference_text(json.loads(text)) + "\n", p.name


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
            assert main(["audit", "--scenario", scenario, "--grid", "16"]) == 0
        buffers.append(err.getvalue())
    monkeypatch.setenv("NASH_UNICAST_LOG", "warning")
    quiet = io.StringIO()
    with contextlib.redirect_stderr(quiet), contextlib.redirect_stdout(io.StringIO()):
        main(["audit", "--scenario", scenario, "--grid", "16"])
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
        ("rate abc", "profile entry for user 'u1' is malformed: could not convert string to float: 'abc'"),
    ],
)
def test_malformed_embedded_profile_is_a_named_error(tmp_path, capsys, kind, message):
    directory = tmp_path / "scenarios"
    directory.mkdir()
    (directory / "bad.json").write_text(json.dumps(_malformed(kind)))
    (directory / "good.json").write_text(SIGMOID.read_text())
    assert main(["audit", "--scenario", str(directory / "bad.json"), "--grid", "16"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err, err
    out = tmp_path / "report.json"
    assert main(["report", "--scenario", str(directory), "--grid", "16", "--out", str(out)]) == 2
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
