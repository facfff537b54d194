"""The benchmark traces the library by wrapping names on its modules; those
names must keep resolving, and the library must keep calling through them,
or a per-layer metric reads zero. ``bench/spans.py`` is only imported here,
never changed."""

import importlib.util
from pathlib import Path

from nash_unicast import cli, equilibrium, mechanism, solver
from nash_unicast.scenario import load_scenario

ROOT = Path(__file__).resolve().parent.parent
SPANS = ROOT / "bench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_names_resolve():
    spans = _load_spans()
    wrapped = [(owner, attr) for owner, attr, _ in spans.SPANNED + spans.COUNTED]
    wrapped.append((mechanism, "tax_link"))  # timed per call by bench/run.py
    assert len(wrapped) > 20
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr in wrapped
        if not callable(getattr(owner, attr, None))
    ]
    assert not missing, missing


def test_traced_layers_see_calls():
    net, uts, params, config = load_scenario(ROOT / "scenarios" / "shared_backbone.json").build()
    res = solver.solve_centralized(net, uts, config)
    profile = equilibrium.construct_ne(net, uts, params, solve_result=res)
    alloc = mechanism.outcome(net, profile, params, mechanism.assign_subsidies(net, params.rng_seed))

    tracer = _load_spans().Tracer()
    with tracer.installed():
        solver.solve_centralized(net, uts, config)
    assert tracer.counts["utilities.derivative"] > 0
    assert tracer.counts["utilities.demand"] > 0

    with tracer.installed():
        equilibrium.audit(net, uts, profile, params, alloc)
    calls, _, _ = tracer.summarize()
    assert calls["mechanism.own_tax_terms"] > 0
    assert calls["mechanism.eval_own_tax"] > 0


def test_traced_cli_commands_see_the_tax_layers(tmp_path, capsys):
    # the CLI builds one own-tax table per command; it must still do so
    # through the names the tracer wraps, or the mechanism metrics read zero
    scenario = str(ROOT / "scenarios" / "shared_backbone.json")
    ne = tmp_path / "ne.json"
    tracer = _load_spans().Tracer()
    with tracer.installed():
        assert cli.main(["construct-ne", "--scenario", scenario, "--out", str(ne)]) == 0
        construct_calls = tracer.summarize()[0]
        assert cli.main(["audit", "--scenario", scenario, "--profile", str(ne)]) == 0
    capsys.readouterr()
    audit_calls = tracer.summarize()[0] - construct_calls
    for calls in (construct_calls, audit_calls):
        for name in ("mechanism.outcome", "mechanism.own_tax_terms", "mechanism.eval_own_tax"):
            assert calls[name] > 0, (name, calls)
