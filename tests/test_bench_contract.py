"""The benchmark traces the library by wrapping names on its modules; those
names must keep resolving. ``bench/spans.py`` is only imported here, never
changed."""

import importlib.util
from pathlib import Path

from nash_unicast import mechanism

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"


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
