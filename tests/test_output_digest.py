"""The CLI's output bytes on ``tools/output_digest.py``'s command set, pinned.

A change that alters any output of that set (an exit code, a printed line, a
report byte) changes the total below; such a change updates the hex here and
says in CHANGES.md why the outputs moved.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "3dbb6cd3b05226f949da8c9c7e6363f9130f1812fd36bf0f64c1ae966105f3af"
COMMANDS = 487


def _load_tool():
    spec = importlib.util.spec_from_file_location("output_digest", ROOT / "tools" / "output_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


# builtin sum of floats is compensated from CPython 3.12 on, so several
# outputs differ in their last bits there (ROADMAP item 5); numpy's
# transcendental functions may differ by an ulp between releases
@pytest.mark.skipif(
    sys.implementation.name != "cpython" or sys.version_info[:2] != (3, 11) or not np.__version__.startswith("2.4."),
    reason="the pinned digest holds on CPython 3.11 with numpy 2.4.x only: builtin float sum is"
    " compensated from CPython 3.12 on (ROADMAP item 5)",
)
def test_output_digest_is_pinned(tmp_path):
    runner = _load_tool().digest(7, tmp_path)
    assert (runner.total.hexdigest(), runner.count) == (DIGEST, COMMANDS)
