import json
import os
import subprocess
import sys

import pytest

_PROBE = (
    "import json, sys, {modules}; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
)


def _scipy_modules_after(*modules):
    """scipy* keys of sys.modules after importing `modules` in a fresh interpreter."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(modules=", ".join(modules))],
        capture_output=True, text=True, env=env, check=True,
    )
    return json.loads(out.stdout)


def test_series_path_runs_on_numpy_alone():
    assert _scipy_modules_after(
        "torvdw", "torvdw.dispersion", "torvdw.greens", "torvdw.cli"
    ) == []


@pytest.mark.parametrize("module", ["torvdw.bem", "torvdw.validate"])
def test_oracle_still_loads_scipy(module):
    assert "scipy" in _scipy_modules_after(module)
