"""The benchmark's traced run wraps named functions of the package (its
bind sites).  A refactor that renames or removes one does not crash the
benchmark: the span reads ``missing`` and its per-layer metrics turn null.
This test makes that a failure here instead."""

import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_bind_site_exists():
    recorder = _tracing().Recorder()
    try:
        status = recorder.install()
    finally:
        recorder.uninstall()
    assert status
    assert {name: st for name, st in status.items() if st != "ok"} == {}
