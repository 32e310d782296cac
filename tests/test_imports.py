import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

_PROBE = (
    "import json, sys, {modules}; "
    "print(json.dumps(sorted(m for m in sys.modules if m.startswith('scipy'))))"
)


def _scipy_modules_after(*modules):
    """scipy* keys of sys.modules after importing `modules` in a fresh interpreter."""
    out = subprocess.run(
        [sys.executable, "-c", _PROBE.format(modules=", ".join(modules))],
        capture_output=True, text=True, env=_env(), check=True,
    )
    return json.loads(out.stdout)


def _env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def test_series_path_runs_on_numpy_alone():
    assert _scipy_modules_after(
        "torvdw", "torvdw.dispersion", "torvdw.greens", "torvdw.cli"
    ) == []


@pytest.mark.parametrize("module", ["torvdw.bem", "torvdw.validate"])
def test_oracle_runs_on_numpy_alone(module):
    assert _scipy_modules_after(module) == []


_NO_SCIPY = """
import runpy, sys


class RefuseScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is refused")
        return None


sys.meta_path.insert(0, RefuseScipy())
sys.argv = ["torvdw", "validate"]
runpy.run_module("torvdw.cli", run_name="__main__")
"""


def test_validate_runs_with_scipy_refused():
    # the same as `python -m torvdw.cli validate`, with every scipy import refused
    out = subprocess.run([sys.executable, "-c", _NO_SCIPY],
                         capture_output=True, text=True, env=_env())
    assert out.returncode == 0, out.stderr
    assert "validation: PASS" in out.stdout


_RUN = """
import contextlib, io, json, runpy, sys

sys.argv, code = ["torvdw", *json.loads(sys.argv[1])], 0
with contextlib.redirect_stdout(io.StringIO()):
    try:
        runpy.run_module("torvdw.cli", run_name="__main__")
    except SystemExit as stop:
        code = stop.code or 0
print(json.dumps([code, "numpy.random" in sys.modules]))
"""


def _run_fresh(argv):
    """(exit code, numpy.random loaded) after `python -m torvdw.cli argv`
    in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", _RUN, json.dumps(argv)],
                         capture_output=True, text=True, env=_env())
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout)


@pytest.fixture(scope="module")
def numpy_loads_random():
    # numpy 1.x imports numpy.random with numpy itself; 2.x loads it lazily
    out = subprocess.run(
        [sys.executable, "-c", "import numpy, sys; print('numpy.random' in sys.modules)"],
        capture_output=True, text=True, check=True)
    return out.stdout.strip() == "True"


@pytest.mark.parametrize("argv", [
    ["geom", "--a", "5", "--b", "1"],
    ["potential", "--a", "5", "--b", "1"],
    ["charge-energy", "--a", "5", "--b", "1"],
    ["vdw", "--a", "5", "--b", "1"],
    ["sweep-ratio", "--b", "1"],
    ["contour", "--b", "1", "--out"],
    ["validate"],
], ids=lambda argv: argv[0])
def test_commands_load_numpy_random_only_with_numpy(argv, tmp_path, numpy_loads_random):
    if argv[-1] == "--out":
        argv = [*argv, str(tmp_path / "contour")]
    code, loaded = _run_fresh(argv)
    assert code == 0
    assert numpy_loads_random or not loaded


_MODULES = sorted(path.stem for path in
                  (pathlib.Path(__file__).resolve().parent.parent / "src" / "torvdw").glob("*.py"))


@pytest.mark.parametrize("stem", _MODULES)
def test_exports_resolve_and_imports_are_used(stem):
    # each name in a module's __all__ exists, and each name a module imports
    # is read in it; __init__ imports to re-export, so only its __all__ counts
    module = importlib.import_module("torvdw" if stem == "__init__" else f"torvdw.{stem}")
    assert [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)] == []
    if stem == "__init__":
        return
    tree = ast.parse(pathlib.Path(module.__file__).read_text())
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {alias.asname or alias.name for alias in node.names}
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert sorted(imported - read) == []


def _name(node) -> str:
    return ast.unparse(node).rsplit(".", 1)[-1]


def test_every_error_class_is_raised():
    # each exception or warning class of errors.py is raised, or passed to
    # warnings.warn, by some other module of the package
    src = pathlib.Path(__file__).resolve().parent.parent / "src" / "torvdw"
    defined = {node.name for node in ast.parse((src / "errors.py").read_text()).body
               if isinstance(node, ast.ClassDef)}
    used = set()
    for path in src.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                used.add(_name(getattr(node.exc, "func", node.exc)))
            elif isinstance(node, ast.Call) and ast.unparse(node.func) == "warnings.warn":
                used |= {_name(arg) for arg in [*node.args, *(k.value for k in node.keywords)]}
    assert len(defined) > 10
    assert sorted(defined - used) == []


def _is_record(node) -> bool:
    return isinstance(node, ast.ClassDef) and (
        "NamedTuple" in map(_name, node.bases)
        or "dataclass" in (_name(getattr(d, "func", d)) for d in node.decorator_list))


def test_every_record_field_is_read():
    # each field of a dataclass or NamedTuple in the package is read as
    # `.field` by the package, perfbench/, scripts/ or tests/oracles.py,
    # outside its own class body.  Names only: a field that shares its name
    # with a read field of another record (SweepGrid.b and ToroidGeometry.b
    # would have) slips past.
    root = pathlib.Path(__file__).resolve().parent.parent
    paths = [*(root / "src" / "torvdw").glob("*.py"), *(root / "perfbench").glob("*.py"),
             *(root / "scripts").glob("*.py"), root / "tests" / "oracles.py"]
    fields, reads = {}, {}  # reads: (path, enclosing record or None) -> names
    for path in paths:
        tree = ast.parse(path.read_text())
        owner = {}
        for record in filter(_is_record, ast.walk(tree)):
            fields[record.name] = [s.target.id for s in record.body
                                   if isinstance(s, ast.AnnAssign)]
            owner.update((id(node), record.name) for node in ast.walk(record))
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                reads.setdefault((path, owner.get(id(node))), set()).add(node.attr)
    assert len(fields) > 5
    unread = [f"{record}.{name}" for record, names in sorted(fields.items())
              for name in names
              if not any(name in got for (_, where), got in reads.items() if where != record)]
    assert unread == []
