"""Spans around torvdw's layer boundaries, for the traced run.

The traced run replaces each layer's public functions where other modules
(and the benchmark) look them up, for example ``torvdw.greens.harmonic_table``
or the ``BemMesh.lu`` method, with a wrapper that records a span: name,
start, end, parent span and task id.  Spans stay in memory and are written
out when the run ends.  No file of the package changes.  A bind site that no
longer exists is skipped; a span whose every site is gone is reported as
``missing``, so a refactor of the package never crashes the benchmark.

Standard library only.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

# Span record fields.
NAME, START, END, PARENT, TASK, ATTRS = range(6)


def _size(x) -> int:
    return int(getattr(x, "size", 1))


def _greens_arg(args, kwargs):
    """The series evaluator among a call's arguments (it carries the table)."""
    for x in (*args, *kwargs.values()):
        if hasattr(x, "table") and hasattr(x, "rel_tol"):
            return x
    return None


def _terms(args, kwargs, out, points=1):
    g = _greens_arg(args, kwargs)
    attrs = {"points": points}
    n_used = getattr(out, "n_used", None)
    if g is not None and n_used is not None:
        attrs["n_used"] = int(getattr(n_used, "sum", lambda: n_used)())
        attrs["table_terms"] = (g.table.n_max + 1) * points
    return attrs


def _first_call(mark):
    """Attrs for the first call on a mesh (the one that does the work):
    its panel count.  The mesh is marked so that cached calls are not."""
    def attrs(args, kwargs, out):
        mesh = args[0]
        if getattr(mesh, mark, False):
            return None
        setattr(mesh, mark, True)
        return {"n": int(mesh.n_panels)}
    return attrs


def _sites(modules, name):
    return [f"torvdw.{m}:{name}" for m in modules]


# span name -> (layer group, bind sites "module:attr[.attr]", attrs(args, out))
SPANS = {
    "specfun.harmonic_table": (
        "specfun.table", ["torvdw.greens:harmonic_table"],
        lambda a, k, out: {"terms": int(out.n_max) + 1}),
    "specfun.legendre_p_half": (
        "specfun.p", ["torvdw.greens:legendre_p_half"], None),
    "greens.axial_greens": (
        "greens.evaluator",
        _sites(("greens", "dispersion", "validate", "cli"), "axial_greens"), None),
    "greens.vh_potential_info": (
        "greens.point", _sites(("greens", "cli"), "vh_potential_info"),
        _terms),
    "greens.charge_interaction_energy_info": (
        "greens.point",
        _sites(("greens", "cli"), "charge_interaction_energy_info"), _terms),
    "greens.inverse_distance_series": (
        "greens.point",
        _sites(("greens", "validate"), "inverse_distance_series"),
        lambda a, k, out: {"points": 1}),
    "greens.surface_residual": (
        "greens.point", _sites(("greens", "validate"), "surface_residual"),
        lambda a, k, out: {"points": int(a[2] if len(a) > 2 else k.get("n_samples", 64))}),
    "dispersion.vdw_force": (
        "dispersion.point", _sites(("dispersion", "validate", "cli"), "vdw_force"),
        lambda a, k, out: {"points": _size(out)}),
    "dispersion.vdw_energy": (
        "dispersion.point", _sites(("dispersion", "validate"), "vdw_energy"),
        lambda a, k, out: {"points": _size(out)}),
    "dispersion.gh_mixed_derivative": (
        "dispersion.point", _sites(("dispersion",), "gh_mixed_derivative"),
        lambda a, k, out: {"points": 1}),
    "dispersion.force_profile": (
        "dispersion.point", _sites(("dispersion", "cli"), "force_profile"),
        lambda a, k, out: _terms(a, k, out, points=_size(out.z_p))),
    "dispersion.find_force_zero": (
        "dispersion.root", _sites(("dispersion",), "find_force_zero"), None),
    "dispersion.critical_ratio": (
        "dispersion.root", _sites(("dispersion",), "critical_ratio"), None),
    "dispersion.sweep_contour": (
        "dispersion.sweep", _sites(("dispersion", "cli"), "sweep_contour"),
        lambda a, k, out: {"cells": _size(out.force)}),
    "bem.build_mesh": (
        "bem.assembly", _sites(("bem", "validate"), "build_mesh"),
        lambda a, k, out: {"mesh_n": int(out.n_panels)}),
    "bem.collocation_matrix": (
        "bem.assembly", ["torvdw.bem:BemMesh.collocation_matrix"],
        _first_call("_perfbench_assembled")),
    "bem.lu": ("bem.lu", ["torvdw.bem:BemMesh.lu"], _first_call("_perfbench_factored")),
    "bem.solve_induced_density": (
        "bem.solve", _sites(("bem", "validate"), "solve_induced_density"),
        lambda a, k, out: {"residual": float(out.residual)}),
    "bem.bem_vh": ("bem.eval", _sites(("bem", "validate"), "bem_vh"), None),
    "bem.bem_gh_reduced": ("bem.eval", _sites(("bem",), "bem_gh_reduced"), None),
    "bem.bem_mixed_derivative": (
        "bem.eval", _sites(("bem",), "bem_mixed_derivative"), None),
    "validate.run_battery": (
        "validate.battery", _sites(("validate", "cli"), "run_battery"), None),
    "validate.check_bem_vs_series": (
        "validate.bem_check", _sites(("validate",), "check_bem_vs_series"), None),
    **{
        f"validate.{name}": ("validate.battery", _sites(("validate",), name), None)
        for name in ("check_expansion_identity", "check_surface_residual",
                     "check_force_vs_finite_difference", "check_far_field_slope")
    },
    **{
        f"geometry.{name}": (
            "geometry", _sites(("geometry", "greens", "dispersion", "validate", "cli"),
                               name), None)
        for name in ("toroid_from_radii", "cartesian_to_toroidal",
                     "toroidal_to_cartesian", "surface_rz")
    },
    "cli.main": ("cli.main", ["torvdw.cli:main"], None),
}


class Recorder:
    """In-memory span store.  Spans are recorded only while a task is open."""

    def __init__(self):
        self.spans = []
        self.task = None
        self._stack = []
        self._undo = []
        self.status = {}

    # -- spans
    def begin_task(self, task_id) -> None:
        self.task = task_id
        self._stack = [self.open("task")]

    def end_task(self) -> None:
        self.close(self._stack[0])
        self.task = None
        self._stack = []

    def open(self, name) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter_ns(), None, parent, self.task, None])
        idx = len(self.spans) - 1
        self._stack.append(idx)
        return idx

    def close(self, idx, attrs=None) -> None:
        span = self.spans[idx]
        span[END] = time.perf_counter_ns()
        span[ATTRS] = attrs
        while self._stack and self._stack[-1] != idx:
            self._stack.pop()  # children left open by an exception
        if self._stack:
            self._stack.pop()

    def add(self, name, start, end, parent, attrs=None) -> int:
        """Record a finished span, e.g. one measured in a child process."""
        self.spans.append([name, start, end, parent, self.task, attrs])
        return len(self.spans) - 1

    # -- wrapping
    def _wrap(self, fn, name, attrs_fn):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.task is None:
                return fn(*args, **kwargs)
            idx = rec.open(name)
            attrs = None
            try:
                out = fn(*args, **kwargs)
                if attrs_fn is not None:
                    attrs = attrs_fn(args, kwargs, out)
                return out
            finally:
                rec.close(idx, attrs)

        return wrapper

    def install(self, spans=SPANS) -> dict:
        """Wrap every bind site that exists; returns span name -> ok/missing."""
        for name, (_, sites, attrs_fn) in spans.items():
            found = 0
            for site in sites:
                mod_name, _, path = site.partition(":")
                try:
                    owner = importlib.import_module(mod_name)
                    *outer, attr = path.split(".")
                    for part in outer:
                        owner = getattr(owner, part)
                    original = getattr(owner, attr)
                except (ImportError, AttributeError):
                    continue
                setattr(owner, attr, self._wrap(original, name, attrs_fn))
                self._undo.append((owner, attr, original))
                found += 1
            self.status[name] = "ok" if found else "missing"
        return self.status

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo = []

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            for s in self.spans:
                fh.write(json.dumps({"name": s[NAME], "start_ns": s[START],
                                     "end_ns": s[END], "parent": s[PARENT],
                                     "task": s[TASK], "attrs": s[ATTRS]}) + "\n")


def self_times(spans):
    """Self time (s) of each span: its duration minus its children's."""
    child = [0] * len(spans)
    for s in spans:
        if s[PARENT] is not None:
            child[s[PARENT]] += s[END] - s[START]
    return [(s[END] - s[START] - c) * 1e-9 for s, c in zip(spans, child)]


GROUP_OF = {name: spec[0] for name, spec in SPANS.items()}
GROUP_OF.update({"import.interp": "import.interp", "import.torvdw": "import.torvdw",
                 "task": "task", "trace.child": "task"})


def layer_metrics(spans, n_tasks: int, status: dict) -> dict:
    """Per-layer metrics of the traced loop, normalised per task.

    ``*_s`` are self times per task; counts are per task unless they are
    ratios or maxima.  Returns name -> value, with None for a metric whose
    spans are all missing.
    """
    selfs = self_times(spans)
    group = [GROUP_OF.get(s[NAME], s[NAME]) for s in spans]
    members = {}
    for i, g in enumerate(group):
        members.setdefault(g, []).append(i)

    def of(g, name=None):
        return [i for i in members.get(g, []) if name is None or spans[i][NAME] == name]

    def self_s(g):
        return sum(selfs[i] for i in of(g)) / n_tasks

    def outer(g):
        """Spans of group g with no ancestor in the same group."""
        out = []
        for i in of(g):
            p = spans[i][PARENT]
            while p is not None and group[p] != g:
                p = spans[p][PARENT]
            if p is None:
                out.append(i)
        return out

    def attr(i, key, default=0):
        return (spans[i][ATTRS] or {}).get(key, default)

    def attr_sum(idx, key):
        return sum(attr(i, key) for i in idx)

    def ratio(num, den):
        return num / den if den else 0.0

    tables = of("specfun.table")
    ids = set(of("greens.point", "greens.inverse_distance_series"))
    ids_misses = sum(1 for i in tables if spans[i][PARENT] in ids)
    roots = set(of("dispersion.root"))
    root_evals = sum(1 for i in of("dispersion.point", "dispersion.vdw_force")
                     if spans[i][PARENT] in roots)
    termed = [i for i in range(len(spans)) if attr(i, "table_terms")]
    assembled = [attr(i, "n") for i in of("bem.assembly", "bem.collocation_matrix")
                 if attr(i, "n")]
    factored = [attr(i, "n") for i in of("bem.lu") if attr(i, "n")]
    meshes = of("bem.assembly", "bem.build_mesh")
    final = {}
    for i in meshes:
        final[spans[i][TASK]] = max(final.get(spans[i][TASK], 0), attr(i, "mesh_n"))
    solves = of("bem.solve")
    task_total = sum(spans[i][END] - spans[i][START] for i in of("task")) * 1e-9

    m = {  # metric: (span group that feeds it, value)
        "specfun.tables": ("specfun.table", len(tables) / n_tasks),
        "specfun.table_s": ("specfun.table", self_s("specfun.table")),
        "specfun.table_terms": ("specfun.table", attr_sum(tables, "terms") / n_tasks),
        "specfun.p_tables": ("specfun.p", len(of("specfun.p")) / n_tasks),
        "specfun.p_s": ("specfun.p", self_s("specfun.p")),
        "specfun.terms_used_ratio": ("greens.point", ratio(
            attr_sum(termed, "n_used"), attr_sum(termed, "table_terms"))),
        "greens.evaluators": ("greens.evaluator", len(of("greens.evaluator")) / n_tasks),
        "greens.evaluator_s": ("greens.evaluator", self_s("greens.evaluator")),
        "greens.points": ("greens.point",
                          attr_sum(outer("greens.point"), "points") / n_tasks),
        "greens.point_s": ("greens.point", self_s("greens.point")),
        "greens.field_table_hit_ratio": ("greens.point",
                                         ratio(len(ids) - ids_misses, len(ids))),
        "dispersion.points": ("dispersion.point",
                              attr_sum(outer("dispersion.point"), "points") / n_tasks),
        "dispersion.point_s": ("dispersion.point", self_s("dispersion.point")),
        "dispersion.roots": ("dispersion.root", len(roots) / n_tasks),
        "dispersion.root_s": ("dispersion.root", self_s("dispersion.root")),
        "dispersion.root_force_evals": ("dispersion.root", ratio(root_evals, len(roots))),
        "dispersion.sweep_cells": ("dispersion.sweep",
                                   attr_sum(of("dispersion.sweep"), "cells") / n_tasks),
        "dispersion.sweep_s": ("dispersion.sweep", self_s("dispersion.sweep")),
        "bem.assembly_s": ("bem.assembly", self_s("bem.assembly")),
        "bem.kernel_evals": ("bem.assembly", sum(n * n for n in assembled) / n_tasks),
        "bem.matrix_mb": ("bem.assembly", max((n * n * 8e-6 for n in assembled),
                                              default=0.0)),
        "bem.lu_s": ("bem.lu", self_s("bem.lu")),
        "bem.lu_gflop": ("bem.lu", sum(2.0 * n**3 / 3.0 for n in factored) * 1e-9 / n_tasks),
        "bem.solve_s": ("bem.solve", self_s("bem.solve")),
        "bem.solves_per_lu": ("bem.solve", ratio(len(solves), len(factored))),
        "bem.eval_s": ("bem.eval", self_s("bem.eval")),
        "bem.panels_final": ("bem.assembly", sum(final.values()) / n_tasks),
        "bem.rungs": ("bem.assembly", len(meshes) / n_tasks),
        "bem.residual_max": ("bem.solve", max((attr(i, "residual", 0.0) for i in solves),
                                              default=0.0)),
        "validate.battery_s": ("validate.battery", self_s("validate.battery")),
        "validate.bem_check_s": ("validate.bem_check", self_s("validate.bem_check")),
        "geometry.calls": ("geometry", len(of("geometry")) / n_tasks),
        "geometry.s": ("geometry", self_s("geometry")),
        "cli.main_s": ("cli.main", self_s("cli.main")),
        "trace.unattributed_frac": ("task", ratio(self_s("task") * n_tasks, task_total)),
    }
    feeds = {}
    for name, (grp, _, _) in SPANS.items():
        feeds.setdefault(grp, []).append(status.get(name))
    return {key: None if grp in feeds and all(st == "missing" for st in feeds[grp])
            else value for key, (grp, value) in m.items()}
