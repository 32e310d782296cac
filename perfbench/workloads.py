"""The benchmark's three workloads: seeded inputs, the timed task, the check.

Each workload yields tasks in blocks from its seed, prepares a task off the
clock, runs it on the clock through torvdw's public functions only (looked
up on their modules at call time, so the traced run can wrap them), and
checks the result off the clock.  ``check`` returns a list of problems;
an empty list means the output is correct.

numpy and torvdw are imported inside the functions that need them: the
``cli`` workload's parent must stay small while its children run.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import random
import sys

import harness

HERE = os.path.dirname(os.path.abspath(__file__))


def _close(got, want, rtol, scale=None) -> bool:
    """|got - want| <= rtol * max(|want|, scale), elementwise, all finite."""
    import numpy as np

    got = np.asarray(got, dtype=float)
    want = np.asarray(want, dtype=float)
    if got.shape != want.shape or not np.all(np.isfinite(got)):
        return False
    ref = np.maximum(np.abs(want), 0.0 if scale is None else scale)
    return bool(np.all(np.abs(got - want) <= rtol * ref))


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


# ====================================================================== cli

#: One block is one cycle through the subcommands.
CLI_COMMANDS = ("geom", "potential-axis", "potential-plane", "charge-energy",
                "vdw", "sweep-ratio", "contour", "validate")
#: Value columns must equal the in-process library to this relative tolerance
#: of the column's largest magnitude.
CLI_RTOL = 1e-12


class Cli:
    """One task is one ``python -m torvdw.cli`` subprocess.

    Sizes follow scripts/make_figures.py: 401-point profiles (301 across
    the central disk), a 220-ratio sweep and a 64 x 81 contour.  The seed
    sets a, b, the ranges and CSV or JSON output.
    """

    name = "cli"
    modules = ("torvdw.cli",)
    in_process = False
    block_size = len(CLI_COMMANDS)
    block_seconds = 5.6

    def __init__(self):
        self.traced = False

    def blocks(self, seed, stream=0):
        rng = random.Random(f"{seed}/{stream}")
        k = 0
        while True:
            block = []
            for cmd in CLI_COMMANDS:
                block.append(self._task(rng, cmd, k))
                k += 1
            yield block

    @staticmethod
    def _task(rng, cmd, k):
        b = _log_uniform(rng, 0.5, 2.0)
        a = _log_uniform(rng, 1.25, 20.0) * b
        fmt = rng.choice(("csv", "json"))
        geo = ["--a", repr(a), "--b", repr(b)]
        half = rng.uniform(5.0, 25.0) * b
        span = [f"--zmin={-half!r}", f"--zmax={half!r}"]
        t = {"cmd": cmd, "a": a, "b": b, "fmt": fmt, "k": k, "half": half}
        if cmd == "geom":
            argv = ["geom", *geo]
        elif cmd == "potential-axis":
            t["source_z"] = rng.uniform(-2.0, 2.0) * b
            argv = ["potential", *geo, "--cut", "axis", f"--source-z={t['source_z']!r}",
                    *span, "--zpoints", "401"]
        elif cmd == "potential-plane":
            t["source_z"] = rng.uniform(-2.0, 2.0) * b
            argv = ["potential", *geo, "--cut", "plane",
                    f"--source-z={t['source_z']!r}", "--zpoints", "301"]
        elif cmd == "charge-energy":
            argv = ["charge-energy", *geo, *span, "--zpoints", "401"]
        elif cmd == "vdw":
            argv = ["vdw", *geo, "--quantity", "both", *span, "--zpoints", "401"]
        elif cmd == "sweep-ratio":
            t["zp"] = sorted(rng.uniform(0.2, 3.0) * b for _ in range(3))
            t["rmin"], t["rmax"] = rng.uniform(1.2, 2.0), rng.uniform(8.0, 15.0)
            argv = ["sweep-ratio", "--b", repr(b),
                    *[x for z in t["zp"] for x in ("--zp", repr(z))],
                    "--ratio-min", repr(t["rmin"]), "--ratio-max", repr(t["rmax"]),
                    "--ratio-points", "220"]
        elif cmd == "contour":
            t["rmin"], t["rmax"] = rng.uniform(1.2, 2.0), rng.uniform(8.0, 15.0)
            t["zhalf"] = zhalf = rng.uniform(3.0, 10.0)
            t["out"] = os.path.join(harness.WORK, f"contour-{k}.{fmt}")
            argv = ["contour", "--b", repr(b), "--ratio-min", repr(t["rmin"]),
                    "--ratio-max", repr(t["rmax"]), "--ratio-points", "64",
                    f"--zmin={-zhalf!r}", f"--zmax={zhalf!r}", "--zpoints", "81",
                    "--out", t["out"]]
        else:
            argv = ["validate"]
        if cmd not in ("geom", "validate"):
            argv += ["--format", fmt]
        t["argv"] = argv
        return t

    def prepare(self, task):
        return task

    def run(self, task):
        os.makedirs(harness.WORK, exist_ok=True)
        k = task["k"]
        out_path = os.path.join(harness.WORK, f"cli-{k}.out")
        err_path = os.path.join(harness.WORK, f"cli-{k}.err")
        spans_path = os.path.join(harness.WORK, f"cli-{k}.spans")
        if self.traced:
            argv = [sys.executable, os.path.join(HERE, "cli_child.py"), spans_path]
        else:
            argv = [sys.executable, "-m", "torvdw.cli"]
        with open(out_path, "w") as fo, open(err_path, "w") as fe:
            rc, _, rss = harness.spawn(argv + task["argv"], harness.WORK, fo, fe)
        res = {"rc": rc, "rss_mb": rss, "stdout": _pop(out_path),
               "stderr": _pop(err_path), "file": None}
        if task["cmd"] == "contour" and os.path.exists(task["out"]):
            res["file"] = _pop(task["out"])
            if os.path.exists(task["out"] + ".gp"):
                res["gnuplot"] = _pop(task["out"] + ".gp")
        if self.traced:
            res["spans_path"] = spans_path
        return res

    def check(self, task, res):
        problems = []
        if res["rc"] != 0:
            problems.append(f"exit code {res['rc']}")
        if res["stderr"].strip():
            problems.append(f"stderr: {res['stderr'].strip()[:200]}")
        if problems:
            return problems
        try:
            return getattr(self, "_check_" + task["cmd"].replace("-", "_"))(task, res)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            return [f"{task['cmd']}: unreadable output ({type(exc).__name__}: {exc})"]

    # -- per-command checks against the in-process library
    @staticmethod
    def _table(task, text, n_rows):
        """(columns, rows as float matrix) from CSV or JSON output."""
        import numpy as np

        if task["fmt"] == "json":
            payload = json.loads(text)
            columns, rows = payload["columns"], payload["rows"]
            if set(payload) != {"config", "columns", "rows", "diagnostics"}:
                raise ValueError(f"JSON keys {sorted(payload)}")
        else:
            lines = list(csv.reader(io.StringIO(text)))
            columns, rows = lines[0], lines[1:]
        if len(rows) != n_rows:
            raise ValueError(f"{len(rows)} rows, expected {n_rows}")
        return columns, np.array(rows, dtype=float)

    def _compare(self, task, res, n_rows, expected):
        """expected: column name -> expected values, in output order."""
        columns, data = self._table(task, res["stdout"], n_rows)
        if columns != list(expected):
            return [f"{task['cmd']}: columns {columns}, expected {list(expected)}"]
        bad = [name for j, (name, want) in enumerate(expected.items())
               if not _close(data[:, j], want, CLI_RTOL, scale=_abs_max(want))]
        return [f"{task['cmd']}: column {name} differs from the library" for name in bad]

    def _check_geom(self, task, res):
        from torvdw.geometry import toroid_from_radii

        geom = toroid_from_radii(task["a"], task["b"])
        vals = {}
        for line in res["stdout"].splitlines():
            key, sep, rest = line.partition("=")
            if sep:
                vals[key.strip()] = float(rest.split()[0])
        want = {"a": geom.a, "b": geom.b, "f": geom.f, "xi0": geom.xi0,
                "cosh xi0": geom.cosh_xi0}
        problems = [f"geom: {k} = {vals.get(k)}, expected {v!r}" for k, v in want.items()
                    if k not in vals or not math.isclose(vals[k], v, rel_tol=1e-11)]
        residuals = [float(line.split(":")[1]) for line in res["stdout"].splitlines()
                     if "residual" in line]
        if len(residuals) != 2 or max(residuals) > 1e-12:
            problems.append(f"geom: residual lines {residuals}")
        return problems

    def _check_potential(self, task, res, label, n, field_at):
        """V_H and V_H / |V_H(centre)| at the grid points, via the library."""
        import numpy as np
        from torvdw import greens
        from torvdw.geometry import ToroidalCoords, toroid_from_radii

        geom = toroid_from_radii(task["a"], task["b"])
        g = greens.axial_greens(geom)
        src = greens.axial_source(task["source_z"], geom)
        if label == "z_nm":
            x = _grid(task, n)
        else:
            x = np.linspace(0.0, (geom.a - geom.b) * (1.0 - 1e-9), n)
        vals = np.array([greens.vh_potential(field_at(geom, xx), src, g) for xx in x])
        ref = abs(greens.vh_potential(ToroidalCoords(0.0, math.pi), src, g))
        return self._compare(task, res, n, {label: x, "VH_V": vals, "VH_norm": vals / ref})

    def _check_potential_axis(self, task, res):
        from torvdw.geometry import ToroidalCoords

        return self._check_potential(
            task, res, "z_nm", 401,
            lambda geom, z: ToroidalCoords(0.0, 2.0 * math.atan2(geom.f, z)))

    def _check_potential_plane(self, task, res):
        from torvdw.geometry import ToroidalCoords

        # across the central disk: eta = pi and r = f tanh(xi / 2)
        return self._check_potential(
            task, res, "r_nm", 301,
            lambda geom, r: ToroidalCoords(2.0 * math.atanh(r / geom.f), math.pi))

    def _check_charge_energy(self, task, res):
        import numpy as np
        from torvdw import greens
        from torvdw.geometry import toroid_from_radii

        g = greens.axial_greens(toroid_from_radii(task["a"], task["b"]))
        z = _grid(task, 401)
        u = np.array([greens.charge_interaction_energy(zz, g) for zz in z])
        ref = abs(greens.charge_interaction_energy(0.0, g))
        return self._compare(task, res, 401, {"zprime_nm": z, "U_eV": u, "U_norm": u / ref})

    def _check_vdw(self, task, res):
        import numpy as np
        from torvdw import dispersion, greens
        from torvdw.geometry import toroid_from_radii

        g = greens.axial_greens(toroid_from_radii(task["a"], task["b"]))
        p = dispersion.particle_model(1.0)
        z = _grid(task, 401)
        u = dispersion.vdw_energy(z, p, g)
        force = dispersion.vdw_force(z, p, g)
        return self._compare(task, res, 401, {
            "zp_nm": z, "U_eV": u, "U_norm": u / abs(dispersion.vdw_energy(0.0, p, g)),
            "F_eV_per_nm": force, "F_norm": force / np.max(np.abs(force))})

    def _check_sweep_ratio(self, task, res):
        import numpy as np
        from torvdw import dispersion, greens
        from torvdw.geometry import toroid_from_radii

        b, p = task["b"], dispersion.particle_model(1.0)
        ratios = np.linspace(task["rmin"], task["rmax"], 220)
        table = np.array([dispersion.vdw_force(np.array(task["zp"]), p,
                                               greens.axial_greens(toroid_from_radii(r * b, b)))
                          for r in ratios])
        expected = {"a_over_b": ratios}
        for j, zp in enumerate(task["zp"]):
            expected[f"F_zp{zp:g}_eV_per_nm"] = table[:, j]
        return self._compare(task, res, 220, expected)

    def _check_contour(self, task, res):
        import numpy as np
        from torvdw import dispersion

        if res["file"] is None:
            return ["contour: no output file"]
        if task["fmt"] == "csv" and "splot" not in res.get("gnuplot", ""):
            return ["contour: no gnuplot script next to the CSV"]
        b = task["b"]
        ratios = np.linspace(task["rmin"], task["rmax"], 64)
        zhalf = task["zhalf"]
        zps = np.linspace(-zhalf, zhalf, 81)
        if task["fmt"] == "json":
            payload = json.loads(res["file"])
            head = payload["columns"][1:]
            rows = np.array(payload["rows"], dtype=float)
        else:
            lines = list(csv.reader(io.StringIO(res["file"])))
            if int(lines[0][0]) != 64:
                return [f"contour: matrix header says {lines[0][0]} columns"]
            head, rows = lines[0][1:], np.array(lines[1:], dtype=float)
        if rows.shape != (81, 65):
            return [f"contour: matrix shape {rows.shape}, expected (81, 65)"]
        want = dispersion.sweep_contour(ratios * b, zps * b, b,
                                        dispersion.particle_model(1.0)).force
        problems = []
        if not _close(np.array(head, dtype=float), ratios, 1e-15):
            problems.append("contour: a/b coordinates differ")
        if not _close(rows[:, 0], zps, 1e-15, scale=zhalf):
            problems.append("contour: z_p/b coordinates differ")
        if not _close(rows[:, 1:], want, CLI_RTOL, scale=_abs_max(want)):
            problems.append("contour: forces differ from sweep_contour")
        return problems

    def _check_validate(self, task, res):
        lines = res["stdout"].strip().splitlines()
        checks = [ln for ln in lines[:-1] if ln.strip()]
        problems = []
        if not lines or lines[-1].strip() != "validation: PASS":
            problems.append("validate: last line is not 'validation: PASS'")
        if len(checks) != 5 or not all(ln.startswith("PASS") for ln in checks):
            problems.append(f"validate: {len(checks)} check lines, not 5 PASS")
        return problems

    def output_bytes(self, res) -> int:
        return len(res["stdout"]) + len(res["file"] or "")

    @staticmethod
    def merge_spans(rec, outcomes) -> dict:
        """Move each traced child's spans under the task span that ran it.

        Interpreter start (task start to the child's first instruction) and
        exit (the child's last timestamp to the task's end) become
        ``import.interp`` spans.  Returns the children's bind-site status.
        """
        import tracing

        roots = {s[tracing.TASK]: i for i, s in enumerate(rec.spans)
                 if s[tracing.NAME] == "task"}
        status = {}
        for i, out in enumerate(outcomes):
            path = (out.result or {}).get("spans_path")
            if path is None or not os.path.exists(path):
                continue
            with open(path) as fh:
                child = json.load(fh)
            os.remove(path)
            root = roots[i]
            start, end = rec.spans[root][tracing.START], rec.spans[root][tracing.END]
            offset = len(rec.spans)
            for name, t0, t1, parent, _, attrs in child["spans"]:
                rec.spans.append([name, t0, t1, root if parent is None else offset + parent,
                                  i, attrs])
            for t0, t1 in ((start, child["t_start"]), (child["t_end"], end)):
                rec.spans.append(["import.interp", t0, t1, root, i, None])
            for name, st in child["status"].items():
                if status.get(name) != "ok":
                    status[name] = st
        return status


def _pop(path) -> str:
    """Read a child's output exactly as written (CSV lines end in CRLF)."""
    with open(path, newline="") as fh:
        text = fh.read()
    os.remove(path)
    return text


def _grid(task, n):
    import numpy as np

    return np.linspace(-task["half"], task["half"], n)


def _abs_max(x) -> float:
    import numpy as np

    return float(np.max(np.abs(x)))


# =================================================================== series

SWEEP_RATIOS = (1.05, 20.0, 160)     # geomspace
CONTOUR_SHAPE = (48, 21)             # a/b values x heights
SERIES_BLOCK = 8


class Series:
    """One task is one in-process shape study at a seeded b.

    A force sweep over 160 a/b values at 3 heights, critical_ratio at two
    of them, a 48 x 21 sweep_contour, and at one seeded a/b a 2001-point
    force profile, its force zero, V_H on 201 axis and 151 plane points,
    the charge energy at 201 heights, the surface residual and the
    inverse-distance expansion on 200 points that share cosh(xi) rows and
    on 200 distinct points.
    """

    name = "series"
    modules = ("torvdw", "torvdw.greens", "torvdw.dispersion")
    in_process = True
    block_size = SERIES_BLOCK
    block_seconds = 1.0

    def blocks(self, seed, stream=0):
        import numpy as np

        rng = np.random.default_rng([seed, stream])
        while True:
            bs = _stratified(rng, SERIES_BLOCK, 0.5, 2.0)
            ratios = _stratified(rng, SERIES_BLOCK, 1.05, 20.0)
            yield [self._task(rng, b, r) for b, r in zip(bs, ratios)]

    @staticmethod
    def _task(rng, b, ratio):
        rows = rng.uniform(0.15, 4.0, 10)
        cols = rng.uniform(-math.pi, math.pi, 20)
        return {
            "b": b, "ratio": ratio,
            "heights": sorted(rng.uniform(0.2, 3.0, 3) * b),
            "source_z": rng.uniform(-2.0, 2.0) * b,
            "shared": [(x, e) for x in rows for e in cols],
            "distinct": list(zip(rng.uniform(0.15, 4.0, 200),
                                 rng.uniform(-math.pi, math.pi, 200))),
        }

    def prepare(self, task):
        return task

    def run(self, t):
        import numpy as np
        from torvdw import dispersion as D
        from torvdw import geometry as G
        from torvdw import greens as S
        from torvdw.errors import NoSignChangeError

        p = D.particle_model(1.0)
        b = t["b"]
        heights = np.array(t["heights"])
        ratios = np.geomspace(*SWEEP_RATIOS)
        sweep = np.array([D.vdw_force(heights, p, S.axial_greens(G.toroid_from_radii(r * b, b)))
                          for r in ratios])
        critical = [D.critical_ratio(h, b, p) for h in t["heights"][:2]]
        c_ratios, c_heights = _contour_axes()
        contour = D.sweep_contour(c_ratios * b, c_heights * b, b, p)

        geom = G.toroid_from_radii(t["ratio"] * b, b)
        g = S.axial_greens(geom)
        a, f = geom.a, geom.f
        profile = D.force_profile(np.linspace(-3.0 * a, 3.0 * a, 2001), p, g)
        bracket = (0.01 * a, 3.0 * a)
        try:
            z_star = D.find_force_zero(p, g, bracket)
        except NoSignChangeError:
            z_star = None
        src = S.axial_source(t["source_z"], geom)
        axis = [S.vh_potential_info(G.ToroidalCoords(0.0, 2.0 * math.atan2(f, z)), src, g)
                for z in np.linspace(-20.0 * b, 20.0 * b, 201)]
        plane = [S.vh_potential_info(G.ToroidalCoords(2.0 * math.atanh(r / f), math.pi), src, g)
                 for r in np.linspace(0.0, (a - b) * (1.0 - 1e-9), 151)]
        energy = [S.charge_interaction_energy_info(z, g)
                  for z in np.linspace(-20.0 * b, 20.0 * b, 201)]
        residual = S.surface_residual(src, g)
        shared = [S.inverse_distance_series(G.ToroidalCoords(x, e), src, g)
                  for x, e in t["shared"]]
        distinct = [S.inverse_distance_series(G.ToroidalCoords(x, e), src, g)
                    for x, e in t["distinct"]]
        return {"sweep": sweep, "critical": critical, "contour": contour.force,
                "profile": profile, "bracket": bracket, "z_star": z_star,
                "axis": axis, "plane": plane, "energy": energy, "residual": residual,
                "shared": shared, "distinct": distinct, "table_terms": g.table.n_max + 1}

    def check(self, t, r):
        import numpy as np
        from torvdw import dispersion as D
        from torvdw import geometry as G
        from torvdw import greens as S

        problems = []
        p = D.particle_model(1.0)
        b = t["b"]
        geom = G.toroid_from_radii(t["ratio"] * b, b)
        g = S.axial_greens(geom)

        def force_at(ratio, z):
            return D.vdw_force(z, p, S.axial_greens(G.toroid_from_radii(ratio * b, b)))

        # The sweep's first sign change brackets each critical ratio, and the
        # forces just either side of the critical ratio have opposite signs.
        ratios = np.geomspace(*SWEEP_RATIOS)
        if not np.all(np.isfinite(r["sweep"])) or r["sweep"].shape != (ratios.size, 3):
            problems.append("sweep: bad shape or non-finite force")
        for j, cr in enumerate(r["critical"]):
            z = t["heights"][j]
            if not (force_at(cr * (1 - 1e-3), z) < 0.0 < force_at(cr * (1 + 1e-3), z)):
                problems.append(f"critical ratio {cr:.6g} at z = {z:.4g} is not a sign change")
            pos = np.nonzero(r["sweep"][:, j] > 0.0)[0]
            if pos.size == 0 or not (ratios[pos[0] - 1] * (1 - 2e-4) <= cr
                                     <= ratios[pos[0]] * (1 + 2e-4)):
                problems.append(f"sweep sign change does not bracket critical ratio {cr:.6g}")

        # Every sweep_contour cell equals vdw_force at that cell.
        c_ratios, c_heights = _contour_axes()
        contour = r["contour"]
        want = np.column_stack([force_at(cr, c_heights * b) for cr in c_ratios])
        if not _close(contour, want, 1e-12, scale=np.max(np.abs(want), axis=0) * 1e-6):
            problems.append("sweep_contour differs from array vdw_force")
        pick = np.random.default_rng(0).integers(0, contour.size, 8)
        for i, j in zip(*np.unravel_index(pick, contour.shape)):
            if not _close(contour[i, j], force_at(c_ratios[j], float(c_heights[i] * b)),
                          1e-12, scale=_abs_max(want[:, j])):
                problems.append(f"sweep_contour cell ({i}, {j}) differs from scalar vdw_force")

        # U < 0 and even, F odd, F = -dU/dz.
        prof = r["profile"]
        u, force, z = prof.energy, prof.force, prof.z_p
        f_scale = _abs_max(force)
        if not (np.all(u < 0.0) and _close(u, u[::-1], 1e-10)):
            problems.append("profile: U is not negative and even")
        if not _close(force, -force[::-1], 1e-10, scale=f_scale):
            problems.append("profile: F is not odd")

        def central(zk, h):
            return -(D.vdw_energy(zk + h, p, g) - D.vdw_energy(zk - h, p, g)) / (2 * h)

        h = 1e-4 * geom.f
        for k in np.linspace(0, z.size - 1, 12).astype(int):
            if abs(z[k]) < 0.05 * geom.f or abs(force[k]) < 1e-3 * f_scale:
                continue
            # Richardson-extrapolated, so the stencil's own h^2 error stays
            # far below the tolerance even where F is small.
            fd = (4.0 * central(z[k], 0.5 * h) - central(z[k], h)) / 3.0
            if abs(fd - force[k]) > 1e-6 * abs(force[k]):
                problems.append(f"profile: F differs from -dU/dz at z = {z[k]:.4g}")

        # F(z*) = 0 with a sign change, or no sign change over the bracket.
        lo, hi = r["bracket"]
        f_lo, f_hi = D.vdw_force(lo, p, g), D.vdw_force(hi, p, g)
        zs = r["z_star"]
        if zs is None:
            if (f_lo > 0) != (f_hi > 0):
                problems.append("find_force_zero missed a sign change")
        elif not (lo < zs < hi and abs(D.vdw_force(zs, p, g)) <= 1e-8 * max(abs(f_lo), abs(f_hi))
                  and (D.vdw_force(zs * (1 - 1e-4), p, g) > 0)
                  != (D.vdw_force(zs * (1 + 1e-4), p, g) > 0)):
            problems.append(f"z* = {zs!r} is not a force zero with a sign change")

        # Induced potential and energy: negative, finite, within the table.
        for label in ("axis", "plane", "energy"):
            infos = r[label]
            if not all(math.isfinite(i.value) and i.value < 0.0
                       and 0 <= i.n_used < r["table_terms"] for i in infos):
                problems.append(f"{label}: value not finite and negative, or n_used out of range")
        if not r["residual"] <= 1e-8:
            problems.append(f"surface residual {r['residual']:.2e} > 1e-8")

        # Inverse-distance expansion against the cartesian distance.
        src_z = t["source_z"]
        for label in ("shared", "distinct"):
            for (x, e), v in zip(t[label], r[label]):
                px, _, pz = G.toroidal_to_cartesian(G.ToroidalCoords(x, e), geom.f)
                direct = 1.0 / math.hypot(px, pz - src_z)
                if not abs(v - direct) <= 1e-10 * direct:
                    problems.append(f"inverse_distance_series off by "
                                    f"{abs(v - direct) / direct:.1e} ({label})")
                    break
        return problems


    def summary(self, t, r):
        return None


def _contour_axes():
    import numpy as np

    n_ratio, n_z = CONTOUR_SHAPE
    return np.geomspace(1.05, 20.0, n_ratio), np.linspace(-3.0, 3.0, n_z)


def _stratified(rng, n, lo, hi):
    """n log-uniform draws in [lo, hi], one per equal stratum, shuffled."""
    edges = [math.log(lo) + (math.log(hi) - math.log(lo)) * k / n for k in range(n + 1)]
    draws = [math.exp(rng.uniform(edges[k], edges[k + 1])) for k in range(n)]
    return [draws[i] for i in rng.permutation(n)]


# =================================================================== oracle

ORACLE_TARGET = 1e-4          # worst relative V_H error the ladder must reach
ORACLE_PANELS = (100, 3200)   # first rung and cap; each rung doubles
MIXED_PANELS = 400
MIXED_RTOL = 1e-2             # the acceptance gate for the BEM mixed derivative
ORACLE_BLOCK = 12
ORACLE_DESIGN_SEED = 20180720
ORACLE_JITTER = 0.01


class Oracle:
    """One task is one shape solved by BEM to a stated accuracy.

    a/b in [1.25, 20], b in [0.5, 2] nm, the source at z'/b in [-2, 2], 20
    exterior probes at least 1.3 b from the tube's centre circle and within
    2.5 a.  The task doubles the panels from 100 until the worst V_H error
    against the series is at most 1e-4 (the cap is 3200), then computes one
    BEM mixed derivative at 400 panels.

    The panel rung a shape needs, and so its time, varies 100-fold and
    depends on the probes as much as on a/b.  Fully random shapes would let
    a run's mix of rungs, and every timing, swing with the seed.  The tasks
    therefore come from a fixed stratified design of 12 shapes; the seed
    shuffles each block and jitters every input by about 1%.
    """

    name = "oracle"
    modules = ("torvdw", "torvdw.bem", "torvdw.dispersion")
    in_process = True
    block_size = ORACLE_BLOCK
    block_seconds = 3.4

    @staticmethod
    def design():
        import numpy as np

        rng = np.random.default_rng(ORACLE_DESIGN_SEED)
        ratios = _stratified(rng, ORACLE_BLOCK, 1.25, 20.0)
        bs = _stratified(rng, ORACLE_BLOCK, 0.5, 2.0)
        out = []
        for ratio, b in zip(ratios, bs):
            task = {"ratio": ratio, "b": b, "src": rng.uniform(-2.0, 2.0),
                    "mixed": rng.uniform(0.2, 3.0)}
            task["probes"] = _probes(rng, ratio * b, b, [])
            out.append(task)
        return out

    def blocks(self, seed, stream=0):
        import numpy as np

        rng = np.random.default_rng([seed, stream])
        base = self.design()
        while True:
            yield [self._jitter(rng, base[i]) for i in rng.permutation(ORACLE_BLOCK)]

    @staticmethod
    def _jitter(rng, t):
        j = ORACLE_JITTER
        ratio = t["ratio"] * math.exp(rng.uniform(-j, j))
        b = t["b"] * math.exp(rng.uniform(-j, j))
        moved = [(u + rng.uniform(-j, j) / 5, v + rng.uniform(-j, j) / 5)
                 for u, v in t["probes"]]
        return {"ratio": ratio, "b": b, "src": t["src"] + rng.uniform(-j, j),
                "mixed": t["mixed"] + rng.uniform(-j, j),
                "probes": _probes(rng, ratio * b, b, moved)}

    def prepare(self, t):
        from torvdw import dispersion, greens
        from torvdw.geometry import cartesian_to_toroidal, toroid_from_radii

        b = t["b"]
        geom = toroid_from_radii(t["ratio"] * b, b)
        g = greens.axial_greens(geom)
        src = greens.axial_source(t["src"] * b, geom)
        probes = [(u * geom.a, v * geom.a) for u, v in t["probes"]]
        ref = [greens.vh_potential(cartesian_to_toroidal(r, 0.0, z, geom.f), src, g)
               for r, z in probes]
        zm = t["mixed"] * b
        return {"geom": geom, "src": src, "probes": probes, "ref": ref, "z_mixed": zm,
                "mixed_ref": dispersion.gh_mixed_derivative(zm, zm, g)}

    def run(self, prep):
        from torvdw import bem

        geom, src = prep["geom"], prep["src"]
        n, cap = ORACLE_PANELS
        rungs = []
        while True:
            sol = bem.solve_induced_density(bem.build_mesh(geom, n), src)
            err = max(abs(bem.bem_vh(r, z, sol) - v) / abs(v)
                      for (r, z), v in zip(prep["probes"], prep["ref"]))
            rungs.append((n, err))
            if err <= ORACLE_TARGET or n >= cap:
                break
            n *= 2
        zm = prep["z_mixed"]
        mixed = bem.bem_mixed_derivative(zm, zm, geom, MIXED_PANELS)
        return {"rungs": rungs, "mixed": mixed}

    def summary(self, prep, res):
        return res

    @staticmethod
    def errors(prep, res):
        """(V_H error at the final rung, mixed-derivative error)."""
        ref = prep["mixed_ref"]
        return res["rungs"][-1][1], abs(res["mixed"] - ref) / abs(ref)

    def check(self, prep, res):
        vh_err, mixed_err = self.errors(prep, res)
        problems = []
        if not vh_err <= ORACLE_TARGET:
            problems.append(f"V_H error {vh_err:.2e} above {ORACLE_TARGET:g} "
                            f"at the {res['rungs'][-1][0]}-panel cap")
        if not mixed_err <= MIXED_RTOL:
            problems.append(f"mixed derivative error {mixed_err:.2e} above {MIXED_RTOL:g}")
        return problems


def _probes(rng, a, b, seeds):
    """20 probe points as (r/a, z/a): each at least 1.3 b from the centre
    circle and inside the 2.5 a box.  Seeds that qualify are kept; the rest
    are drawn afresh."""
    out = []
    for u, v in list(seeds) + [(None, None)] * 20:
        if len(out) == 20:
            break
        while True:
            if u is None:
                u, v = rng.uniform(0.0, 2.5), rng.uniform(-2.5, 2.5)
            if 0.0 <= u <= 2.5 and abs(v) <= 2.5 and math.hypot(u * a - a, v * a) >= 1.3 * b:
                break
            u = v = None
        out.append((u, v))
    return out


#: Fixed, seed-independent oracle cases behind ``oracle_rel_err``:
#: (a/b, b, z'/b, z/b of the mixed derivative), probes from a fixed seed.
ORACLE_PANEL = ((2.0, 1.0, 0.5, 1.0), (5.0, 1.0, -1.0, 0.5), (12.0, 0.8, 1.5, 2.0))


def oracle_rel_err():
    """Worst BEM-vs-series disagreement over the fixed oracle panel.

    Returns (worst, worst V_H part, worst mixed part, problems).
    """
    import numpy as np

    oracle = Oracle()
    rng = np.random.default_rng(ORACLE_DESIGN_SEED + 1)
    vh_worst = mixed_worst = 0.0
    problems = []
    for ratio, b, src, mixed in ORACLE_PANEL:
        task = {"ratio": ratio, "b": b, "src": src, "mixed": mixed,
                "probes": _probes(rng, ratio * b, b, [])}
        prep = oracle.prepare(task)
        res = oracle.run(prep)
        problems += oracle.check(prep, res)
        vh, mx = oracle.errors(prep, res)
        vh_worst, mixed_worst = max(vh_worst, vh), max(mixed_worst, mx)
    return max(vh_worst, mixed_worst), vh_worst, mixed_worst, problems


# ================================================================== referee

REFEREE_PANEL = os.path.join(HERE, "referee_panel.json")
#: series_rel_err is reported no lower than the series' own relative
#: tolerance: below it, differences are rounding, not accuracy.
SERIES_FLOOR = 1e-12
#: A deviation above this fails the run's correctness check.
SERIES_GATE = 1e-9


def series_rel_err():
    """Worst relative deviation of U, F and V_H from the referee panel.

    Returns (reported value, raw worst, problems).  Values in the panel are
    reduced: U and F per <d_z^2> K_E, V_H per K_E q.
    """
    from torvdw import dispersion, greens
    from torvdw.geometry import ToroidalCoords, toroid_from_radii
    from torvdw.units import K_E_EV_NM

    with open(REFEREE_PANEL) as fh:
        panel = json.load(fh)
    p = dispersion.particle_model(1.0)
    worst = 0.0
    for case in panel["cases"]:
        geom = toroid_from_radii(case["a"], case["b"])
        g = greens.axial_greens(geom)
        if case["quantity"] == "U":
            got = dispersion.vdw_energy(case["z"], p, g) / K_E_EV_NM
        elif case["quantity"] == "F":
            got = dispersion.vdw_force(case["z"], p, g) / K_E_EV_NM
        else:
            src = greens.axial_source(case["source_z"], geom)
            field = ToroidalCoords(case["xi"], case["eta"])
            got = greens.vh_potential(field, src, g) / K_E_EV_NM
        want = float(case["value"])
        worst = max(worst, abs(got - want) / abs(want))
    problems = [] if worst <= SERIES_GATE else [
        f"series deviates {worst:.2e} from the referee panel (gate {SERIES_GATE:g})"]
    return max(worst, SERIES_FLOOR), worst, problems


WORKLOADS = {w.name: w for w in (Cli, Series, Oracle)}
