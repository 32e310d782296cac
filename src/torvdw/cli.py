"""Command-line front end.

Subcommands: geom, potential, charge-energy, vdw, sweep-ratio, contour,
validate.  Tables go to stdout or --out as RFC-4180 CSV (or JSON with the
fixed schema {config, columns, rows, diagnostics}); plot-producing
commands written to a file also emit a gnuplot script next to it.

Exit codes: 0 success, 1 validation failure, 2 configuration error,
3 numerical (truncation) failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys

import numpy as np

from . import __version__
from .dispersion import (
    critical_ratio,
    force_profile,
    particle_model,
    sweep_contour,
)
from .errors import RangeExceededError, TruncationError
from .geometry import ToroidalCoords, surface_rz, toroid_from_radii
from .greens import (
    axial_greens,
    axial_source,
    charge_interaction_energy,
    charge_interaction_energy_info,
    vh_potential_info,
)
from .units import D2Z_UNIT_FACTORS

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


def _check(args, *grid_counts) -> None:
    """Refuse the settings the library does not bound itself: the series
    tolerance and term cap, and the size of each grid."""
    if not 0.0 < args.tol <= 1e-4:
        raise ValueError(f"--tol must lie in (0, 1e-4], got {args.tol}")
    if args.ncap < 8:
        raise ValueError(f"--ncap must be at least 8, got {args.ncap}")
    for count in grid_counts:
        if not 2 <= count <= 100000:
            raise ValueError(f"grids need 2 to 100000 points, got {count}")


def _add_common(p: argparse.ArgumentParser, geometry: bool = True) -> None:
    if geometry:
        p.add_argument("--a", type=float, required=True, help="center-circle radius (nm)")
    p.add_argument("--b", type=float, required=True, help="tube radius (nm)")
    p.add_argument("--tol", type=float, default=1e-12, help="series truncation tolerance")
    p.add_argument("--ncap", type=int, default=2000, help="series term cap")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument(
        "--normalize",
        action=argparse.BooleanOptionalAction,
        default=True,
        help="emit normalized columns alongside raw values",
    )
    p.add_argument("--out", type=str, default=None, help="output path (default stdout)")


def _add_zgrid(p: argparse.ArgumentParser, zmin: float, zmax: float, n: int) -> None:
    p.add_argument("--zmin", type=float, default=zmin)
    p.add_argument("--zmax", type=float, default=zmax)
    p.add_argument("--zpoints", type=int, default=n)


def _add_particle(p: argparse.ArgumentParser) -> None:
    p.add_argument("--d2z", type=float, default=1.0, help="squared axial dipole fluctuation")
    p.add_argument("--d2z-unit", choices=sorted(D2Z_UNIT_FACTORS), default="e2nm2")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="torvdw",
        description="Grounded-toroid electrostatics and axial van der Waals forces",
    )
    ap.add_argument("--version", action="version", version=f"torvdw {__version__}")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("geom", help="derived geometry report")
    _add_common(p)

    p = sub.add_parser("potential", help="induced-charge potential profile")
    _add_common(p)
    _add_zgrid(p, -20.0, 20.0, 201)
    p.add_argument("--source-z", type=float, default=0.0, help="source height (nm)")
    p.add_argument("--cut", choices=("axis", "plane"), default="axis")

    p = sub.add_parser("charge-energy", help="charge / induced-charge energy profile")
    _add_common(p)
    _add_zgrid(p, -20.0, 20.0, 201)
    p.add_argument("--charge", type=float, default=1.0, help="source charge (e)")

    p = sub.add_parser("vdw", help="dispersion energy / force profile")
    _add_common(p)
    _add_zgrid(p, -10.0, 10.0, 201)
    _add_particle(p)
    p.add_argument("--quantity", choices=("energy", "force", "both"), default="both")

    p = sub.add_parser("sweep-ratio", help="force vs a/b at fixed heights")
    _add_common(p, geometry=False)
    _add_particle(p)
    p.add_argument("--zp", type=float, action="append", default=None,
                   help="particle height (nm); repeatable (default 1 2 3)")
    p.add_argument("--ratio-min", type=float, default=1.5)
    p.add_argument("--ratio-max", type=float, default=10.0)
    p.add_argument("--ratio-points", type=int, default=96)

    p = sub.add_parser("contour", help="force over the (a/b, z_p/b) grid")
    _add_common(p, geometry=False)
    _add_particle(p)
    p.add_argument("--ratio-min", type=float, default=1.5)
    p.add_argument("--ratio-max", type=float, default=10.0)
    p.add_argument("--ratio-points", type=int, default=48)
    _add_zgrid(p, 0.0, 10.0, 49)

    p = sub.add_parser("validate", help="run the full cross-check battery")
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--ncap", type=int, default=2000)

    return ap


def _emit_table(args, columns, rows, diagnostics, gnuplot_cols=None):
    """Write a table as CSV or JSON to --out (or stdout), plus a gnuplot
    script referencing the CSV by relative path when writing to a file;
    it plots the 1-based columns gnuplot_cols against column 1."""
    if args.format == "json":
        payload = {"config": _config_echo(args), "columns": columns, "rows": rows,
                   "diagnostics": diagnostics}
        text = json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"
    else:
        buf = io.StringIO()
        w = csv.writer(buf)  # RFC-4180: CRLF line endings
        w.writerow(columns)
        w.writerows([[_fmt(v) for v in row] for row in rows])
        text = buf.getvalue()

    if args.out is None:
        sys.stdout.write(text)
        return
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    if args.format == "csv" and gnuplot_cols:
        base = os.path.basename(args.out)
        plots = [f"'{base}' using 1:{k} with lines" for k in gnuplot_cols]
        _write_script(args.out, "set key autotitle columnhead", "set grid",
                      f"set xlabel '{columns[0]}'", "plot " + ", \\\n     ".join(plots))


def _write_script(path: str, *lines: str) -> None:
    """Write the gnuplot script path.gp for the comma-separated file path."""
    with open(path + ".gp", "w") as fh:
        fh.write("\n".join(["set datafile separator ','", *lines]) + "\n")


def _config_echo(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_")}
    cfg["version"] = __version__
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"grid limits must be finite, got {lo} and {hi}")
    return np.linspace(lo, hi, n)


def _emit_profile(args, columns, grid, info, ref, ref_key) -> int:
    """Write a one-quantity profile: the grid, the values and, unless
    --no-normalize, values / ref; the diagnostics carry the per-point
    series term counts and ref under ref_key."""
    cols_data = [grid, info.value] + ([info.value / ref] if args.normalize else [])
    columns = columns[:len(cols_data)]
    rows = [[float(v) for v in row] for row in zip(*cols_data)]
    diagnostics = {"n_used": [int(n) for n in info.n_used], ref_key: ref}
    _emit_table(args, columns, rows, diagnostics, gnuplot_cols=[len(columns)])
    return EXIT_OK


def cmd_geom(args) -> int:
    _check(args)
    geom = toroid_from_radii(args.a, args.b)
    etas = np.linspace(-math.pi, math.pi, 181)[1:]
    r, z = surface_rz(geom, etas)
    surf = np.abs((r - geom.a) ** 2 + z**2 - geom.b**2) / geom.b**2
    # spherical-calotte identity at eta0 = pi/2:
    # (z - f cot eta0)^2 + r^2 = (f / sin eta0)^2
    eta0 = 0.5 * math.pi
    xis = np.linspace(0.05, 4.0, 80)
    rc = geom.f * np.sinh(xis) / (np.cosh(xis) - math.cos(eta0))
    zc = geom.f * math.sin(eta0) / (np.cosh(xis) - math.cos(eta0))
    cal = np.abs((zc - geom.f / math.tan(eta0)) ** 2 + rc**2
                 - (geom.f / math.sin(eta0)) ** 2) / geom.f**2
    print(f"a         = {geom.a:.12g} nm")
    print(f"b         = {geom.b:.12g} nm")
    print(f"f         = {geom.f:.12g} nm")
    print(f"xi0       = {geom.xi0:.12g}")
    print(f"cosh xi0  = {geom.cosh_xi0:.12g}")
    print(f"surface-equation residual (max over eta): {surf.max():.3e}")
    print(f"calotte-equation residual (max over xi):  {cal.max():.3e}")
    return EXIT_OK


def cmd_potential(args) -> int:
    _check(args, args.zpoints)
    geom = toroid_from_radii(args.a, args.b)
    g = axial_greens(geom, rel_tol=args.tol, n_cap=args.ncap)
    src = axial_source(args.source_z, geom)

    if args.cut == "axis":
        grid = _grid(args.zmin, args.zmax, args.zpoints)
        # eta = 2 arccot(z / f), kept in (-pi, 0] below the midplane: near
        # 2 pi the prefactor's 2 sin^2(eta / 2) would cancel
        etas = [math.copysign(2.0 * math.atan2(geom.f, abs(zz)), zz) for zz in grid]
        fields = [ToroidalCoords(xi=0.0, eta=eta) for eta in etas]
        label = "z_nm"
    else:
        r_max = (geom.a - geom.b) * (1.0 - 1e-9)
        grid = np.linspace(0.0, r_max, args.zpoints)
        # on the central disk eta = pi, r = f tanh(xi / 2)
        fields = [
            ToroidalCoords(xi=2.0 * math.atanh(rr / geom.f), eta=math.pi)
            for rr in grid
        ]
        label = "r_nm"

    info = vh_potential_info(fields, src, g)
    ref = abs(vh_potential_info(ToroidalCoords(xi=0.0, eta=math.pi), src, g).value)
    return _emit_profile(args, [label, "VH_V", "VH_norm"], grid, info, ref,
                         "normalization_V")


def cmd_charge_energy(args) -> int:
    _check(args, args.zpoints)
    geom = toroid_from_radii(args.a, args.b)
    g = axial_greens(geom, rel_tol=args.tol, n_cap=args.ncap)
    grid = _grid(args.zmin, args.zmax, args.zpoints)
    info = charge_interaction_energy_info(grid, g, charge=args.charge)
    ref = abs(charge_interaction_energy(0.0, g, charge=args.charge))
    return _emit_profile(args, ["zprime_nm", "U_eV", "U_norm"], grid, info, ref,
                         "normalization_eV")


def cmd_vdw(args) -> int:
    _check(args, args.zpoints)
    geom = toroid_from_radii(args.a, args.b)
    g = axial_greens(geom, rel_tol=args.tol, n_cap=args.ncap)
    p = particle_model(args.d2z, unit=args.d2z_unit)
    grid = _grid(args.zmin, args.zmax, args.zpoints)
    prof = force_profile(grid, p, g)

    columns = ["zp_nm"]
    cols_data = [grid]
    if args.quantity in ("energy", "both"):
        columns.append("U_eV")
        cols_data.append(prof.energy)
        if args.normalize:
            columns.append("U_norm")
            cols_data.append(prof.energy / prof.energy_scale)
    if args.quantity in ("force", "both"):
        columns.append("F_eV_per_nm")
        cols_data.append(prof.force)
        if args.normalize:
            columns.append("F_norm")
            scale = prof.force_scale if prof.force_scale > 0.0 else 1.0
            cols_data.append(prof.force / scale)
    rows = [[float(col[i]) for col in cols_data] for i in range(grid.size)]
    diagnostics = {
        "n_used": [int(n) for n in prof.n_used],
        "energy_scale_eV": prof.energy_scale,
        "force_scale_eV_per_nm": prof.force_scale,
        "series_terms_available": int(g.table.n_max + 1),
    }
    _emit_table(args, columns, rows, diagnostics,
                gnuplot_cols=list(range(2, len(columns) + 1)))
    return EXIT_OK


def cmd_sweep_ratio(args) -> int:
    _check(args, args.ratio_points)
    zp_list = args.zp if args.zp else [1.0, 2.0, 3.0]
    if any(z <= 0.0 for z in zp_list):
        raise ValueError("--zp heights must be positive")
    if args.ratio_min <= 1.0 or args.ratio_max <= args.ratio_min:
        raise ValueError("need 1 < ratio-min < ratio-max")
    ratios = _grid(args.ratio_min, args.ratio_max, args.ratio_points)
    p = particle_model(args.d2z, unit=args.d2z_unit)

    series = {"rel_tol": args.tol, "n_cap": args.ncap}
    table = sweep_contour(ratios * args.b, zp_list, args.b, p, **series).force.T
    columns = ["a_over_b"] + [f"F_zp{zp:g}_eV_per_nm" for zp in zp_list]
    rows = [[float(v) for v in row] for row in np.column_stack([ratios, table])]
    crossings = {}
    for zp in zp_list:
        try:
            crossings[f"zp={zp:g}"] = critical_ratio(
                zp, args.b, p, (args.ratio_min, args.ratio_max), **series)
        except RangeExceededError:
            crossings[f"zp={zp:g}"] = None
    _emit_table(args, columns, rows, {"zero_crossings_a_over_b": crossings},
                gnuplot_cols=list(range(2, len(columns) + 1)))
    return EXIT_OK


def cmd_contour(args) -> int:
    _check(args, args.ratio_points, args.zpoints)
    if args.ratio_min <= 1.0 or args.ratio_max <= args.ratio_min:
        raise ValueError("need 1 < ratio-min < ratio-max")
    if args.out is None:
        raise ValueError("contour requires --out (matrix plus gnuplot script)")
    ratios = _grid(args.ratio_min, args.ratio_max, args.ratio_points)
    zps = _grid(args.zmin, args.zmax, args.zpoints)
    p = particle_model(args.d2z, unit=args.d2z_unit)
    grid = sweep_contour(ratios * args.b, zps * args.b, args.b, p,
                         rel_tol=args.tol, n_cap=args.ncap)

    if args.format == "json":
        # a failed cell's NaN is written as null: JSON has no NaN
        rows = [[float(z)] + [None if math.isnan(v) else v for v in row]
                for z, row in zip(zps, grid.force.tolist())]
        _emit_table(args, ["zp_over_b"] + [float(r) for r in ratios], rows,
                    {"failed_cells": list(grid.diagnostics)})
        return EXIT_OK

    # gnuplot "nonuniform matrix": first row is <N> then the column coords
    with open(args.out, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow([ratios.size] + [_fmt(r) for r in ratios])
        for i in range(zps.size):
            w.writerow([_fmt(zps[i])] + [_fmt(v) for v in grid.force[i]])
    _write_script(args.out, "set view map", "set xlabel 'a/b'", "set ylabel 'z_p/b'",
                  "set cblabel 'F_z (eV/nm)'",
                  f"splot '{os.path.basename(args.out)}' nonuniform matrix with pm3d notitle")
    if grid.diagnostics:
        print(f"warning: {len(grid.diagnostics)} cells failed to converge",
              file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    # Imported here: only the battery needs the BEM oracle, so the other
    # commands never load it.
    from .validate import run_battery

    _check(args)
    results = run_battery(rel_tol=args.tol, n_cap=args.ncap)
    width = max(len(r.name) for r in results)
    all_ok = True
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        all_ok &= r.passed
        print(f"{status}  {r.name:<{width}}  {r.value:.3e} vs {r.threshold:.0e}  ({r.detail})")
    print("validation:", "PASS" if all_ok else "FAIL")
    return EXIT_OK if all_ok else EXIT_VALIDATION


_COMMANDS = {
    "geom": cmd_geom,
    "potential": cmd_potential,
    "charge-energy": cmd_charge_energy,
    "vdw": cmd_vdw,
    "sweep-ratio": cmd_sweep_ratio,
    "contour": cmd_contour,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except TruncationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
