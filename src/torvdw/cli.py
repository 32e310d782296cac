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
import warnings

import numpy as np

from . import __version__
from .dispersion import (
    critical_ratio,
    force_profile,
    particle_model,
    sweep_contour,
)
from .errors import RangeExceededError, TruncationError
from .geometry import (ToroidalCoords, cartesian_to_toroidal, surface_rz, toroid_from_radii,
                       toroidal_to_cartesian)
from .greens import (
    N_CAP,
    REL_TOL,
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

#: Cells of the largest grid (a contour's force matrix is 8 MB there).
MAX_CELLS = 10**6


def _check(args, *grid_counts) -> None:
    """Refuse the settings the library does not bound itself: a series
    tolerance above 1e-4, and the size of each grid and of their product."""
    if not 0.0 < args.tol <= 1e-4:
        raise ValueError(f"--tol must lie in (0, 1e-4], got {args.tol}")
    for count in grid_counts:
        if not 2 <= count <= 100000:
            raise ValueError(f"grids need 2 to 100000 points, got {count}")
    if math.prod(grid_counts) > MAX_CELLS:
        raise ValueError(f"a grid of {' x '.join(map(str, grid_counts))} = "
                         f"{math.prod(grid_counts)} cells exceeds {MAX_CELLS}")


def _add_common(p: argparse.ArgumentParser, a: bool = True, table: bool = True,
                normalize: bool = True) -> None:
    """The radii and, for a command that writes a table, its options."""
    if a:
        p.add_argument("--a", type=float, required=True, help="center-circle radius (nm)")
    p.add_argument("--b", type=float, required=True, help="tube radius (nm)")
    if not table:
        return
    p.add_argument("--tol", type=float, default=REL_TOL, help="series truncation tolerance")
    p.add_argument("--ncap", type=int, default=N_CAP, help="series term cap")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    if normalize:
        p.add_argument("--normalize", action=argparse.BooleanOptionalAction, default=True,
                       help="emit normalized columns alongside raw values")
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
    _add_common(p, table=False)

    p = sub.add_parser("potential", help="induced-charge potential profile")
    _add_common(p)
    _add_zgrid(p, -20.0, 20.0, 201)
    p.add_argument("--source-z", type=float, default=0.0, help="source height (nm)")
    p.add_argument("--cut", choices=("axis", "plane"), default="axis",
                   help="plane: r in [0, (a - b)(1 - 1e-9)]; ignores --zmin/--zmax")

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
    _add_common(p, a=False, normalize=False)
    _add_particle(p)
    p.add_argument("--zp", type=float, action="append", default=None,
                   help="particle height (nm); repeatable (default 1 2 3)")
    p.add_argument("--ratio-min", type=float, default=1.5)
    p.add_argument("--ratio-max", type=float, default=10.0)
    p.add_argument("--ratio-points", type=int, default=96)

    p = sub.add_parser("contour", help="force over the (a/b, z_p/b) grid")
    _add_common(p, a=False, normalize=False)
    _add_particle(p)
    p.add_argument("--ratio-min", type=float, default=1.5)
    p.add_argument("--ratio-max", type=float, default=10.0)
    p.add_argument("--ratio-points", type=int, default=48)
    _add_zgrid(p, 0.0, 10.0, 49)

    sub.add_parser("validate", help="run the full cross-check battery")

    return ap


def _emit_table(args, columns, rows, diagnostics, script) -> int:
    """Write a table as CSV or JSON to --out (or stdout).  A CSV file also
    gets FILE.gp, the gnuplot script of the lines script, in which {data}
    stands for the quoted name of the CSV file, relative to the script."""
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
        return EXIT_OK
    with open(args.out, "w", newline="") as fh:
        fh.write(text)
    if args.format == "csv":
        lines = "\n".join(["set datafile separator ','", *script]) + "\n"
        with open(args.out + ".gp", "w") as fh:
            fh.write(lines.format(data=f"'{os.path.basename(args.out)}'"))
    return EXIT_OK


def _plot(columns, plotted) -> list:
    """gnuplot lines plotting the 1-based columns plotted against column 1."""
    plots = [f"{{data}} using 1:{k} with lines" for k in plotted]
    return ["set key autotitle columnhead", "set grid", f"set xlabel '{columns[0]}'",
            "plot " + ", \\\n     ".join(plots)]


def _config_echo(args) -> dict:
    cfg = {k: v for k, v in sorted(vars(args).items()) if not k.startswith("_")}
    cfg["version"] = __version__
    return cfg


def _fmt(x: float) -> str:
    return repr(float(x))


def _grid(lo: float, hi: float, n: int) -> np.ndarray:
    if not math.isfinite(hi - lo):  # also when the span overflows
        raise ValueError(f"grid limits must be finite with a finite span, got {lo} and {hi}")
    # a span near the float range overflows only in (n - 1) * step, whose
    # row linspace then sets to hi
    with np.errstate(over="ignore"):
        return np.linspace(lo, hi, n)


def _normalized(args, name: str, values, ref: float, ref_key: str) -> dict:
    """{name: values} and, unless --no-normalize, values / ref named after
    the quantity (U_eV -> U_norm); ref 0 is refused: --charge 0, or a
    reference that underflows."""
    if not args.normalize:
        return {name: values}
    norm = name.split("_")[0] + "_norm"
    if ref == 0.0:
        raise ValueError(f"{norm} divides by {ref_key} = 0; pass --no-normalize")
    return {name: values, norm: values / ref}


def cmd_geom(args) -> int:
    geom = toroid_from_radii(args.a, args.b)
    etas = np.linspace(-math.pi, math.pi, 181)[1:]
    r, z = surface_rz(geom, etas)
    # each residual is a distance from a circle relative to its radius, as
    # hypot, so that no square leaves the float range for tiny or huge radii
    surf = np.abs(np.hypot(r - geom.a, z) - geom.b) / geom.b
    # spherical-calotte identity at eta0 = pi/2:
    # (z - f cot eta0)^2 + r^2 = (f / sin eta0)^2
    eta0 = 0.5 * math.pi
    rc, _, zc = np.array([toroidal_to_cartesian(ToroidalCoords(xi=xi, eta=eta0), geom.f)
                          for xi in np.linspace(0.05, 4.0, 80)]).T
    cal = np.abs(np.hypot(zc - geom.f / math.tan(eta0), rc)
                 - geom.f / math.sin(eta0)) / geom.f
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
        fields = [cartesian_to_toroidal(0.0, 0.0, zz, geom.f) for zz in grid.tolist()]
        label = "z_nm"
    else:
        r_max = (geom.a - geom.b) * (1.0 - 1e-9)
        grid = np.linspace(0.0, r_max, args.zpoints)
        fields = [cartesian_to_toroidal(rr, 0.0, 0.0, geom.f) for rr in grid.tolist()]
        label = "r_nm"

    info = vh_potential_info(fields, src, g)
    ref = abs(vh_potential_info(ToroidalCoords(xi=0.0, eta=math.pi), src, g).value)
    table = {label: grid, **_normalized(args, "VH_V", info.value, ref, "normalization_V")}
    return _emit_table(args, [*table], np.column_stack([*table.values()]).tolist(),
                       {"n_used": info.n_used.tolist(), "normalization_V": ref},
                       _plot([*table], [len(table)]))


def cmd_charge_energy(args) -> int:
    _check(args, args.zpoints)
    geom = toroid_from_radii(args.a, args.b)
    g = axial_greens(geom, rel_tol=args.tol, n_cap=args.ncap)
    grid = _grid(args.zmin, args.zmax, args.zpoints)
    info = charge_interaction_energy_info(grid, g, charge=args.charge)
    ref = abs(charge_interaction_energy(0.0, g, charge=args.charge))
    table = {"zprime_nm": grid, **_normalized(args, "U_eV", info.value, ref, "normalization_eV")}
    return _emit_table(args, [*table], np.column_stack([*table.values()]).tolist(),
                       {"n_used": info.n_used.tolist(), "normalization_eV": ref},
                       _plot([*table], [len(table)]))


def cmd_vdw(args) -> int:
    _check(args, args.zpoints)
    geom = toroid_from_radii(args.a, args.b)
    g = axial_greens(geom, rel_tol=args.tol, n_cap=args.ncap)
    p = particle_model(args.d2z, unit=args.d2z_unit)
    grid = _grid(args.zmin, args.zmax, args.zpoints)
    prof = force_profile(grid, p, g)
    table = {"zp_nm": grid}
    if args.quantity in ("energy", "both"):
        table.update(_normalized(args, "U_eV", prof.energy, prof.energy_scale,
                                 "energy_scale_eV"))
    if args.quantity in ("force", "both"):
        table.update(_normalized(args, "F_eV_per_nm", prof.force, prof.force_scale,
                                 "force_scale_eV_per_nm"))
    diagnostics = {
        "n_used": prof.n_used.tolist(),
        "energy_scale_eV": prof.energy_scale,
        "force_scale_eV_per_nm": prof.force_scale,
        "series_terms_available": g.n_cap + 1,
    }
    return _emit_table(args, [*table], np.column_stack([*table.values()]).tolist(),
                       diagnostics, _plot([*table], range(2, len(table) + 1)))


def _ratios(args) -> np.ndarray:
    """The a/b grid of sweep-ratio and contour."""
    if args.ratio_min <= 1.0 or args.ratio_max <= args.ratio_min:
        raise ValueError("need 1 < ratio-min < ratio-max")
    return _grid(args.ratio_min, args.ratio_max, args.ratio_points)


def cmd_sweep_ratio(args) -> int:
    _check(args, args.ratio_points)
    zp_list = args.zp if args.zp else [1.0, 2.0, 3.0]
    if any(z <= 0.0 for z in zp_list):
        raise ValueError("--zp heights must be positive")
    # each height names a column and a crossing by its six significant digits
    labels = [f"{zp:g}" for zp in zp_list]
    if len(set(labels)) < len(labels):
        raise ValueError(f"--zp heights must differ in six significant digits, got {labels}")
    ratios = _ratios(args)
    p = particle_model(args.d2z, unit=args.d2z_unit)

    series = {"rel_tol": args.tol, "n_cap": args.ncap}
    with np.errstate(over="ignore"):  # a radius past the float range is refused
        a_values = ratios * args.b
    table = sweep_contour(a_values, zp_list, args.b, p, **series).force.T
    columns = ["a_over_b"] + [f"F_zp{label}_eV_per_nm" for label in labels]
    crossings = {}
    for zp, label in zip(zp_list, labels):
        try:
            crossings[f"zp={label}"] = critical_ratio(
                zp, args.b, p, (args.ratio_min, args.ratio_max), **series)
        except RangeExceededError:
            crossings[f"zp={label}"] = None
    return _emit_table(args, columns, np.column_stack([ratios, table]).tolist(),
                       {"zero_crossings_a_over_b": crossings},
                       _plot(columns, range(2, len(columns) + 1)))


def cmd_contour(args) -> int:
    _check(args, args.ratio_points, args.zpoints)
    ratios = _ratios(args)
    if args.out is None:
        raise ValueError("contour requires --out (matrix plus gnuplot script)")
    zps = _grid(args.zmin, args.zmax, args.zpoints)
    p = particle_model(args.d2z, unit=args.d2z_unit)
    with np.errstate(over="ignore"):  # radii or heights past the float range are refused
        a_values, heights = ratios * args.b, zps * args.b
    grid = sweep_contour(a_values, heights, args.b, p, rel_tol=args.tol, n_cap=args.ncap)

    force = grid.force.tolist()
    if args.format == "json":
        # a failed cell's NaN is written as null: JSON has no NaN
        force = [[None if math.isnan(v) else v for v in row] for row in force]
        header = ["zp_over_b"]
    else:
        # gnuplot "nonuniform matrix": first row is <N> then the column coords
        header = [ratios.size]
    rows = [[z] + row for z, row in zip(zps.tolist(), force)]
    _emit_table(args, header + ratios.tolist(), rows, {"failed_cells": list(grid.diagnostics)},
                ["set view map", "set xlabel 'a/b'", "set ylabel 'z_p/b'",
                 "set cblabel 'F_z (eV/nm)'", "splot {data} nonuniform matrix with pm3d notitle"])
    if args.format == "csv" and grid.diagnostics:  # JSON lists them in its diagnostics
        print(f"warning: {len(grid.diagnostics)} cells failed to converge", file=sys.stderr)
    return EXIT_OK


def cmd_validate(args) -> int:
    # Imported here: only the battery needs the BEM oracle, so the other
    # commands never load it.
    from .validate import run_battery

    results = run_battery()
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
    # a warning shown on stderr is one line, "warning: <message>"
    formatwarning, warnings.formatwarning = warnings.formatwarning, _warning_line
    try:
        return _COMMANDS[args.command](args)
    except TruncationError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, OverflowError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    finally:
        warnings.formatwarning = formatwarning


def _warning_line(message, *_) -> str:
    return f"warning: {message}\n"


if __name__ == "__main__":
    sys.exit(main())
