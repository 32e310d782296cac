"""Cross-check battery: every analytic route against an independent one.

Each check returns a CheckResult so the CLI can print a table and the
test suite can assert on individual entries.  The BEM comparison accepts
an evaluator override so a deliberately corrupted series can be shown to
fail it (mutation sanity).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .bem import bem_vh, build_mesh, solve_induced_density
from .dispersion import particle_model, vdw_energy, vdw_force
from .geometry import (
    ToroidalCoords,
    cartesian_to_toroidal,
    toroid_from_radii,
    toroidal_to_cartesian,
)
from .greens import (
    axial_greens,
    axial_source,
    inverse_distance_series,
    surface_residual,
    vh_potential,
)

__all__ = [
    "CheckResult",
    "check_bem_vs_series",
    "check_expansion_identity",
    "check_far_field_slope",
    "check_force_vs_finite_difference",
    "check_surface_residual",
    "run_battery",
]

#: The battery is fixed: each check's size, seed and threshold below, and
#: every evaluator at axial_greens' defaults, for which the thresholds are set.
GEOMETRIES = ((5.0, 3.0), (5.0, 2.0), (5.0, 1.0))  # a/b = 5/3, 2.5, 5
EXPANSION_POINTS, EXPANSION_SEED, EXPANSION_THRESHOLD = 100, 20240, 1e-10
SURFACE_THRESHOLD = 1e-8
BEM_POINTS, BEM_SEED, BEM_THRESHOLD = 20, 77, 1e-10
FD_POINTS, FD_SEED, FD_THRESHOLD = 10, 5150, 1e-6
SLOPE_THRESHOLD = 0.05


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float       # worst observed figure of merit
    threshold: float
    detail: str


def _result(name: str, value: float, threshold: float, detail: str) -> CheckResult:
    return CheckResult(name=name, passed=value <= threshold, value=value,
                       threshold=threshold, detail=detail)


def check_expansion_identity() -> CheckResult:
    """Truncated inverse-distance expansion against plain cartesian distance."""
    rng = random.Random(EXPANSION_SEED)
    geom = toroid_from_radii(5.0, 3.0)
    g = axial_greens(geom)
    worst = 0.0
    for _ in range(EXPANSION_POINTS):
        field = ToroidalCoords(
            xi=rng.uniform(0.15, 4.0), eta=rng.uniform(-math.pi, math.pi)
        )
        src = axial_source(rng.uniform(-5.0 * geom.f, 5.0 * geom.f), geom)
        x, y, z = toroidal_to_cartesian(field, geom.f)
        direct = 1.0 / math.hypot(math.hypot(x, y), z - src.z_src)
        series = inverse_distance_series(field, src, g)
        worst = max(worst, abs(series - direct) / direct)
    return _result("expansion identity", worst, EXPANSION_THRESHOLD,
                   f"{EXPANSION_POINTS} random admissible field/source pairs")


def check_surface_residual() -> CheckResult:
    """Grounded boundary condition on the surface for the standard battery."""
    worst = 0.0
    for a, b in GEOMETRIES:
        geom = toroid_from_radii(a, b)
        g = axial_greens(geom)
        for z_src in (0.0, geom.f, 3.0 * geom.f):
            res = surface_residual(axial_source(z_src, geom), g, n_samples=48)
            worst = max(worst, res)
    return _result("grounded boundary condition", worst, SURFACE_THRESHOLD,
                   f"{len(GEOMETRIES)} geometries x 3 source heights")


def _exterior_points(geom, rng, count):
    pts = []
    while len(pts) < count:
        r = rng.uniform(0.0, 2.5 * geom.a)
        z = rng.uniform(-2.5 * geom.a, 2.5 * geom.a)
        if math.hypot(r - geom.a, z) < 1.3 * geom.b:
            continue
        pts.append((r, z))
    return pts


def check_bem_vs_series(series_evaluator=vh_potential) -> CheckResult:
    """Series V_H against the Nyström oracle at 64 and at 128 nodes: the
    oracle converges geometrically, so both must agree to the threshold."""
    rng = random.Random(BEM_SEED)
    worst = {64: 0.0, 128: 0.0}
    for a, b in GEOMETRIES:
        geom = toroid_from_radii(a, b)
        g = axial_greens(geom)
        src = axial_source(1.3, geom)
        pts = _exterior_points(geom, rng, BEM_POINTS)
        refs = series_evaluator([cartesian_to_toroidal(r, 0.0, z, geom.f) for r, z in pts],
                                src, g)
        r, z = np.array(pts).T
        for n in worst:
            sol = solve_induced_density(build_mesh(geom, n), src)
            err = float(np.max(np.abs(bem_vh(r, z, sol) - refs) / np.abs(refs)))
            worst[n] = max(worst[n], err)
    return _result("series vs boundary elements", max(worst.values()), BEM_THRESHOLD,
                   f"max rel err over {BEM_POINTS} exterior points per geometry: "
                   + ", ".join(f"{err:.1e} at {n} nodes" for n, err in worst.items()))


def check_force_vs_finite_difference() -> CheckResult:
    """Analytic force against central differences of the energy."""
    rng = random.Random(FD_SEED)
    geom = toroid_from_radii(5.0, 1.0)
    g = axial_greens(geom)
    p = particle_model(1.0)
    h = 1e-4 * geom.f
    z_p = np.array([rng.uniform(0.3, 8.0) for _ in range(FD_POINTS)])
    fd = -(vdw_energy(z_p + h, p, g) - vdw_energy(z_p - h, p, g)) / (2.0 * h)
    fa = vdw_force(z_p, p, g)
    worst = float(np.max(np.abs(fa - fd) / np.abs(fa)))
    return _result("force vs finite difference", worst, FD_THRESHOLD,
                   f"{FD_POINTS} heights, step {h:g} nm")


def _far_field_samples():
    """(log z, log |U|) at 40 heights over [50a, 500a] at a/b = 5."""
    geom = toroid_from_radii(5.0, 1.0)
    g = axial_greens(geom)
    z = np.geomspace(50.0 * geom.a, 500.0 * geom.a, 40)
    return np.log(z), np.log(np.abs(vdw_energy(z, particle_model(1.0), g)))


def _slope(x, y) -> float:
    """Least-squares slope of y on x in closed form, from centred data."""
    dx = x - x.mean()
    return float(np.dot(dx, y - y.mean()) / np.dot(dx, dx))


def check_far_field_slope() -> CheckResult:
    """Monopole response of the grounded conductor: |U| ~ z^-4 far out."""
    slope = _slope(*_far_field_samples())
    return _result("far-field power law", abs(slope + 4.0), SLOPE_THRESHOLD,
                   f"fitted log-log slope {slope:.4f} over z in [50a, 500a]")


def run_battery() -> list[CheckResult]:
    """The full cross-check battery in its canonical order."""
    return [
        check_expansion_identity(),
        check_surface_residual(),
        check_bem_vs_series(),
        check_force_vs_finite_difference(),
        check_far_field_slope(),
    ]
