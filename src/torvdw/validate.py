"""Cross-check battery: every analytic route against an independent one.

Each check returns a CheckResult so the CLI can print a table and the
test suite can assert on individual entries.  The BEM comparison accepts
an evaluator override so a deliberately corrupted series can be shown to
fail it (mutation sanity).
"""

from __future__ import annotations

import math
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

DEFAULT_GEOMETRIES = ((5.0, 3.0), (5.0, 2.0), (5.0, 1.0))  # a/b = 5/3, 2.5, 5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    value: float       # worst observed figure of merit
    threshold: float
    detail: str


def check_expansion_identity(
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
    n_points: int = 100,
    threshold: float = 1e-10,
    seed: int = 20240,
) -> CheckResult:
    """Truncated inverse-distance expansion against plain cartesian distance."""
    rng = np.random.default_rng(seed)
    geom = toroid_from_radii(5.0, 3.0)
    g = axial_greens(geom, rel_tol=rel_tol, n_cap=n_cap)
    worst = 0.0
    for _ in range(n_points):
        field = ToroidalCoords(
            xi=rng.uniform(0.15, 4.0), eta=rng.uniform(-math.pi, math.pi)
        )
        src = axial_source(rng.uniform(-5.0 * geom.f, 5.0 * geom.f), geom)
        x, y, z = toroidal_to_cartesian(field, geom.f)
        direct = 1.0 / math.hypot(math.hypot(x, y), z - src.z_src)
        series = inverse_distance_series(field, src, g)
        worst = max(worst, abs(series - direct) / direct)
    return CheckResult(
        name="expansion identity",
        passed=worst <= threshold,
        value=worst,
        threshold=threshold,
        detail=f"{n_points} random admissible field/source pairs",
    )


def check_surface_residual(
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
    threshold: float = 1e-8,
    geometries=DEFAULT_GEOMETRIES,
) -> CheckResult:
    """Grounded boundary condition on the surface for the standard battery."""
    worst = 0.0
    for a, b in geometries:
        geom = toroid_from_radii(a, b)
        g = axial_greens(geom, rel_tol=rel_tol, n_cap=n_cap)
        for z_src in (0.0, geom.f, 3.0 * geom.f):
            res = surface_residual(axial_source(z_src, geom), g, n_samples=48)
            worst = max(worst, res)
    return CheckResult(
        name="grounded boundary condition",
        passed=worst <= threshold,
        value=worst,
        threshold=threshold,
        detail=f"{len(geometries)} geometries x 3 source heights",
    )


def _exterior_points(geom, rng, count):
    pts = []
    while len(pts) < count:
        r = rng.uniform(0.0, 2.5 * geom.a)
        z = rng.uniform(-2.5 * geom.a, 2.5 * geom.a)
        if math.hypot(r - geom.a, z) < 1.3 * geom.b:
            continue
        pts.append((r, z))
    return pts


def check_bem_vs_series(
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
    threshold: float = 1e-10,
    n_points: int = 20,
    seed: int = 77,
    geometries=DEFAULT_GEOMETRIES,
    series_evaluator=vh_potential,
) -> CheckResult:
    """Series V_H against the Nyström oracle at 64 and at 128 nodes: the
    oracle converges geometrically, so both must agree to the threshold."""
    rng = np.random.default_rng(seed)
    worst = {64: 0.0, 128: 0.0}
    for a, b in geometries:
        geom = toroid_from_radii(a, b)
        g = axial_greens(geom, rel_tol=rel_tol, n_cap=n_cap)
        src = axial_source(1.3, geom)
        pts = _exterior_points(geom, rng, n_points)
        refs = np.array([
            series_evaluator(cartesian_to_toroidal(r, 0.0, z, geom.f), src, g)
            for r, z in pts
        ])
        r, z = np.array(pts).T
        for n in worst:
            sol = solve_induced_density(build_mesh(geom, n), src)
            err = float(np.max(np.abs(bem_vh(r, z, sol) - refs) / np.abs(refs)))
            worst[n] = max(worst[n], err)
    value = max(worst.values())
    return CheckResult(
        name="series vs boundary elements",
        passed=value <= threshold,
        value=value,
        threshold=threshold,
        detail=f"max rel err over {n_points} exterior points per geometry: "
               + ", ".join(f"{err:.1e} at {n} nodes" for n, err in worst.items()),
    )


def check_force_vs_finite_difference(
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
    threshold: float = 1e-6,
    n_points: int = 10,
    seed: int = 5150,
) -> CheckResult:
    """Analytic force against central differences of the energy."""
    rng = np.random.default_rng(seed)
    geom = toroid_from_radii(5.0, 1.0)
    g = axial_greens(geom, rel_tol=rel_tol, n_cap=n_cap)
    p = particle_model(1.0)
    worst = 0.0
    h = 1e-4 * geom.f
    for _ in range(n_points):
        z_p = rng.uniform(0.3, 8.0)
        if abs(vdw_force(z_p, p, g)) < 1e-7:  # keep clear of the force zero
            z_p += 1.0
        fd = -(vdw_energy(z_p + h, p, g) - vdw_energy(z_p - h, p, g)) / (2.0 * h)
        fa = vdw_force(z_p, p, g)
        worst = max(worst, abs(fa - fd) / abs(fa))
    return CheckResult(
        name="force vs finite difference",
        passed=worst <= threshold,
        value=worst,
        threshold=threshold,
        detail=f"{n_points} heights, step {h:g} nm",
    )


def check_far_field_slope(
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
    threshold: float = 0.05,
) -> CheckResult:
    """Monopole response of the grounded conductor: |U| ~ z^-4 far out."""
    geom = toroid_from_radii(5.0, 1.0)
    g = axial_greens(geom, rel_tol=rel_tol, n_cap=n_cap)
    p = particle_model(1.0)
    z = np.geomspace(50.0 * geom.a, 500.0 * geom.a, 40)
    u = np.abs(vdw_energy(z, p, g))
    slope = float(np.polyfit(np.log(z), np.log(u), 1)[0])
    return CheckResult(
        name="far-field power law",
        passed=abs(slope + 4.0) <= threshold,
        value=abs(slope + 4.0),
        threshold=threshold,
        detail=f"fitted log-log slope {slope:.4f} over z in [50a, 500a]",
    )


def run_battery(rel_tol: float = 1e-12, n_cap: int = 2000) -> list[CheckResult]:
    """The full cross-check battery in its canonical order."""
    return [
        check_expansion_identity(rel_tol, n_cap),
        check_surface_residual(rel_tol, n_cap),
        check_bem_vs_series(rel_tol, n_cap),
        check_force_vs_finite_difference(rel_tol, n_cap),
        check_far_field_slope(rel_tol, n_cap),
    ]
