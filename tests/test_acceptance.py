"""Acceptance criteria, one test per criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them inline).

Criterion 8 is encoded twice: once verbatim as a strict expected failure,
because the demanded lambda^-4 / lambda^-5 covariance contradicts the
closed form (each series term scales exactly as lambda^-3 for the energy,
hence lambda^-4 for the force), and once with the exact exponents at the
same 1e-10 tightness, also as a property over scales, shapes and heights
at 1e-12.
"""

import math
import os
import subprocess
import sys
import time

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torvdw import (
    ToroidalCoords,
    axial_greens,
    axial_source,
    toroid_from_radii,
    toroidal_to_cartesian,
)
from torvdw.bem import bem_mixed_derivative
from torvdw.dispersion import (
    critical_ratio,
    find_force_zero,
    gh_mixed_derivative,
    particle_model,
    vdw_energy,
    vdw_force,
)
from torvdw.errors import NoSignChangeError
from torvdw.geometry import axis_eta_from_z
from torvdw.greens import _vh_reduced, inverse_distance_series, surface_residual
from torvdw.validate import (
    _far_field_samples,
    _slope,
    check_bem_vs_series,
    check_expansion_identity,
    check_far_field_slope,
    check_surface_residual,
)
from test_dispersion import CRITICAL_RATIOS_B1, FORCE_ZERO_A5_B1


def report(number, description, passed):
    print(f"\nACCEPTANCE {number:>2}: {'PASS' if passed else 'FAIL'} - {description}")
    return passed


def test_criterion_01_expansion_identity():
    t0 = time.perf_counter()
    result = check_expansion_identity()
    elapsed = time.perf_counter() - t0
    ok = (result.passed and result.threshold == 1e-10 and elapsed < 5.0
          and result.detail.startswith("100 random"))
    assert report(
        1,
        f"inverse-distance expansion vs cartesian distance "
        f"(worst {result.value:.2e} <= 1e-10, {elapsed:.1f}s < 5s)",
        ok,
    )


def test_criterion_02_grounded_boundary_condition():
    t0 = time.perf_counter()
    result = check_surface_residual()
    elapsed = time.perf_counter() - t0
    ok = (result.passed and result.threshold == 1e-8 and elapsed < 5.0
          and result.detail == "3 geometries x 3 source heights")
    assert report(
        2,
        f"surface residual over a/b in (5/3, 2.5, 5), z' in (0, f, 3f) "
        f"(worst {result.value:.2e} <= 1e-8, {elapsed:.1f}s < 5s)",
        ok,
    )


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    result = check_bem_vs_series()
    elapsed = time.perf_counter() - t0
    ok = (result.passed and result.threshold == 1e-10 and elapsed < 60.0
          and "over 20 exterior points per geometry" in result.detail)
    assert report(
        3,
        f"series vs Nyström oracle at 64 and 128 nodes "
        f"({result.value:.2e} <= 1e-10; {result.detail}; {elapsed:.1f}s < 60s)",
        ok,
    )


def test_criterion_04_mixed_derivative_cross_checks():
    geom = toroid_from_radii(5.0, 1.0)
    g = axial_greens(geom)
    rng = np.random.default_rng(99)
    h = 1e-4 * geom.f

    def gh_fd(z, zp):
        def green(zf, zs):
            src = axial_source(zs, geom)
            field = ToroidalCoords(xi=0.0, eta=axis_eta_from_z(zf, geom.f))
            return _vh_reduced(field, src, g).value / (4.0 * math.pi)

        return (
            green(z + h, zp + h) - green(z + h, zp - h)
            - green(z - h, zp + h) + green(z - h, zp - h)
        ) / (4.0 * h * h)

    worst_fd = 0.0
    count = 0
    while count < 10:
        z, zp = rng.uniform(-4.0, 4.0, size=2)
        exact = gh_mixed_derivative(z, zp, g)
        if abs(exact) < 1e-6:
            continue
        worst_fd = max(worst_fd, abs(exact - gh_fd(z, zp)) / abs(exact))
        count += 1

    heights = np.linspace(0.0, 4.5, 10)
    exact = np.array([gh_mixed_derivative(z, z, g) for z in heights])
    approx = bem_mixed_derivative(heights, heights, geom, 400)  # one solve
    worst_bem = float(np.max(np.abs(approx - exact) / np.abs(exact)))

    ok = worst_fd <= 1e-6 and worst_bem <= 1e-10
    assert report(
        4,
        f"mixed derivative vs series finite differences ({worst_fd:.2e} <= 1e-6) "
        f"and vs BEM ({worst_bem:.2e} <= 1e-10), 10 points each",
        ok,
    )


def test_criterion_05_symmetry_and_signs():
    g = axial_greens(toroid_from_radii(5.0, 1.0))
    p = particle_model(1.0)
    half = np.linspace(0.0, 8.0, 81)[1:]
    z = np.concatenate([-half[::-1], [0.0], half])
    u = vdw_energy(z, p, g)
    force = vdw_force(z, p, g)
    even = np.array_equal(u, u[::-1])
    odd = np.array_equal(force, -force[::-1])
    negative = bool(np.all(u < 0.0))
    zero = force[half.size] == 0.0
    ok = even and odd and negative and zero
    assert report(
        5,
        f"U even ({even}), U < 0 everywhere ({negative}), F odd ({odd}), "
        f"F(0) = 0 ({zero}) at machine precision on a symmetric grid",
        ok,
    )


def test_criterion_06_repulsion_phenomenology():
    p = particle_model(1.0)
    g_thin = axial_greens(toroid_from_radii(5.0, 1.0))
    z_star = find_force_zero(p, g_thin, (0.1, 20.0))
    golden_ok = abs(z_star - FORCE_ZERO_A5_B1) <= 1e-9 * FORCE_ZERO_A5_B1
    interval_ok = (
        vdw_force(0.5 * z_star, p, g_thin) > 0.0
        and vdw_force(1.5 * z_star, p, g_thin) < 0.0
    )

    g_fat = axial_greens(toroid_from_radii(5.0, 4.9))
    try:
        find_force_zero(p, g_fat, (0.1, 20.0))
        no_root_ok = False
    except NoSignChangeError:
        no_root_ok = True

    ratios = [critical_ratio(z_p, 1.0, p) for z_p in (1.0, 2.0, 3.0)]
    goldens_ok = all(
        abs(r - CRITICAL_RATIOS_B1[z_p]) <= 1e-12 * r
        for r, z_p in zip(ratios, (1.0, 2.0, 3.0))
    )
    increasing = ratios[0] < ratios[1] < ratios[2]

    ok = golden_ok and interval_ok and no_root_ok and goldens_ok and increasing
    assert report(
        6,
        f"repulsion on (0, z* = {z_star:.4f} nm) for a/b = 5; no root near "
        f"a/b = 1; critical ratios {[f'{r:.4f}' for r in ratios]} increasing",
        ok,
    )


def test_criterion_07_far_field_power_law():
    result = check_far_field_slope()
    assert report(
        7,
        f"far-field log-log slope within -4 +- 0.05 ({result.detail})",
        result.passed and result.threshold == 0.05
        and result.detail.endswith("over z in [50a, 500a]"),
    )


def test_criterion_07_closed_form_slope_is_polyfit():
    # the check fits the slope in closed form; polyfit's least squares agree
    x, y = _far_field_samples()
    assert _slope(x, y) == pytest.approx(np.polyfit(x, y, 1)[0], rel=1e-12, abs=0.0)


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the stated lambda^-4 (energy) / lambda^-5 (force) covariance is "
        "dimensionally inconsistent with the closed form, whose terms scale "
        "exactly as lambda^-3 and lambda^-4; see the companion exact test"
    ),
)
def test_criterion_08_scale_covariance_as_stated():
    p = particle_model(1.0)
    lam = 2.0
    g1 = axial_greens(toroid_from_radii(5.0, 1.0))
    g2 = axial_greens(toroid_from_radii(5.0 * lam, 1.0 * lam))
    z_p = 1.0
    u_ratio = vdw_energy(lam * z_p, p, g2) / vdw_energy(z_p, p, g1)
    f_ratio = vdw_force(lam * z_p, p, g2) / vdw_force(z_p, p, g1)
    report(
        8,
        f"stated scale covariance: measured U ratio {u_ratio:.6f} vs "
        f"lambda^-4 = {lam**-4:.6f}, F ratio {f_ratio:.6f} vs "
        f"lambda^-5 = {lam**-5:.6f} (exact law is lambda^-3 / lambda^-4)",
        abs(u_ratio - lam**-4) <= 1e-10 and abs(f_ratio - lam**-5) <= 1e-10,
    )
    assert abs(u_ratio - lam**-4) <= 1e-10
    assert abs(f_ratio - lam**-5) <= 1e-10


def test_criterion_08_scale_covariance_exact_law():
    p = particle_model(1.0)
    lam = 2.0
    g1 = axial_greens(toroid_from_radii(5.0, 1.0))
    g2 = axial_greens(toroid_from_radii(5.0 * lam, 1.0 * lam))
    worst = 0.0
    for z_p in (0.5, 1.0, 3.0, 7.0):
        u_ratio = vdw_energy(lam * z_p, p, g2) / vdw_energy(z_p, p, g1)
        f_ratio = vdw_force(lam * z_p, p, g2) / vdw_force(z_p, p, g1)
        worst = max(worst, abs(u_ratio - lam**-3), abs(f_ratio - lam**-4))
    assert report(
        8,
        f"exact scale covariance U -> lambda^-3, F -> lambda^-4 at lambda = 2 "
        f"(worst deviation {worst:.2e} <= 1e-10)",
        worst <= 1e-10,
    )


@given(log_lam=st.floats(min_value=-20.0, max_value=20.0),
       ratio=st.floats(min_value=1.001, max_value=1e3),
       log_b=st.floats(min_value=-5.0, max_value=5.0),
       z_over_b=st.floats(min_value=-10.0, max_value=10.0))
def test_criterion_08_exact_law_over_scales_shapes_and_heights(log_lam, ratio, log_b, z_over_b):
    # lambda^3 U(lambda z; lambda a, lambda b) = U(z; a, b) and the same with
    # lambda^4 for F, to 1e-12 relative; F against max(|F|, |U| / f), since
    # it vanishes at its zeros and, on thin rings, peaks at over 100 |U| / f
    lam, b = math.exp(log_lam), math.exp(log_b)
    p = particle_model(1.0)
    g = axial_greens(toroid_from_radii(ratio * b, b))
    g_lam = axial_greens(toroid_from_radii(lam * (ratio * b), lam * b))
    z = z_over_b * b
    u, force = vdw_energy(z, p, g), vdw_force(z, p, g)
    assert abs(lam**3 * vdw_energy(lam * z, p, g_lam) - u) <= 1e-12 * abs(u)
    force_scale = max(abs(force), abs(u) / g.geometry.f)
    assert abs(lam**4 * vdw_force(lam * z, p, g_lam) - force) <= 1e-12 * force_scale


def test_criterion_09_figure_reproduction(tmp_path, capsys):
    from torvdw.cli import main

    checks = []

    # axial potential: normalized -1 at the origin, symmetric solid curve
    main(["potential", "--a", "5", "--b", "1", "--zmin", "-12", "--zmax", "12",
          "--zpoints", "25", "--out", str(tmp_path / "fig_axis.csv")])
    rows = (tmp_path / "fig_axis.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(data[12, 2] == pytest.approx(-1.0, rel=1e-12))
    checks.append(np.allclose(data[:, 1], data[::-1, 1], rtol=1e-12))

    # asymmetric source: dashed-curve skew toward the source side
    main(["potential", "--a", "5", "--b", "1", "--source-z", "3",
          "--zmin", "-10", "--zmax", "10", "--zpoints", "21",
          "--out", str(tmp_path / "fig_skew.csv")])
    rows = (tmp_path / "fig_skew.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(abs(data[-1, 1]) > abs(data[0, 1]))

    # in-plane potential: finite, even, normalized -1 at the center
    main(["potential", "--a", "4", "--b", "1", "--cut", "plane",
          "--zpoints", "17", "--out", str(tmp_path / "fig_plane.csv")])
    rows = (tmp_path / "fig_plane.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(np.all(np.isfinite(data[:, 1])) and data[0, 2] == -1.0)

    # charge energy: normalized -1 at the origin, attraction toward it
    main(["charge-energy", "--a", "5", "--b", "1", "--zmin", "-16",
          "--zmax", "16", "--zpoints", "33", "--out", str(tmp_path / "fig_u.csv")])
    rows = (tmp_path / "fig_u.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(data[16, 2] == pytest.approx(-1.0, rel=1e-12))
    checks.append(np.all(np.diff(np.abs(data[16:, 2])) < 0.0))

    # dispersion force: repulsive-then-attractive thin, all-attractive fat
    main(["vdw", "--a", "5", "--b", "1", "--quantity", "force", "--zmin", "0",
          "--zmax", "8", "--zpoints", "17", "--out", str(tmp_path / "fig_f1.csv")])
    rows = (tmp_path / "fig_f1.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(data[0, 1] == 0.0 and data[2, 1] > 0.0 and data[-1, 1] < 0.0)

    main(["vdw", "--a", "5", "--b", "4.5", "--quantity", "force", "--zmin", "0",
          "--zmax", "8", "--zpoints", "17", "--out", str(tmp_path / "fig_f2.csv")])
    rows = (tmp_path / "fig_f2.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    checks.append(np.all(data[1:, 1] < 0.0))

    # ratio sweep: each height crosses once, later heights need larger a/b
    main(["sweep-ratio", "--b", "1", "--zp", "1", "--zp", "2", "--zp", "3",
          "--ratio-min", "1.5", "--ratio-max", "10", "--ratio-points", "80",
          "--out", str(tmp_path / "fig_sweep.csv")])
    rows = (tmp_path / "fig_sweep.csv").read_text().splitlines()[1:]
    data = np.array([[float(v) for v in r.split(",")] for r in rows])
    cross = [data[np.nonzero(data[:, j] > 0.0)[0][0], 0] for j in (1, 2, 3)]
    checks.append(cross[0] < cross[1] < cross[2])

    # contour: antisymmetric in z, cuts consistent with the vdw command
    main(["contour", "--b", "1", "--ratio-min", "2", "--ratio-max", "8",
          "--ratio-points", "7", "--zmin", "-6", "--zmax", "6",
          "--zpoints", "13", "--out", str(tmp_path / "fig_grid.csv")])
    rows = [r.split(",") for r in (tmp_path / "fig_grid.csv").read_text().splitlines()]
    force = np.array([[float(v) for v in r[1:]] for r in rows[1:]])
    checks.append(np.allclose(force, -force[::-1, :], rtol=1e-12, atol=1e-300))

    capsys.readouterr()  # swallow CLI table output
    ok = all(checks)
    assert report(
        9,
        f"figure-reproduction commands show the published qualitative "
        f"structure ({sum(bool(c) for c in checks)}/{len(checks)} feature checks)",
        ok,
    )


def test_criterion_10_validate_command():
    # the child finds the package in this checkout even when it is not installed
    env = dict(os.environ)
    src = os.path.join(os.path.dirname(os.path.dirname(__file__)), "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "torvdw.cli", "validate"],
        capture_output=True,
        text=True,
        timeout=120,
        env=env,
    )
    elapsed = time.perf_counter() - t0
    ok = proc.returncode == 0 and elapsed <= 60.0
    assert report(
        10,
        f"`validate` exits 0 in {elapsed:.1f}s <= 60s "
        f"({proc.stdout.count('PASS')} checks green)",
        ok,
    )
