import math
import tracemalloc
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from torvdw import axial_greens, axial_source, toroid_from_radii, ToroidalCoords
from torvdw import dispersion as dispersion_module
from torvdw.bem import bem_mixed_derivative
from torvdw.dispersion import (
    critical_ratio,
    find_force_zero,
    force_profile,
    gh_mixed_derivative,
    particle_model,
    sweep_contour,
    vdw_energy,
    vdw_force,
)
from torvdw.errors import (
    NoSignChangeError,
    RangeExceededError,
    ResultOverflowError,
    TruncationError,
)
from torvdw.geometry import axis_eta_from_z
from torvdw.greens import (
    _moments,
    _vh_reduced,
    charge_interaction_energy,
    charge_interaction_energy_info,
    vh_potential,
)
from torvdw.units import DEBYE2_TO_E2NM2, K_E_EV_NM

from whole_range import HEIGHTS, TYPED_ERRORS, assert_scaled_by_inverse_cube

# Oracle values frozen from the boundary-element route (1600 panels,
# mixed finite differences at step 1e-3 f) before the series was built:
# a = 5 nm, b = 1 nm, <d_z^2> = 1 (e nm)^2.
BEM_ENERGY_ORACLE = {
    0.0: -8.1267587882e-04,
    1.0: -9.1915841673e-04,
    2.0: -1.0816366890e-03,
    5.0: -7.6005170706e-04,
}

# Series regression values at the same points, locked after the oracle
# comparison passed.
SERIES_ENERGY_REGRESSION = {
    0.0: -0.0008125136704195568,
    1.0: -0.0009190060315669974,
    2.0: -0.0010815101144905925,
    5.0: -0.0007600081221577703,
}

FORCE_ZERO_A5_B1 = 2.5714743782375984  # nm, by sign scan + bisection

CRITICAL_RATIOS_B1 = {  # 50-digit mpmath roots of the force's sign sum in a/b
    1.0: 3.5527668890823486,
    2.0: 4.3983503786989555,
    3.0: 5.4847479975299635,
}

# The repulsion threshold: the 50-digit mpmath root of
# A(a/b) = sum_n (2 - delta_n0) R_n (1 - 12 n^2), the limit of the critical
# ratio as z_p -> 0.
THRESHOLD_RATIO = 3.2047484385699470658


@pytest.fixture(scope="module")
def particle():
    return particle_model(1.0)


class TestParticleModel:
    def test_positive_required(self):
        with pytest.raises(ValueError):
            particle_model(0.0)
        with pytest.raises(ValueError):
            particle_model(-1.0)

    @pytest.mark.parametrize("d2z", [math.inf, math.nan])
    def test_finite_required(self, d2z):
        with pytest.raises(ValueError, match="finite"):
            particle_model(d2z)

    def test_energy_prefactor_overflow_rejected(self):
        # <d_z^2> 2 pi K_E overflows float64 above about 1.9e307 (e nm)^2
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                particle_model(1e308)
            with pytest.raises(ValueError, match="finite"):
                particle_model(1e252, unit="C2m2")  # 3.9e307 (e nm)^2
            assert particle_model(1e307).d2z == 1e307

    def test_unit_conversions(self):
        assert particle_model(1.0, unit="debye2").d2z == pytest.approx(
            DEBYE2_TO_E2NM2, rel=1e-12
        )
        assert particle_model(1.0, unit="debye2").d2z == pytest.approx(
            4.3345e-4, rel=1e-3
        )

    def test_unknown_unit(self):
        with pytest.raises(ValueError):
            particle_model(1.0, unit="statC2cm2")


class TestEnergy:
    def test_oracle_values(self, particle, greens51):
        for z_p, u_bem in BEM_ENERGY_ORACLE.items():
            assert vdw_energy(z_p, particle, greens51) == pytest.approx(
                u_bem, rel=1e-2
            )

    def test_regression_values(self, particle, greens51):
        for z_p, u in SERIES_ENERGY_REGRESSION.items():
            assert vdw_energy(z_p, particle, greens51) == pytest.approx(
                u, rel=1e-12
            )

    def test_even(self, particle, greens51):
        zs = np.array([0.3, 1.0, 2.7, 9.0])
        np.testing.assert_array_equal(
            vdw_energy(zs, particle, greens51), vdw_energy(-zs, particle, greens51)
        )

    @given(
        zp=st.floats(min_value=-50.0, max_value=50.0),
        ratio=st.floats(min_value=1.05, max_value=40.0),
    )
    def test_negative_everywhere(self, zp, ratio):
        g = axial_greens(toroid_from_radii(ratio, 1.0))
        assert vdw_energy(zp, particle_model(1.0), g) < 0.0

    def test_scales_linearly_in_d2z(self, greens51):
        u1 = vdw_energy(1.0, particle_model(1.0), greens51)
        u7 = vdw_energy(1.0, particle_model(7.0), greens51)
        assert u7 == pytest.approx(7.0 * u1, rel=1e-14)

    def test_far_field_slope(self, particle, greens51):
        a = greens51.geometry.a
        z = np.geomspace(50.0 * a, 500.0 * a, 40)
        slope = np.polyfit(np.log(z), np.log(np.abs(vdw_energy(z, particle, greens51))), 1)[0]
        assert slope == pytest.approx(-4.0, abs=0.05)

    def test_exact_scale_covariance(self, particle, greens51):
        # each series term carries one power of length in the numerator and
        # four net in the denominator: U -> U / lambda^3, F -> F / lambda^4
        lam = 2.0
        g_scaled = axial_greens(toroid_from_radii(5.0 * lam, 1.0 * lam))
        for z_p in [0.5, 1.0, 3.0, 7.0]:
            assert vdw_energy(lam * z_p, particle, g_scaled) == pytest.approx(
                vdw_energy(z_p, particle, greens51) / lam**3, rel=1e-10
            )
            assert vdw_force(lam * z_p, particle, g_scaled) == pytest.approx(
                vdw_force(z_p, particle, greens51) / lam**4, rel=1e-10
            )


class TestMixedDerivative:
    def test_symmetry(self, greens51):
        pairs = [(2.0, 1.0), (0.5, -1.5), (4.0, 0.0)]
        for z1, z2 in pairs:
            assert gh_mixed_derivative(z1, z2, greens51) == pytest.approx(
                gh_mixed_derivative(z2, z1, greens51), rel=1e-13
            )

    def test_matches_finite_differences_of_vh(self, greens51, rng):
        # G_H = eps0 V_H / q, differenced with step 1e-4 f
        g = greens51
        f = g.geometry.f
        h = 1e-4 * f

        def gh_num(z, zp):
            def G(zf, zs):
                src = axial_source(zs, g.geometry)
                field = ToroidalCoords(xi=0.0, eta=axis_eta_from_z(zf, f))
                return _vh_reduced(field, src, g).value / (4.0 * math.pi)

            return (
                G(z + h, zp + h) - G(z + h, zp - h) - G(z - h, zp + h) + G(z - h, zp - h)
            ) / (4.0 * h * h)

        for _ in range(10):
            z, zp = rng.uniform(-4.0, 4.0, size=2)
            exact = gh_mixed_derivative(z, zp, g)
            if abs(exact) < 1e-6:  # relative comparison near a sign change
                continue
            assert exact == pytest.approx(gh_num(z, zp), rel=1e-6)

    def test_consistent_with_energy(self, particle, greens51):
        for z_p in [0.0, 1.3, 4.2]:
            u = vdw_energy(z_p, particle, greens51)
            d2g = gh_mixed_derivative(z_p, z_p, greens51)
            assert u == pytest.approx(
                particle.d2z * 2.0 * math.pi * K_E_EV_NM * d2g, rel=1e-12
            )

    def test_nanoring_limit(self):
        # a thin ring of radius a: d2G -> -a z^2 / (4 ln(8a/b) (a^2 + z^2)^3)
        a, z = 1.0, 0.5
        gaps = []
        for ratio in (1e1, 1e2, 1e3, 1e4):
            g = axial_greens(toroid_from_radii(a, a / ratio))
            ring = -a * z * z / (4.0 * math.log(8.0 * ratio) * (a * a + z * z) ** 3)
            gaps.append(abs(gh_mixed_derivative(z, z, g) / ring - 1.0))
        assert all(g1 < g0 for g0, g1 in zip(gaps, gaps[1:])), gaps
        assert gaps[-1] < 1e-5, gaps


    @given(log_lam=st.floats(min_value=-150.0, max_value=150.0),
           ratio=st.floats(min_value=1.5, max_value=50.0),
           z=st.floats(min_value=-5.0, max_value=5.0),
           z_prime=st.floats(min_value=-5.0, max_value=5.0))
    # silently 4.9% off, -0.0, a TruncationError with an overflow warning, and
    # a bare OverflowError, where raw powers of f^2 + z^2 were formed
    @example(log_lam=80.0, ratio=3.0, z=0.5, z_prime=0.35)
    @example(log_lam=100.0, ratio=3.0, z=0.5, z_prime=0.35)
    @example(log_lam=-90.0, ratio=3.0, z=0.5, z_prime=0.35)
    @example(log_lam=-104.0, ratio=3.0, z=0.5, z_prime=0.35)
    def test_scale_law_over_the_float_range(self, log_lam, ratio, z, z_prime):
        # d^2 G_H / dz dz' has dimension 1/nm^3: scaling every length by
        # lam scales it by lam^-3, down to subnormals and up to the overflow
        lam = 10.0**log_lam
        at_one = gh_mixed_derivative(z, z_prime, axial_greens(toroid_from_radii(ratio, 1.0)))
        g = axial_greens(toroid_from_radii(ratio * lam, lam))
        assert_scaled_by_inverse_cube(lambda: gh_mixed_derivative(z * lam, z_prime * lam, g),
                                      at_one, lam, 1e-13)


class TestForce:
    def test_zero_at_origin(self, particle, greens51):
        assert vdw_force(0.0, particle, greens51) == 0.0

    def test_odd(self, particle, greens51):
        zs = np.array([0.2, 1.0, 3.3, 8.0])
        np.testing.assert_array_equal(
            vdw_force(zs, particle, greens51), -vdw_force(-zs, particle, greens51)
        )

    def test_matches_energy_derivative(self, particle, greens51, rng):
        h = 1e-5
        for _ in range(50):
            z_p = rng.uniform(0.2, 12.0)
            fd = -(
                vdw_energy(z_p + h, particle, greens51)
                - vdw_energy(z_p - h, particle, greens51)
            ) / (2.0 * h)
            fa = vdw_force(z_p, particle, greens51)
            if abs(fa) < 1e-8:
                continue
            assert fa == pytest.approx(fd, rel=1e-6)

    def test_repulsive_then_attractive_for_thin_ring(self, particle, greens51):
        assert vdw_force(0.5, particle, greens51) > 0.0
        assert vdw_force(1.0, particle, greens51) > 0.0
        assert vdw_force(5.0, particle, greens51) < 0.0
        assert vdw_force(20.0, particle, greens51) < 0.0


class TestForceZero:
    def test_golden_value(self, particle, greens51):
        z_star = find_force_zero(particle, greens51, (0.1, 20.0))
        assert z_star == pytest.approx(FORCE_ZERO_A5_B1, rel=1e-9)
        f_scale = max(
            abs(vdw_force(0.1, particle, greens51)),
            abs(vdw_force(20.0, particle, greens51)),
        )
        assert abs(vdw_force(z_star, particle, greens51)) <= 1e-10 * f_scale

    def test_matches_independent_closed_form(self, particle, greens51):
        # the force bracket is linear in z^2, so the zero is
        # f sqrt(N / (2 S)) with N, S explicit sums over the ratio table
        g = greens51
        n = np.arange(g.table.n_max + 1)
        w = np.where(n == 0, 1.0, 2.0) * g.table.ratio
        n_sum = float(np.sum(w * (1.0 - 12.0 * n**2)))
        s_sum = float(np.sum(w))
        z_closed = g.geometry.f * math.sqrt(n_sum / (2.0 * s_sum))
        assert find_force_zero(particle, g, (0.1, 20.0)) == pytest.approx(
            z_closed, rel=1e-10
        )

    def test_no_root_for_fat_toroid(self, particle):
        g = axial_greens(toroid_from_radii(5.0, 4.9))
        with pytest.raises(NoSignChangeError):
            find_force_zero(particle, g, (0.1, 20.0))

    def test_independent_of_d2z(self, greens51):
        z1 = find_force_zero(particle_model(1.0), greens51, (0.1, 20.0))
        z10 = find_force_zero(particle_model(10.0), greens51, (0.1, 20.0))
        assert z1 == z10

    def test_zero_height_vanishes_at_critical_tube_radius(self, particle):
        # as b grows toward the critical value the repulsion zone shrinks
        # continuously to nothing
        a = 5.0
        lo, hi = 1.0, 4.9  # repulsive at b = 1, attractive at b = 4.9
        for _ in range(40):
            mid = 0.5 * (lo + hi)
            g = axial_greens(toroid_from_radii(a, mid))
            try:
                find_force_zero(particle, g, (1e-4, 20.0))
                lo = mid
            except NoSignChangeError:
                hi = mid
        g_below = axial_greens(toroid_from_radii(a, lo))
        z_star = find_force_zero(particle, g_below, (1e-6, 20.0))
        assert z_star < 0.05

    @pytest.mark.parametrize("bracket, sign", [((-3.0, 20.0), 1.0), ((-20.0, 3.0), -1.0)])
    def test_three_zero_bracket_returns_nearest_midpoint(self, particle, greens51,
                                                          bracket, sign):
        # -z*, 0 and z* all lie inside; the one nearest the midpoint wins
        z_star = find_force_zero(particle, greens51, bracket)
        assert z_star == pytest.approx(sign * FORCE_ZERO_A5_B1, rel=1e-12)

    @pytest.mark.parametrize("bracket", [(1.0,), (0.1, 5.0, 9.0), (5.0, 0.1)])
    def test_bracket_validation(self, particle, greens51, bracket):
        # a bracket is two ordered ends; a third entry is refused, not dropped
        with pytest.raises(ValueError):
            find_force_zero(particle, greens51, bracket)

    def test_nanoring_limit(self, particle):
        # a thin ring of radius a puts the zero at a / sqrt(2), approached
        # from below like (b / a)^2
        gaps = []
        for ratio in (1e1, 1e2, 1e3, 1e4):
            g = axial_greens(toroid_from_radii(1.0, 1.0 / ratio))
            gaps.append(find_force_zero(particle, g, (0.1, 3.0)) - 1.0 / math.sqrt(2.0))
        assert all(gap < 0.0 for gap in gaps)
        slopes = [math.log10(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
        assert all(1.8 <= s <= 2.0 for s in slopes), slopes


class TestCriticalRatio:
    def test_goldens_and_monotonicity(self, particle):
        values = [critical_ratio(z_p, 1.0, particle) for z_p in (1.0, 2.0, 3.0)]
        for v, z_p in zip(values, (1.0, 2.0, 3.0)):
            assert v == pytest.approx(CRITICAL_RATIOS_B1[z_p], rel=1e-12)
        assert values[0] < values[1] < values[2]

    def test_root_does_not_depend_on_the_particle(self, particle):
        # <d_z^2> scales the force, not its sign
        other = particle_model(1e3, unit="debye2")
        assert other.d2z != particle.d2z
        for z_p in (0.5, 2.0):
            assert critical_ratio(z_p, 1.0, other) == critical_ratio(z_p, 1.0, particle)

    @pytest.mark.parametrize("z_p", [1.0, 3.0])
    def test_root_is_a_sign_change_at_40_digits(self, particle, z_p):
        ratio = critical_ratio(z_p, 1.0, particle)

        def sigma(shift):
            # (z^2 - 1) A - 2 z_p^2 B at z = ratio (1 + shift), b = 1;
            # R_n < 1e-90 by n = 60 here
            with mpmath.workdps(40):
                z = mpmath.mpf(ratio) * (1 + shift)
                return sum(
                    (1 if n == 0 else 2)
                    * mpmath.re(mpmath.legenq(n - 0.5, 0, z, type=3))
                    / mpmath.legenp(n - 0.5, 0, z, type=3)
                    * ((z * z - 1) * (1 - 12 * n * n) - 2 * z_p**2)
                    for n in range(60)
                )

        assert sigma(mpmath.mpf("-1e-12")) < 0 < sigma(mpmath.mpf("1e-12"))

    def test_threshold_ratio(self, particle):
        # 5e-324: the force itself underflows to 0 there, its sign sum does not
        for z_p in (1e-8, 5e-324):
            assert critical_ratio(z_p, 1.0, particle) == pytest.approx(
                THRESHOLD_RATIO, rel=1e-12)
        # the critical ratio leaves the threshold quadratically in z_p
        gaps = [critical_ratio(z_p, 1.0, particle) - THRESHOLD_RATIO
                for z_p in (0.1, 0.01, 0.001)]
        slopes = [math.log10(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
        assert all(1.9 <= s <= 2.1 for s in slopes), slopes

    def test_newton_steps_use_the_wronskian_slope(self, particle, monkeypatch):
        # bisection alone needs about 50 tables to reach |du| <= 1e-14; the
        # Newton steps took 8 to 12 here, the two end checks included
        builds = []
        build = dispersion_module.axial_greens
        monkeypatch.setattr(dispersion_module, "axial_greens",
                            lambda *a, **k: builds.append(1) or build(*a, **k))
        for z_p in (1e-8, 0.1, 1.0, 2.0, 3.0, 10.0, 100.0):
            builds.clear()
            critical_ratio(z_p, 1.0, particle)
            assert len(builds) <= 14, (z_p, len(builds))

    def test_single_sign_change_in_ratio(self):
        # the Newton search assumes one crossing: A < 0 below the threshold,
        # and above it zeta^2 = (z^2 - 1) A / (2 B) rises strictly
        def sums(ratio):
            table = axial_greens(toroid_from_radii(ratio, 1.0)).table
            n = np.arange(table.n_max + 1)
            w = np.where(n == 0, 1.0, 2.0) * table.ratio
            return float(np.sum(w * (1.0 - 12.0 * n**2))), float(np.sum(w))

        assert all(sums(r)[0] < 0.0 for r in np.geomspace(1.01, 3.2, 200))
        zeta2 = []
        for r in np.geomspace(THRESHOLD_RATIO, 1e4, 400):
            a_sum, b_sum = sums(r)
            zeta2.append((r * r - 1.0) * a_sum / (2.0 * b_sum))
        assert np.all(np.diff(zeta2) > 0.0)

    def test_threshold_is_a_sign_change(self, particle):
        thr = critical_ratio(1.0, 1.0, particle)
        g_above = axial_greens(toroid_from_radii((thr * 1.001) * 1.0, 1.0))
        g_below = axial_greens(toroid_from_radii((thr * 0.999) * 1.0, 1.0))
        assert vdw_force(1.0, particle, g_above) > 0.0
        assert vdw_force(1.0, particle, g_below) < 0.0

    def test_range_exceeded_high(self, particle):
        with pytest.raises(RangeExceededError) as exc:
            critical_ratio(1.0, 1.0, particle, search=(1.01, 1.5))
        assert exc.value.bound == pytest.approx(1.5)
        with pytest.raises(RangeExceededError) as exc:
            critical_ratio(1e200, 1.0, particle)  # (z_p / b)^2 overflows
        assert exc.value.bound == 1000.0

    def test_range_exceeded_low(self, particle):
        with pytest.raises(RangeExceededError) as exc:
            critical_ratio(1.0, 1.0, particle, search=(6.0, 1000.0))
        assert exc.value.bound == pytest.approx(6.0)
        # a thin-hole low end is not bracketed: its moment series runs past n_cap
        with pytest.raises(TruncationError, match="after 2001 terms"):
            critical_ratio(1.0, 1.0, particle, search=(1.00001, 10.0))

    def test_input_validation(self, particle):
        with pytest.raises(ValueError):
            critical_ratio(-1.0, 1.0, particle)
        # arrays are refused before any table is built, whatever their size
        for z_p, b in [(np.array([1.0]), 1.0), (1.0, np.array([1.0, 2.0]))]:
            with pytest.raises(ValueError, match="not arrays"):
                critical_ratio(z_p, b, particle)
        with pytest.raises(ValueError):
            critical_ratio(1.0, 1.0, particle, search=(0.5, 10.0))
        for search in [(1.5,), (1.5, 10.0, 20.0)]:
            with pytest.raises(ValueError):
                critical_ratio(1.0, 1.0, particle, search=search)

    # the last range is finite, but a/b = 1e200 gives a toroid past the float range
    @pytest.mark.parametrize("search", [(1.01, math.inf), (math.nan, 10.0), (1.5, 1e200)])
    def test_nonfinite_search_rejected(self, particle, search):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="finite"):
                critical_ratio(1.0, 1.0, particle, search=search)


class TestSweep:
    def test_grid_antisymmetric_and_cut_consistent(self, particle):
        a_vals = np.linspace(1.5, 10.0, 12)
        z_vals = np.linspace(-8.0, 8.0, 33)
        grid = sweep_contour(a_vals, z_vals, 1.0, particle)
        assert grid.force.shape == (33, 12)
        assert not grid.diagnostics
        np.testing.assert_array_equal(grid.force, -grid.force[::-1, :])
        # a column is exactly a vdw_force evaluation at fixed geometry
        j = 7
        g = axial_greens(toroid_from_radii(a_vals[j], 1.0))
        np.testing.assert_array_equal(
            grid.force[:, j], vdw_force(z_vals, particle, g)
        )

    def test_zero_contour_monotone(self, particle):
        # the repulsion boundary in the (a/b, z_p/b) plane moves to larger
        # ratios at larger heights
        a_vals = np.linspace(1.5, 10.0, 60)
        z_vals = np.array([1.0, 2.0, 3.0, 4.0])
        grid = sweep_contour(a_vals, z_vals, 1.0, particle)
        crossings = []
        for i in range(z_vals.size):
            pos = np.nonzero(grid.force[i] > 0.0)[0]
            assert pos.size > 0
            crossings.append(a_vals[pos[0]])
        assert all(c2 >= c1 for c1, c2 in zip(crossings, crossings[1:]))

    def test_starved_shape_fails_its_whole_column(self, particle):
        # with n_cap = 8 the moments converge at a/b = 1e3 but not at 1.01
        z_vals = np.linspace(-3.0, 3.0, 7)
        grid = sweep_contour([1e3, 1.01], z_vals, 1.0, particle, n_cap=8)
        assert np.all(np.isnan(grid.force[:, 1]))
        assert grid.diagnostics == tuple(
            (i, 1, "series not converged within cap") for i in range(z_vals.size))
        g = axial_greens(toroid_from_radii(1e3, 1.0), n_cap=8)
        np.testing.assert_array_equal(grid.force[:, 0], vdw_force(z_vals, particle, g))

    @given(log_gaps=st.lists(st.floats(min_value=-4.0, max_value=6.0), min_size=1, max_size=40),
           log_b=st.floats(min_value=-2.0, max_value=2.0),
           heights_over_b=st.lists(st.floats(min_value=-20.0, max_value=20.0), min_size=1,
                                   max_size=5),
           rel_tol=st.sampled_from([1e-12, 1e-6, 1e-300]),
           n_cap=st.sampled_from([8, 60, 2000]))
    # at rel_tol 1e-300 a shape converges only once its terms underflow
    @example(log_gaps=np.linspace(-0.3, 4.0, 30).tolist(), log_b=0.0, heights_over_b=[1.0],
             rel_tol=1e-300, n_cap=2000)
    def test_every_column_is_its_own_vdw_force(self, particle, log_gaps, log_b,
                                                heights_over_b, rel_tol, n_cap):
        # shapes from a/b - 1 = 1e-4 to 1e6 leave the stream at many rows:
        # every converged column has the bytes of its own vdw_force call, and
        # the NaN columns are the shapes whose moments do not converge
        b = 10.0**log_b
        a_values = [(1.0 + 10.0**gap) * b for gap in log_gaps]
        z_values = np.array(heights_over_b) * b
        grid = sweep_contour(a_values, z_values, b, particle, rel_tol=rel_tol, n_cap=n_cap)
        failed = []
        for j, a in enumerate(a_values):
            g = axial_greens(toroid_from_radii(a, b), rel_tol=rel_tol, n_cap=n_cap)
            try:
                force = vdw_force(z_values, particle, g)
            except TruncationError:
                failed.append(j)
                continue
            assert grid.force[:, j].tobytes() == force.tobytes()
        assert np.flatnonzero(np.isnan(grid.force).any(axis=0)).tolist() == failed
        assert np.isnan(grid.force[:, failed]).all()
        assert grid.diagnostics == tuple((i, j, "series not converged within cap")
                                         for j in failed for i in range(z_values.size))

    def test_memory_does_not_grow_with_the_number_of_shapes(self, particle):
        # 2000 shapes from a/b = 1.001, whose moments take 413 rows: the
        # stream holds one row of each shape
        a_values = np.geomspace(1.001, 1e4, 2000)
        tracemalloc.start()
        try:
            sweep_contour(a_values, [1.0, 2.0, 3.0], 1.0, particle)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4e6

    @pytest.mark.parametrize("a_values", [1.0 + np.geomspace(1e-4, 1e-2, 40),
                                          np.geomspace(1.5, 12.0, 220),
                                          np.geomspace(1.001, 1e4, 300)])
    def test_every_column_is_vdw_force_bit_for_bit(self, particle, a_values):
        # thin holes, a benchmark-sized sweep and the whole range: a column
        # leaves the shared stream at its own row, alone at the end, and has
        # the bits of vdw_force at those heights
        z_values = np.array([0.5, 1.0, 2.0])
        grid = sweep_contour(a_values, z_values, 1.0, particle)
        for j, a in enumerate(a_values):
            g = axial_greens(toroid_from_radii(a, 1.0))
            assert grid.force[:, j].tobytes() == vdw_force(z_values, particle, g).tobytes()

    def test_validation(self, particle):
        with pytest.raises(ValueError):
            sweep_contour([2.0], [], 1.0, particle)
        with pytest.raises(ValueError):
            sweep_contour([0.5], [1.0], 1.0, particle)
        # grids that are not 1-d: one ValueError, not numpy's TypeError or
        # broadcast message
        with pytest.raises(ValueError, match="1-d"):
            sweep_contour(3.0, [1.0], 1.0, particle)
        with pytest.raises(ValueError, match="1-d"):
            sweep_contour([3.0], [[1.0, 2.0], [3.0, 4.0]], 1.0, particle)
        # an array tube radius: toroid_from_radii's ValueError, not numpy's
        # TypeError
        with pytest.raises(ValueError, match="scalars"):
            sweep_contour([2.0, 3.0], [1.0], np.array([1.0]), particle)


class TestNonFiniteHeights:
    @pytest.mark.parametrize("z", [math.nan, math.inf, -math.inf])
    def test_every_entry_point_refuses(self, particle, greens51, z):
        grid = np.array([0.0, 1.0, z])
        for call in (
            lambda: vdw_energy(z, particle, greens51),
            lambda: vdw_energy(grid, particle, greens51),
            lambda: vdw_force(z, particle, greens51),
            lambda: vdw_force(grid, particle, greens51),
            lambda: force_profile(grid, particle, greens51),
            lambda: gh_mixed_derivative(1.0, z, greens51),
            lambda: gh_mixed_derivative(grid, grid, greens51),
            lambda: charge_interaction_energy(grid, greens51),
            lambda: axial_source(grid, greens51.geometry),
            lambda: bem_mixed_derivative(grid, 1.0, greens51.geometry, 64),
            lambda: bem_mixed_derivative(1.0, grid, greens51.geometry, 64),
            lambda: sweep_contour([5.0], grid, 1.0, particle),
            lambda: critical_ratio(z, 1.0, particle),
            lambda: find_force_zero(particle, greens51, (0.1, z)),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestLargeHeights:
    Z_FAR = 1e80  # (f^2 + z^2)^4 overflows float64 here

    def _reference(self, g, p, z, n_terms):
        """The closed forms of U and F, truncated after n_terms, at 50 digits."""
        with mpmath.workdps(50):
            f, z = mpmath.mpf(g.geometry.f), mpmath.mpf(z)
            k_e, d2z = mpmath.mpf(K_E_EV_NM), mpmath.mpf(p.d2z)
            w = [mpmath.mpf(x) * (1 if n == 0 else 2) for n, x in enumerate(g.table.ratio)]
            s = f * f + z * z
            energy = -(d2z * 2 * mpmath.pi * k_e) * f / (2 * mpmath.pi**2) * sum(
                w[n] * (z * z + 4 * n * n * f * f) for n in range(n_terms + 1)
            ) / s**3
            force = 2 * (d2z * k_e / mpmath.pi) * f * z * sum(
                w[n] * ((1 - 12 * n * n) * f * f - 2 * z * z) for n in range(n_terms + 1)
            ) / s**4
            return energy, force

    def test_far_field_finite_without_warnings(self, greens51):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for z in (self.Z_FAR, -self.Z_FAR, 1e300):
                u = vdw_energy(z, particle_model(1.0), greens51)
                force = vdw_force(z, particle_model(1.0), greens51)
                assert math.isfinite(u) and math.isfinite(force)
            assert vdw_energy(self.Z_FAR, particle_model(1.0), greens51) < 0.0

    def test_matches_high_precision_closed_form(self, greens51):
        # a large <d_z^2> keeps U ~ z^-4 and F ~ z^-5 inside the normal
        # float64 range at z = 1e80, so the comparison is to full precision
        p = particle_model(1e200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = vdw_energy(self.Z_FAR, p, greens51)
            force = vdw_force(self.Z_FAR, p, greens51)
        u_ref, f_ref = self._reference(greens51, p, self.Z_FAR, greens51.table.n_max)
        assert u < 0.0 and force < 0.0
        assert float(abs((u - u_ref) / u_ref)) <= 1e-12
        assert float(abs((force - f_ref) / f_ref)) <= 1e-12


class TestWholeRange:
    """Every shape, height and <d_z^2>: a finite value or a typed error,
    never a warning, with U even and F odd bit for bit."""

    @given(
        log_gap=st.floats(min_value=-5.0, max_value=6.0),  # log10(a/b - 1)
        log_b=st.floats(min_value=-100.0, max_value=100.0),
        log_d2z=st.floats(min_value=-300.0, max_value=307.0),
        heights=st.lists(st.floats(min_value=-1e300, max_value=1e300), max_size=4),
        heights_over_b=st.lists(st.floats(min_value=-100.0, max_value=100.0), max_size=4),
    )
    # <d_z^2> times the moment sum overflows before any division by r
    @example(log_gap=-3.0, log_b=0.0, log_d2z=307.0, heights=[], heights_over_b=[0.0, 0.01])
    # the moments need about 3300 terms at a/b = 1 + 1e-5, past the default cap
    @example(log_gap=-5.0, log_b=0.0, log_d2z=0.0, heights=[1.0], heights_over_b=[])
    def test_finite_or_typed_error(self, log_gap, log_b, log_d2z, heights, heights_over_b):
        b = 10.0**log_b
        g = axial_greens(toroid_from_radii((1.0 + 10.0**log_gap) * b, b))
        p = particle_model(10.0**log_d2z)
        z = np.array(heights + [h * b for h in heights_over_b])

        def outcome(call, zs):
            try:
                return call(zs, p, g)
            except (ResultOverflowError, TruncationError) as exc:
                return type(exc)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, u_neg = (outcome(vdw_energy, zs) for zs in (z, -z))
            f, f_neg = (outcome(vdw_force, zs) for zs in (z, -z))
            prof = outcome(force_profile, z)
        if isinstance(u, np.ndarray):
            assert np.all(np.isfinite(u)) and u.tobytes() == u_neg.tobytes()
        else:
            assert u is u_neg
        if isinstance(f, np.ndarray):
            assert np.all(np.isfinite(f)) and f.tobytes() == (-f_neg).tobytes()
        else:
            assert f is f_neg
        if isinstance(prof, type):
            assert issubclass(prof, (ResultOverflowError, TruncationError))
        else:
            assert prof.energy.tobytes() == u.tobytes()
            assert prof.force.tobytes() == f.tobytes()
            assert math.isfinite(prof.energy_scale) and math.isfinite(prof.force_scale)

    @given(log_gap=st.floats(min_value=-5.0, max_value=6.0),
           log_b=st.floats(min_value=-100.0, max_value=100.0),
           log_d2z=st.floats(min_value=-300.0, max_value=307.0),
           ends=st.tuples(HEIGHTS, HEIGHTS).filter(lambda ends: ends[0] != ends[1]))
    def test_force_zero_finite_or_typed_error(self, log_gap, log_b, log_d2z, ends):
        b = 10.0**log_b
        g = axial_greens(toroid_from_radii((1.0 + 10.0**log_gap) * b, b))
        p = particle_model(10.0**log_d2z)
        lo, hi = sorted(z * b if over_b else z for z, over_b in ends)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                zero = find_force_zero(p, g, (lo, hi))
            except TYPED_ERRORS:
                return
        assert isinstance(zero, float) and lo <= zero <= hi

    @given(log_gaps=st.lists(st.floats(min_value=-5.0, max_value=6.0), min_size=1, max_size=3),
           log_b=st.floats(min_value=-100.0, max_value=100.0),
           log_d2z=st.floats(min_value=-300.0, max_value=307.0),
           heights=st.lists(HEIGHTS, min_size=1, max_size=3),
           n_cap=st.sampled_from([8, 60, 2000]))
    def test_sweep_finite_or_typed_error(self, log_gaps, log_b, log_d2z, heights, n_cap):
        b = 10.0**log_b
        a_values = [(1.0 + 10.0**gap) * b for gap in log_gaps]
        z_values = [z * b if over_b else z for z, over_b in heights]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                grid = sweep_contour(a_values, z_values, b, particle_model(10.0**log_d2z),
                                     n_cap=n_cap)
            except TYPED_ERRORS:
                return
        # a failed shape is NaN in every cell of its column, each with a
        # diagnostic; every other cell is finite
        failed = {(i, j) for i, j, _ in grid.diagnostics}
        assert {tuple(c) for c in np.argwhere(np.isnan(grid.force))} == failed
        assert np.isfinite(np.delete(grid.force, [j for _, j in failed], axis=1)).all()

    @given(log_zp_over_b=st.floats(min_value=-50.0, max_value=50.0),
           log_b=st.floats(min_value=-250.0, max_value=250.0),
           log_d2z=st.floats(min_value=-300.0, max_value=307.0),
           log_lo_gap=st.floats(min_value=-6.0, max_value=4.0),
           log_span=st.floats(min_value=1e-3, max_value=4.0))
    @example(log_zp_over_b=0.0, log_b=0.0, log_d2z=0.0, log_lo_gap=-2.0, log_span=2.0)
    def test_critical_ratio_finite_or_typed_error(self, log_zp_over_b, log_b, log_d2z,
                                                  log_lo_gap, log_span):
        lo = 1.0 + 10.0**log_lo_gap
        hi = lo * 10.0**log_span
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                b = 10.0**log_b
                ratio = critical_ratio(b * 10.0**log_zp_over_b, b,
                                       particle_model(10.0**log_d2z), search=(lo, hi))
            except TYPED_ERRORS:
                return
        assert isinstance(ratio, float) and lo <= ratio <= hi

    def test_product_past_the_float_range_divides_back_into_it(self):
        # <d_z^2> times 4 M2 overflows, but U(0) = -C' 4 M2 / f^3 does not
        g = axial_greens(toroid_from_radii(1001.0, 1000.0))
        p = particle_model(1e307)
        (_, m2, *_), _ = _moments(g, "moment")
        with mpmath.workdps(30):
            c = mpmath.mpf(p.d2z) * mpmath.mpf(K_E_EV_NM) / mpmath.pi
            exact = float(-c * 4 * mpmath.mpf(m2) / mpmath.mpf(g.geometry.f) ** 3)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = vdw_energy(0.0, p, g)
        assert math.isfinite(exact)
        assert u == pytest.approx(exact, rel=4e-16)


# The horn-torus limit a -> b: R_n -> K0(n xi0) / I0(n xi0), so xi0 M0 and
# xi0^3 M2 tend to I_0 = 2 int_0^inf K0/I0 dx and I_2 = 2 int_0^inf x^2 K0/I0 dx
# (mpmath quadrature, recomputed by test_integrals).
HORN_I0 = 2.7353537239343278118
HORN_I2 = 1.2937785170986032972
# a/b - 1 down to 1e-6: the moment stream's recurrence in a/b - 1 keeps its
# digits as the hole closes.
HORN_GAPS = (1e-2, 1e-3, 1e-4, 1e-5, 1e-6)


class TestHornTorus:
    @pytest.fixture(scope="class")
    def horns(self):
        return [axial_greens(toroid_from_radii(1.0 + gap, 1.0), n_cap=100000)
                for gap in HORN_GAPS]

    def test_integrals(self):
        with mpmath.workdps(20):
            ratio = lambda x: mpmath.besselk(0, x) / mpmath.besseli(0, x)  # noqa: E731
            i0 = 2 * mpmath.quad(ratio, [0, 1, mpmath.inf])
            i2 = 2 * mpmath.quad(lambda x: x * x * ratio(x), [0, 1, mpmath.inf])
            assert abs(i0 / mpmath.mpf("2.7353537239343278118") - 1) < 1e-18
            assert abs(i2 / mpmath.mpf("1.2937785170986032972") - 1) < 1e-18

    def test_moments_approach_the_integrals_like_xi0_squared(self, horns):
        # xi0 M0 / I_0 - 1 -> +0.0371 xi0^2, xi0^3 M2 / I_2 - 1 -> -0.0881 xi0^2
        k0, k2 = [], []
        for g in horns:
            (m0, m2, *_), _ = _moments(g, "moment")
            xi = g.geometry.xi0
            k0.append((xi * m0 / HORN_I0 - 1.0) / xi**2)
            k2.append((xi**3 * m2 / HORN_I2 - 1.0) / xi**2)
        assert all(abs(k - 0.0371) < 2e-4 for k in k0), k0
        assert all(abs(k + 0.0881) < 2e-4 for k in k2), k2
        assert abs(k0[-1] - 0.0371) < 1e-5 and abs(k2[-1] + 0.0881) < 1e-5, (k0, k2)
        # the coefficients settle: over the last three gaps each spreads by
        # less than 2e-6, which a moment error of 2e-6 xi0^2 would exceed
        assert np.ptp(k0[-3:]) < 2e-6 and np.ptp(k2[-3:]) < 2e-6, (k0, k2)

    @pytest.mark.parametrize("z_over_b", [0.5, 1.0, 2.0, 5.0])
    def test_energy_and_force_approach_the_horn_forms(self, horns, particle, z_over_b):
        # U_horn = -C' (I_0 b / z^4 + 4 I_2 b^3 / z^6) and
        # F_horn = -2 C' (2 I_0 b / z^5 + 12 I_2 b^3 / z^7), C' = <d_z^2> K_E / pi,
        # both approached linearly in a/b - 1
        z, c = z_over_b, particle.d2z * K_E_EV_NM / math.pi
        u_horn = -c * (HORN_I0 / z**4 + 4.0 * HORN_I2 / z**6)
        f_horn = -2.0 * c * (2.0 * HORN_I0 / z**5 + 12.0 * HORN_I2 / z**7)
        for value, horn in ((vdw_energy, u_horn), (vdw_force, f_horn)):
            gaps = [abs(value(z, particle, g) / horn - 1.0) for g in horns]
            slopes = [math.log10(g0 / g1) for g0, g1 in zip(gaps, gaps[1:])]
            assert all(0.9 <= s <= 1.1 for s in slopes), (value.__name__, gaps)
            assert gaps[-1] < 1e-3


class TestResultOverflow:
    """1/r^3 and 1/r^4 with r ~ f overflow when a toroid far below 1 nm
    meets a large <d_z^2>: a typed error, never an inf or a warning."""

    @pytest.fixture
    def tiny(self):
        return axial_greens(toroid_from_radii(1.5e-100, 1e-100))

    def test_every_entry_point_raises_without_warnings(self, tiny):
        p = particle_model(1e300)
        calls = (
            lambda: vdw_energy(0.0, p, tiny),
            lambda: vdw_force(1e-100, p, tiny),
            lambda: force_profile([-1e-100, 0.0, 1e-100], p, tiny),
            lambda: sweep_contour([1.5e-100], [1e-100], 1e-100, p),
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for call in calls:
                with pytest.raises(ResultOverflowError, match="float64 range"):
                    call()

    def test_representable_energy_still_returned(self, tiny):
        # U ~ 1/f^3 ~ 1e300 eV fits, while F ~ 1/f^4 does not
        p = particle_model(1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u = vdw_energy(np.array([0.0, 1e-100]), p, tiny)
            assert np.all(np.isfinite(u)) and np.all(u < 0.0)
            assert vdw_force(0.0, p, tiny) == 0.0
            with pytest.raises(ResultOverflowError):
                vdw_force(1e-100, p, tiny)


class TestForceProfile:
    def test_profile_invariants(self, particle, greens51):
        half = np.linspace(0.0, 6.0, 301)[1:]
        z = np.concatenate([-half[::-1], [0.0], half])  # exactly symmetric
        prof = force_profile(z, particle, greens51)
        np.testing.assert_array_equal(prof.energy, prof.energy[::-1])
        np.testing.assert_array_equal(prof.force, -prof.force[::-1])
        assert prof.energy_scale == pytest.approx(
            abs(vdw_energy(0.0, particle, greens51))
        )
        assert prof.force_scale == pytest.approx(np.max(np.abs(prof.force)))
        # central differences reproduce the force at interior points
        fd = -(prof.energy[2:] - prof.energy[:-2]) / (z[2] - z[0])
        mask = np.abs(prof.force[1:-1]) > 1e-7
        np.testing.assert_allclose(fd[mask], prof.force[1:-1][mask], rtol=5e-3)


# Each series entry point, run on a/b = 1.01 with the term cap at its minimum
# of 8 (the series needs about 300 terms there).
STARVED_CALLS = {
    "vdw_energy": lambda g: vdw_energy(1.0, particle_model(1.0), g),
    "vdw_force": lambda g: vdw_force(1.0, particle_model(1.0), g),
    "force_profile": lambda g: force_profile(np.linspace(-1.0, 1.0, 5), particle_model(1.0), g),
    "gh_mixed_derivative": lambda g: gh_mixed_derivative(0.3, 0.5, g),
    "charge_interaction_energy": lambda g: charge_interaction_energy(0.4, g),
    "vh_potential": lambda g: vh_potential(
        ToroidalCoords(xi=0.0, eta=1.0), axial_source(0.4, g.geometry), g),
}


@pytest.mark.parametrize("name", sorted(STARVED_CALLS))
def test_truncation_error_contract(name):
    g = axial_greens(toroid_from_radii(1.01, 1.0), n_cap=8)
    with pytest.raises(TruncationError) as exc:
        STARVED_CALLS[name](g)
    assert math.isfinite(exc.value.partial_sum)
    assert math.isfinite(exc.value.bound) and exc.value.bound > 0.0
    assert exc.value.n_terms == 9  # n = 0..n_cap


def test_thin_hole_refused_at_its_cap_in_little_memory():
    # a/b = 1 + 1e-12 needs about 1e7 moment rows: the stream stops at the
    # cap with the tail bound it reached, holding one row of the shape
    g = axial_greens(toroid_from_radii(1.000000000001, 1.0))
    tracemalloc.start()
    try:
        with pytest.raises(TruncationError) as exc:
            vdw_force(1.0, particle_model(1.0), g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < exc.value.bound < math.inf and exc.value.n_terms == g.n_cap + 1
    assert peak < 1e6


# Each entry point that reads heights on the axis, as a call on the heights
# alone, and what it takes: any shape of heights, one height, or a non-empty
# 1-d grid.
AXIS_CALLS = {
    "vdw_energy": (lambda z, g: vdw_energy(z, particle_model(1.0), g), "any"),
    "vdw_force": (lambda z, g: vdw_force(z, particle_model(1.0), g), "any"),
    "force_profile": (lambda z, g: force_profile(z, particle_model(1.0), g).force, "any"),
    "charge_interaction_energy": (charge_interaction_energy, "any"),
    "gh_mixed_derivative": (lambda z, g: gh_mixed_derivative(z, z, g), "one"),
    "axial_source": (lambda z, g: axial_source(z, g.geometry).z_src, "one"),
    "bem_mixed_derivative": (lambda z, g: bem_mixed_derivative(z, z, g.geometry, 64), "any"),
    "sweep_contour": (
        lambda z, g: sweep_contour([5.0], z, 1.0, particle_model(1.0)).force[:, 0], "1-d"),
}


@pytest.mark.parametrize("name", sorted(AXIS_CALLS))
@pytest.mark.parametrize("shape", [(2, 3), (0,), (4,)], ids=str)
def test_axis_heights_keep_their_shape(name, shape, greens51):
    # an array of heights gives an array of its shape, or a ValueError
    # where the call takes other input; never numpy's TypeError or IndexError
    call, takes = AXIS_CALLS[name]
    z = np.linspace(-2.0, 3.0, math.prod(shape)).reshape(shape)
    if takes == "any" or takes == "1-d" and shape == (4,):
        assert np.shape(call(z, greens51)) == shape
    else:
        with pytest.raises(ValueError):
            call(z, greens51)


def test_charge_energy_needs_no_m2_terms():
    # The charge energy sums M0 alone.  At a/b = 1.01 M0 stops before M2, so
    # at every cap from M0's stop up to M2's the charge energy converges, to
    # the bits of the default cap, while the moments, and U with them, raise
    # TruncationError: charge_interaction_energy_info keeps its own M0 sum.
    geom, particle = toroid_from_radii(1.01, 1.0), particle_model(1.0)
    g = axial_greens(geom)
    want = charge_interaction_energy(0.4, g)
    m0_stop = charge_interaction_energy_info(0.4, g).n_used
    moments_stop = int(force_profile([0.0], particle, g).n_used[0])
    assert m0_stop < moments_stop
    for n_cap in range(m0_stop, moments_stop):
        starved = axial_greens(geom, n_cap=n_cap)
        assert charge_interaction_energy(0.4, starved) == want
        with pytest.raises(TruncationError):
            vdw_energy(0.4, particle, starved)
