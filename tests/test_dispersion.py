import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from torvdw import axial_greens, axial_source, toroid_from_radii, ToroidalCoords
from torvdw.dispersion import (
    _energy_grid,
    _force_grid,
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
    TruncationError,
    UnsupportedConfigurationError,
)
from torvdw.geometry import axis_eta_from_z
from torvdw.greens import _vh_reduced, charge_interaction_energy, vh_potential
from torvdw.units import DEBYE2_TO_E2NM2, K_E_EV_NM

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

CRITICAL_RATIOS_B1 = {  # bisection over a/b at 1e-4 relative resolution
    1.0: 3.552813570774823,
    2.0: 4.398413168788663,
    3.0: 5.484673645109743,
}


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

    def test_isotropic_rejected(self):
        with pytest.raises(UnsupportedConfigurationError):
            particle_model(1.0, d2x=1.0, d2y=1.0)


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


class TestCriticalRatio:
    def test_goldens_and_monotonicity(self, particle):
        values = [critical_ratio(z_p, 1.0, particle) for z_p in (1.0, 2.0, 3.0)]
        for v, z_p in zip(values, (1.0, 2.0, 3.0)):
            assert v == pytest.approx(CRITICAL_RATIOS_B1[z_p], rel=5e-4)
        assert values[0] < values[1] < values[2]

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

    def test_range_exceeded_low(self, particle):
        with pytest.raises(RangeExceededError) as exc:
            critical_ratio(1.0, 1.0, particle, search=(6.0, 1000.0))
        assert exc.value.bound == pytest.approx(6.0)

    def test_input_validation(self, particle):
        with pytest.raises(ValueError):
            critical_ratio(-1.0, 1.0, particle)
        with pytest.raises(ValueError):
            critical_ratio(1.0, 1.0, particle, search=(0.5, 10.0))


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

    def test_validation(self, particle):
        with pytest.raises(ValueError):
            sweep_contour([2.0], [], 1.0, particle)
        with pytest.raises(ValueError):
            sweep_contour([0.5], [1.0], 1.0, particle)


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
            lambda: sweep_contour([5.0], grid, 1.0, particle),
            lambda: critical_ratio(z, 1.0, particle),
            lambda: find_force_zero(particle, greens51, (0.1, z)),
        ):
            with pytest.raises(ValueError, match="finite"):
                call()


class TestLargeHeights:
    Z_FAR = 1e80  # (f^2 + z^2)^4 overflows float64 here

    def _reference(self, g, p, z, n_energy, n_force):
        """The truncated closed forms of U and F at 50 digits."""
        with mpmath.workdps(50):
            f, z = mpmath.mpf(g.geometry.f), mpmath.mpf(z)
            k_e, d2z = mpmath.mpf(K_E_EV_NM), mpmath.mpf(p.d2z)
            w = [mpmath.mpf(x) * (1 if n == 0 else 2) for n, x in enumerate(g.table.ratio)]
            s = f * f + z * z
            energy = -(d2z * 2 * mpmath.pi * k_e) * f / (2 * mpmath.pi**2) * sum(
                w[n] * (z * z + 4 * n * n * f * f) for n in range(n_energy + 1)
            ) / s**3
            force = 2 * (d2z * k_e / mpmath.pi) * f * z * sum(
                w[n] * ((1 - 12 * n * n) * f * f - 2 * z * z) for n in range(n_force + 1)
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
        z = np.array([self.Z_FAR])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            u, energy_sums = _energy_grid(z, p, greens51)
            force, force_sums = _force_grid(z, p, greens51)
            assert vdw_energy(self.Z_FAR, p, greens51) == u[0]
            assert vdw_force(self.Z_FAR, p, greens51) == force[0]
        u_ref, f_ref = self._reference(greens51, p, self.Z_FAR,
                                       energy_sums.n_used[0], force_sums.n_used[0])
        assert u[0] < 0.0 and force[0] < 0.0
        assert float(abs((u[0] - u_ref) / u_ref)) <= 1e-12
        assert float(abs((force[0] - f_ref) / f_ref)) <= 1e-12


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
