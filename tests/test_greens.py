import math
import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import example, given, strategies as st

from torvdw import (
    ToroidalCoords,
    axial_greens,
    axial_source,
    charge_interaction_energy,
    inverse_distance_series,
    surface_residual,
    toroid_from_radii,
    toroidal_to_cartesian,
    vh_potential,
)
from torvdw import greens
from torvdw.errors import (
    CoincidentPointsError,
    FarSourceWarning,
    OutOfRegionError,
    ResultOverflowError,
    TruncationError,
)
from torvdw.geometry import axis_eta_from_z
from torvdw.greens import charge_interaction_energy_info, vh_potential_info
from torvdw.units import K_E_EV_NM

from oracles import truncated_sum_reference
from whole_range import FLOATS_MAX, HEIGHTS, TYPED_ERRORS


@st.composite
def term_matrices(draw):
    """(terms, decay): a term matrix of 1-9 rows and 1-5 columns and a
    falling decay envelope, from entries of a few magnitudes and exact
    zeros, so that columns both stop and do not."""
    rows, cols = draw(st.integers(1, 9)), draw(st.integers(1, 5))
    entry = st.sampled_from([0.0, 1e-30, 1e-14, 1e-13, 1e-12, 0.5, 1.0, 3.0, 1e20])
    sign = st.sampled_from([-1.0, 1.0])
    terms = np.array([[draw(sign) * draw(entry) for _ in range(cols)] for _ in range(rows)])
    return terms, np.sort([draw(entry) for _ in range(rows)])[::-1]


def axis_point(z, f):
    return ToroidalCoords(xi=0.0, eta=axis_eta_from_z(z, f))


class TestInverseDistance:
    def test_matches_cartesian_distance(self, geom53, greens53, rng):
        worst = 0.0
        for _ in range(100):
            field = ToroidalCoords(
                xi=rng.uniform(0.15, 4.0), eta=rng.uniform(-math.pi, math.pi)
            )
            src = axial_source(rng.uniform(-5 * geom53.f, 5 * geom53.f), geom53)
            x, y, z = toroidal_to_cartesian(field, geom53.f)
            direct = 1.0 / math.hypot(math.hypot(x, y), z - src.z_src)
            series = inverse_distance_series(field, src, greens53)
            worst = max(worst, abs(series - direct) / direct)
        assert worst <= 1e-10

    @pytest.mark.parametrize("zf,zs", [(2.0, -1.0), (10.0, 0.0), (0.5, 3.0)])
    def test_axis_to_axis(self, geom53, greens53, zf, zs):
        field = axis_point(zf, geom53.f)
        src = axial_source(zs, geom53)
        value = inverse_distance_series(field, src, greens53)
        assert value == pytest.approx(1.0 / abs(zf - zs), rel=1e-10)

    def test_coincident_points_rejected(self, geom53, greens53):
        src = axial_source(1.5, geom53)
        with pytest.raises(CoincidentPointsError):
            inverse_distance_series(axis_point(1.5, geom53.f), src, greens53)

    def test_disk_point_against_cartesian(self, geom53, greens53):
        # point on the central disk at r = f/2: xi = 2 artanh(1/2)
        field = ToroidalCoords(xi=2.0 * math.atanh(0.5), eta=math.pi)
        src = axial_source(0.0, geom53)
        value = inverse_distance_series(field, src, greens53)
        assert value == pytest.approx(2.0 / geom53.f, rel=1e-10)

    def test_point_at_infinity_field(self, geom53, greens53):
        # (xi, eta) = (0, 0) is the point at infinity: 1/distance -> 0
        field = ToroidalCoords(xi=0.0, eta=0.0)
        src = axial_source(1.0, geom53)
        assert inverse_distance_series(field, src, greens53) == 0.0

    def test_near_axis_truncation_error_carries_payload(self, geom53):
        g = axial_greens(geom53, n_cap=300)
        field = ToroidalCoords(xi=1e-4, eta=2.0)
        src = axial_source(1.0, geom53)
        with pytest.raises(TruncationError) as exc:
            inverse_distance_series(field, src, g)
        assert math.isfinite(exc.value.partial_sum)
        assert exc.value.bound > 0.0
        assert exc.value.n_terms == 301  # n = 0..n_cap inclusive


class TestVhPotential:
    def test_boundary_condition_on_surface(self, rng):
        # V_H on the surface must cancel the Coulomb term
        for a, b in [(5.0, 3.0), (5.0, 2.0), (5.0, 1.0)]:
            geom = toroid_from_radii(a, b)
            g = axial_greens(geom)
            src = axial_source(1.1, geom)
            for eta in rng.uniform(-math.pi, math.pi, size=12):
                field = ToroidalCoords(xi=geom.xi0, eta=float(eta))
                x, y, z = toroidal_to_cartesian(field, geom.f)
                coulomb = K_E_EV_NM / math.hypot(math.hypot(x, y), z - src.z_src)
                assert vh_potential(field, src, g) == pytest.approx(
                    -coulomb, rel=1e-8
                )

    def test_even_for_source_at_origin(self, geom51, greens51):
        src = axial_source(0.0, geom51)
        for z in [0.7, 2.0, 6.0, 20.0]:
            vp = vh_potential(axis_point(z, geom51.f), src, greens51)
            vm = vh_potential(axis_point(-z, geom51.f), src, greens51)
            assert vp == pytest.approx(vm, rel=1e-13)

    def test_asymmetric_source_skews_toward_source(self, geom51, greens51):
        src = axial_source(3.0, geom51)
        for z in [1.0, 2.0, 4.0, 8.0]:
            v_near = vh_potential(axis_point(+z, geom51.f), src, greens51)
            v_far = vh_potential(axis_point(-z, geom51.f), src, greens51)
            assert abs(v_near) > abs(v_far)

    def test_decays_monotonically_far_out(self, geom51, greens51):
        src = axial_source(0.0, geom51)
        zs = np.geomspace(2.0 * geom51.a, 100.0 * geom51.a, 25)
        vals = np.array(
            [abs(vh_potential(axis_point(z, geom51.f), src, greens51)) for z in zs]
        )
        assert np.all(np.diff(vals) < 0.0)
        # the induced charge is a localized distribution: V_H ~ 1/z far out
        assert vals[-1] < 1.2 * vals[0] * (zs[0] / zs[-1])

    def test_in_plane_profile_finite_even_and_monotone(self):
        geom = toroid_from_radii(4.0, 1.0)
        g = axial_greens(geom)
        src = axial_source(0.0, geom)
        rs = np.linspace(0.0, (geom.a - geom.b) * 0.999, 24)
        vals = []
        for r in rs:
            xi = 2.0 * math.atanh(r / geom.f) if r > 0.0 else 0.0
            vals.append(vh_potential(ToroidalCoords(xi=xi, eta=math.pi), src, g))
        vals = np.array(vals)
        assert np.all(np.isfinite(vals))
        assert np.all(vals < 0.0)
        # even in the signed transverse coordinate by axisymmetry; the
        # magnitude grows from the axis toward the inner surface
        assert np.all(np.diff(np.abs(vals)) > 0.0)

    @given(log_gap=st.floats(min_value=-5.0, max_value=6.0),  # log10(a/b - 1)
           log_b=st.floats(min_value=-100.0, max_value=100.0),
           height=HEIGHTS,
           points=st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.1),  # xi / xi0
                                     st.floats(min_value=-math.pi, max_value=math.pi)),
                           min_size=1, max_size=3),
           n_cap=st.sampled_from([8, 60, 2000]),
           charge=st.one_of(st.just(1.0), st.floats(-FLOATS_MAX, FLOATS_MAX)))
    @example(log_gap=0.6, log_b=-3.0, height=(0.0, False), points=[(0.0, 3.0)], n_cap=2000,
             charge=1e308)
    def test_whole_range_finite_or_typed_error(self, log_gap, log_b, height, points, n_cap,
                                               charge):
        # finite values or a typed error, for the potential and the charge
        # energy; the only warning is FarSourceWarning for a source beyond
        # FAR_SOURCE_FACTOR f, once per call
        b = 10.0**log_b
        geom = toroid_from_radii((1.0 + 10.0**log_gap) * b, b)
        g = axial_greens(geom, n_cap=n_cap)
        z_src = height[0] * b if height[1] else height[0]
        fields = [ToroidalCoords(xi=frac * geom.xi0, eta=eta) for frac, eta in points]
        values, calls = [], [
            lambda: [vh_potential(fields[0], src, g), *vh_potential(fields, src, g)],
            lambda: [charge_interaction_energy(z_src, g, charge)]]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                src = axial_source(z_src, geom, charge)
            except TYPED_ERRORS:
                calls = []
            for call in calls:
                try:
                    values += call()
                except TYPED_ERRORS:
                    pass
        assert all(math.isfinite(v) for v in values)
        far = abs(z_src) > greens.FAR_SOURCE_FACTOR * geom.f
        assert [w.category for w in caught] == [FarSourceWarning] * (2 if far else 0)

    def test_out_of_region(self, geom51, greens51):
        src = axial_source(0.0, geom51)
        with pytest.raises(OutOfRegionError):
            vh_potential(
                ToroidalCoords(xi=1.5 * geom51.xi0, eta=1.0), src, greens51
            )

    def test_far_source_warns(self, geom51):
        with pytest.warns(FarSourceWarning):
            axial_source(1e7 * geom51.f, geom51)

    @pytest.mark.parametrize("z_src", [math.nan, math.inf, -math.inf])
    def test_nonfinite_source_rejected(self, geom51, greens51, z_src):
        with pytest.raises(ValueError, match="finite"):
            axial_source(z_src, geom51)
        with pytest.raises(ValueError, match="finite"):
            charge_interaction_energy(z_src, greens51)


class TestChargeEnergy:
    def test_negative_even_and_peaked_at_origin(self, greens51):
        u0 = charge_interaction_energy(0.0, greens51)
        assert u0 < 0.0
        last = abs(u0)
        for z in [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]:
            up = charge_interaction_energy(z, greens51)
            um = charge_interaction_energy(-z, greens51)
            assert up == pytest.approx(um, rel=1e-13)
            assert up < 0.0
            assert abs(up) < last
            last = abs(up)

    def test_lorentzian_profile(self, geom51, greens51):
        # the own-position series collapses: U(z)/U(0) = f^2 / (f^2 + z^2)
        u0 = charge_interaction_energy(0.0, greens51)
        f2 = geom51.f**2
        for z in [0.3, 1.7, 5.0, 12.0]:
            ratio = charge_interaction_energy(z, greens51) / u0
            assert ratio == pytest.approx(f2 / (f2 + z * z), rel=1e-12)

    def test_charge_scaling(self, greens51):
        u1 = charge_interaction_energy(2.0, greens51, charge=1.0)
        u3 = charge_interaction_energy(2.0, greens51, charge=3.0)
        assert u3 == pytest.approx(9.0 * u1, rel=1e-14)

    @pytest.mark.parametrize("charge", [math.nan, math.inf, -math.inf])
    def test_non_finite_charge_rejected(self, geom51, greens51, charge):
        with pytest.raises(ValueError, match="charge must be finite"):
            axial_source(1.0, geom51, charge=charge)
        with pytest.raises(ValueError, match="charge must be finite"):
            charge_interaction_energy(1.0, greens51, charge=charge)

    def test_charge_past_the_square_root_of_the_float_range(self):
        # q^2 = 1e320 overflows, the energy -1.17e170 does not
        g = axial_greens(toroid_from_radii(2e150, 1e150))
        u = charge_interaction_energy(0.0, g, charge=1e160)
        assert u == pytest.approx(charge_interaction_energy(0.0, g) * 1e160 * 1e160,
                                  rel=1e-15)
        assert u == pytest.approx(-1.1671730611993e170, rel=1e-13)

    def test_results_past_the_float_range_raise(self):
        g = axial_greens(toroid_from_radii(5e-3, 1e-3))
        src = axial_source(0.0, g.geometry, charge=1e308)
        with pytest.raises(ResultOverflowError, match="potential"):
            vh_potential(ToroidalCoords(0.0, 3.0), src, g)
        with pytest.raises(ResultOverflowError, match="potential"):
            vh_potential([ToroidalCoords(0.0, 3.0)], src, g)
        with pytest.raises(ResultOverflowError, match="energy"):
            charge_interaction_energy(np.array([0.0, 1.0]), g, charge=-1e308)


class TestSurfaceResidual:
    def test_default_tolerance(self, geom53, greens53):
        src = axial_source(0.7, geom53)
        assert surface_residual(src, greens53, 48) <= 1e-8

    def test_decreases_with_tighter_tolerance(self, geom53):
        src = axial_source(0.7, geom53)
        residuals = [
            surface_residual(src, axial_greens(geom53, rel_tol=tol), 32)
            for tol in (1e-6, 1e-9, 1e-12)
        ]
        assert residuals[0] > residuals[1] > residuals[2]

    def test_near_degenerate_geometry(self):
        geom = toroid_from_radii(5.0, 5.0 / 1.01)  # a/b = 1.01
        g = axial_greens(geom, n_cap=5000)
        src = axial_source(0.0, geom)
        assert surface_residual(src, g, 32) <= 1e-6

    def test_sample_count_validated(self, geom53, greens53):
        with pytest.raises(ValueError):
            surface_residual(axial_source(0.0, geom53), greens53, 4)
        # 8.5 would sample 9 points at a spacing of 2 pi / 8.5
        with pytest.raises(TypeError):
            surface_residual(axial_source(0.0, geom53), greens53, n_samples=8.5)


class TestConcurrency:
    def test_shared_evaluator_is_thread_safe(self, geom53, greens53):
        src = axial_source(0.9, geom53)
        fields = [
            ToroidalCoords(xi=0.3 + 0.05 * k, eta=-2.0 + 0.17 * k) for k in range(24)
        ]
        serial = [inverse_distance_series(fld, src, greens53) for fld in fields]
        with ThreadPoolExecutor(max_workers=8) as pool:
            parallel = list(
                pool.map(lambda fld: inverse_distance_series(fld, src, greens53), fields)
            )
        assert parallel == serial


class TestDiagnostics:
    def test_info_reports_term_count(self, geom53, greens53):
        src = axial_source(0.0, geom53)
        info = vh_potential_info(axis_point(1.0, geom53.f), src, greens53)
        assert info.n_used >= 3
        assert info.n_used <= greens53.table.n_max
        assert info.value == vh_potential(axis_point(1.0, geom53.f), src, greens53)


def _mixed_points(geom):
    """Axis, central-plane, surface and interior field points."""
    f = geom.f
    pts = [ToroidalCoords(xi=0.0, eta=axis_eta_from_z(z, f)) for z in np.linspace(-20, 20, 41)]
    pts += [ToroidalCoords(xi=2.0 * math.atanh(r / f), eta=math.pi)
            for r in np.linspace(0.0, (geom.a - geom.b) * (1.0 - 1e-9), 31)]
    pts += [ToroidalCoords(xi=geom.xi0, eta=float(e)) for e in np.linspace(-3.0, 3.0, 12)]
    pts += [ToroidalCoords(xi=geom.xi0 * u, eta=e)
            for u, e in [(0.3, 0.4), (0.9, -2.5), (0.999, 3.1)]]
    return pts


class TestArrayCalls:
    """An array call returns exactly what one scalar call per point returns."""

    RATIOS = [1.3, 5.0 / 3.0, 5.0, 20.0]

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_vh_potential_info(self, ratio):
        geom = toroid_from_radii(ratio, 1.0)
        g = axial_greens(geom)
        src = axial_source(0.35, geom, charge=-2.0)
        pts = _mixed_points(geom)
        info = vh_potential_info(pts, src, g)
        scalar = [vh_potential_info(pt, src, g) for pt in pts]
        assert isinstance(info.value, np.ndarray) and info.value.shape == (len(pts),)
        assert info.value.tolist() == [s.value for s in scalar]
        assert info.n_used.tolist() == [s.n_used for s in scalar]
        assert vh_potential(pts, src, g).tolist() == [s.value for s in scalar]
        assert isinstance(scalar[0].value, float) and isinstance(scalar[0].n_used, int)

    @pytest.mark.parametrize("ratio", RATIOS)
    def test_charge_interaction_energy(self, ratio):
        g = axial_greens(toroid_from_radii(ratio, 1.0))
        heights = np.concatenate([np.linspace(-30.0, 30.0, 121), [1e-300, 4e3]])
        info = charge_interaction_energy_info(heights, g, charge=1.5)
        scalar = [charge_interaction_energy_info(h, g, charge=1.5) for h in heights]
        assert info.value.tolist() == [s.value for s in scalar]
        assert info.n_used.tolist() == [s.n_used for s in scalar]
        assert charge_interaction_energy(heights, g, 1.5).tolist() == info.value.tolist()
        assert isinstance(charge_interaction_energy(2.0, g), float)

    def test_empty_sequence(self, geom51, greens51):
        info = vh_potential_info([], axial_source(0.0, geom51), greens51)
        assert info.value.shape == (0,) and info.n_used.shape == (0,)


class TestTruncationRule:
    @pytest.mark.parametrize("policy", [{"rel_tol": 0.0}, {"rel_tol": 1.0}, {"n_cap": 7}])
    def test_policy_out_of_bounds_refused(self, geom51, policy):
        with pytest.raises(ValueError, match=next(iter(policy))):
            axial_greens(geom51, **policy)

    @pytest.mark.parametrize("n_cap", [8.5, math.inf, "8"])
    def test_cap_not_an_integer_refused(self, geom51, n_cap):
        # not truncated to 8, and no OverflowError from int(inf)
        with pytest.raises(TypeError):
            axial_greens(geom51, n_cap=n_cap)

    def test_tail_estimate_of_failed_column(self):
        # column 0 converges; column 1 has ratio 1/2 at its end, column 2 a
        # zero before its last term
        terms = np.array([[1.0, 1.0, 1.0],
                          [1e-20, 0.5, 0.0],
                          [0.0, 0.25, 0.0],
                          [0.0, 0.125, 0.25]])
        decay = np.array([1.0, 1e-20, 1e-21, 1e-22])
        sums, stops = greens._truncated_sum(terms[:, :1], decay, 1e-12, "test")
        assert sums.tolist() == [1.0 + 1e-20] and stops.tolist() == [3]
        with pytest.raises(TruncationError, match="test series not converged after 4 terms") as exc:
            greens._truncated_sum(terms, decay, 1e-12, "test")
        assert exc.value.partial_sum == 1.875
        assert exc.value.bound == 0.125  # |t_N| rho / (1 - rho), rho = 1/2
        assert exc.value.n_terms == 4
        with pytest.raises(TruncationError) as exc:
            greens._truncated_sum(terms[:, 2:], decay, 1e-12, "test")
        assert exc.value.partial_sum == 1.25
        assert exc.value.bound == 0.25  # rho = 0.5 when t_(N-1) = 0

    @staticmethod
    def _outcome(call):
        try:
            sums, stops = call()
        except TruncationError as exc:
            return ("error", str(exc), repr(exc.partial_sum), repr(exc.bound), exc.n_terms)
        except ValueError as exc:  # the tail estimate of a one-row column
            return ("value error", str(exc))
        return ("sums", sums.dtype.str, sums.tobytes(), stops.dtype.str, stops.tobytes())

    @given(case=term_matrices(), rel_tol=st.sampled_from([1e-12, 1e-3, 0.5]))
    @example(case=(np.array([[2.0]]), np.array([1.0])), rel_tol=1e-12)  # one row
    @example(case=(np.array([[1.0], [-1.0], [0.0], [0.0], [0.0]]),  # zero partial sums
                   np.array([1.0, 1e-20, 1e-21, 1e-22, 1e-23])), rel_tol=1e-12)
    def test_same_bits_as_the_two_call_rule(self, case, rel_tol):
        terms, decay = case
        assert self._outcome(lambda: greens._truncated_sum(terms, decay, rel_tol, "test")) \
            == self._outcome(lambda: truncated_sum_reference(terms, decay, rel_tol, "test"))
