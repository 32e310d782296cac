import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from torvdw.errors import (
    CoordinateSingularityError,
    DegenerateToroidError,
    PointAtInfinityError,
)
from torvdw.geometry import (
    ToroidalCoords,
    axis_eta_from_z,
    cartesian_to_toroidal,
    surface_rz,
    toroid_from_radii,
    toroidal_to_cartesian,
)


class TestToroidFromRadii:
    def test_three_four_five(self):
        geom = toroid_from_radii(5.0, 3.0)
        assert geom.f == pytest.approx(4.0, rel=1e-15)
        assert geom.cosh_xi0 == pytest.approx(5.0 / 3.0, rel=1e-15)

    def test_thin_ring(self):
        geom = toroid_from_radii(5.0, 1.0)
        assert geom.f == pytest.approx(math.sqrt(24.0), rel=1e-15)
        assert geom.f == pytest.approx(4.89898, rel=1e-5)
        assert geom.cosh_xi0 == pytest.approx(5.0, rel=1e-15)

    def test_degenerate(self):
        with pytest.raises(DegenerateToroidError):
            toroid_from_radii(5.0, 5.0)
        with pytest.raises(DegenerateToroidError):
            toroid_from_radii(3.0, 5.0)

    @pytest.mark.parametrize("a,b", [(0.0, 1.0), (5.0, -1.0), (-2.0, -3.0)])
    def test_nonpositive(self, a, b):
        with pytest.raises(ValueError):
            toroid_from_radii(a, b)

    @pytest.mark.parametrize(
        "a,b", [(math.nan, 1.0), (math.inf, 1.0), (5.0, math.nan), (math.inf, math.inf)]
    )
    def test_nonfinite(self, a, b):
        with pytest.raises(ValueError, match="finite"):
            toroid_from_radii(a, b)

    @pytest.mark.parametrize(
        "a,b", [(2e-200, 1e-200), (1e200, 1.0), (1e300, 1e-10), (1.0, 1e-310),
                (2e-162, 1e-162), (1e-160, 5e-161)]
    )
    def test_focal_scale_out_of_range(self, a, b):
        # f underflows to 0 or overflows (with xi0), cosh xi0 = a/b overflows,
        # or f^2 = (a - b)(a + b) is subnormal, so f has lost digits
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="focal scale"):
                toroid_from_radii(a, b)

    @pytest.mark.parametrize(
        "a,b", [(2e-150, 1e-150), (1e150, 1.0), (1e153, 1e-150), (2e-154, 1e-154)]
    )
    def test_extreme_in_range_radii_unchanged(self, a, b):
        geom = toroid_from_radii(a, b)
        assert geom.f == math.sqrt((a - b) * (a + b))
        assert geom.xi0 == math.log((a + geom.f) / b)
        assert geom.cosh_xi0 == a / b

    @given(
        b=st.floats(min_value=1e-3, max_value=1e3),
        excess=st.floats(min_value=1e-6, max_value=1e3),
    )
    def test_derived_invariants(self, b, excess):
        a = b * (1.0 + excess)
        geom = toroid_from_radii(a, b)
        assert geom.f**2 == pytest.approx((a - b) * (a + b), rel=1e-14)
        assert geom.cosh_xi0 == pytest.approx(a / b, rel=1e-14)
        assert geom.f / math.sinh(geom.xi0) == pytest.approx(b, rel=1e-12)


class TestForwardMap:
    def test_origin(self):
        f = 3.7
        x, y, z = toroidal_to_cartesian(ToroidalCoords(xi=0.0, eta=math.pi), f)
        assert x == 0.0 and y == 0.0
        assert abs(z) <= 1e-15 * f  # sin(pi) rounds to ~1e-16, not exactly 0

    @pytest.mark.parametrize("eta", [0.3, 1.2, 2.9, -2.0])
    def test_axis_height(self, eta):
        f = 2.5
        x, y, z = toroidal_to_cartesian(ToroidalCoords(xi=0.0, eta=eta), f)
        assert x == 0.0 and y == 0.0
        assert z == pytest.approx(f / math.tan(eta / 2.0), rel=1e-14)

    def test_focal_ring_limit(self):
        f = 2.0
        x, y, z = toroidal_to_cartesian(ToroidalCoords(xi=40.0, eta=1.0), f)
        assert math.hypot(x, y) == pytest.approx(f, rel=1e-12)
        assert abs(z) < 1e-12

    def test_point_at_infinity(self):
        with pytest.raises(PointAtInfinityError):
            toroidal_to_cartesian(ToroidalCoords(xi=0.0, eta=0.0), 1.0)


class TestInverseMap:
    def test_origin(self):
        c = cartesian_to_toroidal(0.0, 0.0, 0.0, 4.0)
        assert c.xi == 0.0
        assert c.eta == pytest.approx(math.pi)

    def test_positive_axis(self):
        f = 4.0
        for z in [0.5, 2.0, 10.0]:
            c = cartesian_to_toroidal(0.0, 0.0, z, f)
            assert c.xi == 0.0
            assert c.eta == pytest.approx(2.0 * math.atan(f / z), rel=1e-14)
            assert 0.0 < c.eta < math.pi

    def test_focal_ring_rejected(self):
        with pytest.raises(CoordinateSingularityError):
            cartesian_to_toroidal(4.0, 0.0, 0.0, 4.0)

    @given(
        xi=st.floats(min_value=1e-3, max_value=12.0),
        eta=st.floats(min_value=-math.pi + 1e-6, max_value=math.pi),
        phi=st.floats(min_value=0.0, max_value=2.0 * math.pi - 1e-9),
    )
    def test_round_trip(self, xi, eta, phi):
        f = 3.0
        r, y, z = toroidal_to_cartesian(ToroidalCoords(xi=xi, eta=eta), f)
        assert y == 0.0
        c1 = cartesian_to_toroidal(r, y, z, f)
        r2, y2, z2 = toroidal_to_cartesian(c1, f)
        scale = max(r, abs(z), f)
        assert abs(r2 - r) <= 1e-12 * scale
        assert y2 == 0.0
        assert abs(z2 - z) <= 1e-12 * scale
        # the azimuth is dropped: a turned point maps to the same (xi, eta)
        turned = cartesian_to_toroidal(r * math.cos(phi), r * math.sin(phi), z, f)
        r3, _, z3 = toroidal_to_cartesian(turned, f)
        assert abs(r3 - r) <= 1e-12 * scale
        assert abs(z3 - z) <= 1e-12 * scale


class TestAxisEta:
    def test_special_values(self):
        f = 4.0
        assert axis_eta_from_z(0.0, f) == pytest.approx(math.pi, rel=1e-15)
        assert axis_eta_from_z(f, f) == pytest.approx(math.pi / 2.0, rel=1e-15)

    def test_limits(self):
        f = 4.0
        assert 0.0 < axis_eta_from_z(1e12, f) < 1e-10
        assert 2.0 * math.pi - 1e-10 < axis_eta_from_z(-1e12, f) < 2.0 * math.pi

    def test_strictly_decreasing_and_continuous(self):
        f = 2.0
        zs = np.linspace(-50.0, 50.0, 4001)
        etas = np.array([axis_eta_from_z(z, f) for z in zs])
        assert np.all(np.diff(etas) < 0.0)
        assert np.max(np.abs(np.diff(etas))) < 0.1

    def test_requires_positive_f(self):
        with pytest.raises(ValueError):
            axis_eta_from_z(1.0, 0.0)


class TestSurfaceFamilies:
    def test_surface_equation(self, rng):
        geom = toroid_from_radii(5.0, 3.0)
        etas = rng.uniform(-math.pi, math.pi, size=100)
        r, z = surface_rz(geom, etas)
        resid = np.abs((r - geom.a) ** 2 + z**2 - geom.b**2)
        assert np.all(resid <= 1e-12 * geom.b**2)

    def test_calotte_equation(self):
        f = 4.0
        for eta0 in [0.5, 1.3, 2.4]:
            for xi in np.linspace(0.05, 5.0, 50):
                x, y, z = toroidal_to_cartesian(ToroidalCoords(xi=xi, eta=eta0), f)
                r = math.hypot(x, y)
                lhs = (z - f / math.tan(eta0)) ** 2 + r * r
                rhs = (f / math.sin(eta0)) ** 2
                assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_in_plane_curve(self):
        # on the central disk eta = pi the radius is r = f tanh(xi / 2)
        f = 3.0
        for xi in np.linspace(0.1, 6.0, 30):
            x, y, z = toroidal_to_cartesian(ToroidalCoords(xi=xi, eta=math.pi), f)
            assert abs(z) < 1e-14 * f
            assert math.hypot(x, y) == pytest.approx(
                f * math.tanh(xi / 2.0), rel=1e-13
            )


class TestCoordNormalization:
    def test_eta_reduced_to_half_open_interval(self):
        assert ToroidalCoords(xi=0.0, eta=-math.pi).eta == pytest.approx(math.pi)
        assert ToroidalCoords(xi=0.0, eta=3.0 * math.pi).eta == pytest.approx(math.pi)
        c = ToroidalCoords(xi=0.0, eta=2.0 * math.pi - 0.25)
        assert c.eta == pytest.approx(-0.25, abs=1e-12)

    def test_negative_xi_rejected(self):
        with pytest.raises(ValueError):
            ToroidalCoords(xi=-0.1, eta=0.0)

    @pytest.mark.parametrize("xi,eta", [(math.nan, 0.0), (0.0, math.nan), (math.inf, 1.0)])
    def test_nonfinite_rejected(self, xi, eta):
        with pytest.raises(ValueError, match="finite"):
            ToroidalCoords(xi=xi, eta=eta)
