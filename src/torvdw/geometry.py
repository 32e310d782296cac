"""Toroidal coordinates and the toroid parameterized by its two radii.

The problem is axisymmetric, so a point is (xi, eta), xi >= 0 and eta in
(-pi, pi], of the meridian half-plane phi = 0, at radius r and height z

    r = f sinh(xi) / (cosh(xi) - cos(eta)),  z = f sin(eta) / (same).

Surfaces of constant xi are tori centered on the origin; the surface
xi = xi0 has center radius a = f coth(xi0) and tube radius b = f csch(xi0):

    f = sqrt(a^2 - b^2),    cosh(xi0) = a / b.

xi = 0 is the symmetry axis, xi -> infinity the focal ring r = f in the
z = 0 plane.  eta = 0 is the plane with the hole r > f, eta = pi the disk
r < f.  On the axis, z = f cot(eta / 2).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .errors import (
    CoordinateSingularityError,
    DegenerateToroidError,
    PointAtInfinityError,
)

__all__ = [
    "ToroidGeometry",
    "ToroidalCoords",
    "axis_eta_from_z",
    "cartesian_to_toroidal",
    "surface_rz",
    "toroid_from_radii",
    "toroidal_to_cartesian",
]

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class ToroidGeometry:
    """A toroid described by its two radii (nm) and derived coordinates."""

    a: float         # center-circle radius
    b: float         # tube radius
    f: float         # focal scale, sqrt(a^2 - b^2)
    xi0: float       # surface coordinate
    cosh_xi0: float  # = a / b


def toroid_from_radii(a: float, b: float) -> ToroidGeometry:
    """Build the geometry from the center-circle radius a and tube radius b.

    Raises
    ------
    DegenerateToroidError
        If a <= b (the focal scale vanishes or turns imaginary).
    ValueError
        For non-positive or non-finite radii, and for radii whose focal
        scale f, xi0 or cosh(xi0) leaves the float range (f^2 = (a - b)(a + b)
        not finite or below the smallest normal float, where f loses digits).
    """
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError(f"radii must be finite, got a = {a}, b = {b}")
    if a <= 0.0 or b <= 0.0:
        raise ValueError(f"radii must be positive, got a = {a}, b = {b}")
    if a <= b:
        raise DegenerateToroidError(
            f"need a > b for a toroidal surface, got a = {a}, b = {b}"
        )
    f2 = (a - b) * (a + b)
    f = math.sqrt(f2)
    # e^{xi0} = cosh + sinh = (a + f)/b, exact in the same arithmetic that
    # makes f/sinh(xi0) = b round-trip to machine precision.
    xi0 = math.log((a + f) / b)
    cosh_xi0 = a / b
    if not (sys.float_info.min <= f2 < math.inf and xi0 < math.inf and cosh_xi0 < math.inf):
        raise ValueError(f"radii a = {a}, b = {b} give a squared focal scale f^2 = {f2}, "
                         f"xi0 = {xi0}, cosh xi0 = {cosh_xi0} outside the finite, "
                         "normal float range")
    return ToroidGeometry(a=a, b=b, f=f, xi0=xi0, cosh_xi0=cosh_xi0)


@dataclass(frozen=True)
class ToroidalCoords:
    """A point (xi, eta) of the half-plane phi = 0; eta is reduced to
    (-pi, pi] on construction."""

    xi: float
    eta: float

    def __post_init__(self):
        if not (math.isfinite(self.xi) and math.isfinite(self.eta)):
            raise ValueError(f"coordinates must be finite, got ({self.xi}, {self.eta})")
        if self.xi < 0.0:
            raise ValueError(f"xi must be >= 0, got {self.xi}")
        eta = math.remainder(self.eta, _TWO_PI)
        if eta <= -math.pi:
            eta += _TWO_PI
        object.__setattr__(self, "eta", eta)


def toroidal_to_cartesian(c: ToroidalCoords, f: float) -> tuple[float, float, float]:
    """Map (xi, eta) to the point (x, 0, z) of the half-plane phi = 0,
    lengths in the scale of f.

    Raises
    ------
    PointAtInfinityError
        At (xi, eta) = (0, 0), where the denominator vanishes.
    """
    # cosh(xi) - cos(eta) = 2 sinh^2(xi/2) + 2 sin^2(eta/2), stable near 0.
    denom = 2.0 * math.sinh(0.5 * c.xi) ** 2 + 2.0 * math.sin(0.5 * c.eta) ** 2
    if denom == 0.0:
        raise PointAtInfinityError("(xi, eta) = (0, 0) is the point at infinity")
    return f * math.sinh(c.xi) / denom, 0.0, f * math.sin(c.eta) / denom


def cartesian_to_toroidal(x: float, y: float, z: float, f: float) -> ToroidalCoords:
    """Inverse map to the (xi, eta) of r = hypot(x, y); the azimuth is
    dropped.  The input must not lie on the focal ring r = f, z = 0.

    eta comes from atan2(2 f z, r^2 + z^2 - f^2), which is exact for the
    forward map and keeps full precision where arccos-based inversions
    degrade; on-axis points get eta = 2 atan2(f, z) reduced to (-pi, pi].
    """
    r = math.hypot(x, y)
    d1 = math.hypot(r + f, z)
    d2 = math.hypot(r - f, z)
    if d2 == 0.0:
        raise CoordinateSingularityError(
            "point lies on the focal ring r = f, z = 0"
        )
    t = 2.0 * f * r / (r * r + z * z + f * f)
    xi = math.atanh(t) if t < 0.999 else math.log(d1 / d2)
    eta = math.atan2(2.0 * f * z, (r - f) * (r + f) + z * z)
    return ToroidalCoords(xi=xi, eta=eta)


def axis_eta_from_z(z: float, f: float) -> float:
    """eta of the on-axis point at height z: the continuous branch in (0, 2 pi).

    Inverts z = f cot(eta / 2); strictly decreasing in z with z = 0 -> pi.
    The reduction to (-pi, pi] happens when a ToroidalCoords is built; every
    potential series is 2 pi periodic in eta, so both branches agree there.

    It stays on this branch because it gives axial_source its eta_src, and
    the other would move V_H's bits for sources below the midplane.  Axis
    field points need the branch of `potential --cut axis`,
    math.copysign(2 atan2(f, |z|), z): from this one, the V_H prefactor's
    2 sin^2(eta / 2) cancels near 2 pi, and at a/b = 1.01 V_H at z = +1e5
    and -1e5 differs by 3.1e-12 relative, where the exact values are equal.
    """
    if f <= 0.0:
        raise ValueError(f"focal scale must be positive, got f = {f}")
    return 2.0 * math.atan2(f, z)


def _axis_heights(z, what: str) -> np.ndarray:
    """Heights on the symmetry axis as a float array of z's own shape, 0-d
    for a scalar; a non-finite entry raises ValueError naming `what`."""
    heights = np.asarray(z, dtype=float)
    if not np.all(np.isfinite(heights)):
        raise ValueError(f"{what} must be finite")
    return heights


def surface_rz(geom: ToroidGeometry, eta):
    """(r, z) of the surface point(s) at angle eta on xi = xi0; vectorized."""
    eta = np.asarray(eta, dtype=float)
    denom = geom.cosh_xi0 - np.cos(eta)
    sinh_xi0 = geom.f / geom.b  # exact: csch(xi0) = b / f
    r = geom.f * sinh_xi0 / denom
    z = geom.f * np.sin(eta) / denom
    return r, z
