"""Electrostatics of a point charge on the axis of a grounded toroid.

The potential outside the conductor splits into the bare Coulomb term and
a homogeneous part V_H created by the induced surface charge.  With the
source on the axis (xi' = 0, eta' from its height z') and the surface at
xi = xi0, V_H has the separable expansion

    V_H(xi, eta) = -(q / 4 pi^2 eps0 f) sqrt(cosh xi - cos eta)
                   * sqrt(1 - cos eta')
                   * sum_n (2 - delta_n0) cos[n (eta - eta')]
                     Q_{n-1/2}(cosh xi0) P_{n-1/2}(cosh xi) / P_{n-1/2}(cosh xi0)

valid for 0 <= xi <= xi0, which by construction cancels the Coulomb
potential on the surface.  It, and the expansion of the bare inverse
distance used for self-validation (Q at the field argument, P at 1), are
columns of specfun's series stream, summed by parts with no table.

Everything internal works in reduced potential V / (K_E q), units 1/nm.
"""

from __future__ import annotations

import functools
import math
import operator
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import (
    CoincidentPointsError,
    FarSourceWarning,
    OutOfRegionError,
    OverflowHorizonError,
    ResultOverflowError,
    TruncationError,
)
from .geometry import (
    ToroidGeometry,
    ToroidalCoords,
    _axis_heights,
    _half_chord,
    axis_eta_from_z,
    surface_rz,
)
from .specfun import (Z_MIN_OFFSET, HarmonicTable, _series_stream, harmonic_table,
                      legendre_p_half, toroidal_seeds)
from .units import K_E_EV_NM

__all__ = [
    "AxialGreens",
    "AxialSource",
    "SeriesInfo",
    "axial_greens",
    "axial_source",
    "charge_interaction_energy",
    "charge_interaction_energy_info",
    "inverse_distance_series",
    "surface_residual",
    "vh_potential",
    "vh_potential_info",
]

#: The default truncation of every series: relative tolerance and term cap.
REL_TOL = 1e-12
N_CAP = 2000

#: |z_src| beyond this multiple of f is physically a detached source, whose
#: induced potential is vanishingly small.
FAR_SOURCE_FACTOR = 1e6


@dataclass(frozen=True)
class AxialSource:
    """Point charge on the symmetry axis.

    z_src in nm, charge in elementary charges; eta_src is the continuous
    on-axis branch 2 atan2(f, z_src) in (0, 2 pi).
    """

    z_src: float
    eta_src: float
    charge: float


def _checked_source(z_src, charge, f: float) -> tuple[np.ndarray, float]:
    """(heights, charge) as a float array and a float; a non-finite height
    or charge is refused, and heights beyond FAR_SOURCE_FACTOR f draw one
    FarSourceWarning."""
    heights, charge = _axis_heights(z_src, "source height"), float(charge)
    if not math.isfinite(charge):
        raise ValueError(f"charge must be finite, got {charge}")
    if np.any(np.abs(heights) > FAR_SOURCE_FACTOR * f):
        warnings.warn(f"source at |z| = {np.max(np.abs(heights))} nm is beyond "
                      f"{FAR_SOURCE_FACTOR:g} focal lengths; the induced potential "
                      "is vanishingly small", FarSourceWarning, stacklevel=3)
    return heights, charge


def _in_range(value, what: str):
    """value, or ResultOverflowError if it left the float64 range."""
    if not np.isfinite(value).all():
        raise ResultOverflowError(f"the {what} exceeds the float64 range "
                                  "for this charge and toroid")
    return value


def axial_source(z_src: float, geom: ToroidGeometry, charge: float = 1.0) -> AxialSource:
    """Place a point charge on the axis of the given toroid.

    Raises
    ------
    ValueError
        For a non-finite height or charge, or an array of heights.
    """
    heights, charge = _checked_source(z_src, charge, geom.f)
    if heights.ndim:
        raise ValueError("axial_source places one charge; got an array of heights")
    z_src = float(heights)
    return AxialSource(z_src=z_src, eta_src=axis_eta_from_z(z_src, geom.f), charge=charge)


@dataclass(frozen=True)
class AxialGreens:
    """Geometry and truncation policy; the ratio table at cosh(xi0), the
    shape's seeds and its moments are each computed on first use and kept."""

    geometry: ToroidGeometry
    rel_tol: float
    n_cap: int

    @functools.cached_property
    def table(self) -> HarmonicTable:
        geom = self.geometry
        return harmonic_table(geom.cosh_xi0, _table_size(geom.xi0, self.rel_tol, self.n_cap))

    @functools.cached_property
    def _shape(self) -> tuple:
        geom = self.geometry  # delta = a/b - 1 from the radii
        return (*toroidal_seeds(geom.cosh_xi0), (geom.a - geom.b) / geom.b)

    @functools.cached_property
    def _stream(self) -> tuple:
        return _series_stream(self._shape, self.rel_tol, self.n_cap)


def _table_size(xi: float, rel_tol: float, n_cap: int) -> int:
    """n_max at xi for a checked policy: e^{-14} past rel_tol for terms that
    decay like e^{-n xi}, within the float64 horizon of the ratio entries."""
    return max(4, min(n_cap, math.ceil((14.0 - math.log(rel_tol)) / xi) + 16, int(330.0 / xi)))


def axial_greens(geom: ToroidGeometry, rel_tol: float = REL_TOL,
                 n_cap: int = N_CAP) -> AxialGreens:
    """Build the evaluator for the given toroid and truncation policy; an
    n_cap that is not an integer raises TypeError."""
    if not 0.0 < rel_tol < 1.0:
        raise ValueError(f"rel_tol must lie in (0, 1), got {rel_tol}")
    if operator.index(n_cap) < 8:
        raise ValueError(f"n_cap must be at least 8, got {n_cap}")
    return AxialGreens(geom, float(rel_tol), operator.index(n_cap))


class SeriesInfo(NamedTuple):
    """A series value and its terms used; arrays for an array of points."""

    value: float
    n_used: int


def _moments(g: AxialGreens, what: str, needs: int = 2) -> tuple[tuple, int]:
    """(M0, M2, D0, D2) of g's shape, each D over its moment's rows, and the
    last row summed for the first `needs` of M0 and M2; the first of those
    that did not converge raises TruncationError, labelled by `what`, with
    the tail bound reached."""
    value, stop, bound, d = g._stream
    for j in range(needs):
        if stop[j] < 0:
            raise TruncationError(f"{what} series not converged after {g.n_cap + 1} terms",
                                  partial_sum=value[j], bound=bound[j], n_terms=g.n_cap + 1)
    return (*value, *d), int(stop[needs - 1])


def _series(g: AxialGreens, xi, phi, coef, what: str, own: bool = False) -> tuple:
    """(sums, stops): specfun's series stream at each (xi, phi) of a sequence,
    x = cosh xi and R_n at g's shape (or, own, at the one point's cosh xi);
    the first point that does not converge raises TruncationError, labelled
    by `what`, with the tail bound reached."""
    xi, phi = np.asarray(xi, dtype=float), np.asarray(phi, dtype=float)
    with np.errstate(over="ignore"):
        x, dx = np.cosh(xi), 2.0 * np.sinh(0.5 * xi) ** 2
    # the shape's seeds, or the point's own, which are its field seeds too,
    # and e^xi to bound P's growth (past xi = 709, q is 0)
    shape = (*toroidal_seeds(x[0]), float(dx[0])) if own else g._shape
    cols = np.zeros((9, xi.size))
    cols[1:3], cols[3], cols[4], cols[5], cols[6:] = (
        np.reshape(shape[:2], (2, 1)) if own else legendre_p_half(x, 1), dx,
        np.exp(np.minimum(xi, 709.0)), phi, np.reshape(coef, (3, 1)))
    sums, stops, bound, _ = _series_stream(shape, g.rel_tol, g.n_cap, cols)
    if np.any(stops < 0):
        k = int(np.argmin(stops))
        raise TruncationError(f"{what} series not converged after {g.n_cap + 1} terms",
                              partial_sum=sums[k], bound=bound[k], n_terms=g.n_cap + 1)
    return sums, stops


def _prefactor(field: ToroidalCoords, src: AxialSource, f: float) -> float:
    """(2 / pi) h / hypot(f, z'), h the field point's half-chord: every term's
    sqrt(cosh xi - cos eta) sqrt(1 - cos eta') / (pi f), with 1 - cos eta' =
    2 f^2 / (f^2 + z'^2) on the axis, formed without a square."""
    return (2.0 / math.pi) * _half_chord(field.xi, field.eta) / math.hypot(f, src.z_src)


def _vh_reduced(field, src: AxialSource, g: AxialGreens) -> SeriesInfo:
    """V_H / (K_E q) in 1/nm at one field point or a sequence of them, each a
    column R_n P(cosh xi) of one series stream, with the bits of its own call."""
    single = isinstance(field, ToroidalCoords)
    fields = [field] if single else list(field)
    geom, xi = g.geometry, np.array([fld.xi for fld in fields])
    if np.any(xi > geom.xi0 * (1.0 + 1e-12)):
        raise OutOfRegionError(f"field point xi = {xi.max()} lies inside the conductor "
                               f"(xi0 = {geom.xi0})")
    sums, stops = _series(g, xi, [fld.eta - src.eta_src for fld in fields], (1.0, 0.0, 0.0),
                          "potential")
    value = -np.array([_prefactor(fld, src, geom.f) for fld in fields]) * sums
    if single:
        return SeriesInfo(value=float(value[0]), n_used=int(stops[0]))
    return SeriesInfo(value=value, n_used=stops)


def vh_potential_info(field, src: AxialSource, g: AxialGreens) -> SeriesInfo:
    """vh_potential plus the number of series terms used (for diagnostics)."""
    info = _vh_reduced(field, src, g)
    with np.errstate(over="ignore"):
        value = info.value * K_E_EV_NM * src.charge
    return SeriesInfo(value=_in_range(value, "potential"), n_used=info.n_used)


def vh_potential(field, src: AxialSource, g: AxialGreens):
    """Potential (V) of the induced surface charge at field points.

    field is one ToroidalCoords, giving a float, or a sequence of them,
    giving an array.  Valid outside the conductor, 0 <= xi <= xi0; on the
    axis pass xi = 0.

    Raises
    ------
    OutOfRegionError
        For field points inside the conductor.
    ResultOverflowError
        For a potential past the float64 range.
    TruncationError
        If the expansion does not converge within the configured cap.
    """
    return vh_potential_info(field, src, g).value


def charge_interaction_energy_info(z_src, g: AxialGreens, charge: float = 1.0) -> SeriesInfo:
    """charge_interaction_energy plus the number of series terms used."""
    f = g.geometry.f
    heights, charge = _checked_source(z_src, charge, f)
    # With the field point at the source every cos[n (eta - eta')] is
    # exactly 1 (eta - eta' is 0 or the float 2 pi), so one series, the
    # on-axis ratio sum M0, serves every height; the prefactor there is
    # -(1 / pi f) (1 - cos eta') = -2 c^2 / (pi f) with c = f / hypot(f, z').
    (m0, *_), stop = _moments(g, "charge-energy", needs=1)
    # q c enters twice, so q^2 is never formed on its own: it may overflow
    # where the energy does not
    qc = charge * (f / np.hypot(f, heights))
    with np.errstate(over="ignore"):
        value = _in_range(-(2.0 * K_E_EV_NM * m0 / (math.pi * f) * qc) * qc, "energy")
    if heights.ndim == 0:
        return SeriesInfo(value=float(value), n_used=int(stop))
    return SeriesInfo(value=value, n_used=np.full(value.shape, stop))


def charge_interaction_energy(z_src, g: AxialGreens, charge: float = 1.0):
    """Energy (eV) of the charge with the surface charge it induces.

    This is q V_H evaluated at the charge's own position; no factor 1/2
    enters because the self-energy of the induced distribution is not part
    of this interaction term.  Negative for every source height.  A scalar
    height gives a float, an array of heights an array.  A non-finite
    height or charge raises ValueError, an energy past the float64 range
    ResultOverflowError.
    """
    return charge_interaction_energy_info(z_src, g, charge).value


def surface_residual(src: AxialSource, g: AxialGreens, n_samples: int = 64) -> float:
    """Max over sampled surface points of |Coulomb + V_H| / |Coulomb|.

    The grounded boundary condition makes the exact sum vanish on
    xi = xi0; what remains measures series truncation.  Fewer than 8
    samples raise ValueError, a count that is not an integer TypeError.
    """
    n_samples = operator.index(n_samples)
    if n_samples < 8:
        raise ValueError(f"need at least 8 samples, got {n_samples}")
    etas = -math.pi + (np.arange(n_samples) + 0.5) * (2.0 * math.pi / n_samples)
    r, z = surface_rz(g.geometry, etas)
    dist = np.hypot(r, z - src.z_src)
    fields = [ToroidalCoords(xi=g.geometry.xi0, eta=float(eta)) for eta in etas]
    vh = _vh_reduced(fields, src, g).value
    return float(np.max(np.abs(1.0 / dist + vh) * dist))


def inverse_distance_series(field: ToroidalCoords, src: AxialSource, g: AxialGreens) -> float:
    """1 / |r - r'| (1/nm) through the toroidal expansion, source on axis.

    With an on-axis source Q is taken at the field point's cosh(xi), the
    series stream's own argument, and every P factor is P_{n-1/2}(1) = 1.
    Where cosh(xi) - 1 < 1e-12 each Q term diverges logarithmically while
    the sum stays finite, and the closed form of the summed expansion serves,

        sum_n (2 - delta_n0) Q_{n-1/2}(cosh xi) cos(n D) = pi / (2 h_D),

    h_D the half-chord at (xi, D), D taken in [-pi, pi]; exact off the source.

    Raises
    ------
    CoincidentPointsError
        If the field point is the source position.
    OverflowHorizonError
        Past xi = 710, where cosh(xi) leaves the float range: within
        2 f e^{-710} of the focal ring.
    TruncationError
        If the series cannot converge within n_cap (field points very
        close to, but off, the axis).
    """
    delta = field.eta - src.eta_src
    try:
        cosh_xi = math.cosh(field.xi)
    except OverflowError:
        raise OverflowHorizonError(f"cosh(xi) overflows at {field.xi}", max_safe_n=0) from None
    if cosh_xi < 1.0 + Z_MIN_OFFSET:
        gap = _half_chord(field.xi, math.remainder(delta, 2.0 * math.pi))
        if gap == 0.0:
            raise CoincidentPointsError(f"field point coincides with the source at "
                                        f"z = {src.z_src} nm")
        return _half_chord(field.xi, field.eta) / (math.hypot(g.geometry.f, src.z_src) * gap)
    (total,), _ = _series(g, [field.xi], [delta], (1.0, 0.0, 0.0), "inverse-distance",
                          own=True)
    return _prefactor(field, src, g.geometry.f) * float(total)
