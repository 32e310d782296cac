"""Non-retarded dispersion interaction on the toroid axis.

For a particle polarizable only along the axis, the interaction energy is

    U(z_p) = <d_z^2> / (2 eps0) * d^2 G_H / dz dz' |_{z = z' = z_p},

with G_H = eps0 V_H / q the homogeneous Green's kernel of the grounded
toroid.  On the axis G_H depends on z only through theta = arccot(z / f),
and the mixed derivative evaluates term by term.  At coincident points
every term collapses to an explicit rational function of z_p:

    d^2 G_H / dz dz' = -(f / 2 pi^2) sum_n (2 - delta_n0)
                       R_n (z_p^2 + 4 n^2 f^2) / (f^2 + z_p^2)^3,

with R_n = Q_{n-1/2}(a/b) / P_{n-1/2}(a/b) > 0 -- manifestly negative, so
the energy is attractive-in-sign everywhere while its *gradient* can point
either way.  The force is the term-by-term analytic derivative

    F_z = -dU/dz_p
        = 2 C z_p sum_n (2 - delta_n0) R_n [(1 - 12 n^2) f^2 - 2 z_p^2]
          / (f^2 + z_p^2)^4,          C = <d_z^2> K_E f / pi,

odd in z_p and vanishing at the origin.  The n = 0 term pushes the
particle away from the origin; the n >= 1 terms pull it in.  Their balance
is set by the decay rate of R_n (that is, by a/b), which is the whole
repulsion-versus-attraction story: thin rings repel nearby axial
particles, fat ones never do.

Both sums are evaluated in the scaled variables c = f / r and t = z_p / r,
r = sqrt(f^2 + z_p^2), so that no power of r is ever formed: the energy
terms become R_n (t^2 + 4 n^2 c^2) / r^4 and the force terms
R_n [(1 - 12 n^2) c^2 - 2 t^2] / r^6, and the division by r happens one
factor at a time after the physical prefactor is applied.  Heights up to
the float64 limit therefore give the representable U and F rather than
an overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoSignChangeError,
    RangeExceededError,
    UnsupportedConfigurationError,
)
from .geometry import toroid_from_radii
from .greens import (
    AxialGreens,
    _raise_unconverged,
    _sum_adaptive_grid,
    _two_minus_delta,
    axial_greens,
)
from .units import K_E_EV_NM, d2z_to_e2nm2

__all__ = [
    "ForceProfile",
    "ParticleModel",
    "SweepGrid",
    "critical_ratio",
    "find_force_zero",
    "force_profile",
    "gh_mixed_derivative",
    "particle_model",
    "sweep_contour",
    "vdw_energy",
    "vdw_force",
]


@dataclass(frozen=True)
class ParticleModel:
    """Axially polarizable particle: <d_z^2> in (e nm)^2, transverse zero."""

    d2z: float

    def __post_init__(self):
        if not 0.0 < self.d2z < math.inf:
            raise ValueError(f"<d_z^2> must be positive and finite, got {self.d2z}")
        if not math.isfinite(_energy_prefactor(self)):
            raise ValueError(f"<d_z^2> = {self.d2z} (e nm)^2 overflows the energy "
                             "prefactor; it must stay finite")


def particle_model(
    d2z: float,
    unit: str = "e2nm2",
    d2x: float = 0.0,
    d2y: float = 0.0,
) -> ParticleModel:
    """Build the particle model.

    Only the axial fluctuation enters the on-axis interaction; transverse
    components would need the off-axis derivative machinery this model
    does not carry, so nonzero d2x/d2y are rejected rather than ignored.
    """
    if d2x != 0.0 or d2y != 0.0:
        raise UnsupportedConfigurationError(
            "only axially polarizable particles are supported; "
            f"got <d_x^2> = {d2x}, <d_y^2> = {d2y}"
        )
    return ParticleModel(d2z=d2z_to_e2nm2(float(d2z), unit))


def _heights(z_p) -> np.ndarray:
    """Particle heights as a 1-d float array; non-finite heights are refused."""
    z_arr = np.atleast_1d(np.asarray(z_p, dtype=float))
    if not np.all(np.isfinite(z_arr)):
        raise ValueError("particle heights must be finite")
    return z_arr


def _scaled(z_p: np.ndarray, f: float):
    """(r, c, t) = (sqrt(f^2 + z_p^2), f / r, z_p / r), with no overflow."""
    r = np.hypot(f, z_p)
    return r, f / r, z_p / r


def _energy_grid(z_p: np.ndarray, p: ParticleModel, g: AxialGreens):
    """U(z_p) in eV, vectorized, with the column sums behind it."""
    w = _two_minus_delta(g.table.n_max) * g.table.ratio
    n = np.arange(w.size)
    r, c, t = _scaled(z_p, g.geometry.f)
    terms = w[:, None] * (t[None, :] ** 2 + 4.0 * (n[:, None] * c[None, :]) ** 2)
    sums = _sum_adaptive_grid(terms, g.table.ratio, g.rel_tol)
    # U = pref d2G with d2G = -(f / 2 pi^2) S / r^4 = -(c / 2 pi^2) S / r^3,
    # S the scaled sum
    scale = -(_energy_prefactor(p) / (2.0 * math.pi**2)) * c * sums.values
    return scale / r / r / r, sums


def gh_mixed_derivative(z: float, z_prime: float, g: AxialGreens) -> float:
    """d^2 G_H / dz dz' at two axis heights (1/nm^3), term-by-term analytic.

    Symmetric in (z, z'); at z = z' it reduces to the rational closed form
    used by vdw_energy.

    Raises
    ------
    TruncationError
        If the differentiated series does not converge within the cap.
    """
    f = g.geometry.f
    if not (math.isfinite(z) and math.isfinite(z_prime)):
        raise ValueError(f"axis heights must be finite, got z = {z}, z' = {z_prime}")
    w = _two_minus_delta(g.table.n_max) * g.table.ratio
    n = np.arange(w.size)

    def u(t):
        return 1.0 / math.sqrt(f * f + t * t)

    def du(t):
        return -t * (f * f + t * t) ** -1.5

    def dtheta(t):
        return -f / (f * f + t * t)

    phi = 2.0 * n * (math.atan2(f, z) - math.atan2(f, z_prime))
    cos_phi = np.cos(phi)
    sin_phi = np.sin(phi)
    terms = w * (
        du(z) * du(z_prime) * cos_phi
        + 2.0 * n * sin_phi * (du(z) * u(z_prime) * dtheta(z_prime)
                               - u(z) * du(z_prime) * dtheta(z))
        + 4.0 * n**2 * u(z) * u(z_prime) * dtheta(z) * dtheta(z_prime) * cos_phi
    )
    sums = _sum_adaptive_grid(terms[:, None], g.table.ratio, g.rel_tol)
    _raise_unconverged(sums, "mixed-derivative")
    return float(-(f / (2.0 * math.pi**2)) * sums.values[0])


def _energy_prefactor(p: ParticleModel) -> float:
    # <d_z^2>/(2 eps0) in eV nm^3 per (e nm)^2 of fluctuation.
    return p.d2z * 2.0 * math.pi * K_E_EV_NM


def _like_input(z_p, out: np.ndarray):
    return float(out[0]) if np.isscalar(z_p) or np.asarray(z_p).ndim == 0 else out


def vdw_energy(z_p, p: ParticleModel, g: AxialGreens):
    """Dispersion energy U(z_p) in eV; scalar in, scalar out (or ndarray).

    Negative for every height and every geometry, and even in z_p.

    Raises
    ------
    ValueError
        For a non-finite height.
    TruncationError
        If the series does not converge within the term cap.
    """
    energy, sums = _energy_grid(_heights(z_p), p, g)
    _raise_unconverged(sums, "energy")
    return _like_input(z_p, energy)


def _force_grid(z_p: np.ndarray, p: ParticleModel, g: AxialGreens):
    """F_z(z_p) in eV/nm, vectorized, with the column sums behind it."""
    w = _two_minus_delta(g.table.n_max) * g.table.ratio
    n = np.arange(w.size)
    r, c, t = _scaled(z_p, g.geometry.f)
    terms = w[:, None] * ((1.0 - 12.0 * n[:, None] ** 2) * c[None, :] ** 2
                          - 2.0 * t[None, :] ** 2)
    sums = _sum_adaptive_grid(terms, g.table.ratio, g.rel_tol)
    # F = 2 C z_p S / r^6 = 2 C' c t S / r^4 with C' = <d_z^2> K_E / pi,
    # S the scaled sum
    scale = 2.0 * (p.d2z * K_E_EV_NM / math.pi) * c * t * sums.values
    return scale / r / r / r / r, sums


def vdw_force(z_p, p: ParticleModel, g: AxialGreens):
    """Axial force F_z = -dU/dz_p in eV/nm by term-by-term differentiation.

    Odd in z_p with F_z(0) = 0.  Positive values push the particle away
    from the origin (repulsion), negative pull it back.

    Raises
    ------
    ValueError
        For a non-finite height.
    TruncationError
        If the series does not converge within the term cap.
    """
    force, sums = _force_grid(_heights(z_p), p, g)
    _raise_unconverged(sums, "force")
    return _like_input(z_p, force)


@dataclass(frozen=True)
class ForceProfile:
    """Energy and force sampled on a height grid, with scale metadata."""

    z_p: np.ndarray
    energy: np.ndarray
    force: np.ndarray
    energy_scale: float   # |U| at z_p = 0, for normalized plots
    force_scale: float    # max |F| on the grid
    n_used: np.ndarray    # series terms consumed per point (worst of U, F)


def force_profile(z_grid, p: ParticleModel, g: AxialGreens) -> ForceProfile:
    """Evaluate U and F on a grid and record the scales of normalized plots."""
    z_grid = _heights(z_grid).copy()
    energy, e_sums = _energy_grid(z_grid, p, g)
    _raise_unconverged(e_sums, "energy")
    force, f_sums = _force_grid(z_grid, p, g)
    _raise_unconverged(f_sums, "force")
    n_used = np.maximum(e_sums.n_used, f_sums.n_used)
    for arr in (z_grid, energy, force, n_used):
        arr.flags.writeable = False
    return ForceProfile(
        z_p=z_grid,
        energy=energy,
        force=force,
        energy_scale=abs(float(vdw_energy(0.0, p, g))),
        force_scale=float(np.max(np.abs(force))) if force.size else 0.0,
        n_used=n_used,
    )


def find_force_zero(
    p: ParticleModel, g: AxialGreens, bracket: tuple[float, float]
) -> float:
    """Bisect the force sign change inside the bracket.

    The zero height is independent of <d_z^2>, which only scales the force.

    Raises
    ------
    NoSignChangeError
        If the force has the same sign at both ends (the all-attractive
        regime of fat toroids).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ValueError(f"bracket must be finite, got {bracket}")
    if lo >= hi:
        raise ValueError(f"bracket must be ordered, got {bracket}")
    f_lo = vdw_force(lo, p, g)
    f_hi = vdw_force(hi, p, g)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"force does not change sign on [{lo}, {hi}] "
            f"(F = {f_lo:.3e} and {f_hi:.3e}); no repulsion zone to bound"
        )
    f_scale = max(abs(f_lo), abs(f_hi))
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        f_mid = vdw_force(mid, p, g)
        if abs(f_mid) <= 1e-10 * f_scale or (hi - lo) <= 1e-15 * max(1.0, abs(mid)):
            return mid
        if math.copysign(1.0, f_mid) == math.copysign(1.0, f_lo):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def critical_ratio(
    z_p: float,
    b: float,
    p: ParticleModel,
    search: tuple[float, float] = (1.01, 1000.0),
    rel_resolution: float = 1e-4,
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
) -> float:
    """Smallest a/b at which the force at height z_p turns repulsive.

    Scans a geometric grid over the search range for the attractive to
    repulsive sign change, then bisects in log(a/b) to the requested
    relative resolution.  Non-decreasing in z_p: farther targets need
    thinner rings.

    Raises
    ------
    RangeExceededError
        If the force is already repulsive at the low end or never becomes
        repulsive by the high end; carries the bound that was hit.
    """
    if not (0.0 < z_p < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"need finite z_p > 0 and b > 0, got z_p = {z_p}, b = {b}")
    lo, hi = float(search[0]), float(search[1])
    if not 1.0 < lo < hi:
        raise ValueError(f"search range must satisfy 1 < lo < hi, got {search}")

    def repulsive(ratio: float) -> bool:
        g = axial_greens(toroid_from_radii(ratio * b, b), rel_tol=rel_tol, n_cap=n_cap)
        return vdw_force(z_p, p, g) > 0.0

    grid = np.geomspace(lo, hi, 65)
    signs = [repulsive(r) for r in grid]
    if signs[0]:
        raise RangeExceededError(
            f"force already repulsive at a/b = {lo}; threshold below range",
            bound=lo,
        )
    if not any(signs):
        raise RangeExceededError(
            f"force still attractive at a/b = {hi}; threshold above range",
            bound=hi,
        )
    k = signs.index(True)
    return _bisect_ratio(repulsive, grid[k - 1], grid[k], False, rel_resolution)


def _bisect_ratio(repulsive, r_lo: float, r_hi: float, low_side: bool,
                  rel_resolution: float) -> float:
    """Bisect in log(a/b) the force sign change between r_lo and r_hi.

    repulsive(ratio) is F > 0 at that a/b and low_side its value at r_lo;
    each step keeps the half whose sign matches the low end.  Returns the
    geometric midpoint of the final bracket (relative width rel_resolution).
    """
    while r_hi / r_lo - 1.0 > rel_resolution:
        mid = math.sqrt(r_lo * r_hi)
        if repulsive(mid) == low_side:
            r_lo = mid
        else:
            r_hi = mid
    return math.sqrt(r_lo * r_hi)


@dataclass(frozen=True)
class SweepGrid:
    """F_z over an (a, z_p) grid at fixed b; failed cells are NaN."""

    a_values: np.ndarray
    z_values: np.ndarray
    b: float
    force: np.ndarray               # shape (len(z_values), len(a_values))
    diagnostics: tuple              # (i_z, j_a, message) per failed cell


def sweep_contour(
    a_values,
    z_values,
    b: float,
    p: ParticleModel,
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
) -> SweepGrid:
    """Force over the (a, z_p) grid; per-cell failures recorded, not fatal.

    Columns reuse one evaluator per a value, and every cell is the same
    arithmetic as a scalar vdw_force call at that point.  Cells are
    independent pure evaluations, so columns can safely be farmed out to
    worker threads or processes; the returned grid is immutable.
    """
    a_values = np.asarray(a_values, dtype=float)
    z_values = np.asarray(z_values, dtype=float)
    if a_values.size == 0 or z_values.size == 0:
        raise ValueError("a and z grids must be non-empty")
    z_values = _heights(z_values)
    if not np.all(a_values > b):
        raise ValueError("every a must exceed b")

    force = np.full((z_values.size, a_values.size), np.nan)
    diags = []
    for j, a in enumerate(a_values):
        g = axial_greens(toroid_from_radii(a, b), rel_tol=rel_tol, n_cap=n_cap)
        col, sums = _force_grid(z_values, p, g)
        force[:, j] = np.where(sums.converged, col, np.nan)
        for i in np.nonzero(~sums.converged)[0]:
            diags.append((int(i), int(j), "series not converged within cap"))
    force.flags.writeable = False
    return SweepGrid(
        a_values=a_values,
        z_values=z_values,
        b=float(b),
        force=force,
        diagnostics=tuple(diags),
    )
