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
    ResultOverflowError,
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


def _over_r(scale: np.ndarray, r: np.ndarray, power: int, what: str) -> np.ndarray:
    """scale / r^power, dividing one factor at a time.

    Raises
    ------
    ResultOverflowError
        If the quotient overflows, as it does for a toroid of focal scale
        f ~ r far below 1 nm under a large <d_z^2>.
    """
    with np.errstate(over="ignore"):
        for _ in range(power):
            scale = scale / r
    if not np.all(np.isfinite(scale)):
        raise ResultOverflowError(
            f"the {what} exceeds the float64 range at "
            f"{int(np.sum(~np.isfinite(scale)))} of {scale.size} heights; "
            "the toroid is too small for this <d_z^2>"
        )
    return scale


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
    return _over_r(scale, r, 3, "energy"), sums


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
    return _over_r(scale, r, 4, "force"), sums


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


def _sign_sums(g: AxialGreens):
    """(A, B) of the force's sign sum f^2 A - 2 z_p^2 B, and their weights."""
    w = _two_minus_delta(g.table.n_max)
    weights = np.column_stack([w * (1.0 - 12.0 * np.arange(w.size) ** 2), w])
    sums = _sum_adaptive_grid(weights * g.table.ratio[:, None], g.table.ratio, g.rel_tol)
    _raise_unconverged(sums, "force-zero")
    return sums.values, weights


def find_force_zero(
    p: ParticleModel, g: AxialGreens, bracket: tuple[float, float]
) -> float:
    """The axial force zero in the bracket nearest its midpoint.

    The force's sign sum f^2 A - 2 z_p^2 B, with A = sum_n (2 - delta_n0)
    R_n (1 - 12 n^2) and B = sum_n (2 - delta_n0) R_n, is linear in z_p^2,
    so the zeros are 0 and, when A > 0, +-z* with z*^2 = f^2 A / (2 B).
    The zero height is independent of <d_z^2>, which only scales the force.

    Raises
    ------
    NoSignChangeError
        If the force has the same sign at both ends (the all-attractive
        regime of fat toroids).
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"bracket must be finite and ordered, got {bracket}")
    f_lo, f_hi = vdw_force(np.array([lo, hi]), p, g)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"force does not change sign on [{lo}, {hi}] "
            f"(F = {f_lo:.3e} and {f_hi:.3e}); no repulsion zone to bound"
        )
    (a_sum, b_sum), _ = _sign_sums(g)
    z_star = g.geometry.f * math.sqrt(a_sum / (2.0 * b_sum)) if a_sum > 0.0 else 0.0
    # Zeros outside a sign-changing bracket lie farther from its midpoint
    # than those inside; the clip only absorbs rounding at the ends.
    zero = min((-z_star, 0.0, z_star), key=lambda z: abs(z - (0.5 * lo + 0.5 * hi)))
    return min(max(zero, lo), hi)


def critical_ratio(
    z_p: float,
    b: float,
    p: ParticleModel,
    search: tuple[float, float] = (1.01, 1000.0),
    rel_tol: float = 1e-12,
    n_cap: int = 2000,
) -> float:
    """Smallest a/b at which the force at height z_p turns repulsive.

    The force has the sign of sigma = (z^2 - 1) A - 2 (z_p / b)^2 B at
    z = a/b (A, B as in find_force_zero), which changes sign once: A < 0
    below a/b* = 3.20474843857 and (z^2 - 1) A / B rises strictly above it.
    Numerical Recipes' rtsafe (Newton inside the sign bracket, else
    bisection) finds the root in u = log(a/b) to |du| <= 1e-14, with
    dR_n/dz = 1 / ((1 - z^2) P_n^2) from the Wronskian (DLMF 14.2(iv)).

    Raises
    ------
    RangeExceededError
        If the force is already repulsive at the low end or never becomes
        repulsive by the high end; carries the bound that was hit.
    """
    if not (0.0 < z_p < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"need finite z_p > 0 and b > 0, got z_p = {z_p}, b = {b}")
    lo, hi = float(search[0]), float(search[1])
    if not 1.0 < lo < hi < math.inf:
        raise ValueError(f"search range must be finite with 1 < lo < hi, got {search}")
    h2 = 2.0 * (z_p / b) * (z_p / b)

    def sigma(z: float):
        # sigma and d sigma / du; (z^2 - 1) dR_n/dz = -1 / P_n^2
        g = axial_greens(toroid_from_radii(z * b, b), rel_tol=rel_tol, n_cap=n_cap)
        (a_sum, b_sum), weights = _sign_sums(g)
        da, db = np.sum(weights / g.table.p[:, None] ** 2, axis=0)
        value = (z * z - 1.0) * a_sum - h2 * b_sum
        return value, z * (2.0 * z * a_sum - da + h2 * db / (z * z - 1.0))

    if sigma(lo)[0] > 0.0:
        raise RangeExceededError(f"force already repulsive at a/b = {lo}; "
                                 "threshold below range", bound=lo)
    if not sigma(hi)[0] > 0.0:
        raise RangeExceededError(f"force still attractive at a/b = {hi}; "
                                 "threshold above range", bound=hi)
    u_lo, u_hi = math.log(lo), math.log(hi)
    u, step, step_old = 0.5 * (u_lo + u_hi), u_hi - u_lo, u_hi - u_lo
    value, slope = sigma(math.exp(u))
    while value != 0.0:
        u_lo, u_hi = (u, u_hi) if value < 0.0 else (u_lo, u)
        # A Newton step must land inside the bracket and be under half the
        # step before last, so step sizes halve at least every second pass.
        inside = ((u - u_hi) * slope - value) * ((u - u_lo) * slope - value) < 0.0
        if inside and abs(2.0 * value) <= abs(step_old * slope):
            step_old, step = step, value / slope
            u -= step
        else:
            step_old, step = step, 0.5 * (u_hi - u_lo)
            u = u_lo + step
        if abs(step) <= 1e-14:
            break
        value, slope = sigma(math.exp(u))
    return math.exp(u)


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
