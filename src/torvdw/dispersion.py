"""Non-retarded dispersion interaction on the toroid axis.

For a particle polarizable only along the axis, the interaction energy is

    U(z_p) = <d_z^2> / (2 eps0) * d^2 G_H / dz dz' |_{z = z' = z_p},

with G_H = eps0 V_H / q the homogeneous Green's kernel of the grounded
toroid.  On the axis G_H depends on z only through theta = arccot(z / f),
and at coincident points every term of the mixed derivative collapses to
a rational function of z_p.  With r = sqrt(f^2 + z_p^2), c = f / r and
t = z_p / r, the shape then enters only through f and two moments of the
ratio R_n = Q_{n-1/2}(a/b) / P_{n-1/2}(a/b) > 0,

    M0 = sum_n (2 - delta_n0) R_n,    M2 = sum_n (2 - delta_n0) n^2 R_n,

and energy and force are closed forms in them, with C' = <d_z^2> K_E / pi:

    U   = -C' (c / r^3) (t^2 M0 + 4 c^2 M2),
    F_z = -dU/dz_p = 2 C' (c t / r^4) (c^2 (M0 - 12 M2) - 2 t^2 M0).

U is negative and even in z_p; F_z is odd and vanishes at the origin.
The n = 0 term pushes the particle out and the n >= 1 terms pull it in:
the sign sum c^2 A - 2 t^2 B, with A = M0 - 12 M2 and B = M0, is linear
in z_p^2, so thin rings (A > 0) repel nearby axial particles out to the
zero z*^2 = f^2 A / (2 B), and fat ones (A < 0) never do.  The decay
rate of R_n, that is a/b alone, decides which a shape is.

The two moments are summed once per shape under the package's truncation
rule, after which each height costs a few flops.  No power of r is ever
formed: the physical prefactor, the scaled sum and r are split into
mantissas and exponents, r is divided out of the mantissa one factor at
a time and the exponents are summed exactly, so every U and F that is
representable comes out rather than an overflow.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    NoSignChangeError,
    RangeExceededError,
    ResultOverflowError,
    TruncationError,
)
from .geometry import _axis_heights, toroid_from_radii
from .greens import (
    N_CAP,
    REL_TOL,
    AxialGreens,
    _truncated_sum,
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


def particle_model(d2z: float, unit: str = "e2nm2") -> ParticleModel:
    """Build the axially polarizable particle model: only the axial
    fluctuation enters the on-axis interaction."""
    return ParticleModel(d2z=d2z_to_e2nm2(float(d2z), unit))


def _scaled(z_p: np.ndarray, f: float):
    """(r, c, t) = (sqrt(f^2 + z_p^2), f / r, z_p / r), with no overflow."""
    r = np.hypot(f, z_p)
    return r, f / r, z_p / r


def _over_r(scale, s: np.ndarray, radii, what: str,
            cause: str = "the toroid is too small for this <d_z^2>") -> np.ndarray:
    """scale * s / prod(radii), on the mantissas and exponents apart.

    The mantissa quotient stays below 2^len(radii) in magnitude and its
    exponent is an exact integer sum, so only the result itself can
    overflow or underflow.

    Raises
    ------
    ResultOverflowError
        If the quotient overflows, as it does for a toroid of focal scale
        f ~ r far below 1 nm; the message ends in `cause`.
    """
    (m_scale, e_scale), (m_s, e_s) = np.frexp(scale), np.frexp(s)
    out, exponent = m_scale * m_s, e_scale + e_s
    for m_r, e_r in map(np.frexp, radii):
        out, exponent = out / m_r, exponent - e_r
    with np.errstate(over="ignore"):
        out = np.ldexp(out, exponent)
    if not np.all(np.isfinite(out)):
        raise ResultOverflowError(
            f"the {what} exceeds the float64 range at "
            f"{int(np.sum(~np.isfinite(out)))} of {out.size} heights; {cause}"
        )
    return out


def _moments(g: AxialGreens) -> tuple[float, float, int]:
    """(M0, M2, n_used): both moments as two columns of one truncated sum,
    n_used the later of their stop indices.  Raises TruncationError if
    either does not converge within the term cap."""
    w = _two_minus_delta(g.table.n_max) * g.table.ratio
    n = np.arange(w.size)
    (m0, m2), stops = _truncated_sum(np.column_stack([w, n * n * w]), g.table.ratio,
                                     g.rel_tol, "moment")
    return float(m0), float(m2), int(stops.max())


def _energy(z_p: np.ndarray, p: ParticleModel, f: float, m0: float, m2: float):
    """U(z_p) in eV from the moments, vectorized over heights."""
    r, c, t = _scaled(z_p, f)
    # C' of the module docstring, as <d_z^2> / (2 eps0) over 2 pi^2
    scale = -(_energy_prefactor(p) / (2.0 * math.pi**2)) * c
    return _over_r(scale, t * t * m0 + 4.0 * c * c * m2, (r,) * 3, "energy")


def _force(z_p: np.ndarray, p: ParticleModel, f: float, m0: float, m2: float):
    """F_z(z_p) in eV/nm from the moments, vectorized over heights."""
    r, c, t = _scaled(z_p, f)
    scale = 2.0 * (p.d2z * K_E_EV_NM / math.pi) * c * t
    return _over_r(scale, c * c * (m0 - 12.0 * m2) - 2.0 * t * t * m0, (r,) * 4, "force")


def gh_mixed_derivative(z: float, z_prime: float, g: AxialGreens) -> float:
    """d^2 G_H / dz dz' at two axis heights (1/nm^3), term-by-term analytic.

    Symmetric in (z, z'); at z = z' it reduces to the rational closed form
    used by vdw_energy.  Term n is w_n [(s s' + 4 n^2 c c') cos phi_n +
    2 n (s c' - s' c) sin phi_n], (r, c, s) being _scaled at z and z', and
    the sum is scaled by -f / (2 pi^2 r^2 r'^2) as _over_r does.

    Raises
    ------
    ValueError
        For a non-finite height, or an array of them.
    TruncationError
        If the differentiated series does not converge within the cap.
    ResultOverflowError
        If the derivative exceeds the float64 range (a toroid far below
        1 nm).
    """
    f = g.geometry.f
    z, z_prime = _axis_heights(z, "axis heights"), _axis_heights(z_prime, "axis heights")
    if z.ndim or z_prime.ndim:
        raise ValueError("gh_mixed_derivative takes one pair of axis heights, not arrays")
    w = _two_minus_delta(g.table.n_max) * g.table.ratio
    n = np.arange(w.size)
    (r, c, s), (r_p, c_p, s_p) = _scaled(z, f), _scaled(z_prime, f)
    phi = 2.0 * n * (math.atan2(f, z) - math.atan2(f, z_prime))
    terms = w * ((s * s_p + 4.0 * n * n * c * c_p) * np.cos(phi)
                 + 2.0 * n * (s * c_p - s_p * c) * np.sin(phi))
    (total,), _ = _truncated_sum(terms[:, None], g.table.ratio, g.rel_tol, "mixed-derivative")
    return float(_over_r(-f / (2.0 * math.pi**2), total, (r, r, r_p, r_p),
                         "mixed derivative", "the toroid is too small"))


def _energy_prefactor(p: ParticleModel) -> float:
    # <d_z^2>/(2 eps0) in eV nm^3 per (e nm)^2 of fluctuation.
    return p.d2z * 2.0 * math.pi * K_E_EV_NM


def _like_input(z: np.ndarray, out: np.ndarray):
    return float(out) if z.ndim == 0 else out


def vdw_energy(z_p, p: ParticleModel, g: AxialGreens):
    """Dispersion energy U(z_p) in eV; scalar in, scalar out (or ndarray).

    Negative for every height and every geometry, and even in z_p.

    Raises
    ------
    ValueError
        For a non-finite height.
    TruncationError
        If the moments do not converge within the term cap.
    """
    z = _axis_heights(z_p, "particle heights")
    m0, m2, _ = _moments(g)
    return _like_input(z, _energy(z, p, g.geometry.f, m0, m2))


def vdw_force(z_p, p: ParticleModel, g: AxialGreens):
    """Axial force F_z = -dU/dz_p in eV/nm, the closed-form derivative.

    Odd in z_p with F_z(0) = 0.  Positive values push the particle away
    from the origin (repulsion), negative pull it back.

    Raises
    ------
    ValueError
        For a non-finite height.
    TruncationError
        If the moments do not converge within the term cap.
    """
    z = _axis_heights(z_p, "particle heights")
    m0, m2, _ = _moments(g)
    return _like_input(z, _force(z, p, g.geometry.f, m0, m2))


@dataclass(frozen=True)
class ForceProfile:
    """Energy and force sampled on a height grid, with scale metadata."""

    z_p: np.ndarray
    energy: np.ndarray
    force: np.ndarray
    energy_scale: float   # |U| at z_p = 0, for normalized plots
    force_scale: float    # max |F| on the grid
    n_used: np.ndarray    # one stop index per shape, repeated per point


def force_profile(z_grid, p: ParticleModel, g: AxialGreens) -> ForceProfile:
    """Evaluate U and F on a grid and record the scales of normalized plots."""
    z_grid = np.array(_axis_heights(z_grid, "particle heights"), ndmin=1)
    m0, m2, stop = _moments(g)
    f = g.geometry.f
    energy = _energy(z_grid, p, f, m0, m2)
    force = _force(z_grid, p, f, m0, m2)
    n_used = np.full(z_grid.shape, stop)
    for arr in (z_grid, energy, force, n_used):
        arr.flags.writeable = False
    return ForceProfile(
        z_p=z_grid,
        energy=energy,
        force=force,
        energy_scale=abs(float(_energy(np.zeros(1), p, f, m0, m2)[0])),
        force_scale=float(np.max(np.abs(force))) if force.size else 0.0,
        n_used=n_used,
    )


def find_force_zero(
    p: ParticleModel, g: AxialGreens, bracket: tuple[float, float]
) -> float:
    """The axial force zero in the bracket nearest its midpoint.

    The force's sign sum f^2 A - 2 z_p^2 B, with A = M0 - 12 M2 and
    B = M0, is linear in z_p^2, so the zeros are 0 and, when A > 0, +-z*
    with z*^2 = f^2 A / (2 B).  The zero height is independent of
    <d_z^2>, which only scales the force.

    Raises
    ------
    NoSignChangeError
        If the force has the same sign at both ends (the all-attractive
        regime of fat toroids).
    """
    lo, hi = map(float, bracket)
    if not -math.inf < lo < hi < math.inf:
        raise ValueError(f"bracket must be finite and ordered, got {bracket}")
    m0, m2, _ = _moments(g)
    f_lo, f_hi = _force(np.array([lo, hi]), p, g.geometry.f, m0, m2)
    if math.copysign(1.0, f_lo) == math.copysign(1.0, f_hi):
        raise NoSignChangeError(
            f"force does not change sign on [{lo}, {hi}] "
            f"(F = {f_lo:.3e} and {f_hi:.3e}); no repulsion zone to bound"
        )
    a_sum = m0 - 12.0 * m2
    z_star = g.geometry.f * math.sqrt(a_sum / (2.0 * m0)) if a_sum > 0.0 else 0.0
    # Zeros outside a sign-changing bracket lie farther from its midpoint
    # than those inside; the clip only absorbs rounding at the ends.
    zero = min((-z_star, 0.0, z_star), key=lambda z: abs(z - (0.5 * lo + 0.5 * hi)))
    return min(max(zero, lo), hi)


def critical_ratio(
    z_p: float,
    b: float,
    p: ParticleModel,
    search: tuple[float, float] = (1.01, 1000.0),
    rel_tol: float = REL_TOL,
    n_cap: int = N_CAP,
) -> float:
    """Smallest a/b at which the force at height z_p turns repulsive.

    The force has the sign of sigma = (z^2 - 1) A - 2 (z_p / b)^2 B at
    z = a/b (A, B as in find_force_zero), which changes sign once: A < 0
    below a/b* = 3.20474843857 and (z^2 - 1) A / B rises strictly above it.
    Numerical Recipes' rtsafe (Newton inside the sign bracket, else
    bisection) finds the root in u = log(a/b) to |du| <= 1e-14, with
    dR_n/dz = 1 / ((1 - z^2) P_n^2) from the Wronskian (DLMF 14.2(iv)).

    p is never read: <d_z^2> only scales the force, so its sign and the
    root do not depend on it.  It stays a parameter because callers pass
    it positionally, and every particle model gives the same root.

    Raises
    ------
    RangeExceededError
        If the force is already repulsive at the low end or never becomes
        repulsive by the high end; carries the bound that was hit.
    TruncationError
        If the moment series at a shape in the search range does not
        converge within n_cap terms (a thin-hole low end such as 1.00001
        at the default cap).
    ValueError
        For z_p or b an array or not finite and positive, a search range
        not ordered as 1 < lo < hi < inf, or an end whose toroid leaves the
        float range (search = (1.5, 1e200) at b = 1).
    """
    if np.ndim(z_p) or np.ndim(b):
        raise ValueError("critical_ratio takes one height z_p and one b, not arrays")
    if not (0.0 < z_p < math.inf and 0.0 < b < math.inf):
        raise ValueError(f"need finite z_p > 0 and b > 0, got z_p = {z_p}, b = {b}")
    lo, hi = map(float, search)
    if not 1.0 < lo < hi < math.inf:
        raise ValueError(f"search range must be finite with 1 < lo < hi, got {search}")
    h2 = 2.0 * (z_p / b) * (z_p / b)

    def sigma(z: float):
        # sigma and d sigma / du; (z^2 - 1) dR_n/dz = -1 / P_n^2, so
        # (z^2 - 1) dA/dz = -(D0 - 12 D2) and (z^2 - 1) dB/dz = -D0 with
        # D0 = sum_n (2 - delta_n0) / P_n^2 and D2 the same weighted by n^2
        g = axial_greens(toroid_from_radii(z * b, b), rel_tol=rel_tol, n_cap=n_cap)
        m0, m2, _ = _moments(g)
        w = _two_minus_delta(g.table.n_max) / g.table.p ** 2
        d0, d2 = np.sum(w), np.sum(np.arange(w.size) ** 2 * w)
        a_sum = m0 - 12.0 * m2
        value = (z * z - 1.0) * a_sum - h2 * m0
        return value, z * (2.0 * z * a_sum - (d0 - 12.0 * d2) + h2 * d0 / (z * z - 1.0))

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

    force: np.ndarray               # shape (len(z_values), len(a_values))
    diagnostics: tuple              # (i_z, j_a, message) per failed cell


def sweep_contour(
    a_values,
    z_values,
    b: float,
    p: ParticleModel,
    rel_tol: float = REL_TOL,
    n_cap: int = N_CAP,
) -> SweepGrid:
    """Force over the (a, z_p) grid; per-column failures recorded, not fatal.

    Each a value is one shape and one pair of moments, and its column is
    the same arithmetic as a vdw_force call on those heights.  A shape
    whose moments do not converge within n_cap fails as a whole: its
    column is NaN, with one diagnostic per cell.  Columns are independent
    pure evaluations; the returned grid is immutable.  Each (a, b) goes
    through toroid_from_radii, whose typed errors refuse a bad shape.  A
    grid that is empty or not 1-d raises ValueError.
    """
    a_values = np.asarray(a_values, dtype=float)
    z_values = _axis_heights(z_values, "particle heights")
    if not (a_values.ndim == z_values.ndim == 1 and a_values.size and z_values.size):
        raise ValueError("a and z grids must be non-empty 1-d arrays")

    force = np.full((z_values.size, a_values.size), np.nan)
    diags = []
    for j, a in enumerate(a_values):
        g = axial_greens(toroid_from_radii(a, b), rel_tol=rel_tol, n_cap=n_cap)
        try:
            m0, m2, _ = _moments(g)
        except TruncationError:
            diags += [(i, j, "series not converged within cap") for i in range(z_values.size)]
            continue
        force[:, j] = _force(z_values, p, g.geometry.f, m0, m2)
    force.flags.writeable = False
    return SweepGrid(force=force, diagnostics=tuple(diags))
