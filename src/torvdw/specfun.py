"""Complete elliptic integrals and toroidal harmonics.

Toroidal harmonics are the Legendre functions P_{n-1/2}(z) and Q_{n-1/2}(z)
of half-integer degree on z = cosh(xi) >= 1.  They satisfy the degree
recurrence (DLMF 14.10.3)

    (nu + 1) y_{nu+1}(z) = (2 nu + 1) z y_nu(z) - nu y_{nu-1}(z),

under which P grows like e^{n xi} while Q decays like e^{-n xi}.  P is
therefore built by forward recurrence from elliptic-integral seeds at
n = 0, 1.  The minimal solution Q then follows from P alone through the
Casoratian P_n Q_{n+1} - P_{n+1} Q_n = -1/(n + 1/2) (Gautschi, SIAM Rev. 9,
1967): the ratio R_n = Q_{n-1/2} / P_{n-1/2} tends to 0, so

    R_n = sum_{k >= n} 1 / ((k + 1/2) P_k P_{k+1}),

a tail sum of positive terms, normalized against the closed form of
Q_{-1/2}(z).

Seed closed forms, in the scipy parameter convention m = k^2, with
emx = e^{-xi} and m1 = 1 - e^{-2 xi}:

    P_{-1/2}(z) = (2/pi) sqrt(emx) K(m1)
    P_{+1/2}(z) = (2/pi) E(m1) / sqrt(emx)
    Q_{-1/2}(z) = 2 sqrt(emx) K(emx^2)

(equivalent to the classical sqrt(2/(z+1)) K(2/(z+1)) forms through a
Landen transformation).  K and E are evaluated from the complementary
modulus k' = sqrt(1 - m), which the seeds pass exactly (emx and sqrt(m1)),
so that no precision is lost near either end of the domain:

    K = pi / (2 AGM(1, k'))                               (DLMF 19.8.5)
    E = (p / 3) (R_D(0, p, 1) + R_D(0, 1, p)),  p = k'^2  (DLMF 19.25.1)

with R_D from Carlson's duplication algorithm (DLMF 19.36; Carlson,
Numer. Math. 33, 1979).  Every term of the E form is positive, so unlike
R_F - (m/3) R_D or the AGM c_n sum it does not cancel as m -> 1.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import NearSingularArgumentError, OverflowHorizonError

__all__ = [
    "HarmonicTable",
    "harmonic_table",
    "legendre_p_half",
    "toroidal_seeds",
]

#: Arguments closer to 1 than this degenerate the toroid (a -> b) and are
#: rejected rather than silently extrapolated.
Z_MIN_OFFSET = 1e-12

#: Keep e^{+-n xi} comfortably inside float64 range (overflow near 709).
_LOG_HORIZON = 690.0

#: Rows past n_max over which R_n is summed, in units of 1/xi: the dropped
#: tail is e^{-2 xi (n_top - n_max)} <= e^{-36} of R_{n_max}.
_TAIL_XI = 18.0

#: Carlson's stopping constant (eps / 4)^(-1/6) for R_D in float64.
_RD_STOP = (np.finfo(float).eps / 4.0) ** (-1.0 / 6.0)

#: Below this complementary parameter E(1 - p) - 1 ~ (p/4) ln(16/p) is
#: under a tenth of an ulp of 1, so E rounds to exactly 1.
_E_UNIT_BELOW = 1e-18


def _k_comodulus(kp: float) -> float:
    """K(1 - kp^2) from the complementary modulus kp >= 0; +inf at kp = 0.

    The AGM converges quadratically; once a and b agree to 1e-8 the next
    mean is exact to rounding.  The loop is bounded so a 1-ulp oscillation
    of the means can never keep it running.
    """
    if kp == 0.0:
        return math.inf
    a, b = 1.0, kp
    for _ in range(64):
        if a - b <= 1e-8 * a:
            break
        a, b = 0.5 * (a + b), math.sqrt(a * b)
    return math.pi / (a + b)


def _carlson_rd(x: float, y: float, z: float) -> float:
    """Carlson's R_D(x, y, z) by duplication; x, y >= 0 (not both 0), z > 0."""
    x0, y0 = x, y
    a0 = (x + y + 3.0 * z) / 5.0
    a = a0
    q = _RD_STOP * max(abs(a0 - x), abs(a0 - y), abs(a0 - z))
    total = 0.0
    fac = 1.0  # 4^-n
    for _ in range(64):
        if fac * q < a:
            break
        sx, sy, sz = math.sqrt(x), math.sqrt(y), math.sqrt(z)
        lam = sx * sy + sx * sz + sy * sz
        total += fac / (sz * (z + lam))
        fac *= 0.25
        x, y, z, a = 0.25 * (x + lam), 0.25 * (y + lam), 0.25 * (z + lam), 0.25 * (a + lam)
    dx = (a0 - x0) * fac / a
    dy = (a0 - y0) * fac / a
    dz = -(dx + dy) / 3.0
    xy, z2 = dx * dy, dz * dz
    e2 = xy - 6.0 * z2
    e3 = (3.0 * xy - 8.0 * z2) * dz
    e4 = 3.0 * (xy - z2) * z2
    e5 = xy * z2 * dz
    series = (1.0 - 3.0 * e2 / 14.0 + e3 / 6.0 + 9.0 * e2 * e2 / 88.0
              - 3.0 * e4 / 22.0 - 9.0 * e2 * e3 / 52.0 + 3.0 * e5 / 26.0)
    return fac * series / (a * math.sqrt(a)) + 3.0 * total


def _e_complement(p: float) -> float:
    """E(1 - p) from the complementary parameter 0 <= p <= 1."""
    if p < _E_UNIT_BELOW:
        return 1.0
    return (p / 3.0) * (_carlson_rd(0.0, p, 1.0) + _carlson_rd(0.0, 1.0, p))


def toroidal_seeds(z: float) -> tuple[float, float, float]:
    """Elliptic-integral anchors (P_{-1/2}, P_{+1/2}, Q_{-1/2}) at z > 1.

    All three are evaluated to machine precision across the whole float
    range: each elliptic integral is handed its complementary modulus
    exactly, rather than a parameter m close to 1 that has already been
    rounded, and e^{-xi} is formed from e^{xi} / 2, which stays finite up to
    the largest float.

    Raises
    ------
    ValueError
        For z outside (1, inf).
    """
    z = float(z)
    if not 1.0 < z < math.inf:
        raise ValueError(f"toroidal_seeds requires a finite argument above 1, got {z}")
    root = math.sqrt((z - 1.0) * (z + 1.0))
    if root == math.inf:                 # (z - 1)(z + 1) overflows above 1.34e154
        root = math.sqrt(z - 1.0) * math.sqrt(z + 1.0)
    emx = 0.5 / (0.5 * z + 0.5 * root)                   # e^{-xi}, finite to the largest float
    m1 = -math.expm1(-2.0 * math.acosh(z))               # 1 - e^{-2 xi}, no cancellation
    p_minus = (2.0 / math.pi) * math.sqrt(emx) * _k_comodulus(emx)
    p_plus = (2.0 / math.pi) * _e_complement(emx * emx) / math.sqrt(emx)
    q_minus = 2.0 * math.sqrt(emx) * _k_comodulus(math.sqrt(m1))
    return p_minus, p_plus, q_minus


@dataclass(frozen=True)
class HarmonicTable:
    """P_{n-1/2}(z), Q_{n-1/2}(z) and their ratios for n = 0..n_max.

    Immutable after construction; safe to share between threads.
    """

    z: float
    n_max: int
    p: np.ndarray
    q: np.ndarray
    ratio: np.ndarray


def legendre_p_half(z, n_max: int) -> np.ndarray:
    """P_{n-1/2}(z) for n = 0..n_max by forward recurrence, z >= 1.

    z is a scalar (result shape (n_max + 1,)) or a 1-d array (one column
    per argument); the growing solution is stable in this direction for
    every argument.  At z = 1 exactly the recurrence reproduces
    P_{n-1/2}(1) = 1 identically.

    Raises
    ------
    OverflowHorizonError
        If P_{n-1/2}(z) exceeds float64 range before n_max; the error
        carries the largest safe degree index.
    TypeError
        For an n_max that is not an integer.
    """
    z_arr = np.asarray(z, dtype=float)
    n_max = operator.index(n_max)
    if z_arr.ndim > 1 or not np.all((z_arr >= 1.0) & np.isfinite(z_arr)):
        raise ValueError(
            f"legendre_p_half requires a scalar or 1-d array of finite z >= 1, got {z}")
    if n_max < 0:
        raise ValueError("n_max must be >= 0")

    seeds = np.array([toroidal_seeds(x)[:2] if x > 1.0 else (1.0, 1.0)
                      for x in z_arr.reshape(-1)]).reshape(z_arr.shape + (2,))
    return _p_forward(z_arr, n_max, seeds[..., 0], seeds[..., 1])


def _p_forward(z, n_max: int, p_minus, p_plus) -> np.ndarray:
    """Forward recurrence from the seeds P_{-1/2}(z), P_{+1/2}(z); z and the
    seeds are scalars or equal-length 1-d arrays, row n holds P_{n-1/2}."""
    p = np.empty((n_max + 1,) + np.shape(z))
    p[0] = p_minus
    if n_max >= 1:
        p[1] = p_plus
    prev, cur = p_minus, p_plus
    if p.ndim == 1:
        # one argument: Python floats round as float64 does, at a fraction
        # of the cost per row of numpy scalars
        z, prev, cur = float(z), float(prev), float(cur)
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max):
            # nu = n - 1/2:  (nu+1) p[n+1] = (2nu+1) z p[n] - nu p[n-1]
            prev, cur = cur, ((2.0 * n) * z * cur - (n - 0.5) * prev) / (n + 0.5)
            p[n + 1] = cur
    # The first row past 1e300 (inf and nan fail the test too) marks the
    # horizon; the rows before it do not depend on it.
    bad = np.flatnonzero(~np.all(p.reshape(n_max + 1, np.size(z))[2:] <= 1e300, axis=1))
    if bad.size:
        n = int(bad[0]) + 1
        raise OverflowHorizonError(
            f"P_(n-1/2)({z}) overflows float64 at n = {n + 1}; largest safe n is {n}",
            max_safe_n=n,
        )
    return p


def harmonic_table(z: float, n_max: int) -> HarmonicTable:
    """Build the toroidal-harmonic table at argument z >= 1 + 1e-12.

    P is seeded from elliptic integrals at n = 0, 1 and extended by forward
    recurrence past n_max; the ratio R = Q/P is the Casoratian tail sum over
    those rows, normalized by the elliptic-integral value of Q_{-1/2}(z),
    and Q = R P.

    Raises
    ------
    ValueError
        For non-finite z or negative n_max.
    NearSingularArgumentError
        For z < 1 + 1e-12: Q_{-1/2} diverges as z -> 1 and the toroid
        degenerates there.
    OverflowHorizonError
        If n_max lies beyond the float64 horizon e^{+-n xi}; the error
        reports the largest safe n.
    TypeError
        For an n_max that is not an integer.
    """
    z = float(z)
    n_max = operator.index(n_max)
    if n_max < 0 or not math.isfinite(z):
        raise ValueError(f"harmonic_table requires finite z and n_max >= 0, got {z}, {n_max}")
    if z < 1.0 + Z_MIN_OFFSET:
        raise NearSingularArgumentError(
            f"argument z = {z} is within {Z_MIN_OFFSET} of the degenerate "
            "point z = 1 (tube radius equals center radius)"
        )

    xi = math.acosh(z)
    # The binding constraint is the ratio Q/P ~ e^{-2 n xi}, which leaves
    # float64 range twice as fast as either function alone.
    if 2.0 * n_max * xi > _LOG_HORIZON:
        raise OverflowHorizonError(
            f"n_max = {n_max} exceeds the float64 horizon at z = {z}; "
            f"largest safe n is {int(_LOG_HORIZON / (2.0 * xi))}",
            max_safe_n=int(_LOG_HORIZON / (2.0 * xi)),
        )

    p_minus, p_plus, q_minus = toroidal_seeds(z)
    # At least one row past n_max, and no row where P could overflow.
    n_top = min(n_max + 1 + math.ceil(_TAIL_XI / xi), max(n_max + 1, int(_LOG_HORIZON / xi)))
    p = _p_forward(z, n_top, p_minus, p_plus)
    # R_k - R_{k+1} = 1 / ((k + 1/2) P_k P_{k+1}); P_k P_{k+1} itself can
    # overflow, so each P is divided out on its own.
    ratio = np.arange(0.5, n_top)
    ratio *= p[:-1]
    np.reciprocal(ratio, out=ratio)
    ratio /= p[1:]
    np.cumsum(ratio[::-1], out=ratio[::-1])
    p = p[: n_max + 1].copy()
    ratio = ratio[: n_max + 1] * (q_minus / (ratio[0] * p[0]))
    q = ratio * p
    for arr in (p, q, ratio):
        arr.flags.writeable = False
    return HarmonicTable(z=z, n_max=n_max, p=p, q=q, ratio=ratio)
