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
Q_{-1/2}(z).  Summed by parts, with u_k = 1 / (P_k P_{k+1}) and S = sum_k
u_k / (k + 1/2), a series sum_n (2 - delta_n0) R_n F_n needs no table: it
is (R_0 / S) sum_k u_k B_k / (k + 1/2), B_k its partial sums.  One stream
sums the cosine series of V_H and, as positive columns, the moments (README).

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

#: Rows a series sums past the first whose tail bound is within rel_tol of it
_EXTRA_ROWS = 2

_FEW_COLUMNS = 4  #: columns the series stream runs one by one on Python floats

#: M0 and M2 of a shape as series-stream columns: x = 1, phi = 0 and c = (1, 0, 0), (0, 0, 1)
_MOMENTS = np.array([[0, 1, 1, 0, 1, 0, 1, 0, 0], [0, 1, 1, 0, 1, 0, 0, 0, 1]], dtype=float).T

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
    """Q_{n-1/2}(z) and the ratios Q/P for n = 0..n_max; P itself is
    legendre_p_half(z, n_max), to the bit.

    Immutable after construction; safe to share between threads.
    """

    z: float
    n_max: int
    q: np.ndarray
    ratio: np.ndarray


def legendre_p_half(z, n_max: int) -> np.ndarray:
    """P_{n-1/2}(z) for n = 0..n_max by forward recurrence, z >= 1.

    z is a scalar (result shape (n_max + 1,)) or a 1-d array (one column
    per argument, each distinct argument seeded and recurred once); the
    growing solution is stable in this direction for every argument.  At
    z = 1 exactly the recurrence reproduces P_{n-1/2}(1) = 1 identically.

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

    args, where = np.unique(z_arr, return_inverse=True)  # where is flat before numpy 2
    seeds = np.array([toroidal_seeds(x)[:2] if x > 1.0 else (1.0, 1.0) for x in args])
    return _p_forward(args, n_max, *seeds.reshape(-1, 2).T)[:, where.reshape(z_arr.shape)]


def _p_forward(z, n_max: int, p_minus, p_plus) -> np.ndarray:
    """Forward recurrence from the seeds P_{-1/2}(z), P_{+1/2}(z); z and the
    seeds are scalars or equal-length 1-d arrays, row n holds P_{n-1/2}."""
    p = np.empty((n_max + 1,) + np.shape(z))
    p[0] = p_minus
    if n_max >= 1:
        p[1] = p_plus
    x, prev, cur = z, p_minus, p_plus
    if p.size == n_max + 1:
        # one argument, or a column of one: Python floats round as float64
        # does, at a fraction of the cost per row of numpy arrays
        x, prev, cur = np.ravel((z, prev, cur)).tolist()
    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(1, n_max):
            # nu = n - 1/2:  (nu+1) p[n+1] = (2nu+1) z p[n] - nu p[n-1]
            prev, cur = cur, ((2.0 * n) * x * cur - (n - 0.5) * prev) / (n + 0.5)
            p[n + 1] = cur
    # The first row past 1e300 (inf and nan fail the test too) marks the
    # horizon; the rows before it do not depend on it.
    fine = p[2:] <= 1e300
    if not fine.all():
        n = int(np.argmin(fine.reshape(n_max - 1, -1).all(axis=1))) + 1
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
            "point z = 1 (tube radius equals center radius)")
    xi = math.acosh(z)
    # The binding constraint is the ratio Q/P ~ e^{-2 n xi}, which leaves
    # float64 range twice as fast as either function alone.
    if 2.0 * n_max * xi > _LOG_HORIZON:
        raise OverflowHorizonError(
            f"n_max = {n_max} exceeds the float64 horizon at z = {z}; "
            f"largest safe n is {int(_LOG_HORIZON / (2.0 * xi))}",
            max_safe_n=int(_LOG_HORIZON / (2.0 * xi)),
        )
    # At least one row past n_max, and no row where P could overflow.
    n_top = min(n_max + 1 + math.ceil(_TAIL_XI / xi), max(n_max + 1, int(_LOG_HORIZON / xi)))
    p_minus, p_plus, q_minus = toroidal_seeds(z)
    p = _p_forward(z, n_top, p_minus, p_plus)
    # R_k - R_{k+1} = 1 / ((k + 1/2) P_k P_{k+1}), each P divided out on its
    # own (the product can overflow)
    ratio = 1.0 / (np.arange(0.5, n_top) * p[:-1]) / p[1:]
    np.cumsum(ratio[::-1], out=ratio[::-1])
    ratio = ratio[: n_max + 1] * (q_minus / (ratio[0] * p[0]))
    q = ratio * p[: n_max + 1]
    for arr in (q, ratio):
        arr.flags.writeable = False
    return HarmonicTable(z=z, n_max=n_max, q=q, ratio=ratio)


def _series_stream(shapes, rel_tol: float, n_cap: int, cols=None):
    """(value, stop, bound, d) per column: sum_n (2 - delta_n0) R_n F_n, R_n =
    Q_{n-1/2}(z) / P_{n-1/2}(z) at the column's shape z = 1 + delta and F_n =
    P_{n-1/2}(x) (c0 cos n phi + c1 n sin n phi + c2 n^2 cos n phi), summed
    by parts (README).  shapes holds (P_{-1/2}(z), P_{1/2}(z), Q_{-1/2}(z),
    delta) per shape, cols (shape, P_{-1/2}(x), P_{1/2}(x), x - 1, grow >=
    e^xi, phi, c0, c1, c2) per cosine column; without cols, M0 and M2 of each
    shape are positive columns, and d = sum_k (2 - delta_k0) F_k / P_{k-1/2}^2
    over their rows.  stop: a column's last row, or -1 where it did not stop
    within rows 0..n_cap, and bound there the tail bound reached.  Up to
    _FEW_COLUMNS columns run one by one on Python floats, with the bits they
    have among others, and are live in every row they run; more leave
    numpy's rows once half are done."""
    shapes, positive = np.array(shapes, ndmin=2), cols is None
    if np.count_nonzero(shapes[:, 3] < Z_MIN_OFFSET):
        raise NearSingularArgumentError(f"a shape lies within {Z_MIN_OFFSET} of z = 1")
    cols = np.tile(_MOMENTS, len(shapes)) if positive else cols
    p_minus, p_plus, q_minus, dz = (np.repeat(shapes, 2, axis=0) if positive
                                    else shapes[cols[0].astype(int)]).T
    cosine, n = not np.count_nonzero(cols[7:]), cols.shape[1]
    # per column: the sums T, S and D, the rows since the bound held, v_k B_k,
    # v_k A_k, y_k = v_k P_{k-1/2}(x) / P_{-1/2}(x), the last term, tau_k =
    # P_{k+1/2}(x) / P_{k-1/2}(x) - 1, dx, grow, phi, |sin(phi / 2)|, c0, c1,
    # c2, q, v_k, sigma_k and dz = z - 1; then the tail bounds n1 / d1 and
    # n2 / d2, and the last row less the rows since
    out = np.zeros((25, n))
    out[[6, 17]], out[7], out[8], out[9:12] = 1.0, -np.inf, cols[2] / cols[1] - 1.0, cols[3:6]
    out[12], out[13:16] = np.abs(np.sin(0.5 * cols[5])), cols[6:]
    out[18], out[19] = p_plus / p_minus - 1.0, dz
    with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
        queue = [(np.arange(n), out[:20], 0)]
        while queue:  # (columns, their state, first row)
            left, st, k0 = queue.pop()
            if not isinstance(left, int) and left.size <= _FEW_COLUMNS:  # each on Python floats
                queue += [(j, col, k0) for j, col in zip(left.tolist(), np.transpose(st).tolist())]
                continue
            lone = isinstance(left, int)
            t, s, d, met, b, a, y, prev, tau, dx, grow, phi, half, c0, c1, c2, q, v, sig, dz = st
            if not lone and len(shapes) == 1 and not np.count_nonzero(cols[6:] != cols[6:, :1]):
                c0, c1, c2, q, v, sig, dz = st[13:, 0].tolist()  # shared: on Python floats
            # numpy's cos and sin, for a list's bits; Abel-Dirichlet's factor ad
            e0, e1, e2, num = abs(c0), abs(c1), abs(c2), float if lone else np.asarray
            ad, n2, d2 = 2.0 * e0 + (0.0 if cosine else np.inf), 0.0, 0.0
            for k in range(k0, n_cap + 1):
                live, w, h = 1.0 if lone else met <= _EXTRA_ROWS, 2.0 if k else 1.0, k + 0.5
                if positive:
                    f = c0 + c2 * k * k
                else:
                    # g0 + g1 i + e2 i^2 bounds |F_{k+i}| / P_{k+i-1/2}(x), for the sums A
                    cos_k, g0, g1 = num(np.cos(k * phi)), e0 + e1 * k + e2 * k * k, e1 + 2 * e2 * k
                    f = c0 * cos_k if cosine else c0 * cos_k + ((c1 * k) * num(np.sin(k * phi))
                                                                + (c2 * k * k) * cos_k)
                    a = a * q + (w * g0) * y
                # row k of v_k B_k, T and S; q = v_{k+1} / v_k = 1 / (rho_k rho_{k+1})
                wf, rho = w * f, 1.0 + sig
                b = b * q + wf * y
                term = b / h
                t, s = t + live * term, s + live * (v / h)
                sig = (dz * (2 * k + 2) + h * (sig / (1.0 + sig))) / (k + 1.5)
                q = 1.0 / rho / (1.0 + sig)
                if positive:
                    # positive terms with falling ratios: past row k they sum to at
                    # most term^2 / (prev - term); v_k rho_k = P_{-1/2} P_{1/2} P_{k-1/2}^-2
                    d, y = d + live * (wf * (v * rho)), v * q
                    n1, d1, prev = term * term, prev - term, term
                    held = n1 <= rel_tol * t * d1
                else:
                    # the two tail bounds n / d (README), held where n <= rel_tol |T| d
                    r, u = q * grow, 1.0 - q * grow
                    uu, poly = (u, g0) if cosine else (u * u * u, g0 * (u * u) + g1 * u
                                                       + e2 * (1.0 + r))
                    n1, d1 = q * a * uu + (2.0 * y * r) * poly, h * (1.0 - q) * uu
                    n2, d2, room = ad * y * r, h * half * u, rel_tol * abs(t)
                    held = (u > 0.0) & ((n1 <= room * d1) | (n2 <= room * d2))
                    y = y * (1.0 + tau) * q  # the field's row k + 1
                    tau = (dx * (2 * k + 2) + h * (tau / (1.0 + tau))) / (k + 1.5)
                met = met + ((met > 0.0 or held) if lone else (met > 0.0) | held)
                v = v * q
                # columns that are done stay, frozen, until half are
                if k == n_cap or (met > _EXTRA_ROWS if lone else np.count_nonzero(
                        met <= _EXTRA_ROWS) <= left.size // 2):
                    rows = (t, s, d, met, b, a, y, prev, tau, dx, grow, phi, half, c0, c1, c2, q,
                            v, sig, dz, n1, d1, n2, d2, k - met)
                    out[:, left] = rows if lone else np.broadcast_arrays(*rows)
                    if not lone:  # the columns left
                        left = left[(met <= _EXTRA_ROWS) & (k < n_cap)]
                        queue.append((left, out[:20, left], k + 1))
                    break
        # P_{-1/2}(x) (R_0 / S) T, and the bound reached, scaled alike
        (t, s, d, met), (n1, d1, n2, d2, last) = out[:4], out[20:]
        scale, live, bound = cols[1] * (q_minus / p_minus) / s, met <= _EXTRA_ROWS, np.zeros(n)
        if np.count_nonzero(live):
            bound[live] = (np.abs(scale) * np.minimum(np.where(d1 > 0.0, n1 / d1, np.inf),
                                                      np.where(d2 > 0.0, n2 / d2, np.inf)))[live]
    stop = (last + _EXTRA_ROWS + 1).astype(int)
    stop[live] = -1
    return scale * t, stop, bound, d / (p_plus * p_minus)
