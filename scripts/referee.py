#!/usr/bin/env python3
"""Regenerate tests/referee_moments.json: 30-digit series values of the toroid.

The force, energy and thresholds read the shape only through the moments
of the ratio R_n = Q_{n-1/2}(z) / P_{n-1/2}(z) at z = a/b,

    M0 = sum_n (2 - delta_n0) R_n,    M2 = sum_n (2 - delta_n0) n^2 R_n,

and critical_ratio's slope through D0 = sum_n (2 - delta_n0) / P_{n-1/2}^2
and D2, the same sum weighted by n^2.  The induced potential of a unit
charge at height z' on the axis is, reduced by K_E q (1/nm),

    V_H = -(2/pi) h / hypot(f, z') sum_n (2 - delta_n0) R_n P_{n-1/2}(cosh xi)
          cos(n (eta - eta')),

h = hypot(sinh(xi/2), sin(eta/2)) and eta' = 2 atan2(f, z'), and its mixed
derivative on the axis, with (r, c, s) = (hypot(f, z), f / r, z / r) at z
and z' and phi = eta(z) - eta(z'),

    d^2 G_H / dz dz' = -f / (2 pi^2 r^2 r'^2) sum_n (2 - delta_n0) R_n
                       [(s s' + 4 n^2 c c') cos n phi + 2 n (s c' - s' c) sin n phi].

This script computes them at 60 digits and imports nothing from torvdw:

- P_{-1/2} and P_{1/2} come from mpmath's legenp (type 3, the branch for
  arguments above 1);
- P_{n-1/2} runs forward by the degree recurrence (DLMF 14.10.3);
- R_n is the Casoratian tail sum R_n = sum_{k >= n} 1 / ((k + 1/2)
  P_{k-1/2} P_{k+1/2}) (Gautschi, SIAM Rev. 9, 1967), taken until every
  summand and every moment term is below 1e-50 of its sum, and for the
  potentials e^{-46/xi0} past their last row;
- the potentials and mixed derivatives are summed term by term, cos and sin
  of n phi by their three-term recurrence, until the terms fall below 1e-40
  of the sum (e^{-92} at most, by the row count).

R_0 is checked against mpmath's own Q_{-1/2}/P_{-1/2} to 1e-45.  The shapes
are b = 1 and a = 1 + 10^k for k = -6..12, stored as the float64 values the
package receives; the potentials and mixed derivatives are taken from
k = -4 on, at axis, central-plane and surface points, and at a/b = 1.0001
on the 21 radii of `torvdw potential --a 1.0001 --b 1 --cut plane --zpoints
21`.  Field points are stored as the float64 (xi, eta) at which the values
are taken; each value is written to 30 significant digits.

Usage: python scripts/referee.py [--check]   (a few seconds)
    --check  regenerate in memory and exit 1 unless the committed file
             matches byte for byte.
"""

import json
import math
import os
import sys

import mpmath as mp

DIGITS = 30
mp.mp.dps = 60
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tests", "referee_moments.json")
GAPS = [10.0**k for k in range(-6, 13)]   # a/b - 1, at b = 1
TAIL = mp.mpf("1e-50")
#: (z, z') of the mixed derivatives, nm at b = 1
MIXED_HEIGHTS = [(0.5, 0.5), (1.0, 0.5)]
#: the degree recurrence's coefficients by row, shared by every sum
STEP, SCALE = [], []


def moments(z):
    """(M0, M2, D0, D2) at the argument z > 1, an mpf."""
    half = mp.mpf(1) / 2
    p = [mp.legenp(-half, 0, z, type=3), mp.legenp(half, 0, z, type=3)]
    u_sum, n = mp.mpf(0), 0
    while True:
        # P_{n+3/2} from P_{n+1/2} and P_{n-1/2}: nu = n + 1/2
        nu = n + half
        p.append(((2 * nu + 1) * z * p[n + 1] - nu * p[n]) / (nu + 1))
        u = 1 / (p[n] * p[n + 1])
        u_sum += u
        if n > 2 and (n * n + 1) * u < TAIL * u_sum and (n * n + 1) / p[n] ** 2 < TAIL / p[0] ** 2:
            break
        n += 1
    rows = n + 1
    ratio, tail = [mp.mpf(0)] * rows, mp.mpf(0)
    for k in reversed(range(rows)):
        tail += 1 / ((k + half) * p[k] * p[k + 1])
        ratio[k] = tail
    q0 = mp.re(mp.legenq(-half, 0, z, type=3)) / p[0]
    if abs(ratio[0] / q0 - 1) > mp.mpf("1e-45"):
        raise ArithmeticError(f"Casoratian R_0 misses mpmath's Q/P at z = {z}")
    weight = [1 if k == 0 else 2 for k in range(rows)]
    return (mp.fsum(w * r for w, r in zip(weight, ratio)),
            mp.fsum(w * k * k * r for k, (w, r) in enumerate(zip(weight, ratio))),
            mp.fsum(w / p[k] ** 2 for k, w in enumerate(weight)),
            mp.fsum(w * k * k / p[k] ** 2 for k, w in enumerate(weight)))


def harmonics(z, rows):
    """(P, R): P_{n-1/2}(z) for n = 0..rows + 1 and R_n for n = 0..rows at
    the mpf z > 1, each R_n a Casoratian tail sum over e^{-46/xi0} more rows."""
    half, top = mp.mpf(1) / 2, rows + int(46 / mp.acosh(z)) + 1
    p = [mp.legenp(-half, 0, z, type=3), mp.legenp(half, 0, z, type=3)]
    for n in range(top):
        p.append(((2 * n + 2) * z * p[n + 1] - (n + half) * p[n]) / (n + 1 + half))
    ratio, tail = [mp.mpf(0)] * (top + 1), mp.mpf(0)
    for k in reversed(range(top + 1)):
        tail += 1 / ((k + half) * p[k] * p[k + 1])
        ratio[k] = tail
    return p[:rows + 2], ratio[:rows + 1]


def cosine_sum(weights, x, phi, coef):
    """sum_n weights[n] P_{n-1/2}(x) (c0 cos n phi + c1 n sin n phi + c2 n^2
    cos n phi) for mpf x >= 1, until a term bound is below 1e-40 of the sum."""
    half, (c0, c1, c2) = mp.mpf(1) / 2, (mp.mpf(c) for c in coef)
    if x == 1:
        pm, pn = mp.mpf(1), mp.mpf(1)
    else:
        pm, pn = mp.legenp(-half, 0, x, type=3), mp.legenp(half, 0, x, type=3)
    cos1, sin1 = mp.cos(phi), mp.sin(phi)
    cos_p, cos_n, sin_p, sin_n = cos1, mp.mpf(1), -sin1, mp.mpf(0)
    total, small, x2 = mp.mpf(0), mp.mpf("1e-40"), 2 * x
    # P_{n+3/2} = (2 x P_{n+1/2} - (n + 1/2) / (n + 1) P_{n-1/2}) (n + 1) / (n + 3/2)
    while len(STEP) < len(weights):
        n = len(STEP)
        STEP.append((n + half) / (n + 1))
        SCALE.append((n + 1) / (n + 1 + half))
    for n, w in enumerate(weights):
        wp = w * pm
        if c1 or c2:
            nn = mp.mpf(n)
            size = wp * (abs(c0) + nn * (abs(c1) + nn * abs(c2)))
            total += wp * ((c0 + c2 * nn * nn) * cos_n + c1 * nn * sin_n)
        else:
            size = wp
            total += wp * cos_n
        if n > 2 and size < small * abs(total):
            break
        # P_{n+1/2}(x), cos and sin of (n + 1) phi by their recurrences
        pm, pn = pn, (x2 * pn - STEP[n] * pm) * SCALE[n]
        if phi:
            cos_p, cos_n = cos_n, 2 * cos1 * cos_n - cos_p
            sin_p, sin_n = sin_n, 2 * cos1 * sin_n - sin_p
    return total
def potentials(a, ratio, weights):
    """V_H / (K_E q) entries at axis, central-plane and surface points of
    the shape a (b = 1), and at a = 1.0001 on the plane cut's 21 radii."""
    z, f = mp.mpf(a), mp.sqrt((mp.mpf(a) - 1) * (mp.mpf(a) + 1))
    xi0 = float(mp.acosh(z))
    points = [(0.5, 0.0, float(2 * mp.atan2(f, 2))), (0.5, 0.0, float(-2 * mp.atan2(f, 0.7))),
              (0.5, 0.5 * xi0, math.pi), (0.5, xi0, 1.0), (0.5, xi0, math.pi)]
    if a == 1.0001:
        r_max = (a - 1.0) * (1.0 - 1e-9)
        points += [(0.0, float(2 * mp.atanh(mp.mpf(k * r_max / 20) / f)), math.pi)
                   for k in range(21)]
    out = []
    for source, xi, eta in points:
        eta_src = 2 * mp.atan2(f, source)
        h = mp.hypot(mp.sinh(mp.mpf(xi) / 2), mp.sin(mp.mpf(eta) / 2))
        total = cosine_sum(weights, mp.cosh(xi), mp.mpf(eta) - eta_src, (1, 0, 0))
        out.append({"a": a, "b": 1.0, "source_z": source, "xi": xi, "eta": eta,
                    "VH": mp.nstr(-2 / mp.pi * h / mp.hypot(f, source) * total, DIGITS)})
    return out


def mixed(a, weights):
    """d^2 G_H / dz dz' entries of the shape a (b = 1)."""
    f = mp.sqrt((mp.mpf(a) - 1) * (mp.mpf(a) + 1))
    out = []
    for z, z_prime in MIXED_HEIGHTS:
        r, r_p = mp.hypot(f, z), mp.hypot(f, z_prime)
        (c, s), (c_p, s_p) = (f / r, z / r), (f / r_p, z_prime / r_p)
        phi = 2 * mp.atan2(f, z) - 2 * mp.atan2(f, z_prime)
        total = cosine_sum(weights, mp.mpf(1), phi,
                           (s * s_p, 2 * (s * c_p - s_p * c), 4 * c * c_p))
        out.append({"a": a, "b": 1.0, "z": z, "z_prime": z_prime,
                    "GH_zz": mp.nstr(-f / (2 * mp.pi**2 * r**2 * r_p**2) * total, DIGITS)})
    return out


def panel():
    shapes, vh, gh = [], [], []
    for gap in GAPS:
        a = 1.0 + gap
        values = moments(mp.mpf(a))
        shapes.append({"a": a, "b": 1.0,
                       **{name: mp.nstr(v, DIGITS) for name, v in
                          zip(("M0", "M2", "D0", "D2"), values)}})
        if gap >= 1e-4:
            # the surface terms fall like e^{-n xi0}: e^{-92} after these rows
            _, ratio = harmonics(mp.mpf(a), int(92 / mp.acosh(mp.mpf(a))) + 10)
            weights = [r if n == 0 else 2 * r for n, r in enumerate(ratio)]
            vh += potentials(a, ratio, weights)
            gh += mixed(a, weights)
    text = json.dumps({
        "about": "moments M0, M2, D0, D2 at z = a/b, V_H / (K_E q) at field "
                 "points (xi, eta) for a unit charge at source_z, and "
                 "d^2 G_H / dz dz' on the axis; regenerate with "
                 "python scripts/referee.py",
        "digits": DIGITS,
        "shapes": shapes,
        "potentials": vh,
        "mixed_derivatives": gh,
    }, indent=1)
    return text + "\n"


def main(argv):
    text = panel()
    if "--check" in argv:
        with open(OUT) as fh:
            same = fh.read() == text
        print("referee_moments.json " + ("matches" if same else "differs"))
        return 0 if same else 1
    with open(OUT, "w") as fh:
        fh.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
