#!/usr/bin/env python3
"""Regenerate referee_panel.json: 30-digit values of U, F and V_H by mpmath.

The referee knows only the physics, not the package: the toroidal
harmonics come from mpmath's ``legenp``/``legenq`` (type 3, the branch for
arguments above 1), the series are summed at 50 digits until their tail is
below 1e-40 of the sum, and nothing from torvdw is imported.  Values are
reduced: U and F per <d_z^2> K_E (1/nm^3 and 1/nm^4), V_H per K_E q (1/nm).

    U/(<d_z^2> K_E)  = -(f/pi) sum_n w_n (z^2 + 4 n^2 f^2) / (f^2 + z^2)^3
    F/(<d_z^2> K_E)  = (2 f/pi) z sum_n w_n [(1 - 12 n^2) f^2 - 2 z^2] / (f^2 + z^2)^4
    V_H/(K_E q)      = -(1/(pi f)) sqrt((cosh xi - cos eta)(1 - cos eta'))
                       sum_n w_n P_{n-1/2}(cosh xi) cos(n (eta - eta'))

with w_n = (2 - delta_n0) Q_{n-1/2}(a/b) / P_{n-1/2}(a/b), f^2 = a^2 - b^2,
eta' = 2 atan2(f, z') for the source at height z' on the axis.

The panel covers a fat (a/b = 1.05), a near-critical (a/b = 3.55, whose
force at z = b is at its repulsion threshold) and a thin (a/b = 20) shape,
heights from 0.3 b to 3 b and, where the force has a zero z*, 0.95 z* and
1.05 z*.  Inputs are stored as the float64 values torvdw receives.

Usage: python perfbench/referee.py   (a few seconds)
"""

import json
import os

import mpmath as mp

DIGITS = 30
mp.mp.dps = 50
OUT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "referee_panel.json")

SHAPES = ((1.05, 1.0), (3.55, 1.0), (20.0, 0.8))   # (a/b, b in nm)
HEIGHTS = (0.3, 1.0, 3.0)                           # z / b
SOURCE = 0.5                                        # z' / b for V_H


class Shape:
    def __init__(self, ratio, b):
        self.a = float(ratio * b)
        self.b = float(b)
        a, b = mp.mpf(self.a), mp.mpf(self.b)
        self.f = mp.sqrt(a * a - b * b)
        self.z0 = a / b
        self._w = []

    def w(self, n):
        while len(self._w) <= n:
            k = len(self._w)
            nu = k - mp.mpf(1) / 2
            ratio = mp.re(mp.legenq(nu, 0, self.z0, type=3)) / mp.legenp(nu, 0, self.z0, type=3)
            self._w.append(ratio * (1 if k == 0 else 2))
        return self._w[n]


def series(term, limit=4000):
    """Sum term(n) until three consecutive terms are below 1e-40 of the sum."""
    total, quiet = mp.mpf(0), 0
    for n in range(limit):
        t = term(n)
        total += t
        quiet = quiet + 1 if abs(t) <= mp.mpf("1e-40") * abs(total) else 0
        if quiet == 3:
            return total
    raise ArithmeticError("referee series did not converge")


def energy(s, z):
    z, f = mp.mpf(z), s.f
    return -(f / mp.pi) * series(lambda n: s.w(n) * (z * z + 4 * n * n * f * f)) / (f * f + z * z) ** 3


def force(s, z):
    z, f = mp.mpf(z), s.f
    total = series(lambda n: s.w(n) * ((1 - 12 * n * n) * f * f - 2 * z * z))
    return 2 * (f / mp.pi) * z * total / (f * f + z * z) ** 4


def vh(s, xi, eta, z_src):
    xi, eta, f = mp.mpf(xi), mp.mpf(eta), s.f
    eta_src = 2 * mp.atan2(f, mp.mpf(z_src))
    chi = mp.cosh(xi)

    def term(n):
        p = 1 if xi == 0 else mp.legenp(n - mp.mpf(1) / 2, 0, chi, type=3)
        return s.w(n) * p * mp.cos(n * (eta - eta_src))

    pref = -mp.sqrt((chi - mp.cos(eta)) * (1 - mp.cos(eta_src))) / (mp.pi * f)
    return pref * series(term)


def force_zero(s):
    """z* of the force on the axis, or None when it never changes sign."""
    grid = [s.b * k / 8 for k in range(1, 200)]
    signs = [force(s, z) > 0 for z in grid]
    for k in range(1, len(grid)):
        if signs[k] != signs[k - 1]:
            return float(mp.findroot(lambda z: force(s, z), (grid[k - 1], grid[k]),
                                     solver="anderson"))
    return None


def cases():
    out = []
    for ratio, b in SHAPES:
        s = Shape(ratio, b)
        heights = [h * s.b for h in HEIGHTS]
        z_star = force_zero(s)
        if z_star is not None:
            heights += [0.95 * z_star, 1.05 * z_star]
        for z in heights:
            z = float(z)
            for quantity, fn in (("U", energy), ("F", force)):
                out.append({"quantity": quantity, "a": s.a, "b": s.b, "z": z,
                            "value": mp.nstr(fn(s, z), DIGITS)})
        z_src = float(SOURCE * s.b)
        f = float(s.f)
        # two axis points and one point across the central disk (eta = pi)
        points = [(0.0, float(2 * mp.atan2(f, -1.5 * s.b))),
                  (0.0, float(2 * mp.atan2(f, 2.5 * s.b))),
                  (float(2 * mp.atanh(0.5 * (s.a - s.b) / s.f)), float(mp.pi))]
        for xi, eta in points:
            out.append({"quantity": "VH", "a": s.a, "b": s.b, "source_z": z_src,
                        "xi": xi, "eta": eta, "value": mp.nstr(vh(s, xi, eta, z_src), DIGITS)})
    return out


def main():
    panel = {
        "about": "U, F per <d_z^2> K_E and V_H per K_E q; regenerate with "
                 "python perfbench/referee.py",
        "mpmath": mp.__version__,
        "digits": DIGITS,
        "cases": cases(),
    }
    with open(OUT, "w") as fh:
        json.dump(panel, fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(panel['cases'])} cases to {OUT}")


if __name__ == "__main__":
    main()
