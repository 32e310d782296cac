#!/usr/bin/env python3
"""Regenerate tests/referee_moments.json: 30-digit moments of the toroid.

The force, energy and thresholds read the shape only through the moments
of the ratio R_n = Q_{n-1/2}(z) / P_{n-1/2}(z) at z = a/b,

    M0 = sum_n (2 - delta_n0) R_n,    M2 = sum_n (2 - delta_n0) n^2 R_n,

and critical_ratio's slope through D0 = sum_n (2 - delta_n0) / P_{n-1/2}^2
and D2, the same sum weighted by n^2.  This script computes all four at 60
digits and imports nothing from torvdw:

- P_{-1/2} and P_{1/2} come from mpmath's legenp (type 3, the branch for
  arguments above 1);
- P_{n-1/2} runs forward by the degree recurrence (DLMF 14.10.3);
- R_n is the Casoratian tail sum R_n = sum_{k >= n} 1 / ((k + 1/2)
  P_{k-1/2} P_{k+1/2}) (Gautschi, SIAM Rev. 9, 1967), taken until every
  summand and every moment term is below 1e-50 of its sum.

R_0 is checked against mpmath's own Q_{-1/2}/P_{-1/2} to 1e-45.  The shapes
are b = 1 and a = 1 + 10^k for k = -6..12, stored as the float64 values the
package receives; each value is written to 30 significant digits.

Usage: python scripts/referee.py [--check]   (a few seconds)
    --check  regenerate in memory and exit 1 unless the committed file
             matches byte for byte.
"""

import json
import os
import sys

import mpmath as mp

DIGITS = 30
mp.mp.dps = 60
OUT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                   "tests", "referee_moments.json")
GAPS = [10.0**k for k in range(-6, 13)]   # a/b - 1, at b = 1
TAIL = mp.mpf("1e-50")


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


def panel():
    shapes = []
    for gap in GAPS:
        a = 1.0 + gap
        values = moments(mp.mpf(a))
        shapes.append({"a": a, "b": 1.0,
                       **{name: mp.nstr(v, DIGITS) for name, v in
                          zip(("M0", "M2", "D0", "D2"), values)}})
    text = json.dumps({
        "about": "moments M0, M2, D0, D2 at z = a/b; regenerate with "
                 "python scripts/referee.py",
        "digits": DIGITS,
        "shapes": shapes,
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
