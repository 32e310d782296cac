#!/usr/bin/env python3
"""Node-doubling study of the Nyström oracle.

Measures the worst relative deviation of the oracle's induced potential
from the separable-series value over a fixed set of exterior points, for
node counts doubling from 16 to 512, with the time of each rung split in
two: the assembly of the even and odd blocks (BemMesh.blocks) and the
block solve (solve_induced_density on the assembled mesh: both LU solves
and the residual check), each the best of `repeats` runs, in ms; and the
time of one ring sum, bem_vh at one field point on the solution, the best
of `repeats` runs of 100 calls, in µs.  The
oracle converges geometrically: the gain, the factor by which a doubling
cuts the error, grows until the error reaches the rounding floor, where it
falls to about 1.

Run as a script, it pins BLAS to one thread before numpy loads, as the
benchmark does, so the solve times are a serial baseline.

Usage: python scripts/bem_convergence.py [a] [b]
"""

import math
import os
import sys
import time

if __name__ == "__main__":
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

import numpy as np

from torvdw import (
    axial_greens,
    axial_source,
    cartesian_to_toroidal,
    toroid_from_radii,
    vh_potential,
)
from torvdw.bem import bem_vh, build_mesh, solve_induced_density


def _best_ms(call, repeats: int, calls: int = 1) -> float:
    """The best of `repeats` runs of `calls` calls, in ms per call."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(calls):
            call()
        best = min(best, time.perf_counter() - t0)
    return 1e3 * best / calls


def study(a: float, b: float, panel_counts=(16, 32, 64, 128, 256, 512),
          repeats: int = 5) -> None:
    geom = toroid_from_radii(a, b)
    g = axial_greens(geom)
    src = axial_source(1.3, geom)

    rng = np.random.default_rng(20240)
    pts = []
    while len(pts) < 24:
        r = rng.uniform(0.0, 2.5 * geom.a)
        z = rng.uniform(-2.5 * geom.a, 2.5 * geom.a)
        if math.hypot(r - geom.a, z) < 1.3 * geom.b:
            continue
        pts.append((r, z))
    reference = np.array([
        vh_potential(cartesian_to_toroidal(r, 0.0, z, geom.f), src, g)
        for r, z in pts
    ])
    r, z = np.array(pts).T

    print(f"a = {a} nm, b = {b} nm, source at z' = {src.z_src} nm, "
          f"{len(pts)} exterior probe points; times best of {repeats}")
    print(f"{'nodes':>8} {'max rel err':>14} {'gain':>9} {'assembly_ms':>12} {'solve_ms':>9} "
          f"{'field_us':>9}")
    prev = None
    for n in panel_counts:
        meshes = [build_mesh(geom, n) for _ in range(repeats)]
        fresh = iter(meshes)
        assembly = _best_ms(lambda: next(fresh).blocks(), repeats)
        mesh = meshes[-1]
        solve = _best_ms(lambda: solve_induced_density(mesh, src), repeats)
        sol = solve_induced_density(mesh, src)
        field = 1e3 * _best_ms(lambda: bem_vh(r[0], z[0], sol), repeats, calls=100)
        err = float(np.max(np.abs(bem_vh(r, z, sol) - reference) / np.abs(reference)))
        gain = f"{prev / err:9.2e}" if prev else "        -"
        print(f"{n:8d} {err:14.3e} {gain} {assembly:12.3f} {solve:9.3f} {field:9.1f}")
        prev = err


if __name__ == "__main__":
    a = float(sys.argv[1]) if len(sys.argv) > 1 else 5.0
    b = float(sys.argv[2]) if len(sys.argv) > 2 else 2.0
    study(a, b)
