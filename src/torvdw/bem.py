"""Axisymmetric Nyström oracle for the grounded toroid.

Independent numerical route to the same electrostatics: the induced
density on the meridian circle r = a + b cos t, z = b sin t solves
int sigma 4 r b K(m) / R_max dt = -V_src, whose kernel is a charged ring's
potential.  The only special function used is the complete elliptic
integral K, from Cephes' polynomial-plus-log fit rather than the AGM of
specfun that seeds the series, so agreement with the separable series is
a genuine cross-check rather than a shared code path.

Kress's log-split Nyström rule (*Linear Integral Equations*, 3rd ed.,
12.3) on an even number n of nodes equispaced in s and graded by
tan(t/2) = tan(s/2) / lambda, lambda = min(1, sqrt(a/b - 1)): a Möbius
map of the circle that packs nodes at the inner equator by 1/lambda (Boyd,
*Chebyshev and Fourier Spectral Methods*, ch. 16).  On the circle p = 1 - m
is the squared chord over R_max^2, and Cephes' fit K(m) = P(p) - Q(p) ln p
splits off the log: the kernel is k1 ln(4 sin^2((s - s')/2)) + k2 with
k1 = -Q(p) and k2 smooth, one polynomial pass and one log a node pair.
Kress's weights integrate the log part and the trapezoidal rule the rest:
the error falls geometrically with n.  p and R_max come from squares of
the coordinates in units of a power of two L >= max r, an exact scaling.
The field-point sums use the same kernel with log weight 0, K(m) / R_max,
in units of a power of two L per point above the point's coordinates and
every ring radius: no field point overflows, and on the axis p is 1.

Reduced units as in the rest of the package: potentials per K_E q,
lengths in nm, charges in e.
"""

from __future__ import annotations

import functools
import math
import operator
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, SingularKernelError, SolverError
from .geometry import ToroidGeometry, _axis_heights
from .greens import AxialSource, _checked_source, _in_range
from .units import K_E_EV_NM

__all__ = [
    "BemMesh",
    "BemSolution",
    "bem_gh_reduced",
    "bem_mixed_derivative",
    "bem_vh",
    "build_mesh",
    "solve_induced_density",
    "total_induced_charge",
]

#: Residual gate on the solved system, relative to the source's Coulomb scale.
RESIDUAL_LIMIT = 1e-8

# Cephes ellpk (S. L. Moshier): K(1 - x) = P(x) - Q(x) ln x on [0, 1], the
# coefficients of P and Q side by side, highest degree first; P(0) = ln 4
# and Q(0) = 1/2.
_ELLPK_PQ = (
    (1.37982864606273237150e-4, 2.94078955048598507511e-5),
    (2.28025724005875567385e-3, 9.14184723865917226571e-4),
    (7.97404013220415179367e-3, 5.94058303753167793257e-3),
    (9.85821379021226008714e-3, 1.54850516649762399335e-2),
    (6.87489687449949877925e-3, 2.39089602715924892727e-2),
    (6.18901033637687613229e-3, 3.01204715227604046988e-2),
    (8.79078273952743772254e-3, 3.73774314173823228969e-2),
    (1.49380448916805252718e-2, 4.88280347570998239232e-2),
    (3.08851465246711995998e-2, 7.03124996963957469739e-2),
    (9.65735902811690126535e-2, 1.24999999999870820058e-1),
    (1.38629436111989062502e0, 4.99999999999999999821e-1),
)

def _cephes_pq(x):
    """P(x) and Q(x) of Cephes' fit, by one Horner loop each in x, a float
    or an array.  Below 2^-53 they round to ln 4 and 1/2, so Cephes'
    separate branch there, K(1 - x) = ln 4 - ln(x) / 2, is not needed."""
    (p, q), *middle, (p_end, q_end) = _ELLPK_PQ
    p, q = p * x, q * x
    for cp, cq in middle:
        p += cp
        p *= x
        q += cq
        q *= x
    p += p_end
    q += q_end
    return p, q


def _log_weights(n: int) -> np.ndarray:
    """Kress's weights R_d less the log they integrate, by node offset d:
    c_d = n R_d / (2 pi) - ln(4 sin^2(pi d / n)) (no log at d = 0), where
    n R_d / (2 pi) = -2 sum_k a_k cos(2 pi k d / n), a_k = 1/k for
    0 < k < n / 2 and a_{n/2} = 1/n, n even.  Rounding makes c_{n - d} and
    c_d differ in their last bits; c_{n - d} is set to c_d, d < n / 2."""
    a = np.zeros(n)
    k = np.arange(1, n // 2)
    a[k] = 1.0 / k
    a[n // 2] = 1.0 / n
    c = -2.0 * np.fft.fft(a).real
    c[1:] -= np.log(4.0 * np.sin(np.pi * np.arange(1, n) / n) ** 2)
    c[:n // 2:-1] = c[1:n // 2]
    return c


@functools.lru_cache(maxsize=4)
def _pair_tables(n: int):
    """What the kernel pass on n nodes needs besides them, read-only, 40
    bytes a pair (i, j), j > i, of the strict upper triangle of k = n / 2
    rows, in row order: c = _log_weights(n); the rows i and columns j, 32-bit
    (they only gather); the flat positions of (i, j) and (j, i) in a k x k
    plane; c at the offsets j - i and i + j + 1 (c_{n - d} = c_d)."""
    k = n // 2
    i, j = np.triu_indices(k, 1)
    c = _log_weights(n)
    tables = (c, np.array([i, j], dtype=np.int32), np.stack([i * k + j, j * k + i]),
              c.take(np.stack([j - i, i + j + 1])))
    for table in tables:
        table.flags.writeable = False
    return tables


#: Node counts whose pair tables are cached (the oracle alternates two), so
#: the cache holds at most 4 x 1.3 MB; larger meshes build theirs uncached.
_CACHED_NODES = 512
#: Pairs per run of the kernel pass: its temporaries stay in cache and
#: below glibc's 128 KB mmap threshold, so they fault no fresh pages.
_PAIR_CHUNK = 1 << 12


def _ring_kernels(r_i, r_j, dz, c):
    """Kress's kernel (K(m) - Q(p) c) / R_max between nodes at radii r_i
    and rings at radii r_j, dz apart in height (a leading axis of dz stacks
    ring sets), with the log weight c of each pair, in units of a power of
    two L >= every radius.  K(m) = P(p) - Q(p) ln p, p = 1 - m, is Cephes'
    fit, its Q(p) the log coefficient: one Horner loop each for P and Q
    and one log a pair.  p and R_max^2 = (r_i + r_j)^2 + dz^2 come from
    squares, finite in L.  With c = 0 it is a charged ring's K(m) / R_max,
    which the field-point sums take."""
    r_max = dz * dz
    p = (r_i - r_j) ** 2 + r_max
    r_max += (r_i + r_j) ** 2
    p /= r_max
    p_fit, q_fit = _cephes_pq(p)
    return (p_fit - q_fit * (np.log(p) + c)) / np.sqrt(r_max)


def _folded_kernels(r, z, tables) -> np.ndarray:
    """The even and odd kernels of the lower half's k = n / 2 nodes at (r,
    z), (2, k, k), unweighted, in units of L: the same-side kernel, from
    node i to node j, plus and minus the mirror kernel, from node i to node
    j's mirror.  Both are symmetric, as c_{n - d} = c_d: they are evaluated
    on the strict upper triangle in runs of _PAIR_CHUNK pairs, folded there
    and scattered to both triangles.  The diagonal holds the mirror kernel,
    + and -, at node i's offset 2 i + 1 from its own mirror."""
    k = len(r)
    c, pairs, to, c_pairs = tables
    folded = np.empty((2, k * k))
    folded[:, ::k + 1] = _ring_kernels(r, r, 2.0 * z[None], c[None, 1::2]) * [[1.0], [-1.0]]
    rz = np.stack([r, z])
    for start in range(0, pairs.shape[1], _PAIR_CHUNK):
        run = slice(start, start + _PAIR_CHUNK)
        (r_i, r_j), (z_i, z_j) = rz.take(pairs[:, run], axis=1)
        same, mirror = _ring_kernels(r_i, r_j, np.stack([z_i - z_j, z_i + z_j]), c_pairs[:, run])
        to_ij, to_ji = to[:, run]
        for plane, values in zip(folded, (same + mirror, same - mirror)):
            plane[to_ij] = plane[to_ji] = values
    return folded.reshape(2, k, k)


@dataclass
class BemMesh:
    """Graded Nyström nodes at s_j = -pi + 2 pi (j + 1/2) / n, n even,
    mirror-symmetric about z = 0, and the blocks of their system.

    Node ``n - 1 - j`` is the exact mirror of node j (same r and weight,
    negated z), so no node lies on z = 0.  Nodes ``0 .. h - 1``,
    h = n / 2, are the lower half.  The kernel sees heights only through
    (z - z')^2 and the weights only |s - s'|, so the Nyström matrix A
    decouples into an even block E = A_same + A_mirror and an odd block
    O = A_same - A_mirror over the lower half, both from its rows alone.
    build_mesh assembles both as one stack; each solve factors them afresh.
    """

    n_panels: int     # node count, one ring per node
    r: np.ndarray     # ring radii
    z: np.ndarray     # ring heights
    ds: np.ndarray    # arc weight per node, b t'(s_j) 2 pi / n
    blocks: np.ndarray = field(repr=False, compare=False)  # E and O, (2, h, h)

    def lu(self, parts):
        """The block solve: the even and odd parts of the right-hand sides,
        (2, h, m), by LU with partial pivoting of the even and the odd block,
        one np.linalg.solve over the stack that factors both on each call."""
        return np.linalg.solve(self.blocks, parts)

    def collocation_matrix(self) -> np.ndarray:
        """Reduced potential at node i per unit surface density at node j,
        rebuilt from the even and odd blocks with no kernel evaluations: a
        density at lower node j has even and odd parts of half its size, at
        its mirror node the odd part changes sign."""
        lower = _unfold(0.5 * self.blocks)  # the upper columns: rows reversed
        return np.hstack([lower, lower[::-1, ::-1]])


def _fold(v: np.ndarray) -> np.ndarray:
    """Even and odd parts of node vectors, one per column, over the lower
    half: (2, h, m) for (n, m)."""
    lower, upper = np.split(v, 2)
    return 0.5 * np.stack([lower + upper[::-1], lower - upper[::-1]])


def _unfold(parts: np.ndarray) -> np.ndarray:
    """The node vectors whose even and odd parts are given (inverse of
    _fold), column by column."""
    even, odd = parts
    return np.concatenate([even + odd, (even - odd)[::-1]])


def _condition(mesh: BemMesh) -> float:
    """2-norm condition number of the Nyström matrix, from its blocks: they
    are the matrix in an orthonormal even/odd basis, so their singular
    values are its own."""
    s = np.linalg.svd(mesh.blocks, compute_uv=False)
    return float(s.max() / s.min())


def build_mesh(geom: ToroidGeometry, n_panels: int) -> BemMesh:
    """Place n_panels graded Nyström nodes on the meridian circle, the upper
    half the exact mirror image of the lower, so that the even/odd split of
    the system is exact, and assemble the even and odd blocks from the
    lower half.  An odd count, or fewer than 16 nodes, raises MeshError; a
    count that is not an integer, TypeError."""
    n_panels = operator.index(n_panels)
    if n_panels < 16 or n_panels % 2:
        raise MeshError(f"need an even node count of at least 16, got {n_panels}")
    a, b, h = geom.a, geom.b, n_panels // 2
    lam = min(1.0, math.sqrt((a - b) / b))
    half_s = -0.5 * math.pi + (np.arange(h) + 0.5) * (math.pi / n_panels)
    psi = 2.0 * np.arctan(np.tan(half_s) / lam)  # tube angle, (-pi, 0)
    dt = lam / ((lam * np.cos(half_s)) ** 2 + np.sin(half_s) ** 2)  # t'(s)
    r, z, ds = a + b * np.cos(psi), b * np.sin(psi), b * dt * (2.0 * math.pi / n_panels)
    r, z, ds = (np.concatenate([x, s * x[::-1]]) for x, s in ((r, 1.0), (z, -1.0), (ds, 1.0)))
    tables = (_pair_tables if n_panels <= _CACHED_NODES else _pair_tables.__wrapped__)(n_panels)
    scale = math.ldexp(1.0, -math.frexp(r.max())[1])  # 1 / L, L = 2^e > max r: exact
    blocks = _folded_kernels(scale * r[:h], scale * z[:h], tables)
    blocks *= (4.0 * scale) * r[:h] * ds[:h]  # column j's weight, and its mirror's, over L
    # k2's limit on the diagonal, 2 b t' ln(8 r / (b t')), with the log
    # part's own weight; b t' = n ds / (2 pi).
    blocks.reshape(2, -1)[:, ::h + 1] += ds[:h] * (
        2.0 * np.log(16.0 * math.pi * r[:h] / (n_panels * ds[:h])) - tables[0][0])
    return BemMesh(n_panels=n_panels, r=r, z=z, ds=ds, blocks=blocks)


@dataclass(frozen=True)
class BemSolution:
    """Induced surface-charge density solving the grounded condition."""

    mesh: BemMesh
    sigma: np.ndarray   # induced density at the nodes, e / nm^2, for the source's charge
    source: AxialSource
    residual: float     # Nyström residual relative to the Coulomb scale
    # the field-point sums' ring charges sigma 2 pi r ds at unit charge, read-only
    charges: np.ndarray = field(repr=False, compare=False)


def _solve(mesh: BemMesh, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = rhs, one column per right-hand side, by its even and odd
    parts, with their blocks (one BemMesh.lu call).

    Returns x and the worst column's residual relative to its max |rhs|
    (0 for no columns); raises SolverError, with the Nyström matrix's
    condition number, when that residual exceeds RESIDUAL_LIMIT or is NaN.
    """
    parts = _fold(rhs)
    halves = mesh.lu(parts)
    resid = np.max(np.abs(_unfold(mesh.blocks @ halves - parts)), axis=0)
    residual = float(np.max(resid / np.max(np.abs(rhs), axis=0), initial=0.0))
    if not residual <= RESIDUAL_LIMIT:
        raise SolverError(
            f"Nyström residual {residual:.2e} exceeds {RESIDUAL_LIMIT:g}",
            condition=_condition(mesh),
        )
    return _unfold(halves), residual


def _at_charge(value, charge: float):
    """value (numpy) for a unit source charge, at the given one, or ResultOverflowError."""
    with np.errstate(over="ignore"):
        return _in_range(value * charge, "result")


def solve_induced_density(mesh: BemMesh, src: AxialSource) -> BemSolution:
    """Solve the Nyström system for the induced surface density.

    Solved, and its ring charges kept, for a unit charge; sigma and the
    sums over the ring charges take the source's charge as a factor.

    Raises
    ------
    SolverError
        If the full system's residual exceeds 1e-8 of the source Coulomb
        scale; carries the Nyström matrix's condition number.
    ResultOverflowError
        If sigma exceeds the float64 range (a huge charge on a small toroid).
    """
    x, residual = _solve(mesh, -1.0 / np.hypot(mesh.r, mesh.z - src.z_src)[:, None])
    sigma, charges = _at_charge(x[:, 0], src.charge), x[:, 0] * 2.0 * math.pi * mesh.r * mesh.ds
    sigma.flags.writeable = charges.flags.writeable = False
    return BemSolution(mesh=mesh, sigma=sigma, source=src, residual=residual, charges=charges)


def total_induced_charge(sol: BemSolution) -> float:
    """Net induced charge (e); negative for a positive source charge."""
    return float(_at_charge(sol.charges.sum(), sol.source.charge))


def _ring_sum(r, z, ring_r, ring_z, charges):
    """Reduced potential sum_j q_j (2/pi) K(m_j) / R_max,j at field points
    (r, z) of the rings at radii ring_r and heights ring_z with charges q_j,
    by _ring_kernels with log weight 0, in units of a power of two
    L > max(|r|, |z|, max ring_r) per point: nothing overflows, and on the
    axis p is exactly 1.  r and z are floats, worked on with math for one
    point, or arrays of one shape; the field radius enters as |r|, since
    the sum is even in r.  A point on a ring raises SingularKernelError."""
    top = ring_r.max()
    if isinstance(r, float) and isinstance(z, float):  # one point, the common call
        if not (math.isfinite(r) and math.isfinite(z)):
            raise ValueError("field points must be finite")
        r = abs(r)
        scale = unit = math.ldexp(1.0, -math.frexp(max(r, abs(z), top))[1])
    else:
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
        if not (np.isfinite(r).all() and np.isfinite(z).all()):
            raise ValueError("field points must be finite")
        r = np.abs(r)
        scale = np.ldexp(1.0, -np.frexp(np.maximum(np.maximum(r, np.abs(z)), top))[1])
        unit, r, z = scale[..., None], r[..., None], z[..., None]
    with np.errstate(divide="raise"):  # ln p at p = 0
        try:
            kernel = _ring_kernels(unit * r, unit * ring_r, unit * z - unit * ring_z, 0.0)
        except FloatingPointError:
            raise SingularKernelError("field point lies on a ring") from None
    return (2.0 / math.pi) * (charges * kernel).sum(axis=-1) * scale


def bem_vh(r, z, sol: BemSolution):
    """Potential (V) of the induced charge at the field point (r, z).

    The oracle's counterpart of the series V_H: a trapezoidal sum of ring
    potentials over all nodes, even in r.  r and z are scalars (a float is
    returned) or arrays of one shape (an array of that shape is returned).
    A non-finite coordinate raises ValueError, a point on a node ring or on
    its mirror through the axis SingularKernelError.
    """
    vh = K_E_EV_NM * _ring_sum(r, z, sol.mesh.r, sol.mesh.z, sol.charges)
    return _at_charge(vh, sol.source.charge)


def bem_gh_reduced(z_field: float, sol: BemSolution) -> float:
    """eps0 V_H / q on the axis, in 1/nm: the Green's-kernel counterpart.
    A solution for a zero charge raises ValueError."""
    if not sol.source.charge:
        raise ValueError("eps0 V_H / q needs a nonzero source charge")
    return _ring_sum(0.0, z_field, sol.mesh.r, sol.mesh.z, sol.charges) / (4.0 * math.pi)


def bem_mixed_derivative(z, z_prime, geom: ToroidGeometry, n_panels: int = 400):
    """d^2/dz dz' of eps0 V_H / q on the axis (1/nm^3), differentiated
    exactly on the discrete system.

    The system is linear in its right-hand side, so d sigma/dz' solves
    A sigma' = -q (z_i - z') / d_i^3, scaled by d_min^2 so that a far
    source cannot underflow it.  On the axis the ring kernel is
    1 / sqrt(r_j^2 + (z - z_j)^2), whose z-derivative weights sigma'.

    z and z_prime are scalars (a float is returned) or broadcastable arrays
    (an array of their shape): one mesh, one factorization and one solve
    with a column per source height.  Far sources draw one FarSourceWarning
    per call.

    Raises
    ------
    ValueError
        For a non-finite height.
    SolverError
        As solve_induced_density, for the derivative system.
    ResultOverflowError
        If the derivative exceeds the float64 range (a toroid far below
        1 nm).
    """
    z_prime, _ = _checked_source(z_prime, 1.0, geom.f)
    z, z_prime = np.broadcast_arrays(_axis_heights(z, "field heights"), z_prime)
    z_src = z_prime.ravel()
    mesh = build_mesh(geom, n_panels)
    dz_src = mesh.z[:, None] - z_src
    dist = np.hypot(mesh.r[:, None], dz_src)
    d_min = dist.min(axis=0)
    sigma_prime, _ = _solve(mesh, -(dz_src / dist) * (d_min / dist) ** 2)
    dz = z.reshape(-1, 1) - mesh.z
    rho = np.hypot(mesh.r, dz)
    dkern = -(dz / rho) / rho / rho
    ring_charges = sigma_prime.T * (2.0 * math.pi * mesh.r * mesh.ds)
    with np.errstate(over="ignore"):
        out = _in_range(np.sum(ring_charges * dkern, axis=-1) / d_min / d_min / (4.0 * math.pi),
                        "mixed derivative")
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)
