"""Axisymmetric Nyström oracle for the grounded toroid.

Independent numerical route to the same electrostatics: the induced
density on the meridian circle r = a + b cos t, z = b sin t solves
int sigma 4 r b K(m) / R_max dt = -V_src, whose kernel is a charged ring's
potential.  The only special function used is the complete elliptic
integral K, from Cephes' polynomial-plus-log fit rather than the AGM of
specfun that seeds the series, so agreement with the separable series is
a genuine cross-check rather than a shared code path.

Kress's log-split Nyström rule (*Linear Integral Equations*, 3rd ed.,
12.3) on n nodes equispaced in s and graded by tan(t/2) = tan(s/2) /
lambda, lambda = min(1, sqrt(a/b - 1)): a Möbius map of the circle that
packs nodes at the inner equator by 1/lambda (Boyd, *Chebyshev and Fourier
Spectral Methods*, ch. 16).  On the circle 1 - m is the squared chord over
R_max^2 and K(m) = -K(1 - m) ln(1 - m) / pi + (analytic in 1 - m; DLMF
19.12), so the kernel is k1 ln(4 sin^2((s - s')/2)) + k2 with k1, k2
smooth.  Kress's weights integrate the log part and the trapezoidal rule
the rest: the error falls geometrically with n.

Reduced units as in the rest of the package: potentials per K_E q,
lengths in nm, charges in e.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError, ResultOverflowError, SingularKernelError, SolverError
from .geometry import ToroidGeometry
from .greens import AxialSource, axial_source
from .units import K_E_EV_NM

__all__ = [
    "BemMesh",
    "BemSolution",
    "bem_gh_reduced",
    "bem_mixed_derivative",
    "bem_vh",
    "build_mesh",
    "ring_potential",
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
#: P's and Q's coefficients as (11, 2, 1, 1) planes of width 1: broadcast
#: columns, for one Horner pass on both over any shape.
_PQ_COLUMNS = np.array(_ELLPK_PQ)[:, :, None, None]
#: Elements per piece of the Horner pass: a piece and its temporaries stay
#: in cache.
_ELLPK_CHUNK = 1 << 14


def _ellpk(x, planes=_PQ_COLUMNS):
    """K(1 - x) for x >= 0, elementwise: Cephes' ellpk, the routine behind
    scipy.special.ellipkm1, in the same operations (Horner in x; x > 1
    through K(1 - 1/x) / sqrt(x)), so it agrees with it to an ulp.  x = 0
    gives inf.  P and Q run as one stacked Horner pass on the coefficient
    planes, (11, 2, 1, w): with w = 1 (the default) on x of any shape, in
    pieces of _ELLPK_CHUNK entries; with w > 1, _horner_planes(w), on x's
    rows of w entries, in pieces of whole rows, where the planes and a copy
    of the piece per polynomial make every step contiguous.  Cephes'
    branch for x <= 2^-53, ln 4 - ln(x) / 2, is not needed: there P and Q
    round to ln 4 and 1/2, so the pass gives the same bits.  The x > 1
    steps run only when some entry needs them; on [0, 1] they change no
    bit."""
    x = np.asarray(x, dtype=float)
    big = bool((x > 1.0).any())
    with np.errstate(divide="ignore", over="ignore"):
        y = (np.minimum(x, 1.0 / x) if big else x).reshape(-1, planes.shape[-1])
        k = np.empty_like(y)
        width = y.shape[1]
        rows = max(1, _ELLPK_CHUNK // width)
        for s in range(0, len(y), rows):
            piece = y[s:s + rows]
            # on planes, a copy of the piece per polynomial: no step broadcasts
            factor = piece if width == 1 else np.array([piece, piece])
            pq = planes[0] * factor
            for c in planes[1:-1]:
                pq += c
                pq *= factor
            pq += planes[-1]
            np.subtract(pq[0], pq[1] * np.log(piece), out=k[s:s + rows])
    k = k.reshape(x.shape)
    return k / np.sqrt(np.maximum(x, 1.0)) if big else k


@functools.lru_cache(maxsize=4)
def _horner_planes(n: int) -> np.ndarray:
    """_PQ_COLUMNS repeated n times along the ring axis, (11, 2, 1, n) and
    read-only (176 n bytes, 70 KB at 400 nodes): for _ellpk on the (M, n)
    moduli of a ring sum, where adding a contiguous plane costs less than
    broadcasting a column over a short row."""
    planes = np.repeat(_PQ_COLUMNS, n, axis=-1)
    planes.flags.writeable = False
    return planes


def _ring_moduli(r_f, z_f, r_ring, z_ring):
    """(p, R_max / 2) of the ring kernel, p = 1 - m: formed from ratios to
    R_max = hypot(r + r', z - z'), taken as twice the hypot of the halved
    operands (exact for normal floats), so nothing overflows even where
    R_max itself would, and p does not cancel.  K(m) is then _ellpk(p) and
    K(1 - m) is _ellpk(1 - p)."""
    # rebinding frees the gathered radii before the heights are halved: the
    # kernel pass's minor page faults rise by a sixth when they are held
    r_f, r_ring = 0.5 * r_f, 0.5 * r_ring
    return _halved_moduli(r_f, r_ring, 0.5 * z_f - 0.5 * z_ring)


def _halved_moduli(r_f, r_ring, v):
    """_ring_moduli from the halved radii r / 2, r' / 2 and v = z / 2 - z' / 2."""
    half = np.hypot(r_f + r_ring, v)
    u, v = (r_f - r_ring) / half, v / half
    return u * u + v * v, half


def _ring_sum(r_f, z_f, rings, planes):
    """Reduced potential sum_j q_j (2/pi) K(m_j) / R_max,j of the rings in
    the table rings = (r_j / 2, z_j / 2, q_j), with planes =
    _horner_planes(its width), at field points given by their halved
    coordinates r_f = |r| / 2 and z_f = z / 2: floats, or arrays of one
    shape with a trailing axis of length 1.  Only the field points are
    worked on per call; the table and the planes are built once."""
    half_r, half_z, charges = rings
    p, half = _halved_moduli(r_f, half_r, z_f - half_z)
    if not p.all():
        raise SingularKernelError("field point lies on a ring")
    kernel = (1.0 / math.pi) * _ellpk(p, planes) / half  # (2/pi) K / R_max, the same bits
    return (charges * kernel).sum(axis=-1)


def ring_potential(r: float, z: float, r0: float, z0: float, charge: float) -> float:
    """Potential (V) at (r, z) of a uniformly charged ring of radius r0 at
    height z0 carrying `charge` elementary charges.

    On the axis this collapses to charge / sqrt(r0^2 + (z - z0)^2) times
    K_E; far away it tends to the monopole charge / distance.  It is even
    in r.

    Raises
    ------
    ValueError
        If an argument is not finite, or r0 is below the smallest normal
        float (halving a subnormal radius loses it).
    SingularKernelError
        If the field point lies on the ring itself.
    ResultOverflowError
        If the potential exceeds the float64 range.
    """
    if not all(map(math.isfinite, (r, z, r0, z0, charge))):
        raise ValueError(f"ring coordinates and charge must be finite, got "
                         f"r={r}, z={z}, r0={r0}, z0={z0}, charge={charge}")
    if r0 < sys.float_info.min:
        raise ValueError(f"ring radius must be a positive normal float, got {r0}")
    ring = (np.array([0.5 * r0]), np.array([0.5 * z0]), np.ones(1))  # width 1: _PQ_COLUMNS
    with np.errstate(over="ignore"):
        value = K_E_EV_NM * charge * float(_ring_sum(0.5 * abs(r), 0.5 * z, ring, _PQ_COLUMNS))
    if not math.isfinite(value):
        raise ResultOverflowError(f"the potential of a ring of radius {r0} nm and charge "
                                  f"{charge} e at (r, z) = ({r}, {z}) exceeds the float64 range")
    return value


def _log_weights(n: int) -> np.ndarray:
    """Kress's weights R_d less the log they integrate, by node offset d:
    c_d = n R_d / (2 pi) - ln(4 sin^2(pi d / n)) (no log at d = 0), where
    n R_d / (2 pi) = -2 sum_k a_k cos(2 pi k d / n), a_k = 1/k up to
    k = (n - 1) // 2 and a_{n/2} = 1/n for even n.  Rounding makes c_{n - d}
    and c_d differ in their last bits; c_{n - d} is set to c_d, d < n / 2."""
    a = np.zeros(n)
    k = np.arange(1, (n + 1) // 2)
    a[k] = 1.0 / k
    if n % 2 == 0:
        a[n // 2] = 1.0 / n
    c = -2.0 * np.fft.fft(a).real
    c[1:] -= np.log(4.0 * np.sin(np.pi * np.arange(1, n) / n) ** 2)
    c[:n // 2:-1] = c[1:(n + 1) // 2]
    return c


@functools.lru_cache(maxsize=4)
def _pair_tables(n: int):
    """What the kernel pass on n nodes needs besides them, read-only, about
    40 bytes a pair of the upper triangle (i, j), j >= i, in row order:
    c = _log_weights(n); each row's length; the columns j; the flat
    positions of (i, j) and (j, i) in a k x k plane; c at each pair's two
    offsets; the flat positions of the self-pairs in the stacked pairs."""
    k = n - n // 2
    i, j = np.triu_indices(k)
    c = _log_weights(n)
    tables = (c, np.arange(k, 0, -1), j, i * k + j, j * k + i,
              c.take(np.stack([(i - j) % n, (i + j + 1) % n])),
              np.flatnonzero(np.stack([i == j, (i == j) & (i == n // 2)])))
    for table in tables:
        table.flags.writeable = False
    return tables


#: Node counts whose tables are cached (the oracle alternates two), so the
#: pair-table cache holds at most 4 x 1.3 MB and the plane cache 4 x 90 KB;
#: larger meshes build theirs uncached.
_CACHED_NODES = 512


def _node_count_table(table, n: int):
    """table(n), one of the per-node-count tables, through its cache only
    for n <= _CACHED_NODES."""
    return (table if n <= _CACHED_NODES else table.__wrapped__)(n)


def _half_kernels(r, z, tables) -> np.ndarray:
    """The same-side and the mirror kernel of the lower half, stacked,
    (2, k, k) for its k = n - n // 2 nodes: (K(m) - K(1 - m) c_d / pi) / R_max
    between node i and node j, respectively node j's mirror n - 1 - j, with
    c = _log_weights(n) at the offset d = i - j, respectively i + j + 1
    (mod n), from tables = _pair_tables(n).  Both are symmetric in (i, j),
    since c_{n - d} = c_d, so the kernel is evaluated on their upper
    triangles only, k (k + 1) pairs in all, and scattered to both
    triangles.  Entries that pair a node with itself (the same-side
    diagonal and, for odd n, the middle node with its own mirror) are
    placeholders for the caller to replace."""
    k = len(r)
    _, rows, j, to_ij, to_ji, c_pairs, self_pairs = tables
    z_j = z.take(j)
    p, half = _ring_moduli(np.repeat(r, rows), np.repeat(z, rows), r.take(j),
                           np.stack([z_j, -z_j]))
    p.ravel()[self_pairs] = 0.5
    km, kc = _ellpk(np.stack([p, 1.0 - p]))  # K(m), K(1 - m)
    values = (km - kc * c_pairs / math.pi) * 0.5 / half  # / R_max, exactly
    kernels = np.empty((2, k * k))
    for plane, v in zip(kernels, values):
        plane[to_ij] = plane[to_ji] = v
    return kernels.reshape(2, k, k)


@dataclass
class BemMesh:
    """Graded Nyström nodes at s_j = -pi + 2 pi (j + 1/2) / n,
    mirror-symmetric about z = 0.

    Node ``n - 1 - j`` is the exact mirror of node j (same r and weight,
    negated z and eta); for odd n the middle node lies on z = 0.  Nodes
    ``0 .. h - 1``, h = n // 2, are the lower half.  The kernel sees
    heights only through (z - z')^2 and the weights only |s - s'|, so the
    Nyström matrix A decouples into an even block E = A_same + A_mirror
    and an odd block O = A_same - A_mirror over the lower half, both from
    its rows alone; for odd n the middle node adds a row and column to E.
    The blocks are built lazily and cached; each solve factors them afresh.
    """

    geometry: ToroidGeometry
    n_panels: int     # node count, one ring per node
    psi: np.ndarray   # tube angle of the nodes, (-pi, pi)
    r: np.ndarray     # ring radii
    z: np.ndarray     # ring heights
    ds: np.ndarray    # arc weight per node, b t'(s_j) 2 pi / n
    eta: np.ndarray   # toroidal angle of the nodes
    _blocks: tuple | None = field(default=None, repr=False, compare=False)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even block E, (n - h) x (n - h), and the odd block O, h x h."""
        if self._blocks is None:
            n = self.n_panels
            h, k = n // 2, n - n // 2
            r, ds = self.r[:k], self.ds[:k]
            tables = _node_count_table(_pair_tables, n)
            # column j's weight; its mirror node n - 1 - j has the same
            same, mirror = _half_kernels(r, self.z[:k], tables) * (4.0 * r * ds)
            # k2's limit on the diagonal, 2 b t' ln(8 r / (b t')), with the
            # log part's own weight; b t' = n ds / (2 pi).
            np.fill_diagonal(same, ds * (
                2.0 * np.log(16.0 * math.pi * r / (n * ds)) - tables[0][0]))
            odd = same[:h, :h] - mirror[:h, :h]
            even = same  # the last column is the middle node's for odd n
            even[:, :h] += mirror[:, :h]
            self._blocks = (even, odd)
        return self._blocks

    def lu(self, parts):
        """The block solve: the even and odd parts of a right-hand side (a
        vector, or one column per right-hand side) solved with the even and
        the odd block by LU with partial pivoting, np.linalg.solve, all
        columns at once.  Nothing is cached: each call factors both blocks."""
        return [np.linalg.solve(block, part) for block, part in zip(self.blocks(), parts)]

    def collocation_matrix(self) -> np.ndarray:
        """Reduced potential at node i per unit surface density at node j.

        Rebuilt from the even and odd blocks, with no kernel evaluations:
        a density at lower node j has even and odd parts of half its size,
        at its mirror node the odd part changes sign.
        """
        even, odd = self.blocks()
        h = odd.shape[0]
        lower = _unfold(0.5 * even[:, :h], 0.5 * odd)
        middle = _unfold(even[:, h:], np.zeros((h, even.shape[0] - h)))
        upper = _unfold(0.5 * even[:, :h], -0.5 * odd)
        return np.hstack([lower, middle, upper[:, ::-1]])


def _fold(v: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of a node vector (or of each column) over the
    lower half; the even part carries the middle node of an odd mesh."""
    upper = v[::-1][:h]
    even = v[:len(v) - h].copy()
    even[:h] = 0.5 * (v[:h] + upper)
    return even, 0.5 * (v[:h] - upper)


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The node vector whose even and odd parts are given (inverse of
    _fold); 2-d parts are unfolded column by column."""
    k, h = len(even), len(odd)
    v = np.empty((k + h,) + even.shape[1:])
    v[:k] = even
    v[:h] += odd
    v[::-1][:h] = even[:h] - odd
    return v


def _condition(mesh: BemMesh) -> float:
    """2-norm condition number of the Nyström matrix, from its blocks: with
    the middle node's row and column rescaled by sqrt(2) they are the matrix
    in an orthonormal even/odd basis, so their singular values are its own."""
    even, odd = mesh.blocks()
    h = odd.shape[0]
    even = even.copy()
    even[:h, h:] *= math.sqrt(2.0)
    even[h:, :h] /= math.sqrt(2.0)
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in (even, odd)])
    return float(s.max() / s.min())


def build_mesh(geom: ToroidGeometry, n_panels: int) -> BemMesh:
    """Place n_panels graded Nyström nodes on the meridian circle, the upper
    half the exact mirror image of the lower, so that the even/odd split of
    the system is exact.  Fewer than 16 nodes raise MeshError."""
    n_panels = int(n_panels)
    if n_panels < 16:
        raise MeshError(f"need at least 16 nodes, got {n_panels}")
    a, b, f = geom.a, geom.b, geom.f
    lam = min(1.0, math.sqrt((a - b) / b))
    h = n_panels // 2
    half_s = -0.5 * math.pi + (np.arange(n_panels - h) + 0.5) * (math.pi / n_panels)
    half_s[h:] = 0.0  # the middle node of an odd mesh
    psi = 2.0 * np.arctan(np.tan(half_s) / lam)
    dt = lam / ((lam * np.cos(half_s)) ** 2 + np.sin(half_s) ** 2)  # t'(s)
    r, z = a + b * np.cos(psi), b * np.sin(psi)
    eta = np.arctan2(2.0 * f * z, (r - f) * (r + f) + z * z)

    def mirrored(x, sign):
        return np.concatenate([x, sign * x[h - 1::-1]])

    return BemMesh(geometry=geom, n_panels=n_panels, psi=mirrored(psi, -1.0),
                   r=mirrored(r, 1.0), z=mirrored(z, -1.0), eta=mirrored(eta, -1.0),
                   ds=mirrored(b * dt * (2.0 * math.pi / n_panels), 1.0))


@dataclass(frozen=True)
class BemSolution:
    """Induced surface-charge density solving the grounded condition."""

    mesh: BemMesh
    sigma: np.ndarray   # induced density at the nodes, e / nm^2, for the source's charge
    source: AxialSource
    residual: float     # Nyström residual relative to the Coulomb scale
    # the ring table of the field-point sums, three read-only arrays: the
    # halved ring radii and heights and the ring charges sigma 2 pi r ds
    rings: tuple = field(repr=False, compare=False)


def _solve(mesh: BemMesh, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = rhs, a vector or one column per right-hand side, by its
    even and odd parts, each with its block (one BemMesh.lu call).

    Returns x and the worst column's residual relative to its max |rhs|;
    raises SolverError, with the Nyström matrix's condition number, when
    that residual exceeds RESIDUAL_LIMIT or is NaN.
    """
    parts = _fold(rhs, mesh.n_panels // 2)
    halves = mesh.lu(parts)
    resid = _unfold(*(block @ x - part
                      for block, x, part in zip(mesh.blocks(), halves, parts)))
    residual = float(np.max(np.max(np.abs(resid), axis=0) / np.max(np.abs(rhs), axis=0)))
    if not residual <= RESIDUAL_LIMIT:
        raise SolverError(
            f"Nyström residual {residual:.2e} exceeds {RESIDUAL_LIMIT:g}",
            condition=_condition(mesh),
        )
    return _unfold(*halves), residual


def solve_induced_density(mesh: BemMesh, src: AxialSource) -> BemSolution:
    """Solve the Nyström system for the induced surface density.

    Raises
    ------
    SolverError
        If the full system's residual exceeds 1e-8 of the source Coulomb
        scale; carries the Nyström matrix's condition number.
    """
    sigma, residual = _solve(mesh, -src.charge / np.hypot(mesh.r, mesh.z - src.z_src))
    sigma.flags.writeable = False
    rings = (0.5 * mesh.r, 0.5 * mesh.z, sigma * 2.0 * math.pi * mesh.r * mesh.ds)
    for column in rings:
        column.flags.writeable = False
    return BemSolution(mesh=mesh, sigma=sigma, source=src, residual=residual, rings=rings)


def total_induced_charge(sol: BemSolution) -> float:
    """Net induced charge (e); negative for a positive source charge."""
    return float(sol.rings[2].sum())


def _vh_reduced_bem(r, z, sol: BemSolution):
    """Reduced induced potential at field points (r, z), one ring sum each;
    the field radius enters as |r|, since the sum is even in r."""
    if isinstance(r, float) and isinstance(z, float):  # one point, the common call
        finite = math.isfinite(r) and math.isfinite(z)
        r_f, z_f = 0.5 * abs(r), 0.5 * z
    else:
        r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
        finite = np.isfinite(r).all() and np.isfinite(z).all()
        r_f, z_f = 0.5 * np.abs(r)[..., None], 0.5 * z[..., None]
    if not finite:
        raise ValueError("field points must be finite")
    planes = _node_count_table(_horner_planes, sol.mesh.n_panels)
    return _ring_sum(r_f, z_f, sol.rings, planes)


def bem_vh(r, z, sol: BemSolution):
    """Potential (V) of the induced charge at the field point (r, z).

    The oracle's counterpart of the series V_H: a trapezoidal sum of ring
    potentials over all nodes, even in r.  r and z are scalars (a float is
    returned) or arrays of one shape (an array of that shape is returned).
    A non-finite coordinate raises ValueError, a point on a node ring or on
    its mirror through the axis SingularKernelError.
    """
    return K_E_EV_NM * _vh_reduced_bem(r, z, sol)


def bem_gh_reduced(z_field: float, sol: BemSolution) -> float:
    """eps0 V_H / q on the axis, in 1/nm: the Green's-kernel counterpart."""
    return _vh_reduced_bem(0.0, z_field, sol) / (4.0 * math.pi * sol.source.charge)


def bem_mixed_derivative(z, z_prime, geom: ToroidGeometry, n_panels: int = 400):
    """d^2/dz dz' of eps0 V_H / q on the axis (1/nm^3), differentiated
    exactly on the discrete system.

    The system is linear in its right-hand side, so d sigma/dz' solves
    A sigma' = -q (z_i - z') / d_i^3, scaled by d_min^2 so that a far
    source cannot underflow it.  On the axis the ring kernel is
    1 / sqrt(r_j^2 + (z - z_j)^2), whose z-derivative weights sigma'.

    z and z_prime are scalars (a float is returned) or broadcastable arrays
    (an array of their shape): one mesh, one factorization and one solve
    with a column per source height.

    Raises
    ------
    ValueError
        For a non-finite height.
    SolverError
        As solve_induced_density, for the derivative system.
    """
    z, z_prime = np.broadcast_arrays(np.asarray(z, dtype=float),
                                     np.asarray(z_prime, dtype=float))
    if not np.all(np.isfinite(z)):
        raise ValueError(f"field heights must be finite, got {z}")
    z_src = np.array([axial_source(zp, geom).z_src for zp in z_prime.flat])
    mesh = build_mesh(geom, n_panels)
    dz_src = mesh.z[:, None] - z_src
    dist = np.hypot(mesh.r[:, None], dz_src)
    d_min = dist.min(axis=0)
    sigma_prime, _ = _solve(mesh, -(dz_src / dist) * (d_min / dist) ** 2)
    dz = z.reshape(-1, 1) - mesh.z
    rho = np.hypot(mesh.r, dz)
    dkern = -(dz / rho) / rho / rho
    ring_charges = sigma_prime.T * (2.0 * math.pi * mesh.r * mesh.ds)
    out = np.sum(ring_charges * dkern, axis=-1) / d_min / d_min / (4.0 * math.pi)
    return float(out[0]) if z.ndim == 0 else out.reshape(z.shape)
