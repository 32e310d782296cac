"""Axisymmetric boundary-element oracle for the grounded toroid.

Independent numerical route to the same electrostatics: the meridian
circle of the surface is cut into equal arcs (parameterized by the tube
angle, which makes the arcs exactly uniform), each arc carrying a uniform
ring of induced charge.  Point-matching at the arc centers enforces the
grounded condition, with the logarithmic self-interaction of each ring
integrated analytically over its own arc.  The only special function used
is the complete elliptic integral K, so agreement with the separable
series is a genuine cross-check rather than a shared code path.

The toroid is mirror-symmetric about z = 0 and the ring kernel depends on
heights only through (z - z')^2.  The mesh is built with exactly mirrored
halves, so the collocation system splits into an even and an odd block
over the lower half (see BemMesh).  The solve factors the two blocks:
half the kernel evaluations and a quarter of the LU work of the full
dense system, with the same solution.

Reduced units as in the rest of the package: potentials per K_E q,
lengths in nm, charges in e.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import lu_factor, lu_solve
from scipy.special import ellipk as _ellipk

from .errors import MeshError, SingularKernelError, SolverError
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

#: Residual gate on the solved collocation system, relative to the source
#: Coulomb scale at the panels.
RESIDUAL_LIMIT = 1e-8


def _ring_kernel(r_f, z_f, r_ring, z_ring):
    """Reduced potential of a unit-charge ring: (2/pi) K(m) / R_max."""
    rsum = r_f + r_ring
    dz = z_f - z_ring
    rmax2 = rsum * rsum + dz * dz
    m = 4.0 * r_f * r_ring / rmax2
    return (2.0 / math.pi) * _ellipk(m) / np.sqrt(rmax2)


def ring_potential(r: float, z: float, r0: float, z0: float, charge: float) -> float:
    """Potential (V) at (r, z) of a uniformly charged ring of radius r0 at
    height z0 carrying `charge` elementary charges.

    On the axis this collapses to charge / sqrt(r0^2 + (z - z0)^2) times
    K_E; far away it tends to the monopole charge / distance.

    Raises
    ------
    SingularKernelError
        If the field point lies on the ring itself.
    """
    if r0 <= 0.0:
        raise ValueError(f"ring radius must be positive, got {r0}")
    if r == r0 and z == z0:
        raise SingularKernelError("field point lies on the ring")
    return K_E_EV_NM * charge * float(_ring_kernel(float(r), float(z), r0, z0))


@dataclass
class BemMesh:
    """Equal-arc ring panelization of the toroidal surface, mirror-symmetric
    about z = 0.

    Panel ``n - 1 - i`` is the exact mirror of panel ``i`` (same r, negated
    z and eta); for odd n the middle panel lies on z = 0.  Indices
    ``0 .. h - 1``, h = n // 2, are the lower half.  Because the ring kernel
    sees heights only through (z - z')^2, the collocation matrix A
    decouples into an even and an odd block over the lower half,

        E = (G_same + G_mirror) w,    O = (G_same - G_mirror) w,

    with w the ring charge per unit density and the analytic self term on
    G_same's diagonal; for odd n the middle panel adds one row and column
    to E.  The blocks and their LU factorizations are assembled lazily and
    cached; the mesh is otherwise immutable by convention.
    """

    geometry: ToroidGeometry
    n_panels: int
    psi: np.ndarray   # tube angle of panel centers, (-pi, pi)
    r: np.ndarray     # ring radii
    z: np.ndarray     # ring heights
    ds: float         # meridian arc length per panel (uniform)
    eta: np.ndarray   # toroidal angle of panel centers
    _blocks: tuple | None = field(default=None, repr=False, compare=False)
    _lu: tuple | None = field(default=None, repr=False, compare=False)

    def blocks(self) -> tuple[np.ndarray, np.ndarray]:
        """The even block E, (n - h) x (n - h), and the odd block O, h x h."""
        if self._blocks is None:
            h = self.n_panels // 2
            k = self.n_panels - h
            r, z, ds = self.r[:k], self.z[:k], self.ds
            w = 2.0 * math.pi * r * ds  # ring charge per unit density
            # the last column is the middle ring when n is odd
            same = _ring_kernel(r[:h, None], z[:h, None], r[None, :], z[None, :])
            mirror = _ring_kernel(r[:h, None], z[:h, None], r[None, :h], -z[None, :h])
            mirror *= w[:h]
            even = np.empty((k, k))
            even[:h] = same * w
            # Analytic self term - the kernel's log singularity integrated
            # over the panel arc: 2 ds (ln(16 r / ds) + 1).
            np.fill_diagonal(even, 2.0 * ds * (np.log(16.0 * r / ds) + 1.0))
            odd = even[:h, :h] - mirror
            even[:h, :h] += mirror
            # the middle panel sees each lower ring and its mirror alike
            even[h:, :h] = 2.0 * same[:, h:].T * w[:h]
            self._blocks = (even, odd)
        return self._blocks

    def lu(self):
        """LU factorizations of the even and odd blocks."""
        if self._lu is None:
            self._lu = tuple(lu_factor(block) for block in self.blocks())
        return self._lu

    def collocation_matrix(self) -> np.ndarray:
        """Reduced potential at panel i per unit surface density on panel j.

        Rebuilt from the even and odd blocks, with no kernel evaluations:
        a density on lower panel j has even and odd parts of half its size,
        on its mirror panel the odd part changes sign.
        """
        even, odd = self.blocks()
        h = odd.shape[0]
        lower = _unfold(0.5 * even[:, :h], 0.5 * odd)
        middle = _unfold(even[:, h:], np.zeros((h, even.shape[0] - h)))
        upper = _unfold(0.5 * even[:, :h], -0.5 * odd)
        return np.hstack([lower, middle, upper[:, ::-1]])


def _fold(v: np.ndarray, h: int) -> tuple[np.ndarray, np.ndarray]:
    """Even and odd parts of a panel vector over the lower half; the even
    part carries the middle panel of an odd mesh."""
    upper = v[::-1][:h]
    even = v[:v.size - h].copy()
    even[:h] = 0.5 * (v[:h] + upper)
    return even, 0.5 * (v[:h] - upper)


def _unfold(even: np.ndarray, odd: np.ndarray) -> np.ndarray:
    """The panel vector whose even and odd parts are given (inverse of
    _fold); 2-d parts are unfolded column by column."""
    k, h = len(even), len(odd)
    v = np.empty((k + h,) + even.shape[1:])
    v[:k] = even
    v[:h] += odd
    v[::-1][:h] = even[:h] - odd
    return v


def _condition(mesh: BemMesh) -> float:
    """2-norm condition number of the collocation matrix, from its blocks.

    With the middle panel's row and column rescaled by sqrt(2), the blocks
    are the collocation matrix in an orthonormal even/odd basis, so their
    singular values together are the matrix's own.
    """
    even, odd = mesh.blocks()
    h = odd.shape[0]
    even = even.copy()
    even[:h, h:] *= math.sqrt(2.0)
    even[h:, :h] /= math.sqrt(2.0)
    s = np.concatenate([np.linalg.svd(b, compute_uv=False) for b in (even, odd)])
    return float(s.max() / s.min())


def build_mesh(geom: ToroidGeometry, n_panels: int) -> BemMesh:
    """Cut the meridian circle into n_panels equal arcs.

    The lower half is computed and the upper half set to its exact mirror
    image, so the even/odd split of the collocation system is exact.

    Raises
    ------
    MeshError
        For fewer than 16 panels (the self-term approximation needs the
        arcs to be short against the ring radius).
    """
    n_panels = int(n_panels)
    if n_panels < 16:
        raise MeshError(f"need at least 16 panels, got {n_panels}")
    a, b, f = geom.a, geom.b, geom.f
    h = n_panels // 2
    psi = -math.pi + (np.arange(n_panels - h) + 0.5) * (2.0 * math.pi / n_panels)
    psi[h:] = 0.0  # the middle panel of an odd mesh
    r = a + b * np.cos(psi)
    z = b * np.sin(psi)
    eta = np.arctan2(2.0 * f * z, (r - f) * (r + f) + z * z)

    def mirrored(x, sign):
        return np.concatenate([x, sign * x[h - 1::-1]])

    return BemMesh(
        geometry=geom,
        n_panels=n_panels,
        psi=mirrored(psi, -1.0),
        r=mirrored(r, 1.0),
        z=mirrored(z, -1.0),
        ds=2.0 * math.pi * b / n_panels,
        eta=mirrored(eta, -1.0),
    )


@dataclass(frozen=True)
class BemSolution:
    """Induced surface-charge density solving the grounded condition."""

    mesh: BemMesh
    sigma: np.ndarray   # induced density, e / nm^2, for the source's charge
    source: AxialSource
    residual: float     # collocation residual relative to the Coulomb scale


def _solve(mesh: BemMesh, rhs: np.ndarray) -> tuple[np.ndarray, float]:
    """Solve A x = rhs by its even and odd parts, each with its block's LU.

    Returns x and the full system's residual relative to max |rhs|; raises
    SolverError, with the collocation matrix's condition number, when that
    residual exceeds RESIDUAL_LIMIT or is NaN.
    """
    parts = _fold(rhs, mesh.n_panels // 2)
    halves = [lu_solve(lu, part) for lu, part in zip(mesh.lu(), parts)]
    resid = _unfold(*(block @ x - part
                      for block, x, part in zip(mesh.blocks(), halves, parts)))
    residual = float(np.max(np.abs(resid)) / np.max(np.abs(rhs)))
    if not residual <= RESIDUAL_LIMIT:
        raise SolverError(
            f"collocation residual {residual:.2e} exceeds {RESIDUAL_LIMIT:g}",
            condition=_condition(mesh),
        )
    return _unfold(*halves), residual


def solve_induced_density(mesh: BemMesh, src: AxialSource) -> BemSolution:
    """Solve the collocation system for the induced surface density.

    Raises
    ------
    SolverError
        If the full system's residual exceeds 1e-8 of the source Coulomb
        scale; carries the collocation matrix's condition number.
    """
    sigma, residual = _solve(mesh, -src.charge / np.hypot(mesh.r, mesh.z - src.z_src))
    sigma.flags.writeable = False
    return BemSolution(mesh=mesh, sigma=sigma, source=src, residual=residual)


def total_induced_charge(sol: BemSolution) -> float:
    """Net induced charge (e); negative for a positive source charge."""
    return float(np.sum(sol.sigma * 2.0 * math.pi * sol.mesh.r * sol.mesh.ds))


def _vh_reduced_bem(r, z, sol: BemSolution):
    """Reduced induced potential at field points (r, z), one ring sum each."""
    r = np.asarray(r, dtype=float)[..., None]
    z = np.asarray(z, dtype=float)[..., None]
    if not (np.all(np.isfinite(r)) and np.all(np.isfinite(z))):
        raise ValueError("field points must be finite")
    mesh = sol.mesh
    ring_charges = sol.sigma * 2.0 * math.pi * mesh.r * mesh.ds
    dr = r - mesh.r
    dz = z - mesh.z
    if np.any((dr * dr + dz * dz) == 0.0):
        raise SingularKernelError("field point lies on a panel ring")
    return np.sum(ring_charges * _ring_kernel(r, z, mesh.r, mesh.z), axis=-1)


def bem_vh(r, z, sol: BemSolution):
    """Potential (V) of the induced charge at the field point (r, z).

    The boundary-element counterpart of the series V_H: a plain sum of
    ring potentials over all panels.  r and z are scalars (a float is
    returned) or arrays of one shape (an array of that shape is returned).
    A non-finite coordinate raises ValueError, a point on a panel ring
    SingularKernelError.
    """
    return K_E_EV_NM * _vh_reduced_bem(r, z, sol)


def bem_gh_reduced(z_field: float, sol: BemSolution) -> float:
    """eps0 V_H / q on the axis, in 1/nm: the Green's-kernel counterpart."""
    return _vh_reduced_bem(0.0, z_field, sol) / (4.0 * math.pi * sol.source.charge)


def bem_mixed_derivative(
    z: float, z_prime: float, geom: ToroidGeometry, n_panels: int = 400
) -> float:
    """d^2/dz dz' of eps0 V_H / q on the axis (1/nm^3), differentiated
    exactly on the discrete system.

    The system is linear in its right-hand side, so d sigma/dz' solves
    A sigma' = -q (z_i - z') / d_i^3, scaled by d_min^2 so that a far
    source cannot underflow it.  On the axis the ring kernel is
    1 / sqrt(r_j^2 + (z - z_j)^2), whose z-derivative weights sigma'.

    Raises
    ------
    ValueError
        For a non-finite height.
    SolverError
        As solve_induced_density, for the derivative system.
    """
    if not math.isfinite(z):
        raise ValueError(f"field height must be finite, got {z}")
    src = axial_source(z_prime, geom)
    mesh = build_mesh(geom, n_panels)
    dz_src = mesh.z - src.z_src
    dist = np.hypot(mesh.r, dz_src)
    d_min = dist.min()
    sigma_prime, _ = _solve(mesh, -src.charge * (dz_src / dist) * (d_min / dist) ** 2)
    dz = z - mesh.z
    rho = np.hypot(mesh.r, dz)
    dkern = -(dz / rho) / rho / rho
    ring_charges = sigma_prime * 2.0 * math.pi * mesh.r * mesh.ds
    return float(np.sum(ring_charges * dkern) / d_min / d_min
                 / (4.0 * math.pi * src.charge))
