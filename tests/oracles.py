"""Independent numerical oracles used by the tests.

These deliberately avoid the production code paths: Legendre functions
come from adaptive quadrature of their integral representations.  The
elliptic integrals are checked against scipy.special and mpmath directly
in test_specfun.

The Nyström blocks and the field-point ring sums have references of
another kind: the straightforward formulations of bem's kernel pass
(fancy-index gathers and scatters, one polynomial at a time, no cached
tables, one piece) and of its ring sum (the same kernel, everything
recomputed per call), kept so that the production paths can be pinned to
them bit for bit.  The truncation rule of the series is pinned the same
way, to its earlier two-call form, and V_H to its earlier three-way
radial factor.  The Nyström blocks of Kress's other log split, with
K(1 - m) / pi as the log coefficient, are kept to check that both splits
give the same answer.
"""

import math

import numpy as np
from scipy.integrate import quad

from torvdw import greens
from torvdw.bem import _ELLPK_PQ, _log_weights
from torvdw.errors import TruncationError
from torvdw.specfun import legendre_p_half

LN4 = _ELLPK_PQ[-1][0]
#: Cephes' MACHEP, 2^-53: below it ellpk takes K(1 - x) as ln 4 - ln(x) / 2.
MACHEP = 1.11022302462515654042e-16


def legendre_p_quad(nu: float, z: float) -> float:
    """P_nu(z) = (1/pi) integral_0^pi (z + sqrt(z^2-1) cos t)^nu dt, z > 1."""
    c = math.sqrt(z * z - 1.0)
    val, _ = quad(lambda t: (z + c * math.cos(t)) ** nu, 0.0, math.pi,
                  limit=200, epsabs=0.0, epsrel=1e-13)
    return val / math.pi


def legendre_q_quad(nu: float, z: float) -> float:
    """Q_nu(z) = integral_0^inf (z + sqrt(z^2-1) cosh t)^(-nu-1) dt, z > 1."""
    c = math.sqrt(z * z - 1.0)

    def integrand(t):
        if t < 30.0:
            return (z + c * math.cosh(t)) ** (-nu - 1.0)
        # z + c cosh(t) ~ (c/2) e^t; evaluated in log space so cosh cannot
        # overflow under quad's probing of large t
        return math.exp(-(nu + 1.0) * (math.log(0.5 * c) + t))

    val, _ = quad(integrand, 0.0, np.inf, limit=200, epsabs=0.0, epsrel=1e-13)
    return val


def cephes_pq(y):
    """Cephes' P(y) and Q(y), K(1 - y) = P(y) - Q(y) ln y, by separate
    Horner loops."""
    p, q = (c * y for c in _ELLPK_PQ[0])
    for cp, cq in _ELLPK_PQ[1:-1]:
        p += cp
        p *= y
        q += cq
        q *= y
    p += LN4
    q += _ELLPK_PQ[-1][1]
    return p, q


def ellpk_reference(x):
    """K(1 - x) for 0 <= x <= 1 by Cephes' ellpk, elementwise, in its plain
    form: P and Q by separate Horner loops in x, and the leading terms
    below MACHEP."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore"):
        log = np.log(x)
    p, q = cephes_pq(x)
    return np.where(x > MACHEP, p - q * log, LN4 - 0.5 * log)


def ring_kernel_reference(ri, rj, dz, cd):
    """bem's ring kernel (P(p) - Q(p) (ln p + c_d)) / R_max, the moduli from
    squares of coordinates in units of a power of two; c_d = 0 is a charged
    ring's K(m) / R_max."""
    rmax2 = dz * dz + (ri + rj) ** 2
    p = (dz * dz + (ri - rj) ** 2) / rmax2
    pp, qq = cephes_pq(p)
    return (pp - qq * (np.log(p) + cd)) / np.sqrt(rmax2)


def nystrom_blocks_reference(mesh):
    """The even and odd blocks of a BemMesh (n nodes, n even), assembled as
    bem's kernel pass does, in one piece: coordinates in units of the power
    of two L > max r, the moduli from squares, the kernel (P(p) - Q(p)
    (ln p + c_d)) / R_max on the strict upper triangle of the lower half,
    the same-side and mirror kernels folded into even and odd ones there
    and scattered to both triangles by fancy indexing, the mirror kernel
    alone on the diagonal; then column-weighted and the diagonal's limit
    added."""
    n = mesh.n_panels
    h = n // 2
    scale = math.ldexp(1.0, -math.frexp(mesh.r.max())[1])
    r, z, ds = mesh.r[:h], mesh.z[:h], mesh.ds[:h]
    rs, zs = scale * r, scale * z
    c = _log_weights(n)
    i, j = np.triu_indices(h, 1)
    d = np.arange(h)
    same = ring_kernel_reference(rs[i], rs[j], zs[i] - zs[j], c[j - i])
    mirror = ring_kernel_reference(rs[i], rs[j], zs[i] + zs[j], c[i + j + 1])
    self_mirror = ring_kernel_reference(rs, rs, 2.0 * zs, c[2 * d + 1])
    blocks = np.empty((2, h, h))
    blocks[:, i, j] = blocks[:, j, i] = np.stack([same + mirror, same - mirror])
    blocks[:, d, d] = np.stack([self_mirror, -self_mirror])
    blocks *= 4.0 * scale * r * ds
    blocks[:, d, d] += ds * (2.0 * np.log(16.0 * math.pi * r / (n * ds)) - c[0])
    return blocks[0], blocks[1]


def nystrom_blocks_k_prime_split(mesh):
    """The even and odd blocks of a BemMesh by Kress's split with K(1 - m)
    / pi as the log coefficient (DLMF 19.12), as bem assembled them before
    its kernel took Cephes' Q(p): the same-side and mirror kernels (K(m) -
    K(1 - m) c_d / pi) / R_max on the upper triangle of the lower half,
    moduli from R_max = hypot(r + r', z - z'), scattered to both triangles
    by fancy indexing, then column-weighted, the diagonal replaced and the
    two folded."""
    n = mesh.n_panels
    h = n // 2
    r, z, ds = mesh.r[:h], mesh.z[:h], mesh.ds[:h]
    c = _log_weights(n)
    i, j = np.triu_indices(h)
    dz = z[i] - np.stack([z[j], -z[j]])
    rmax = np.hypot(r[i] + r[j], dz)
    u, v = (r[i] - r[j]) / rmax, dz / rmax
    p = u * u + v * v
    p[0, i == j] = 0.5
    km, kc = ellpk_reference(np.stack([p, 1.0 - p]))
    cij = c[np.stack([(i - j) % n, (i + j + 1) % n])]
    kernels = np.empty((2, h, h))
    kernels[:, i, j] = kernels[:, j, i] = (km - kc * cij / math.pi) / rmax
    same, mirror = kernels * (4.0 * r * ds)
    diag = np.arange(h)
    same[diag, diag] = ds * (2.0 * np.log(16.0 * math.pi * r / (n * ds)) - c[0])
    return same + mirror, same - mirror


def vh_reference(r, z, sol):
    """The reduced induced potential of a BemSolution at field points
    (r, z), r >= 0, as bem sums it, with everything recomputed per call: the
    ring charges sigma 2 pi r ds; per point the power of two L > max(r,
    |z|, max r_j); ring_kernel_reference with c_d = 0 in units of L; the
    ring sum over the last axis, times 2 / pi and 1 / L."""
    mesh = sol.mesh
    r, z = np.broadcast_arrays(np.asarray(r, dtype=float), np.asarray(z, dtype=float))
    top = np.maximum(np.maximum(r, np.abs(z)), mesh.r.max())
    scale = np.ldexp(1.0, -np.frexp(top)[1])
    unit = scale[..., None]
    kernel = ring_kernel_reference(unit * r[..., None], unit * mesh.r,
                                   unit * z[..., None] - unit * mesh.z, 0.0)
    ring_charges = sol.sigma * 2.0 * math.pi * mesh.r * mesh.ds
    return (2.0 / math.pi) * np.sum(ring_charges * kernel, axis=-1) * scale


def truncated_sum_reference(terms, decay, rel_tol, what):
    """(sums, stops) of greens' truncation rule as it was once summed in
    two calls: every column truncated (an unconverged one summed whole),
    then a TruncationError raised for the first unconverged column, with
    its whole sum, the capped-rho tail estimate and the number of terms."""
    acc = np.cumsum(terms, axis=0)
    scale = np.abs(acc)
    scale[scale == 0.0] = np.finfo(float).tiny
    small = np.abs(terms) <= rel_tol * scale
    ok = small.copy()
    ok[1:] &= small[:-1]
    ok[2:] &= small[:-2]
    ok &= (decay <= rel_tol * decay[0])[:, None]
    converged = ok.any(axis=0)
    stop = np.argmax(ok, axis=0)
    stop[~converged] = terms.shape[0] - 1
    values = acc[stop, np.arange(terms.shape[1])]
    if not converged.all():
        k = int(np.argmin(converged))
        n_terms = terms.shape[0]
        prev, last = np.abs(terms[-2:, k])
        rho = min(0.99, last / prev) if prev > 0.0 else 0.5
        raise TruncationError(
            f"{what} series not converged after {n_terms} terms",
            partial_sum=values[k],
            bound=last * rho / (1.0 - rho),
            n_terms=n_terms,
        )
    return values, stop


def vh_series_reference(fields, src, g):
    """(V_H / (K_E q), stops) at a sequence of field points with the radial
    factor built three ways, as greens once built it: the table's ratio on
    the axis (xi = 0), the table's Q within 4 eps of the surface, and the
    ratio times one scalar legendre_p_half column per point elsewhere.  The
    terms, the truncation rule and the prefactor are greens' own."""
    table = g.table
    cosh_xi = np.array([math.cosh(fld.xi) for fld in fields])
    on_axis = np.array([fld.xi == 0.0 for fld in fields], dtype=bool)
    on_surface = np.abs(cosh_xi - table.z) <= 4.0 * np.finfo(float).eps * table.z
    rest = ~(on_axis | on_surface)
    radial = np.empty((table.n_max + 1, len(fields)))
    radial[:, on_axis] = table.ratio[:, None]
    radial[:, on_surface] = table.q[:, None]
    for k in np.flatnonzero(rest):
        radial[:, k] = table.ratio * legendre_p_half(cosh_xi[k], table.n_max)
    delta = [fld.eta - src.eta_src for fld in fields]
    sums, stops = greens._truncated_sum(greens._cosine_terms(radial, delta), table.ratio,
                                        g.rel_tol, "potential")
    prefactor = np.array([greens._prefactor(fld, src, g.geometry.f) for fld in fields])
    return -prefactor * sums, stops
