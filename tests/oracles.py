"""Independent numerical oracles used by the tests.

These deliberately avoid the production code paths: Legendre functions
come from adaptive quadrature of their integral representations.  The
elliptic integrals are checked against scipy.special and mpmath directly
in test_specfun.

The Nyström blocks and the field-point ring sums have references of
another kind: the straightforward formulations of bem's kernel pass
(fancy-index gathers and scatters, one polynomial at a time, no cached
tables) and of its ring sum (everything recomputed per call), kept so that
the production paths can be pinned to them bit for bit.  The truncation
rule of the series is pinned the same way, to its earlier two-call form.
"""

import math

import numpy as np
from scipy.integrate import quad

from torvdw.bem import _ELLPK_PQ, _log_weights
from torvdw.errors import TruncationError

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


def ellpk_reference(x):
    """K(1 - x) for x >= 0 by Cephes' ellpk, elementwise, in its plain
    form: y = min(x, 1/x), P and Q by separate Horner loops in y, the
    leading terms below MACHEP, and K(1 - 1/x) / sqrt(x) above 1."""
    x = np.asarray(x, dtype=float)
    with np.errstate(divide="ignore", over="ignore"):
        y = np.minimum(x, 1.0 / x)
        log = np.log(y)
    p, q = (c * y for c in _ELLPK_PQ[0])
    for cp, cq in _ELLPK_PQ[1:-1]:
        p += cp
        p *= y
        q += cq
        q *= y
    p += LN4
    q += _ELLPK_PQ[-1][1]
    k = np.where(y > MACHEP, p - q * log, LN4 - 0.5 * log)
    return k / np.sqrt(np.maximum(x, 1.0))


def nystrom_blocks_reference(mesh):
    """The even and odd blocks of a BemMesh (n nodes, n even), assembled as
    bem did before its kernel pass used per-node-count tables: the
    same-side and mirror kernels on the upper triangle of the lower half,
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
    (r, z), r >= 0, as bem summed it before its ring table: per call the
    ring charges sigma 2 pi r ds, the moduli from the halved operands of
    R_max, K by ellpk_reference, and the ring sum over the last axis."""
    mesh = sol.mesh
    r = np.asarray(r, dtype=float)[..., None]
    z = np.asarray(z, dtype=float)[..., None]
    r_f, r_ring = 0.5 * r, 0.5 * mesh.r
    v = 0.5 * z - 0.5 * mesh.z
    half = np.hypot(r_f + r_ring, v)
    u, v = (r_f - r_ring) / half, v / half
    kernel = (1.0 / math.pi) * ellpk_reference(u * u + v * v) / half
    ring_charges = sol.sigma * 2.0 * math.pi * mesh.r * mesh.ds
    return np.sum(ring_charges * kernel, axis=-1)


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
