"""Independent numerical oracles used by the tests.

These deliberately avoid the production code paths: Legendre functions
come from adaptive quadrature of their integral representations.  The
elliptic integrals are checked against scipy.special and mpmath directly
in test_specfun.
"""

import math

import numpy as np
from scipy.integrate import quad


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
