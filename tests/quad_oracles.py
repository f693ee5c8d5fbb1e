"""Nested QUADPACK references for modulars, independent of the package's
own cubature: the Luxembourg pins of tests/test_orlicz.py and
tests/test_quadrature.py are checked against these before their bits are
compared.  Each helper integrates Phi(|f|) for a plain float Phi.
"""

import math

import numpy as np
from scipy.integrate import quad

RTOL = 1e-12


def _quad(fn, a, b):
    return quad(fn, a, b, epsabs=0.0, epsrel=RTOL, limit=200)[0]


def power_log(p, a, c):
    """t^p log(c + t)^a on floats, as `growth.power_log`."""
    return lambda t: t ** p * math.log(c + t) ** a


def decay_plane_modular(phi, eps, m, lam):
    """int Phi(|f| / lam) dA over the half-plane, f = (1 - i eps z)^-m.

    With x = v s / eps and v = 1 + eps y, |f| = v^-m (1 + s^2)^(-m/2), so
    the integral is (2 / eps^2) int_1^inf v int_0^inf Phi(...) ds dv.
    """

    def inner(v):
        a = v ** (-m) / lam
        return v * _quad(lambda s: phi(a * (1.0 + s * s) ** (-m / 2.0)),
                         0.0, np.inf)

    return 2.0 / eps ** 2 * _quad(inner, 1.0, np.inf)


def box_modular(phi, absf, x0, x1, y0, y1, weight=None):
    """int_y0^y1 int_x0^x1 Phi(absf(x, y)) weight(x, y) dx dy, with weight
    1 when it is None."""
    if weight is None:
        weight = lambda x, y: 1.0
    return _quad(lambda y: _quad(lambda x: phi(absf(x, y)) * weight(x, y),
                                 x0, x1), y0, y1)


def disk_modular(phi, absf, x0, y0, r):
    """Phi(absf(x, y)) integrated over the disk of radius r at (x0, y0),
    in polar coordinates."""

    def ring(rho):
        return rho * _quad(lambda t: phi(absf(x0 + rho * math.cos(t),
                                              y0 + rho * math.sin(t))),
                           0.0, 2.0 * math.pi)

    return _quad(ring, 0.0, r)

