"""Nested QUADPACK references for modulars, independent of the package's
own cubature: the Luxembourg pins of tests/test_orlicz.py and
tests/test_quadrature.py are checked against these before their bits are
compared.  Each helper integrates Phi(|f|) for a plain float Phi.

`cell_lux_t2` is the same kind of reference for the dyadic-cell sums of
`carleson.berezin_membership`: one cell at a time, each mass its own
QUADPACK integral.
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



def _section_overlap(section, u0, u1):
    """y -> the length of [u0, u1] inside the x-interval section(y)."""
    def width(y):
        lo, hi = section(y)
        return max(0.0, min(hi, u1) - max(lo, u0))
    return width


def cell_lux_t2(section, kinks, tau, alpha, b, K, bbox):
    """Luxembourg norm, under Phi3 = t^2 / 4 (the derived function of t^2
    into t), of the averages mu(Q) / V_alpha(Q) weighted by V_alpha(Q) over
    the dyadic cells Q = [b + m 2^-k, b + (m+1) 2^-k) x [2^-k-1, 2^-k) of
    the window -K <= k < K, |x - b| < 2^K, where mu is y^tau over the region
    whose x-interval at height y is section(y), with bbox (x0, x1, y0, y1).

    The modular is sum V (mu / V / lam)^2 / 4, so lam is
    sqrt(sum mu^2 / V / 4).  Every window cell that meets the bbox is
    visited one at a time (the others hold no mass); its mass is a QUADPACK
    integral in y of y^tau times the cell's share of the section, split at
    the heights kinks(u0, u1) where that share has a kink, and its volume
    is one too.
    """
    x0, x1, y0, y1 = bbox
    total = 0.0
    for k in range(-K, K):
        h = 2.0 ** -k
        lo, hi = max(y0, h / 2), min(y1, h)
        if not hi > lo:
            continue
        vol = h * _quad(lambda y: y ** alpha, h / 2, h)
        first = max(-2 ** (K + k), math.floor((x0 - b) / h))
        last = min(2 ** (K + k) - 1, math.floor((x1 - b) / h))
        for m in range(first, last + 1):
            u0, u1 = b + m * h, b + (m + 1) * h
            cuts = sorted(c for c in kinks(u0, u1) if lo < c < hi)
            width = _section_overlap(section, u0, u1)
            mass = sum(_quad(lambda y: y ** tau * width(y), a, c)
                       for a, c in zip([lo] + cuts, cuts + [hi]))
            total += mass * mass / vol
    return math.sqrt(total / 4.0)
