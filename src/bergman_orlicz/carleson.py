"""Averaging functions, Berezin transforms, and embedding checkers.

The module measures how a positive measure on the half-plane interacts
with the weighted Bergman–Orlicz scale: disk averages, the kernel-power
transform (Berezin transform), a membership test for the transform in
the derived Orlicz class, and an empirical embedding checker that drives
a family of normalized kernels toward the boundary.  Composition
operators reduce to the same machinery through an explicit Möbius
pullback density.
"""

import logging
from dataclasses import dataclass, replace

import numpy as np

from . import bergman, growth, lattice
from .errors import AccuracyError, DivergenceError, ParameterError
from .halfplane import (Box, Disk, HPoint, integrate, integrate_disk,
                        plane_power_integral)
from .orlicz import (_random_sequence, luxembourg, mobius_measure, modular,
                     valpha_measure)

log = logging.getLogger(__name__)

MEMBERSHIP_STAGE_MAX = 7
MEMBERSHIP_STABLE_REL = 0.01
MEMBERSHIP_TAIL_CAP = 1.0 / 3.0
# y-rule of the box transform (see berezin_fn): 16-node Gauss panels
# [a, 4a], and on a boundary box 20 of them above a Gauss-Jacobi sliver
GAUSS_ORDER_Y = 16
PANEL_RATIO = 4.0
BOUNDARY_PANELS = 20
# points per block of the box transform, so that its (points x y-nodes)
# temporaries stay in cache: on Box(0, 1, 0, 1) with tau = -0.5 (336
# y-nodes), 2,560 points took 16-18 ms in blocks of 32 or 64, 21 ms in
# blocks of 16 or 128 and 31 ms in one block (best of 7, 2-core machine)
BEREZIN_BLOCK = 64

FAMILY_DEFAULTS = {"kernels": 30, "atoms": 20, "im_lo": 1e-3, "im_hi": 1.0,
                   "delta": 0.5, "window": (4, 2), "support_size": 5}


def _as_hpoint(z):
    if isinstance(z, HPoint):
        return z
    z = complex(z)
    return HPoint(z.real, z.imag)


# ------------------------------------------------------------- averaging

def _measure_of_disk(mu, disk, tol):
    """Mass mu(D): a sum of the atoms in D, or the density's integral."""
    if mu.atoms:
        pts = np.array([p.z for p, _ in mu.atoms])
        ms = np.array([m for _, m in mu.atoms])
        return float(ms[disk.contains(pts)].sum())
    support = mu.support
    weight = mu.weight

    def f(z):
        out = np.ones_like(np.real(z))
        if weight is not None:
            out = out * weight(z)
        if support is not None:
            out = out * support.contains(z)
        return out

    return integrate_disk(f, mu.alpha_base, disk, tol=tol)


def average(mu, z, s, alpha=0.0, tol=1e-8):
    """Disk average mu(D_s(z)) / |D_s(z)|_alpha."""
    if not 0 < s < 1:
        raise ParameterError(f"disk ratio must lie in (0,1), got {s}")
    disk = Disk(_as_hpoint(z), s)
    return _measure_of_disk(mu, disk, tol) / disk.mass(alpha)


# ------------------------------------------------------- Berezin transform

def berezin(mu, z, alpha=0.0, tol=1e-8):
    """Kernel-power transform of mu at z.

    Integrates Im(z)**(2+alpha) / |w - conj(z)|**(2(2+alpha)) against mu.
    """
    zc = _as_hpoint(z)
    m = 2.0 + alpha
    if mu.atoms:
        return float(berezin_fn(mu, alpha)(zc.z))

    def f(w):
        return zc.y ** m / np.abs(w - np.conj(zc.z)) ** (2.0 * m)

    weight = mu.weight
    g = f if weight is None else (lambda w: f(w) * weight(w))
    try:
        return integrate(g, mu.alpha_base, mu.support, tol=tol)
    except DivergenceError as e:
        raise AccuracyError(f"transform integral diverges: {e}") from e


def _y_rule(y0, y1, tau):
    """Nodes and weights of a rule for int_{y0}^{y1} g(y) y**tau dy.

    Gauss panels [a, 4a] grade from y1 down to y0.  On a boundary box
    (y0 = 0) they stop at the floor y1 * 4**-BOUNDARY_PANELS, and a
    Gauss-Jacobi rule for the weight y**tau integrates the sliver below it.
    Returns (nodes, weights), the weights holding the factor y**tau.
    """
    xg, wg = np.polynomial.legendre.leggauss(GAUSS_ORDER_Y)
    if y0 > 0:
        lo = y0
    elif tau <= -1:
        raise DivergenceError(
            f"density y**{tau} is not integrable at the boundary")
    else:
        lo = y1 * PANEL_RATIO ** -BOUNDARY_PANELS
    edges = [y1]
    while edges[-1] > lo * (1 + 1e-12):
        edges.append(max(lo, edges[-1] / PANEL_RATIO))
    edges = np.array(edges[::-1])
    a, b = edges[:-1], edges[1:]
    mid, half = (a + b) / 2.0, (b - a) / 2.0
    nodes = (mid[:, None] + half[:, None] * xg[None, :]).ravel()
    weights = (half[:, None] * wg[None, :]).ravel() * nodes ** tau
    if y0 > 0:
        return nodes, weights
    from scipy.special import roots_jacobi
    xj, wj = roots_jacobi(GAUSS_ORDER_Y, 0.0, tau)
    return (np.concatenate([lo / 2.0 * (1.0 + xj), nodes]),
            np.concatenate([wj * (lo / 2.0) ** (1.0 + tau), weights]))


def _int_inv_power(u0, u1, c, m):
    """Integral of 1/(u^2 + c^2)^m over [u0, u1] for real m > 1/2.

    For m = 2 the difference of the two antiderivatives is fused into one
    rational term and one arctan2, which keeps its accuracy off the
    interval, where the antiderivatives nearly cancel.  The arrays are
    (points x nodes), so the terms accumulate in place.

    Any other m goes through the integral from 0 to |u| (the head) or from
    |u| to infinity (the tail), each a regularized incomplete beta
    function times c**(1-2m) B(m-1/2, 1/2) / 2 and accurate to its last
    bits: an interval across 0 is the sum of two heads, and one on either
    side of 0 is the difference of two tails when its near end is past c,
    of two heads otherwise, so the two terms cancel no more than the
    interval's length against its distance from 0 makes them.
    """
    if m == 2.0:
        du, p, c2 = u1 - u0, u0 * u1, c * c
        out = (c2 - p) * du
        out /= (u0 * u0 + c2) * (u1 * u1 + c2)
        out += np.arctan2(c * du, c2 + p) / c
        out /= 2.0 * c2
        return out
    from scipy.special import beta, betainc
    near = np.minimum(np.abs(u0), np.abs(u1))
    far = np.maximum(np.abs(u0), np.abs(u1))
    across = (u0 < 0.0) & (u1 > 0.0)
    tails = (near >= c) & ~across
    a, b = np.where(tails, m - 0.5, 0.5), np.where(tails, 0.5, m - 0.5)
    c2 = c * c

    def part(u):  # the tail or head from |u|, over its scale
        u2 = u * u
        return betainc(a, b, np.where(tails, c2, u2) / (u2 + c2))

    at_near, at_far = part(near), part(far)
    out = np.where(tails, at_near - at_far,
                   np.where(across, at_far + at_near, at_far - at_near))
    return out * (0.5 * beta(m - 0.5, 0.5)) * c ** (1.0 - 2.0 * m)


def berezin_fn(mu, alpha=0.0, tol=1e-6):
    """Vectorized z -> transform(mu)(z).

    Atomic measures evaluate as exact finite sums.  Pure-weight
    densities y**tau on a box reduce the inner x-integral to closed form,
    leaving a 1-D rule in y: 16-node Gauss panels [a, 4a] from y_max
    down to y_min.  On a panel [a, 4a] the integrand's nearest
    singularity is y**tau's branch point at 0 (the x-integral's lie at
    y = -Im z +- iu, farther off), on the Bernstein ellipse rho = 3, so
    the Gauss error bound O(rho**-32) (Trefethen, SIAM Rev. 50, 2008)
    holds each panel to about 5e-16 relative.  On a boundary box
    (y_min = 0) the panels stop at the floor y_max * 4**-20, and a
    16-node Gauss-Jacobi rule for the weight y**tau integrates the sliver
    below it; the x-integral's singularity at -Im z sets that rule's
    ellipse, so the sliver is as exact while Im z stays above a third of
    the floor and degrades below it.  On the whole plane the transform is
    closed: for y**tau, and for the pullback of y**beta under a triangular
    map, whose density is (d/a)**(beta+2) * y**beta.  Anything else falls
    back to one adaptive integral per point, which is honest but slow.
    """
    m = 2.0 + alpha
    if mu.atoms:
        pts = np.array([p.z for p, _ in mu.atoms])
        ms = np.array([w for _, w in mu.atoms])

        def fn(z):
            zz = np.asarray(z, dtype=complex)
            flat = np.atleast_1d(zz).ravel()
            num = np.imag(flat)[:, None] ** m
            den = np.abs(pts[None, :] - np.conj(flat)[:, None]) ** (2.0 * m)
            out = (ms[None, :] * num / den).sum(axis=1)
            return out.reshape(zz.shape) if zz.shape else float(out[0])
        return fn

    # closed on the whole plane: y**tau has scale 1, and the pullback of
    # y**beta under a triangular map has density (d/a)**(beta+2) * y**beta
    closed = None
    if mu.mobius and mu.mobius[2] == 0.0:
        a0, _, _, d0 = mu.mobius
        closed = mu.beta, (d0 / a0) ** (mu.beta + 2.0)
    elif mu.weight is None and mu.support is None:
        closed = mu.alpha_base, 1.0
    if closed:
        tau, scale = closed
        c0 = scale * plane_power_integral(1.0, tau, 2.0 * m)

        def fn(z):
            y = np.imag(np.asarray(z, dtype=complex))
            return c0 * y ** (tau - alpha) * np.ones_like(y)
        return fn

    if mu.weight is None and isinstance(mu.support, Box):
        tau, box = mu.alpha_base, mu.support
        ynod, gvals = _y_rule(box.y_min, box.y_max, tau)

        def fn(z):
            zz = np.asarray(z, dtype=complex)
            flat = np.atleast_1d(zz).ravel()
            out = np.empty(flat.shape)
            for i in range(0, flat.size, BEREZIN_BLOCK):
                part = flat[i:i + BEREZIN_BLOCK]
                xz, yz = np.real(part)[:, None], np.imag(part)[:, None]
                c = ynod[None, :] + yz
                inner = _int_inv_power(box.x_min - xz, box.x_max - xz, c, m)
                out[i:i + BEREZIN_BLOCK] = (inner @ gvals) * np.imag(part) ** m
            return out.reshape(zz.shape) if zz.shape else float(out[0])
        return fn

    def fn(z):
        zz = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(zz).ravel()
        out = np.array([berezin(mu, v, alpha, tol) for v in flat])
        return out.reshape(zz.shape) if zz.shape else float(out[0])
    return fn


# ------------------------------------------------------------- membership

def phi3_of(phi1, phi2):
    """The derived growth function: complementary of phi1 o phi2^{-1}."""
    return growth.conjugate_of(growth.composed_inverse(phi1, phi2))


def _restrict(mu, box):
    """Measure restricted to a box; None encodes the zero measure.  A
    pullback, or a density on a Disk or StripUnion, stays whole: the
    transform of a global measure decays."""
    if mu.atoms:
        kept = tuple((p, m) for p, m in mu.atoms if box.contains(p.z))
        return replace(mu, atoms=kept) if kept else None
    if mu.mobius:
        return mu
    if mu.support is None:
        return replace(mu, support=box)
    if isinstance(mu.support, Box):
        s = mu.support
        x0, x1 = max(s.x_min, box.x_min), min(s.x_max, box.x_max)
        y0, y1 = max(s.y_min, box.y_min), min(s.y_max, box.y_max)
        if x0 >= x1 or y0 >= y1:
            return None
        return replace(mu, support=Box(x0, x1, y0, y1))
    return mu


def berezin_membership(mu, phi1, phi2, alpha=0.0, stage_max=None, tol=1e-6):
    """Whether the transform of mu lies in the derived Orlicz class.

    Computes the Luxembourg value of the transform against the
    alpha-weight over a doubling sequence of boxes; membership means the
    values stabilize.  Stabilization is certified either outright
    (relative change at most 1% on a doubling) or by geometric tail
    extrapolation: when the relative increments decay at a ratio rho < 1,
    the remaining growth is at most ``rel * rho / (1 - rho)`` of the
    current value, and the sequence is accepted once that projected tail
    is below ``MEMBERSHIP_TAIL_CAP``.  Divergent transforms keep their
    increments near-constant (or growing), so the projection stays large.

    Returns
    -------
    (member: bool, lux_value: float)
    """
    phi3 = phi3_of(phi1, phi2)
    stage_max = MEMBERSHIP_STAGE_MAX if stage_max is None else stage_max
    prev = None
    val = 0.0
    rels = []
    for k in range(1, stage_max + 1):
        reach = 2.0 ** k
        box = Box(-reach, reach, 1.0 / reach, reach)
        mu_k = _restrict(mu, box)
        if mu_k is None:
            val = 0.0
        else:
            fn = berezin_fn(mu_k, alpha)
            val = luxembourg(fn, valpha_measure(alpha, support=box),
                             phi3, tol=tol).value
        if prev is not None:
            rel = abs(val - prev) / max(val, 1e-300)
            if rel <= MEMBERSHIP_STABLE_REL:
                return True, val
            rels.append(rel)
        prev = val
    if len(rels) >= 2 and rels[-2] > 0:
        rho = rels[-1] / rels[-2]
        if rho < 1.0:
            tail = rels[-1] * rho / (1.0 - rho)
            if tail <= MEMBERSHIP_TAIL_CAP:
                return True, val
            log.info("projected tail %.3g above cap; treating as divergent",
                     tail)
    rate = val / prev if prev else float("inf")
    log.info("transform norm not stabilizing: last doubling grew by %.3g", rate)
    return False, val


# --------------------------------------------------------------- verdicts

@dataclass(frozen=True)
class EmbeddingVerdict:
    """Bundle of embedding evidence.

    condition18 holds the admissibility check on the growth pair with
    its constant; berezin_in_phi3 is the decidable membership side,
    (member, lux_value), or (None, None) when condition (18) fails;
    empirical_ratio is the worst norm ratio over the test family; and
    boundary_growth compares worst ratios between the outermost and
    innermost Im(w) decades of the kernel family (stable embeddings
    stay within a factor ~2, failures blow up by 10+), or is None with
    no kernels or no nonzero inner ratio.
    """

    condition18: tuple
    ratio_monotone: bool
    berezin_in_phi3: tuple
    empirical_ratio: float
    test_family_size: int
    boundary_growth: float | None


def verdict_to_json(v):
    member, lux = v.berezin_in_phi3
    bg = v.boundary_growth
    return {
        "condition18": {"holds": bool(v.condition18[0]),
                        "constant": float(v.condition18[1])},
        "ratio_monotone": bool(v.ratio_monotone),
        "berezin_in_phi3": (
            {"member": None, "lux_value": None,
             "reason": "condition (18) fails"} if member is None
            else {"member": bool(member), "lux_value": float(lux)}),
        "empirical_ratio": float(v.empirical_ratio),
        "test_family_size": int(v.test_family_size),
        "boundary_growth": None if bg is None else float(bg),
    }


def _build_family(spec, alpha, seed):
    cfg = dict(FAMILY_DEFAULTS)
    cfg.update(spec or {})
    members = []
    if cfg["kernels"]:
        for y in np.geomspace(cfg["im_hi"], cfg["im_lo"], cfg["kernels"]):
            members.append(("kernel", y,
                            bergman.normalized_kernel_fn(1j * y, alpha)))
    if cfg["atoms"]:
        lat = lattice.build(cfg["delta"], tuple(cfg["window"]))
        rng = np.random.default_rng(seed)
        for _ in range(cfg["atoms"]):
            seq = _random_sequence(lat, rng, 2, cfg["support_size"])
            members.append(("atom", None, bergman.atom_sum(seq, alpha)))
    if not members:
        raise ParameterError("embedding test family is empty")
    return members


def embedding_test(mu, phi1, phi2, alpha=0.0, family_spec=None, seed=0,
                   tol=1e-6):
    """Empirical embedding check of the weighted space into L^phi2(mu).

    Ratios lux(F; L^phi2(mu)) / lux(F; A^phi1_alpha) are taken over a
    family of normalized kernels approaching the boundary plus random
    atom sums; the verdict bundles the growth-pair admissibility, the
    transform-membership side, and the worst observed ratio.
    """
    holds, constant, monotone = growth.embedding_condition_check(phi1, phi2)
    member = (berezin_membership(mu, phi1, phi2, alpha, tol=tol) if holds
              else (None, None))

    members = _build_family(family_spec, alpha, seed)
    ratios, kernel_rows = [], []
    for tag, y, F in members:
        denom = bergman.space_norm(F, phi1, alpha, tol=tol)
        numer = luxembourg(F, mu, phi2, tol=tol).value
        r = numer / denom
        ratios.append(r)
        if tag == "kernel":
            kernel_rows.append((y, r))
    empirical = float(np.max(ratios))

    boundary_growth = None
    if kernel_rows:
        ys = np.array([y for y, _ in kernel_rows])
        rs = np.array([r for _, r in kernel_rows])
        inner = rs[ys >= ys.max() / 10.0]
        outer = rs[ys <= ys.min() * 10.0]
        if len(inner) and len(outer) and inner.max() > 0:
            boundary_growth = float(outer.max() / inner.max())

    return EmbeddingVerdict(
        condition18=(holds, constant), ratio_monotone=monotone,
        berezin_in_phi3=member, empirical_ratio=empirical,
        test_family_size=len(members), boundary_growth=boundary_growth)


# ------------------------------------------------------------ composition

# measure of a set = beta-weighted volume of its Mobius preimage
pullback_mobius = mobius_measure


def composition_check(a, b, c, d, beta_w, phi1, phi2, alpha=0.0,
                      family_spec=None, seed=0, tol=1e-4):
    """Boundedness evidence for F -> F o phi between weighted spaces.

    Runs the embedding test on the pullback measure and cross-checks the
    change-of-variables identity modular(F o phi; V_beta) =
    modular(F; pullback) on five family members.
    """
    mu = pullback_mobius(a, b, c, d, beta_w)
    verdict = embedding_test(mu, phi1, phi2, alpha, family_spec, seed,
                             tol=min(tol, 1e-4))

    def phi_map(z):
        return (a * z + b) / (c * z + d)

    members = _build_family(family_spec, alpha, seed)[:5]
    for _, _, F in members:
        comp = lambda z, F=F: F(phi_map(np.asarray(z, dtype=complex)))
        lhs = modular(comp, valpha_measure(beta_w), phi2, tol=tol * 1e-2)
        rhs = modular(F, mu, phi2, tol=tol * 1e-2)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > tol * scale:
            raise AccuracyError(
                f"change-of-variables mismatch: {lhs:.8g} vs {rhs:.8g} "
                f"(rel {abs(lhs - rhs) / scale:.2e})")
    return verdict
