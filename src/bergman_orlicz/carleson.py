"""Averaging functions, Berezin transforms, and embedding checkers.

The module measures how a positive measure on the half-plane interacts
with the weighted Bergman–Orlicz scale: disk averages, the kernel-power
transform (Berezin transform), a membership test of the measure's
averages over dyadic cells in the derived Orlicz class, and an empirical
embedding checker that drives a family of normalized kernels toward the
boundary.  Composition operators reduce to the same machinery through an
explicit Möbius pullback density.

The measure of a region's cells and disks comes from `halfplane`, the one
module that knows the region kinds; this module adds atoms and the scale of
a triangular pullback.
"""

from dataclasses import dataclass

import numpy as np

from . import bergman, growth, lattice
from .errors import (AccuracyError, DivergenceError, ParameterError, need,
                     number)
from .halfplane import (Box, Disk, HPoint, disk_meet, integrate,
                        integrate_disk, plane_power_integral, row_cells)
from .orlicz import (_ModularEngine, _discrete_luxembourg, _discrete_modular,
                     _random_sequence, luxembourg, mobius_measure, modular,
                     valpha_measure)
from .quadrature import MAX_STRIPS, _sum_tail

# the reach K of the membership window B_K
MEMBERSHIP_STAGE_MAX = 7

FAMILY_DEFAULTS = {"kernels": 30, "atoms": 20, "im_lo": 1e-3, "im_hi": 1.0,
                   "delta": 0.5, "window": (4, 2), "support_size": 5}


def _as_hpoint(z):
    if isinstance(z, HPoint):
        return z
    z = complex(z)
    return HPoint(z.real, z.imag)


# ------------------------------------------------------------- averaging

def _measure_of_disk(mu, disk, tol):
    """Mass mu(D): a sum of the atoms in D, the V_tau volume of the disk's
    meet with the support (`halfplane.disk_meet`) for a y**tau density, or
    the polar integral of a custom weight."""
    if mu.atoms:
        pts = np.array([p.z for p, _ in mu.atoms])
        ms = np.array([m for _, m in mu.atoms])
        return float(ms[disk.contains(pts)].sum())
    if mu.weight is None:
        return disk_meet(disk, mu.support, mu.alpha_base, tol)
    support, weight = mu.support, mu.weight

    def f(z):
        out = np.ones_like(np.real(z)) * weight(z)
        return out if support is None else out * support.contains(z)

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


def berezin_fn(mu, alpha=0.0):
    """Vectorized z -> transform(mu)(z).

    Atomic measures evaluate as exact finite sums.  On the whole plane the
    transform is closed: for y**tau, and for the pullback of y**beta under
    a triangular map, whose density is (d/a)**(beta+2) * y**beta.
    Anything else, a box density included, is `berezin` at tol 1e-8 per point:
    honest but slow, and its typed errors come when a point is evaluated.
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

    def fn(z):
        zz = np.asarray(z, dtype=complex)
        flat = np.atleast_1d(zz).ravel()
        out = np.array([berezin(mu, v, alpha, 1e-8) for v in flat])
        return out.reshape(zz.shape) if zz.shape else float(out[0])
    return fn


# ------------------------------------------------------------- membership

def phi3_of(phi1, phi2):
    """The derived growth function: complementary of phi1 o phi2^{-1}."""
    return growth.conjugate_of(growth.composed_inverse(phi1, phi2))


def _cells(mu, tol):
    """The anchor b, the bbox (None on the whole plane) and the map
    (k, lo, hi) -> (counts, masses) of mu on the cells m in [lo, hi) of row
    k: atoms summed per cell, a y**tau density's `halfplane.row_cells`, or
    a triangular pullback's whole-plane y**beta rows times (d/a)**(beta+2).
    """
    if mu.atoms:
        pts = np.array([p.z for p, _ in mu.atoms])
        ms = np.array([m for _, m in mu.atoms])
        b = float(np.sum(ms * pts.real) / np.sum(ms))
        ks = -np.frexp(pts.imag)[1]  # y in [2^-k-1, 2^-k)
        cols = np.floor((pts.real - b) * 2.0 ** ks)

        def row(k, lo, hi):
            sel = (ks == k) & (cols >= lo) & (cols < hi)
            _, cell = np.unique(cols[sel], return_inverse=True)
            sums = np.bincount(cell, weights=ms[sel])
            return np.ones(len(sums)), sums
        bbox = (pts.real.min(), pts.real.max(), pts.imag.min(), pts.imag.max())
        return b, bbox, row
    if mu.mobius and mu.mobius[2] == 0.0:
        a, _, _, d = mu.mobius
        region, tau, scale = None, mu.beta, (d / a) ** (mu.beta + 2.0)
    elif mu.weight is None:
        region, tau, scale = mu.support, mu.alpha_base, 1.0
    else:
        raise ParameterError(
            "membership needs atoms, a y**tau density on a region or a "
            "triangular pullback (c = 0); got "
            + ("a pullback with c != 0" if mu.mobius else "a custom weight"))
    bbox = None if region is None else region.bbox
    b = 0.0 if bbox is None else 0.5 * (bbox[0] + bbox[1])

    def row(k, lo, hi):
        counts, masses = row_cells(region, tau, b, k, lo, hi, tol)
        return counts, scale * masses
    return b, bbox, row


def _averages(row, alpha, rows):
    """Averages mu(Q) / V_alpha(Q) and weights V_alpha(Q) of rows' groups."""
    avgs, weights = [np.zeros(0)], [np.zeros(0)]
    for k, lo, hi in rows:
        counts, masses = row(k, lo, hi)
        if len(masses):  # most rows of a ring miss a compact measure
            vol = Box(0.0, 2.0 ** -k, 2.0 ** (-k - 1), 2.0 ** -k).mass(alpha)
            avgs.append(masses / vol)
            weights.append(counts * vol)
    return np.concatenate(avgs), np.concatenate(weights)


def _ring(n, inner):
    """(k, lo, hi) of the rows of B_n minus B_inner, where B_n holds the
    rows -n <= k < n with |x - b| < 2^n (B_0 is empty)."""
    rows = []
    for k in range(-n, n):
        out, cut = 2 ** (n + k), 2 ** (inner + k) if -inner <= k < inner else 0
        rows += [(k, -out, -cut), (k, cut, out)]
    return rows


def berezin_membership(mu, phi1, phi2, alpha=0.0, stage_max=None, tol=1e-6):
    """Whether the averages of mu over dyadic cells lie in the derived
    Orlicz class (result (E); Luecking, Michigan Math. J. 40, 1993).

    Row k is the band [2^-k-1, 2^-k), cut into the cells [b + m 2^-k,
    b + (m+1) 2^-k) with b the anchor of `_cells`, so a translation carries
    the grid with the measure.  The averages mu(Q) / V_alpha(Q), weighted by
    V_alpha(Q), form one sequence, and its Luxembourg norm over the window
    B_K (`_ring`), solved as a lattice sequence's, is the value.  K is
    `stage_max` (default MEMBERSHIP_STAGE_MAX), raised until B_K holds
    the support's bbox, or its top half on the boundary.  The
    modulars of the rings B_n minus B_(n-1), n > K, at that value go to
    `quadrature._sum_tail`: its divergence rule is the verdict.

    Returns
    -------
    (member: bool, lux_value: float)
    """
    phi3 = phi3_of(phi1, phi2)
    b, bbox, row = _cells(mu, tol)
    reach = MEMBERSHIP_STAGE_MAX if stage_max is None else stage_max
    if bbox is not None:
        x0, x1, y0, y1 = bbox
        bottom = y0 if y0 > 0 else y1 / 2
        while not (2.0 ** -reach <= bottom and y1 < 2.0 ** reach
                   and -2.0 ** reach <= x0 - b and x1 - b < 2.0 ** reach):
            reach += 1
    avgs, weights = _averages(row, alpha, _ring(reach, 0))
    value = _discrete_luxembourg(avgs, weights, phi3).value

    rings = (_discrete_modular(*_averages(row, alpha, _ring(n, n - 1)),
                               phi3, value)
             for n in range(reach + 1, reach + 1 + MAX_STRIPS))
    base = _discrete_modular(avgs, weights, phi3, value)
    try:
        # the Dini integral's rule: the rows of a y**tau box are exactly
        # geometric, so any ratio below 0.995 sums in closed form
        _sum_tail(((m, m, 0.0) for m in rings), tol, (0.995, 8, 12),
                  "cell modulars past the window", (base, base, 0.0))
    except DivergenceError:
        return False, value
    return True, value

# --------------------------------------------------------------- verdicts

@dataclass(frozen=True)
class EmbeddingVerdict:
    """Bundle of embedding evidence.

    condition18 holds the admissibility check on the growth pair with
    its constant, inf where the check's Dini integral diverges;
    berezin_in_phi3 is the decidable membership side, the
    (member, lux_value) of `berezin_membership`: whether the averages of
    mu over dyadic cells lie in L^phi3, and their norm over its window, or
    (None, None) when condition (18) fails;
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
    """The verdict as JSON values: an undefined number is null, with a
    reason where one is needed, never inf or NaN."""
    holds, constant = v.condition18
    member, lux = v.berezin_in_phi3
    bg = v.boundary_growth
    return {
        "condition18": (
            {"holds": bool(holds), "constant": float(constant)}
            if np.isfinite(constant)
            else {"holds": bool(holds), "constant": None,
                  "reason": "the Dini integral of condition (18) diverges"}),
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
    """The test family of a `--family` spec: FAMILY_DEFAULTS overridden by
    its keys, each checked, as (tag, Im w or None, F) triples."""
    what, spec = "test family", {} if spec is None else spec
    if not isinstance(spec, dict) or set(spec) - set(FAMILY_DEFAULTS):
        raise ParameterError(
            f"{what} takes an object with keys {sorted(FAMILY_DEFAULTS)}, "
            f"got {spec!r}")
    cfg = {**FAMILY_DEFAULTS, **spec}
    kernels, atoms, support = (lattice.as_index(cfg[k]) for k in
                               ("kernels", "atoms", "support_size"))
    im_lo, im_hi, delta = (number(cfg, k, what)
                           for k in ("im_lo", "im_hi", "delta"))
    window = tuple(lattice.as_index(v) for v in need(cfg, "window", what, 2))
    if min(kernels, atoms) < 0 or support < 2 or not min(im_lo, im_hi) > 0:
        raise ParameterError(
            f"{what} needs kernels, atoms >= 0, support_size >= 2 and "
            f"im_lo, im_hi > 0, got {spec!r}")
    members = []
    if kernels:
        for y in np.geomspace(im_hi, im_lo, kernels):
            members.append(("kernel", y,
                            bergman.normalized_kernel_fn(1j * y, alpha)))
    if atoms:
        lat = lattice.build(delta, window)
        rng = np.random.default_rng(seed)
        for _ in range(atoms):
            seq = _random_sequence(lat, rng, 2, support)
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
    members = _build_family(family_spec, alpha, seed)
    numers = [luxembourg(F, mu, phi2, tol=tol).value for _, _, F in members]
    return _verdict(mu, phi1, phi2, alpha, members, numers, tol)


def _verdict(mu, phi1, phi2, alpha, members, numers, tol):
    """The `EmbeddingVerdict` of a test family whose norms in L^phi2(mu)
    are `numers`, one per member."""
    holds, constant, monotone = growth.embedding_condition_check(phi1, phi2)
    member = (berezin_membership(mu, phi1, phi2, alpha, tol=tol) if holds
              else (None, None))
    ratios, kernel_rows = [], []
    for (tag, y, F), numer in zip(members, numers):
        r = numer / bergman.space_norm(F, phi1, alpha, tol=tol)
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

def composition_check(a, b, c, d, beta_w, phi1, phi2, alpha=0.0,
                      family_spec=None, seed=0, tol=1e-4):
    """Boundedness evidence for F -> F o phi between weighted spaces.

    The verdict is `embedding_test`'s on the pullback measure, at tolerance
    min(tol, 1e-4), and the first five family members cross-check the
    change-of-variables identity modular(F o phi; V_beta) =
    modular(F; pullback) at tol * 1e-2.  The members run one at a time,
    each in this order: its norm in L^phi2(pullback), the right-hand side,
    the left-hand side.  The norm and the right-hand side share one panel
    store (`orlicz._ModularEngine`), so the right-hand side evaluates only
    the panels the norm's passes did not; the store is released before the
    left-hand side, so one store is alive at a time.
    """
    mu = mobius_measure(a, b, c, d, beta_w)
    members = _build_family(family_spec, alpha, seed)
    solve_tol = min(tol, 1e-4)

    def phi_map(z):
        return (a * z + b) / (c * z + d)

    numers = []
    for i, (_, _, F) in enumerate(members):
        engine = _ModularEngine(F, mu)
        numers.append(engine.norm(phi2, solve_tol).value)
        rhs = engine.modular(phi2, tol * 1e-2) if i < 5 else None
        del engine
        if rhs is None:
            continue
        comp = lambda z, F=F: F(phi_map(np.asarray(z, dtype=complex)))
        lhs = modular(comp, valpha_measure(beta_w), phi2, tol=tol * 1e-2)
        scale = max(abs(lhs), abs(rhs), 1e-300)
        if abs(lhs - rhs) > tol * scale:
            raise AccuracyError(
                f"change-of-variables mismatch: {lhs:.8g} vs {rhs:.8g} "
                f"(rel {abs(lhs - rhs) / scale:.2e})")
    return _verdict(mu, phi1, phi2, alpha, members, numers, solve_tol)
