"""Release acceptance suite: twelve numbered numerical criteria.

Each criterion is a self-contained check with its own closed-form
oracles and pinned seeds.  ``run`` executes them in order (optionally
restricted to named suites) and returns one :class:`CriterionResult`
per criterion; the CLI ``verify`` subcommand renders these as PASS/FAIL
lines.  A criterion that raises is reported as a failure with the
exception text rather than aborting the remaining checks.

The suite is deliberately redundant with the unit tests: it re-derives
its expected values from closed forms at run time instead of trusting
frozen constants, so a regression in any numerical kernel surfaces here
even if a test file is stale.
"""

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy.integrate import quad
from scipy.special import betainc, betaln

from . import atoms, bergman, carleson, growth, halfplane, lattice
from .errors import ParameterError
from .halfplane import Box, Disk, HPoint
from .orlicz import (atomic_measure, density_measure, luxembourg,
                     mobius_density, modular, valpha_measure)

__all__ = ["CriterionResult", "run", "SUITE_NAMES"]


@dataclass(frozen=True)
class CriterionResult:
    name: str
    passed: bool
    detail: str
    elapsed: float


class _Failure(Exception):
    """Criterion-level assertion failure with a diagnostic message."""


def _require(cond, msg):
    if not cond:
        raise _Failure(msg)


# ------------------------------------------------------------------ 1 beta
def _crit_beta():
    """Closed Beta-integral formulas against direct 1-D quadrature."""
    j_anchor = halfplane.line_power_integral(1.0, 2.0)
    i_anchor = halfplane.halfline_power_integral(2.0, 0.0, 2.0)
    _require(abs(j_anchor - math.pi) <= 1e-12 * math.pi,
             f"line anchor {j_anchor} != pi")
    _require(abs(i_anchor - 0.5) <= 1e-12,
             f"halfline anchor {i_anchor} != 1/2")

    def line_quad(y, a):
        v, _ = quad(lambda x: (x * x + y * y) ** (-a / 2.0),
                    -np.inf, np.inf)
        return v

    def halfline_quad(t, a, b):
        v, _ = quad(lambda u: u ** a * (u + t) ** (-b), 0.0, np.inf)
        return v

    rng = np.random.default_rng(20240801)
    worst = 0.0
    for _ in range(10):
        y = rng.uniform(0.3, 3.0)
        a = rng.uniform(1.2, 6.0)
        closed = halfplane.line_power_integral(y, a)
        worst = max(worst, abs(line_quad(y, a) - closed) / closed)
    for _ in range(10):
        t = rng.uniform(0.3, 3.0)
        a = rng.uniform(0.0, 3.0)
        b = a + rng.uniform(1.5, 4.0)
        closed = halfplane.halfline_power_integral(t, a, b)
        worst = max(worst, abs(halfline_quad(t, a, b) - closed) / closed)
    _require(worst <= 1e-6, f"quadrature-vs-formula worst rel {worst:.2e}")
    return (f"anchors pi and 1/2 exact; worst quadrature rel {worst:.1e} "
            f"over 20 random parameter draws")


# ----------------------------------------------------------------- 2 decay
def _crit_decay():
    """Exact modular of the reference decaying function and its scaling."""
    F = bergman.decay(1.0, 3)
    base = halfplane.integrate(
        lambda z: np.abs(F(np.asarray(z, complex))) ** 2, 0.0, None,
        tol=1e-7)
    target = 3.0 * math.pi / 32.0
    rel = abs(base - target) / target
    _require(rel <= 1e-4, f"base modular rel {rel:.2e}")

    slopes = []
    for alpha in (0.0, 0.5):
        ms = []
        for eps in (1.0, 2.0, 4.0):
            Fe = bergman.decay(eps, 3)
            ms.append(halfplane.integrate(
                lambda z: np.abs(Fe(np.asarray(z, complex))) ** 2, alpha,
                None, tol=1e-6))
        slope = np.polyfit(np.log([1.0, 2.0, 4.0]), np.log(ms), 1)[0]
        want = -(2.0 + alpha)
        _require(abs(slope - want) <= 0.01 * abs(want),
                 f"scaling exponent {slope:.4f} vs {want} at alpha={alpha}")
        slopes.append(slope)
    return (f"modular rel {rel:.1e} against 3*pi/32; scaling exponents "
            f"{slopes[0]:+.4f}, {slopes[1]:+.4f} for alpha 0, 0.5")


# --------------------------------------------------------------- 3 luxnorm
def _crit_luxnorm():
    """Luxembourg solver equals the p-norm for generic power functions, on
    random densities and on the whole plane against its closed form."""
    rng = np.random.default_rng(331)
    worst = 0.0
    for i in range(20):
        p = (1.5, 2.0, 3.0)[i % 3]
        x0 = rng.uniform(-2.0, 2.0)
        y0 = rng.uniform(0.2, 2.0)
        box = Box(x0, x0 + rng.uniform(0.5, 2.0),
                  y0, y0 + rng.uniform(0.5, 2.0))
        a, b = rng.uniform(0.5, 2.0), rng.uniform(-0.4, 0.4)
        mu = density_measure(
            lambda z, a=a, b=b: a + b * np.sin(np.real(z)), support=box)
        c = rng.uniform(0.5, 2.0) + 1j * rng.uniform(-1.0, 1.0)
        u, v = rng.uniform(0.1, 0.5), rng.uniform(0.5, 1.5)
        f = bergman.custom_fn(
            lambda z, c=c, u=u, v=v: c * np.exp(1j * v * np.real(z))
            * (1.0 + u * np.imag(z)))
        # custom wrapper forces the generic root-finding path; a plain power
        # family would collapse to the very p-norm being checked
        phi_c = growth.custom(lambda t, p=p: t ** p)
        lux = luxembourg(f, mu, phi_c, tol=1e-10).value
        pnorm = modular(f, mu, growth.power(p), tol=1e-12) ** (1.0 / p)
        worst = max(worst, abs(lux - pnorm) / pnorm)
    _require(worst <= 1e-8, f"worst rel {worst:.2e} above 1e-8")
    # the p-norm of decay(0.7, 2) over the whole plane is closed, so this
    # leg checks the solver against no quadrature of the package's own
    F = bergman.decay(0.7, 2.0)
    closed = 0.0
    for p in (1.5, 2.0, 3.0):
        lux = luxembourg(F, valpha_measure(0.0),
                         growth.custom(lambda t, p=p: t ** p)).value
        exact = bergman.decay_modular_exact(0.7, 2.0, p) ** (1.0 / p)
        closed = max(closed, abs(lux - exact) / exact)
    _require(closed <= 1e-8,
             f"whole-plane closed-form rel {closed:.2e} above 1e-8")
    return (f"20 random densities, p in {{1.5, 2, 3}}: worst rel {worst:.1e}; "
            f"whole-plane decay(0.7, 2) against its closed form: worst rel "
            f"{closed:.1e}")


# --------------------------------------------------------------- 4 lattice
def _crit_lattice():
    """Disjointness, covering, and overlap stability of the point family."""
    parts = []
    for delta in (0.1, 0.3, 0.5):
        lat = lattice.build(delta, window=(50, 10))
        rep = lattice.covering_report(lat, n_samples=10000, seed=7)
        _require(rep.disjoint_ok, f"delta={delta}: separation disks overlap")
        _require(rep.cover_fraction == 1.0,
                 f"delta={delta}: cover fraction {rep.cover_fraction}")
        _require(not rep.violations,
                 f"delta={delta}: violations {rep.violations[:3]}")
        r0 = lattice._zone_box(lat)
        x0, x1, y0, y1 = r0.bbox
        cx, cy = 0.5 * (x0 + x1), 0.5 * (y0 + y1)
        r1 = Box(cx - (x1 - x0), cx + (x1 - x0),
                 max(cy - (y1 - y0), 1e-12), cy + (y1 - y0))
        m0 = lattice.covering_report(lat, region=r0, n_samples=10000,
                                     seed=7).max_overlap
        m1 = lattice.covering_report(lat, region=r1, n_samples=10000,
                                     seed=7).max_overlap
        _require(m1 <= m0,
                 f"delta={delta}: overlap rose {m0} -> {m1} on doubling")
        parts.append(f"{delta}:{m0}")
    return ("separation exact, cover 1.0000 at 10^4 samples, overlap "
            "stable under region doubling (max per delta " +
            ", ".join(parts) + ")")


# ------------------------------------------------------------- 5 reproduce
def _crit_reproduce():
    """Kernel-integral projection reproduces an analytic function."""
    F = bergman.decay(1.0, 4)
    xs = np.linspace(-2.0, 2.0, 10)
    ys = np.geomspace(0.2, 5.0, 10)
    worst = 0.0
    for x, y in zip(xs, ys):
        z = complex(x, y)
        pv = bergman.project(F, z, alpha=0.0, tol=1e-5)
        worst = max(worst, abs(pv - F(z)) / abs(F(z)))
    _require(worst <= 1e-3, f"worst projection rel {worst:.2e}")
    return f"10 points with Im in [0.2, 5]: worst rel {worst:.1e}"


# ----------------------------------------------------------- 6 equivalence
def _crit_equivalence():
    """Sequence-vs-function norm ratios stay within a uniform band."""
    res = atoms.equivalence_experiment(growth.power(2), 0.0, 0.1,
                                       trials=100, seed=11)
    for key in ("ratios_synth", "ratios_sample"):
        arr = np.asarray(res[key], dtype=float)
        _require(np.all(np.isfinite(arr)), f"{key}: non-finite ratio")
        _require(np.all(arr > 0.0), f"{key}: vanishing ratio")
        spread = float(arr.max() / arr.min())
        _require(spread <= 1e3, f"{key}: max/min {spread:.3g} above 1e3")
    s1 = res["summary"]["synth"]
    s2 = res["summary"]["sample"]
    return (f"100 trials: synthesis ratios in [{s1['min']:.3g}, "
            f"{s1['max']:.3g}], sampling ratios in [{s2['min']:.3g}, "
            f"{s2['max']:.3g}]")


# --------------------------------------------------------------- 7 berezin
def _crit_berezin():
    """Transform closed forms: flat weight and a unit point mass."""
    v = carleson.berezin(valpha_measure(0.0), HPoint(0.0, 1.0))
    rel = abs(v - math.pi / 4.0) / (math.pi / 4.0)
    _require(rel <= 1e-4, f"flat-weight transform rel {rel:.2e}")
    d = carleson.berezin(atomic_measure([(HPoint(0.0, 1.0), 1.0)]),
                         HPoint(0.0, 1.0))
    err = abs(d - 1.0 / 16.0)
    _require(err <= 1e-15, f"point-mass transform off by {err:.2e}")
    return (f"flat weight gives pi/4 to rel {rel:.1e}; point mass gives "
            f"1/16 to {err:.1e} (pure arithmetic)")


# ------------------------------------------------------------- 8 averaging
def _crit_averaging():
    """One fitted constant dominates the disk average by the transform."""
    s = 0.3
    cap = (2.0 + s) ** 4 / (math.pi * s * s)
    rng = np.random.default_rng(88)
    ratios = []
    pairs = []
    for _ in range(1000):
        zx = rng.uniform(-2.0, 2.0)
        zy = rng.uniform(0.3, 2.0)
        npts = rng.integers(3, 9)
        pts = [(HPoint(zx + rng.uniform(-1.5, 1.5),
                       max(rng.uniform(0.2, 2.5), 1e-3)),
                rng.uniform(0.1, 1.0)) for _ in range(npts)]
        mu = atomic_measure(pts)
        z = HPoint(zx, zy)
        avg = carleson.average(mu, z, s)
        if avg <= 0.0:
            continue
        ber = carleson.berezin(mu, z)
        ratios.append(avg / ber)
        pairs.append((avg, ber))
    _require(len(ratios) >= 200, f"only {len(ratios)} engaged pairs")
    c1 = float(np.max(ratios))
    _require(c1 <= cap, f"fitted constant {c1:.2f} above closed cap "
             f"{cap:.2f}")
    bad = sum(1 for avg, ber in pairs if avg > c1 * ber * (1.0 + 1e-12))
    _require(bad == 0, f"{bad} violations against the fitted constant")
    return (f"{len(ratios)} engaged pairs of 1000: fitted C1 {c1:.2f} "
            f"within closed cap {cap:.2f}, zero violations")


# ------------------------------------------------------------ 9 khintchine
def _crit_khintchine():
    """Sign-average middle quantity: quadratic exactness and stability."""
    keys = [(1, 2), (2, 1), (3, 4), (4, 3), (5, 6), (6, 5)]
    rng = np.random.default_rng(5)
    x = {k: complex(a, b)
         for k, (a, b) in zip(keys, rng.normal(size=(6, 2)))}
    l2 = math.sqrt(sum(abs(v) ** 2 for v in x.values()))
    rels = []
    for n in (512, 1024):
        m, _, _ = atoms.khintchine_check(
            x, growth.power(2), sampler=atoms.RademacherSampler(n))
        rel = abs(m - l2) / l2
        _require(rel <= 1e-3, f"quadratic middle rel {rel:.2e} at n={n}")
        rels.append(rel)
    consts = []
    for seed in range(5):
        r = np.random.default_rng(100 + seed)
        xx = {k: complex(a, b)
              for k, (a, b) in zip(keys, r.normal(size=(6, 2)))}
        ll = math.sqrt(sum(abs(v) ** 2 for v in xx.values()))
        m, lo, up = atoms.khintchine_check(
            xx, growth.power(4), sampler=atoms.RademacherSampler(512))
        _require(lo <= m <= up, f"sandwich broken at seed {seed}")
        consts.append(m / ll)
    consts = np.asarray(consts)
    dev = float(np.max(np.abs(consts - consts.mean())) / consts.mean())
    _require(dev <= 0.10, f"quartic constant wanders {dev:.1%} from mean")
    return (f"quadratic middle rel {max(rels):.1e} at n=512,1024; quartic "
            f"constants within {dev:.1%} of mean over 5 seeds")


# ------------------------------------------------------------- 10 carleson
def _spread_ratio(h, tau):
    """Embedding ratio of a sign-averaged kernel spread at height h.

    The family places one normalized kernel every h along the unit
    interval at height h.  Averaging over signs, both norms reduce to
    square-function integrals with closed forms: the target-side norm is
    sqrt(2)*h^(1/2+tau)*B(1+tau, 1/2-tau)*I_x(1+tau, 1/2-tau) at
    x = 1/(1+h) (regularized incomplete Beta), the source-side norm is
    sqrt(count).  The ratio scales like h^(1/2+tau), so its growth as h
    sweeps toward the boundary flips from bounded to unbounded at
    tau = -1/2 in the limit.
    """
    return (math.sqrt(2.0) * h ** (0.5 + tau)
            * math.exp(betaln(1.0 + tau, 0.5 - tau))
            * betainc(1.0 + tau, 0.5 - tau, 1.0 / (1.0 + h)))


def _crit_carleson():
    """Membership flip and empirical-ratio flip agree for y^tau weights."""
    T1, T2 = growth.power(1), growth.power(2)

    def emp_growth(tau):
        return _spread_ratio(1e-7, tau) / _spread_ratio(1.0, tau)

    lo, hi = -0.95, -0.15
    _require(emp_growth(lo) >= 10.0 and emp_growth(hi) < 10.0,
             "empirical growth bracket lost")
    for _ in range(9):
        mid = 0.5 * (lo + hi)
        if emp_growth(mid) >= 10.0:
            lo = mid
        else:
            hi = mid
    tau_emp = 0.5 * (lo + hi)

    def member(tau):
        mu = density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0),
                             alpha=tau)
        return carleson.berezin_membership(mu, T2, T1, stage_max=13,
                                           tol=1e-4)[0]

    lo, hi = -0.8, -0.2
    _require((not member(lo)) and member(hi), "membership bracket lost")
    for _ in range(5):
        mid = 0.5 * (lo + hi)
        if member(mid):
            hi = mid
        else:
            lo = mid
    tau_mem = 0.5 * (lo + hi)

    gap = abs(tau_emp - tau_mem)
    _require(gap <= 0.25, f"flip gap {gap:.3f} above 0.25 "
             f"(emp {tau_emp:.3f}, membership {tau_mem:.3f})")
    return (f"empirical flip at tau {tau_emp:.3f} (10x growth over 7 "
            f"decades), membership flip at tau {tau_mem:.3f}, gap "
            f"{gap:.3f} <= 0.25")


# ---------------------------------------------------------- 11 composition
def _cayley_preimage_disk(disk):
    """Exact preimage of a disk under z -> (z-1)/(z+1) via three points."""
    c = complex(disk.center.x, disk.center.y)
    r = disk.s * disk.center.y
    zs = [(w + 1.0) / (1.0 - w)
          for w in (c + r, c + 1j * r, c - r)]
    z1, z2, z3 = zs
    # circumcenter from two perpendicular bisectors
    d1, d2 = 1j * (z2 - z1), 1j * (z3 - z2)
    a1, a2 = 0.5 * (z1 + z2), 0.5 * (z2 + z3)
    t = np.imag(np.conj(d1) * (a1 - a2)) / np.imag(np.conj(d1) * d2)
    cc = a2 + t * d2
    rr = abs(z1 - cc)
    return Disk(HPoint(cc.real, cc.imag), rr / cc.imag)


def _crit_composition():
    """Substitution identity between a map and its pullback measure."""
    F = bergman.decay(1.0, 4)
    phi2 = growth.power(2)
    legs = []

    def lhs_plane(a, b, c, d, beta_w):
        def comp(z):
            z = np.asarray(z, complex)
            return F((a * z + b) / (c * z + d))
        return halfplane.integrate(
            lambda z: np.abs(comp(z)) ** 2, beta_w, None, tol=1e-8)

    for name, coeffs, beta_w in (("id", (1.0, 0.0, 0.0, 1.0), 0.0),
                                 ("2z", (2.0, 0.0, 0.0, 1.0), 0.0),
                                 ("z+1", (1.0, 1.0, 0.0, 1.0), 0.0),
                                 ("z+1", (1.0, 1.0, 0.0, 1.0), 0.5)):
        mu = carleson.pullback_mobius(*coeffs, beta_w)
        rhs = modular(F, mu, phi2, tol=1e-8)
        lhs = lhs_plane(*coeffs, beta_w)
        rel = abs(lhs - rhs) / rhs
        _require(rel <= 1e-4,
                 f"{name} at beta={beta_w}: substitution rel {rel:.2e}")
        legs.append(f"{name}@{beta_w:g}:{rel:.0e}")

    # the half-plane Cayley-type map (z-1)/(z+1): the composed function
    # tends to a nonzero constant at infinity, so whole-plane modulars
    # diverge for every weight; the identity is checked restricted to a
    # disk, whose Mobius preimage is again a disk (computed exactly)
    dw = Disk(HPoint(0.5, 1.0), 0.5)
    dz = _cayley_preimage_disk(dw)

    def comp(z):
        z = np.asarray(z, complex)
        return F((z - 1.0) / (z + 1.0))

    lhs = halfplane.integrate_disk(
        lambda z: np.abs(comp(z)) ** 2, 0.0, dz, tol=1e-9)
    dens = mobius_density(carleson.pullback_mobius(1.0, -1.0, 1.0, 1.0, 0.0))
    rhs = halfplane.integrate_disk(
        lambda w: np.abs(F(np.asarray(w, complex))) ** 2
        * dens(np.asarray(w, complex)), 0.0, dw, tol=1e-9)
    rel = abs(lhs - rhs) / rhs
    _require(rel <= 1e-4, f"cayley disk-restricted rel {rel:.2e}")
    legs.append(f"cayley-disk:{rel:.0e}")
    return "substitution identity rel " + " ".join(legs)


# ---------------------------------------------------------------- 12 growth
def _crit_growth():
    """Conjugate-pair inequality, pair admissibility, and type indices."""
    families = [growth.power(1.5), growth.power(3.0),
                growth.power(2.0, coef=0.7), growth.power_log(2.0, 1.0, 1.0),
                growth.custom(lambda t: t ** 2.5)]
    worst = 0.0
    for phi in families:
        violation, _ = growth.young_report(phi, n=100)
        worst = min(worst, violation)
    _require(worst >= -1e-9, f"conjugate inequality violated by {worst:.2e}")

    ps = np.linspace(0.5, 3.2, 10)
    for p in ps:
        for q in ps:
            holds, _, _ = growth.embedding_condition_check(
                growth.power(p), growth.power(q))
            _require(holds == (p > q),
                     f"admissibility verdict at p={p:.2f} q={q:.2f}")
    # numeric path (no power shortcut) on well-separated spot pairs
    for p, q in ((2.0, 1.0), (1.5, 2.5), (3.0, 1.2), (0.8, 1.6),
                 (2.2, 1.4), (1.0, 3.0)):
        holds, _, _ = growth.embedding_condition_check(
            growth.custom(lambda t, p=p: t ** p),
            growth.custom(lambda t, q=q: t ** q))
        _require(holds == (p > q),
                 f"numeric admissibility at p={p} q={q}")

    worst_idx = 0.0
    for p in (1.5, 2.0, 3.0, 4.7):
        lo_i, hi_i = growth.indices(growth.power(p))
        worst_idx = max(worst_idx, abs(lo_i - p), abs(hi_i - p))
    _require(worst_idx <= 1e-9, f"type indices off by {worst_idx:.2e}")
    return (f"conjugate inequality slack {abs(worst):.1e}; 100 power "
            f"pairs + 6 numeric pairs classified correctly; indices off "
            f"by {worst_idx:.1e}")


_CRITERIA = (
    ("beta", _crit_beta),
    ("decay", _crit_decay),
    ("luxnorm", _crit_luxnorm),
    ("lattice", _crit_lattice),
    ("reproduce", _crit_reproduce),
    ("equivalence", _crit_equivalence),
    ("berezin", _crit_berezin),
    ("averaging", _crit_averaging),
    ("khintchine", _crit_khintchine),
    ("carleson", _crit_carleson),
    ("composition", _crit_composition),
    ("growth", _crit_growth),
)

SUITE_NAMES = tuple(name for name, _ in _CRITERIA)


def run(suites=None):
    """Execute the acceptance criteria and collect their results.

    Parameters
    ----------
    suites : iterable of str, optional
        Criterion names to run; None runs all twelve in order.

    Returns
    -------
    list of CriterionResult

    Raises
    ------
    ParameterError
        If a requested suite name is unknown.
    """
    if suites is not None:
        wanted = list(suites)
        unknown = sorted(set(wanted) - set(SUITE_NAMES))
        if unknown:
            raise ParameterError(
                f"unknown suite(s) {', '.join(unknown)}; valid names: "
                + ", ".join(SUITE_NAMES))
        selected = [(n, f) for n, f in _CRITERIA if n in wanted]
    else:
        selected = list(_CRITERIA)

    results = []
    for name, fn in selected:
        start = time.perf_counter()
        try:
            detail = fn()
            passed = True
        except _Failure as exc:
            detail, passed = str(exc), False
        except Exception as exc:  # honest report; keep the suite going
            detail, passed = f"{type(exc).__name__}: {exc}", False
        results.append(CriterionResult(
            name=name, passed=passed, detail=detail,
            elapsed=time.perf_counter() - start))
    return results
