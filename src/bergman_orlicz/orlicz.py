"""Modulars and Luxembourg norms over half-plane measures.

A measure is atoms or a density: finitely many point masses, or a weight
times y**alpha over a region.  The pullback of a power weight under a
Mobius map fixing the half-plane is a density too, with its closed
weight over the whole plane.  The
modular of a field f is the integral of Phi(|f|) against the measure;
the Luxembourg norm is the infimum of scales lambda with
modular(f/lambda) <= 1, located here by bisection on the strictly
decreasing map lambda -> modular(f/lambda).  Power-family growth
functions take the closed p-norm route instead.

A density modular is an adaptive cubature over the support's chart.  The
passes of one solve share |f| and the weight on every panel evaluated so
far, stored as blocks of panel rows; a pass maps every stored block
through Phi, the mask and the clip at its lambda in one vectorised step,
re-sums the panels row-wise, and evaluates only what no earlier pass did,
a batch of panels at a time (`_ModularEngine`).

Sequence-space analogues live on lattice index sets with the lattice's
row weights 2**(j*gamma*(alpha+2)); the Hardy variant takes
per-horizontal-line norms and their supremum.  Sequences and lines are measures too (row
weights on lattice points, Lebesgue measure on a line), so all three
norms share one solve and any growth function works on each.
"""

from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature as Q
from .errors import (AccuracyError, BergmanOrliczError, DivergenceError,
                     NotInSpaceError, ParameterError)
from .growth import inverse as _phi_inverse, power as _power
from .halfplane import HPoint, _chart_field, _integrate_region, _seed_values
from .lattice import DeltaLattice, row_major, row_weights

VANISH_LAMBDA = 1e-300
MODULAR_TARGET_TOL = 1e-8
BRACKET_FLOOR = 1e-12
PROBE_CAP = 1100
DIVERGENT_PROBE_CAP = 24
VALUE_CLIP = 1e300


@dataclass(frozen=True)
class MeasureSpec:
    """One positive measure on the upper half-plane: atoms or a density.

    With `atoms` it is their sum; otherwise it is `weight` (None for 1)
    times y**alpha_base on `support` (None for the whole plane).  A Mobius
    pullback is such a density with its closed weight; its `mobius` and
    `beta` serve the closed transform of a triangular map and the wire
    format.  Build one with `atomic_measure`, `valpha_measure`,
    `density_measure` or `mobius_measure`.
    """

    atoms: tuple = ()
    weight: object = None
    support: object = None
    alpha_base: float = 0.0
    mobius: tuple = ()
    beta: float = 0.0


def atomic_measure(points_masses):
    """Finite sum of point masses.

    Parameters
    ----------
    points_masses : iterable of (HPoint, float)
        Locations and strictly positive masses.
    """
    atoms = []
    for p, m in points_masses:
        if not isinstance(p, HPoint):
            p = HPoint(p.real, p.imag) if isinstance(p, complex) else HPoint(*p)
        m = float(m)
        if not m > 0 or not np.isfinite(m):
            raise ParameterError(f"atom mass must be positive finite, got {m}")
        atoms.append((p, m))
    if not atoms:
        raise ParameterError("atomic measure needs at least one atom")
    return MeasureSpec(atoms=tuple(atoms))


def valpha_measure(alpha=0.0, support=None):
    """The weight y**alpha over a region (default: whole half-plane)."""
    if alpha <= -1.0:
        raise ParameterError(f"alpha must be > -1, got {alpha}")
    return MeasureSpec(support=support, alpha_base=float(alpha))


def density_measure(weight, support=None, alpha=0.0):
    """A custom nonnegative weight times y**alpha over a region."""
    return MeasureSpec(weight=weight, support=support, alpha_base=float(alpha))


def mobius_measure(a, b, c, d, beta):
    """Pullback of the y**beta weight under z -> (az+b)/(cz+d).

    The measure of a set E is the y**beta volume of its preimage: the
    density with the closed weight `mobius_density` over the whole plane.
    """
    a, b, c, d = (float(v) for v in (a, b, c, d))
    if a * d - b * c <= 0:
        raise ParameterError(f"need ad - bc > 0, got {a * d - b * c}")
    if beta <= -1.0:
        raise ParameterError(f"beta must be > -1, got {beta}")
    mu = MeasureSpec(mobius=(a, b, c, d), beta=float(beta))
    return replace(mu, weight=mobius_density(mu))


def mobius_density(mu):
    """The closed density (Im w)**beta * |w'|**2 of a pullback measure, with
    w(z) = (dz-b)/(-cz+a), as a callable of z."""
    a, b, c, d = mu.mobius
    det = a * d - b * c
    beta = mu.beta

    def h(z):
        w = (d * z - b) / (-c * z + a)
        dw = det / (-c * z + a) ** 2
        return np.imag(w) ** beta * np.abs(dw) ** 2

    return h


@dataclass(frozen=True)
class LatticeSequence:
    """Finitely supported coefficients on a lattice index window."""

    entries: dict = field(repr=False)
    lattice: DeltaLattice

    def __post_init__(self):
        if not isinstance(self.lattice, DeltaLattice):
            raise ParameterError(
                f"a lattice sequence needs a DeltaLattice, got {self.lattice!r}")
        for k in self.entries:
            self.lattice.check_index(k)

    def items_sorted(self):
        """Entries in the lattice's (j, l) order."""
        return [(k, self.entries[k]) for k in row_major(self.entries)]


def _random_sequence(lat, rng, min_size, max_size):
    """A LatticeSequence of rng.integers(min_size, max_size + 1) draws, each
    an index in the window and a complex normal coefficient, in that rng
    order (a repeated index keeps its last coefficient)."""
    l_max, j_max = lat.window
    entries = {}
    for _ in range(int(rng.integers(min_size, max_size + 1))):
        k = (int(rng.integers(-l_max, l_max + 1)),
             int(rng.integers(-j_max, j_max + 1)))
        entries[k] = complex(rng.normal(), rng.normal())
    return LatticeSequence(entries, lat)


@dataclass(frozen=True)
class LuxResult:
    """Outcome of a Luxembourg-norm computation."""

    value: float
    modular_at_value: float
    iterations: int
    bracket: tuple


class _ComboField(Q.PanelField):
    """Panel values Phi(|f|/lambda) * weight, both factors cached.

    |f| and the weight are two `Field2D`s that only this field asks for
    RULE panels, always both on the same rects, so they store their panels
    in one order (a Disk's bisection seed asks |f| alone for the first
    panel of the first pass, which keeps the order).  `batch` computes the
    rects' nodes once for both fields and `blocks()` maps each pair of
    their blocks, both with the same elementwise steps; a pair of blocks
    that holds different rects is left to `batch`.
    """

    def __init__(self, absf, wt, phi, lam):
        self._absf = absf
        self._wt = wt
        self._phi = phi
        self._lam = lam

    def batch(self, rects):
        nodes = Q._batch_nodes(rects)
        return self._combine(self._absf.batch(rects, nodes),
                             self._wt.batch(rects, nodes))

    def blocks(self):
        for (rects, a), (w_rects, w) in zip(self._absf.blocks(),
                                            self._wt.blocks()):
            if rects == w_rects:
                yield rects, self._combine(a, w)

    def _combine(self, a, w):
        # clip the integrand, not Phi alone: y^alpha with alpha < 0 lifts a
        # clipped Phi past the float range near y = 0.  Where the weight is
        # 0 so is the integrand, even where Phi overflowed to inf.
        v = self._phi(a.ravel() / self._lam)
        w = w.ravel()
        if not w.all():
            v = np.where(w == 0, 0.0, v)
        return np.minimum(v * w, VALUE_CLIP).reshape(a.shape)


class _ModularEngine:
    """Evaluates lambda -> modular(f/lambda) for one (f, measure) pair.

    An atomic measure is a discrete sum over its atoms.  A density keeps
    |f| and the weight as two `Field2D`s on the support's chart, which
    store the node values of every quadrature panel they evaluate as rows
    of append-only blocks (see `quadrature`).  Each modular pass builds a
    fresh `_ComboField` at its lambda; its first integrated panel maps the
    stored blocks through Phi, the zero-weight mask, the clip and (for a
    Disk) the polar factor R, and row-sums them into a table of every
    known panel's (value, abs_value, err).  The pass's adaptive walk reads
    known panels from that table and evaluates the others in batches: the
    two halves of a split, and the first panels of the next
    `quadrature.STRIP_LOOKAHEAD` graded strips.  A batch is one call of f
    and one of the weight, on nodes computed once for both, and one Phi
    call.  So a bisection step after the first costs one vectorised step
    per block of `quadrature.BLOCK_PANELS` panels plus one per batch of
    panels no earlier pass evaluated, with every result bit for bit the
    panel-by-panel one.
    """

    def __init__(self, f, mu, tol):
        self.mu = mu
        self.tol = tol
        if mu.atoms:
            pts = np.array([p.z for p, _ in mu.atoms])
            self.fvals = _finite_abs(np.asarray(f(pts), dtype=complex))
            self.masses = np.array([m for _, m in mu.atoms])
            return
        support, wfun, alpha = mu.support, mu.weight, mu.alpha_base

        def wt(x, y):
            w = y ** alpha if alpha != 0.0 else np.ones_like(y)
            if wfun is not None:
                w = w * wfun(x + 1j * y)
            return w

        self.absf = _chart_field(lambda x, y: _finite_abs(f(x + 1j * y)),
                                 support)
        self.wt = _chart_field(wt, support)

    def modular_at(self, phi, lam):
        if self.mu.atoms:
            return _discrete_modular(self.fvals, self.masses, phi, lam)
        combo = _ComboField(self.absf, self.wt, phi, lam)
        return float(_integrate_region(combo, self.mu.support, self.tol))

    def start(self, phi):
        """Bisection seed typ / Phi^-1(1/mass) from the support's V_alpha
        mass (1.0 for the whole plane) and a typical value of |f|, its max
        on the support's seed panel (`halfplane._seed_values`); 1.0 when
        either estimate fails."""
        mu = self.mu
        if mu.atoms:
            mass = float(np.sum(self.masses))
            typ = float(np.max(self.fvals, initial=0.0))
        else:
            s = mu.support
            mass = 1.0 if s is None else s.mass(mu.alpha_base)
            typ = float(_seed_values(self.absf, s).max())
        if mass > 0 and typ > 0:
            try:
                y = _phi_inverse(phi, 1.0 / mass)
                if np.isfinite(y) and y > 0:
                    return typ / y
            except (BergmanOrliczError, OverflowError, ZeroDivisionError):
                pass
        return 1.0


def _finite_abs(values):
    """|values|, raising AccuracyError where one is not finite: a pole on a
    node would otherwise clip and cancel to a silent near-zero modular."""
    mags = np.abs(values)
    if not np.isfinite(mags).all():
        raise AccuracyError("field is not finite at a quadrature node or atom")
    return mags


def _discrete_modular(mags, weights, phi, lam):
    """sum(weights * min(Phi(mags / lam), VALUE_CLIP)): the modular of an
    atomic measure or a weighted lattice sequence."""
    with np.errstate(over="ignore", invalid="ignore"):
        vals = phi(mags / lam)
    return float(np.sum(weights * np.minimum(vals, VALUE_CLIP)))


def modular(f, mu, phi, tol=1e-8):
    """Integral of Phi(|f|) against the measure.

    Parameters
    ----------
    f : callable
        Field of one complex argument, vectorized.
    mu : MeasureSpec
    phi : GrowthFunction
    tol : float
        Relative integration tolerance (ignored for atomic measures,
        which are exact sums).

    Returns
    -------
    float
    """
    engine = _ModularEngine(f, mu, tol)
    try:
        return engine.modular_at(phi, 1.0)
    except DivergenceError as e:
        raise AccuracyError(
            f"modular diverges under automatic truncation ({e})") from e


def _lux_bisect(modular_fn, lam0):
    """Locate inf{lam : modular_fn(lam) <= 1} for decreasing modular_fn.

    A probe whose integral diverges counts as an infinite modular, i.e. a
    scale that is too small.
    """

    def mod(lam):
        try:
            return modular_fn(lam)
        except DivergenceError:
            return np.inf

    iters = 0
    # vanishing input: even an absurdly small scale keeps the modular small
    m_tiny = mod(VANISH_LAMBDA)
    iters += 1
    if m_tiny <= 1.0:
        return LuxResult(0.0, m_tiny, iters, (0.0, VANISH_LAMBDA))

    lam = max(lam0, VANISH_LAMBDA * 1e10)
    m = mod(lam)
    iters += 1
    divergent_run = 1 if np.isinf(m) else 0
    while m > 1.0:
        if np.isinf(m):
            divergent_run += 1
            if divergent_run > DIVERGENT_PROBE_CAP:
                raise NotInSpaceError(
                    "modular divergent for all probed scales")
        else:
            divergent_run = 0
        if iters > PROBE_CAP:
            raise NotInSpaceError(
                "modular stayed above 1 for all probed scales")
        lam *= 2.0
        m = mod(lam)
        iters += 1
    hi, m_hi = lam, m
    lo = hi / 2.0
    m_lo = mod(lo)
    iters += 1
    while m_lo <= 1.0:
        hi, m_hi = lo, m_lo
        lo /= 2.0
        if lo < VANISH_LAMBDA:
            return LuxResult(0.0, m_hi, iters, (0.0, hi))
        m_lo = mod(lo)
        iters += 1

    if np.isfinite(m_lo) and m_lo < m_hi - 1e-9 * (1.0 + abs(m_lo)):
        raise BergmanOrliczError(
            "modular failed to decrease in lambda during bracketing")

    value, m_val = hi, m_hi
    while hi - lo > BRACKET_FLOOR * hi:
        mid = 0.5 * (lo + hi)
        m_mid = mod(mid)
        iters += 1
        if abs(m_mid - 1.0) <= MODULAR_TARGET_TOL:
            return LuxResult(mid, m_mid, iters, (lo, hi))
        if m_mid > 1.0:
            lo = mid
        else:
            hi, value, m_val = mid, mid, m_mid
    return LuxResult(value, m_val, iters, (lo, hi))


def _solve(modular_at, phi, start):
    """Luxembourg norm from lam -> modular_at(phi, lam), the modular of f/lam.

    Power growth functions use the exact p-norm identity: one pass at
    growth t**p, whose divergence means f is not in the space, plus one
    at the value for the reported modular.  Everything else is bisection
    from the scale that the thunk `start` returns.
    """
    if phi.family != "power":
        return _lux_bisect(lambda lam: modular_at(phi, lam), start())
    p, coef = phi.params["p"], phi.params["coef"]
    try:
        s = modular_at(_power(p), 1.0)
    except DivergenceError as e:
        raise NotInSpaceError(f"p-th power integral diverges ({e})") from e
    if s == 0.0:
        return LuxResult(0.0, 0.0, 0, (0.0, 0.0))
    value = (coef * s) ** (1.0 / p)
    return LuxResult(float(value), float(modular_at(phi, value)), 0,
                     (value, value))


def luxembourg(f, mu, phi, tol=1e-8):
    """Luxembourg norm of f in the Orlicz space of the measure.

    Power growth functions use the exact p-norm identity; everything
    else is bisection on the modular.  The result's modular sits within
    1e-8 of 1 whenever the value is positive and the modular is
    continuous at it.

    Returns
    -------
    LuxResult
    """
    engine = _ModularEngine(f, mu, tol)
    return _solve(engine.modular_at, phi, lambda: engine.start(phi))


def _seq_arrays(seq, alpha):
    """Magnitudes and row weights in the lattice's (j, l) order."""
    items = seq.items_sorted()
    mags = np.array([abs(v) for _, v in items])
    return mags, row_weights([k[1] for k, _ in items], seq.lattice.gamma, alpha)


def seq_modular(seq, phi, alpha, lam=1.0):
    """Row-weighted modular of a lattice sequence."""
    if not seq.entries:
        return 0.0
    return _discrete_modular(*_seq_arrays(seq, alpha), phi, lam)


def seq_luxembourg(seq, phi, alpha):
    """Luxembourg norm on the weighted sequence space over the lattice.

    Returns
    -------
    LuxResult
    """
    if not seq.entries:
        return LuxResult(0.0, 0.0, 0, (0.0, 0.0))
    mags, weights = _seq_arrays(seq, alpha)
    return _solve(
        lambda psi, lam: _discrete_modular(mags, weights, psi, lam), phi,
        lambda: max(float(np.max(mags)), 1e-30))


def hardy_norm(F, phi, y_grid=None, tol=1e-8):
    """Sup over horizontal lines of the 1-D Luxembourg norms of F.

    Each line norm goes through the same solve as `luxembourg`, with
    Lebesgue measure on the line, so any growth function works: power
    growth takes the p-norm identity (and one more line integral for the
    modular at the value), anything else bisects from scale 1.

    Parameters
    ----------
    F : callable
        Analytic function of z, vectorized.
    phi : GrowthFunction
    y_grid : sequence of float, optional
        Heights to scan; default 16 points log-spaced over [1e-4, 10].
        The per-line norm is nonincreasing in the height, so the sup
        over (0, inf) is approached at the small end of the grid.

    Returns
    -------
    (float, list of (y, norm))
    """
    if y_grid is None:
        y_grid = np.logspace(-4, 1, 16)
    ys = sorted(float(y) for y in y_grid)
    if not ys or not all(0 < y < np.inf for y in ys):
        raise ParameterError(f"y_grid must hold positive finite heights: {ys}")

    per_line = []
    for y in ys:
        # one unit weight per line, so that it stores the line's panels in
        # the order |F| does (see `_ComboField`)
        absf = Q.Field2D(lambda x: _finite_abs(F(x + 1j * y)))
        unit = Q.Field2D(np.ones_like)

        def line_modular(psi, lam):
            combo = _ComboField(absf, unit, psi, lam)
            return float(Q.integrate_1d_line(combo, tol=tol)[0])

        try:
            per_line.append((y, _solve(line_modular, phi, lambda: 1.0).value))
        except (DivergenceError, NotInSpaceError) as e:
            raise NotInSpaceError(
                f"line norm at y={y:.6g} diverges ({e})") from e
    return max(v for _, v in per_line), per_line


def measure_from_json(obj):
    """Parse the measure wire format.

    Accepts {"atomic": [[x, y, mass], ...]},
    {"density": {"kind": "valpha", "alpha": A, "support": region}},
    {"mobius": {"a":, "b":, "c":, "d":, "beta":}}.
    """
    from .halfplane import region_from_json
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParameterError(f"malformed measure spec: {obj!r}")
    if "atomic" in obj:
        return atomic_measure(
            [(HPoint(row[0], row[1]), row[2]) for row in obj["atomic"]])
    if "density" in obj:
        d = obj["density"]
        if d.get("kind", "valpha") != "valpha":
            raise ParameterError(f"unknown density kind {d.get('kind')!r}")
        support = region_from_json(d.get("support", "auto"))
        return valpha_measure(float(d.get("alpha", 0.0)), support)
    if "mobius" in obj:
        m = obj["mobius"]
        return mobius_measure(m["a"], m["b"], m["c"], m["d"],
                              m.get("beta", 0.0))
    raise ParameterError(f"unknown measure variant {list(obj)[0]!r}")


def measure_to_json(mu):
    """Inverse of `measure_from_json`."""
    from .halfplane import region_to_json
    if mu.atoms:
        return {"atomic": [[p.x, p.y, m] for p, m in mu.atoms]}
    if mu.mobius:
        a, b, c, d = mu.mobius
        return {"mobius": {"a": a, "b": b, "c": c, "d": d, "beta": mu.beta}}
    if mu.weight is not None:
        raise ParameterError("custom density weights have no wire format")
    return {"density": {"kind": "valpha", "alpha": mu.alpha_base,
                        "support": region_to_json(mu.support)}}
