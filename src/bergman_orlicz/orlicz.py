"""Modulars and Luxembourg norms over half-plane measures.

A measure is atoms or a density: finitely many point masses, or a weight
times y**alpha over a region.  The pullback of a power weight under a
Mobius map fixing the half-plane is a density too, with its closed
weight over the whole plane.  The
modular of a field f is the integral of Phi(|f|) against the measure;
the Luxembourg norm is the infimum of scales lambda with
modular(f/lambda) <= 1, located here by safeguarded Illinois steps on the
decreasing map lambda -> modular(f/lambda) (`_lux_root`).  Power-family
growth functions take the closed p-norm route instead.

A density modular is an adaptive cubature over the support's chart.  The
passes of one solve share |f| and the weight on every panel evaluated so
far, stored as blocks of panel rows; a pass maps every stored block
through Phi, the mask and the clip at its lambda in one vectorised step,
re-sums the panels row-wise, and evaluates only what no earlier pass did,
a batch of panels at a time (`_ModularEngine`).

Sequence-space analogues live on lattice index sets with the lattice's
row weights 2**(j*gamma*(alpha+2)).  A sequence is a measure too (row
weights on lattice points), so both norms share one solve and any
growth function works on each.
"""

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import quadrature as Q
from .errors import (AccuracyError, BergmanOrliczError, DivergenceError,
                     NotInSpaceError, ParameterError, need, number)
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
    w(z) = (dz-b)/(-cz+a), as a callable of z.

    For a triangular map (c = 0) with beta = 0 the denominator -cz + a is
    (a, +0.0) at every z in the half-plane, so the density is one number,
    |w'|**2 computed once by the same operations on a one-element array.
    """
    a, b, c, d = mu.mobius
    det = a * d - b * c
    beta = mu.beta

    def jac(den):
        return np.abs(det / den ** 2) ** 2

    if c == 0.0 and beta == 0.0:
        scale = jac(np.array([complex(a, 0.0)]))[0]
        return lambda z: np.full(np.shape(z), scale)

    def h(z):
        den = -c * z + a
        return np.imag((d * z - b) / den) ** beta * jac(den)

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


def _pack(absf, w):
    """|f| and the weight at the same nodes as one complex array, |f| the
    real part and the weight the imaginary part, both exact."""
    out = np.empty(np.broadcast_shapes(np.shape(absf), np.shape(w)), complex)
    out.real = absf
    out.imag = w
    return out


def _phi_step(phi, lam):
    """Rows of packed |f| + i w to min(Phi(|f|/lam) * w, VALUE_CLIP): the
    map of one modular pass, as a `quadrature.MappedField` takes it."""

    def g(rects, rows):
        # clip the integrand, not Phi alone: y^alpha with alpha < 0 lifts a
        # clipped Phi past the float range near y = 0.  Where the weight is
        # 0 so is the integrand, even where Phi overflowed to inf.
        v = phi((rows.real / lam).ravel())
        w = rows.imag.ravel()
        if not w.all():
            v = np.where(w == 0, 0.0, v)
        return np.minimum(v * w, VALUE_CLIP).reshape(rows.shape)

    return g


class _ModularEngine:
    """Evaluates (lambda, tol) -> modular(f/lambda) for one (f, measure) pair.

    An atomic measure is a discrete sum over its atoms.  A density keeps
    one `Field2D` on the support's chart whose node values pack |f| and
    the weight (`_pack`); it stores the values of every quadrature panel it
    evaluates as rows of append-only blocks (see `quadrature`).  Each
    modular pass maps that store through `_phi_step` at its lambda, a
    fresh `quadrature.MappedField` (times the polar factor R for a Disk);
    its first integrated panel maps the stored blocks and row-sums them
    into a table of every known panel's (value, abs_value, err) and split
    axis.  The pass's adaptive walk reads known panels from that table and
    evaluates the others in batches: the two halves of a split, and the
    first panels of the next `quadrature.STRIP_LOOKAHEAD` graded strips,
    which answer every strip that needs no split.  A batch is one call of
    f and the weight and one Phi call.  So a root-finding probe after the
    first costs one vectorised step per block of `quadrature.BLOCK_PANELS`
    panels plus one per batch of panels no earlier pass evaluated, with
    every result bit for bit the panel-by-panel one.

    The tolerance comes with each pass, so one store serves passes at
    several tolerances.  Worst-first refinement splits a box's panels, and
    a graded chain runs its strips (each 1/8 as high as the one above), in
    the same order at any tolerance, so a pass at a finer one over the
    same integrand evaluates only the panels the coarser passes did not
    reach.  A panel is split across the axis its mapped values vary in,
    so passes at two lambdas split it alike under a power Phi, whose
    values at one are a multiple of those at the other (up to rounding
    near a tie), and may split it apart under another Phi.  A chain, and
    the whole plane's shells, end once their pieces decay at a steady
    ratio (`quadrature._sum_tail`), so a pass reaches a few strips below
    those that hold its mass.  `norm` and `modular` are `luxembourg` and
    `modular` on this store.
    """

    def __init__(self, f, mu):
        self.mu = mu
        if mu.atoms:
            pts = np.array([p.z for p, _ in mu.atoms])
            self.fvals = _finite_abs(np.asarray(f(pts), dtype=complex))
            self.masses = np.array([m for _, m in mu.atoms])
            return
        wfun, alpha = mu.weight, mu.alpha_base

        def packed(x, y):
            z = x + 1j * y
            w = y ** alpha if alpha != 0.0 else np.ones_like(y)
            if wfun is not None:
                w = w * wfun(z)
            return _pack(_finite_abs(f(z)), w)

        self.field = _chart_field(packed, mu.support)

    def modular_at(self, phi, lam, tol):
        if self.mu.atoms:
            return _discrete_modular(self.fvals, self.masses, phi, lam)
        mapped = Q.MappedField(self.field, _phi_step(phi, lam))
        return float(_integrate_region(mapped, self.mu.support, tol))

    def norm(self, phi, tol):
        """The Luxembourg norm of f, as a `LuxResult`."""
        return _solve(lambda psi, lam: self.modular_at(psi, lam, tol), phi,
                      lambda: self.start(phi))

    def modular(self, phi, tol):
        """The modular of f; AccuracyError where it diverges."""
        try:
            return self.modular_at(phi, 1.0, tol)
        except DivergenceError as e:
            raise AccuracyError(
                f"modular diverges under automatic truncation ({e})") from e

    def start(self, phi):
        """Root-finding seed typ / Phi^-1(1/mass) from the support's V_alpha
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
            typ = float(_seed_values(self.field, s).real.max())
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
    return _ModularEngine(f, mu).modular(phi, tol)


def _log_or_nan(m):
    """log m for a finite positive modular, else NaN: an end whose
    modular is 0, infinite or NaN gives no secant, so the step bisects."""
    return math.log(m) if 0.0 < m < np.inf else np.nan


def _check_decrease(m_lo, m_hi):
    """Raise unless the modular at a scale is at least the modular at
    twice that scale, up to float slack; an infinite one is no evidence."""
    if (np.isfinite(m_lo) and np.isfinite(m_hi)
            and m_lo < m_hi - 1e-9 * (1.0 + abs(m_lo))):
        raise BergmanOrliczError(
            "modular failed to decrease in lambda during bracketing")


def _lux_root(modular_fn, lam0):
    """Locate inf{lam : modular_fn(lam) <= 1} for decreasing modular_fn.

    A probe whose integral diverges counts as an infinite modular, i.e. a
    scale that is too small.  Doubling or halving from lam0 brackets the
    root with m(lo) > 1 >= m(hi) and hi = 2 lo; each pair of neighbouring
    probes must decrease.  The bracket then shrinks by Illinois regula
    falsi on (log lam, log m), where the modular of a growth function of
    power type is nearly a straight line: the secant of the two ends,
    with the log modular of an end kept twice in a row halved (Dowell and
    Jarratt 1971).  A step bisects instead when an end's modular is 0 or
    infinite, when the secant point is not strictly inside the bracket, or
    after two secant steps in a row that failed to halve it.  A probe
    within MODULAR_TARGET_TOL of 1 is returned; otherwise the search ends
    when the bracket is BRACKET_FLOOR * hi wide and returns hi.

    A vanishing input, whose modular stays at most 1 down to VANISH_LAMBDA,
    has norm 0 with the bracket (0, VANISH_LAMBDA).  Only halving can meet
    one: once the first halving still reads at most 1, one probe at
    VANISH_LAMBDA decides it.  Doubling never probes there, as a modular
    above 1 at a finite scale rules it out.
    """

    def mod(lam):
        try:
            return modular_fn(lam)
        except DivergenceError:
            return np.inf

    lam = max(lam0, VANISH_LAMBDA * 1e10)
    m = mod(lam)
    iters = 1
    lo = None
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
        # doubling is exact, so this probe is the lower end if the next
        # one is at most 1
        lo, m_lo = lam, m
        lam *= 2.0
        m = mod(lam)
        iters += 1
        _check_decrease(m_lo, m)
    hi, m_hi = lam, m
    if lo is None:  # the first probe was at most 1: halve down to the root
        lo = hi / 2.0
        m_lo = mod(lo)
        iters += 1
        _check_decrease(m_lo, m_hi)
        if m_lo <= 1.0:
            # vanishing input: even an absurdly small scale keeps the
            # modular small
            m_tiny = mod(VANISH_LAMBDA)
            iters += 1
            if m_tiny <= 1.0:
                return LuxResult(0.0, m_tiny, iters, (0.0, VANISH_LAMBDA))
        while m_lo <= 1.0:
            hi, m_hi = lo, m_lo
            lo /= 2.0
            if lo < VANISH_LAMBDA:
                return LuxResult(0.0, m_hi, iters, (0.0, hi))
            m_lo = mod(lo)
            iters += 1
            _check_decrease(m_lo, m_hi)

    g_lo, g_hi = _log_or_nan(m_lo), _log_or_nan(m_hi)
    kept = None  # the end the last step kept
    slow = 0     # secant steps in a row that failed to halve the bracket
    while hi - lo > BRACKET_FLOOR * hi:
        width = hi - lo
        secant = False
        if slow < 2 and g_lo > g_hi:
            mid = lo * (hi / lo) ** (g_lo / (g_lo - g_hi))
            secant = lo < mid < hi
        if not secant:
            mid, slow = 0.5 * (lo + hi), 0
        m_mid = mod(mid)
        iters += 1
        if abs(m_mid - 1.0) <= MODULAR_TARGET_TOL:
            return LuxResult(mid, m_mid, iters, (lo, hi))
        if m_mid > 1.0:
            lo, m_lo, g_lo = mid, m_mid, _log_or_nan(m_mid)
            if kept == "hi":
                g_hi *= 0.5
            kept = "hi"
        else:
            hi, m_hi, g_hi = mid, m_mid, _log_or_nan(m_mid)
            if kept == "lo":
                g_lo *= 0.5
            kept = "lo"
        if secant:
            slow = slow + 1 if hi - lo > 0.5 * width else 0
    return LuxResult(hi, m_hi, iters, (lo, hi))


def _solve(modular_at, phi, start):
    """Luxembourg norm from lam -> modular_at(phi, lam), the modular of f/lam.

    Power growth functions use the exact p-norm identity: one pass at
    growth t**p, whose divergence means f is not in the space, plus one
    at the value for the reported modular.  Everything else is root-found
    by `_lux_root` from the scale that the thunk `start` returns.
    """
    if phi.family != "power":
        return _lux_root(lambda lam: modular_at(phi, lam), start())
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
    else is root-found on the modular (`_lux_root`).  The result's modular
    sits within 1e-8 of 1 whenever the value is positive and the modular
    is continuous at it.

    Returns
    -------
    LuxResult
    """
    return _ModularEngine(f, mu).norm(phi, tol)


def _seq_arrays(seq, alpha):
    """Magnitudes and row weights in the lattice's (j, l) order."""
    items = seq.items_sorted()
    mags = np.array([abs(v) for _, v in items])
    return mags, row_weights([k[1] for k, _ in items], seq.lattice.gamma, alpha)


def seq_luxembourg(seq, phi, alpha):
    """Luxembourg norm on the weighted sequence space over the lattice.

    Returns
    -------
    LuxResult
    """
    if not seq.entries:
        return LuxResult(0.0, 0.0, 0, (0.0, 0.0))
    return _discrete_luxembourg(*_seq_arrays(seq, alpha), phi)


def _discrete_luxembourg(mags, weights, phi):
    """Luxembourg norm of the magnitudes `mags` against the point masses
    `weights`, solved from the largest magnitude: a lattice sequence's
    norm, and the value of `carleson.berezin_membership`."""
    return _solve(
        lambda psi, lam: _discrete_modular(mags, weights, psi, lam), phi,
        lambda: max(float(np.max(mags)), 1e-30))


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
        rows = obj["atomic"]
        if not isinstance(rows, list):
            raise ParameterError(
                f"atomic measure needs a list of rows: {obj!r}")
        what = "atomic row [x, y, mass]"
        rows = [need(rows, i, what, 3) for i in range(len(rows))]
        return atomic_measure(
            [(HPoint(x, y), m) for x, y, m in
             ((number(row, k, what) for k in range(3)) for row in rows)])
    if "density" in obj:
        d = obj["density"]
        if d.get("kind", "valpha") != "valpha":
            raise ParameterError(f"unknown density kind {d.get('kind')!r}")
        support = region_from_json(d.get("support", "auto"))
        return valpha_measure(number(d, "alpha", "density", 0.0), support)
    if "mobius" in obj:
        m = obj["mobius"]
        return mobius_measure(*(number(m, k, "mobius") for k in "abcd"),
                              number(m, "beta", "mobius", 0.0))
    raise ParameterError(f"unknown measure variant {list(obj)[0]!r}")

