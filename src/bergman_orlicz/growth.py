"""Growth functions and their calculus.

A growth function is a nondecreasing Phi: [0, inf) -> [0, inf] with
Phi(0) = 0, Phi > 0 on (0, inf) and Phi(inf) = inf. The module provides the
standard families (powers, power-log perturbations), Young conjugation,
composition through an inverse, power transforms, dilation indices, and the
regularity report (upper/lower type, doubling, the Dini-type integral test).

Every function evaluates elementwise on numpy arrays. All constructed values
are immutable; numeric root-finding is deterministic bisection with a fixed
iteration count, so results are reproducible bit-for-bit.
"""

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .errors import (DivergenceError, OverflowBracketError, ParameterError,
                     need, number)
from .quadrature import _FnField, _strip_chain, _sum_tail

GRID_POINTS = 400
GRID_LO = 1e-8
GRID_HI = 1e8
INDEX_CAP = 1e6
TYPE_CONSTANT_CAP = 1e8
BISECT_ITERS = 90
MAX_DOUBLINGS = 1000

_default_grid = np.logspace(math.log10(GRID_LO), math.log10(GRID_HI), GRID_POINTS)


def _as_array(t):
    arr = np.asarray(t, dtype=float)
    return arr, arr.ndim == 0


def _bisect_increasing(g, y, lo, hi, iters=BISECT_ITERS):
    """Geometric bisection for g(t) = y with g nondecreasing, bracket lo <= hi > 0."""
    lo = np.maximum(lo, 1e-300)
    for _ in range(iters):
        mid = np.sqrt(lo * hi)
        below = g(mid) < y
        lo = np.where(below, mid, lo)
        hi = np.where(below, hi, mid)
    return np.sqrt(lo * hi)


def _bracket_increasing(g, y, what="value"):
    """Doubling/halving bracket for an increasing g; raises on overflow."""
    y = np.asarray(y, dtype=float)
    lo = np.ones_like(y)
    hi = np.ones_like(y)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        for _ in range(MAX_DOUBLINGS):
            need = g(hi) < y
            if not need.any():
                break
            hi = np.where(need, 2.0 * hi, hi)
        else:
            raise OverflowBracketError(
                f"no upper bracket for {what} within {MAX_DOUBLINGS} doublings"
            )
        for _ in range(MAX_DOUBLINGS):
            need = (g(lo) > y) & (lo > 1e-290)
            if not need.any():
                break
            lo = np.where(need, 0.5 * lo, lo)
    return lo, hi


@dataclass(frozen=True)
class GrowthFunction:
    """Immutable growth function with a callable value and derivative.

    Attributes
    ----------
    family : str
        One of power | power_log | conjugate | composed_inverse |
        power_transform | custom.
    label : str
        Human-readable formula.
    params : dict
        Family parameters (e.g. exponent, coefficient, operand functions).
    split_point : float or None
        For extended-value functions (conjugate of a linear function): the
        abscissa beyond which the value is +inf.
    """

    family: str
    label: str
    params: dict = field(default_factory=dict)
    split_point: float = None

    def __call__(self, t):
        arr, scalar = _as_array(t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            out = np.asarray(self._value(arr), dtype=float)
        return float(out) if scalar else out

    def deriv(self, t):
        arr, scalar = _as_array(t)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            out = np.asarray(self._deriv(arr), dtype=float)
        return float(out) if scalar else out

    def _value(self, t):
        raise NotImplementedError

    def _deriv(self, t):
        raise NotImplementedError

    def __repr__(self):
        return f"GrowthFunction({self.label})"


class _Power(GrowthFunction):
    def _value(self, t):
        c, p = self.params["coef"], self.params["p"]
        return c * np.power(t, p)

    def _deriv(self, t):
        c, p = self.params["coef"], self.params["p"]
        return np.where(t > 0, c * p * np.power(t, p - 1.0), 0.0 if p >= 1 else np.inf)


class _PowerLog(GrowthFunction):
    def _value(self, t):
        p, a, c = self.params["p"], self.params["a"], self.params["c"]
        L = np.log1p((c - 1.0) + t)  # log(c+t) without cancellation near t=0, c=1
        return np.where(t > 0, np.power(t, p) * np.power(L, a), 0.0)

    def _deriv(self, t):
        p, a, c = self.params["p"], self.params["a"], self.params["c"]
        L = np.log1p((c - 1.0) + t)
        main = p * np.power(t, p - 1.0) * np.power(L, a)
        corr = a * np.power(t, p) * np.power(L, a - 1.0) / (c + t)
        return np.where(t > 0, main + corr, 0.0)


class _SplitConjugate(GrowthFunction):
    """Conjugate of a linear function: 0 up to the slope, +inf beyond."""

    def _value(self, t):
        return np.where(t <= self.split_point, 0.0, np.inf)

    def _deriv(self, t):
        return np.where(t <= self.split_point, 0.0, np.inf)


class _NumericConjugate(GrowthFunction):
    def _tstar(self, s):
        base = self.params["of"]
        out = np.zeros_like(s)
        pos = s > 0
        if pos.any():
            sp = s[pos]
            lo, hi = _bracket_increasing(base.deriv, sp, what="conjugate argmax")
            out[pos] = _bisect_increasing(base.deriv, sp, lo, hi)
        return out

    def _value(self, s):
        base = self.params["of"]
        ts = self._tstar(s)
        return np.maximum(s * ts - base(ts), 0.0)

    def _deriv(self, s):
        return self._tstar(s)


class _ComposedInverse(GrowthFunction):
    def _value(self, t):
        outer, inner = self.params["outer"], self.params["inner"]
        return outer(inverse_vec(inner, t))

    def _deriv(self, t):
        outer, inner = self.params["outer"], self.params["inner"]
        u = inverse_vec(inner, t)
        du = inner.deriv(u)
        return np.where(u > 0, outer.deriv(u) / np.where(du > 0, du, np.inf), 0.0)


class _PowerTransform(GrowthFunction):
    def _value(self, t):
        base, e = self.params["base"], self.params["exponent"]
        return base(np.power(t, e))

    def _deriv(self, t):
        base, e = self.params["base"], self.params["exponent"]
        te = np.power(t, e)
        return np.where(t > 0, base.deriv(te) * e * te / t, 0.0)


class _Custom(GrowthFunction):
    def _value(self, t):
        return self.params["fn"](t)

    def _deriv(self, t):
        fn, dfn = self.params["fn"], self.params.get("dfn")
        if dfn is not None:
            return dfn(t)
        h = 1e-6 * np.maximum(t, 1e-12)
        return (fn(t + h) - fn(np.maximum(t - h, 0.0))) / (2 * h)


def power(p, coef=1.0):
    """Phi(t) = coef * t^p with p > 0, coef > 0."""
    if not (p > 0) or not (coef > 0):
        raise ParameterError(f"power family needs p > 0 and coef > 0, got p={p}, coef={coef}")
    label = f"t^{p:g}" if coef == 1.0 else f"{coef:g}*t^{p:g}"
    return _Power("power", label, {"p": float(p), "coef": float(coef)})


def power_log(p, a, c):
    """Phi(t) = t^p * log(c + t)^a with p > 0 and c >= 1."""
    if not (p > 0):
        raise ParameterError(f"power_log needs p > 0, got {p}")
    if not (c >= 1):
        raise ParameterError(f"power_log needs c >= 1 so the log factor stays positive, got c={c}")
    return _PowerLog("power_log", f"t^{p:g}*log({c:g}+t)^{a:g}",
                     {"p": float(p), "a": float(a), "c": float(c)})


def custom(fn, deriv=None, label="custom"):
    """Wrap a user callable (vectorized) as a growth function.

    Convexity is not enforced; regularity_report surfaces violations instead.
    """
    return _Custom("custom", label, {"fn": fn, "dfn": deriv})


def conjugate_of(phi):
    """Young conjugate Psi(s) = sup_t (s t - Phi(t)).

    Exact for the power family; the conjugate of a linear function is the
    extended-value split function (0 up to the slope, +inf beyond). Other
    families are solved numerically from Phi'(t*) = s, which requires
    superlinear growth (dilation index b > 1).
    """
    if phi.family == "power":
        p, c = phi.params["p"], phi.params["coef"]
        if p > 1:
            e = p / (p - 1.0)
            return power(e, coef=(p - 1.0) * c ** (-1.0 / (p - 1.0)) * p ** (-e))
        if p == 1:
            return _SplitConjugate("conjugate", f"conj({phi.label})", {"of": phi},
                                   split_point=c)
        raise ParameterError(
            f"conjugate of sublinear growth t^{p:g} is degenerate (identically infinite)"
        )
    a, b = indices(phi)
    if not (b > 1.01):
        raise ParameterError(
            f"numeric conjugation needs superlinear growth; upper index {b:.4g} <= 1.01"
        )
    return _NumericConjugate("conjugate", f"conj({phi.label})", {"of": phi})


def composed_inverse(outer, inner):
    """The composition outer o inner^{-1}; exact t^(p/q) for two powers."""
    if outer.family == "power" and inner.family == "power" \
            and outer.params["coef"] == 1.0 and inner.params["coef"] == 1.0:
        p, q = outer.params["p"], inner.params["p"]
        return power(p / q)
    return _ComposedInverse("composed_inverse",
                            f"({outer.label})o({inner.label})^-1",
                            {"outer": outer, "inner": inner})


def power_transform(phi, s):
    """The transform Phi_s(t) = Phi(t^(s/a)) with a the lower dilation index.

    Requires s >= 1 and a > 0; maps t^p to t^s exactly.
    """
    if not (s >= 1):
        raise ParameterError(f"power transform needs s >= 1, got {s}")
    a, _ = indices(phi)
    if not (a > 0):
        raise ParameterError(f"power transform needs a positive lower index, got {a:.4g}")
    if phi.family == "power" and phi.params["coef"] == 1.0:
        return power(float(s))
    return _PowerTransform("power_transform", f"({phi.label})_[{s:g}]",
                           {"base": phi, "exponent": float(s) / a})


def indices(phi, grid=None):
    """Dilation indices (a, b): inf and sup of t Phi'(t) / Phi(t) over the grid."""
    t = _default_grid if grid is None else np.asarray(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        ratio = t * phi.deriv(t) / phi(t)
    ratio = ratio[np.isfinite(ratio)]
    if ratio.size == 0:
        raise ParameterError(f"indices undefined: no finite samples for {phi.label}")
    return float(np.min(ratio)), float(np.max(ratio))


def inverse(phi, y):
    """Scalar inverse Phi^{-1}(y) to relative accuracy 1e-10; inverse(0) = 0.

    Brackets by doubling/halving from t = 1 (at most 1000 doublings, else
    OverflowBracketError), then bisects geometrically.
    """
    if y < 0:
        raise ParameterError(f"inverse needs y >= 0, got {y}")
    if y == 0:
        return 0.0
    if phi.family == "power":
        p, c = phi.params["p"], phi.params["coef"]
        return float((y / c) ** (1.0 / p))
    out = inverse_vec(phi, np.asarray([float(y)]))
    return float(out[0])


def inverse_vec(phi, y):
    """Vectorized inverse on a nonnegative array; 0 maps to 0, inf to inf."""
    y = np.asarray(y, dtype=float)
    if (y < 0).any():
        raise ParameterError("inverse needs nonnegative input")
    if phi.family == "power":
        p, c = phi.params["p"], phi.params["coef"]
        with np.errstate(over="ignore", under="ignore"):
            return np.power(y / c, 1.0 / p)
    out = np.zeros_like(y)
    finite = np.isfinite(y) & (y > 0)
    out[~np.isfinite(y)] = np.inf
    if finite.any():
        yf = y[finite]
        lo, hi = _bracket_increasing(phi, yf, what=f"inverse of {phi.label}")
        out[finite] = _bisect_increasing(phi, yf, lo, hi)
    return out


def _dini_integral(phi, t, tol=1e-9):
    """int_0^t Phi(s)/s^2 ds by strips that halve toward 0; flags divergence.

    The strips are those of `quadrature._strip_chain`, on one field of the
    integrand, so a strip that needs no split costs no adaptive call.  The
    decay threshold 0.995 flags exactly linear growth; t^1.03 still
    converges, t^1.02 reaches subnormal s first and raises AccuracyError.
    """
    # / s / s: s * s underflows to 0 long before s does
    field = _FnField(lambda s: phi(s) / s / s)
    strips = _strip_chain(field, lambda lo, hi: (lo, hi), t, tol, 3000)
    return _sum_tail(strips, tol, (0.995, 8, 12),
                     f"Dini integral of {phi.label}")[0]


@dataclass(frozen=True)
class RegularityReport:
    """Numerically fitted regularity profile of a growth function.

    lower_type / upper_type are (exponent, constant) pairs or None when no
    finite constant fits on the grid; delta2 is (holds, doubling constant);
    nabla2 is (holds, Dini constant); indices the dilation indices (a, b);
    grid the abscissae used; convex_ok reports midpoint convexity (custom
    functions violating it are reported, never rejected).
    """

    lower_type: tuple
    upper_type: tuple
    delta2: tuple
    nabla2: tuple
    indices: tuple
    grid: np.ndarray
    convex_ok: bool


def regularity_report(phi, grid=None):
    """Fit the type/doubling/Dini profile of phi on a log grid."""
    t = _default_grid if grid is None else np.asarray(grid)
    a, b = indices(phi, t)

    s_grid = np.logspace(-4, 4, 60)
    u_lower = np.logspace(-8, 0, 60)  # scaling factors <= 1
    u_upper = np.logspace(0, 8, 60)  # scaling factors >= 1
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        S, U = np.meshgrid(s_grid, u_lower, indexing="ij")
        ratio_lo = phi(U * S) / (np.power(U, a) * phi(S))
        S, U = np.meshgrid(s_grid, u_upper, indexing="ij")
        ratio_hi = phi(U * S) / (np.power(U, b) * phi(S))
    c_lo = float(np.nanmax(ratio_lo[np.isfinite(ratio_lo)], initial=0.0))
    c_hi = float(np.nanmax(ratio_hi[np.isfinite(ratio_hi)], initial=0.0))
    lower_type = (a, c_lo) if (a > 1e-6 and c_lo < TYPE_CONSTANT_CAP) else None
    upper_type = (b, c_hi) if (b < INDEX_CAP and c_hi < TYPE_CONSTANT_CAP) else None

    def _doubling_sup(ts):
        with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
            v1 = phi(ts)
            v2 = phi(2 * ts)
        ok = np.isfinite(v1) & np.isfinite(v2) & (v1 > 0)
        if (np.isfinite(v1) & (v1 > 0) & np.isinf(v2)).any() or not ok.any():
            return math.inf
        return float(np.max(v2[ok] / v1[ok]))

    k_all = _doubling_sup(t)
    k_inner = _doubling_sup(t[(t >= 1e-4) & (t <= 1e4)])
    delta2_ok = math.isfinite(k_all) and k_all <= 1.05 * k_inner + 1e-9
    delta2 = (delta2_ok, k_all)

    nabla2 = _fit_dini_constant(phi)

    conv_t = np.logspace(-6, 6, 80)
    mid = 0.5 * (conv_t[:-1] + conv_t[1:])
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        gap = phi(mid) - 0.5 * (phi(conv_t[:-1]) + phi(conv_t[1:]))
        scale = np.maximum(phi(mid), 1e-300)
    ok = np.isfinite(gap)
    convex_ok = bool(np.all(gap[ok] <= 1e-9 * scale[ok]))

    return RegularityReport(lower_type, upper_type, delta2, nabla2, (a, b), t, convex_ok)


def _fit_dini_constant(phi):
    """sup_t of (t/Phi(t)) int_0^t Phi(s)/s^2 ds, or (False, inf) on divergence."""
    worst = 0.0
    for t in np.logspace(-6, 6, 25):
        try:
            val = _dini_integral(phi, float(t))
        except DivergenceError:
            return (False, math.inf)
        worst = max(worst, val * t / phi(float(t)))
    return (True, worst)


def embedding_condition_check(phi1, phi2, grid=None):
    """Admissibility of the pair (phi1, phi2) for the embedding with loss.

    Checks that composed = phi1 o phi2^{-1} dominates its own Dini integral
    (int_0^t composed(s)/s^2 ds <= C composed(t)/t) and that phi1/phi2 is
    nondecreasing. Exact for a pair of powers: holds iff p > q with
    C = q/(p-q).

    Returns
    -------
    (holds, C, ratio_monotone)
    """
    if phi1.family == "power" and phi2.family == "power" \
            and phi1.params["coef"] == 1.0 and phi2.params["coef"] == 1.0:
        p, q = phi1.params["p"], phi2.params["p"]
        holds = p > q
        constant = q / (p - q) if holds else math.inf
        return holds, constant, p >= q
    composed = composed_inverse(phi1, phi2)
    holds, constant = _fit_dini_constant(composed)
    t = _default_grid if grid is None else np.asarray(grid)
    with np.errstate(over="ignore", invalid="ignore", divide="ignore", under="ignore"):
        ratio = phi1(t) / phi2(t)
    ratio = ratio[np.isfinite(ratio)]
    monotone = bool(np.all(np.diff(ratio) >= -1e-9 * ratio[:-1]))
    return holds, constant, monotone


def young_report(phi, n=100, t_lo=1e-3, t_hi=1e3):
    """Young-inequality audit for phi and its conjugate on an n x n grid.

    Returns (worst_violation, worst_equality_gap): the most negative relative
    value of Phi(t) + Psi(s) - s t over the grid (0 when the inequality holds
    everywhere) and the largest relative gap at the equality points s = Phi'(t).
    The numeric conjugate is a supremum approached from below, so a slack of
    about 1e-9 relative is expected rather than exact zero.
    """
    psi = conjugate_of(phi)
    t = np.logspace(math.log10(t_lo), math.log10(t_hi), n)
    s = np.logspace(math.log10(t_lo), math.log10(t_hi), n)
    T, S = np.meshgrid(t, s, indexing="ij")
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        lhs = phi(T) + psi(S)
        scale = np.maximum(S * T, 1e-300)
        rel = (lhs - S * T) / scale
    finite = np.isfinite(rel)
    worst_violation = float(np.minimum(np.min(rel[finite], initial=0.0), 0.0))

    s_eq = phi.deriv(t)
    good = np.isfinite(s_eq) & (s_eq > 0)
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        gap = np.abs(phi(t[good]) + psi(s_eq[good]) - s_eq[good] * t[good])
        rel_gap = gap / np.maximum(s_eq[good] * t[good], 1e-300)
    worst_gap = float(np.max(rel_gap[np.isfinite(rel_gap)], initial=0.0))
    return worst_violation, worst_gap


def from_json(obj):
    """Build a growth function from its JSON description.

    Formats: {"family":"power","p":2.0} with an optional "coef",
    {"family":"power_log","p":..,"a":..,"c":..}, {"family":"conjugate",
    "of":{...}}, {"family":"composed_inverse","outer":{...},"inner":{...}}
    and {"family":"power_transform","base":{...},"s":..}.
    """
    if not isinstance(obj, dict) or "family" not in obj:
        raise ParameterError(f"not a growth-function spec: {obj!r}")
    fam = obj["family"]
    what = f"growth-function family {fam!r}"
    get = partial(need, obj, what=what)
    num = partial(number, obj, what=what)
    if fam == "power":
        return power(num("p"), coef=num("coef", default=1.0))
    if fam == "power_log":
        return power_log(num("p"), num("a"), num("c"))
    if fam == "conjugate":
        return conjugate_of(from_json(get("of")))
    if fam == "composed_inverse":
        return composed_inverse(from_json(get("outer")),
                                from_json(get("inner")))
    if fam == "power_transform":
        return power_transform(from_json(get("base")), num("s"))
    raise ParameterError(f"unknown growth-function family {fam!r}")

