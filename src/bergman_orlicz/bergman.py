"""Bergman kernel, projection, and reference analytic functions.

The kernel here is K(z, w) = ((z - conj(w))/i)**(-alpha-2), taken on
the principal branch, which is safe because (z - conj(w))/i has real
part Im z + Im w > 0 whenever both points are in the upper half-plane.
The kernel that actually reproduces point values against the weight
y**alpha is this one times the constant (alpha+1) * 2**alpha / pi, and
`project` includes that constant.

Reference functions: the decay family (1 - i*eps*z)**(-m), whose
p-th-power weighted integrals have a closed beta-function form, and
kernel-atom sums over a lattice sequence with coefficient mu at index
(l, j) contributing

    2**(alpha+2) * mu * K(z, lattice point) * 2**(j*gamma*(alpha+2)),

normalized so the sum evaluated at its own lattice point returns mu
when the other atoms are far.  An atom sum is evaluated directly, every
point against every atom: a loop over the atoms of point vectors, summed
in numpy's pairwise order; for an integer weight (alpha = 0, 1, ...) the
kernel powers are exact products, and a point's value never depends on
the other points it comes with.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from . import lattice as _lattice
from .errors import ParameterError, need, number
from .growth import inverse_vec as _phi_inverse_vec
from .halfplane import HPoint, integrate as _integrate, plane_power_integral
from .orlicz import LatticeSequence, luxembourg, valpha_measure

# Points per chunk of `_atom_sum_eval`: a chunk's point vectors (64 KB
# each) stay in cache, and the peak memory is a few of them, whatever the
# number of points.  On 8,241 points x 1,000 atoms (expo 2, best of 5, three
# runs on a 2-core machine) chunks of 1,024 points took 78-111 ms and
# chunks of 2,048 to 16,384 points 58-89 ms, within each other's noise.
_ATOM_POINTS = 4096
# Largest integer exponent taken by repeated products.  On the same case
# they beat numpy's complex power at every exponent up to 16 (0.20 s
# against 0.21 s at 16) and lose to it at 32 (0.35 s against 0.27 s).
_EXACT_POWER_MAX = 16


def _as_complex(z):
    if isinstance(z, HPoint):
        return z.z
    return z


def _pairwise(term, lo, hi):
    """term(lo) + ... + term(hi - 1), in the order numpy's pairwise sum
    adds a row of hi - lo terms: left to right below 4 terms; up to 64,
    four strided accumulators combined as (r0 + r1) + (r2 + r3), then the
    rest left to right; above 64, the two halves split at half the count
    rounded down to a multiple of 4."""
    m = hi - lo
    if m > 64:
        mid = lo + m // 2 - (m // 2) % 4
        return _pairwise(term, lo, mid) + _pairwise(term, mid, hi)
    if m < 4:
        acc = term(lo)
        for k in range(lo + 1, hi):
            acc = acc + term(k)
        return acc
    r = [term(lo + j) for j in range(4)]
    stop = hi - m % 4
    for k in range(lo + 4, stop, 4):
        for j in range(4):
            r[j] = r[j] + term(k + j)
    acc = (r[0] + r[1]) + (r[2] + r[3])
    for k in range(stop, hi):
        acc = acc + term(k)
    return acc


def _atom_sum_eval(z, centers, coeffs, expo):
    """sum_k coeffs[k] * ((z - conj(centers[k])) / i)^(-expo) on flat z.

    A loop over the atoms, each term a vector over a chunk of
    `_ATOM_POINTS` points, summed in `_pairwise` order: every value is bit
    for bit the row sum of the (points x atoms) term matrix, and a point's
    value does not depend on the other points of the call.  An integer
    expo (alpha = 0, 1, ...) is exact powers: one reciprocal and expo - 1
    multiplies; any other expo is numpy's complex power, on the principal
    branch.  Products and sums are out of place: numpy's in-place complex
    product of a one-element array can round differently from the same
    product on a longer one.  Multiplying by -i is exact, so z and the
    conjugate centres take it once, before their difference.
    """
    zt = z * -1j
    ct = np.conj(centers) * -1j
    n = int(expo) if float(expo).is_integer() \
        and 2 <= expo <= _EXACT_POWER_MAX else 0
    out = np.zeros(z.shape, dtype=np.complex128)
    if not centers.size:
        return out
    for i in range(0, z.size, _ATOM_POINTS):
        zb = zt[i:i + _ATOM_POINTS]

        def term(k):
            b = zb - ct[k]
            if n:
                r = np.reciprocal(b)
                t = r * r
                for _ in range(n - 2):
                    t = t * r
            else:
                t = np.power(b, -expo)
            return t * coeffs[k]

        out[i:i + _ATOM_POINTS] = _pairwise(term, 0, centers.size)
    return out


def _check_alpha(alpha):
    if not alpha > -1:
        raise ParameterError(f"weight exponent must exceed -1, got {alpha}")


def kernel(z, w, alpha=0.0):
    """Bergman kernel K(z, w) on the principal branch.

    Accepts HPoint or complex for either argument; vectorized over z.
    """
    _check_alpha(alpha)
    zz, ww = _as_complex(z), _as_complex(w)
    return ((zz - np.conj(ww)) / 1j) ** (-alpha - 2.0)


def normalized_kernel(z, w, alpha=0.0):
    """Unit-norm kernel Im(w)**((2+alpha)/2) / (z - conj(w))**(2+alpha)."""
    _check_alpha(alpha)
    zz, ww = _as_complex(z), _as_complex(w)
    return np.imag(ww) ** ((2.0 + alpha) / 2.0) \
        / (zz - np.conj(ww)) ** (2.0 + alpha)


def reproducing_constant(alpha=0.0):
    """Constant making `kernel` reproduce against y**alpha dV."""
    _check_alpha(alpha)
    return (alpha + 1.0) * 2.0 ** alpha / math.pi


def kernel_matrix(centers, alpha=0.0):
    """K[i, k] = K(centers[i], centers[k]), on a 1-D array of centres."""
    return kernel(centers[None, :], centers[:, None], alpha).T


def atom_norm_sq(centers, coeffs, alpha=0.0):
    """Squared weighted-L2 norm of sum_k coeffs[k] * K(., centers[k]).

    Exact through the reproducing identity: Re(c^H K c) over the
    reproducing constant, with K = `kernel_matrix`.
    """
    q = np.vdot(coeffs, kernel_matrix(centers, alpha) @ coeffs)
    return float(np.real(q)) / reproducing_constant(alpha)


ATOM_COEF_BASE = 2.0  # atom coefficient scale is 2**(alpha+2)


@dataclass(frozen=True)
class AnalyticFn:
    """One analytic function on the half-plane, callable and vectorized.

    Closed-form variants carry their parameters so oracles can verify
    values independently; `custom` wraps an arbitrary callable.
    """

    kind: str
    params: dict = field(default_factory=dict, repr=False)

    def __call__(self, z):
        z = np.asarray(_as_complex(z), dtype=complex)
        p = self.params
        if self.kind == "kernel":
            return kernel(z, p["w"], p["alpha"])
        if self.kind == "normalized_kernel":
            return normalized_kernel(z, p["w"], p["alpha"])
        if self.kind == "decay":
            return (1.0 - 1j * p["eps"] * z) ** (-p["m"])
        if self.kind == "atom_sum":
            flat = np.ascontiguousarray(np.atleast_1d(z).ravel())
            out = _atom_sum_eval(flat, p["centers"], p["coeffs"], p["expo"])
            return out.reshape(z.shape) if z.shape else out[0]
        if self.kind == "const":
            return np.full(z.shape, p["value"]) if z.shape else p["value"]
        if self.kind == "custom":
            return p["fn"](z)
        raise ParameterError(f"unknown analytic-fn kind {self.kind!r}")


def kernel_fn(w, alpha=0.0):
    """K(. , w) as an AnalyticFn."""
    _check_alpha(alpha)
    if not isinstance(w, HPoint):
        w = HPoint(np.real(w), np.imag(w))
    return AnalyticFn("kernel", {"w": w, "alpha": float(alpha)})


def normalized_kernel_fn(w, alpha=0.0):
    """k(. , w) as an AnalyticFn."""
    _check_alpha(alpha)
    if not isinstance(w, HPoint):
        w = HPoint(np.real(w), np.imag(w))
    return AnalyticFn("normalized_kernel", {"w": w, "alpha": float(alpha)})


def decay(eps, m):
    """The reference decay function (1 - i*eps*z)**(-m)."""
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    if not m >= 0:
        raise ParameterError(f"m must be nonnegative, got {m}")
    return AnalyticFn("decay", {"eps": float(eps), "m": float(m)})


def atom_sum(seq, alpha=0.0):
    """Kernel-atom sum of a lattice sequence as an AnalyticFn.

    The atoms run in the lattice's (j, l) order, each with coefficient
    2**(alpha+2) * mu * `lattice.row_weights`.
    """
    _check_alpha(alpha)
    if not isinstance(seq, LatticeSequence):
        raise ParameterError("atom_sum needs a LatticeSequence")
    lat = seq.lattice
    items = seq.items_sorted()
    ls = np.array([l for (l, _), _ in items], dtype=np.int64)
    js = np.array([j for (_, j), _ in items], dtype=np.int64)
    centers = np.empty(len(items), dtype=complex)
    centers.real, centers.imag = lat.coords(ls, js)
    vals = np.array([v for _, v in items], dtype=complex)
    weights = _lattice.row_weights(js, lat.gamma, alpha)
    coefs = ATOM_COEF_BASE ** (alpha + 2.0) * vals * weights
    return AnalyticFn("atom_sum", {
        "seq": seq, "alpha": float(alpha), "centers": centers,
        "coeffs": coefs, "expo": alpha + 2.0})


def const_fn(value):
    """The constant function z -> value."""
    return AnalyticFn("const", {"value": complex(value)})


def custom_fn(fn):
    """Wrap an arbitrary vectorized callable."""
    return AnalyticFn("custom", {"fn": fn})


def decay_modular_exact(eps, m, p, alpha=0.0):
    """Closed form of the p-th power y**alpha integral of the decay family.

    Requires m*p > alpha + 2; below that the integral diverges.
    """
    _check_alpha(alpha)
    if not eps > 0:
        raise ParameterError(f"eps must be positive, got {eps}")
    # |1 - i eps z| = eps |z + i/eps|, so the integral scales as eps^(-2-alpha)
    return plane_power_integral(1.0, alpha, m * p) * eps ** (-2.0 - alpha)


def space_norm(F, phi, alpha=0.0, tol=1e-8):
    """Luxembourg norm of F in the weighted Bergman-Orlicz space.

    Closed for unit-coefficient power growth: a normalized kernel through
    `plane_power_integral`, and an atom sum of the same weight in the
    Hilbert case through `atom_norm_sq`.  Anything else is the
    Luxembourg norm against y**alpha dV.
    """
    if phi.family == "power" and phi.params["coef"] == 1.0:
        p = phi.params["p"]
        kind = getattr(F, "kind", None)
        if kind == "normalized_kernel":
            yw = F.params["w"].y
            s = p * (2.0 + alpha) / 2.0
            mod = yw ** s * plane_power_integral(yw, alpha, 2.0 * s)
            return mod ** (1.0 / p)
        if kind == "atom_sum" and p == 2.0 and \
                float(F.params["expo"]) == alpha + 2.0:
            q = atom_norm_sq(F.params["centers"], F.params["coeffs"], alpha)
            return float(np.sqrt(max(q, 0.0)))
    return luxembourg(F, valpha_measure(alpha), phi, tol=tol).value


def project(F, z, alpha=0.0, tol=1e-6):
    """Kernel integral of F against y**alpha dV, at one point.

    For F in the weighted Bergman space this reproduces F(z).
    """
    _check_alpha(alpha)
    zz = _as_complex(z)
    c = reproducing_constant(alpha)

    def integrand(w):
        return kernel(zz, w, alpha) * F(w)

    return c * _integrate(integrand, alpha, None, tol=tol)


def pointwise_bound_check(F, phi, alpha=0.0, z_list=(), tol=1e-8):
    """Largest ratio of |F(z)| to the norm-scaled growth envelope.

    The envelope at z is inverse(phi)(Im(z)**(-2-alpha)) times the
    Luxembourg norm of F over the whole weighted plane; a bounded ratio
    across z_list is the pointwise growth bound.

    Returns
    -------
    float
    """
    _check_alpha(alpha)
    if not z_list:
        raise ParameterError("z_list must be nonempty")
    lux = luxembourg(F, valpha_measure(alpha), phi, tol=tol).value
    if lux == 0.0:
        return 0.0
    zs = np.array([_as_complex(z) for z in z_list])
    ys = np.imag(zs)
    if np.any(ys <= 0):
        raise ParameterError("evaluation points must be in the half-plane")
    env = _phi_inverse_vec(phi, ys ** (-2.0 - alpha)) * lux
    return float(np.max(np.abs(F(zs)) / env))


def fn_from_json(obj):
    """Parse the analytic-function wire format.

    Accepts {"kernel": {"wx":, "wy":, "alpha":}}, the same with
    "normalized_kernel", {"g": {"eps":, "m":}}, {"const": v} with v a
    number or [re, im], and {"atoms": {"sequence": [[l, j, re, im], ...],
    "delta":, "window": [L, J], "alpha":}} with the sequence keys of
    `sequence_from_json` and alpha defaulting to 0.
    """
    if not isinstance(obj, dict) or len(obj) != 1:
        raise ParameterError(f"malformed analytic-fn spec: {obj!r}")
    if "kernel" in obj or "normalized_kernel" in obj:
        key = "kernel" if "kernel" in obj else "normalized_kernel"
        d = obj[key]
        w = HPoint(number(d, "wx", key), number(d, "wy", key))
        make = kernel_fn if key == "kernel" else normalized_kernel_fn
        return make(w, number(d, "alpha", key, 0.0))
    if "g" in obj:
        d = obj["g"]
        return decay(number(d, "eps", "g"), number(d, "m", "g"))
    if "const" in obj:
        if isinstance(obj["const"], (list, tuple)):
            d = need(obj, "const", "const", 2)
            return const_fn(complex(number(d, 0, "const"),
                                    number(d, 1, "const")))
        return const_fn(number(obj, "const", "const"))
    if "atoms" in obj:
        d = obj["atoms"]
        return atom_sum(sequence_from_json(d),
                        number(d, "alpha", "atoms", 0.0))
    raise ParameterError(f"unknown analytic-fn variant {list(obj)[0]!r}")


def sequence_from_json(obj):
    """Parse {"sequence": [[l, j, re, im], ...], "delta":, "window": [L, J],
    "gamma":} into a LatticeSequence.

    delta defaults to 0.5, the window to the smallest one containing the
    sequence, and gamma to the midpoint of its admissible interval.
    """
    if not isinstance(obj, dict) or "sequence" not in obj:
        raise ParameterError(f"sequence spec needs a 'sequence' key: {obj!r}")
    rows = obj["sequence"]
    if not isinstance(rows, list) or not rows:
        raise ParameterError(
            f"atom sequence must be a nonempty list: {rows!r}")
    entries = {}
    what = "sequence row [l, j, re, im]"
    for i in range(len(rows)):
        row = need(rows, i, what, 4)
        k = (_lattice.as_index(row[0]), _lattice.as_index(row[1]))
        entries[k] = complex(number(row, 2, what), number(row, 3, what))
    if "window" in obj:
        window = need(obj, "window", "sequence", 2)
    else:
        window = (max(abs(k[0]) for k in entries),
                  max(abs(k[1]) for k in entries))
    gamma = obj.get("gamma")
    lat = _lattice.build(number(obj, "delta", "sequence", 0.5), window,
                         None if gamma is None else
                         number(obj, "gamma", "sequence"))
    return LatticeSequence(entries, lat)


def sequence_to_json(seq):
    """Inverse of `sequence_from_json`: the rows [l, j, re, im] in the
    lattice's (j, l) order, with the lattice's delta, window and gamma."""
    lat = seq.lattice
    rows = [[l, j, v.real, v.imag] for (l, j), v in seq.items_sorted()]
    return {"sequence": rows, "delta": lat.delta,
            "window": list(lat.window), "gamma": lat.gamma}

