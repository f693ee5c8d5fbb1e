"""Atomic sampling, desk-scale decomposition, and the norm equivalence.

Synthesis is `bergman.atom_sum`: it maps a finitely supported lattice
sequence mu to the kernel atom sum F_mu.  Sampling evaluates a function
back on the lattice.  Both directions use the lattice's (j, l) order and
row weights, and they are norm-comparable, which
`equivalence_experiment` measures empirically.  `decompose_l2` inverts
synthesis at desk scale in the Hilbert case by regularized least squares
on the atom Gram matrix, whose entries have a closed form through the
reproducing identity.  The Khintchine estimator sandwiches the mixed
modular of a random-sign double series between multiples of the
coefficient l2 norm.
"""

from dataclasses import dataclass

import numpy as np

from . import bergman, growth, lattice
from .errors import (AccuracyError, BergmanOrliczError, ConditioningError,
                     ParameterError)
from .orlicz import (LatticeSequence, _random_sequence, modular,
                     seq_luxembourg, valpha_measure)

RIDGE_DEFAULT = 1e-10
GRAM_COND_LIMIT = 1e12
KHINTCHINE_GRID = 256
KHINTCHINE_SHIFT = 0.37
KHINTCHINE_CALIBRATION_SEED = 12345
KHINTCHINE_MARGIN = 0.10


def _window(lat):
    """The window's indices in (j, l) order, their points and rows."""
    ls, js, xs, ys = lat.index_arrays()
    zs = np.empty(xs.size, dtype=complex)
    zs.real, zs.imag = xs, ys
    return list(zip(ls.tolist(), js.tolist())), zs, js


def sample(F, lat):
    """Evaluate F at every lattice point of the window."""
    keys, zs, _ = _window(lat)
    vals = np.asarray(F(zs), dtype=complex)
    return LatticeSequence(dict(zip(keys, vals)), lat)


def _gram(lat, alpha):
    """Window indices, atom centres, row weights and Gram matrix."""
    keys, centers, js = _window(lat)
    w = lattice.row_weights(js, lat.gamma, alpha)
    c_a = bergman.ATOM_COEF_BASE ** (alpha + 2.0)
    g = (c_a * c_a / bergman.reproducing_constant(alpha)) \
        * (w[:, None] * w[None, :]) * bergman.kernel_matrix(centers, alpha)
    return keys, centers, w, g


RESIDUAL_TOL = 1e-4


def _residual_sq(F, recon, alpha):
    """Squared weighted-L2 norm of F minus its reconstruction.

    When F itself is a kernel combination the norm of the difference is
    exact bilinear algebra in kernel values, immune to the cancellation
    that defeats quadrature on near-perfect recoveries.  Otherwise the
    difference is integrated directly at magnitude accuracy.
    """
    expo = alpha + 2.0
    if getattr(F, "kind", None) == "atom_sum" and \
            float(F.params["expo"]) == expo:
        cen = np.concatenate([np.asarray(F.params["centers"]),
                              np.asarray(recon.params["centers"])])
        v = np.concatenate([np.asarray(F.params["coeffs"]),
                            -np.asarray(recon.params["coeffs"])])
        return bergman.atom_norm_sq(cen, v, alpha)
    diff = lambda z: np.abs(np.asarray(F(z), dtype=complex) - recon(z))
    return modular(diff, valpha_measure(alpha), growth.power(2),
                   tol=RESIDUAL_TOL)


def decompose_l2(F, lat, alpha=0.0, ridge=RIDGE_DEFAULT):
    """Least-squares atomic coefficients of F on a lattice window.

    Solves the regularized normal equations for the atom expansion in
    the Hilbert space of the weight.  Right-hand sides use the
    reproducing identity, so F should belong to the space numerically.
    The residual is the weighted L2 norm of F minus the reconstruction.

    Returns
    -------
    (LatticeSequence, float)
    """
    if ridge < 0:
        raise ParameterError(f"ridge must be >= 0, got {ridge}")
    keys, centers, w, g = _gram(lat, alpha)
    c_a = bergman.ATOM_COEF_BASE ** (alpha + 2.0)
    fvals = np.asarray(F(centers), dtype=complex)
    b = c_a * w * fvals / bergman.reproducing_constant(alpha)

    if ridge == 0.0:
        cond = np.linalg.cond(g)
        if cond > GRAM_COND_LIMIT:
            raise ConditioningError(
                f"atom Gram condition number {cond:.3e}; "
                f"pass ridge > 0 (default {RIDGE_DEFAULT})")
        coef = np.linalg.solve(g, b)
    else:
        coef = np.linalg.solve(g + ridge * np.eye(len(b)), b)

    mu = LatticeSequence(dict(zip(keys, coef)), lat)
    recon = bergman.atom_sum(mu, alpha)
    res_sq = _residual_sq(F, recon, alpha)
    return mu, float(np.sqrt(max(res_sq, 0.0)))


def equivalence_experiment(phi, alpha, delta, trials, seed,
                           window=(6, 2), support_size=4):
    """Monte-Carlo comparison of sequence norms and synthesized norms.

    Each trial draws a random finitely supported sequence, synthesizes
    it, and records the ratio of function norm to sequence norm, then
    samples the function back and records the ratio of the sampled
    sequence norm to the function norm.

    Returns
    -------
    dict with keys ratios_synth, ratios_sample, rows, summary, and the
    run parameters.
    """
    if trials <= 0:
        raise ParameterError(f"trials must be positive, got {trials}")
    rep = growth.regularity_report(phi)
    if not rep.nabla2[0]:
        raise ParameterError(
            "growth function must satisfy the Dini upper-half condition")
    if rep.indices[0] < 1.0 - 1e-6:
        raise ParameterError("growth function must have lower index >= 1")

    lat = lattice.build(delta, window)
    rng = np.random.default_rng(seed)

    ratios_synth, ratios_sample, rows = [], [], []
    for t in range(trials):
        mu = _random_sequence(lat, rng, 1, support_size)
        norm_mu = seq_luxembourg(mu, phi, alpha).value
        f_mu = bergman.atom_sum(mu, alpha)
        norm_f = bergman.space_norm(f_mu, phi, alpha)
        norm_back = seq_luxembourg(sample(f_mu, lat), phi, alpha).value
        rs = norm_f / norm_mu
        rb = norm_back / norm_f
        ratios_synth.append(rs)
        ratios_sample.append(rb)
        rows.append({"trial": t, "norm_mu": norm_mu, "norm_F": norm_f,
                     "ratio_synth": rs, "ratio_sample": rb})

    def summary(vals):
        return {"min": float(np.min(vals)), "max": float(np.max(vals)),
                "median": float(np.median(vals))}

    return {
        "phi": phi.label, "alpha": alpha, "delta": delta,
        "trials": trials, "seed": seed, "window": list(lat.window),
        "ratios_synth": ratios_synth, "ratios_sample": ratios_sample,
        "rows": rows,
        "summary": {"synth": summary(ratios_synth),
                    "sample": summary(ratios_sample)},
    }


@dataclass(frozen=True)
class RademacherSampler:
    """Deterministic grid discretization of the random-sign integrals.

    The grid (i + 0.37)/n stays clear of the dyadic sign flips, and for
    n a power of two the sign functions up to index log2(n) are exactly
    orthonormal on it.
    """

    grid_size: int = KHINTCHINE_GRID

    def __post_init__(self):
        if self.grid_size < 8:
            raise ParameterError(f"grid too small: {self.grid_size}")

    def grid(self, n=None):
        n = self.grid_size if n is None else n
        return (np.arange(n) + KHINTCHINE_SHIFT) / n

    def signs(self, k, ts):
        """Sign function of index k on grid points ts."""
        return 1.0 - 2.0 * (np.floor(np.ldexp(ts, k)).astype(np.int64) & 1)


def _khintchine_middle(x_items, phi, sampler, n):
    ks = sorted({k for (k, _), _ in x_items})
    js = sorted({j for (_, j), _ in x_items})
    xmat = np.zeros((len(ks), len(js)), dtype=complex)
    ki = {k: i for i, k in enumerate(ks)}
    ji = {j: i for i, j in enumerate(js)}
    for (k, j), v in x_items:
        xmat[ki[k], ji[j]] += v
    ts = sampler.grid(n)
    rk = np.stack([sampler.signs(k, ts) for k in ks])
    rj = np.stack([sampler.signs(j, ts) for j in js])
    v = rk.T @ xmat @ rj
    mean_mod = float(np.mean(phi(np.abs(v))))
    return growth.inverse(phi, mean_mod) if mean_mod > 0 else 0.0


def khintchine_check(x, phi, sampler=None):
    """Sandwich the mixed sign-series modular around the l2 norm.

    Parameters
    ----------
    x : dict mapping (k, j) to complex
        Finitely supported coefficients.
    phi : GrowthFunction
    sampler : RademacherSampler, optional

    Returns
    -------
    (middle, lower, upper) : floats
        middle is the inverse-phi of the grid double average; lower and
        upper are the l2 norm scaled by constants fitted on seeded
        calibration draws.  lower <= middle <= upper is asserted.
    """
    sampler = sampler or RademacherSampler()
    items = sorted(x.items())
    if not items:
        return 0.0, 0.0, 0.0
    max_idx = max(max(k, j) for (k, j), _ in items)
    if 2 ** max_idx > sampler.grid_size:
        raise AccuracyError(
            f"grid {sampler.grid_size} too coarse for sign index {max_idx}")
    n = sampler.grid_size
    middle = _khintchine_middle(items, phi, sampler, n)
    refined = _khintchine_middle(items, phi, sampler, 2 * n)
    if middle > 0 and abs(refined - middle) > 0.01 * middle:
        raise AccuracyError(
            f"grid too coarse: middle moved {abs(refined - middle) / middle:.2%} "
            f"under refinement")

    l2 = float(np.sqrt(sum(abs(v) ** 2 for _, v in items)))
    rng = np.random.default_rng(KHINTCHINE_CALIBRATION_SEED)
    ratios = []
    for _ in range(30):
        m = int(rng.integers(1, 5))
        draw = {}
        for _ in range(m):
            key = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            draw[key] = complex(rng.normal(), rng.normal())
        ditems = sorted(draw.items())
        dmid = _khintchine_middle(ditems, phi, sampler, n)
        dl2 = float(np.sqrt(sum(abs(v) ** 2 for _, v in ditems)))
        if dl2 > 0:
            ratios.append(dmid / dl2)
    a_phi = (1.0 - KHINTCHINE_MARGIN) * min(ratios)
    b_phi = (1.0 + KHINTCHINE_MARGIN) * max(ratios)
    lower, upper = a_phi * l2, b_phi * l2
    if not lower <= middle <= upper:
        raise BergmanOrliczError(
            f"sandwich violated: {lower:.6g} <= {middle:.6g} <= {upper:.6g} "
            f"does not hold")
    return middle, lower, upper
