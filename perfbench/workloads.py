"""The four benchmark workloads: inputs from a seed, tasks, and their checks.

A workload is a fixed task list ("round").  Round r of seed s draws its
inputs from ``numpy.random.default_rng([s, r])``, so a run is a
deterministic sequence of rounds, and no two rounds repeat an input (a
cache keyed on inputs cannot carry over from one round to the next).
Each task is a callable that returns the library's output, paired with a
check that compares that output with a reference computed here, without
the library's own quadrature or solvers.  A check returns the worst
error as a multiple of its tolerance (at most 1 passes), or raises
`CheckFailed` for a wrong verdict.

Why each workload exists is written next to its round function and in README.md.
"""

import math
from dataclasses import dataclass

import numpy as np


class CheckFailed(Exception):
    """A task's output disagrees with its reference."""


@dataclass
class Task:
    name: str
    run: object    # () -> output
    check: object  # output -> worst error / tolerance


def _rng(seed, r):
    return np.random.default_rng([seed, r])


def _stratum(rng, r, lo, hi, k=3):
    """A draw from the (r mod k)-th of k equal slices of [lo, hi].

    Consecutive rounds sweep the slices, so every run of k or more rounds
    covers the range evenly and its median cost depends little on the seed.
    """
    return lo + (hi - lo) * ((r % k) + float(rng.uniform())) / k


def _require(cond, msg):
    if not cond:
        raise CheckFailed(msg)


def _rel(a, b):
    return abs(a - b) / abs(b)


# ------------------------------------------------------------ membership
# carleson.berezin_membership on y^tau weights over the unit box.  Most of
# the time is berezin_fn's closed-form x-integral on the graded y-grid; the
# derived growth function is a power, so no Luxembourg bisection runs.

MEMBERSHIP_STAGES = 9
MEMBERSHIP_TOL = 1e-4
BEREZIN_TOL = 1e-6
# verdicts are checked only away from the flip near tau = -0.45: at this
# stage cap tau <= -0.6 is never a member and tau >= -0.3 always is
TAU_NOT_MEMBER = -0.6
TAU_MEMBER = -0.3


def _berezin_box_reference(tau, x0, y0):
    """y0^2 * int_0^1 y^tau int_0^1 ((x-x0)^2 + (y+y0)^2)^-2 dx dy (QUADPACK)."""
    from scipy.integrate import quad

    def inner(y):
        c2 = (y + y0) ** 2
        return quad(lambda x: 1.0 / ((x - x0) ** 2 + c2) ** 2, 0.0, 1.0,
                    epsabs=0.0, epsrel=1e-12, limit=200)[0]

    outer = quad(inner, 0.0, 1.0, weight="alg", wvar=(tau, 0.0),
                 epsabs=0.0, epsrel=1e-11, limit=200)[0]
    return y0 * y0 * outer


def membership_round(bo, seed, r):
    from bergman_orlicz.halfplane import Box
    rng = _rng(seed, r)
    t1, t2 = bo.growth.power(1), bo.growth.power(2)
    tasks = []
    # one tau in each third of the range, so every round straddles the flip
    for lo, hi in ((-0.8, -0.6), (-0.6, -0.4), (-0.4, -0.2)):
        tau = _stratum(rng, r, lo, hi, k=2)
        mu = bo.orlicz.density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0),
                                       alpha=tau)
        pts = rng.uniform(-0.5, 1.5, 2) + 1j * rng.uniform(0.2, 1.5, 2)

        def run(mu=mu):
            return bo.carleson.berezin_membership(
                mu, t2, t1, stage_max=MEMBERSHIP_STAGES, tol=MEMBERSHIP_TOL)

        def check(out, mu=mu, tau=tau, pts=pts):
            member, value = out
            _require(math.isfinite(value) and value > 0,
                     f"tau={tau:.4f}: Luxembourg value {value!r}")
            if tau <= TAU_NOT_MEMBER:
                _require(not member, f"tau={tau:.4f} reported a member")
            if tau >= TAU_MEMBER:
                _require(member, f"tau={tau:.4f} reported not a member")
            got = np.asarray(bo.carleson.berezin_fn(mu, 0.0)(pts))
            worst = 0.0
            for z, g in zip(pts, got):
                ref = _berezin_box_reference(tau, z.real, z.imag)
                worst = max(worst, _rel(float(g), ref) / BEREZIN_TOL)
            return worst

        tasks.append(Task(f"membership tau={tau:.4f}", run, check))
    return tasks


# ------------------------------------------------------------ lux-bisect
# Whole-plane Luxembourg norms of the decay family under growth functions
# that are not powers, so every solve brackets and bisects (25-30 steps),
# each step re-running adaptive cubature over cached panels.  No Berezin
# transform and no lattice geometry.

LUX_TOL = 1e-6         # quadrature tolerance passed to luxembourg
LUX_CHECK_TOL = 1e-5   # relative error allowed against the reference


def _decay_power_norm(eps, m, p):
    """Closed-form L^p norm of (1 - i eps z)^-m over the half-plane, alpha = 0.

    int |f|^p dA = B(1/2, (mp-1)/2) * B(1, mp-2) * eps^-2.
    """
    mp = m * p
    lbeta = (math.lgamma(0.5) + math.lgamma((mp - 1.0) / 2.0)
             - math.lgamma(mp / 2.0))
    return (math.exp(lbeta) / (mp - 2.0) / eps ** 2) ** (1.0 / p)


def _decay_modular(phi, eps, m, lam):
    """int Phi(|f|/lam) dA for f = (1 - i eps z)^-m, by nested QUADPACK.

    With x = v s / eps and v = 1 + eps y, |f| = v^-m (1+s^2)^(-m/2) and
    the integral is (2/eps^2) int_1^inf v int_0^inf Phi(...) ds dv.
    """
    from scipy.integrate import quad

    def inner(v):
        a = v ** (-m) / lam
        return v * quad(lambda s: phi(a * (1.0 + s * s) ** (-m / 2.0)),
                        0.0, np.inf, epsabs=0.0, epsrel=1e-11, limit=200)[0]

    return 2.0 / eps ** 2 * quad(inner, 1.0, np.inf, epsabs=0.0,
                                 epsrel=1e-10, limit=200)[0]


def lux_round(bo, seed, r):
    rng = _rng(seed, r)
    valpha = bo.orlicz.valpha_measure(0.0)
    tasks = []

    # the decay exponent m sets most of a solve's cost, so it is stratified
    eps, m, p = (float(rng.uniform(0.5, 2.0)), _stratum(rng, r, 2.5, 4.0),
                 float(rng.uniform(2.0, 3.0)))
    phi = bo.growth.custom(lambda t, p=p: np.power(t, p), label=f"t^{p:.4f}")
    f = bo.bergman.decay(eps, m)

    def check_power(out, eps=eps, m=m, p=p):
        return _rel(out.value, _decay_power_norm(eps, m, p)) / LUX_CHECK_TOL

    tasks.append(Task(f"lux custom t^{p:.3f}",
                      lambda f=f, phi=phi: bo.orlicz.luxembourg(
                          f, valpha, phi, tol=LUX_TOL), check_power))

    eps, m = float(rng.uniform(0.5, 2.0)), _stratum(rng, r + 1, 2.5, 4.0)
    p, a, c = (float(rng.uniform(2.0, 3.0)), float(rng.uniform(0.5, 1.5)),
               float(rng.uniform(1.5, 3.0)))
    phi = bo.growth.power_log(p, a, c)
    f = bo.bergman.decay(eps, m)

    def check_plog(out, eps=eps, m=m, p=p, a=a, c=c):
        ref_phi = lambda t: t ** p * math.log(c + t) ** a
        mod = _decay_modular(ref_phi, eps, m, out.value)
        return abs(mod - 1.0) / LUX_CHECK_TOL

    tasks.append(Task(f"lux power_log({p:.3f},{a:.3f},{c:.3f})",
                      lambda f=f, phi=phi: bo.orlicz.luxembourg(
                          f, valpha, phi, tol=LUX_TOL), check_plog))

    trial_seed = int(rng.integers(0, 2 ** 31))
    plog = bo.growth.power_log(2.0, 1.0, 2.0)

    def run_trial():
        return bo.atoms.equivalence_experiment(plog, 0.0, 0.3, trials=1,
                                               seed=trial_seed)

    def check_trial(out):
        row = out["rows"][0]
        for key in ("norm_mu", "norm_F", "ratio_synth", "ratio_sample"):
            v = row[key]
            _require(math.isfinite(v) and v > 0, f"trial {key} = {v!r}")
        # the band the acceptance suite allows for these ratios
        for key in ("ratio_synth", "ratio_sample"):
            _require(1e-3 <= row[key] <= 1e3, f"trial {key} = {row[key]!r}")
        return 0.0

    tasks.append(Task("equivalence trial", run_trial, check_trial))
    return tasks


# --------------------------------------------------------------- pullback
# carleson.composition_check for triangular Mobius maps with
# phi1 = phi2 = t^2: the power route, each integrand integrated once, so
# per-panel overhead dominates.  The worst empirical ratio has a closed
# form: d/a for z -> (a z + b) / d with beta = alpha = 0.

PULLBACK_MAPS = {"identity": (1.0, 0.0, 0.0, 1.0),
                 "2z": (2.0, 0.0, 0.0, 1.0),
                 "z+1": (1.0, 1.0, 0.0, 1.0)}
PULLBACK_FAMILY = {"kernels": 2, "atoms": 1, "window": (2, 1),
                   "im_lo": 0.1, "support_size": 2}
PULLBACK_TOL = 1e-4


def pullback_round(bo, seed, r):
    rng = _rng(seed, r)
    t2 = bo.growth.power(2)
    tasks = []
    # every map once per round, in an order drawn from the seed
    for name in map(str, rng.permutation(sorted(PULLBACK_MAPS))):
        a, b, c, d = PULLBACK_MAPS[name]
        fam_seed = int(rng.integers(0, 2 ** 31))

        def run(coeffs=(a, b, c, d), fam_seed=fam_seed):
            return bo.carleson.composition_check(
                *coeffs, 0.0, t2, t2, family_spec=dict(PULLBACK_FAMILY),
                seed=fam_seed, tol=PULLBACK_TOL)

        def check(out, expected=d / a, name=name):
            _require(out.test_family_size == 3,
                     f"{name}: family size {out.test_family_size}")
            return _rel(out.empirical_ratio, expected) / PULLBACK_TOL

        tasks.append(Task(f"composition {name}", run, check))
    return tasks


# ---------------------------------------------------------------- lattice
# Lattice geometry only: build + covering_report on ~8k-point windows
# (min_separation and cover_counts, chunked O(n^2)), dense atom sums
# sampled on the same lattice, and a desk-scale decomposition.  No
# quadrature.

LATTICE_WINDOW = (100, 20)     # 201 x 41 = 8241 points
COVER_SAMPLES = 4000
CHECK_CHUNK = 16               # rows per brute-force block, kept small so
                               # that checks never set the peak memory
SAMPLE_ATOMS = 1000
SAMPLE_CHECK_POINTS = 64
SAMPLE_TOL = 1e-10
DECOMP_WINDOW = (8, 2)
DECOMP_TOL = 1e-4              # residual over the norm of F


def _cover_count_brute(px, py, xs, ys, radii):
    """Disks containing each point (strictly inside), over all point-disk pairs."""
    out = np.zeros(px.size, dtype=np.int64)
    for i in range(0, px.size, CHECK_CHUNK):
        rows = slice(i, i + CHECK_CHUNK)
        d2 = (px[rows, None] - xs) ** 2 + (py[rows, None] - ys) ** 2
        out[rows] = (d2 < radii * radii).sum(axis=1)
    return out


def _min_gap_brute(xs, ys, radii):
    """Minimum over all pairs i < j of center distance minus radius sum."""
    best = np.inf
    for i in range(0, xs.size - 1, CHECK_CHUNK):
        rows = slice(i, i + CHECK_CHUNK)
        gap = (np.hypot(xs[rows, None] - xs[i:], ys[rows, None] - ys[i:])
               - (radii[rows, None] + radii[i:]))
        # row k holds point i + k and column c point i + c: keep c > k
        gap[np.arange(gap.shape[1]) <= np.arange(gap.shape[0])[:, None]] = np.inf
        best = min(best, float(gap.min()))
    return best


def _atom_coeffs(entries, lat, alpha=0.0):
    """Centers and synthesis coefficients 2^(alpha+2) v 2^(j gamma (alpha+2))."""
    keys = sorted(entries, key=lambda k: (k[1], k[0]))
    centers = np.array([lat.points[k].z for k in keys])
    coef = np.array([2.0 ** (alpha + 2.0) * entries[k]
                     * 2.0 ** (k[1] * lat.gamma * (alpha + 2.0)) for k in keys])
    return centers, coef


def _kernel_matrix(z, w):
    """K(z_i, w_k) = ((z_i - conj w_k)/i)^-2, alpha = 0."""
    return ((z[:, None] - np.conj(w)[None, :]) / 1j) ** -2.0


def lattice_round(bo, seed, r):
    rng = _rng(seed, r)
    tasks = []
    delta = _stratum(rng, r, 0.3, 0.6)
    cover_seed = int(rng.integers(0, 2 ** 31))

    def run_cover():
        lat = bo.lattice.build(delta, LATTICE_WINDOW)
        return lat, bo.lattice.covering_report(lat, n_samples=COVER_SAMPLES,
                                               seed=cover_seed)

    def check_cover(out):
        lat, rep = out
        _require(rep.samples == COVER_SAMPLES, f"samples {rep.samples}")
        _, _, xs, ys = lat.index_arrays()
        # disjointness, recomputed over every pair of small disks
        gap = _min_gap_brute(xs, ys, lat.s_delta * ys)
        _require(gap > 0 and rep.disjoint_ok,
                 f"delta={delta:.4f}: gap {gap:.3g}, disjoint_ok {rep.disjoint_ok}")
        # every one of the report's own sample points (regenerated with the
        # same seed) recounted against every disk
        px, py = bo.lattice._sample_zone(lat, None, COVER_SAMPLES,
                                         np.random.default_rng(cover_seed))
        counts = _cover_count_brute(px, py, xs, ys, lat.delta * ys)
        fraction = float(np.mean(counts > 0))
        _require(fraction == 1.0 == rep.cover_fraction,
                 f"cover fraction {rep.cover_fraction}, recount {fraction}")
        _require(rep.max_overlap == int(counts.max()),
                 f"max overlap {rep.max_overlap}, recount {counts.max()}")
        return 0.0

    tasks.append(Task(f"cover delta={delta:.4f}", run_cover, check_cover))

    # two sampling tasks, so that the median task of a run is the median of
    # twice as many samplings
    for shift in (1, 2):
        sample_delta = _stratum(rng, r + shift, 0.3, 0.6)
        lat_s = bo.lattice.build(sample_delta, LATTICE_WINDOW)
        keys_all = sorted(lat_s.points)
        pick = rng.choice(len(keys_all), SAMPLE_ATOMS, replace=False)
        entries = {keys_all[i]: complex(rng.normal(), rng.normal()) for i in pick}
        check_at = rng.choice(len(keys_all), SAMPLE_CHECK_POINTS, replace=False)

        def run_sample(sample_delta=sample_delta, entries=entries):
            lat = bo.lattice.build(sample_delta, LATTICE_WINDOW)
            seq = bo.orlicz.LatticeSequence(entries, lat)
            return bo.atoms.sample(bo.bergman.atom_sum(seq, 0.0), lat)

        def check_sample(out, lat_s=lat_s, keys_all=keys_all, entries=entries,
                         check_at=check_at):
            centers, coef = _atom_coeffs(entries, lat_s)
            zs = np.array([lat_s.points[keys_all[i]].z for i in check_at])
            terms = _kernel_matrix(zs, centers) * coef
            ref, scale = terms.sum(axis=1), np.abs(terms).sum(axis=1)
            got = np.array([out.entries[keys_all[i]] for i in check_at])
            return float(np.max(np.abs(got - ref) / scale)) / SAMPLE_TOL

        tasks.append(Task(f"sample {SAMPLE_ATOMS} atoms delta={sample_delta:.4f}",
                          run_sample, check_sample))

    lat_d = bo.lattice.build(0.5, DECOMP_WINDOW)
    keys_d = sorted(lat_d.points)
    pick = rng.choice(len(keys_d), 6, replace=False)
    d_entries = {keys_d[i]: complex(rng.normal(), rng.normal()) for i in pick}

    def run_decompose():
        seq = bo.orlicz.LatticeSequence(d_entries, lat_d)
        return bo.atoms.decompose_l2(bo.bergman.atom_sum(seq, 0.0), lat_d, 0.0)

    def check_decompose(out):
        rec, residual = out
        full = {k: d_entries.get(k, 0.0) for k in rec.entries}
        centers, a = _atom_coeffs(full, lat_d)
        _, b = _atom_coeffs(rec.entries, lat_d)
        # <K_w, K_v> = K(v, w) / c_0 with reproducing constant c_0 = 1/pi
        gram = _kernel_matrix(centers, centers) * math.pi
        norm_f = math.sqrt(max(np.real(np.vdot(a, gram @ a)), 0.0))
        mine = math.sqrt(max(np.real(np.vdot(a - b, gram @ (a - b))), 0.0))
        _require(norm_f > 0, "zero test function")
        return max(mine, residual) / norm_f / DECOMP_TOL

    tasks.append(Task("decompose", run_decompose, check_decompose))
    return tasks


WORKLOADS = {
    "membership": membership_round,
    "lux-bisect": lux_round,
    "pullback": pullback_round,
    "lattice": lattice_round,
}
