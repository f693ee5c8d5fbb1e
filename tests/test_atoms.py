"""Tests for atomic synthesis (`bergman.atom_sum`), sampling,
decomposition, and the Khintchine estimator."""

import numpy as np
import pytest

from bergman_orlicz import atoms, bergman, growth, lattice
from bergman_orlicz.errors import AccuracyError, ParameterError
from bergman_orlicz.orlicz import (LatticeSequence, _seq_arrays, luxembourg,
                                   seq_luxembourg, valpha_measure)

T2 = growth.power(2)


# ------------------------------------------------------------- synthesize

def test_synthesize_single_atom_center_value():
    lat = lattice.build(0.5, (4, 2))
    mu = LatticeSequence({(0, 0): 1.0}, lat)
    F = bergman.atom_sum(mu, 0.0)
    # center of the (0,0) cell is i; kernel there is 1/4, scale is 4
    assert F(1j) == pytest.approx(1.0, abs=1e-15)


def test_synthesize_self_values_match_sequence():
    lat = lattice.build(0.4, (3, 1))
    rng = np.random.default_rng(5)
    entries = {(l, j): complex(rng.normal(), rng.normal())
               for l in (-2, 0, 3) for j in (-1, 1)}
    mu = LatticeSequence(entries, lat)
    F = bergman.atom_sum(mu, 0.0)
    # the diagonal normalization makes each atom hit its own center
    # with value exactly mu_{l,j}; cross terms shift the total
    one = LatticeSequence({(3, 1): entries[(3, 1)]}, lat)
    F1 = bergman.atom_sum(one, 0.0)
    assert F1(lat.point(3, 1).z) == pytest.approx(entries[(3, 1)], rel=1e-14)


def test_synthesize_linear():
    lat = lattice.build(0.5, (4, 2))
    rng = np.random.default_rng(17)
    a = {(1, 0): 0.3 + 1j, (-2, 1): 0.5}
    b = {(1, 0): -1.0, (0, -1): 2.2j}
    keys = set(a) | set(b)
    comb = {k: a.get(k, 0) + 2.5 * b.get(k, 0) for k in keys}
    Fa = bergman.atom_sum(LatticeSequence(a, lat), 0.0)
    Fb = bergman.atom_sum(LatticeSequence(b, lat), 0.0)
    Fc = bergman.atom_sum(LatticeSequence(comb, lat), 0.0)
    z = rng.normal(size=20) + 1j * np.abs(rng.normal(size=20)) + 0.05j
    assert np.allclose(Fc(z), Fa(z) + 2.5 * Fb(z), rtol=1e-12)


def test_synthesize_rejects_alpha_at_most_minus_one():
    lat = lattice.build(0.5, (2, 1))
    mu = LatticeSequence({(0, 0): 1.0}, lat)
    for alpha in (-1.0, -1.5):
        with pytest.raises(ParameterError):
            bergman.atom_sum(mu, alpha)


@pytest.mark.parametrize("delta", [0.3, 0.5])
@pytest.mark.parametrize("alpha", [0.5, 1.5])
def test_atom_coefficient_is_scale_times_sequence_weight(delta, alpha):
    # synthesis and the sequence norm share one row weight, bit for bit
    lat = lattice.build(delta, (0, 20))
    scale = bergman.ATOM_COEF_BASE ** (alpha + 2.0)
    for j in range(-20, 21):
        seq = LatticeSequence({(0, j): 1.0}, lat)
        coef = bergman.atom_sum(seq, alpha).params["coeffs"][0]
        mags, weights = _seq_arrays(seq, alpha)
        assert mags[0] == 1.0 and coef == scale * weights[0], j


# ----------------------------------------------------------------- sample

def test_sample_kernel_center_entry():
    lat = lattice.build(0.5, (4, 2))
    K = bergman.kernel_fn(1j, 0.0)
    s = atoms.sample(K, lat)
    assert s.entries[(0, 0)] == pytest.approx(0.25, abs=1e-15)
    assert len(s.entries) == (2 * 4 + 1) * (2 * 2 + 1)


def test_sample_of_decay_has_finite_seq_norm():
    lat = lattice.build(0.5, (4, 2))
    G = bergman.decay(1.0, 4)
    s = atoms.sample(G, lat)
    r = seq_luxembourg(s, T2, 0.0)
    assert np.isfinite(r.value) and r.value > 0


# ------------------------------------------------------------- atom Gram

def test_gram_hermitian_and_psd():
    lat = lattice.build(0.5, (2, 1))
    _, _, _, g = atoms._gram(lat, 0.0)
    assert np.allclose(g, g.conj().T, rtol=1e-14)
    w = np.linalg.eigvalsh(g)
    assert w.min() > -1e-10 * w.max()


def test_gram_diagonal_closed_form():
    # ||atom_{l,j}||^2 = c^2 w_j^2 K(z,z)/c' with K(z,z) = (2y)^(-2-a)
    lat = lattice.build(0.5, (1, 1))
    alpha = 1.0
    keys, _, _, g = atoms._gram(lat, alpha)
    c_a = 2.0 ** (alpha + 2.0)
    cp = bergman.reproducing_constant(alpha)
    for i, (l, j) in enumerate(keys):
        y = lat.point(l, j).y
        w = 2.0 ** (j * lat.gamma * (alpha + 2.0))
        expect = c_a ** 2 * w ** 2 * (2 * y) ** (-alpha - 2.0) / cp
        assert g[i, i] == pytest.approx(expect, rel=1e-13)


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0])
def test_gram_form_is_the_synthesized_norm(alpha):
    # the Gram of the window's atoms and the norm of their atom sum are
    # one quadratic form
    lat = lattice.build(0.5, (3, 1))
    rng = np.random.default_rng(29)
    keys, _, _, g = atoms._gram(lat, alpha)
    u = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    F = bergman.atom_sum(LatticeSequence(dict(zip(keys, u)), lat), alpha)
    direct = bergman.atom_norm_sq(F.params["centers"], F.params["coeffs"],
                                  alpha)
    assert np.real(np.vdot(u, g @ u)) == pytest.approx(direct, rel=1e-12)


def test_gram_norm_matches_quadrature():
    lat = lattice.build(0.1, (6, 2))
    mu = LatticeSequence({(2, 1): 1.0 + 0.5j, (-3, 0): -0.7j}, lat)
    F = bergman.atom_sum(mu, 0.0)
    keys, _, _, g = atoms._gram(lat, 0.0)
    vec = np.array([mu.entries.get(k, 0.0) for k in keys], dtype=complex)
    gram = np.sqrt(np.real(np.vdot(vec, g @ vec)))
    quad = luxembourg(F, valpha_measure(0.0), T2).value
    assert gram == pytest.approx(quad, rel=1e-6)


# ----------------------------------------------------------- decompose_l2

def test_decompose_exact_recovery():
    lat = lattice.build(0.5, (1, 0))
    mu = LatticeSequence({(0, 0): 1.0}, lat)
    F = bergman.atom_sum(mu, 0.0)
    rec, res = atoms.decompose_l2(F, lat, alpha=0.0)
    assert rec.entries[(0, 0)] == pytest.approx(1.0, abs=1e-6)
    assert res <= 1e-6
    assert max(abs(v) for k, v in rec.entries.items() if k != (0, 0)) < 1e-6


def test_decompose_zero_function():
    lat = lattice.build(0.5, (1, 0))
    zero = lambda z: np.zeros_like(np.asarray(z, dtype=complex))
    rec, res = atoms.decompose_l2(zero, lat, alpha=0.0)
    assert max(abs(v) for v in rec.entries.values()) == 0.0
    assert res == 0.0


def _ridge_residual(F, lat, ridge=1e-10):
    """The residual a fixed ridge on the same Gram leaves: the
    reference the minimum-norm solve must not lose to."""
    keys, centers, w, g = atoms._gram(lat, 0.0)
    fvals = np.asarray(F(centers), dtype=complex)
    b = bergman.ATOM_COEF_BASE ** 2 * w * fvals \
        / bergman.reproducing_constant(0.0)
    coef = np.linalg.solve(g + ridge * np.eye(len(b)), b)
    recon = bergman.atom_sum(LatticeSequence(dict(zip(keys, coef)), lat), 0.0)
    q, scale = atoms._residual_sq(F, recon, 0.0)
    return np.sqrt(q) * scale


def test_decompose_ill_conditioned_gram_needs_no_ridge():
    # cond(g) is past 1e12 here; an unregularized solve used to refuse
    lat = lattice.build(0.5, (2, 1))
    G = bergman.decay(1.0, 4)
    rec, res = atoms.decompose_l2(G, lat, 0.0)
    assert np.isfinite(list(rec.entries.values())).all()
    assert np.linalg.cond(atoms._gram(lat, 0.0)[3]) > 1e12
    assert res < _ridge_residual(G, lat)


def test_decompose_atom_sums_no_worse_than_ridge():
    # seeded 6-atom sums on the `lattice` workload's (8, 2) window
    lat = lattice.build(0.5, (8, 2))
    keys = sorted(lat.points)
    worst, worst_ridge = 0.0, 0.0
    for seed in range(30):
        rng = np.random.default_rng(seed)
        pick = rng.choice(len(keys), 6, replace=False)
        mu = LatticeSequence({keys[i]: complex(rng.normal(), rng.normal())
                              for i in pick}, lat)
        F = bergman.atom_sum(mu, 0.0)
        norm = np.sqrt(bergman.atom_norm_sq(F.params["centers"],
                                            F.params["coeffs"]))
        _, res = atoms.decompose_l2(F, lat, 0.0)
        worst = max(worst, res / norm)
        worst_ridge = max(worst_ridge, _ridge_residual(F, lat) / norm)
    assert worst <= worst_ridge


def test_decompose_nan_samples_raise():
    lat = lattice.build(0.5, (1, 0))
    with pytest.raises(AccuracyError, match="decomposition"):
        atoms.decompose_l2(bergman.const_fn(float("nan")), lat, 0.0)


def test_decompose_residual_decreases_with_window():
    G = bergman.decay(1.0, 4)
    residuals = []
    for win in ((5, 2), (10, 3)):
        lat = lattice.build(0.5, win)
        _, r = atoms.decompose_l2(G, lat, alpha=0.0)
        residuals.append(r)
    assert residuals[1] < residuals[0]


def test_decompose_round_trip_in_span():
    # single-row window: multi-row atom Grams are intrinsically
    # near-singular here because adjacent rows nearly coincide
    lat = lattice.build(0.95, (2, 0))
    # window-interior support
    mu = LatticeSequence({(0, 0): 1.0, (1, 0): 0.5 - 0.25j, (-1, 0): 2.0j},
                         lat)
    F = bergman.atom_sum(mu, 0.0)
    rec, res = atoms.decompose_l2(F, lat, alpha=0.0)
    assert res <= 1e-6
    z = np.array([0.3 + 0.8j, -1.0 + 2.0j, 0.05j + 0.5])
    recon = bergman.atom_sum(rec, 0.0)
    assert np.allclose(recon(z), F(z), atol=1e-6)


def test_two_representation_consistency():
    small = lattice.build(0.95, (1, 0))
    big = lattice.build(0.95, (2, 0))
    mu = LatticeSequence({(0, 0): 1.0, (1, 0): -0.5j}, small)
    F = bergman.atom_sum(mu, 0.0)
    nu, res = atoms.decompose_l2(F, big, alpha=0.0)
    assert res <= 1e-8
    assert set(nu.entries) != set(mu.entries)
    n_mu = seq_luxembourg(mu, T2, 0.0).value
    n_nu = seq_luxembourg(nu, T2, 0.0).value
    ratio = n_nu / n_mu
    assert 1e-3 <= ratio <= 1e3


def test_absolute_sum_comparable_to_seq_norm():
    lat = lattice.build(0.4, (3, 1))
    rng = np.random.default_rng(23)
    l_max, j_max = lat.window
    ratios = []
    for _ in range(50):
        n = int(rng.integers(1, 4))
        entries = {}
        for _ in range(n):
            k = (int(rng.integers(-l_max, l_max + 1)),
                 int(rng.integers(-j_max, j_max + 1)))
            entries[k] = complex(rng.normal(), rng.normal())
        mu = LatticeSequence(entries, lat)
        centers = np.array([lat.points[k].z for k in entries])
        w = np.array([2.0 ** (k[1] * lat.gamma * 2.0) for k in entries])
        coefs = 4.0 * np.abs(np.array(list(entries.values()))) * w

        def abs_sum(z, c=centers, a=coefs):
            zf = np.asarray(z, dtype=complex)
            flat = np.atleast_1d(zf).ravel()
            out = (a * np.abs(bergman.kernel(flat[:, None], c[None, :], 0.0))
                   ).sum(axis=1)
            return out.reshape(zf.shape) if zf.shape else out[0]

        n_abs = luxembourg(abs_sum, valpha_measure(0.0), T2, tol=1e-6).value
        n_mu = seq_luxembourg(mu, T2, 0.0).value
        ratios.append(n_abs / n_mu)
    ratios = np.array(ratios)
    assert ratios.max() / ratios.min() < 1e3


# ------------------------------------------------- equivalence_experiment

def test_equivalence_ratios_bounded():
    rep = atoms.equivalence_experiment(T2, 0.0, 0.1, 25, seed=42)
    rs = np.array(rep["ratios_synth"])
    assert np.isfinite(rs).all()
    assert rs.max() / rs.min() <= 1e3
    assert len(rep["rows"]) == 25
    assert rep["summary"]["synth"]["min"] == pytest.approx(rs.min())


def test_equivalence_single_atom_deterministic_baseline():
    rep = atoms.equivalence_experiment(T2, 0.0, 0.1, 10, seed=3,
                                       support_size=1)
    rs = np.array(rep["ratios_synth"])
    # one atom: norm ratio collapses to a constant independent of the
    # site and the coefficient
    assert np.ptp(rs) < 1e-12
    assert rs[0] == pytest.approx(2.0 * np.sqrt(np.pi), rel=1e-12)


def test_equivalence_sampling_degrades_with_delta():
    lo = atoms.equivalence_experiment(T2, 0.0, 0.05, 25, seed=11)
    hi = atoms.equivalence_experiment(T2, 0.0, 0.3, 25, seed=11)
    assert hi["summary"]["sample"]["min"] < lo["summary"]["sample"]["min"]


def test_equivalence_determinism():
    a = atoms.equivalence_experiment(T2, 0.0, 0.1, 8, seed=9)
    b = atoms.equivalence_experiment(T2, 0.0, 0.1, 8, seed=9)
    assert a["ratios_synth"] == b["ratios_synth"]
    assert a["ratios_sample"] == b["ratios_sample"]


def test_equivalence_rejects_inadmissible_growth():
    with pytest.raises(ParameterError):
        atoms.equivalence_experiment(growth.power(1), 0.0, 0.1, 5, seed=0)


@pytest.mark.parametrize("trials", [0, -3])
def test_equivalence_rejects_no_trials(trials):
    with pytest.raises(ParameterError, match="trials"):
        atoms.equivalence_experiment(T2, 0.0, 0.1, trials, seed=0)


@pytest.mark.parametrize("support_size", [0, -2])
def test_equivalence_rejects_empty_supports(support_size):
    # rng.integers(1, support_size + 1) would fail with "low >= high"
    with pytest.raises(ParameterError, match="support_size"):
        atoms.equivalence_experiment(T2, 0.0, 0.1, 1, seed=0,
                                     support_size=support_size)


# ------------------------------------------------------ khintchine_check

def test_sampler_orthonormal_on_shifted_grid():
    s = atoms.RademacherSampler(256)
    ts = s.grid()
    for k in range(1, 9):
        for j in range(1, 9):
            dot = np.mean(s.signs(k, ts) * s.signs(j, ts))
            assert dot == pytest.approx(1.0 if k == j else 0.0, abs=1e-15)


def test_sampler_validates_grid():
    with pytest.raises(ParameterError):
        atoms.RademacherSampler(4)


def test_khintchine_square_single_entry_exact():
    m, lo, up = atoms.khintchine_check({(1, 1): 3.0}, T2)
    assert m == pytest.approx(3.0, abs=1e-13)
    assert lo <= m <= up


def test_khintchine_square_two_entries_exact():
    m, _, _ = atoms.khintchine_check({(1, 1): 1.0, (2, 2): 1.0}, T2)
    assert m == pytest.approx(np.sqrt(2.0), abs=1e-13)


def test_khintchine_empty():
    assert atoms.khintchine_check({}, T2) == (0.0, 0.0, 0.0)


@pytest.mark.parametrize("x", [{(-1, 1): 1.0, (-2, 1): 1.0},
                               {(0, 1): 1.0, (0, 2): 1.0},
                               {(1, 0): 1.0}])
def test_khintchine_rejects_constant_signs(x):
    # the sign function of an index k <= 0 is the constant 1
    s = atoms.RademacherSampler()
    assert np.all(s.signs(0, s.grid()) == 1.0)
    with pytest.raises(ParameterError, match="at least 1"):
        atoms.khintchine_check(x, T2)


def test_khintchine_quartic_sandwich_across_seeds():
    t4 = growth.power(4)
    for seed in (7, 8, 9):
        rng = np.random.default_rng(seed)
        x = {}
        while len(x) < 4:
            key = (int(rng.integers(1, 7)), int(rng.integers(1, 7)))
            x[key] = complex(rng.normal(), rng.normal())
        m, lo, up = atoms.khintchine_check(x, t4)
        assert lo <= m <= up
        assert up / lo < 2.0


def test_khintchine_coarse_grid_rejected():
    s = atoms.RademacherSampler(16)
    with pytest.raises(AccuracyError):
        atoms.khintchine_check({(9, 1): 1.0}, T2, s)
