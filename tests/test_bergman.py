"""Tests for the kernel, projection, and reference functions.

Frozen reference numbers come from tools/oracles/integrals_oracle.py.
"""

import hashlib
import tracemalloc

import mpmath
import numpy as np
import pytest

from bergman_orlicz import bergman as B
from bergman_orlicz import growth as G
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
from bergman_orlicz.errors import DivergenceError, ParameterError
from bergman_orlicz.halfplane import Disk, HPoint
from bergman_orlicz.halfplane import integrate as hp_integrate

GRAM_I_05_2I = 0.321273171294793 + 0.110150801586786j
NORMKERNEL_SQ_AT_I = 0.78539816339744830962


def test_kernel_values():
    assert B.kernel(1j, 1j, 0.0) == 0.25 + 0j
    assert abs(B.kernel(2j, 1j, 0.0) - 1.0 / 9.0) < 1e-15


def test_kernel_hermitian():
    rng = np.random.default_rng(3)
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.1, 4))
        a = rng.uniform(-0.5, 2.0)
        k1 = B.kernel(z, w, a)
        k2 = B.kernel(w, z, a)
        assert abs(k1 - np.conj(k2)) < 1e-12 * abs(k1)


def test_normalized_kernel_bound():
    assert abs(abs(B.normalized_kernel(1j, 1j)) ** 2 - 1.0 / 16.0) < 1e-15
    rng = np.random.default_rng(5)
    for _ in range(1000):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5))
        w = complex(rng.uniform(-3, 3), rng.uniform(0.05, 5))
        a = rng.uniform(-0.5, 2.0)
        assert abs(B.normalized_kernel(z, w, a)) ** 2 \
            <= abs(B.kernel(z, w, a)) * (1 + 1e-12)


def test_normalized_kernel_scaling():
    z, w = 0.7 + 1.3j, -0.2 + 0.5j
    r1 = abs(B.normalized_kernel(z, w)) ** 2 / abs(B.kernel(z, w))
    r2 = abs(B.normalized_kernel(2 * z, 2 * w)) ** 2 \
        / abs(B.kernel(2 * z, 2 * w))
    assert abs(r1 - r2) < 1e-12 * r1


def test_normalized_kernel_unit_norm():
    # frozen: squared norm of k(., i) against dV is pi/4
    f = B.normalized_kernel_fn(HPoint(0.0, 1.0), 0.0)
    v = O.modular(f, O.valpha_measure(0.0), G.power(2))
    assert abs(v - NORMKERNEL_SQ_AT_I) / NORMKERNEL_SQ_AT_I < 1e-6


def test_decay_modular_exact():
    assert abs(B.decay_modular_exact(1, 3, 2, 0) - 3 * np.pi / 32) < 1e-14
    # eps scaling exponent is -(2 + alpha)
    assert abs(B.decay_modular_exact(2, 3, 2, 1)
               - B.decay_modular_exact(1, 3, 2, 1) * 2.0 ** -3.0) < 1e-15
    with pytest.raises(DivergenceError):
        B.decay_modular_exact(1, 2, 1, 0)


def test_decay_modular_matches_quadrature():
    ref = B.decay_modular_exact(1, 3, 2, 1)
    v = O.modular(B.decay(1, 3), O.valpha_measure(1.0), G.power(2))
    assert abs(v - ref) / ref < 1e-6


def test_decay_validation():
    with pytest.raises(ParameterError):
        B.decay(0.0, 3)
    with pytest.raises(ParameterError):
        B.decay(1.0, -1)


def test_project_reproduces_decay():
    v = B.project(B.decay(1, 4), 1j, 0.0, tol=1e-6)
    assert abs(v - 1.0 / 16.0) / (1.0 / 16.0) < 1e-3
    assert abs(v.imag) < 1e-6


def test_project_zero():
    z0 = B.custom_fn(lambda z: np.zeros_like(z, dtype=complex))
    assert abs(B.project(z0, 1j, 0.0, tol=1e-6)) < 1e-12


def test_gram_entry_frozen():
    # frozen: mpmath double integral of K(., i) against conj K(., 0.5+2i)
    w2 = 0.5 + 2j
    v = hp_integrate(lambda z: B.kernel(z, 1j) * np.conj(B.kernel(z, w2)),
                     0.0, None, tol=1e-8)
    assert abs(v - GRAM_I_05_2I) / abs(GRAM_I_05_2I) < 1e-6
    closed = B.kernel(w2, 1j) / B.reproducing_constant(0.0)
    assert abs(closed - GRAM_I_05_2I) / abs(GRAM_I_05_2I) < 1e-12


def test_atom_norm_sq_against_frozen_gram():
    # |a|^2 |K_i|^2 + |b|^2 |K_w|^2 + 2 Re(a conj(b) <K_i, K_w>) with the
    # diagonal norms pi/4, pi/16 and the frozen mpmath cross term
    w2 = 0.5 + 2j
    a, b = 1.5 - 0.5j, -0.25 + 2j
    ref = abs(a) ** 2 * np.pi / 4 + abs(b) ** 2 * np.pi / 16 \
        + 2 * (a * np.conj(b) * GRAM_I_05_2I).real
    v = B.atom_norm_sq(np.array([1j, w2]), np.array([a, b]), 0.0)
    assert abs(v - ref) / ref < 1e-12


def test_project_reproduces_atom_sum():
    lat = L.build(0.5, (2, 2))
    F = B.atom_sum(O.LatticeSequence({(0, 0): 1.0, (1, 1): 0.5j}, lat), 0.0)
    for z in [0.5 + 0.8j, 2j]:
        v = B.project(F, z, 0.0, tol=1e-6)
        ref = F(z)
        assert abs(v - ref) / abs(ref) < 1e-4


def test_atom_sum_self_values():
    lat = L.build(0.5, (3, 3))
    for alpha in [0.0, 1.0]:
        seq = O.LatticeSequence({(2, -1): 1.25}, lat)
        F = B.atom_sum(seq, alpha)
        z = lat.point(2, -1).z
        assert abs(F(z) - 1.25) < 1e-12


def test_mean_value_inequality():
    # values of Phi(|F|) near z are controlled by the disk average
    phi = G.power(2)
    F = B.decay(1, 4)
    s = 0.2
    rng = np.random.default_rng(13)
    cs = []
    for _ in range(50):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        rho = rng.uniform(0, 0.5 * s) * z.imag
        th = rng.uniform(-np.pi, np.pi)
        w = z + rho * np.exp(1j * th)
        disk = Disk(HPoint(z.real, z.imag), 0.5)
        avg = O.modular(lambda u: np.abs(F(u)), O.valpha_measure(0.0, disk),
                        phi, tol=1e-6)
        lhs = phi(abs(F(w)))
        cs.append(lhs / (z.imag ** -2.0 * avg))
    c = max(cs)
    assert np.isfinite(c)
    assert c < 10.0


def test_oscillation_inequality():
    phi = G.power(2)
    F = B.decay(1, 4)
    s = 0.2
    rng = np.random.default_rng(17)
    cs = []
    for _ in range(30):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.3, 2.5))
        rho = rng.uniform(0, 0.25 * s) * z.imag
        th = rng.uniform(-np.pi, np.pi)
        w = z + rho * np.exp(1j * th)
        disk = Disk(HPoint(z.real, z.imag), 0.5)
        mu = O.density_measure(lambda u: np.imag(u) ** -2.0, disk)
        weighted = O.modular(lambda u: np.abs(F(u)), mu, phi, tol=1e-6)
        lhs = phi(abs(F(z) - F(w)))
        if lhs > 0:
            cs.append(lhs / weighted)
    c = max(cs)
    assert np.isfinite(c)
    assert c < 10.0


def test_positive_op_l2_bounded():
    # smoke: the absolute-kernel operator keeps L2 norms comparable for
    # bumps on a fixed box, all integrals on one tensor Gauss rule
    rng = np.random.default_rng(29)
    nodes, weights = np.polynomial.legendre.leggauss(24)
    x = 0.5 * (nodes + 0.0) * 4 + 0.0   # [-2, 2]
    wx = weights * 2.0
    y = 0.5 * (nodes + 1.0) * 1.0 + 0.5  # [0.5, 1.5]
    wy = weights * 0.5
    X, Y = np.meshgrid(x, y)
    W = np.outer(wy, wx)
    pts = (X + 1j * Y).ravel()
    wq = W.ravel()
    c0 = B.reproducing_constant(0.0)
    ratios = []
    for _ in range(10):
        a = rng.uniform(0.5, 3)
        z0 = complex(rng.uniform(-1, 1), rng.uniform(0.7, 1.3))
        fv = np.exp(-a * np.abs(pts - z0) ** 2)
        norm_f = np.sqrt(np.sum(wq * fv ** 2))
        kmat = np.abs((pts[:, None] - np.conj(pts[None, :])) / 1j) ** -2.0
        pf = c0 * kmat @ (wq * fv)
        norm_pf = np.sqrt(np.sum(wq * pf ** 2))
        ratios.append(norm_pf / norm_f)
    assert np.isfinite(max(ratios))
    assert max(ratios) < 50.0


def test_fn_json_round_trip():
    lat = L.build(0.5, (2, 2))
    seq = O.LatticeSequence({(0, 0): 1 + 2j, (1, -1): 0.5}, lat)
    cases = [
        ({"kernel": {"wx": 0.0, "wy": 1.0, "alpha": 0.0}},
         B.kernel_fn(HPoint(0.0, 1.0), 0.0)),
        ({"normalized_kernel": {"wx": 0.5, "wy": 2.0, "alpha": 1.0}},
         B.normalized_kernel_fn(HPoint(0.5, 2.0), 1.0)),
        ({"g": {"eps": 1.0, "m": 3.0}}, B.decay(1.0, 3.0)),
        ({"atoms": {**B.sequence_to_json(seq), "alpha": 0.0}},
         B.atom_sum(seq, 0.0)),
    ]
    for doc, F in cases:
        F2 = B.fn_from_json(doc)
        for z in [1j, 0.3 + 0.7j, -2 + 5j]:
            assert abs(F(z) - F2(z)) <= 1e-12 * max(1.0, abs(F(z)))
    with pytest.raises(ParameterError):
        B.fn_from_json({"mystery": {}})


def test_atom_sum_json_keeps_gamma():
    # a non-midpoint gamma moves every lattice point off the default rows
    lo, hi = L.gamma_interval(0.5)
    lat = L.build(0.5, (3, 2), lo + 0.1 * (hi - lo))
    F = B.atom_sum(O.LatticeSequence({(0, 0): 1.0, (1, 2): 0.5j,
                                      (-2, -1): -0.3}, lat), 0.5)
    seq = F.params["seq"]
    doc = {"atoms": {**B.sequence_to_json(seq), "alpha": 0.5}}
    assert doc["atoms"]["gamma"] == lat.gamma
    F2 = B.fn_from_json(doc)
    assert F2.params["seq"].lattice == lat
    z = 0.3 + 0.7j
    assert F2(z) == F(z)
    assert B.sequence_from_json(B.sequence_to_json(seq)) == seq


# ------------------------------------------------------------- atom sums

def _direct_atom_sum(F, z):
    """The atom sum at one point from mpmath terms at 30 digits, with the
    sum of the terms' moduli."""
    expo = mpmath.mpf(F.params["expo"])
    total, scale = mpmath.mpc(0), mpmath.mpf(0)
    with mpmath.workdps(30):
        for c, a in zip(F.params["centers"], F.params["coeffs"]):
            term = mpmath.mpc(a) * ((mpmath.mpc(z) - mpmath.conj(c)) / 1j) \
                ** -expo
            total += term
            scale += abs(term)
    return complex(total), float(scale)


@pytest.mark.parametrize("alpha", [0.0, 1.0, 0.5])
def test_atom_sum_matches_direct_sum(alpha):
    # expo 2 and 3 take the exact integer powers, 2.5 the complex power
    lat = L.build(0.45, (12, 3))
    rng = np.random.default_rng(7)
    keys = sorted(lat.points)
    pick = rng.choice(len(keys), 40, replace=False)
    seq = O.LatticeSequence({keys[i]: complex(rng.normal(), rng.normal())
                             for i in pick}, lat)
    F = B.atom_sum(seq, alpha)
    zs = [lat.points[keys[i]].z for i in rng.choice(len(keys), 12)]
    zs += [0.3 + 1e-3j, -40 + 0.5j, 2 + 30j]
    got = F(np.array(zs))
    for z, v in zip(zs, got):
        ref, scale = _direct_atom_sum(F, z)
        assert abs(v - ref) <= 1e-13 * scale


@pytest.fixture(scope="module")
def window_atom_sum():
    """A 1,000-atom sum and the 8,241 points of its lattice window."""
    lat = L.build(0.45, (100, 20))
    rng = np.random.default_rng(20261017)
    keys = sorted(lat.points)
    pick = rng.choice(len(keys), 1000, replace=False)
    seq = O.LatticeSequence({keys[i]: complex(rng.normal(), rng.normal())
                             for i in pick}, lat)
    zs = np.array([lat.points[k].z for k in L.row_major(lat.points)])
    return B.atom_sum(seq, 0.0), zs


def test_atom_sum_point_values_do_not_depend_on_the_batch(window_atom_sum):
    F, zs = window_atom_sum
    whole = F(zs)
    for i in (0, 1, 2000, 5003, zs.size - 7):
        part = F(zs[i:i + 7])
        assert [v.hex() for v in part.view(float)] == \
            [v.hex() for v in whole[i:i + 7].view(float)]
        alone = F(zs[i])
        assert [alone.real.hex(), alone.imag.hex()] == \
            [whole[i].real.hex(), whole[i].imag.hex()]


def test_atom_sum_memory_stays_in_chunks(window_atom_sum):
    F, zs = window_atom_sum
    tracemalloc.start()
    try:
        F(zs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8e6


# (alpha, atoms, sha256 prefix of the values on the 8,241-point window,
# float.hex of the value at window point 5003), frozen from the
# (points x atoms) block evaluation with its numpy row sums: exact powers
# at alpha = 0 and 1, the complex power at alpha = 0.5
ATOM_SUM_PINS = [
    (0.0, 1, "3c9607f325621b86", "0x1.ad5213ccb5aa3p-8", "0x1.2e7d06c39a975p-2"),
    (0.0, 2, "d4b7d7154ebce1f6", "0x1.d6d53271092fbp-1", "-0x1.c44dde9390780p-1"),
    (0.0, 3, "74de74aa7e117949", "-0x1.26297a61de56ap+0", "-0x1.255c8c4f21f22p+0"),
    (0.0, 5, "3b738af9d4c767f0", "-0x1.154f1de22feebp-1", "0x1.68dd1d04f2b28p-1"),
    (0.0, 8, "1ea3cbf3f4589e82", "-0x1.da44f47e1d108p+0", "-0x1.af4fb0fc07aabp+0"),
    (0.0, 70, "f7ca35f3e56546ed", "-0x1.78d01d2cdd56cp+1", "0x1.51c8f8652de9ap+2"),
    (0.0, 1000, "384d715e70d2d888", "0x1.1a37b2842617cp+3", "0x1.fd67db0ac4e26p+2"),
    (1.0, 1, "0ba01b863be3f816", "-0x1.e6e1a27eb4c51p-4", "0x1.33b91056b8052p-3"),
    (1.0, 2, "0978a693d7a56ca4", "0x1.7ca9e962973f4p-1", "-0x1.69ed5f290cd1ep-2"),
    (1.0, 3, "1852a234560749c6", "-0x1.65e6279571f5cp-1", "-0x1.645f1d2a7960cp+0"),
    (1.0, 5, "900bc42299b2fb05", "-0x1.9d3af4457b649p-1", "0x1.acf145ac0ca86p-3"),
    (1.0, 8, "93ce7cc1031059ef", "-0x1.fe470a40d3980p-1", "-0x1.1852381295b05p+1"),
    (1.0, 70, "f9d9472e4a64874c", "-0x1.e05ab34caf186p+1", "0x1.6c9bfd34425efp+1"),
    (1.0, 1000, "bcbd12b4a804a644", "0x1.a173c2e8e1fa4p+2", "0x1.1054cbc7338afp+3"),
    (0.5, 1, "b0bb520cd96877db", "-0x1.35d9d2d8318aap-4", "0x1.cdfcff91eb0eep-3"),
    (0.5, 2, "fa6e9923ea80df70", "0x1.b1caa1fd89366p-1", "-0x1.12bae598a52fcp-1"),
    (0.5, 3, "267800d316d49520", "-0x1.eb7441cc6ba7ap-1", "-0x1.505012c459ae1p+0"),
    (0.5, 5, "7a9edb6068b1eb8e", "-0x1.75cf962ed0687p-1", "0x1.f2a059d377640p-2"),
    (0.5, 8, "76b19e1b028bf4fc", "-0x1.71cc7c43bb292p+0", "-0x1.0c2d89a6349b0p+1"),
    (0.5, 70, "8a91fd1bebf01127", "-0x1.adf9af427f862p+1", "0x1.fbcc43f02beb1p+1"),
    (0.5, 1000, "948846a89085fd22", "0x1.02c4631efb5bfp+3", "0x1.0b80a799888f4p+3"),
]


@pytest.mark.parametrize("alpha,atoms,digest,re_hex,im_hex", ATOM_SUM_PINS,
                         ids=[f"a{p[0]}-n{p[1]}" for p in ATOM_SUM_PINS])
def test_bits_atom_sum_per_atom_loop(alpha, atoms, digest, re_hex, im_hex):
    # the window's values keep their bits at every atom count, on either
    # side of the 4-term and 64-term steps of the pairwise sum, and slices
    # of 1, 2 and 7 points, some across a chunk edge, and a lone point
    # give the window's bits
    lat = L.build(0.45, (100, 20))
    keys = sorted(lat.points)
    zs = np.array([lat.points[k].z for k in L.row_major(lat.points)])
    rng = np.random.default_rng([20261019, atoms])
    pick = rng.choice(len(keys), atoms, replace=False)
    seq = O.LatticeSequence({keys[i]: complex(rng.normal(), rng.normal())
                             for i in pick}, lat)
    F = B.atom_sum(seq, alpha)
    whole = F(zs)
    assert hashlib.sha256(whole.tobytes()).hexdigest()[:16] == digest
    assert [whole[5003].real.hex(), whole[5003].imag.hex()] == \
        [re_hex, im_hex]
    for i in (0, 1, 4094, 5003, zs.size - 7):
        for width in (1, 2, 7):
            assert F(zs[i:i + width]).tobytes() == \
                whole[i:i + width].tobytes()
    lone = F(zs[5003])
    assert [lone.real.hex(), lone.imag.hex()] == [re_hex, im_hex]


def test_atom_sum_keeps_input_shapes():
    lat = L.build(0.5, (3, 2))
    F = B.atom_sum(O.LatticeSequence({(0, 0): 1.0, (1, -1): 0.5j}, lat), 0.5)
    z = np.array([[1j, 0.5 + 2j, -1 + 0.1j], [3j, 0.2j, 1 + 1j]])
    grid = F(z)
    assert grid.shape == (2, 3)
    assert F(z[0]).shape == (3,)
    assert F(z[0]).tobytes() == grid[0].tobytes()
    v = F(0.5 + 2j)
    assert np.ndim(v) == 0 and v == grid[0, 1]
    assert F(np.array(0.5 + 2j)) == v
