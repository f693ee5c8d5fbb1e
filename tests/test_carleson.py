"""Tests for disk averages, Berezin transforms, and embedding verdicts.

Frozen reference numbers come from tools/oracles/integrals_oracle.py and
the closed Beta-product forms checked there.
"""

import json
import math
import weakref

import numpy as np
import pytest

from bergman_orlicz import bergman as B
from bergman_orlicz import carleson as C
from bergman_orlicz import growth as G
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import ParameterError
from bergman_orlicz.halfplane import (Box, CarlesonSquare, Disk, HPoint,
                                      integrate)
from bergman_orlicz.orlicz import (
    LatticeSequence,
    atomic_measure,
    density_measure,
    luxembourg,
    modular,
    seq_luxembourg,
    valpha_measure,
)

import quad_oracles as QO

T1 = G.power(1)
T2 = G.power(2)
SMALL_FAMILY = {"kernels": 6, "atoms": 3}



# Im(z)^2 int_{y0}^1 y^tau int_0^1 |x + iy - conj(z)|^-4 dx dy, as
# (y0, tau, z, value), from mpmath at 30 digits (box_transform in
# tools/oracles/integrals_oracle.py)
BOX_TRANSFORMS = [
    (2**-9, -0.8, 0.5+0.01j, 33.292106214791449),
    (2**-9, -0.8, 0.03+0.2j, 6.1641933564985569),
    (2**-9, -0.8, 1+0.05j, 11.067687597777799),
    (2**-9, -0.8, -0.7+0.3j, 0.17111569106711077),
    (2**-9, -0.8, 2.5+1j, 0.13264283275192556),
    (2**-9, -0.8, -10+0.01j, 2.9473870789557411e-8),
    (2**-9, -0.8, 11+0.01j, 2.9473870789557411e-8),
    (2**-9, -0.8, 11+2j, 0.0010799456026853276),
    (2**-9, -0.5, 0.5+0.01j, 6.8172116034719928),
    (2**-9, -0.5, 0.03+0.2j, 1.9574376279027846),
    (2**-9, -0.5, 1+0.05j, 2.799358192698605),
    (2**-9, -0.5, -0.7+0.3j, 0.076760563956888101),
    (2**-9, -0.5, 2.5+1j, 0.063918364793038824),
    (2**-9, -0.5, -10+0.01j, 1.5784098158805955e-8),
    (2**-9, -0.5, 11+0.01j, 1.5784098158805955e-8),
    (2**-9, -0.5, 11+2j, 0.00057383243164750737),
    (2**-9, -0.2, 0.5+0.01j, 1.4722339352079361),
    (2**-9, -0.2, 0.03+0.2j, 0.73042606985631864),
    (2**-9, -0.2, 1+0.05j, 0.78857656690882835),
    (2**-9, -0.2, -0.7+0.3j, 0.041931666724015072),
    (2**-9, -0.2, 2.5+1j, 0.037618719136337599),
    (2**-9, -0.2, -10+0.01j, 1.0236005703044745e-8),
    (2**-9, -0.2, 11+0.01j, 1.0236005703044745e-8),
    (2**-9, -0.2, 11+2j, 0.00036963091779651155),
    (0, -0.8, 0.5+0.01j, 240.64643808467861),
    (0, -0.8, 0.03+0.2j, 12.809963823063216),
    (0, -0.8, 1+0.05j, 33.198581688732421),
    (0, -0.8, -0.7+0.3j, 0.26510400385742609),
    (0, -0.8, 2.5+1j, 0.1978014477722371),
    (0, -0.8, -10+0.01j, 4.1376525820783452e-8),
    (0, -0.8, 11+0.01j, 4.1376525820783452e-8),
    (0, -0.8, 11+2j, 0.0015230342361586388),
    (0, -0.5, 0.5+0.01j, 18.504738176138815),
    (0, -0.5, 0.03+0.2j, 2.3644440327228694),
    (0, -0.5, 1+0.05j, 4.1358804424130605),
    (0, -0.5, -0.7+0.3j, 0.082543688649036601),
    (0, -0.5, 2.5+1j, 0.067928147748465064),
    (0, -0.5, -10+0.01j, 1.6516792428256548e-8),
    (0, -0.5, 11+0.01j, 1.6516792428256548e-8),
    (0, -0.5, 11+2j, 0.00060110710974614081),
    (0, -0.2, 0.5+0.01j, 2.530216146283151),
    (0, -0.2, 0.03+0.2j, 0.76943961434814005),
    (0, -0.2, 1+0.05j, 0.91548834046284911),
    (0, -0.2, -0.7+0.3j, 0.042487743371116395),
    (0, -0.2, 2.5+1j, 0.038004315759949308),
    (0, -0.2, -10+0.01j, 1.0306478545194186e-8),
    (0, -0.2, 11+0.01j, 1.0306478545194186e-8),
    (0, -0.2, 11+2j, 0.00037225424226386666),
]


def dirac_at(z, mass=1.0):
    return atomic_measure([(HPoint(z.real, z.imag), mass)])


# ---------------------------------------------------------------- averages


def test_average_point_mass_at_center():
    mu = dirac_at(1j)
    # disk D(i, 1/2) has V_0 area pi/4
    val = C.average(mu, HPoint(0.0, 1.0), 0.5)
    assert abs(val - 4.0 / math.pi) < 1e-10 * val


def test_average_of_ambient_weight_is_one():
    z = HPoint(0.3, 0.7)
    for alpha in (0.0, 1.0):
        mu = valpha_measure(alpha)
        val = C.average(mu, z, 0.5, alpha=alpha)
        assert abs(val - 1.0) < 1e-6


def test_average_misses_far_mass():
    mu = dirac_at(10.0 + 10.0j)
    assert C.average(mu, HPoint(0.0, 1.0), 0.5) == 0.0


def test_average_of_dilation_pullback():
    # measure of E = V_0(E/2) = area(E)/4, so every disk average is 1/4
    mu = O.mobius_measure(2.0, 0.0, 0.0, 1.0, 0.0)
    for z in (HPoint(0.0, 1.0), HPoint(-1.5, 0.4)):
        val = C.average(mu, z, 0.5)
        assert abs(val - 0.25) < 1e-6


# the square, and the strip of it above y = 1/4: the disks below meet
# neither bottom edge
@pytest.mark.parametrize("support", [
    CarlesonSquare(0.5, 1.0), Box(0.0, 1.0, 0.25, 1.0)])
def test_average_over_square_and_strip_supports(support):
    mu = valpha_measure(0.0, support)
    assert abs(C.average(mu, HPoint(0.5, 0.5), 0.3) - 1.0) < 1e-8
    assert C.average(mu, HPoint(1.5, 0.5), 0.3) == 0.0
    # the edge x = 1 halves a disk centred on it
    assert abs(C.average(mu, HPoint(1.0, 0.5), 0.3) - 0.5) < 1e-8


def test_average_of_a_disk_support_is_the_lens():
    # V_0 of the meet of D(i, 1/2) with D(0.3 + 0.7i, 0.21): the lens of two
    # circles, r1^2 acos(.) + r2^2 acos(.) - sqrt(.) / 2, from mpmath at 30
    # digits; the polar integral of the support's indicator raised
    # AccuracyError after 6,000 panels
    lens = 0.0946895681285372035
    mu = valpha_measure(0.0, Disk(HPoint(0.0, 1.0), 0.5))
    for tol in (1e-8, 1e-12):
        avg = C.average(mu, HPoint(0.3, 0.7), 0.3, tol=tol)
        assert abs(avg * math.pi * 0.21 ** 2 - lens) < tol * lens


def test_berezin_fn_carleson_square_is_the_box():
    zs = np.array([0.5 + 0.5j, 2.0 + 0.1j, -1.0 + 3.0j])
    square = C.berezin_fn(valpha_measure(-0.3, CarlesonSquare(0.5, 1.0)))(zs)
    box = C.berezin_fn(valpha_measure(-0.3, Box(0.0, 1.0, 0.0, 1.0)))(zs)
    assert [v.hex() for v in square] == [v.hex() for v in box]


def test_average_disk_ratio_out_of_range_rejected():
    with pytest.raises(ParameterError):
        C.average(dirac_at(1j), HPoint(0.0, 1.0), 1.2)


# ------------------------------------------------------- pointwise Berezin


def test_berezin_point_mass_exact():
    mu = dirac_at(1j)
    # y**2 / |i - conj(z)|**4
    assert abs(C.berezin(mu, HPoint(0.0, 1.0)) - 1.0 / 16.0) < 1e-12
    assert abs(C.berezin(mu, HPoint(0.0, 2.0)) - 4.0 / 81.0) < 1e-12
    # alpha = 1: y**3 / |i - conj(z)|**6
    assert abs(C.berezin(mu, HPoint(0.0, 1.0), alpha=1.0) - 1.0 / 64.0) < 1e-12


def test_berezin_of_ambient_weight_is_constant():
    mu = valpha_measure(0.0)
    for z in (HPoint(0.0, 1.0), HPoint(2.0, 0.3)):
        val = C.berezin(mu, z, tol=1e-8)
        assert abs(val - math.pi / 4.0) < 1e-6


def test_berezin_translation_pullback_matches_weight():
    # z -> z + 1 pulls V_beta back to itself; the quadrature route over the
    # pullback density must agree with the closed Beta-product transform.
    beta = 0.5
    mu = O.mobius_measure(1.0, 1.0, 0.0, 1.0, beta)
    z = HPoint(0.2, 0.8)
    via_engine = C.berezin(mu, z, tol=1e-8)
    closed = C.berezin_fn(density_measure(None, alpha=beta))(complex(z.x, z.y))
    assert abs(via_engine - closed) < 1e-5 * closed


# ------------------------------------------------------- Berezin as a map


def test_berezin_fn_whole_plane_weight_closed():
    fn = C.berezin_fn(valpha_measure(0.0))
    zs = np.array([1j, 2.0 + 0.5j, -3.0 + 4.0j])
    vals = np.asarray(fn(zs), dtype=float)
    assert np.all(np.abs(vals - math.pi / 4.0) < 1e-10)


def test_berezin_fn_weight_closed_vs_quadrature():
    mu = valpha_measure(1.0)
    z = HPoint(0.4, 1.3)
    closed = C.berezin_fn(mu)(complex(z.x, z.y))
    engine = C.berezin(mu, z, tol=1e-8)
    assert abs(closed - engine) < 1e-5 * abs(engine)


def test_berezin_fn_box_weight_vs_quadrature():
    z = HPoint(1.0, 1.0)
    box = Box(0.0, 2.0, 0.5, 3.0)
    for tau in (0.0, -0.5, 1.0):
        mu = density_measure(None, support=box, alpha=tau)
        closed = C.berezin_fn(mu)(complex(z.x, z.y))
        engine = C.berezin(mu, z, tol=1e-8)
        assert abs(closed - engine) < 1e-5 * abs(engine)


@pytest.mark.parametrize("y0", [2.0 ** -9, 0.0])
@pytest.mark.parametrize("tau", [-0.8, -0.5, -0.2])
def test_berezin_fn_box_matches_mpmath(y0, tau):
    # far points cancel in the x-integral, near ones lean on the y-rule
    rows = [(z, v) for r0, t, z, v in BOX_TRANSFORMS if (r0, t) == (y0, tau)]
    assert len(rows) == 8
    fn = C.berezin_fn(valpha_measure(tau, Box(0.0, 1.0, y0, 1.0)))
    got = fn(np.array([z for z, _ in rows]))
    ref = np.array([v for _, v in rows])
    assert np.max(np.abs(got - ref) / ref) < 1e-9


# (z, value): the same transform of y^-0.5 on Box(0, 1, 2^-9, 1) with
# alpha = 0.5, so Im(z)^2.5 and |.|^-5, from mpmath at 30 digits
# (box_transform in tools/oracles/integrals_oracle.py)
BOX_TRANSFORMS_ALPHA_HALF = [
    (0.5+0.01j, 36.725861924159792),
    (1+0.05j, 8.0784826676087764),
    (-0.7+0.3j, 0.039194803115390145),
    (2.5+1j, 0.028400049338739302),
    (0.5+30j, 0.00036644985437072244),
    (3+40j, 0.00017927977863685483),
    (11+0.01j, 1.5074513373852733e-10),
    (100+0.01j, 1.9602676606430234e-15),
    (1000+0.1j, 6.0601853356936055e-18),
]


def test_berezin_fn_box_with_weight_matches_mpmath():
    # m = 2.5: the x-integral is two tails far to the side of the box and
    # two heads above it or across it; a difference of antiderivatives
    # missed the last three by 4e-6, 13% and a factor of 11
    fn = C.berezin_fn(valpha_measure(-0.5, Box(0.0, 1.0, 2.0 ** -9, 1.0)),
                      alpha=0.5)
    got = fn(np.array([z for z, _ in BOX_TRANSFORMS_ALPHA_HALF]))
    ref = np.array([v for _, v in BOX_TRANSFORMS_ALPHA_HALF])
    assert np.max(np.abs(got - ref) / ref) < 1e-9


def test_berezin_fn_box_blocks_are_bit_stable():
    # a box density has no closed transform, so `berezin_fn` integrates
    # each point on its own (`berezin` at tol): a batch of eight 320-point
    # panels gives the bits of the panels one at a time.  The 2,560
    # integrals make this the slowest tier-1 test
    fn = C.berezin_fn(valpha_measure(-0.5, Box(0.0, 1.0, 0.0, 1.0)))
    rng = np.random.default_rng(11)
    z = rng.uniform(-3, 4, 2560) + 1j * rng.uniform(1e-3, 4, 2560)
    alone = np.concatenate([fn(z[i:i + 320]) for i in range(0, 2560, 320)])
    assert fn(z).tobytes() == alone.tobytes()


def test_berezin_fn_boundary_box_needs_integrable_weight():
    fn = C.berezin_fn(density_measure(None, Box(0.0, 1.0, 0.0, 1.0), -1.0))
    with pytest.raises(ParameterError, match="must exceed -1"):
        fn(0.5 + 0.5j)


def test_berezin_fn_dilation_pullback_constant():
    mu = O.mobius_measure(2.0, 0.0, 0.0, 1.0, 0.0)
    fn = C.berezin_fn(mu)
    zs = np.array([1j, 0.5 + 2.0j])
    vals = np.asarray(fn(zs), dtype=float)
    assert np.all(np.abs(vals - math.pi / 16.0) < 1e-10)
    engine = C.berezin(mu, HPoint(0.0, 1.0), tol=1e-8)
    assert abs(engine - math.pi / 16.0) < 1e-5


def test_berezin_fn_atomic_matches_pointwise():
    rng = np.random.default_rng(7)
    pm = [(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 2)), rng.uniform(0.1, 1))
          for _ in range(5)]
    mu = atomic_measure(pm)
    fn = C.berezin_fn(mu)
    zs = rng.uniform(-2, 2, 7) + 1j * rng.uniform(0.2, 2.5, 7)
    vec = np.asarray(fn(zs), dtype=float)
    for k, z in enumerate(zs):
        one = C.berezin(mu, HPoint(z.real, z.imag))
        assert abs(vec[k] - one) < 1e-12 * max(one, 1e-300)


# ----------------------------------------------------- transform membership


def test_membership_point_mass():
    # the cell of i is [0, 2) x [1, 2), with V_0 = 2, so its average is 1/2;
    # under Phi3 = t^2 / 4 its modular 2 (1/2 / lam)^2 / 4 is 1 at
    # lam = 1/sqrt(8), and no other cell holds mass
    member, lux = C.berezin_membership(dirac_at(1j), T2, T1)
    assert member
    assert abs(lux - 1.0 / math.sqrt(8.0)) <= 1e-15
    assert lux.hex() == "0x1.6a09e667f3bcdp-2"


def test_membership_zero_measure():
    # a custom weight has no cell masses in closed form
    zero = density_measure(lambda z: np.zeros(np.shape(z)),
                           support=Box(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(ParameterError, match="custom weight"):
        C.berezin_membership(zero, T2, T1)


def test_membership_inverse_height_density_fails():
    mu = density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0), alpha=-1.0)
    member, lux = C.berezin_membership(mu, T2, T1)
    assert not member
    assert lux > 1.0


def test_membership_stage_cap():
    mu = density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0), alpha=-1.0)
    member, lux = C.berezin_membership(mu, T2, T1, stage_max=2)
    assert not member
    assert lux > 0.0


# measures that a window around the origin would miss; each of these once
# returned (True, 0.0).  The cell window is anchored at the measure and
# holds its bbox, or the top half of a boundary bbox.
FAR_BOX = density_measure(None, support=Box(50.0, 51.0, 0.0, 1.0), alpha=-0.7)


@pytest.mark.parametrize("mu,stage_max,member", [
    (atomic_measure([(HPoint(0.1, 0.1), 1.0)]), None, True),
    (FAR_BOX, None, False),
    # a box below y = 1/4 has the unit box's verdicts: a member at tau
    # -0.3, none at -0.7
    (density_measure(None, support=Box(0.0, 0.25, 0.0, 0.25), alpha=-0.3),
     13, True),
    (density_measure(None, support=Box(0.0, 0.25, 0.0, 0.25), alpha=-0.7),
     13, False),
], ids=["atom", "far box", "small box -0.3", "small box -0.7"])
def test_membership_skips_stages_that_miss_the_measure(mu, stage_max, member):
    got, lux = C.berezin_membership(mu, T2, T1, stage_max=stage_max)
    assert got is member
    assert lux > 0.0


# float.hex of the membership values of the y^tau unit box under t^2 / t at
# the `membership` workload's settings (window reach 9, tol 1e-4), on three
# of its taus (seed 3, rounds 0 and 1).  The cell masses are closed, so
# these bits pin the row sums and the Luxembourg solve, after a QUADPACK
# sum over the window's cells (`quad_oracles.cell_lux_t2`) checks them.
MEMBERSHIP_PINS = [(-0.7914350832856376, False, "0x1.f581a0b5c2fa1p+1"),
                   (-0.3608771809504338, True, "0x1.9f4af33067323p-1"),
                   (-0.2413843287370412, True, "0x1.3fed50269a995p-1")]


@pytest.mark.parametrize("tau,member,pin", MEMBERSHIP_PINS,
                         ids=[f"{p[0]:.4f}" for p in MEMBERSHIP_PINS])
def test_bits_membership_workload(tau, member, pin):
    box = Box(0.0, 1.0, 0.0, 1.0)
    mu = density_measure(None, support=box, alpha=tau)
    got, lux = C.berezin_membership(mu, T2, T1, stage_max=9, tol=1e-4)
    ref = QO.cell_lux_t2(lambda y: (0.0, 1.0), lambda u0, u1: (), tau, 0.0,
                      0.5, 9, box.bbox)
    assert abs(lux - ref) <= 1e-12 * ref
    assert got is member
    assert lux.hex() == pin


@pytest.mark.parametrize("stage_max", [5, 6])
def test_membership_far_box_reads_as_the_unit_box(stage_max):
    # the cell grid is anchored at the support, so a box at x = 50 reads
    # as the unit box
    unit = density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0), alpha=-0.7)
    assert C.berezin_membership(FAR_BOX, T2, T1, stage_max=stage_max) == \
        C.berezin_membership(unit, T2, T1, stage_max=stage_max)


# ------------------------------------------------------- embedding verdicts


def test_embedding_point_mass_verdict():
    v = C.embedding_test(dirac_at(1j), T2, T1, family_spec={"kernels": 8,
                                                            "atoms": 4})
    holds, const = v.condition18
    assert holds
    assert abs(const - 1.0) < 1e-9
    assert v.ratio_monotone
    member, lux = v.berezin_in_phi3
    assert member and lux > 0.0
    assert 0.0 < v.empirical_ratio < 1.0
    assert v.boundary_growth < 1.0
    assert v.test_family_size == 12


def test_embedding_zero_measure_all_ratios_vanish():
    # under t^2 into t^2 condition (18) fails, so membership, which refuses
    # a custom weight, is not reached
    zero = density_measure(lambda z: np.zeros(np.shape(z)),
                           support=Box(0.0, 1.0, 0.0, 1.0))
    v = C.embedding_test(zero, T2, T2, family_spec=SMALL_FAMILY)
    assert v.empirical_ratio == 0.0
    assert v.boundary_growth is None


def test_embedding_no_loss_pair_skips_membership():
    v = C.embedding_test(dirac_at(1j), T2, G.power(3), family_spec=SMALL_FAMILY)
    holds, _ = v.condition18
    assert not holds
    assert v.berezin_in_phi3 == (None, None)
    obj = json.loads(json.dumps(C.verdict_to_json(v)))
    assert obj["berezin_in_phi3"] == {"member": None, "lux_value": None,
                                      "reason": "condition (18) fails"}


def test_embedding_empty_family_rejected():
    with pytest.raises(ParameterError):
        C.embedding_test(dirac_at(1j), T2, T1,
                         family_spec={"kernels": 0, "atoms": 0})


def test_embedding_verdict_json_round_trip():
    v = C.embedding_test(dirac_at(1j), T2, T1, family_spec=SMALL_FAMILY)
    obj = json.loads(json.dumps(C.verdict_to_json(v)))
    assert obj["condition18"]["holds"] is True
    assert obj["berezin_in_phi3"]["member"] is True
    assert obj["empirical_ratio"] == pytest.approx(v.empirical_ratio)


# ----------------------------------------------------------- pullback spec


def test_pullback_requires_positive_determinant():
    with pytest.raises(ParameterError):
        O.mobius_measure(1.0, 0.0, 0.0, -1.0, 0.0)


def test_pullback_requires_admissible_weight():
    with pytest.raises(ParameterError):
        O.mobius_measure(1.0, 2.0, 0.0, 2.0, -1.5)


def test_pullback_translation_change_of_variables():
    # modular(F(.+1); V_beta) = modular(F; pullback of z+1) by substitution
    beta = 0.5
    mu = O.mobius_measure(1.0, 1.0, 0.0, 1.0, beta)
    F = B.decay(1.0, 4)
    shifted = B.custom_fn(lambda z: F(np.asarray(z, dtype=complex) + 1.0))
    lhs = modular(shifted, valpha_measure(beta), T2, tol=1e-8)
    rhs = modular(F, mu, T2, tol=1e-8)
    assert abs(lhs - rhs) < 1e-6 * abs(rhs)


# ------------------------------------------------------------- composition


def test_composition_identity_is_isometry():
    v = C.composition_check(1.0, 0.0, 0.0, 1.0, 0.0, T2, T2,
                            family_spec=SMALL_FAMILY, seed=2)
    assert 0.99 < v.empirical_ratio <= 1.0 + 1e-3
    holds, _ = v.condition18
    assert not holds  # no-loss pair: the admissibility integral diverges


def test_composition_dilation_change_of_variables():
    # int |G(2z)|^2 dV_0 = (1/4) int |G|^2 dV_0, with the closed modular
    # of the decay function as an independent check on the pullback side.
    mu = O.mobius_measure(2.0, 0.0, 0.0, 1.0, 0.0)
    Gfn = B.decay(1.0, 4)
    comp = B.custom_fn(lambda z: Gfn(2.0 * np.asarray(z, dtype=complex)))
    lhs = modular(comp, valpha_measure(0.0), T2, tol=1e-8)
    rhs = modular(Gfn, mu, T2, tol=1e-8)
    assert abs(lhs - rhs) < 1e-4 * abs(rhs)
    exact = B.decay_modular_exact(1.0, 4, 2.0, 0.0) / 4.0
    assert abs(rhs - exact) < 1e-7 * exact


def test_composition_dilation_verdict_ratio_half():
    # lux over V_0/4 with a square growth function is half the space norm
    v = C.composition_check(2.0, 0.0, 0.0, 1.0, 0.0, T2, T2,
                            family_spec=SMALL_FAMILY, seed=2)
    assert abs(v.empirical_ratio - 0.5) < 1e-3


# float.hex of the worst empirical ratio of the benchmark's pullback maps
# (t^2, beta = alpha = 0), frozen before graded strips and split halves were
# evaluated in batches: batching must not move a bit.  Re-pinned when
# geometric tails were summed and when graded strips went to ratio 8,
# after a check against the exact ratio: the pullback of V_0 under
# z -> a z + b is V_0 / a^2, so the t^2 ratio is 1 / a for every member.
PULLBACK_FAMILY = {"kernels": 2, "atoms": 1, "window": (2, 1),
                   "im_lo": 0.1, "support_size": 2}
PULLBACK_PINS = [("identity", (1.0, 0.0, 0.0, 1.0), "0x1.00000267c48f7p+0"),
                 ("2z", (2.0, 0.0, 0.0, 1.0), "0x1.00000267c48f7p-1"),
                 ("z+1", (1.0, 1.0, 0.0, 1.0), "0x1.00000267c48f7p+0")]


@pytest.mark.parametrize("name,coeffs,pin", PULLBACK_PINS,
                         ids=[p[0] for p in PULLBACK_PINS])
def test_bits_composition_ratio(name, coeffs, pin):
    v = C.composition_check(*coeffs, 0.0, T2, T2,
                            family_spec=dict(PULLBACK_FAMILY), seed=0,
                            tol=1e-4)
    assert abs(v.empirical_ratio * coeffs[0] - 1.0) <= 1e-6
    assert v.empirical_ratio.hex() == pin


@pytest.mark.parametrize("coeffs,beta", [
    ((1.0, 0.0, 0.0, 1.0), 0.0), ((2.0, 0.0, 0.0, 1.0), 0.0),
    ((1.0, 1.0, 0.0, 1.0), 0.0), ((1.0, 1.0, 0.0, 1.0), 0.5),
], ids=["id", "2z", "z+1", "z+1 beta 0.5"])
def test_composition_legs_match_the_closed_form(coeffs, beta):
    # the whole-plane legs of the `composition` criterion: w = (a z + b) / d
    # has Im z = (d / a) Im w and dA(z) = (d / a)^2 dA(w), so both sides of
    # the substitution identity are (d / a)^(beta + 2) times the decay
    # family's closed modular
    a, b, c, d = coeffs
    F = B.decay(1.0, 4)
    exact = B.decay_modular_exact(1.0, 4, 2, beta) * (d / a) ** (beta + 2)

    def composed(z):
        z = np.asarray(z, complex)
        return np.abs(F((a * z + b) / (c * z + d))) ** 2

    lhs = integrate(composed, beta, None, tol=1e-8)
    rhs = modular(F, O.mobius_measure(a, b, c, d, beta), T2, tol=1e-8)
    assert abs(lhs - exact) <= 1e-10 * exact
    assert abs(rhs - exact) <= 1e-10 * exact


def test_composition_right_hand_side_evaluates_only_new_nodes(monkeypatch):
    # each member's 1e-6 right-hand side reads the panels of its 1e-4 norm
    # solve from their shared store and evaluates only nodes the solve did
    # not; its value keeps the bits of a fresh store's
    phase = ["solve"]
    nodes = {}  # (member, phase) -> node arrays fed to the member
    rhs = []
    call = B.AnalyticFn.__call__
    engine_modular = O._ModularEngine.modular

    def recorded(F, z):
        if phase[0] != "lhs":
            nodes.setdefault((id(F), phase[0]), []).append(
                np.ravel(np.asarray(z, dtype=complex)))
        return call(F, z)

    def right_hand_side(engine, phi, tol):
        if not engine.mu.mobius:  # the left-hand side's own store
            return engine_modular(engine, phi, tol)
        phase[0] = "rhs"
        try:
            v = engine_modular(engine, phi, tol)
        finally:
            phase[0] = "lhs"
        rhs.append(v)
        return v

    def left_hand_side(*args, **kwargs):
        try:
            return modular(*args, **kwargs)
        finally:
            phase[0] = "solve"

    monkeypatch.setattr(B.AnalyticFn, "__call__", recorded)
    monkeypatch.setattr(O._ModularEngine, "modular", right_hand_side)
    monkeypatch.setattr(C, "modular", left_hand_side)
    mu = O.mobius_measure(2.0, 0.0, 0.0, 1.0, 0.0)
    v = C.composition_check(2.0, 0.0, 0.0, 1.0, 0.0, T2, T2,
                            family_spec=dict(PULLBACK_FAMILY), seed=0,
                            tol=1e-4)
    assert v.empirical_ratio.hex() == PULLBACK_PINS[1][2]
    monkeypatch.undo()
    members = C._build_family(dict(PULLBACK_FAMILY), 0.0, 0)
    order = list(dict.fromkeys(k for k, _ in nodes))  # members as they ran
    assert len(rhs) == len(members) == len(order) == 3
    for (_, _, F), key, value in zip(members, order, rhs):
        solve = np.concatenate(nodes[key, "solve"])
        new = np.concatenate(nodes[key, "rhs"])
        both = np.concatenate([solve, new])
        assert new.size > 0
        assert np.unique(both).size == both.size
        # the solve's panels are a subset of a lone 1e-6 pass's
        fresh = O._ModularEngine(F, mu)
        assert value.hex() == fresh.modular(T2, 1e-6).hex()
        panels = sum(len(rects) for rects, _ in fresh.field.blocks())
        assert both.size == panels * (Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2)


def test_composition_releases_each_store_before_the_next(monkeypatch):
    # one pullback store is alive at a time, also for members past the
    # fifth (no cross-check) and through the verdict's own solves
    stores = []
    engine = O._ModularEngine
    verdict = C._verdict

    def dead():
        return all(ref() is None for ref in stores)

    def recorded(F, mu):
        assert dead()
        e = engine(F, mu)
        stores.append(weakref.ref(e))
        return e

    def checked(*args, **kwargs):
        assert dead()
        return verdict(*args, **kwargs)

    monkeypatch.setattr(C, "_ModularEngine", recorded)
    monkeypatch.setattr(C, "_verdict", checked)
    C.composition_check(2.0, 0.0, 0.0, 1.0, 0.0, T2, T2,
                        family_spec={"kernels": 7, "atoms": 0,
                                     "im_lo": 0.1}, tol=1e-2)
    assert len(stores) == 7


def test_composition_interior_shift_ratios_decay():
    # z -> z + i pulls V_0 back to its restriction to {y > 1}; kernels
    # concentrating at the boundary put almost no mass there, so the
    # ratio family decays instead of growing.
    shift = density_measure(None, support=Box(-50.0, 50.0, 1.0, 50.0),
                            alpha=0.0)
    v = C.embedding_test(shift, T2, T2, family_spec=SMALL_FAMILY, seed=2)
    assert v.boundary_growth < 0.1
    assert v.empirical_ratio < 1.0


# --------------------------------------------------------------- invariants


def test_average_dominated_by_berezin():
    # single reported constant over 10^3 random (z, atomic mu) pairs;
    # the geometric bound for s = 1/2, alpha = 0 is (2+s)^4/(pi s^2)
    rng = np.random.default_rng(42)
    s = 0.5
    bound = (2.0 + s) ** 4 / (math.pi * s * s)
    c1, engaged = 0.0, 0
    for _ in range(1000):
        n = int(rng.integers(1, 6))
        pm = [(HPoint(rng.uniform(-3, 3), rng.uniform(0.05, 3)),
               rng.uniform(0.1, 2.0)) for _ in range(n)]
        mu = atomic_measure(pm)
        z = HPoint(rng.uniform(-3, 3), rng.uniform(0.1, 3))
        avg = C.average(mu, z, s)
        if avg == 0.0:
            continue
        engaged += 1
        c1 = max(c1, avg / C.berezin(mu, z))
    assert engaged > 200
    assert c1 < bound


def _box_average_fn(s):
    # disk-average of V_0 restricted to the unit box, by chord integration
    gx, gw = np.polynomial.legendre.leggauss(64)

    def fn(w):
        w = np.asarray(w, dtype=complex)
        shp = w.shape
        cx, cy = w.real.ravel(), w.imag.ravel()
        r = s * cy
        x0 = np.maximum(cx - r, 0.0)
        x1 = np.minimum(cx + r, 1.0)
        half = 0.5 * (x1 - x0)
        mid = 0.5 * (x1 + x0)
        good = half > 0
        area = np.zeros_like(cx)
        if good.any():
            xs = mid[good, None] + half[good, None] * gx[None, :]
            dy = np.sqrt(np.maximum(
                r[good, None] ** 2 - (xs - cx[good, None]) ** 2, 0.0))
            lo = np.maximum(cy[good, None] - dy, 0.0)
            hi = np.minimum(cy[good, None] + dy, 1.0)
            area[good] = (np.maximum(hi - lo, 0.0)
                          * gw[None, :]).sum(axis=1) * half[good]
        return (area / (math.pi * r * r)).reshape(shp)

    return fn


def test_berezin_dominated_by_positive_op():
    # small-disk regime: the transform is controlled by the positive
    # Bergman operator applied to the averaging function
    s = 0.2
    mu = density_measure(None, support=Box(0.0, 1.0, 0.0, 1.0), alpha=0.0)
    tilde = C.berezin_fn(mu)
    hat = B.custom_fn(_box_average_fn(s))
    rng = np.random.default_rng(3)
    zs = rng.uniform(-2, 2, 50) + 1j * rng.uniform(0.05, 2.5, 50)
    tv = np.asarray(tilde(zs), dtype=float)
    c2 = 0.0
    for z, t in zip(zs, tv):
        # the positive Bergman operator: |K(z, .)| |hat| against dV
        p = B.reproducing_constant(0.0) * integrate(
            lambda w: np.abs(B.kernel(z, w, 0.0)) * np.abs(hat(w)), 0.0, None,
            tol=1e-3)
        c2 = max(c2, t / p)
    assert c2 < 10.0


def _atomic_average_fn(pts, ms, s):
    P = np.asarray(pts, dtype=complex)
    M = np.asarray(ms, dtype=float)

    def fn(w):
        w = np.asarray(w, dtype=complex)
        shp = w.shape
        wf = w.ravel()
        d2 = np.abs(wf[:, None] - P[None, :]) ** 2
        r2 = (s * wf.imag) ** 2
        mass = (M[None, :] * (d2 < r2[:, None])).sum(axis=1)
        return (mass / (math.pi * r2)).reshape(shp)

    return fn


def test_norm_comparability_average_vs_berezin():
    # lux of the averaging function and of the transform stay within a
    # bounded ratio across a family of 10 atomic measures
    rng = np.random.default_rng(11)
    s = 0.5
    va = valpha_measure(0.0)
    ratios = []
    for _ in range(10):
        n = int(rng.integers(2, 5))
        pts = [complex(rng.uniform(-2, 2), rng.uniform(0.2, 2))
               for _ in range(n)]
        ms = rng.uniform(0.2, 1.5, size=n)
        mu = atomic_measure([(HPoint(p.real, p.imag), m)
                             for p, m in zip(pts, ms)])
        lh = luxembourg(B.custom_fn(_atomic_average_fn(pts, ms, s)), va, T2,
                        tol=1e-3).value
        lt = luxembourg(B.custom_fn(C.berezin_fn(mu)), va, T2,
                        tol=1e-6).value
        ratios.append(lh / lt)
    ratios = np.asarray(ratios)
    assert np.all(ratios > 0.1) and np.all(ratios < 100.0)
    assert ratios.max() / ratios.min() < 10.0


def test_lattice_averaging_comparable_to_disk_norm():
    # fine-lattice samples of the small-disk average against the full
    # averaging-function norm; the mesh constraint is delta <= s/(2(s+v2))
    s, delta = 0.5, 0.13
    assert delta <= s / (2.0 * (s + math.sqrt(2.0)))
    lat = L.build(delta, (420, 2))
    rng = np.random.default_rng(5)
    pm = [(HPoint(rng.uniform(-0.8, 0.8), rng.uniform(0.998, 1.002)),
           rng.uniform(0.3, 1.0)) for _ in range(4)]
    mu = atomic_measure(pm)
    entries = {}
    for key, zp in lat.points.items():
        v = C.average(mu, zp, delta)
        if v:
            entries[key] = v
    assert entries
    lseq = seq_luxembourg(LatticeSequence(entries, lat), T2, 0.0).value
    pts = [p.z for p, _ in pm]
    ms = [m for _, m in pm]
    lfun = luxembourg(B.custom_fn(_atomic_average_fn(pts, ms, s)),
                      valpha_measure(0.0), T2, tol=1e-3).value
    assert lseq > 0.0 and lfun > 0.0
    assert 1e-3 < lseq / lfun < 1e3
