"""Membership of a measure's dyadic-cell averages in the derived Orlicz class.

`carleson.berezin_membership` sums over the cells
Q = [b + m 2^-k, b + (m+1) 2^-k) x [2^-k-1, 2^-k).  Each test compares it
with a reference that does not use that route: a QUADPACK sum over every
window cell, a closed form, or the same measure moved by a translation or
a dilation.  Under t^2 into t the derived function is t^2 / 4, and the
rows of y^tau on a boundary box decay at the ratio 2^-(1+2 tau), so the
flip sits at tau = -1/2; the tail rule reads ratios from 0.995 up as
divergent, which puts the computed flip at -0.4964.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz import carleson as C
from bergman_orlicz import growth as G
from bergman_orlicz import orlicz as O
from bergman_orlicz.errors import ParameterError
from bergman_orlicz.halfplane import Box, Disk, HPoint

import quad_oracles as QO

T1, T2 = G.power(1), G.power(2)
UNIT = Box(0.0, 1.0, 0.0, 1.0)
REL = 1e-12


def _box(tau, box=UNIT):
    return O.density_measure(None, support=box, alpha=tau)


def box_reference(box, tau, K):
    x0, x1, y0, y1 = box.bbox
    return QO.cell_lux_t2(lambda y: (x0, x1), lambda u0, u1: (), tau, 0.0,
                          0.5 * (x0 + x1), K, box.bbox)


def disk_reference(disk, tau, K):
    c, r = disk.center, disk.radius

    def section(y):
        half = math.sqrt(max(r * r - (y - c.y) ** 2, 0.0))
        return c.x - half, c.x + half

    def kinks(u0, u1):  # where the chord's ends cross the cell's sides
        return [c.y + s * math.sqrt(r * r - (u - c.x) ** 2)
                for u in (u0, u1) if abs(u - c.x) < r for s in (-1, 1)]

    x0, x1, _, _ = disk.bbox
    return QO.cell_lux_t2(section, kinks, tau, 0.0, 0.5 * (x0 + x1), K,
                          disk.bbox)


@pytest.mark.parametrize("K", [5, 9])
@pytest.mark.parametrize("tau", [-0.7, -0.3])
def test_unit_box_value_is_the_cell_sum(tau, K):
    member, lux = C.berezin_membership(_box(tau), T2, T1, stage_max=K)
    ref = box_reference(UNIT, tau, K)
    assert abs(lux - ref) <= REL * ref
    # the rows past the window decay at 2^-(1+2 tau)
    assert member is (2.0 ** -(1 + 2 * tau) < 0.995)


def test_disk_value_is_the_cell_sum():
    disk = Disk(HPoint(0.3, 0.5), 0.9)
    member, lux = C.berezin_membership(O.valpha_measure(-0.3, disk), T2, T1,
                                       tol=1e-12)
    ref = disk_reference(disk, -0.3, C.MEMBERSHIP_STAGE_MAX)
    assert abs(lux - ref) <= REL * ref
    assert member


def _flip(phi1, stage_max, steps):
    lo, hi = -0.8, -0.2
    for _ in range(steps):
        mid = 0.5 * (lo + hi)
        if C.berezin_membership(_box(mid), phi1, T1, stage_max=stage_max)[0]:
            hi = mid
        else:
            lo = mid
    return lo, hi


@pytest.mark.parametrize("stage_max", [9, 13])
def test_t2_over_t_flip_is_near_minus_half(stage_max):
    lo, hi = _flip(T2, stage_max, 12)
    assert -0.5 <= lo < hi <= -0.49


def test_power_log_flip_is_pinned():
    # Phi3 behaves like t^2 / log t here, so theory puts the flip at -1/2
    # too.  The rows' log factor makes the tail near the flip nearly
    # harmonic: -0.5 reads as divergent after about 200 rings, and at -0.49
    # the rings run out undecided (AccuracyError).  Four bisection steps
    # stay clear of that and report the flip in [-0.5, -0.4625].
    assert _flip(G.power_log(2, 1, 2), None, 4) == (-0.5, -0.4625)


@pytest.mark.parametrize("stage_max,tol", [(None, 1e-6), (9, 1e-4)])
@pytest.mark.parametrize("tau,box,member", [
    (-0.3, UNIT, True),
    (-0.3, Box(50.0, 51.0, 0.0, 1.0), True),
    (-0.3, Box(0.0, 0.25, 0.0, 0.25), True),
    (-0.2125, UNIT, True),
    # as the doubling-stage rule read them at 7, 9 and 13 stages
    (-0.8, UNIT, False),
    (-0.2, UNIT, True),
], ids=["-0.3 unit", "-0.3 far", "-0.3 small", "-0.2125", "-0.8", "-0.2"])
def test_verdicts_away_from_the_flip(tau, box, member, stage_max, tol):
    got, lux = C.berezin_membership(_box(tau, box), T2, T1,
                                    stage_max=stage_max, tol=tol)
    assert got is member
    assert lux > 0.0


def test_triangular_pullback_is_its_closed_row_sum():
    a, d, beta = 2.0, 1.0, 0.5
    mu = O.mobius_measure(a, 1.0, 0.0, d, beta)
    member, lux = C.berezin_membership(mu, T2, T1)
    assert not member
    # row k of B_K holds 2^(K+k+1) cells, each with V_0 = h^2 / 2 and mass
    # (d/a)^(beta+2) h^(2+beta) (1 - 2^-(1+beta)) / (1+beta)
    K, total = C.MEMBERSHIP_STAGE_MAX, 0.0
    for k in range(-K, K):
        h = 2.0 ** -k
        vol = h * h / 2.0
        mass = ((d / a) ** (beta + 2.0) * h ** (2.0 + beta)
                * (1.0 - 2.0 ** -(1.0 + beta)) / (1.0 + beta))
        total += 2.0 ** (K + k + 1) * mass * mass / vol
    ref = math.sqrt(total / 4.0)
    assert abs(lux - ref) <= REL * ref


@pytest.mark.parametrize("mu", [
    O.density_measure(lambda z: 1.0 + 0.0 * z.real, support=UNIT),
    O.mobius_measure(1.0, -1.0, 1.0, 1.0, 0.0),
], ids=["custom weight", "non-triangular"])
def test_unsupported_measures_name_the_supported_kinds(mu):
    with pytest.raises(ParameterError, match="triangular pullback"):
        C.berezin_membership(mu, T2, T1)


# ------------------------------------------------ translation and dilation

taus = st.floats(-0.9, -0.1)
boxes = st.builds(
    lambda x0, w, y0, h: Box(x0, x0 + w, y0, y0 + h),
    st.floats(-2.0, 2.0), st.floats(0.1, 3.0),
    st.one_of(st.just(0.0), st.floats(0.01, 1.0)), st.floats(0.1, 3.0))
atom_lists = st.lists(
    st.tuples(st.floats(-2.0, 2.0), st.floats(0.01, 3.0),
              st.floats(0.1, 2.0)), min_size=1, max_size=6)
disks = st.builds(lambda x, y, s: Disk(HPoint(x, y), s),
                  st.floats(-2.0, 2.0), st.floats(0.1, 2.0),
                  st.floats(0.1, 0.9))
examples = settings(derandomize=True, max_examples=12, deadline=None)
shifts = pytest.mark.parametrize("shift", [-50.0, 1e3])


def _moved(box, shift):
    return Box(box.x_min + shift, box.x_max + shift, box.y_min, box.y_max)


def _same(mu, nu):
    (m1, v1), (m2, v2) = (C.berezin_membership(x, T2, T1) for x in (mu, nu))
    assert m1 is m2
    assert abs(v1 - v2) <= REL * v1


@shifts
@examples
@given(box=boxes, tau=taus)
def test_translation_moves_box_verdicts(shift, box, tau):
    _same(_box(tau, box), _box(tau, _moved(box, shift)))


@shifts
@examples
@given(atoms=atom_lists)
def test_translation_moves_atom_verdicts(shift, atoms):
    def measure(t):
        return O.atomic_measure([(HPoint(x + t, y), m) for x, y, m in atoms])
    _same(measure(0.0), measure(shift))


@shifts
@examples
@given(disk=disks, tau=taus)
def test_translation_moves_disk_verdicts(shift, disk, tau):
    moved = Disk(HPoint(disk.center.x + shift, disk.center.y), disk.s)
    _same(O.valpha_measure(tau, disk), O.valpha_measure(tau, moved))


@pytest.mark.parametrize("r", [0.25, 4.0])
@pytest.mark.parametrize("tau", [-0.7, -0.55, -0.45, -0.3])
@examples
@given(x0=st.floats(-2.0, 2.0), w=st.floats(0.1, 3.0),
       h=st.floats(0.1, 3.0))
def test_dilation_keeps_boundary_box_verdicts(r, tau, x0, w, h):
    box = Box(x0, x0 + w, 0.0, h)
    wide = Box(r * x0, r * (x0 + w), 0.0, r * h)
    member = C.berezin_membership(_box(tau, box), T2, T1)[0]
    assert C.berezin_membership(_box(tau, wide), T2, T1)[0] is member
    assert member is (tau > -0.5)
