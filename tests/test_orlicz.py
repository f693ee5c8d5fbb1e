"""Tests for modulars, Luxembourg norms and sequence norms.

Frozen reference numbers come from tools/oracles/orlicz_oracle.py and
tools/oracles/integrals_oracle.py.
"""

from dataclasses import replace

import numpy as np
import pytest

from bergman_orlicz import bergman as B
from bergman_orlicz import growth as G
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import (AccuracyError, BergmanOrliczError,
                                   DivergenceError, NotInSpaceError,
                                   ParameterError)
from bergman_orlicz.halfplane import Box, CarlesonSquare, Disk, HPoint, StripUnion
import quad_oracles as QO

DIRAC_POWERLOG_LUX = 1.7470451544286443954

ONES = lambda z: np.ones_like(z, dtype=float)
DECAY3 = lambda z: np.abs(1.0 - 1j * z) ** -3.0


def test_modular_unit_square():
    mu = O.valpha_measure(0.0, CarlesonSquare(0.0, 1.0))
    v = O.modular(ONES, mu, G.power(2))
    assert abs(v - 1.0) < 1e-8


def test_modular_dirac_pointwise():
    mu = O.atomic_measure([(HPoint(0.0, 1.0), 1.0)])
    assert O.modular(lambda z: 2.0 * np.ones_like(z, dtype=float),
                     mu, G.power(3)) == 8.0


def test_modular_decay_whole_plane():
    v = O.modular(DECAY3, O.valpha_measure(0.0), G.power(2))
    ref = 3 * np.pi / 32
    assert abs(v - ref) / ref < 1e-7


def test_modular_weighted_decay():
    # frozen: alpha=1 value from the integrals oracle
    v = O.modular(DECAY3, O.valpha_measure(1.0), G.power(2))
    ref = 0.098174770424681038702
    assert abs(v - ref) / ref < 1e-6


def test_lux_power_fast_path():
    mu = O.valpha_measure(0.0, CarlesonSquare(0.0, 1.0))
    r = O.luxembourg(ONES, mu, G.power(2))
    assert abs(r.value - 1.0) < 1e-8
    assert abs(r.modular_at_value - 1.0) < 1e-8
    assert r.iterations == 0


def test_lux_power_route_evaluates_each_panel_once():
    # the p-th-power pass and the modular check at the value share one
    # engine, so no quadrature panel feeds f the same nodes twice.  A call
    # holds the nodes of one panel or of a batch of panels (the first
    # panels of the next graded strips, the halves of a split); the node
    # totals are pinned.  One Box panel is enough, so it takes a single call.
    n_rule = Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2
    for support, total in ((Box(0.0, 1.0, 0.5, 1.5), n_rule),
                           (CarlesonSquare(0.0, 1.0), 30400)):
        panels, sizes = [], []

        def f(z):
            z = np.asarray(z)
            sizes.append(z.size)
            if z.size % n_rule == 0:
                panels.extend(p.tobytes() for p in z.reshape(-1, n_rule))
            return DECAY3(z)

        r = O.luxembourg(f, O.valpha_measure(0.0, support), G.power(3))
        assert r.iterations == 0
        assert all(n % n_rule == 0 for n in sizes)
        assert sum(sizes) == total
        assert len(set(panels)) == len(panels)


def test_lux_weighted_square():
    # |I| = 2 and alpha = 1 give measure 4, so the norm of 1 is 2
    mu = O.valpha_measure(1.0, CarlesonSquare(0.0, 2.0))
    r = O.luxembourg(ONES, mu, G.power(2))
    assert abs(r.value - 2.0) < 1e-8


def test_lux_bisection_dirac_frozen():
    mu = O.atomic_measure([(HPoint(0.0, 1.0), 1.0)])
    r = O.luxembourg(lambda z: 2.0 * np.ones_like(z, dtype=float),
                     mu, G.power_log(2, 1, 1))
    assert abs(r.value - DIRAC_POWERLOG_LUX) / DIRAC_POWERLOG_LUX < 5e-9
    assert abs(r.modular_at_value - 1.0) <= 1e-8
    assert r.iterations > 0


def test_lux_bisection_agrees_with_fast_path():
    # same norm through the generic route (custom phi has no fast path)
    mu = O.atomic_measure([(HPoint(0.3, 1.0), 0.7), (HPoint(-1.0, 2.0), 2.0)])
    f = lambda z: np.abs(z) + 0.5
    fast = O.luxembourg(f, mu, G.power(2)).value
    slow = O.luxembourg(f, mu, G.custom(lambda t: t * t, lambda t: 2 * t,
                                        "tsq")).value
    assert abs(fast - slow) / fast < 1e-8


def test_lux_homogeneity():
    rng = np.random.default_rng(23)
    phi = G.power_log(2, 1, 1)
    for _ in range(5):
        pts = [(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3)),
                rng.uniform(0.1, 2)) for _ in range(6)]
        mu = O.atomic_measure(pts)
        vals = rng.uniform(0.1, 4, size=6)
        f = lambda z: np.interp(np.real(z), np.sort([p.x for p, _ in pts]),
                                vals)
        a = O.luxembourg(lambda z: 3.0 * f(z), mu, phi).value
        b = O.luxembourg(f, mu, phi).value
        assert abs(a - 3.0 * b) / a < 1e-7


def test_lux_vanishing_input():
    mu = O.atomic_measure([(HPoint(0.0, 1.0), 1.0)])
    r = O.luxembourg(lambda z: np.zeros_like(z, dtype=float), mu,
                     G.power_log(2, 1, 1))
    assert r.value == 0.0


ZERO = lambda z: np.zeros_like(z, dtype=float)


@pytest.mark.parametrize("f,support", [
    (ZERO, None),
    (ZERO, Box(0.0, 1.0, 0.0, 1.0)),
    # no quadrature node comes within 1e-12 of the bump's centre
    (lambda z: np.where(np.abs(z - (0.3 + 0.7j)) < 1e-12, 1e6, 0.0),
     Box(0.0, 1.0, 0.5, 1.5)),
], ids=["zero plane", "zero box", "tiny bump"])
def test_lux_vanishing_density(f, support):
    # the start scale and its first halving read a modular of at most 1,
    # so the solve probes VANISH_LAMBDA third
    r = O.luxembourg(f, O.valpha_measure(0.0, support), G.power_log(2, 1, 2))
    assert r == O.LuxResult(0.0, 0.0, 3, (0.0, O.VANISH_LAMBDA))


def test_lux_doubling_never_probes_the_vanishing_scale(monkeypatch):
    # a modular above 1 at the start scale rules out a vanishing input
    lams = []
    modular_at = O._ModularEngine.modular_at

    def traced(engine, psi, lam, tol):
        lams.append(lam)
        return modular_at(engine, psi, lam, tol)

    monkeypatch.setattr(O._ModularEngine, "modular_at", traced)
    r = O.luxembourg(PLANE_DECAY, O.valpha_measure(0.0),
                     G.power_log(2.5, 1.0, 2.0), tol=1e-6)
    assert r.value.hex() == BISECTION_PINS[0][7][0]
    assert len(lams) == r.iterations and O.VANISH_LAMBDA not in lams


def test_lux_divergent_at_every_scale_is_not_in_space():
    # |f|^2 y^-0.5 = y^-2.5 is not integrable at y = 0 for any scale
    mu = O.valpha_measure(-0.5, Box(0.0, 1.0, 0.0, 1.0))
    with pytest.raises(NotInSpaceError, match="divergent for all probed"):
        O.luxembourg(lambda z: 1.0 / np.imag(z), mu, G.power_log(2, 1, 2))


def test_lux_type_bounds_fitted_constant():
    # modular and norm control each other through the index powers
    rng = np.random.default_rng(41)
    phis = [G.power(1.5), G.power(2), G.power(3),
            G.power_log(2, 1, 1), G.power_log(3, 1, 2)]
    worst = 0.0
    for k in range(20):
        phi = phis[k % len(phis)]
        a, b = G.indices(phi)
        pts = [(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3)),
                rng.uniform(0.1, 1.5)) for _ in range(6)]
        mu = O.atomic_measure(pts)
        c = rng.uniform(0.3, 3.0)
        f = lambda z: c * (np.abs(z) ** 0.5 + 0.2)
        mod = O.modular(f, mu, phi)
        lux = O.luxembourg(f, mu, phi).value
        if lux == 0 or mod == 0:
            continue
        worst = max(worst, mod / max(lux ** a, lux ** b))
        worst = max(worst, lux / max(mod ** (1 / a), mod ** (1 / b)))
    assert worst <= 4.0


def test_orlicz_holder():
    rng = np.random.default_rng(59)
    for phi in [G.power(2), G.power(1.7)]:
        psi = G.conjugate_of(phi)
        for _ in range(25):
            n = 5
            pts = [(HPoint(rng.uniform(-2, 2), rng.uniform(0.2, 3)),
                    rng.uniform(0.1, 1.5)) for _ in range(n)]
            mu = O.atomic_measure(pts)
            xs = np.sort(rng.uniform(-3, 3, n))
            fv = rng.uniform(0.05, 3, n)
            gv = rng.uniform(0.05, 3, n)
            f = lambda z: np.interp(np.real(z), xs, fv)
            g = lambda z: np.interp(np.real(z), xs, gv)
            lhs = O.modular(lambda z: f(z) * g(z), mu, G.power(1))
            rhs = 2 * O.luxembourg(f, mu, phi).value \
                * O.luxembourg(g, mu, psi).value
            assert lhs <= rhs * (1 + 1e-9)


def test_seq_lux_examples():
    lat = L.build(0.5, (3, 3))
    one = O.seq_luxembourg(O.LatticeSequence({(0, 0): 1.0}, lat),
                           G.power(2), 0.0)
    assert abs(one.value - 1.0) < 1e-12
    two = O.seq_luxembourg(O.LatticeSequence({(0, 0): 1.0, (1, 0): 1.0}, lat),
                           G.power(2), 0.0)
    assert abs(two.value - np.sqrt(2.0)) < 1e-12
    up = O.seq_luxembourg(O.LatticeSequence({(0, 1): 1.0}, lat),
                          G.power(2), 0.0)
    assert abs(up.value - 2.0 ** lat.gamma) < 1e-12


def test_seq_lux_bisection_route():
    lat = L.build(0.5, (3, 3))
    seq = O.LatticeSequence({(0, 0): 2.0}, lat)
    r = O.seq_luxembourg(seq, G.power_log(2, 1, 1), 0.0)
    assert abs(r.value - DIRAC_POWERLOG_LUX) / DIRAC_POWERLOG_LUX < 5e-9


def test_seq_empty_and_window_check():
    lat = L.build(0.5, (2, 2))
    assert O.seq_luxembourg(O.LatticeSequence({}, lat), G.power(2), 0.0).value == 0.0
    with pytest.raises(ParameterError):
        O.LatticeSequence({(5, 0): 1.0}, lat)


def test_seq_needs_a_lattice():
    # a missing lattice fails at construction, not in the first norm
    with pytest.raises(TypeError):
        O.LatticeSequence({(0, 0): 1.0})
    with pytest.raises(ParameterError):
        O.LatticeSequence({(0, 0): 1.0}, None)


@pytest.mark.parametrize("key", [(0.5, 0), (0, 1.0), (0,), (0, 0, 0), "00"])
def test_seq_rejects_non_integer_index(key):
    lat = L.build(0.5, (2, 2))
    with pytest.raises(ParameterError):
        O.LatticeSequence({key: 1.0}, lat)


def test_mobius_measure_density():
    # z -> 2z pulls V_0 back with constant density 1/4
    mu = O.mobius_measure(2, 0, 0, 1, 0.0)
    h = O.mobius_density(mu)
    assert abs(h(1j) - 0.25) < 1e-15
    v = O.modular(DECAY3, mu, G.power(2))
    ref = 3 * np.pi / 128
    assert abs(v - ref) / ref < 1e-6


def _mobius_density_per_node(a, b, c, d, beta):
    """The pullback density as evaluated at every node, whatever c is."""
    det = a * d - b * c

    def h(z):
        w = (d * z - b) / (-c * z + a)
        dw = det / (-c * z + a) ** 2
        return np.imag(w) ** beta * np.abs(dw) ** 2

    return h


@pytest.mark.parametrize("coeffs,beta", [
    ((1.0, 0.0, 0.0, 1.0), 0.0), ((2.0, 0.0, 0.0, 1.0), 0.0),
    ((1.0, 1.0, 0.0, 1.0), 0.0), ((3.0, -2.0, 0.0, 0.7), 0.0),
    ((3.0, -2.0, 0.0, 0.7), 0.6), ((1.0, -1.0, 1.0, 1.0), 0.5),
], ids=["identity", "2z", "z+1", "3z-2", "3z-2-beta", "non-triangular"])
def test_mobius_density_bits_equal_per_node_formula(coeffs, beta):
    # the closed triangular weight keeps the bits of the per-node formula,
    # on nodes with Re z of both signs and Im z over 16 decades
    x = np.linspace(-7.0, 7.0, 57)
    y = np.geomspace(1e-12, 1e4, 41)
    z = (x[:, None] + 1j * y[None, :]).ravel()
    got = O.mobius_density(O.mobius_measure(*coeffs, beta))(z)
    want = _mobius_density_per_node(*coeffs, beta)(z)
    assert got.shape == z.shape
    assert got.tobytes() == want.tobytes()


def test_measure_validation():
    with pytest.raises(ParameterError):
        O.atomic_measure([(HPoint(0, 1), 0.0)])
    with pytest.raises(ParameterError):
        O.atomic_measure([])
    with pytest.raises(ParameterError):
        O.mobius_measure(1, 0, 0, -1, 0.0)
    with pytest.raises(ParameterError):
        O.mobius_measure(1, 0, 0, 1, -1.5)
    with pytest.raises(ParameterError):
        O.valpha_measure(-2.0)


def test_measure_json_round_trip():
    specs = [
        ({"atomic": [[0.0, 1.0, 1.0], [0.5, 2.0, 0.25]]},
         O.atomic_measure([(HPoint(0.0, 1.0), 1.0), (HPoint(0.5, 2.0), 0.25)])),
        ({"density": {"kind": "valpha", "alpha": 1.0,
                      "support": {"box": [0.0, 1.0, 0.5, 2.0]}}},
         O.valpha_measure(1.0, Box(0.0, 1.0, 0.5, 2.0))),
        ({"density": {"kind": "valpha", "alpha": 0.0, "support": "auto"}},
         O.valpha_measure(0.0)),
        ({"mobius": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "beta": 0.5}},
         O.mobius_measure(1.0, 0.0, 0.0, 1.0, 0.5)),
    ]
    z = np.array([0.3 + 0.7j])
    for spec, mu in specs:
        parsed = O.measure_from_json(spec)
        # a pullback's weight is a closure: compare the rest, and its values
        assert replace(parsed, weight=None) == replace(mu, weight=None)
        if mu.weight is not None:
            assert parsed.weight(z) == mu.weight(z)
    with pytest.raises(ParameterError):
        O.measure_from_json({"nope": 1})


def test_modular_disk_support():
    d = Disk(HPoint(0.0, 1.0), 0.5)
    v = O.modular(ONES, O.valpha_measure(0.0, d), G.power(2))
    assert abs(v - np.pi * 0.25) < 1e-7
    v1 = O.modular(ONES, O.valpha_measure(1.0, d), G.power(2))
    assert abs(v1 - np.pi * 0.25) < 1e-7


def test_lux_disk_seed_reads_only_the_disk():
    # the bisection seed samples |f| on the disk's own polar panel, so
    # f = 1/Im z never sees a point outside the disk or below the axis
    disk = Disk(HPoint(0.0, 0.5), 0.5)
    mu = O.valpha_measure(0.0, disk)
    phi = G.power_log(2, 1, 2)
    seen = []

    def f(z):
        seen.append(np.asarray(z).ravel())
        return 1.0 / np.imag(z)

    O._ModularEngine(f, mu).start(phi)
    z = np.concatenate(seen)
    assert z.size > 0
    assert np.all(np.abs(z - disk.center.z) <= disk.radius * (1 + 1e-12))
    r = O.luxembourg(f, mu, phi)
    assert r.iterations <= 30
    assert abs(r.modular_at_value - 1.0) < 1e-7


def test_strip_union_support_sums_its_boxes():
    boxes = (Box(0.0, 1.0, 0.0, 1.0), Box(2.0, 3.0, 0.5, 1.0))
    union = StripUnion(boxes)
    mu = O.valpha_measure(0.5, union)
    phi = G.power_log(2, 1, 2)
    per_box = [O.modular(DECAY3, O.valpha_measure(0.5, b), phi) for b in boxes]
    assert O.modular(DECAY3, mu, phi) == per_box[0] + per_box[1]
    r = O.luxembourg(DECAY3, mu, phi)
    assert r.iterations > 0 and abs(r.modular_at_value - 1.0) < 1e-8
    assert abs(O.modular(lambda z: DECAY3(z) / r.value, mu, phi) - 1.0) < 1e-7
    sq = sum(O.modular(DECAY3, O.valpha_measure(0.5, b), G.power(2))
             for b in boxes)
    p2 = O.luxembourg(DECAY3, mu, G.power(2)).value
    assert abs(p2 - np.sqrt(sq)) < 1e-12 * np.sqrt(sq)
    assert mu == O.valpha_measure(0.5, union) and mu.support is union


def test_lux_boundary_box_negative_alpha():
    # y^-0.5 near y = 0 lifts clipped Phi values at the vanishing probe
    mu = O.valpha_measure(-0.5, Box(-1.0, 1.0, 0.0, 1.0))
    f = lambda z: (z + 1j) ** -3
    closed = O.luxembourg(f, mu, G.power(3, coef=2)).value
    r = O.luxembourg(f, mu, G.custom(lambda t: 2 * t ** 3,
                                     lambda t: 6 * t ** 2, "2t3"))
    assert r.iterations > 0
    assert abs(r.value - closed) < 1e-7 * closed
    r = O.luxembourg(f, mu, G.power_log(2, 1, 2))
    assert np.isfinite(r.value) and abs(r.modular_at_value - 1.0) < 1e-7


def test_lux_weight_underflowing_to_zero():
    # at the vanishing probe Phi overflows to inf where the weight is 0
    mu = O.density_measure(lambda z: np.exp(-1000 * np.real(z) ** 2),
                           Box(-1.0, 1.0, 0.5, 1.5))
    f = lambda z: (z + 1j) ** -3
    closed = O.luxembourg(f, mu, G.power(3, coef=2)).value
    r = O.luxembourg(f, mu, G.custom(lambda t: 2 * t ** 3,
                                     lambda t: 6 * t ** 2, "2t3"))
    assert r.iterations > 0
    assert abs(r.value - closed) < 1e-7 * closed


def test_modular_box_above_boundary():
    mu = O.valpha_measure(0.0, Box(0.0, 1.0, 1.0, 2.0))
    v = O.modular(lambda z: np.imag(z), mu, G.power(2))
    # integral of y^2 over [0,1]x[1,2] is 7/3
    assert abs(v - 7.0 / 3.0) < 1e-9


# a pole that a quadrature node of the box hits exactly: clipped values at
# the node used to cancel to a silent modular of 0.0 (norm 0.0 or 2.3e-124)
POLE = lambda z: 1.0 / (z - (0.5 + 0.55j))
POLE_BOX = O.valpha_measure(0.0, Box(0.0, 1.0, 0.2, 1.0))


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
@pytest.mark.parametrize("phi", [G.power(2), G.power_log(2, 1, 2)],
                         ids=["t2", "power_log"])
@pytest.mark.parametrize("solve", [O.modular, O.luxembourg],
                         ids=["modular", "luxembourg"])
def test_pole_on_a_node_raises(solve, phi):
    with pytest.raises(AccuracyError):
        solve(POLE, POLE_BOX, phi)


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
def test_pole_on_an_atom_raises():
    mu = O.atomic_measure([(HPoint(0.5, 0.55), 1.0), (HPoint(0.0, 1.0), 1.0)])
    with pytest.raises(AccuracyError):
        O.luxembourg(POLE, mu, G.power_log(2, 1, 2))


# float.hex of (value, modular_at_value, iterations) of the root-finding
# route, frozen when Illinois steps replaced bisection (30 probes each;
# the Mobius and zero-weight pins were added later, before the two panel
# stores of |f| and the weight became one).
# Before its bits are compared, each value is checked against a reference
# outside the package's cubature: nested QUADPACK for power_log (the
# modular at the value is within the gate of 1), the closed form for t^2.5
# (the value is within the gate of the p-norm).
PLANE_DECAY = B.decay(1.25, 3.0)
PLOG2 = QO.power_log(2, 1, 2)
BISECTION_PINS = [
    ("plane power_log", PLANE_DECAY, O.valpha_measure(0.0),
     G.power_log(2.5, 1.0, 2.0), 1e-6,
     lambda lam: abs(QO.decay_plane_modular(QO.power_log(2.5, 1, 2), 1.25,
                                            3.0, lam) - 1.0), 1e-6,
     ("0x1.cc743b432a03ep-2", "0x1.ffffffff625f3p-1", 7)),
    ("plane custom t^2.5", PLANE_DECAY, O.valpha_measure(0.0),
     G.custom(lambda t: np.power(t, 2.5), label="t^2.5"), 1e-6,
     lambda lam: abs(lam / B.decay_modular_exact(1.25, 3.0, 2.5) ** 0.4 - 1),
     1e-7, ("0x1.b4da87b0f4534p-2", "0x1.fffffffffffffp-1", 3)),
    ("graded box power_log", B.decay(1.0, 3.0),
     O.valpha_measure(0.0, Box(0.0, 1.0, 0.0, 1.0)), G.power_log(2, 1, 2),
     1e-8, lambda lam: abs(QO.box_modular(
         PLOG2, lambda x, y: ((1 + y) ** 2 + x * x) ** -1.5 / lam,
         0.0, 1.0, 0.0, 1.0) - 1.0), 1e-8,
     ("0x1.83de1b4fd5703p-2", "0x1.fffffffff9314p-1", 6)),
    # the weight-callable path: z -> 2z pulls Lebesgue measure back to the
    # density 1/4 on the whole plane
    ("mobius power_log", PLANE_DECAY, O.mobius_measure(2, 0, 0, 1, 0),
     G.power_log(2.5, 1.0, 2.0), 1e-6,
     lambda lam: abs(0.25 * QO.decay_plane_modular(
         QO.power_log(2.5, 1, 2), 1.25, 3.0, lam) - 1.0), 1e-6,
     ("0x1.19fd4fc5bead6p-2", "0x1.ffffffffffd77p-1", 6)),
    # the w == 0 mask path: the weight underflows to 0 for |x| > 0.864
    ("zero-weight box power_log", B.decay(1.0, 3.0),
     O.density_measure(lambda z: np.exp(-1000 * np.real(z) ** 2),
                       Box(-1.0, 1.0, 0.5, 1.5)), G.power_log(2, 1, 2),
     1e-8, lambda lam: abs(QO.box_modular(
         PLOG2, lambda x, y: ((1 + y) ** 2 + x * x) ** -1.5 / lam,
         -1.0, 1.0, 0.5, 1.5,
         weight=lambda x, y: np.exp(-1000 * x * x)) - 1.0), 1e-8,
     ("0x1.91f838c0bc965p-5", "0x1.00000019250b9p+0", 8)),
]


@pytest.mark.parametrize("name,f,mu,phi,tol,oracle,gate,pin", BISECTION_PINS,
                         ids=[p[0] for p in BISECTION_PINS])
def test_bits_bisection_route(name, f, mu, phi, tol, oracle, gate, pin):
    r = O.luxembourg(f, mu, phi, tol=tol)
    assert oracle(r.value) <= gate
    assert r.iterations <= 12  # modular evaluations; bisection took 30
    assert (r.value.hex(), r.modular_at_value.hex(), r.iterations) == pin


def test_lux_root_on_a_jump():
    # Phi(t) = t^2 + [t >= 1] on one atom of mass 0.7 with |f| = 1.3: the
    # modular jumps from 1.4 to 0.7 at lam = 1.3, so no probe is within
    # MODULAR_TARGET_TOL of 1 and the search ends on the bracket width
    step = G.custom(lambda t: t * t + (np.asarray(t) >= 1.0), label="step")
    mu = O.atomic_measure([(HPoint(0.0, 1.0), 0.7)])
    r = O.luxembourg(lambda z: np.full(np.shape(z), 1.3), mu, step)
    lo, hi = r.bracket
    assert lo <= 1.3 < hi == r.value
    assert hi - lo <= O.BRACKET_FLOOR * hi
    assert r.modular_at_value <= 1.0 + 1e-8
    assert r.iterations <= 42  # bisection took 42 modular evaluations


def test_lux_root_bounded_on_an_adverse_jump():
    # a jump from 1e200 to 1 - 1e-6 pulls every secant point to the upper
    # end: unguarded Illinois steps take 254 probes here, bisection 42.  The
    # safeguard keeps the count within 2.5 times bisection's
    def jump(lam):
        return 1e300 if lam < 1e-100 else (1e200 if lam < 1.3 else 1 - 1e-6)

    r = O._lux_root(jump, 1.0)
    assert 1.3 <= r.value <= 1.3 * (1 + 2 * O.BRACKET_FLOOR)
    assert r.iterations <= 105


def test_lux_root_bisects_after_a_divergent_probe():
    # the first refinement probe below the root raises DivergenceError, as
    # a misfiring truncation test would; it counts as an infinite modular,
    # so the next probe bisects the bracket and the solve still converges
    probes, div = [], []

    def modular(lam):
        m = 1e300 if lam < 1e-100 else (0.8 / lam) ** 2 * (1.3 - 0.375 * lam)
        if len(probes) >= 3 and m > 1.0 and not div:
            div.append(lam)
            probes.append((lam, np.inf))
            raise DivergenceError("tail does not decay")
        probes.append((lam, m))
        return m

    r = O._lux_root(modular, 1.0)
    i = [p for p, _ in probes].index(div[0])
    hi = min(p for p, m in probes[:i] if m <= 1.0)
    assert probes[i + 1][0] == 0.5 * (div[0] + hi)
    assert abs(r.modular_at_value - 1.0) <= O.MODULAR_TARGET_TOL
    assert abs(r.value - 0.8) <= 1e-8


def test_lux_increasing_modular_raises():
    # Phi(t) = 2 + 1/(1 + t) decreases, so the modular grows with the scale:
    # the first doubling probe exceeds the one before it
    phi = G.custom(lambda t: 2.0 + 1.0 / (1.0 + t), label="decreasing")
    mu = O.atomic_measure([(HPoint(0.0, 1.0), 1.0)])
    with pytest.raises(BergmanOrliczError, match="failed to decrease"):
        O.luxembourg(lambda z: np.ones(np.shape(z)), mu, phi)
    # a modular that grows with the scale below 1 raises while halving,
    # instead of bracketing its jump near 1e-100
    with pytest.raises(BergmanOrliczError, match="failed to decrease"):
        O._lux_root(lambda lam: 1e300 if lam < 1e-100 else 0.5 * lam, 1.0)


def test_lux_bisection_passes_reuse_the_store(monkeypatch):
    # f is fed 119,424 nodes: the 110,464 of the panels the solve integrates
    # and 8,960 more of graded strips that a lookahead batch evaluates past
    # the end of their chain.  A pass calls Phi at most once per stored
    # block plus once per batch of panels that no earlier pass evaluated,
    # where panel by panel it was once per panel
    phi = G.power_log(2.5, 1.0, 2.0)
    sizes, passes = [], []

    def f(z):
        sizes.append(np.size(z))
        return PLANE_DECAY(z)

    phi_calls = [0]
    call = G.GrowthFunction.__call__

    def counted(self, t):
        phi_calls[0] += 1
        return call(self, t)

    monkeypatch.setattr(G.GrowthFunction, "__call__", counted)
    modular_at = O._ModularEngine.modular_at

    def traced(engine, psi, lam, tol):
        before = (phi_calls[0], len(sizes), len(list(engine.field.blocks())))
        try:
            return modular_at(engine, psi, lam, tol)
        finally:
            passes.append((phi_calls[0] - before[0], len(sizes) - before[1],
                           before[2]))

    monkeypatch.setattr(O._ModularEngine, "modular_at", traced)
    r = O.luxembourg(f, O.valpha_measure(0.0), phi, tol=1e-6)
    assert BISECTION_PINS[0][5](r.value) <= BISECTION_PINS[0][6]
    assert r.value.hex() == BISECTION_PINS[0][7][0]
    assert sum(sizes) == 119424
    assert len(passes) == r.iterations == 7
    for calls, new_batches, blocks in passes:
        assert calls <= blocks + new_batches
    # the first pass calls Phi once per batch it evaluates; over the 7
    # passes Phi runs fewer than 3 times per panel, where panel by panel it
    # ran once per panel per pass
    assert passes[0][0] == passes[0][1] > 0
    panels = sum(sizes) // (Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2)
    assert sum(p[0] for p in passes) < 3 * panels


def test_modular_maps_each_batch_of_nodes_once(monkeypatch):
    # |f| and the weight are asked for the same batches of panels, and
    # the nodes of a batch are computed once for both
    node_calls, f_sizes, w_sizes = [0], [], []
    panel_nodes = Q._panel_nodes

    def counted(rect, rule):
        node_calls[0] += 1
        return panel_nodes(rect, rule)

    def f(z):
        f_sizes.append(np.size(z))
        return DECAY3(z)

    def w(z):
        w_sizes.append(np.size(z))
        return 1.0 + np.real(z) ** 2

    monkeypatch.setattr(Q, "_panel_nodes", counted)
    v = O.modular(f, O.density_measure(w, None, 0.5), G.power(2), tol=1e-6)
    assert v > 0
    assert f_sizes == w_sizes
    assert node_calls[0] == len(f_sizes) > 1


# |f| is infinite only below y = 1e-8: at tol 1e-7 the graded chain stops
# with its lowest node at 1.5e-8, but its last lookahead batch reaches
# 9.4e-10; at tol 1e-8 the chain itself goes below 1e-8
STEP_BELOW = lambda z: np.where(np.imag(z) < 1e-8, np.inf,
                                1.0 + np.real(z) * np.imag(z))


def test_lookahead_past_the_chain_does_not_raise():
    mu = O.valpha_measure(0.0, Box(0.0, 1.0, 0.0, 1.0))
    # the value of the strip-by-strip chain, which never saw the inf
    v = O.modular(STEP_BELOW, mu, G.power(2), tol=1e-7)
    assert v.hex() == "0x1.9c71c6dc71c70p+0"
    with pytest.raises(AccuracyError):
        O.modular(STEP_BELOW, mu, G.power(2), tol=1e-8)


@pytest.mark.parametrize("support,weight,alpha", [
    (None, None, 0.0),
    (Box(0.0, 1.0, 0.0, 1.0), None, -0.5),
    (Disk(HPoint(0.2, 1.0), 0.5), None, 0.5),
    (StripUnion((Box(0.0, 1.0, 0.0, 1.0), Box(2.0, 3.0, 0.5, 1.0))), None,
     0.5),
    (Box(-1.0, 1.0, 0.5, 1.5), lambda z: np.exp(-1000 * np.real(z) ** 2),
     0.0),
], ids=["plane", "graded", "disk", "strips", "zero-weight"])
def test_batched_pass_equals_panel_by_panel(support, weight, alpha):
    # a pass that reads stored panels gives the bits of a fresh engine,
    # whose one pass evaluates every panel on its own
    mu = O.density_measure(weight, support, alpha)
    phi = G.power_log(2, 1, 2)

    def outcome(engine, lam):
        try:
            return engine.modular_at(phi, lam, 1e-6).hex()
        except DivergenceError:  # the whole plane at the vanishing probe
            return "diverges"

    engine = O._ModularEngine(DECAY3, mu)
    for lam in (0.05, 1e-300, 0.5, 2.0, 0.3):
        fresh = O._ModularEngine(DECAY3, mu)
        assert outcome(engine, lam) == outcome(fresh, lam)
    assert engine.modular_at(phi, 0.3, 1e-6) > 0


def test_lux_disk_seed_reads_the_first_panel():
    # the seed reads the order-8 tail of the disk's first quadrature panel,
    # so no node set is fed to f twice
    sizes, seen = [], set()

    def f(z):
        sizes.append(np.size(z))
        seen.add(np.asarray(z).tobytes())
        return 1.0 / np.abs(z + 1j)

    mu = O.valpha_measure(0.0, Disk(HPoint(0.0, 1.0), 0.5))
    r = O.luxembourg(f, mu, G.power_log(2, 1, 2))
    assert abs(QO.disk_modular(PLOG2, lambda x, y: 1.0 / np.hypot(x, y + 1)
                               / r.value, 0.0, 1.0, 0.5) - 1.0) <= 1e-8
    assert sum(sizes) == 1600
    assert len(seen) == len(sizes)
    assert r.value.hex() == "0x1.e9783f7691185p-2"


def test_lux_seed_off_the_fixed_panel():
    # a support away from the fixed seed panel samples its own bbox: the
    # bump far out is solved in no more steps than the same bump near 0.
    # Both modulars are the one centred box integral
    phi = G.power_log(2, 1, 2)
    steps = []
    for c in (0.5, 50.5):
        def bump(z, c=c):
            return 1e6 * np.exp(-np.abs(z - (c + 1j)) ** 2)

        mu = O.valpha_measure(0.0, Box(c - 0.5, c + 0.5, 0.5, 1.5))
        r = O.luxembourg(bump, mu, phi)
        assert abs(QO.box_modular(
            PLOG2, lambda x, y: 1e6 * np.exp(-(x * x + y * y)) / r.value,
            -0.5, 0.5, -0.5, 0.5) - 1.0) <= 1e-8
        assert abs(r.modular_at_value - 1.0) <= 1e-8
        steps.append(r.iterations)
    assert steps[1] <= steps[0] == 7
