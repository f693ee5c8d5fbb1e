"""Tests for modulars, Luxembourg norms, sequence and Hardy norms.

Frozen reference numbers come from tools/oracles/orlicz_oracle.py and
tools/oracles/integrals_oracle.py.
"""

import numpy as np
import pytest

from bergman_orlicz import bergman as B
from bergman_orlicz import growth as G
from bergman_orlicz import lattice as L
from bergman_orlicz import orlicz as O
from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import (AccuracyError, DivergenceError,
                                   NotInSpaceError, ParameterError)
from bergman_orlicz.halfplane import Box, CarlesonSquare, Disk, HPoint, StripUnion

DIRAC_POWERLOG_LUX = 1.7470451544286443954
HARDY_SUP_DECAY3 = 1.0851305788461524985

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
    # engine, so no quadrature panel feeds f the same nodes twice; each
    # panel is one call on both orders' nodes.  One Box panel is enough,
    # so it may take a single call; the graded square takes several.
    n_rule = Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2
    for support, min_calls in ((Box(0.0, 1.0, 0.5, 1.5), 1),
                               (CarlesonSquare(0.0, 1.0), 2)):
        seen, sizes = set(), []

        def f(z):
            sizes.append(np.size(z))
            seen.add(np.asarray(z).tobytes())
            return DECAY3(z)

        r = O.luxembourg(f, O.valpha_measure(0.0, support), G.power(3))
        assert r.iterations == 0
        assert len(sizes) >= min_calls
        assert sizes == [n_rule] * len(sizes)
        assert len(seen) == len(sizes)


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


def test_hardy_norm_decay_frozen():
    sup, per = O.hardy_norm(DECAY3, G.power(2))
    assert abs(sup - HARDY_SUP_DECAY3) / HARDY_SUP_DECAY3 < 1e-7
    vals = [v for _, v in per]
    ys = [y for y, _ in per]
    assert ys == sorted(ys)
    for i in range(len(vals) - 1):
        assert vals[i] >= vals[i + 1] - 1e-10


def test_hardy_norm_custom_growth_closed_form():
    # t**2 outside the power family bisects each line; the L2 line norm of
    # |1 - iz|**-3 at height y is sqrt(3*pi/8 * (1+y)**-5)
    sup, per = O.hardy_norm(DECAY3, G.custom(lambda t: t ** 2))
    for y, v in per:
        ref = np.sqrt(3.0 * np.pi / 8.0 * (1.0 + y) ** -5.0)
        assert abs(v - ref) / ref < 1e-7
    assert sup == max(v for _, v in per)


def test_hardy_norm_power_log_finite():
    # t**2 log(2+t) >= log(2) t**2, so each line norm is at least
    # sqrt(log 2) times the L2 line norm
    sup, per = O.hardy_norm(DECAY3, G.power_log(2, 1, 2))
    assert np.isfinite(sup) and sup > 0
    for y, v in per:
        l2 = np.sqrt(3.0 * np.pi / 8.0 * (1.0 + y) ** -5.0)
        assert v >= np.sqrt(np.log(2.0)) * l2 * (1 - 1e-7)
    vals = [v for _, v in per]
    for i in range(len(vals) - 1):
        assert vals[i] >= vals[i + 1] - 1e-10


@pytest.mark.parametrize("phi", [G.power(2), G.power_log(2, 1, 2)],
                         ids=["t2", "power_log"])
def test_hardy_norm_evaluates_F_once_per_node(phi):
    # each line caches |F| on its panels, so neither the second pass of the
    # power route nor a bisection step evaluates F again
    nodes = []

    def F(z):
        nodes.append(np.array(z).ravel())
        return B.decay(1, 3)(z)

    O.hardy_norm(F, phi)
    points = np.concatenate(nodes)
    assert points.size <= len(set(points.tolist()))


@pytest.mark.parametrize("y_grid", [[float("nan"), 1.0], [1.0, float("inf")]])
def test_hardy_norm_rejects_non_finite_heights(y_grid):
    with pytest.raises(ParameterError):
        O.hardy_norm(DECAY3, G.power(2), y_grid=y_grid)


def test_hardy_norm_divergent_line():
    with pytest.raises(NotInSpaceError):
        O.hardy_norm(lambda z: np.abs(1.0 - 1j * z) ** -1.0, G.power(1))


def test_mobius_measure_density():
    # z -> 2z pulls V_0 back with constant density 1/4
    mu = O.mobius_measure(2, 0, 0, 1, 0.0)
    h = O.mobius_density(mu)
    assert abs(h(1j) - 0.25) < 1e-15
    v = O.modular(DECAY3, mu, G.power(2))
    ref = 3 * np.pi / 128
    assert abs(v - ref) / ref < 1e-6


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
        {"atomic": [[0.0, 1.0, 1.0], [0.5, 2.0, 0.25]]},
        {"density": {"kind": "valpha", "alpha": 1.0,
                     "support": {"box": [0.0, 1.0, 0.5, 2.0]}}},
        {"density": {"kind": "valpha", "alpha": 0.0, "support": "auto"}},
        {"mobius": {"a": 1.0, "b": 0.0, "c": 0.0, "d": 1.0, "beta": 0.5}},
    ]
    for spec in specs:
        mu = O.measure_from_json(spec)
        again = O.measure_from_json(O.measure_to_json(mu))
        assert O.measure_to_json(mu) == O.measure_to_json(again)
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

    O._ModularEngine(f, mu, 1e-8).start(phi)
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


@pytest.mark.filterwarnings("ignore:divide by zero", "ignore:invalid value")
def test_hardy_norm_pole_on_the_line_raises():
    # a node of the line rule's first panel, [-1, 1]
    x0 = float(Q.gauss_nodes(Q.ORDER_HIGH)[0][3])
    with pytest.raises(AccuracyError):
        O.hardy_norm(lambda z: 1.0 / (z - (x0 + 1j)), G.power(2), y_grid=[1.0])


# float.hex of (value, modular_at_value, iterations) frozen before the
# modular passes of a bisection moved onto the block store: re-summing the
# stored panels block by block must not move a bit.
PLANE_DECAY = B.decay(1.25, 3.0)
BISECTION_PINS = [
    ("plane power_log", PLANE_DECAY, O.valpha_measure(0.0),
     G.power_log(2.5, 1.0, 2.0), 1e-6,
     ("0x1.cc743b5090f5bp-2", "0x1.ffffffd58c119p-1", 30)),
    ("plane custom t^2.5", PLANE_DECAY, O.valpha_measure(0.0),
     G.custom(lambda t: np.power(t, 2.5), label="t^2.5"), 1e-6,
     ("0x1.b4da87c1aedcep-2", "0x1.ffffffcefbfabp-1", 30)),
    ("graded box power_log", B.decay(1.0, 3.0),
     O.valpha_measure(0.0, Box(0.0, 1.0, 0.0, 1.0)), G.power_log(2, 1, 2),
     1e-8, ("0x1.83de1b45b2d3ep-2", "0x1.0000000f87092p+0", 30)),
]


@pytest.mark.parametrize("name,f,mu,phi,tol,pin", BISECTION_PINS,
                         ids=[p[0] for p in BISECTION_PINS])
def test_bits_bisection_route(name, f, mu, phi, tol, pin):
    r = O.luxembourg(f, mu, phi, tol=tol)
    assert (r.value.hex(), r.modular_at_value.hex(), r.iterations) == pin


def test_lux_bisection_passes_reuse_the_store(monkeypatch):
    # f is fed exactly the nodes it was fed panel by panel (140,544), and a
    # pass calls Phi at most once per stored block plus once per panel that
    # no earlier pass evaluated, where panel by panel it was once per panel
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

    def traced(engine, psi, lam):
        before = (phi_calls[0], len(sizes), len(list(engine.absf.blocks())))
        try:
            return modular_at(engine, psi, lam)
        finally:
            passes.append((phi_calls[0] - before[0], len(sizes) - before[1],
                           before[2]))

    monkeypatch.setattr(O._ModularEngine, "modular_at", traced)
    r = O.luxembourg(f, O.valpha_measure(0.0), phi, tol=1e-6)
    assert r.value.hex() == BISECTION_PINS[0][5][0]
    assert sum(sizes) == 140544
    assert len(passes) == r.iterations == 30
    for calls, new_panels, blocks in passes:
        assert calls <= blocks + new_panels
    # the first pass evaluates its panels one by one; over the 30 passes
    # Phi runs fewer than 3 times per panel, where panel by panel it ran
    # once per panel per pass
    assert passes[0][0] == passes[0][1] > 0
    panels = sizes.count(Q.ORDER_HIGH ** 2 + Q.ORDER_LOW ** 2)
    assert sum(p[0] for p in passes) < 3 * panels


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
            return engine.modular_at(phi, lam).hex()
        except DivergenceError:  # the whole plane at the vanishing probe
            return "diverges"

    engine = O._ModularEngine(DECAY3, mu, 1e-6)
    for lam in (0.05, 1e-300, 0.5, 2.0, 0.3):
        fresh = O._ModularEngine(DECAY3, mu, 1e-6)
        assert outcome(engine, lam) == outcome(fresh, lam)
    assert engine.modular_at(phi, 0.3) > 0


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
    assert sum(sizes) == 1600
    assert len(seen) == len(sizes)
    assert r.value.hex() == "0x1.e9783f7198970p-2"


def test_lux_seed_off_the_fixed_panel():
    # a support away from the fixed seed panel samples its own bbox: the
    # bump far out bisects in no more steps than the same bump near 0
    phi = G.power_log(2, 1, 2)
    steps = []
    for c in (0.5, 50.5):
        def bump(z, c=c):
            return 1e6 * np.exp(-np.abs(z - (c + 1j)) ** 2)

        mu = O.valpha_measure(0.0, Box(c - 0.5, c + 0.5, 0.5, 1.5))
        r = O.luxembourg(bump, mu, phi)
        assert abs(r.modular_at_value - 1.0) <= 1e-8
        steps.append(r.iterations)
    assert steps[1] <= steps[0] == 29
