"""Tests for the growth-function calculus.

Reference numbers marked "frozen" were produced by
tools/oracles/growth_oracle.py (mpmath at 50 digits, dense-scan
conjugates, derivative-ratio indices).
"""

import numpy as np
import pytest

from bergman_orlicz import growth as G
from bergman_orlicz import quadrature as Q
from bergman_orlicz.errors import (AccuracyError, DivergenceError,
                                   OverflowBracketError, ParameterError)

# frozen: conjugate of t^2 log(1+t) at sample points
CONJ_POWERLOG = {
    0.3: 0.068237398494274927398,
    1.0: 0.44018353332255431544,
    4.0: 3.9541144311821512274,
    50.0: 263.50450219394655918,
}

# frozen: index ratio t phi'/phi of t^2 log(1+t) at the grid endpoints
IDX_POWERLOG = (2.0542868096655678043, 2.9999999950000000417)

# frozen: sup of phi(2t)/phi(t) over the default grid, attained at t=1e-8
DOUBLING_POWERLOG = 7.9999999600000006


def test_power_call_and_deriv():
    phi = G.power(2.5, coef=3.0)
    ts = np.array([0.1, 1.0, 7.0])
    np.testing.assert_allclose(phi(ts), 3.0 * ts ** 2.5, rtol=1e-14)
    np.testing.assert_allclose(phi.deriv(ts), 7.5 * ts ** 1.5, rtol=1e-14)
    assert phi(0.0) == 0.0


def test_power_log_small_t_stable():
    # log1p route keeps relative accuracy where log(1+t) cancels
    phi = G.power_log(2, 1, 1)
    t = 1e-9
    assert abs(phi(t) - t ** 2 * np.log1p(t)) / phi(t) < 1e-13


def test_conjugate_power_closed_form():
    psi = G.conjugate_of(G.power(2))
    for s in [0.5, 1.0, 2.0, 5.0]:
        assert abs(psi(s) - s * s / 4.0) < 1e-14 * max(1.0, s * s)


def test_conjugate_power_17_matches_scan_oracle():
    psi = G.conjugate_of(G.power(1.7))
    for s, ref in [(0.5, 0.035839630803723081174),
                   (2.0, 1.0387456555972368512),
                   (10.0, 51.761613117566864893)]:
        assert abs(psi(s) - ref) / ref < 1e-14


def test_conjugate_power_double_is_identity():
    rng = np.random.default_rng(7)
    for _ in range(20):
        p = float(rng.uniform(1.1, 5.0))
        c = float(rng.uniform(0.2, 4.0))
        phi = G.power(p, coef=c)
        back = G.conjugate_of(G.conjugate_of(phi))
        for t in [0.1, 1.0, 13.0]:
            assert abs(back(t) - phi(t)) / phi(t) < 1e-12


def test_conjugate_numeric_matches_scan_oracle():
    psi = G.conjugate_of(G.power_log(2, 1, 1))
    for s, ref in CONJ_POWERLOG.items():
        assert abs(psi(s) - ref) / ref < 1e-9


def test_conjugate_numeric_double_recovers():
    phi = G.power_log(2, 1, 1)
    back = G.conjugate_of(G.conjugate_of(phi))
    for t in [0.3, 1.0, 4.0, 50.0]:
        assert abs(back(t) - phi(t)) / phi(t) < 1e-9


def test_conjugate_envelope_derivative():
    # psi'(s) is the maximizing t, so phi'(psi'(s)) must return s
    phi = G.power_log(2, 1, 1)
    psi = G.conjugate_of(phi)
    for s in [0.5, 3.0, 20.0]:
        tstar = psi.deriv(s)
        assert abs(phi.deriv(tstar) - s) / s < 1e-8


def test_conjugate_linear_is_split():
    psi = G.conjugate_of(G.power(1, coef=2.0))
    assert psi(1.0) == 0.0
    assert psi(2.0) == 0.0
    assert np.isinf(psi(2.5))


def test_conjugate_sublinear_rejected():
    with pytest.raises(ParameterError):
        G.conjugate_of(G.power(0.8))


def test_conjugate_linear_general_rejected():
    # numeric route needs genuine superlinear growth; a custom linear
    # function misses the split fast path and must be refused
    lin = G.custom(lambda t: 3.0 * t, lambda t: 3.0 * np.ones_like(t), "3t")
    with pytest.raises((ParameterError, OverflowBracketError)):
        G.conjugate_of(lin)(1.0)


def test_indices_power():
    lo, hi = G.indices(G.power(2.3))
    assert abs(lo - 2.3) < 1e-9 and abs(hi - 2.3) < 1e-9


def test_indices_power_log_frozen():
    lo, hi = G.indices(G.power_log(2, 1, 1))
    assert abs(lo - IDX_POWERLOG[0]) < 1e-6
    assert abs(hi - IDX_POWERLOG[1]) < 1e-6


def test_inverse_power():
    assert abs(G.inverse(G.power(2), 9.0) - 3.0) < 1e-14
    ys = np.array([0.0, 1.0, 16.0, np.inf])
    out = G.inverse_vec(G.power(2), ys)
    np.testing.assert_allclose(out[:3], [0.0, 1.0, 4.0], rtol=1e-12)
    assert np.isinf(out[3])


def test_inverse_general_bracket():
    phi = G.power_log(2, 1, 1)
    for y in [0.01, 1.0, 300.0]:
        t = G.inverse(phi, y)
        assert abs(phi(t) - y) / y < 1e-9


def test_power_transform():
    phi2 = G.power_transform(G.power(3), 2.0)
    assert abs(phi2(5.0) - 25.0) < 1e-12
    with pytest.raises(ParameterError):
        G.power_transform(G.power(3), 0.5)


def test_composed_inverse_powers():
    g = G.composed_inverse(G.power(3), G.power(2))
    assert abs(g(4.0) - 8.0) < 1e-12


def test_composed_inverse_general():
    outer = G.power_log(2, 1, 1)
    g = G.composed_inverse(outer, G.power(2))
    # inner^{-1}(t) = sqrt(t), so g(t) = outer(sqrt(t))
    for t in [0.5, 2.0, 40.0]:
        ref = outer(np.sqrt(t))
        assert abs(g(t) - ref) / ref < 1e-9


def test_report_cubic():
    rep = G.regularity_report(G.power(3))
    assert rep.delta2 == (True, 8.0)
    ok, c = rep.nabla2
    assert ok and abs(c - 0.5) < 1e-6
    assert rep.convex_ok
    lo, hi = rep.indices
    assert abs(lo - 3.0) < 1e-9 and abs(hi - 3.0) < 1e-9


@pytest.mark.parametrize("p", [1.05, 1.1, 1.2, 2.0])
def test_report_dini_constant_near_linear(p):
    # sup_t (t / t^p) int_0^t s^(p-2) ds = 1/(p-1); p = 1.05 needs about
    # 560 halvings toward 0, past the point where s*s underflows
    ok, c = G.regularity_report(G.power(p)).nabla2
    assert ok and abs(c * (p - 1) - 1) < 1e-7


def test_report_linear():
    rep = G.regularity_report(G.power(1))
    assert rep.delta2 == (True, 2.0)
    assert rep.nabla2 == (False, np.inf)
    assert rep.indices == (1.0, 1.0)


def test_report_power_log():
    rep = G.regularity_report(G.power_log(2, 1, 1))
    ok, k = rep.delta2
    assert ok and abs(k - DOUBLING_POWERLOG) < 1e-6
    ok, _ = rep.nabla2
    assert ok
    a, ca = rep.lower_type
    b, cb = rep.upper_type
    assert abs(a - IDX_POWERLOG[0]) < 1e-5
    assert abs(b - IDX_POWERLOG[1]) < 1e-5
    assert ca < 1.5 and cb < 1.5


def test_report_exponential_not_doubling():
    e = G.custom(lambda t: np.expm1(t), lambda t: np.exp(t), "expm1")
    rep = G.regularity_report(e)
    assert rep.delta2 == (False, np.inf)


def test_embedding_condition_powers():
    holds, c, mono = G.embedding_condition_check(G.power(2), G.power(1))
    assert holds and abs(c - 1.0) < 1e-12 and mono
    holds, _, _ = G.embedding_condition_check(G.power(1), G.power(2))
    assert not holds
    holds, _, _ = G.embedding_condition_check(G.power(1), G.power(1))
    assert not holds
    holds, c, mono = G.embedding_condition_check(G.power(3), G.power(2))
    assert holds and abs(c - 2.0) < 1e-12 and mono


def test_embedding_condition_general_route_agrees():
    # force the quadrature route with a non-power pair
    holds, c, mono = G.embedding_condition_check(G.power_log(3, 1, 1), G.power(2))
    assert holds and np.isfinite(c)
    assert mono


def test_young_inequality_random():
    rng = np.random.default_rng(11)
    for phi in [G.power(2), G.power(1.7), G.power_log(2, 1, 1)]:
        psi = G.conjugate_of(phi)
        viol, gap = G.young_report(phi)
        assert viol <= 1e-9
        assert gap <= 1e-6
        for _ in range(50):
            s = float(10.0 ** rng.uniform(-3, 3))
            t = float(10.0 ** rng.uniform(-3, 3))
            bound = phi(t) + psi(s)
            assert s * t <= bound * (1 + 1e-9) + 1e-12


def test_json_round_trip():
    specs = [
        ({"family": "power", "p": 2.0}, G.power(2.0)),
        ({"family": "power", "p": 1.5, "coef": 2.0}, G.power(1.5, coef=2.0)),
        ({"family": "power_log", "p": 2.0, "a": 1.0, "c": 2.718281828},
         G.power_log(2.0, 1.0, 2.718281828)),
        ({"family": "conjugate", "of": {"family": "power", "p": 2.0}},
         G.conjugate_of(G.power(2.0))),
        ({"family": "composed_inverse",
          "outer": {"family": "power", "p": 3.0},
          "inner": {"family": "power", "p": 2.0}},
         G.composed_inverse(G.power(3.0), G.power(2.0))),
        ({"family": "power_transform",
          "base": {"family": "power_log", "p": 2.0, "a": 1.0, "c": 2.0},
          "s": 3.0},
         G.power_transform(G.power_log(2.0, 1.0, 2.0), 3.0)),
    ]
    for spec, again in specs:
        phi = G.from_json(spec)
        for t in [0.3, 1.0, 8.0]:
            a, b = phi(t), again(t)
            assert abs(a - b) <= 1e-12 * max(1.0, abs(a))


def test_json_unknown_family():
    with pytest.raises(ParameterError):
        G.from_json({"family": "bogus"})


@pytest.mark.parametrize("spec", [
    {"family": "power"},
    {"family": "power_log", "p": 2, "q": 1, "r": 2},
    {"family": "power_log", "p": 2, "a": 1},
    {"family": "conjugate"},
    {"family": "composed_inverse", "outer": {"family": "power", "p": 2}},
    {"family": "power_transform", "base": {"family": "power", "p": 2}},
    {"family": "conjugate", "of": {"family": "power_log", "p": 2}},
])
def test_json_missing_key_is_a_parameter_error(spec):
    with pytest.raises(ParameterError, match="needs the key"):
        G.from_json(spec)


def test_array_matches_scalar():
    phi = G.power_log(2, 1, 1)
    ts = np.array([0.2, 1.0, 5.0, 80.0])
    vec = phi(ts)
    for i, t in enumerate(ts):
        assert vec[i] == phi(float(t))


def _dini_strip_by_strip(phi, t, tol=1e-9):
    """`growth._dini_integral` with one `integrate_1d` call per strip, as it
    was before its strips ran on the quadrature layer's strip chain."""

    def strips():
        hi = t
        for _ in range(3000):
            v, e = Q.integrate_1d(lambda s: phi(s) / s / s, hi / 2, hi,
                                  tol=tol)
            yield v, abs(v), e
            hi /= 2

    return Q._sum_tail(strips(), tol, (0.995, 8, 12),
                       f"Dini integral of {phi.label}")[0]


@pytest.mark.parametrize("phi", [G.power(1.5), G.power(1.03),
                                 G.power_log(2, 1, 2)],
                         ids=["t^1.5", "t^1.03", "power_log"])
def test_dini_chain_keeps_the_strip_by_strip_bits(phi):
    for t in (1e-6, 3e-2, 1.0, 7e3, 1e6):
        assert (G._dini_integral(phi, t).hex()
                == _dini_strip_by_strip(phi, t).hex())


@pytest.mark.parametrize("phi,error", [(G.power(1.02), AccuracyError),
                                       (G.power(1.0), DivergenceError)],
                         ids=["t^1.02", "t"])
def test_dini_chain_keeps_its_errors(phi, error):
    messages = []
    for run in (G._dini_integral, _dini_strip_by_strip):
        with pytest.raises(error) as e:
            run(phi, 1.0)
        messages.append(str(e.value))
    assert messages[0] == messages[1]


def test_dini_chain_drops_errors_past_its_stop():
    # t^2 / s^2 = 1 sums the strips 2^-k of (0, 1] until strip 33, (2^-33,
    # 2^-32], in the run of strips 31-35, whose lookahead batch reaches
    # 2^-35; below 2^-34 this Phi raises
    raised = []

    def fn(s):
        if (s < 2.0 ** -34).any():
            raised.append(s.size)
            raise OverflowBracketError("past the chain's stop")
        return s * s

    phi = G.custom(fn, label="raising t^2")
    assert G._dini_integral(phi, 1.0).hex() == _dini_strip_by_strip(
        phi, 1.0).hex() == G._dini_integral(G.power(2), 1.0).hex()
    assert raised


def test_dini_chain_raises_errors_it_reaches():
    def fn(s):
        if (s < 2.0 ** -20).any():
            raise OverflowBracketError("within the chain's reach")
        return s * s

    phi = G.custom(fn, label="raising t^2")
    for run in (G._dini_integral, _dini_strip_by_strip):
        with pytest.raises(OverflowBracketError, match="within"):
            run(phi, 1.0)
