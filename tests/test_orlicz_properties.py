"""Property tests for modulars and Luxembourg norms.

Two laws every Orlicz norm obeys, drawn over an atomic measure, a y**alpha
density on a box and a triangular Mobius pullback, under t**2 and the
non-power t**2 log(2 + t):
- homogeneity, ||c f|| = |c| ||f||;
- lambda -> modular(f / lambda) is nonincreasing.

Bisection runs only on the atomic and box measures, where a solve is
cheap; the pullback's norm takes the closed p-norm route under t**2.
"""

import cmath

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz import bergman as B
from bergman_orlicz import growth as G
from bergman_orlicz import orlicz as O
from bergman_orlicz.halfplane import Box, HPoint

MEASURES = {
    "atomic": O.atomic_measure([(HPoint(0.1, 0.5), 1.0),
                                (HPoint(-0.4, 1.2), 0.3),
                                (HPoint(2.0, 0.05), 2.0)]),
    "box": O.valpha_measure(0.3, Box(-1.0, 1.0, 0.2, 1.5)),
    "pullback": O.mobius_measure(1, 1, 0, 1, 0.5),
}
PHIS = {"t2": G.power(2), "power_log": G.power_log(2, 1, 2)}
HOMOGENEITY = [(m, p) for m in MEASURES for p in PHIS
               if m != "pullback" or p == "t2"]

fields = st.builds(B.decay, st.floats(0.5, 2.0), st.sampled_from([3.0, 4.0]))
scalars = st.builds(cmath.rect, st.floats(1e-3, 1e3), st.floats(-3.1, 3.1))


@pytest.mark.parametrize("measure,phi", HOMOGENEITY)
@settings(derandomize=True, max_examples=6, deadline=None)
@given(f=fields, c=scalars)
def test_luxembourg_homogeneity(measure, phi, f, c):
    mu, growth = MEASURES[measure], PHIS[phi]
    base = O.luxembourg(f, mu, growth).value
    scaled = O.luxembourg(lambda z: c * f(z), mu, growth).value
    assert abs(scaled - abs(c) * base) <= 1e-7 * abs(c) * base


@pytest.mark.parametrize("phi", sorted(PHIS))
@pytest.mark.parametrize("measure", sorted(MEASURES))
@settings(derandomize=True, max_examples=4, deadline=None)
@given(f=fields, lam=st.floats(0.05, 20.0), ratio=st.floats(1.0, 4.0))
def test_modular_nonincreasing_in_lambda(measure, phi, f, lam, ratio):
    mu, growth = MEASURES[measure], PHIS[phi]
    near = O.modular(lambda z: f(z) / lam, mu, growth)
    far = O.modular(lambda z: f(z) / (lam * ratio), mu, growth)
    # equal scales may differ by the quadrature's relative tolerance
    assert far <= near * (1.0 + 1e-8)
