"""A measure is atoms or a density; a Mobius pullback is a density.

Every call on `mobius_measure(...)` must give bit for bit what the same
call gives on the density of its closed pullback weight, or raise the same
error type.
"""

from dataclasses import replace

import pytest

from bergman_orlicz import carleson as C
from bergman_orlicz import growth as G
from bergman_orlicz import orlicz as O
from bergman_orlicz.errors import AccuracyError, BergmanOrliczError
from bergman_orlicz.halfplane import Box, HPoint

TRIANGULAR = [(1, 0, 0, 1, 0), (2, 0, 0, 1, 0), (1, 1, 0, 1, 0.5)]
NON_TRIANGULAR = [(1, -1, 1, 1, 0), (2, 1, 1, 3, 0.3)]

# vanishes to second order at z = 1 and z = 2, where the two
# non-triangular pullback weights blow up like |z - a/c|**-4
FIELD = lambda z: ((z - 1) * (z - 2)) ** 2 / (z + 1j) ** 8
PLOG = G.power_log(2, 1, 2)
Z = 0.3 + 0.7j


def _outcome(call):
    try:
        out = call()
    except BergmanOrliczError as e:
        return type(e).__name__
    if isinstance(out, O.LuxResult):
        return out.value.hex(), out.iterations
    return float(out).hex()


CALLS = {
    "modular": lambda mu: O.modular(FIELD, mu, PLOG, tol=1e-4),
    "luxembourg": lambda mu: O.luxembourg(FIELD, mu, PLOG, tol=1e-4),
    "average": lambda mu: C.average(mu, Z, 0.3),
    "berezin": lambda mu: C.berezin(mu, -0.2 + 1.5j, tol=1e-6),
}


@pytest.mark.parametrize("call", sorted(CALLS))
@pytest.mark.parametrize("coeffs", TRIANGULAR + NON_TRIANGULAR,
                         ids=lambda c: ",".join(map(str, c)))
def test_pullback_is_its_density(coeffs, call):
    mu = O.mobius_measure(*coeffs)
    dens = O.density_measure(O.mobius_density(mu))
    assert _outcome(lambda: CALLS[call](mu)) == \
        _outcome(lambda: CALLS[call](dens))


def test_pullback_fields():
    mu = O.mobius_measure(2, 1, 1, 3, 0.3)
    assert mu.atoms == () and mu.support is None and mu.alpha_base == 0.0
    assert mu.mobius == (2.0, 1.0, 1.0, 3.0) and mu.beta == 0.3
    assert C.pullback_mobius is O.mobius_measure
    parsed = O.measure_from_json(
        {"mobius": {"a": 2.0, "b": 1.0, "c": 1.0, "d": 3.0, "beta": 0.3}})
    assert replace(parsed, weight=None) == replace(mu, weight=None)
    assert parsed.weight(Z) == mu.weight(Z)


def test_divergent_pullback_transform_is_an_accuracy_error():
    # the pullback weight of (z+1)/(-z+1) is 4/|1-z|**4: the transform
    # integral diverges at z = 1, as for any density
    with pytest.raises(AccuracyError):
        C.berezin(O.mobius_measure(1, -1, 1, 1, 0), Z)


def test_restrict_keeps_a_pullback_whole():
    box = Box(-2.0, 2.0, 0.5, 2.0)
    mu = O.mobius_measure(1, -1, 1, 1, 0)
    assert C._restrict(mu, box) is mu
    atoms = O.atomic_measure([(HPoint(0, 1), 1.0), (HPoint(3, 1), 2.0)])
    assert C._restrict(atoms, box).atoms == ((HPoint(0, 1), 1.0),)
    assert C._restrict(O.valpha_measure(0.5), box).support == box
    assert C._restrict(O.valpha_measure(0.5, Box(3, 4, 0.5, 1)), box) is None
