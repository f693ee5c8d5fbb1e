"""Acceptance gate: one test per numbered release criterion.

Runs the full suite once per session and asserts each criterion's
verdict, printing the same PASS/FAIL line the `verify` subcommand
emits.  Per-criterion wall-clock budgets are asserted where the
release contract pins one.
"""

import pytest

from bergman_orlicz import acceptance
from bergman_orlicz.errors import ParameterError

_CACHE = {}


def _results():
    if not _CACHE:
        _CACHE.update((r.name, r) for r in acceptance.run())
    return _CACHE


def _check(name, budget=None):
    r = _results()[name]
    print(f"{'PASS' if r.passed else 'FAIL'} {r.name}: {r.detail} "
          f"({r.elapsed:.1f}s)")
    assert r.passed, f"{name}: {r.detail}"
    if budget is not None:
        assert r.elapsed < budget, \
            f"{name} took {r.elapsed:.1f}s, budget {budget}s"


def test_criterion_beta():
    _check("beta", budget=1.0)


def test_criterion_decay():
    _check("decay", budget=10.0)


def test_criterion_luxnorm():
    _check("luxnorm")


def test_criterion_lattice():
    _check("lattice", budget=5.0)


def test_criterion_reproduce():
    _check("reproduce", budget=60.0)


def test_criterion_equivalence():
    _check("equivalence")


def test_criterion_berezin():
    _check("berezin")


def test_criterion_averaging():
    _check("averaging")


def test_criterion_khintchine():
    _check("khintchine")


def test_criterion_carleson():
    _check("carleson", budget=300.0)
    # the printed flips: the empirical one is closed, and the membership one
    # is the fifth bisection midpoint of [-0.8, -0.2] whose bracket holds
    # the cell rule's flip at -0.4964 (theory: -1/2)
    detail = _results()["carleson"].detail
    for part in ("empirical flip at tau -0.629",
                 "membership flip at tau -0.491", "gap 0.138"):
        assert part in detail, detail


def test_criterion_composition():
    _check("composition")


def test_criterion_growth():
    _check("growth")


def test_full_suite_wall_clock():
    total = sum(r.elapsed for r in _results().values())
    print(f"total acceptance wall-clock {total:.1f}s")
    assert total < 600.0


def test_all_twelve_present_in_order():
    assert acceptance.SUITE_NAMES == (
        "beta", "decay", "luxnorm", "lattice", "reproduce", "equivalence",
        "berezin", "averaging", "khintchine", "carleson", "composition",
        "growth")
    assert list(_results()) == list(acceptance.SUITE_NAMES)


def test_suite_filter_runs_named_subset():
    rs = acceptance.run(suites=["beta"])
    assert [r.name for r in rs] == ["beta"]
    assert rs[0].passed


def test_unknown_suite_rejected():
    with pytest.raises(ParameterError):
        acceptance.run(suites=["beta", "bogus"])
