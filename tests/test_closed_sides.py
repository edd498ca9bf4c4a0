"""The integer closed sides of the power-sum, Stirling and EGF entries.

The registry evaluates the Frobenius-Euler and Apostol-Bernoulli closed
forms, boyadzhiev's Stirling expansion and y6G's series in integers.  Here
each side is checked against the ``Fraction`` formula it replaced, and
against the public function, at points that the default grid never reaches,
and its printed form against the ``Fraction``'s.  A profile of
``Fraction.__new__`` shows that none of these entries builds a ``Fraction``
per grid point.
"""

from __future__ import annotations

import cProfile
from fractions import Fraction
from math import comb, factorial

import pytest

from binomsums.audit import AuditConfig, GridSpec, build_registry, evaluate_entry
from binomsums.audit import registry
from binomsums.audit.runner import _fmt
from binomsums.classic_numbers import apostol_bernoulli, frobenius_euler, stirling2
from binomsums.exact_core import Poly
from binomsums.p_polynomials import mirimanoff_frobenius_sum, power_sum_closed
from binomsums.y6_engine import y6_egf

# negative lam with |a| < b and with |a| > b, and the Euler branch
LAMS = [Fraction(s) for s in ("-1/2", "-2/3", "-3/5", "-3/2", "-5/3", "-7/2", "-1")]
# x0 = c/d with c < 0 and d in {2, 3}
X0S = [Fraction(s) for s in ("-1/2", "-5/2", "-1/3", "-4/3")]
# n = 0 is the empty sum
NS = [0, 1, 3, 7]


def _same(side, value: Fraction) -> bool:
    """The side equals the Fraction and prints as it does."""
    return side == value and str(side) == str(value)


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_mirimanoff_sides_equal_the_fraction_formulas(lam):
    u = lam
    for m in range(6):
        h = frobenius_euler(m, 1 / u)
        for n in NS:
            for x0 in X0S:
                corrected = (u**n * h(x0 + n) - h(x0)) / (u - 1)
                printed = (u**n * h(x0 + n) - h(x0 + n)) / (u - 1)
                direct = sum((u**j * (x0 + j) ** m for j in range(n)), Fraction(0))
                assert corrected == direct
                assert _same(mirimanoff_frobenius_sum(m, n, x0, u), corrected)
                args = (m, n, x0, lam)
                lhs, rhs = registry._mirimanoff_frobenius(True, *args)
                assert _same(lhs, direct) and _same(rhs, corrected)
                _, rhs = registry._mirimanoff_frobenius(False, *args)
                assert _same(rhs, printed)


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_apostol_sides_equal_the_fraction_formulas(lam):
    for m in range(1, 7):
        a = apostol_bernoulli(m, lam)
        for n in NS:
            terms = (lam**j * Fraction(j) ** (m - 1) for j in range(n))
            direct = sum(terms, Fraction(0))
            closed = power_sum_closed(m - 1, n, lam)
            assert type(closed) is Fraction and closed == direct
            lhs, rhs = registry._apostol_powersum(True, m, n, lam)
            assert _same(lhs, direct) and _same(rhs, closed)
            _, rhs = registry._apostol_powersum(False, m, n, lam)
            assert _same(rhs, (lam**m * a(n) - a(0)) / m)


@pytest.mark.parametrize("lam", LAMS, ids=str)
def test_y6g_series_equals_y6_egf(lam):
    for n in NS:
        for p in range(5):
            series = y6_egf(n, lam, p, 12)
            lhs, rhs = registry._y6g(n, p, lam)
            assert lhs == rhs
            assert _fmt(lhs) == _fmt(rhs) == str(series)
            assert [x.fraction() for x in lhs] == list(series.coeffs)


def test_boyadzhiev_row_equals_the_poly_expansion():
    for m in range(10):
        for n in range(10):
            rhs = Poly()
            for j in range(min(m, n) + 1):
                weight = comb(n, j) * factorial(j) * stirling2(m, j)
                rhs += weight * Poly.monomial(j) * Poly([1, 1]) ** (n - j)
            lhs, row = registry._boyadzhiev(m, n)
            assert row == rhs and lhs == rhs and str(row) == repr(rhs)


ENTRIES = {e.id: e for e in build_registry()}


def _fraction_news(entry, config: AuditConfig) -> int:
    """How many times ``Fraction.__new__`` runs while the entry is evaluated."""
    profile = cProfile.Profile()
    profile.runcall(evaluate_entry, entry, config)
    profile.create_stats()
    code = Fraction.__new__.__code__
    key = (code.co_filename, code.co_firstlineno, code.co_name)
    return profile.stats[key][1] if key in profile.stats else 0


@pytest.mark.parametrize(
    "entry_id", ["mirimanoff_frobenius", "apostol_powersum", "boyadzhiev"]
)
def test_no_fraction_is_built_per_grid_point(entry_id):
    # two grids that differ in n_max only: the tables, keyed on m and lam,
    # are the same, so a Fraction built per point would show as a difference
    entry = ENTRIES[entry_id]
    small, large = (AuditConfig(default=GridSpec(n_max=n_max)) for n_max in (3, 6))
    for config in (small, large):  # fill the memos of the number families
        evaluate_entry(entry, config)
    assert evaluate_entry(entry, large).points > evaluate_entry(entry, small).points
    assert _fraction_news(entry, large) == _fraction_news(entry, small)
