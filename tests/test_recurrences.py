"""The certified recurrences: every stored row's certificate is checked in
integers, a row or certificate off by one fails the check or the unrolling,
and the unrolled terms agree with the direct sum ``_y6``."""

from __future__ import annotations

from fractions import Fraction

import pytest

from binomsums.exact_core import _ratio
from binomsums.recurrences import ROWS, check_certificate, row_for, unroll
from binomsums.y6_engine import _y6


def _bumped(poly, path):
    """The nested tuple with the coefficient at ``path`` raised by one."""
    if not path:
        return poly + 1
    i = path[0]
    return poly[:i] + (_bumped(poly[i], path[1:]),) + poly[i + 1 :]


def _paths(poly, prefix=()):
    """The index path of every coefficient of a nested tuple."""
    if type(poly) is int:
        yield prefix
        return
    for i, c in enumerate(poly):
        yield from _paths(c, prefix + (i,))


def _ids(row):
    return f"p{row.p}-x{row.x}"


def _seeds(row, m, a, b):
    order = len(row.telescoper) - 1
    return [[_y6(j, n, a, b, row.p) for j in range(m + 1)] for n in range(order)]


@pytest.mark.parametrize("row", ROWS, ids=_ids)
def test_every_stored_row_is_certified(row):
    assert check_certificate(row)


@pytest.mark.parametrize("row", ROWS, ids=_ids)
@pytest.mark.parametrize("field", ["telescoper", "certificate"])
def test_one_coefficient_off_by_one_fails_the_check(row, field):
    poly = getattr(row, field)
    for path in _paths(poly):
        assert not check_certificate(row._replace(**{field: _bumped(poly, path)}))


@pytest.mark.parametrize("row", ROWS, ids=_ids)
def test_a_span_below_the_order_or_p_below_one_is_refused(row):
    assert not check_certificate(row._replace(span=len(row.telescoper) - 2))
    assert not check_certificate(row._replace(p=0))


@pytest.mark.parametrize("row", ROWS, ids=_ids)
def test_every_lead_is_free_of_x_and_positive(row):
    # so no division by the lead is by zero, at any lam and n >= 0
    (lead,) = row.telescoper[-1]
    assert lead[0] > 0 and all(c >= 0 for c in lead)


@pytest.mark.parametrize(
    "p, m, lam, expected",
    [
        (3, 0, (1, 1), (3, 1)),
        (4, 0, (1, 1), (4, 1)),
        (3, 1, (1, 1), (3, None)),
        (3, 0, (5, 11), (3, None)),
        (1, 0, (1, 1), (1, None)),
        (2, 4, (-7, 13), (2, None)),
        (4, 1, (1, 1), None),
        (4, 0, (2, 1), None),
        (0, 0, (1, 1), None),
        (5, 0, (1, 1), None),
    ],
)
def test_row_for_picks_the_row_at_one_first(p, m, lam, expected):
    row = row_for(p, m, *lam)
    assert (row and (row.p, row.x)) == expected


_LAMS = ["0", "1", "-1", "2", "1/2", "5/11", "-7/9", "7/13", "-5/11"]


@pytest.mark.parametrize(
    "p, m, lam",
    [
        (p, m, lam)
        for p in (1, 2, 3, 4)
        for m in range(5)
        for lam in _LAMS
        if row_for(p, m, *_ratio(Fraction(lam)))
    ],
)
def test_unrolled_terms_are_the_direct_sums(p, m, lam):
    a, b = _ratio(Fraction(lam))
    row = row_for(p, m, a, b)
    seeds = _seeds(row, m, a, b)
    for rng in (range(0, 25), range(31, 37), range(0, 1), range(1, 2)):
        expected = [_y6(m, n, a, b, p) for n in rng]
        assert list(unroll(row, m, a, b, seeds, rng)) == expected


@pytest.mark.parametrize(
    "row", [row for row in ROWS if row.telescoper[-1] != ((1,),)], ids=_ids
)
def test_a_perturbed_telescoper_raises_while_unrolling(row):
    # the constant term of c_0 raised by one, at an a, b and m the row
    # serves; a lead of 1 (p = 1) divides every sum exactly
    c0, *rest = row.telescoper
    bad = row._replace(telescoper=(_bumped(c0, (0, 0)), *rest))
    m, a, b = (0, 1, 1) if row.x is not None else (2, 5, 11)
    with pytest.raises(ArithmeticError, match="is not exact at n = "):
        list(unroll(bad, m, a, b, _seeds(row, m, a, b), range(40)))


def test_a_row_at_one_x_serves_only_m_zero_there():
    row = row_for(3, 0, 1, 1)
    with pytest.raises(ValueError, match="x = 1 and m = 0 only"):
        list(unroll(row, 1, 1, 1, _seeds(row, 1, 1, 1), range(5)))
    with pytest.raises(ValueError, match="x = 1 and m = 0 only"):
        list(unroll(row, 0, 2, 1, _seeds(row, 0, 2, 1), range(5)))
