"""Every int-indexed public function refuses a float or Fraction index
before it reaches a cache or the arithmetic, so an equal int key is never
poisoned (a float 60.0 once hashed like 60 and cached a float result)."""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import comb

import pytest

from binomsums.classic_numbers import (
    FamilyTag,
    apostol_bernoulli,
    apostol_euler,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_order,
    classic_sequence,
    euler_number0,
    euler_poly,
    euler_poly_order,
    frobenius_euler,
    legendre,
    mirimanoff,
    stirling1,
    stirling2,
    y1,
    y_seq,
)
from binomsums.exact_core import binomial_general, falling_factorial, pochhammer
from binomsums.y6_engine import (
    b_ogf,
    bnk,
    franel,
    franel_recurrence,
    moment,
    t_poly,
    y6,
)

HALF = Fraction(1, 2)

CALLS = [
    (bnk, (60, 3)),
    (t_poly, (4,)),
    (b_ogf, (3,)),
    (y6, (2, 7, HALF, 3)),
    (moment, (2, 3, 6)),
    (franel, (3, 1, 6, HALF)),
    (franel_recurrence, (4, 9)),
    (stirling2, (9, 4)),
    (stirling1, (9, 4)),
    (bernoulli_number, (12,)),
    (bernoulli_poly, (7,)),
    (bernoulli_poly_order, (6, -2)),
    (euler_poly, (7,)),
    (euler_poly_order, (6, 3)),
    (euler_number0, (9,)),
    (apostol_bernoulli, (5, HALF)),
    (apostol_euler, (5, HALF)),
    (frobenius_euler, (5, HALF)),
    (classic_sequence, (FamilyTag.DAEHEE, 7)),
    (y1, (4, 6, HALF)),
    (y_seq, (6, HALF)),
    (legendre, (6,)),
    (mirimanoff, (3, 5, 1)),
    # the first argument is rational, so only the index v is probed
    (pochhammer, (HALF, 4)),
    (falling_factorial, (HALF, 4)),
    (binomial_general, (HALF, 4)),
]

CASES = [
    pytest.param(fn, args, i, id=f"{fn.__name__}[{i}]")
    for fn, args in CALLS
    for i, arg in enumerate(args)
    if type(arg) is int
]


@pytest.mark.parametrize("fn, args, index", CASES)
def test_non_int_index_is_refused_and_int_stays_exact(fn, args, index):
    for bad in (float(args[index]), Fraction(args[index])):
        with pytest.raises(TypeError, match="must be an int"):
            fn(*args[:index], bad, *args[index + 1 :])
    # the memoized value equals a fresh evaluation of the function body
    assert fn(*args) == inspect.unwrap(fn)(*args)


@pytest.mark.parametrize("fn", [pochhammer, falling_factorial, binomial_general])
def test_bool_index_is_refused(fn):
    # bool is an int subclass, so True would otherwise pass as the index 1
    with pytest.raises(TypeError, match="v must be an int"):
        fn(5, True)


def test_float_index_does_not_poison_bnk():
    with pytest.raises(TypeError):
        bnk(60.0, 3)
    assert bnk(60, 3) == sum(comb(3, j) * j**60 for j in range(4))
