"""Every int-indexed public function refuses a float or Fraction index
before it reaches a cache or the arithmetic, so an equal int key is never
poisoned (a float 60.0 once hashed like 60 and cached a float result).
Every index except the Bernoulli/Euler order k and the argument of
``alternating_square_gamma`` must also be >= 0."""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import comb

import pytest

from binomsums import classic_numbers, y6_engine
from binomsums.classic_numbers import (
    FamilyTag,
    apostol_bernoulli,
    apostol_euler,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_order,
    classic_range,
    classic_sequence,
    euler_number0,
    euler_poly,
    euler_poly_order,
    frobenius_euler,
    legendre,
    mirimanoff,
    stirling1,
    stirling2,
    y_seq,
)
from binomsums.exact_core import (
    EgfSeries,
    Poly,
    binomial_general,
    falling_factorial,
    pochhammer,
    poly_integral01,
)
from binomsums.hypergeom import (
    OgfCase,
    PfqSpec,
    alternating_square_gamma,
    ogf_reference,
    ogf_series,
    pfq_terminating,
    y6_hyper,
)
from binomsums.p_polynomials import (
    euler_operator,
    fermionic,
    mirimanoff_frobenius_sum,
    power_sum_closed,
    volkenborn,
    vowe,
)
from binomsums.y6_engine import (
    b_ogf,
    bnk,
    franel,
    franel_range,
    moment,
    t_poly,
    y1,
    y6,
    y6_egf,
    y6_range,
)

HALF = Fraction(1, 2)

CALLS = [
    (bnk, (60, 3)),
    (t_poly, (4,)),
    (b_ogf, (3,)),
    (y6, (2, 7, HALF, 3)),
    (moment, (2, 3, 6)),
    (franel, (3, 1, 6, HALF)),
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
    (power_sum_closed, (3, 10, Fraction(-2))),
    (mirimanoff_frobenius_sum, (2, 5, HALF, Fraction(3))),
    (euler_operator, (Poly([1, 2, 3]), 2)),
    (vowe, (6,)),
    (y6_egf, (4, HALF, 3, 5)),
    (y6_hyper, (5, HALF, 3)),
    (ogf_series, (OgfCase.LAM_P1, HALF, 6)),
    (ogf_reference, (OgfCase.LAM_P1, HALF, 6)),
    (alternating_square_gamma, (5,)),
    (EgfSeries.exp, (HALF, 5)),
    (EgfSeries.one, (4,)),
    (Poly.monomial, (3, HALF)),
    (EgfSeries.exp(HALF, 5).coeff, (4,)),
    (b_ogf(2).series, (6,)),
]

# the indices that range over all of Z
SIGNED = {
    (bernoulli_poly_order, 1),
    (euler_poly_order, 1),
    (alternating_square_gamma, 0),
}

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


NON_NEGATIVE_CASES = [
    case for case in CASES if (case.values[0], case.values[2]) not in SIGNED
]


@pytest.mark.parametrize("fn, args, index", NON_NEGATIVE_CASES)
def test_negative_index_is_refused(fn, args, index):
    with pytest.raises(ValueError):
        fn(*args[:index], -1, *args[index + 1 :])


# The range functions take their indices as a step-1 range; each refuses a
# bad argument when it is called, not when the first term is asked for.
RANGE_CALLS = [
    (y6_range, (2, HALF, 3)),
    (franel_range, (4, 0, 1)),
    (classic_range, (FamilyTag.DAEHEE,)),
]


def _no_terms(*args):
    raise AssertionError("a term was computed for a refused call")


@pytest.fixture
def kernels_off(monkeypatch):
    """The range functions fail past their checks: a refused call must not
    reach the first thing they compute."""
    monkeypatch.setattr(y6_engine, "row_for", _no_terms)
    monkeypatch.setattr(classic_numbers, "_bernoulli_weights", _no_terms)


@pytest.mark.parametrize(
    "rng, error, message",
    [
        ([4, 5, 6], TypeError, "rng must be a range, got list"),
        (range(4, 9, 2), ValueError, "rng must have step 1, got 2"),
        (range(9, 4, -1), ValueError, "rng must have step 1, got -1"),
        (range(-1, 9), ValueError, "must be >= 0"),
    ],
    ids=["list", "step2", "reversed", "negative"],
)
@pytest.mark.parametrize(
    "fn, args", [pytest.param(fn, args, id=fn.__name__) for fn, args in RANGE_CALLS]
)
def test_bad_range_is_refused_at_the_call(fn, args, rng, error, message, kernels_off):
    with pytest.raises(error, match=message):
        fn(*args, rng)


@pytest.mark.parametrize(
    "fn, args, error",
    [
        (y6_range, (2, 0.5, 3), TypeError),
        (y6_range, (2.0, HALF, 3), TypeError),
        (y6_range, (2, HALF, Fraction(3)), TypeError),
        (y6_range, (-1, HALF, 3), ValueError),
        (y6_range, (2, HALF, -3), ValueError),
        (franel_range, (4, 0, 1.0), TypeError),
        (franel_range, (4.0, 0, 1), TypeError),
        (franel_range, (4, Fraction(0), 1), TypeError),
        (franel_range, (-4, 0, 1), ValueError),
        (franel_range, (4, -1, 1), ValueError),
    ],
)
def test_bad_argument_of_a_range_is_refused_at_the_call(fn, args, error, kernels_off):
    with pytest.raises(error):
        fn(*args, range(4, 9))


def test_tag_that_is_not_a_family_is_refused():
    # a string tag once gave [] over an empty range, and "unknown family"
    # (a ValueError) over any other
    message = "tag must be a FamilyTag, got str"
    for rng in (range(0), range(3, 9)):
        with pytest.raises(TypeError, match=message):
            classic_range("daehee", rng)
    with pytest.raises(TypeError, match=message):
        classic_sequence("daehee", 3)


def test_signed_orders_still_evaluate():
    assert bernoulli_poly_order(6, -2) == inspect.unwrap(bernoulli_poly_order)(6, -2)
    assert euler_poly_order(6, -3) == inspect.unwrap(euler_poly_order)(6, -3)
    assert bernoulli_poly_order(0, -1) == Poly([1])


@pytest.mark.parametrize(
    "fn, args, error",
    [
        # the sum over j < -1 has no terms, yet the closed form gave -1/2
        (mirimanoff_frobenius_sum, (2, -1, 0, 2), ValueError),
        # used to divide by m + 1 = 0
        (power_sum_closed, (-1, 3, 2), ValueError),
        (power_sum_closed, (2, Fraction(3), 1), TypeError),
        (EgfSeries.exp, (1, -1), ValueError),
        (EgfSeries.one, (-1,), ValueError),
        # used to return []
        (ogf_reference, (OgfCase.LAM_P1, 1, -1), ValueError),
        (b_ogf(2).series, (-1,), ValueError),
        # used to return the constant 5
        (Poly.monomial, (-1, 5), ValueError),
        # used to return the last coefficient, 8
        (EgfSeries.exp(2, 3).coeff, (-1,), ValueError),
    ],
)
def test_bad_index_regressions(fn, args, error):
    with pytest.raises(error):
        fn(*args)


@pytest.mark.parametrize("n", range(-5, 0))
def test_alternating_square_gamma_at_negative_n(n):
    # n = -(2j+1): sqrt(pi) 2^n / (Gamma(1/2 - j) j!) = 2^n C(2j,j) / (-4)^j;
    # at even n, Gamma((2+n)/2) is a pole and the value is 0
    value = alternating_square_gamma(n)
    assert type(value) is Fraction
    j = (-n - 1) // 2
    expected = Fraction(comb(2 * j, j), (-4) ** j) / 2**-n if n % 2 else 0
    assert value == expected


@pytest.mark.parametrize("fn", [pochhammer, falling_factorial, binomial_general])
def test_bool_index_is_refused(fn):
    # bool is an int subclass, so True would otherwise pass as the index 1
    with pytest.raises(TypeError, match="v must be an int"):
        fn(5, True)


@pytest.mark.parametrize("bad", [2.0, Fraction(2), True])
def test_non_int_exponent_is_refused(bad):
    # a float or Fraction reached `e & 1` and failed with Python's own
    # TypeError; True passed as the exponent 1
    with pytest.raises(TypeError, match="e must be an int"):
        Poly([1, 1]) ** bad
    with pytest.raises(TypeError, match="e must be an int"):
        EgfSeries.exp(2, 3).pow(bad)


def test_negative_exponents_keep_their_behaviour():
    with pytest.raises(ValueError, match="negative polynomial power"):
        Poly([1, 1]) ** -1
    series = EgfSeries.exp(2, 3)
    assert series.pow(-2) == series.reciprocal().pow(2)


def test_float_index_does_not_poison_bnk():
    with pytest.raises(TypeError):
        bnk(60.0, 3)
    assert bnk(60, 3) == sum(comb(3, j) * j**60 for j in range(4))


OBJECT_CALLS = [
    (poly_integral01, Poly([1, 2])),
    (volkenborn, Poly([1, 2])),
    (fermionic, Poly([1, 2])),
    (euler_operator, Poly([1, 2])),
    (pfq_terminating, PfqSpec((-2,), (), 1)),
]


@pytest.mark.parametrize("bad", [3, 1.5, [1, 2]], ids=["int", "float", "list"])
@pytest.mark.parametrize(
    "fn, good", [pytest.param(fn, good, id=fn.__name__) for fn, good in OBJECT_CALLS]
)
def test_object_argument_of_the_wrong_type_is_a_type_error(fn, good, bad):
    # the five public functions that take a Poly or a PfqSpec refuse any
    # other object as the rest of the API does, not with an AttributeError
    fn(good)
    with pytest.raises(TypeError, match=f"must be a {type(good).__name__}"):
        fn(bad)
