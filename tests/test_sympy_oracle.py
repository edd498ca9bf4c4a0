"""Differential tests of the number tables, the Bernoulli, Euler and
Legendre polynomials, the p-adic integrals, the Euler operator, the rising and falling
factorials and the terminating pFq against sympy, an independent oracle
that is optional: the module is skipped where sympy is missing."""

from __future__ import annotations

import random
from fractions import Fraction
from functools import lru_cache
from math import lcm

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from binomsums.classic_numbers import (  # noqa: E402
    FamilyTag,
    bernoulli_number,
    bernoulli_poly,
    classic_sequence,
    euler_number0,
    euler_poly,
    legendre,
    stirling1,
    stirling2,
)
from binomsums.exact_core import (  # noqa: E402
    Poly,
    binomial_general,
    falling_factorial,
    gamma_half,
    pochhammer,
)
from binomsums.hypergeom import PfqSpec, pfq_terminating  # noqa: E402
from binomsums.p_polynomials import (  # noqa: E402
    _fermionic_row,
    _volkenborn_row,
    euler_operator,
    fermionic,
    r_poly,
    volkenborn,
)
from binomsums.recurrences import ROWS  # noqa: E402

N_MAX = 30
# the Bernoulli and Euler numbers are one dot product each, so go further
NUMBERS_MAX = 200


def _frac(value) -> Fraction:
    """A sympy Rational or Integer as a Fraction."""
    rational = sympy.Rational(value)
    return Fraction(int(rational.p), int(rational.q))


def _bernoulli0(n: int) -> Fraction:
    """B_n(0) = B_n with B_1 = -1/2, from sympy's numbers, which take
    B_1 = +1/2 (sympy.bernoulli(n, 0) is the same value but evaluates the
    polynomial, about 10 s for n <= 200)."""
    expected = _frac(sympy.bernoulli(n))
    return -expected if n == 1 else expected


@lru_cache(maxsize=None)
def _euler0(n: int) -> Fraction:
    """E_n(0) from sympy, which evaluates the Euler polynomial (about 2 s
    for n <= 200): computed once for the two tests that read it."""
    return _frac(sympy.euler(n, 0))


def test_sympy_takes_b1_positive():
    # the convention _bernoulli0 corrects for (sympy >= 1.12)
    assert sympy.bernoulli(1) == sympy.Rational(1, 2)
    assert sympy.bernoulli(1, 0) == sympy.Rational(-1, 2)


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_stirling_numbers(n):
    for k in range(n + 1):
        assert stirling1(n, k) == _frac(stirling(n, k, kind=1, signed=True))
        assert stirling2(n, k) == _frac(stirling(n, k, kind=2))


@pytest.mark.parametrize("n", range(NUMBERS_MAX + 1))
def test_bernoulli_numbers(n):
    assert bernoulli_number(n) == _bernoulli0(n)


@pytest.mark.parametrize("n", range(NUMBERS_MAX + 1))
def test_euler_numbers_at_zero(n):
    assert euler_number0(n) == _euler0(n)


def test_p_adic_moments():
    # volkenborn(x^k) = B_k(0) and fermionic(x^k) = E_k(0) for k <= 200.
    # volkenborn(x^k) is entry k of the moment row of degree k + 1, and an
    # entry does not depend on the row's length, so one row of each gives
    # every k; the public functions are checked on a few monomials
    for row, expected, functional in (
        (_volkenborn_row(NUMBERS_MAX + 1), _bernoulli0, volkenborn),
        (_fermionic_row(NUMBERS_MAX + 1), _euler0, fermionic),
    ):
        mu, den = row
        assert [Fraction(v, den) for v in mu] == [
            expected(k) for k in range(NUMBERS_MAX + 1)
        ]
        for k in (0, 1, 2, 3, 10, 57, NUMBERS_MAX):
            assert functional(Poly.monomial(k)) == Fraction(mu[k], den)


def _coeffs(expr) -> list[Fraction]:
    """The coefficients of a sympy polynomial in x, constant term first."""
    coeffs = sympy.Poly(expr, sympy.Symbol("x")).all_coeffs()[::-1]
    return [_frac(c) for c in coeffs]


@pytest.mark.parametrize("n", range(25))
def test_bernoulli_and_euler_polynomials(n):
    x = sympy.Symbol("x")
    assert list(bernoulli_poly(n).coeffs) == _coeffs(sympy.bernoulli(n, x))
    assert list(euler_poly(n).coeffs) == _coeffs(sympy.euler(n, x))


def _mahler_functional(values: list[Fraction], weight, den: int) -> Fraction:
    """The former route to the p-adic integrals, kept as a reference:
    sum_j D^j q(0) weight(j)/den from the values q(0..deg q), D the
    forward difference."""
    total = Fraction(0)
    for j in range(len(values)):
        total += values[0] * weight(j)
        values = [b - a for a, b in zip(values, values[1:])]
    return total / den


def test_p_adic_integrals_of_a_degree_300_polynomial():
    rng = random.Random(300)
    q = Poly([Fraction(rng.randint(-99, 99), rng.randint(1, 9)) for _ in range(301)])
    d = len(q.nums)
    values = [q(x) for x in range(d)]
    big_l = lcm(*range(1, d + 1))
    assert volkenborn(q) == _mahler_functional(
        values, lambda j: (-1) ** j * (big_l // (j + 1)), big_l
    )
    assert fermionic(q) == _mahler_functional(
        values, lambda j: (-1) ** j << (d - j), 1 << d
    )


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_r_poly_coefficients(n):
    for p in range(4):
        expected = [
            _frac(sympy.binomial(n, k) ** p / sympy.factorial(n)) for k in range(n + 1)
        ]
        assert list(r_poly(n, p).coeffs) == expected


@pytest.mark.parametrize("k", range(-21, 22))
def test_gamma_at_integers_and_half_integers(k):
    value = gamma_half(Fraction(k, 2))
    expected = sympy.gamma(sympy.Rational(k, 2))
    if k <= 0 and k % 2 == 0:
        assert value.is_pole and expected is sympy.zoo
        return
    assert not value.is_pole
    assert value.sqrt_pi_exponent == k % 2
    assert value.rational_part == _frac(expected / sympy.sqrt(sympy.pi) ** (k % 2))


def test_legendre_polynomials():
    x = sympy.Symbol("x")
    for n in range(25):
        assert list(legendre(n).coeffs) == _coeffs(sympy.legendre(n, x))


def test_catalan_numbers():
    for n in range(40):
        assert classic_sequence(FamilyTag.CATALAN, n) == _frac(sympy.catalan(n))


def _rational(x) -> sympy.Rational:
    """An int or Fraction as a sympy Rational."""
    x = Fraction(x)
    return sympy.Rational(x.numerator, x.denominator)


@pytest.mark.parametrize(
    "z", [Fraction(-7, 3), Fraction(-2), Fraction(0), Fraction(1, 2), Fraction(5)], ids=str
)
def test_factorials_and_binomials(z):
    for v in range(10):
        assert pochhammer(z, v) == _frac(sympy.rf(_rational(z), v))
        assert falling_factorial(z, v) == _frac(sympy.ff(_rational(z), v))
        assert binomial_general(z, v) == _frac(sympy.binomial(_rational(z), v))


@pytest.mark.parametrize("iterations", range(6))
def test_euler_operator_is_iterated_x_diff(iterations):
    # (x d/dx)^iterations against sympy's x*diff applied as often, on the
    # zero polynomial, a constant, random rational polynomials and r_poly
    x = sympy.Symbol("x")
    rng = random.Random(iterations)
    qs = [Poly(), Poly([5]), r_poly(7, 2), r_poly(12, 3)] + [
        Poly([Fraction(rng.randint(-9, 9), rng.randint(1, 6)) for _ in range(d)])
        for d in (1, 2, 5, 13)
    ]
    for q in qs:
        expr = sum(
            (_rational(c) * x**k for k, c in enumerate(q.coeffs)), sympy.Integer(0)
        )
        for _ in range(iterations):
            expr = sympy.expand(x * sympy.diff(expr, x))
        assert euler_operator(q, iterations) == Poly(_coeffs(expr))


@pytest.mark.parametrize("z", [Fraction(1, 3), Fraction(-2)], ids=str)
@pytest.mark.parametrize(
    "upper, lower",
    [
        ((Fraction(1, 2),), (Fraction(3, 2),)),
        ((Fraction(1, 3), 2), (Fraction(5, 2), Fraction(-7, 3))),
    ],
    ids=["2F1", "3F2"],
)
def test_terminating_pfq(upper, lower, z):
    # pFq(-n, upper; lower; z) for n < 6, which sympy expands to a rational
    for n in range(6):
        expected = sympy.hyperexpand(
            sympy.hyper(
                [_rational(a) for a in (-n, *upper)],
                [_rational(b) for b in lower],
                _rational(z),
            )
        )
        assert pfq_terminating(PfqSpec((-n, *upper), lower, z)) == _frac(expected)


_N, _K, _X = sympy.symbols("n k x")


def _nested(poly, variables):
    """A nested coefficient tuple, outermost variable first, as an expression."""
    if not isinstance(poly, tuple):
        return poly
    v, rest = variables[0], variables[1:]
    return sum(v**e * _nested(c, rest) for e, c in enumerate(poly))


@pytest.mark.parametrize("row", ROWS, ids=lambda row: f"p{row.p}-x{row.x}")
def test_certificates_as_rational_function_identities(row):
    # sum_i c_i F(n+i,k)/F(n,k) = R(n,k+1) F(n,k+1)/F(n,k) - R(n,k) in the
    # field Q(n,k,x), for F(n,k) = C(n,k)^p x^k, with the ratios of F taken
    # by sympy's combsimp and R = k^p A / prod_j (n+j-k)^p, not through the
    # cleared polynomial that check_certificate evaluates
    field, n, k, x = sympy.field("n,k,x", sympy.ZZ)
    if row.x is not None:
        x = field(row.x)
    p, s = row.p, row.span

    def ratio(di, dk):
        f = sympy.binomial(_N + di, _K + dk) / sympy.binomial(_N, _K)
        return field.from_expr(sympy.combsimp(f**p)) * x**dk

    def cert(k):
        den = field(1)
        for j in range(1, s + 1):
            den *= (n + j - k) ** p
        return k**p * _nested(row.certificate, (x, k, n)) / den

    lhs = sum(
        (_nested(c, (x, n)) * ratio(i, 0) for i, c in enumerate(row.telescoper)),
        field(0),
    )
    assert lhs == cert(k + 1) * ratio(0, 1) - cert(k)


def _flat(poly) -> list:
    """The coefficients of a nested tuple, depth first."""
    if not isinstance(poly, tuple):
        return [poly]
    return [c for sub in poly for c in _flat(sub)]


def _unknowns(poly, names):
    """The nested tuple's shape with an unknown in place of each coefficient."""
    if type(poly) is int:
        return next(names)
    return tuple(_unknowns(c, names) for c in poly)


@pytest.mark.parametrize(
    "row",
    [row for row in ROWS if (row.p, row.x) in {(2, None), (3, 1)}],
    ids=lambda row: f"p{row.p}-x{row.x}",
)
def test_rows_are_rederived_by_nullspace(row):
    # in the stored row's shape, the cleared identity of check_certificate
    # has a one-dimensional solution space, spanned by the stored row
    x = _X if row.x is None else sympy.Integer(row.x)
    p, s = row.p, row.span
    names = sympy.numbered_symbols("u")
    telescoper = _unknowns(row.telescoper, names)
    certificate = _unknowns(row.certificate, names)
    lhs = sum(
        _nested(c, (x, _N))
        * sympy.Mul(*[(_N + j) ** p for j in range(1, i + 1)])
        * sympy.Mul(*[(_N + j - _K) ** p for j in range(i + 1, s + 1)])
        for i, c in enumerate(telescoper)
    )
    a_next = _nested(certificate, (x, _K + 1, _N))
    rhs = x * (_N + s - _K) ** p * a_next - _K**p * _nested(certificate, (x, _K, _N))
    unknowns = _flat(telescoper) + _flat(certificate)
    equations = sympy.Poly(sympy.expand(lhs - rhs), _N, _K, _X).coeffs()
    matrix, _ = sympy.linear_eq_to_matrix(equations, unknowns)
    (vector,) = matrix.nullspace()
    stored = _flat(row.telescoper) + _flat(row.certificate)
    scale = stored[-1] / vector[-1]
    assert [v * scale for v in vector] == stored
