"""Differential tests of the number tables against sympy, an independent
oracle that is optional: the module is skipped where sympy is missing."""

from __future__ import annotations

from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.functions.combinatorial.numbers import stirling  # noqa: E402

from binomsums.classic_numbers import (  # noqa: E402
    bernoulli_number,
    euler_number0,
    stirling1,
    stirling2,
)
from binomsums.exact_core import gamma_half  # noqa: E402
from binomsums.p_polynomials import r_poly  # noqa: E402

N_MAX = 30
# the Bernoulli and Euler numbers are one dot product each, so go further
NUMBERS_MAX = 200


def _frac(value) -> Fraction:
    """A sympy Rational or Integer as a Fraction."""
    rational = sympy.Rational(value)
    return Fraction(int(rational.p), int(rational.q))


@pytest.mark.parametrize("n", range(N_MAX + 1))
def test_stirling_numbers(n):
    for k in range(n + 1):
        assert stirling1(n, k) == _frac(stirling(n, k, kind=1, signed=True))
        assert stirling2(n, k) == _frac(stirling(n, k, kind=2))


@pytest.mark.parametrize("n", range(NUMBERS_MAX + 1))
def test_bernoulli_numbers(n):
    # sympy takes B_1 = +1/2; here B_1 = -1/2
    expected = _frac(sympy.bernoulli(n))
    assert bernoulli_number(n) == (-expected if n == 1 else expected)


@pytest.mark.parametrize("n", range(NUMBERS_MAX + 1))
def test_euler_numbers_at_zero(n):
    assert euler_number0(n) == _frac(sympy.euler(n, 0))


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
