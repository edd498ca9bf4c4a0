"""Classical number and polynomial families over exact rationals.

The Stirling numbers of both kinds are read from integer triangles grown
by their row recurrences; the test suite checks them against their
generating functions (log(1+t))^k/k! and (e^t-1)^k/k!, expanded through
:class:`binomsums.exact_core.EgfSeries`, and against enumeration.  The
Bernoulli, Euler, Apostol and Frobenius-Euler families are computed from
their defining generating functions through that EGF machinery and
cross-checked against independent recurrences or closed forms.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial
from typing import Callable

from .exact_core import EgfSeries, Poly, Scalar, _check_ints, _frac

__all__ = [
    "FamilyTag",
    "stirling2",
    "stirling1",
    "bernoulli_number",
    "bernoulli_poly",
    "bernoulli_poly_order",
    "euler_poly",
    "euler_poly_order",
    "apostol_bernoulli",
    "apostol_euler",
    "classic_sequence",
    "y1",
    "y_seq",
    "legendre",
    "mirimanoff",
    "frobenius_euler",
]


class FamilyTag(Enum):
    CATALAN = "catalan"
    DAEHEE = "daehee"
    CHANGHEE = "changhee"


# ---------------------------------------------------------------------------
# Stirling numbers

class _Triangle:
    """Rows 0..N of an integer triangle given by a row recurrence.

    Rows are only ever appended, so a row once built never changes; the
    table grows under a lock only as far as the largest row requested.
    """

    def __init__(self, next_row: Callable[[list[int], int], list[int]]):
        self._next_row = next_row
        self._lock = threading.Lock()
        self._rows: list[list[int]] = [[1]]

    def row(self, n: int) -> list[int]:
        rows = self._rows
        if n >= len(rows):
            with self._lock:
                while len(rows) <= n:
                    rows.append(self._next_row(rows[-1], len(rows) - 1))
        return rows[n]


def _stirling1_next(row: list[int], n: int) -> list[int]:
    """Row n+1 from row n: s(n+1,k) = s(n,k-1) - n s(n,k)."""
    return [a - n * c for a, c in zip([0] + row, row + [0])]


def _stirling2_next(row: list[int], n: int) -> list[int]:
    """Row n+1 from row n: S(n+1,k) = S(n,k-1) + k S(n,k)."""
    return [a + k * c for k, (a, c) in enumerate(zip([0] + row, row + [0]))]


_STIRLING1 = _Triangle(_stirling1_next)
_STIRLING2 = _Triangle(_stirling2_next)


@lru_cache(maxsize=None, typed=True)
def stirling2(n: int, v: int) -> Fraction:
    """Stirling numbers of the second kind S(n,v)."""
    _check_ints(n=n, v=v)
    if n < 0 or v < 0:
        raise ValueError("indices must be >= 0")
    if v > n:
        return Fraction(0)
    return Fraction(_STIRLING2.row(n)[v])


@lru_cache(maxsize=None, typed=True)
def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling numbers of the first kind s(n,k)."""
    _check_ints(n=n, k=k)
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    if k > n:
        return Fraction(0)
    return Fraction(_STIRLING1.row(n)[k])


# ---------------------------------------------------------------------------
# Bernoulli / Euler families of arbitrary integer order

@lru_cache(maxsize=None, typed=True)
def _bernoulli_order_numbers(k: int, order: int) -> EgfSeries:
    """Series (t/(e^t-1))^k; negative k uses ((e^t-1)/t)^{-k}."""
    # (e^t-1)/t has EGF coefficients 1/(n+1); its constant term is 1,
    # so both orientations are entire.
    base = EgfSeries([Fraction(1, n + 1) for n in range(order + 1)])
    return base.pow(-k)


@lru_cache(maxsize=None, typed=True)
def _euler_order_numbers(k: int, order: int) -> EgfSeries:
    """Series (2/(e^t+1))^k; negative k uses ((e^t+1)/2)^{-k}."""
    base = EgfSeries([Fraction(1)] + [Fraction(1, 2)] * order)
    return base.pow(-k)


def _number_poly(numbers: EgfSeries, n: int) -> Poly:
    """Appell polynomial sum_j C(n,j) a_j x^{n-j} from the numbers a_j."""
    a = numbers.nums
    return Poly.from_ints(
        [comb(n, i) * a[n - i] for i in range(n + 1)], numbers.den
    )


def bernoulli_poly_order(n: int, k: int) -> Poly:
    """Bernoulli polynomial of order k (k may be negative)."""
    _check_ints(n=n, k=k)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _number_poly(_bernoulli_order_numbers(k, n), n)


def euler_poly_order(n: int, k: int) -> Poly:
    """Euler polynomial of order k (k may be negative)."""
    _check_ints(n=n, k=k)
    if n < 0:
        raise ValueError("n must be >= 0")
    return _number_poly(_euler_order_numbers(k, n), n)


@lru_cache(maxsize=None, typed=True)
def bernoulli_number(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2)."""
    _check_ints(n=n)
    return _bernoulli_order_numbers(1, n).coeff(n)


@lru_cache(maxsize=None, typed=True)
def bernoulli_poly(n: int) -> Poly:
    return bernoulli_poly_order(n, 1)


@lru_cache(maxsize=None, typed=True)
def euler_poly(n: int) -> Poly:
    return euler_poly_order(n, 1)


@lru_cache(maxsize=None, typed=True)
def euler_number0(n: int) -> Fraction:
    """E_n(0), the Euler polynomial at 0 (the 'Euler numbers' of the
    Daehee/Changhee sums)."""
    _check_ints(n=n)
    return _euler_order_numbers(1, n).coeff(n)


# ---------------------------------------------------------------------------
# Apostol deformations and Frobenius-Euler polynomials

@lru_cache(maxsize=None, typed=True)
def _apostol_bernoulli_numbers(lam: Fraction, order: int) -> EgfSeries:
    # t/(lam*e^t - 1): reciprocal of the denominator, then multiply by t.
    denom = EgfSeries([lam - 1] + [lam] * order)
    r = denom.reciprocal()
    return EgfSeries.from_ints(
        [0] + [n * r.nums[n - 1] for n in range(1, order + 1)], r.den
    )


def apostol_bernoulli(n: int, lam: Scalar) -> Poly:
    """Apostol-Bernoulli polynomial from t e^{xt}/(lam e^t - 1)."""
    _check_ints(n=n)
    lam = _frac(lam)
    if lam == 1:
        raise ValueError(
            "lambda = 1 is the classical case; use bernoulli_poly_order"
        )
    return _number_poly(_apostol_bernoulli_numbers(lam, n), n)


@lru_cache(maxsize=None, typed=True)
def _apostol_euler_numbers(lam: Fraction, order: int) -> EgfSeries:
    denom = EgfSeries([lam + 1] + [lam] * order)
    return denom.reciprocal().scale(2)


def apostol_euler(n: int, lam: Scalar) -> Poly:
    """Apostol-Euler polynomial from 2 e^{xt}/(lam e^t + 1)."""
    _check_ints(n=n)
    lam = _frac(lam)
    if lam == -1:
        raise ValueError(
            "lambda = -1 is the classical case; use euler_poly_order"
        )
    return _number_poly(_apostol_euler_numbers(lam, n), n)


@lru_cache(maxsize=None, typed=True)
def _frobenius_euler_numbers(u: Fraction, order: int) -> EgfSeries:
    denom = EgfSeries([1 - u] + [1] * order)
    return denom.reciprocal().scale(1 - u)


def frobenius_euler(n: int, u: Scalar) -> Poly:
    """Frobenius-Euler polynomial H_n(x; u) from (1-u) e^{xt}/(e^t - u)."""
    _check_ints(n=n)
    u = _frac(u)
    if u == 1:
        raise ValueError("u = 1 is excluded (generating function degenerates)")
    return _number_poly(_frobenius_euler_numbers(u, n), n)


# ---------------------------------------------------------------------------
# Named sequences

def classic_sequence(tag: FamilyTag, n: int) -> Fraction:
    """Catalan, Daehee or Changhee number, each by its defining sum."""
    _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    if tag is FamilyTag.CATALAN:
        return Fraction(comb(2 * n, n), n + 1)
    if tag is FamilyTag.DAEHEE:
        return sum(
            (bernoulli_number(k) * stirling1(n, k) for k in range(n + 1)),
            Fraction(0),
        )
    if tag is FamilyTag.CHANGHEE:
        return sum(
            (stirling1(n, k) * euler_number0(k) for k in range(n + 1)),
            Fraction(0),
        )
    raise ValueError(f"unknown family {tag!r}")


def y1(n: int, k: int, lam: Scalar) -> Fraction:
    """(1/k!) sum_j C(k,j) j^n lam^j with the 0^0 = 1 convention."""
    _check_ints(n=n, k=k)
    if n < 0 or k < 0:
        raise ValueError("indices must be >= 0")
    lam = _frac(lam)
    total = Fraction(0)
    for j in range(k + 1):
        total += comb(k, j) * j**n * lam**j
    return total / factorial(k)


def y_seq(n: int, lam: Scalar) -> Fraction:
    """Y_n from 2/(lam^2 t + lam - 1), by geometric expansion."""
    _check_ints(n=n)
    lam = _frac(lam)
    if lam == 1:
        raise ValueError("lambda = 1 is a pole of the generating function")
    # 2/(lam-1) * 1/(1 + lam^2 t/(lam-1)); ordinary coefficient times n!.
    term = Fraction(2) / (lam - 1)
    ratio = -(lam**2) / (lam - 1)
    for _ in range(n):
        term *= ratio
    return factorial(n) * term


@lru_cache(maxsize=None, typed=True)
def legendre(n: int) -> Poly:
    """Legendre polynomial via 2^{-n} sum_k C(n,k)^2 (x-1)^{n-k} (x+1)^k."""
    _check_ints(n=n)
    if n < 0:
        raise ValueError("n must be >= 0")
    xm1 = Poly([-1, 1])
    xp1 = Poly([1, 1])
    acc = Poly()
    for k in range(n + 1):
        acc = acc + comb(n, k) ** 2 * (xm1 ** (n - k)) * (xp1**k)
    return acc / Fraction(2**n)


def mirimanoff(m: int, n: int, shift: int = 0) -> Poly:
    """Power-sum generating polynomial: coefficient of x^j is (j+shift)^m
    for 0 <= j < n (0^0 = 1)."""
    _check_ints(m=m, n=n, shift=shift)
    if m < 0 or n < 0 or shift < 0:
        raise ValueError("indices must be >= 0")
    return Poly(
        [(j + shift) ** m for j in range(n)]
    )
