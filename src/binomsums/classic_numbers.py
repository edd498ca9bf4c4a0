"""Classical number and polynomial families over exact rationals.

The Stirling numbers of both kinds are read from integer triangles grown
by their row recurrences.  The Bernoulli, Euler, Apostol and
Frobenius-Euler families, generated by e^{xt} g(e^t - 1), are Stirling
transforms of the coefficients of g, summed in integers along rows of the
second-kind triangle; the tests check each against its generating function
expanded by :class:`binomsums.exact_core.EgfSeries`.
"""

from __future__ import annotations

import threading
from enum import Enum
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm
from operator import mul
from typing import Callable

from .exact_core import Poly, Scalar, _check_indices, _check_ints, _common, _frac

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
    "y_seq",
    "legendre",
    "mirimanoff",
    "frobenius_euler",
    "euler_number0",
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
    _check_indices(n=n, v=v)
    if v > n:
        return Fraction(0)
    return Fraction(_STIRLING2.row(n)[v])


@lru_cache(maxsize=None, typed=True)
def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling numbers of the first kind s(n,k)."""
    _check_indices(n=n, k=k)
    if k > n:
        return Fraction(0)
    return Fraction(_STIRLING1.row(n)[k])


# ---------------------------------------------------------------------------
# Bernoulli / Euler families as Stirling transforms: for e^{xt} g(e^t - 1)
# the numbers are a_i = sum_j S(i,j) w_j, where w_j = j! [u^j] g(u)

def _stirling_poly(w: list[int], den: int) -> Poly:
    """sum_i C(n,i) a_{n-i} x^i for a_i = sum_j S(i,j) w_j / den, n = len(w) - 1."""
    n = len(w) - 1
    a = [sum(map(mul, _STIRLING2.row(i), w)) for i in range(n + 1)]
    return Poly.from_ints([comb(n, i) * a[n - i] for i in range(n + 1)], den)


def _geometric_poly(scale: Fraction, c: Fraction, d: Fraction, n: int) -> Poly:
    """Degree-n polynomial of scale/(c + d u), u = e^t - 1, whose weights
    are w_j = scale j! (-d)^j / c^{j+1}; c = 0 is the excluded parameter."""
    # with c = p/q, d = r/s, x = -r q and y = s p, the weights are the
    # integers a j! x^j y^(n+1-j) over b y^(n+1), where scale q / p = a/b
    p, q, r, s = c.numerator, c.denominator, d.numerator, d.denominator
    x, y, a, b = -r * q, s * p, scale.numerator * q, scale.denominator * p
    w = [a * factorial(j) * x**j * y ** (n + 1 - j) for j in range(n + 1)]
    return _stirling_poly(w, b * y ** (n + 1))


@lru_cache(maxsize=None, typed=True)
def bernoulli_poly_order(n: int, k: int) -> Poly:
    """Bernoulli polynomial of order k (k may be negative)."""
    _check_indices(n=n)
    _check_ints(k=k)
    if k < 0:
        # ((e^t-1)/t)^K, K = -k, has EGF coefficients a_i = S(i+K,K)/C(i+K,K)
        a = [Fraction(_STIRLING2.row(i - k)[-k], comb(i - k, i)) for i in range(n + 1)]
        return Poly([comb(n, i) * a[n - i] for i in range(n + 1)])
    # g(u) = (log(1+u)/u)^k
    w = [Fraction(_STIRLING1.row(j + k)[k], comb(j + k, k)) for j in range(n + 1)]
    return _stirling_poly(*_common(w))


@lru_cache(maxsize=None, typed=True)
def euler_poly_order(n: int, k: int) -> Poly:
    """Euler polynomial of order k (k may be negative)."""
    _check_indices(n=n)
    _check_ints(k=k)
    # g(u) = (1 + u/2)^{-k}: w_j = (-k)(-k-1)...(-k-j+1) / 2^j, over 2^n
    w, fall = [], 1
    for j in range(n + 1):
        w.append(fall << (n - j))
        fall *= -k - j
    return _stirling_poly(w, 1 << n)


def bernoulli_poly(n: int) -> Poly:
    return bernoulli_poly_order(n, 1)


def euler_poly(n: int) -> Poly:
    return euler_poly_order(n, 1)


def _alternating_transform(n: int, den: int, weight: Callable[[int], int]) -> Fraction:
    """sum_j (-1)^j j! S(n,j) weight(j) / den: one integer dot product."""
    total, fact = 0, 1
    for j, s in enumerate(_STIRLING2.row(n)):
        total += (-1) ** j * s * fact * weight(j)
        fact *= j + 1
    return Fraction(total, den)


@lru_cache(maxsize=None, typed=True)
def bernoulli_number(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2), by Worpitzky's formula
    B_n = sum_j (-1)^j j! S(n,j)/(j+1)."""
    _check_indices(n=n)
    big_l = lcm(*range(1, n + 2))
    return _alternating_transform(n, big_l, lambda j: big_l // (j + 1))


@lru_cache(maxsize=None, typed=True)
def euler_number0(n: int) -> Fraction:
    """E_n(0) = sum_j (-1)^j j! S(n,j)/2^j, the Euler polynomial at 0 (the
    'Euler numbers' of the Daehee/Changhee sums)."""
    _check_indices(n=n)
    return _alternating_transform(n, 1 << n, lambda j: 1 << (n - j))


# ---------------------------------------------------------------------------
# Apostol deformations and Frobenius-Euler polynomials

def apostol_bernoulli(n: int, lam: Scalar) -> Poly:
    """Apostol-Bernoulli polynomial from t e^{xt}/(lam e^t - 1)."""
    _check_indices(n=n)
    lam = _frac(lam)
    if lam == 1:
        raise ValueError("lambda = 1 is the classical case; use bernoulli_poly_order")
    # the factor t shifts the numbers, a_n = n b_{n-1}; no weights at n = 0
    return _geometric_poly(Fraction(n), lam - 1, lam, n - 1)


def apostol_euler(n: int, lam: Scalar) -> Poly:
    """Apostol-Euler polynomial from 2 e^{xt}/(lam e^t + 1)."""
    _check_indices(n=n)
    lam = _frac(lam)
    if lam == -1:
        raise ValueError("lambda = -1 is the classical case; use euler_poly_order")
    return _geometric_poly(Fraction(2), lam + 1, lam, n)


@lru_cache(maxsize=None, typed=True)
def frobenius_euler(n: int, u: Scalar) -> Poly:
    """Frobenius-Euler polynomial H_n(x; u) from (1-u) e^{xt}/(e^t - u)."""
    _check_indices(n=n)
    u = _frac(u)
    if u == 1:
        raise ValueError("u = 1 is excluded (generating function degenerates)")
    return _geometric_poly(1 - u, 1 - u, Fraction(1), n)


# ---------------------------------------------------------------------------
# Named sequences

def classic_sequence(tag: FamilyTag, n: int) -> Fraction:
    """Catalan, Daehee or Changhee number, each by its defining sum."""
    _check_indices(n=n)
    if tag is FamilyTag.CATALAN:
        return Fraction(comb(2 * n, n), n + 1)
    # Daehee: sum_k s(n,k) B_k; Changhee: sum_k s(n,k) E_k(0)
    if tag is FamilyTag.DAEHEE:
        number = bernoulli_number
    elif tag is FamilyTag.CHANGHEE:
        number = euler_number0
    else:
        raise ValueError(f"unknown family {tag!r}")
    nums, den = _common([number(k) for k in range(n + 1)])
    return Fraction(sum(map(mul, _STIRLING1.row(n), nums)), den)


def y_seq(n: int, lam: Scalar) -> Fraction:
    """Y_n from 2/(lam^2 t + lam - 1), by geometric expansion."""
    _check_indices(n=n)
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
    _check_indices(n=n)
    xm1 = Poly([-1, 1])
    xp1 = Poly([1, 1])
    acc = Poly()
    for k in range(n + 1):
        acc = acc + comb(n, k) ** 2 * (xm1 ** (n - k)) * (xp1**k)
    return acc / Fraction(2**n)


def mirimanoff(m: int, n: int, shift: int = 0) -> Poly:
    """Power-sum generating polynomial: coefficient of x^j is (j+shift)^m
    for 0 <= j < n (0^0 = 1)."""
    _check_indices(m=m, n=n, shift=shift)
    return Poly(
        [(j + shift) ** m for j in range(n)]
    )
