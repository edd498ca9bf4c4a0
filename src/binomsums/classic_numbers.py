"""Classical number and polynomial families over exact rationals.

The Stirling numbers of both kinds are the rows of two integer triangles,
``_STIRLING1`` and ``_STIRLING2``, given by their row recurrences, and no
row is kept: a reader that needs one row builds it from row 0 with
``row``, and a reader that goes through the rows in order takes them from
one ``walk``.  So ``stirling1`` and ``stirling2`` build row n on each call
and take a ``Fraction`` from it.  The Bernoulli, Euler, Apostol and
Frobenius-Euler families, generated by e^{xt} g(e^t - 1), are Stirling
transforms of the coefficients of g, summed in integers along one walk of
the second-kind rows (``_transforms``).  B_n and E_n(0) are entry n of the
same transform as their polynomials, from the same weights, dotted with
row n alone.  The tests check each family against its generating function
expanded by :class:`binomsums.exact_core.EgfSeries`.

Nothing here is memoized.  The Daehee and Changhee numbers, sum_k s(n,k)
B_k and sum_k s(n,k) E_k(0), come from one range kernel, ``classic_range``:
it takes B_k or E_k(0) for each k below the range's end from one walk of
the second-kind rows and dots them with each row of one walk of the
first-kind rows.  ``classic_sequence`` is its one-term case and ``audit
seq`` reads whole ranges from it.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import reduce
from itertools import accumulate, islice
from math import comb, factorial, lcm
from operator import mul
from typing import Callable, Iterator

from .exact_core import (
    Poly, Scalar, _check_indices, _check_ints, _check_range, _check_type, _common, _frac,
    _ratio,
)

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
    "classic_range",
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
    """An integer triangle given by its row recurrence: row 0 is [1] and
    row n+1 is ``next_row(row n, n)``.

    No row is kept.  ``walk`` builds rows 0..stop-1 in order for a caller
    that reads each row once, and ``row`` gives row n as the last row of
    the same recurrence, so each call builds it afresh from row 0: O(n^2)
    big-integer operations with O(n) integers live.
    """

    def __init__(self, next_row: Callable[[list[int], int], list[int]]):
        self._next_row = next_row

    def row(self, n: int) -> list[int]:
        return reduce(self._next_row, range(n), [1])

    def walk(self, stop: int) -> Iterator[list[int]]:
        """Rows 0..stop-1 in order, each built from the one before."""
        return islice(accumulate(range(stop - 1), self._next_row, initial=[1]), stop)


def _stirling1_next(row: list[int], n: int) -> list[int]:
    """Row n+1 from row n: s(n+1,k) = s(n,k-1) - n s(n,k)."""
    return [a - n * c for a, c in zip([0] + row, row + [0])]


def _stirling2_next(row: list[int], n: int) -> list[int]:
    """Row n+1 from row n: S(n+1,k) = S(n,k-1) + k S(n,k)."""
    return [a + k * c for k, (a, c) in enumerate(zip([0] + row, row + [0]))]


_STIRLING1 = _Triangle(_stirling1_next)
_STIRLING2 = _Triangle(_stirling2_next)


def stirling2(n: int, v: int) -> Fraction:
    """Stirling numbers of the second kind S(n,v)."""
    _check_indices(n=n, v=v)
    if v > n:
        return Fraction(0)
    return Fraction(_STIRLING2.row(n)[v])


def stirling1(n: int, k: int) -> Fraction:
    """Signed Stirling numbers of the first kind s(n,k)."""
    _check_indices(n=n, k=k)
    if k > n:
        return Fraction(0)
    return Fraction(_STIRLING1.row(n)[k])


# ---------------------------------------------------------------------------
# Bernoulli / Euler families as Stirling transforms: for e^{xt} g(e^t - 1)
# the numbers are a_i = sum_j S(i,j) w_j, where w_j = j! [u^j] g(u)

def _transforms(w: list[int]) -> list[int]:
    """a_i = sum_j S(i,j) w_j for every i < len(w), one integer dot product
    per row of one walk of the second-kind rows."""
    return [sum(map(mul, row, w)) for row in _STIRLING2.walk(len(w))]


def _stirling_poly(w: list[int], den: int) -> Poly:
    """sum_i C(n,i) a_{n-i} x^i for a_i = sum_j S(i,j) w_j / den, n = len(w) - 1."""
    n = len(w) - 1
    a = _transforms(w)
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


def bernoulli_poly_order(n: int, k: int) -> Poly:
    """Bernoulli polynomial of order k (k may be negative)."""
    _check_indices(n=n)
    _check_ints(k=k)
    # column K = |k| of rows K..K+n: for k < 0, ((e^t-1)/t)^K has EGF
    # coefficients a_i = S(i+K,K)/C(i+K,K); for k >= 0, g(u) = (log(1+u)/u)^k
    # has weights w_j = s(j+k,k)/C(j+k,k)
    big_k = abs(k)
    rows = islice((_STIRLING2 if k < 0 else _STIRLING1).walk(big_k + n + 1), big_k, None)
    col = [Fraction(row[big_k], comb(i + big_k, big_k)) for i, row in enumerate(rows)]
    if k < 0:
        return Poly([comb(n, i) * col[n - i] for i in range(n + 1)])
    return _stirling_poly(*_common(col))


def _euler_weights(n: int, k: int) -> list[int]:
    """Weights of g(u) = (1 + u/2)^{-k}, w_j = (-k)(-k-1)...(-k-j+1) / 2^j,
    as integers over 2^n for j = 0..n."""
    falls = accumulate((-k - j for j in range(n)), mul, initial=1)
    return [fall << (n - j) for j, fall in enumerate(falls)]


def euler_poly_order(n: int, k: int) -> Poly:
    """Euler polynomial of order k (k may be negative)."""
    _check_indices(n=n)
    _check_ints(k=k)
    return _stirling_poly(_euler_weights(n, k), 1 << n)


def bernoulli_poly(n: int) -> Poly:
    return bernoulli_poly_order(n, 1)


def euler_poly(n: int) -> Poly:
    return euler_poly_order(n, 1)


def _bernoulli_weights(n: int) -> tuple[list[int], int]:
    """Worpitzky's weights (-1)^j j!/(j+1) for j = 0..n as integers over
    L = lcm(1..n+1): B_k = sum_j S(k,j) w_j / L for every k <= n."""
    big_l = lcm(*range(1, n + 2))
    return [(-1) ** j * factorial(j) * (big_l // (j + 1)) for j in range(n + 1)], big_l


def bernoulli_number(n: int) -> Fraction:
    """Classical Bernoulli number B_n (B_1 = -1/2), by Worpitzky's formula
    B_n = sum_j (-1)^j j! S(n,j)/(j+1)."""
    _check_indices(n=n)
    w, big_l = _bernoulli_weights(n)
    return Fraction(sum(map(mul, _STIRLING2.row(n), w)), big_l)


def euler_number0(n: int) -> Fraction:
    """E_n(0) = sum_j (-1)^j j! S(n,j)/2^j, the Euler polynomial at 0 (the
    'Euler numbers' of the Daehee/Changhee sums): the constant term of
    ``euler_poly_order(n, 1)``, from the same weights."""
    _check_indices(n=n)
    return Fraction(sum(map(mul, _STIRLING2.row(n), _euler_weights(n, 1))), 1 << n)


# ---------------------------------------------------------------------------
# Apostol deformations and Frobenius-Euler polynomials

def apostol_bernoulli(n: int, lam: Scalar) -> Poly:
    """Apostol-Bernoulli polynomial from t e^{xt}/(lam e^t - 1)."""
    _check_indices(n=n)
    lam = _frac(lam)
    if _ratio(lam) == (1, 1):
        raise ValueError("lambda = 1 is the classical case; use bernoulli_poly_order")
    # the factor t shifts the numbers, a_n = n b_{n-1}; no weights at n = 0
    return _geometric_poly(Fraction(n), lam - 1, lam, n - 1)


def apostol_euler(n: int, lam: Scalar) -> Poly:
    """Apostol-Euler polynomial from 2 e^{xt}/(lam e^t + 1)."""
    _check_indices(n=n)
    lam = _frac(lam)
    if _ratio(lam) == (-1, 1):
        raise ValueError("lambda = -1 is the classical case; use euler_poly_order")
    return _geometric_poly(Fraction(2), lam + 1, lam, n)


def frobenius_euler(n: int, u: Scalar) -> Poly:
    """Frobenius-Euler polynomial H_n(x; u) from (1-u) e^{xt}/(e^t - u)."""
    _check_indices(n=n)
    u = _frac(u)
    if _ratio(u) == (1, 1):
        raise ValueError("u = 1 is excluded (generating function degenerates)")
    return _geometric_poly(1 - u, 1 - u, Fraction(1), n)


# ---------------------------------------------------------------------------
# Named sequences

def classic_sequence(tag: FamilyTag, n: int) -> Fraction:
    """Catalan, Daehee or Changhee number, each by its defining sum."""
    _check_indices(n=n)
    return next(classic_range(tag, range(n, n + 1)))


def classic_range(tag: FamilyTag, rng: range) -> Iterator[Fraction]:
    """The numbers of ``classic_sequence`` for the indices of a step-1
    range.  The tag, the range and its start are checked, in that order,
    before the iterator is returned.

    For Daehee and Changhee, one walk of the second-kind rows gives B_k or
    E_k(0) for every k < rng.stop over one denominator (lcm(1..stop) or
    2^(stop-1)), and one walk of the first-kind rows dots them with row n
    for each n of the range.  Neither walk stores a row: the work is
    O(stop^2) big-integer operations with O(stop) integers live."""
    _check_type("tag", tag, FamilyTag)
    _check_range(rng)
    _check_indices(n=rng.start)
    if tag is FamilyTag.CATALAN:
        return (Fraction(comb(2 * n, n), n + 1) for n in rng)
    if not rng:  # its stop may be 0, which leaves no k for the weights
        return iter(())
    # Daehee: sum_k s(n,k) B_k; Changhee: sum_k s(n,k) E_k(0)
    top = rng.stop - 1
    if tag is FamilyTag.DAEHEE:
        w, den = _bernoulli_weights(top)
    else:  # CHANGHEE, the one tag left
        w, den = _euler_weights(top, 1), 1 << top
    return _first_kind_sums(w, den, rng)


def _first_kind_sums(w: list[int], den: int, rng: range) -> Iterator[Fraction]:
    """sum_k s(n,k) a_k for n in rng, where a_k = sum_j S(k,j) w_j / den."""
    nums = _transforms(w)
    for row in islice(_STIRLING1.walk(rng.stop), rng.start, None):
        yield Fraction(sum(map(mul, row, nums)), den)


def y_seq(n: int, lam: Scalar) -> Fraction:
    """Y_n from 2/(lam^2 t + lam - 1), by geometric expansion."""
    _check_indices(n=n)
    lam = _frac(lam)
    if _ratio(lam) == (1, 1):
        raise ValueError("lambda = 1 is a pole of the generating function")
    # 2/(lam-1) * 1/(1 + lam^2 t/(lam-1)); ordinary coefficient times n!.
    d = lam - 1
    return factorial(n) * 2 / d * (-(lam**2) / d) ** n


def legendre(n: int) -> Poly:
    """Legendre polynomial via 2^{-n} sum_k C(n,k)^2 (x-1)^{n-k} (x+1)^k."""
    _check_indices(n=n)
    # Horner in (x+1)/(x-1), cleared of denominators: from k = n down,
    # acc <- (x+1) acc + C(n,k)^2 (x-1)^{n-k}, with xm1 = (x-1)^{n-k}
    acc: list[int] = []
    xm1 = [1]
    for k in range(n, -1, -1):
        w = comb(n, k) ** 2
        acc = [a + c + w * e for a, c, e in zip([0] + acc, acc + [0], xm1)]
        xm1 = [a - c for a, c in zip([0] + xm1, xm1 + [0])]
    return Poly.from_ints(acc, 1 << n)


def mirimanoff(m: int, n: int, shift: int = 0) -> Poly:
    """Power-sum generating polynomial: coefficient of x^j is (j+shift)^m
    for 0 <= j < n (0^0 = 1)."""
    _check_indices(m=m, n=n, shift=shift)
    return Poly(
        [(j + shift) ** m for j in range(n)]
    )
