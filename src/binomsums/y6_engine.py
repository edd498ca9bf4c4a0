"""The central binomial-power-sum family and Golombek's B(n,k).

All values are exact.  For lam = a/b, the kernel ``_y6`` sums the integer
S = n! b^n y6(m,n;lam,p) = sum_k C(n,k)^p k^m a^k b^(n-k), walking the
terms C(n,k)^p a^k b^(n-k) by their exact ratio ((n-k)/(k+1))^p a/b, so
each step multiplies and divides a big integer by a small one.  Its bounded
memo holds S, keyed on lam's integer parts so a lookup hashes no
``Fraction``; it is pure caching.  Each caller divides S at most once:
``y6`` (and its p = 1 slice ``y1``) reduces
the unreduced S / n! b^n of ``_y6_value``, ``franel`` divides by b^n only,
and ``moment`` (lam = 1) is S.  ``_y6_row`` takes the same walk once for the
row of S over i = 0..top, memoized per (n, lam, p) slice, and the registry's
sums over m read that row.  The registry splits lam once per grid point
and calls ``_y6``, ``_y6_row`` or ``_y6_value`` itself.  ``y6_egf`` builds the
same numbers by an independent route: ``_moment_row`` adds the power rows k^j
of the e^{kt}, weighted by C(n,k)^p a^k, by Horner in b, and ``y6_egf``
reduces that row once over n! b^n.  ``p_polynomials._p_poly`` reweights
the same row by C(m,i) into the polynomial family.  The Horner row calls
neither ratio walk, so a fault in them cannot cancel in ``y6G``, which
compares it with ``_y6_row``, each over n! b^n, or in the entries that set
the polynomial family against y6.

``audit seq`` takes the kernel's integers over a whole range from ``_sums``:
where ``recurrences`` has a certified row for p (for every lam, or at lam = 1
and m = 0), the row is unrolled from seed columns of ``_y6`` in O(N) steps,
with every division checked, and the terms are yielded from the range's
start; other slices (p = 0, p >= 5, p = 4 away from lam = 1, m = 0) sum term
by term.  ``franel_recurrence`` gives a prefix of the Franel numbers
sum_k C(n,k)^p, p = 3 or 4, the same way.  ``y6``, ``franel``, ``moment`` and
the audit keep the direct sum, so the audit's Franel entries and the
recurrences remain independent routes to the same numbers.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from math import factorial
from operator import add, mul
from typing import Iterator

from .classic_numbers import _STIRLING1, _STIRLING2
from .exact_core import (
    EgfSeries,
    Poly,
    Scalar,
    _Record,
    _Unreduced,
    _check_indices,
    _check_ints,
    _ratio,
)
from .recurrences import row_for, unroll

__all__ = [
    "RationalFunction",
    "y6",
    "y1",
    "y6_egf",
    "bnk",
    "t_poly",
    "b_ogf",
    "moment",
    "franel",
    "franel_recurrence",
]


class RationalFunction(_Record):
    """Ratio of two polynomials with a Maclaurin expansion when the
    denominator does not vanish at 0."""

    __slots__ = ("numerator", "denominator")
    numerator: Poly
    denominator: Poly

    def __init__(self, numerator: Poly, denominator: Poly):
        if not denominator:
            raise ZeroDivisionError("zero denominator")
        object.__setattr__(self, "numerator", numerator)
        object.__setattr__(self, "denominator", denominator)

    def series(self, order: int) -> list[Fraction]:
        """Ordinary power-series coefficients c_0..c_order."""
        _check_indices(order=order)
        # With d = D/e and num = N/f in integer form, the recurrence
        # d_0 c_n = num_n - sum_k d_k c_{n-k} becomes
        # D_0 c_n = N_n e/f - sum_k D_k c_{n-k}.
        d = self.denominator.nums
        if d[0] == 0:
            raise ZeroDivisionError("denominator vanishes at 0")
        num = self.numerator.nums
        scale = Fraction(self.denominator.den, self.numerator.den)
        out: list[Fraction] = []
        for n in range(order + 1):
            s = num[n] * scale if n < len(num) else Fraction(0)
            for k in range(1, min(n, len(d) - 1) + 1):
                if d[k]:
                    s -= d[k] * out[n - k]
            out.append(s / d[0])
        return out


def y6(m: int, n: int, lam: Scalar, p: int) -> Fraction:
    """(1/n!) sum_k C(n,k)^p k^m lam^k with 0^0 = 1."""
    return _y6_value(m, n, *_ratio(lam), p).fraction()


def _y6_value(m: int, n: int, a: int, b: int, p: int) -> _Unreduced:
    """y6(m,n;a/b,p): the kernel's integer n! b^n y6 over n! b^n, unreduced."""
    return _Unreduced(_y6(m, n, a, b, p), factorial(n) * b**n)  # _y6 checks n first


# keyed on lam's integer parts, so a lookup hashes no Fraction; typed: an
# index Fraction(2) or 2.0 must miss the entry of 2 and be refused; bounded
# to cap memory
@lru_cache(maxsize=8192, typed=True)
def _y6(m: int, n: int, a: int, b: int, p: int) -> int:
    """The integer n! b^n y6(m,n;a/b,p) for lam = a/b in lowest terms with
    b > 0, as ``exact_core._ratio`` gives it."""
    _check_indices(m=m, n=n, p=p)
    # Walk term_k = C(n,k)^p a^k b^(n-k) from term_0 = b^n by the term
    # ratio ((n-k)/(k+1))^p a/b, one big-by-small multiply and divide a
    # step.  The division is exact: C(n,k)(n-k)/(k+1) = C(n,k+1), and b
    # divides b^(n-k) for k < n.  term_0 carries 0^m, which is 1 at m = 0
    # only.
    term = b**n
    total = term if m == 0 else 0
    for k in range(n):
        term = term * ((n - k) ** p * a) // ((k + 1) ** p * b)
        total += term * (k + 1) ** m
    return total


y6.cache_info = _y6.cache_info
y6.cache_clear = _y6.cache_clear


# one row serves a whole (n, lam, p) slice: callers round top up (top | 15)
# so that every m of the slice reads the same key; bounded to cap memory, at
# a size that holds the 1,575 rows of an all-entries audit at m, n <= 24
@lru_cache(maxsize=4096, typed=True)
def _y6_row(n: int, a: int, b: int, p: int, top: int) -> tuple[int, ...]:
    """The integers n! b^n y6(i,n;a/b,p) for i = 0..top, lam = a/b as
    ``exact_core._ratio`` gives it: ``_y6``'s ratio walk, once for the row."""
    _check_indices(n=n, p=p, top=top)
    # term_k = C(n,k)^p a^k b^(n-k) is walked as in _y6; each term adds its
    # powers term k^i, i = 0..top, to the row.  term_0 carries 0^i, which is
    # 1 at i = 0 only.
    term = b**n
    row = [term] + [0] * top
    for k in range(1, n + 1):
        term = term * ((n - k + 1) ** p * a) // (k**p * b)
        row = list(map(add, row, accumulate(repeat(k, top), mul, initial=term)))
    return tuple(row)


def y6_egf(n: int, lam: Scalar, p: int, order: int) -> EgfSeries:
    """Truncated EGF (1/n!) sum_k C(n,k)^p lam^k e^{kt}.

    Entry m is y6(m, n, lam, p), reached through the series e^{kt},
    whose coefficients are the integer powers k^j, rather than the kernel
    ``_y6``, so the coefficient/derivative equivalence is an actual
    cross-check.  ``_moment_row`` sums the series in integers.
    """
    _check_indices(n=n, p=p, order=order)
    a, b = _ratio(lam)
    return EgfSeries.from_ints(_moment_row(order, n, a, b, p), factorial(n) * b**n)


def _moment_row(m: int, n: int, a: int, b: int, p: int) -> list[int]:
    """The integers n! b^n y6(i,n;a/b,p) for i = 0..m, b > 0: the sum of
    the power rows k^i of e^{kt} weighted by C(n,k)^p a^k b^(n-k)."""
    # Horner in b: after step k, row[i] = sum_{j<=k} C(n,j)^p j^i a^j b^(k-j),
    # so at the end row[i] = n! b^n y6(i,n;lam,p).  The power row k^i is
    # walked by one multiplication by k a step; e^{0t} = 1 adds to row[0] only.
    row = [0] * (m + 1)
    binom = a_k = 1
    for k in range(n + 1):
        term = binom**p * a_k  # times k^i as i runs up
        for i in range(m + 1):
            row[i] = row[i] * b + term
            term *= k
        binom = binom * (n - k) // (k + 1)
        a_k *= a
    return row


def bnk(d: int, k: int) -> Fraction:
    """Golombek's sum B(d,k) = sum_{j=0}^{k} C(k,j) j^d (0^0 = 1)."""
    _check_indices(d=d, k=k)
    # c walks the row C(k,j) by its ratio (k-j)/(j+1), with no math.comb
    total = 0
    c = 1
    for j in range(k + 1):
        total += c * j**d
        c = c * (k - j) // (j + 1)
    return Fraction(total)


def t_poly(d: int) -> Poly:
    """Polynomial T_d with B(d,k) = 2^{k-d} T_d(k); zero constant term,
    coefficient of k^l given by sum_{j=l}^{d} s(j,l) S(d,j) 2^{d-j}."""
    _check_ints(d=d)
    if d < 1:
        raise ValueError("T_d is defined for d >= 1")
    second = _STIRLING2.row(d)
    nums = [0] * (d + 1)
    for j, first in enumerate(_STIRLING1.walk(d + 1)):
        weight = second[j] << (d - j)
        for l in range(1, j + 1):
            nums[l] += first[l] * weight
    return Poly.from_ints(nums)


def b_ogf(d: int) -> RationalFunction:
    """Ordinary generating function of k -> B(d,k) as a single fraction.

    d = 0 gives 1/(1-2x); for d >= 1 the partial-fraction shape
    sum_j j! S(d,j) x^j/(1-2x)^{j+1} is brought over (1-2x)^{d+1}.
    """
    _check_indices(d=d)
    one_m_2x = Poly([1, -2])
    if d == 0:
        return RationalFunction(Poly([1]), one_m_2x)
    second = _STIRLING2.row(d)
    num = Poly()
    for j in range(1, d + 1):
        num = num + (
            factorial(j) * second[j] * Poly.monomial(j) * one_m_2x ** (d - j)
        )
    return RationalFunction(num, one_m_2x ** (d + 1))


def y1(n: int, k: int, lam: Scalar) -> Fraction:
    """The p = 1 slice y6(n,k;lam,1) = (1/k!) sum_j C(k,j) j^n lam^j, 0^0 = 1."""
    _check_indices(n=n, k=k)
    return y6(n, k, lam, 1)


def moment(m: int, p: int, n: int) -> Fraction:
    """Moment sum sum_k C(n,k)^p k^m; integer-valued."""
    return Fraction(_y6(m, n, 1, 1, p))


def franel(p: int, m: int, n: int, lam: Scalar) -> Fraction:
    """Generalized p-th order Franel numbers n! * y6(m,n;lam,p)."""
    a, b = _ratio(lam)
    return Fraction(_y6(m, n, a, b, p), b**n)


def franel_recurrence(p: int, stop: int) -> list[int]:
    """Franel numbers sum_k C(n,k)^p for n = 0..stop-1 and p = 3 or 4.

    Unrolls the certified row of ``recurrences`` at x = 1 (Franel's
    recurrence) from f(0) = 1; a division that is not exact raises
    ``ArithmeticError``.
    """
    _check_ints(p=p)
    _check_indices(stop=stop)
    if p not in (3, 4):
        raise ValueError(f"Franel recurrence is known for p = 3, 4 only, got p = {p}")
    return list(_sums(0, 1, 1, p, range(stop)))


def _sums(m: int, a: int, b: int, p: int, rng: range) -> Iterator[int]:
    """The kernel's integers n! b^n y6(m,n;a/b,p) for n in rng, a step-1
    range: unrolled by the certified row that ``recurrences.row_for`` picks,
    seeded with ``_y6``, or else ``_y6`` term by term.  The indices are
    checked at once, with the message ``_y6`` gives."""
    _check_indices(m=m, n=rng.start, p=p)
    row = row_for(p, m, a, b)
    if row is None:
        return (_y6(m, n, a, b, p) for n in rng)
    order = len(row.telescoper) - 1
    seeds = [[_y6(j, n, a, b, p) for j in range(m + 1)] for n in range(order)]
    return unroll(row, m, a, b, seeds, rng)


def _y6_range(m: int, lam: Scalar, p: int, rng: range) -> Iterator[Fraction]:
    """y6(m,n;lam,p) for n in rng, each as ``y6`` gives it."""
    a, b = _ratio(lam)
    terms = _sums(m, a, b, p, rng)
    # n! b^n, one multiplication a step
    dens = accumulate(
        rng[1:], lambda den, n: den * n * b, initial=factorial(rng.start) * b**rng.start
    )
    return map(Fraction, terms, dens)


def _franel_range(p: int, m: int, lam: Scalar, rng: range) -> Iterator[Scalar]:
    """Franel numbers n! y6(m,n;lam,p) for n in rng, equal to what
    ``franel`` gives; the integers themselves when lam is an integer."""
    a, b = _ratio(lam)
    terms = _sums(m, a, b, p, rng)
    if b == 1:
        return terms
    return map(Fraction, terms, (b**n for n in rng))
