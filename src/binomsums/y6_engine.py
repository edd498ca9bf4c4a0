"""The central binomial-power-sum family and Golombek's B(n,k).

All values are exact.  For lam = a/b, the kernel ``_y6`` sums the integer
S = n! b^n y6(m,n;lam,p) = sum_k C(n,k)^p k^m a^k b^(n-k), walking the
terms C(n,k)^p a^k b^(n-k) by their exact ratio ((n-k)/(k+1))^p a/b, so
each step multiplies and divides a big integer by a small one.  Its bounded
memo holds S, keyed on lam's integer parts so a lookup hashes no
``Fraction``; it is pure caching and safe under concurrent readers.  Each
caller divides S at most once: ``y6`` (and its p = 1 slice ``y1``) by
n! b^n in ``_y6_value``, ``franel`` by b^n only, and ``moment`` (lam = 1)
is S.  The registry splits lam once per grid point and calls ``_y6`` or
``_y6_value`` itself.  ``y6_egf`` builds the same numbers through series
arithmetic, as an independent route.

``franel_recurrence`` gives a prefix of the Franel numbers sum_k C(n,k)^p,
p = 3 or 4, in O(N) integer steps by Franel's recurrences (1894, 1895),
checking every division; ``audit seq franel`` takes it via ``_franel_range``.
``franel`` stays the direct ``y6`` sum, so the audit's Franel entries and
the recurrence remain independent routes to the same numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import comb, factorial

from .classic_numbers import stirling1, stirling2
from .exact_core import (
    EgfSeries,
    Poly,
    Scalar,
    _check_indices,
    _check_ints,
    _frac,
    _ratio,
)

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


@dataclass(frozen=True)
class RationalFunction:
    """Ratio of two polynomials with a Maclaurin expansion when the
    denominator does not vanish at 0."""

    numerator: Poly
    denominator: Poly

    def __post_init__(self):
        if not self.denominator:
            raise ZeroDivisionError("zero denominator")

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
    return _y6_value(m, n, *_ratio(lam), p)


def _y6_value(m: int, n: int, a: int, b: int, p: int) -> Fraction:
    """y6(m,n;a/b,p): the kernel's integer n! b^n y6, divided once."""
    return Fraction(_y6(m, n, a, b, p), factorial(n) * b**n)  # _y6 checks n first


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


def y6_egf(n: int, lam: Scalar, p: int, order: int) -> EgfSeries:
    """Truncated EGF (1/n!) sum_k C(n,k)^p lam^k e^{kt}.

    Entry m is y6(m, n, lam, p); built through series arithmetic so the
    coefficient/derivative equivalence is an actual cross-check.
    """
    _check_indices(n=n, p=p, order=order)
    lam = _frac(lam)
    acc = EgfSeries([0] * (order + 1))
    lam_k = Fraction(1)
    for k in range(n + 1):
        acc = acc + EgfSeries.exp(k, order).scale(Fraction(comb(n, k)) ** p * lam_k)
        lam_k *= lam
    return acc.scale(Fraction(1, factorial(n)))


@lru_cache(maxsize=None, typed=True)
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


@lru_cache(maxsize=None, typed=True)
def t_poly(d: int) -> Poly:
    """Polynomial T_d with B(d,k) = 2^{k-d} T_d(k); zero constant term,
    coefficient of k^{d-l} given by sum_{j=l}^{d} s(j,l) S(d,j) 2^{d-j}."""
    _check_ints(d=d)
    if d < 1:
        raise ValueError("T_d is defined for d >= 1")
    coeffs = [Fraction(0)] * (d + 1)
    for l in range(1, d + 1):
        coeffs[l] = sum(
            (stirling1(j, l) * stirling2(d, j) * 2 ** (d - j) for j in range(l, d + 1)),
            Fraction(0),
        )
    return Poly(coeffs)


def b_ogf(d: int) -> RationalFunction:
    """Ordinary generating function of k -> B(d,k) as a single fraction.

    d = 0 gives 1/(1-2x); for d >= 1 the partial-fraction shape
    sum_j j! S(d,j) x^j/(1-2x)^{j+1} is brought over (1-2x)^{d+1}.
    """
    _check_indices(d=d)
    one_m_2x = Poly([1, -2])
    if d == 0:
        return RationalFunction(Poly([1]), one_m_2x)
    num = Poly()
    for j in range(1, d + 1):
        num = num + (
            factorial(j) * stirling2(d, j) * Poly.monomial(j) * one_m_2x ** (d - j)
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


# Franel's recurrences lead(n) f(n+1) = cur(n) f(n) + prev(n) f(n-1); both
# hold at n = 0 with f(-1) = 0, since prev(0) = 0.
_FRANEL_STEPS = {
    3: lambda n: ((n + 1) ** 2, 7 * n * n + 7 * n + 2, 8 * n * n),
    4: lambda n: (
        (n + 1) ** 3,
        2 * (2 * n + 1) * (3 * n * n + 3 * n + 1),
        4 * n * (4 * n - 1) * (4 * n + 1),
    ),
}


def franel_recurrence(p: int, stop: int) -> list[int]:
    """Franel numbers sum_k C(n,k)^p for n = 0..stop-1 and p = 3 or 4.

    Unrolls Franel's recurrence from f(0) = 1; a division that is not exact
    raises ``ArithmeticError``.
    """
    _check_ints(p=p)
    _check_indices(stop=stop)
    if p not in _FRANEL_STEPS:
        raise ValueError(f"Franel recurrence is known for p = 3, 4 only, got p = {p}")
    step = _FRANEL_STEPS[p]
    terms = [1] if stop else []
    prev = 0
    for n in range(stop - 1):
        lead, cur_c, prev_c = step(n)
        value, rem = divmod(cur_c * terms[n] + prev_c * prev, lead)
        if rem:
            raise ArithmeticError(
                f"Franel recurrence p = {p} is not exact at n = {n + 1}"
            )
        prev = terms[n]
        terms.append(value)
    return terms


def _franel_range(p: int, m: int, lam: Scalar, rng: range) -> list:
    """Franel numbers n! y6(m,n;lam,p) for n in rng, by Franel's recurrence
    where ``_FRANEL_STEPS`` has p and m = 0, lam = 1, else term by term."""
    if m == 0 and lam == 1 and p in _FRANEL_STEPS and rng.start >= 0:
        return franel_recurrence(p, rng.stop)[rng.start :]
    return [franel(p, m, n, lam) for n in rng]
