"""The polynomial family attached to the binomial-power-sum numbers.

Covers the polynomial itself, its raw (un-normalized) summation form, the
Riemann/p-adic linear functionals, closed-form power sums, and the
binomial-square polynomial family with the Euler operator.

For lam = a/b, ``p_poly`` takes its coefficients n! b^n y6(i,n;lam,p) as
integers over the single denominator n! b^n from ``y6_engine._moment_row``,
the moment row that ``y6_egf`` also reads, and reweights them by C(m,i);
``raw_sum_poly`` expands its own defining sum as integers over b^n.  Their
kernels ``_p_poly`` and ``_raw_sum`` return these rows unreduced
(``exact_core._UnreducedPoly``).  Neither calls ``y6``'s kernel ``_y6`` or
shares a helper with it or with the other, so the audit's identities
between the polynomial family and ``y6`` compare independent routes.

``volkenborn``, ``fermionic`` and ``exact_core.poly_integral01`` are linear
functionals, each given by its moment row: its values on x^k, k < d, as
integers over one denominator, so that the functional of a polynomial of
d coefficients is one integer dot product (``exact_core._functional``).
The Volkenborn and fermionic rows come from the Mahler expansion
q = sum_j D^j q(0) C(x,j) and the integrals of C(x,j), in O(d^2) and with
no Bernoulli or Euler number, so the moment identities set them against
the Bernoulli and Euler polynomials, built from Stirling numbers, as
independent routes.  The public functions build the row per call; the
audit builds each row once per degree and entry evaluation.

The closed-form power sums ``power_sum_closed`` and
``mirimanoff_frobenius_sum`` take their polynomial (Bernoulli, Euler,
Apostol-Bernoulli or Frobenius-Euler) from ``_power_sum_poly`` or
``_frobenius_poly``, evaluate it with ``exact_core._poly_at`` at integer
points and at x0 = c/d, and combine the integer values in their kernels
``_power_sum_closed`` and ``_mirimanoff_frobenius_sum``, which return an
``exact_core._Unreduced``.  The audit keeps each polynomial in a table per
(m, a, b) and calls the kernels itself.

``p_poly`` is memoized like ``y6``: it splits lam once into its integer
parts and looks them up in the bounded ``lru_cache`` of ``_p_poly``, so a
lookup hashes a tuple of ints, not a ``Fraction``.  The audit asks for each
polynomial many times (P(m-k) in the derivative identity, P(m) and P(m+1)
in the recurrence, one per integral form), and a default audit builds each
of its 2,520 distinct rows once.  The cache holds the unreduced row, its
numerators a tuple over n! b^n, and ``p_poly`` reduces a copy per call.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb, factorial, lcm

from .classic_numbers import (
    apostol_bernoulli,
    bernoulli_poly,
    euler_poly,
    frobenius_euler,
)
from .exact_core import (
    Poly,
    Scalar,
    _Unreduced,
    _UnreducedPoly,
    _check_indices,
    _check_type,
    _functional,
    _poly,
    _poly_at,
    _ratio,
)
from .y6_engine import _moment_row

__all__ = [
    "p_poly",
    "raw_sum_poly",
    "volkenborn",
    "fermionic",
    "power_sum_closed",
    "r_poly",
    "vowe",
    "euler_operator",
    "mirimanoff_frobenius_sum",
]


def p_poly(m: int, n: int, lam: Scalar, p: int) -> Poly:
    """sum_{k=0}^{m} C(m,k) x^{m-k} y6(k,n;lam,p)."""
    return _p_poly(m, n, *_ratio(lam), p).poly()


# keyed on lam's integer parts, so a lookup hashes no Fraction; typed: an
# index Fraction(2) or 2.0 must miss the entry of 2 and be refused; bounded
# to cap memory
@lru_cache(maxsize=8192, typed=True)
def _p_poly(m: int, n: int, a: int, b: int, p: int) -> _UnreducedPoly:
    """p_poly(m,n;a/b,p) for lam = a/b in lowest terms with b > 0, as
    ``exact_core._ratio`` gives it, as m + 1 numerators over n! b^n."""
    _check_indices(m=m, n=n, p=p)
    row = _moment_row(m, n, a, b, p)
    return _UnreducedPoly(
        [comb(m, i) * row[m - i] for i in range(m + 1)], factorial(n) * b**n
    )


p_poly.cache_info = _p_poly.cache_info
p_poly.cache_clear = _p_poly.cache_clear


def raw_sum_poly(m: int, n: int, lam: Scalar, p: int) -> Poly:
    """sum_{j=0}^{n} C(n,j)^p lam^j (x+j)^m, expanded exactly.

    Equals n! times p_poly (the two defining forms differ by that factor).
    """
    _check_indices(m=m, n=n, p=p)
    return _raw_sum(m, n, *_ratio(lam), p).poly()


def _raw_sum(m: int, n: int, a: int, b: int, p: int) -> _UnreducedPoly:
    """raw_sum_poly(m,n;a/b,p) for b > 0, as m + 1 numerators over b^n."""
    # b^n times the sum: term j has the integer weight C(n,j)^p a^j b^(n-j)
    # and (x+j)^m = sum_i C(m,i) j^(m-i) x^i.
    binom_m = [comb(m, i) for i in range(m + 1)]
    coeffs = [0] * (m + 1)
    binom = a_j = 1
    den = b_rest = b**n
    for j in range(n + 1):
        term = binom**p * a_j * b_rest
        for i in range(m, -1, -1):  # term = weight * j^(m-i)
            coeffs[i] += binom_m[i] * term
            term *= j
        binom = binom * (n - j) // (j + 1)
        a_j *= a
        b_rest //= b
    return _UnreducedPoly(coeffs, den)


def _mahler_row(weights: list[int], den: int) -> tuple[list[int], int]:
    """The moment row of the functional whose value on C(x,j) is
    weights[j]/den, j < d = len(weights), over den.

    With q = sum_j D^j q(0) C(x,j) (Mahler) and D^j q(0) =
    sum_i (-1)^(j-i) C(j,i) q(i), the functional is sum_i W_i q(i) for
    W_i = sum_{j>=i} (-1)^(j-i) C(j,i) weights[j], and its value on x^k is
    mu_k = sum_i W_i i^k (0^0 = 1)."""
    d = len(weights)
    mu = [0] * d
    for i in range(d):
        term, c = 0, 1
        for j in range(i, d):  # c = (-1)^(j-i) C(j,i)
            term += c * weights[j]
            c = -c * (j + 1) // (j + 1 - i)
        for k in range(d):  # term = W_i i^k
            mu[k] += term
            term *= i
    return mu, den


def volkenborn(q: Poly) -> Fraction:
    """Volkenborn integral, x^k -> B_k (Bernoulli numbers)."""
    _check_type("q", q, Poly)
    return _functional(q, _volkenborn_row(len(q.nums))).fraction()


def _volkenborn_row(d: int) -> tuple[list[int], int]:
    """The Volkenborn moments B_k, k < d, over L = lcm(1..d), from the
    Mahler weights: the integral of C(x,j) is (-1)^j/(j+1)."""
    big_l = lcm(*range(1, d + 1))
    return _mahler_row([(-1) ** j * (big_l // (j + 1)) for j in range(d)], big_l)


def fermionic(q: Poly) -> Fraction:
    """Fermionic p-adic integral, x^k -> E_k(0) (Euler polynomial at 0)."""
    _check_type("q", q, Poly)
    return _functional(q, _fermionic_row(len(q.nums))).fraction()


def _fermionic_row(d: int) -> tuple[list[int], int]:
    """The fermionic moments E_k(0), k < d, over 2^d, from the Mahler
    weights: the integral of C(x,j) is (-1/2)^j."""
    return _mahler_row([(-1) ** j << (d - j) for j in range(d)], 1 << d)


def power_sum_closed(m: int, upper: int, lam: Scalar) -> Fraction:
    """sum_{j=0}^{upper-1} lam^j j^m via the closed forms.

    lam=1 goes through Bernoulli polynomials, lam=-1 through Euler
    polynomials, and general lam through Apostol-Bernoulli polynomials:
    ``_power_sum_poly`` picks the polynomial and ``_power_sum_closed``
    evaluates the closed form in integers.
    """
    _check_indices(m=m, upper=upper)
    if upper == 0:
        return Fraction(0)
    a, b = _ratio(lam)
    return _power_sum_closed(_power_sum_poly(m, a, b), m, upper, a, b).fraction()


def _power_sum_poly(m: int, a: int, b: int) -> Poly:
    """The polynomial of ``power_sum_closed``'s branch for lam = a/b, b > 0:
    B_(m+1) at lam = 1, E_m at lam = -1, else the Apostol-Bernoulli A_(m+1)."""
    if (a, b) == (1, 1):
        return bernoulli_poly(m + 1)
    if (a, b) == (-1, 1):
        return euler_poly(m)
    return apostol_bernoulli(m + 1, Fraction(a, b))


def _power_sum_closed(q: Poly, m: int, upper: int, a: int, b: int) -> _Unreduced:
    """sum_{j<upper} (a/b)^j j^m from q = ``_power_sum_poly(m, a, b)``:
    (q(upper) - q(0))/(m+1) at lam = 1, ((-1)^(upper-1) q(upper) + q(0))/2 at
    lam = -1 and (lam^upper q(upper) - q(0))/(m+1) otherwise.  q(upper) and
    q(0) are ``_poly_at`` quotients over the one denominator q.den, so the
    value is their integer combination, unreduced."""
    top, bottom = _poly_at(q, upper, 1).num, _poly_at(q, 0, 1).num
    if (a, b) == (1, 1):
        return _Unreduced(top - bottom, q.den * (m + 1))
    if (a, b) == (-1, 1):
        return _Unreduced((-1) ** (upper + 1) * top + bottom, q.den * 2)
    return _Unreduced(a**upper * top - b**upper * bottom, q.den * b**upper * (m + 1))


def r_poly(n: int, p: int) -> Poly:
    """(1/n!) sum_k C(n,k)^p x^k."""
    _check_indices(n=n, p=p)
    return Poly.from_ints([comb(n, k) ** p for k in range(n + 1)], factorial(n))


def vowe(n: int) -> Poly:
    """sum_k C(n,k)^2 x^k, i.e. n! times the p=2 member of r_poly."""
    _check_indices(n=n)
    return factorial(n) * r_poly(n, 2)


def euler_operator(q: Poly, iterations: int = 1) -> Poly:
    """Apply x d/dx the given number of times."""
    _check_type("q", q, Poly)
    _check_indices(iterations=iterations)
    # x d/dx multiplies the coefficient of x^k by k
    nums = q.nums
    for _ in range(iterations):
        nums = [k * c for k, c in enumerate(nums)]
    return _poly(list(nums), q.den)


def mirimanoff_frobenius_sum(m: int, n: int, x0: Scalar, u: Scalar) -> Fraction:
    """sum_{j=0}^{n-1} u^j (x0+j)^m via Frobenius-Euler polynomials:
    (u^n H_m(x0+n; 1/u) - H_m(x0; 1/u)) / (u - 1), evaluated in integers by
    ``_mirimanoff_frobenius_sum`` on ``_frobenius_poly``'s polynomial."""
    _check_indices(m=m, n=n)
    a, b = _ratio(u)
    if (a, b) in ((0, 1), (1, 1)):
        raise ValueError("u must not be 0 or 1")
    h = _frobenius_poly(m, a, b)
    return _mirimanoff_frobenius_sum(h, n, *_ratio(x0), a, b).fraction()


def _frobenius_poly(m: int, a: int, b: int) -> Poly:
    """H_m(x; 1/u) for u = a/b, a != 0 and b > 0."""
    return frobenius_euler(m, Fraction(b, a))


def _mirimanoff_frobenius_sum(
    h: Poly, n: int, c: int, d: int, a: int, b: int
) -> _Unreduced:
    """(u^n h(x0+n) - h(x0)) / (u - 1) for h = ``_frobenius_poly(m, a, b)``,
    u = a/b != 1 and x0 = c/d with d > 0.  h(x0+n) and h(x0) are
    ``_poly_at`` quotients over the one denominator h.den d^deg, so the
    value is (a^n h(x0+n) - b^n h(x0)) b / (b^n (a-b)) in their numerators,
    unreduced; n = 0 is the empty sum 0."""
    top = _poly_at(h, c + n * d, d)
    bottom = _poly_at(h, c, d).num
    return _Unreduced((a**n * top.num - b**n * bottom) * b, top.den * b**n * (a - b))
