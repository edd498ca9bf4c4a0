"""The polynomial family attached to the binomial-power-sum numbers.

Covers the polynomial itself, its raw (un-normalized) summation form, the
Riemann/p-adic linear functionals, closed-form power sums, and the
binomial-square polynomial family with the Euler operator.

For lam = a/b, ``p_poly`` sums its coefficients n! b^n y6(i,n;lam,p) as
integers over the single denominator n! b^n, and ``raw_sum_poly`` expands
its own defining sum as integers over b^n; their kernels ``_p_poly`` and
``_raw_sum`` return these rows unreduced (``exact_core._UnreducedPoly``).
Neither calls ``y6`` or shares a helper with it or with the other, so the
audit's identities between the polynomial family and ``y6`` compare
independent routes.

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
    Poly, Scalar, _UnreducedPoly, _check_indices, _frac, _functional, _ratio
)

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
    # Horner in b: after step k, row[i] = sum_{j<=k} C(n,j)^p j^i a^j b^(k-j),
    # so at the end row[i] = n! b^n y6(i,n;lam,p).
    row = [0] * (m + 1)
    binom = a_k = 1
    for k in range(n + 1):
        term = binom**p * a_k  # times k^i as i runs up
        for i in range(m + 1):
            row[i] = row[i] * b + term
            term *= k
        binom = binom * (n - k) // (k + 1)
        a_k *= a
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
    return _functional(q, _volkenborn_row(len(q.nums))).fraction()


def _volkenborn_row(d: int) -> tuple[list[int], int]:
    """The Volkenborn moments B_k, k < d, over L = lcm(1..d), from the
    Mahler weights: the integral of C(x,j) is (-1)^j/(j+1)."""
    big_l = lcm(*range(1, d + 1))
    return _mahler_row([(-1) ** j * (big_l // (j + 1)) for j in range(d)], big_l)


def fermionic(q: Poly) -> Fraction:
    """Fermionic p-adic integral, x^k -> E_k(0) (Euler polynomial at 0)."""
    return _functional(q, _fermionic_row(len(q.nums))).fraction()


def _fermionic_row(d: int) -> tuple[list[int], int]:
    """The fermionic moments E_k(0), k < d, over 2^d, from the Mahler
    weights: the integral of C(x,j) is (-1/2)^j."""
    return _mahler_row([(-1) ** j << (d - j) for j in range(d)], 1 << d)


def power_sum_closed(m: int, upper: int, lam: Scalar) -> Fraction:
    """sum_{j=0}^{upper-1} lam^j j^m via the closed forms.

    lam=1 goes through Bernoulli polynomials, lam=-1 through Euler
    polynomials, and general lam through Apostol-Bernoulli polynomials.
    """
    _check_indices(m=m, upper=upper)
    if upper == 0:
        return Fraction(0)
    lam = _frac(lam)
    ratio = _ratio(lam)  # tested as ints: no Fraction.__eq__
    if ratio == (1, 1):
        b = bernoulli_poly(m + 1)
        return (b(upper) - b(0)) / (m + 1)
    if ratio == (-1, 1):
        e = euler_poly(m)
        return ((-1) ** (upper - 1) * e(upper) + e(0)) / 2
    b = apostol_bernoulli(m + 1, lam)
    return (lam**upper * b(upper) - b(0)) / (m + 1)


# typed: Fraction(2) must miss the entry of 2 and be refused
@lru_cache(maxsize=None, typed=True)
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
    _check_indices(iterations=iterations)
    for _ in range(iterations):
        q = Poly.x() * q.derivative()
    return q


def mirimanoff_frobenius_sum(m: int, n: int, x0: Scalar, u: Scalar) -> Fraction:
    """sum_{j=0}^{n-1} u^j (x0+j)^m via Frobenius-Euler polynomials:
    (u^n H_m(x0+n; 1/u) - H_m(x0; 1/u)) / (u - 1)."""
    _check_indices(m=m, n=n)
    u = _frac(u)
    if _ratio(u) in ((0, 1), (1, 1)):
        raise ValueError("u must not be 0 or 1")
    x0 = _frac(x0)
    h = frobenius_euler(m, 1 / u)
    return (u**n * h(x0 + n) - h(x0)) / (u - 1)
