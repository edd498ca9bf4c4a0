"""Terminating generalized hypergeometric series, evaluated exactly,
and the ordinary-generating-function closed forms for the m = 0 slices
of the binomial-power-sum family."""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from math import comb, factorial
from typing import Iterable

from .exact_core import (
    Scalar,
    _Record,
    _check_indices,
    _check_ints,
    _check_type,
    _frac,
    _ratio,
    gamma_half,
)
from .y6_engine import y6

__all__ = [
    "PfqSpec",
    "OgfCase",
    "pfq_terminating",
    "y6_hyper",
    "ogf_series",
    "ogf_reference",
    "alternating_square_gamma",
]


class PfqSpec(_Record):
    """Parameter block for pFq: upper/lower parameter tuples and argument,
    each parameter an int or ``Fraction`` and stored as a ``Fraction``."""

    __slots__ = ("upper", "lower", "z")
    upper: tuple[Fraction, ...]
    lower: tuple[Fraction, ...]
    z: Fraction

    def __init__(self, upper: Iterable[Scalar], lower: Iterable[Scalar], z: Scalar):
        object.__setattr__(self, "upper", tuple(map(_frac, upper)))
        object.__setattr__(self, "lower", tuple(map(_frac, lower)))
        object.__setattr__(self, "z", _frac(z))


def _is_nonpositive_int(x: Fraction) -> bool:
    return x.denominator == 1 and x.numerator <= 0


def pfq_terminating(spec: PfqSpec) -> Fraction:
    """Exact finite sum of a terminating pFq.

    Termination index M is the smallest -a over non-positive-integer upper
    parameters.  Lower parameters that are non-positive integers are only
    allowed when their pole index lies strictly beyond M.
    """
    _check_type("spec", spec, PfqSpec)
    tops = [-a.numerator for a in spec.upper if _is_nonpositive_int(a)]
    if not tops:
        raise ValueError("series does not terminate: no non-positive integer "
                         "upper parameter")
    M = min(tops)
    for b in spec.lower:
        if _is_nonpositive_int(b) and -b < M:
            raise ValueError(f"lower parameter {b} hits its pole before the "
                             f"termination index {M}")
    # Term k+1 is term k times z prod(a+k) / ((k+1) prod(b+k)).  The term
    # and the partial sum are integers over one running denominator: each
    # step multiplies that by the ratio's denominator, which is nonzero for
    # k < M by the pole check above.
    zn, zd = spec.z.numerator, spec.z.denominator
    upper = [(a.numerator, a.denominator) for a in spec.upper]
    lower = [(b.numerator, b.denominator) for b in spec.lower]
    total = term = den = 1
    for k in range(M):
        num, div = zn, zd * (k + 1)
        for a, d in upper:
            num *= a + k * d
            div *= d
        for b, d in lower:
            num *= d
            div *= b + k * d
        term *= num
        den *= div
        total = total * div + term
    return Fraction(total, den)


def y6_hyper(n: int, lam: Scalar, p: int) -> Fraction:
    """m = 0 member of the family via its hypergeometric representation:
    (1/n!) pFq with p copies of -n on top, p-1 ones below, argument
    (-1)^p lam."""
    _check_indices(n=n, p=p)
    if p < 1:
        raise ValueError("the hypergeometric form needs p >= 1")
    lam = _frac(lam)
    # one Fraction per distinct parameter, which PfqSpec keeps as it is
    top, one = Fraction(-n), Fraction(1)
    spec = PfqSpec((top,) * p, (one,) * (p - 1), -lam if p % 2 else lam)
    return pfq_terminating(spec) / factorial(n)


def alternating_square_gamma(n: int) -> Fraction:
    """sqrt(pi) 2^n / (Gamma((2+n)/2) Gamma((1-n)/2)) with the
    1/Gamma(pole) = 0 convention; always an exact rational."""
    _check_ints(n=n)
    g1 = gamma_half(Fraction(2 + n, 2))
    g2 = gamma_half(Fraction(1 - n, 2))
    if g1.is_pole or g2.is_pole:
        return Fraction(0)
    # One of the two gammas carries the sqrt(pi); it must cancel the
    # explicit sqrt(pi) in the numerator.
    assert g1.sqrt_pi_exponent + g2.sqrt_pi_exponent == 1
    return Fraction(2) ** n / (g1.rational_part * g2.rational_part)


class OgfCase(Enum):
    LAM_P0 = "lam_p0"      # f(t; lam; 0, 0)
    LAM_P1 = "lam_p1"      # f(t; lam; 1, 0)
    ONE_P2 = "one_p2"      # f(t; 1; 2, 0)
    MINUS1_P2 = "minus1_p2"  # f(t; -1; 2, 0)


def ogf_series(case: OgfCase, lam: Scalar | None, order: int) -> list[Fraction]:
    """Ordinary coefficients c_0..c_order of the solved closed forms of
    sum_n y6(0,n;lam,p) t^n."""
    _check_indices(order=order)
    if case is OgfCase.LAM_P0:
        lam = _frac(lam)
        if _ratio(lam) == (1, 1):
            raise ValueError("lambda = 1 is singular for the p = 0 form")
        return [
            (lam ** (n + 1) - 1) / ((lam - 1) * factorial(n))
            for n in range(order + 1)
        ]
    if case is OgfCase.LAM_P1:
        lam = _frac(lam)
        return [(lam + 1) ** n / Fraction(factorial(n)) for n in range(order + 1)]
    if case is OgfCase.ONE_P2:
        return [Fraction(comb(2 * n, n), factorial(n)) for n in range(order + 1)]
    if case is OgfCase.MINUS1_P2:
        return [
            alternating_square_gamma(n) / factorial(n) for n in range(order + 1)
        ]
    raise ValueError(f"unknown case {case!r}")


def ogf_reference(case: OgfCase, lam: Scalar | None, order: int) -> list[Fraction]:
    """The same coefficients straight from the finite sums, for auditing."""
    _check_indices(order=order)
    slices = {  # case -> (lambda, p) of its slice
        OgfCase.LAM_P0: (lam, 0),
        OgfCase.LAM_P1: (lam, 1),
        OgfCase.ONE_P2: (1, 2),
        OgfCase.MINUS1_P2: (-1, 2),
    }
    if case not in slices:
        raise ValueError(f"unknown case {case!r}")
    lam, p = slices[case]
    return [y6(0, n, lam, p) for n in range(order + 1)]
