"""Exact scalar, polynomial and truncated-series arithmetic.

Everything downstream works over exact rationals (``fractions.Fraction``):
dense polynomials, truncated exponential-generating-function series, and
gamma values at integer/half-integer arguments.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Iterable, Sequence, Union

Rational = Fraction
Scalar = Union[int, Fraction]

__all__ = [
    "Rational",
    "Poly",
    "EgfSeries",
    "GammaHalfValue",
    "binomial_general",
    "pochhammer",
    "falling_factorial",
    "gamma_half",
    "poly_integral01",
]


def _frac(x: Scalar) -> Fraction:
    """The exact rational of an int or Fraction; anything else, floats
    above all, is refused rather than converted to a binary fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected an int or Fraction, got {type(x).__name__}")


class Poly:
    """Dense univariate polynomial with Fraction coefficients.

    Canonical form: no trailing zero coefficients; the zero polynomial
    stores an empty tuple and has degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        return cls([0] * k + [c])

    @classmethod
    def x(cls) -> "Poly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Poly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == Poly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly([-c for c in self.coeffs])

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "Poly":
        return Poly([other]) + (-self)

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (int, Fraction)):
            return Poly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return Poly(out)

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "Poly":
        c = _frac(c)
        return Poly([a / c for a in self.coeffs])

    def __pow__(self, e: int) -> "Poly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = Poly([1])
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __call__(self, x: Scalar) -> Fraction:
        x = _frac(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "Poly":
        return Poly([i * c for i, c in enumerate(self.coeffs)][1:])

    def __repr__(self) -> str:
        if not self.coeffs:
            return "Poly(0)"
        terms = []
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            elif i == 1:
                terms.append(f"{c}*x")
            else:
                terms.append(f"{c}*x^{i}")
        return "Poly(" + " + ".join(terms) + ")"


class EgfSeries:
    """Truncated series sum c_n t^n / n!, stored as (c_0, ..., c_N).

    Products use the binomial convolution; two series must share the
    truncation order before they can be combined.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[Scalar]):
        if len(coeffs) == 0:
            raise ValueError("EgfSeries needs at least the constant term")
        object.__setattr__(self, "coeffs", tuple(_frac(c) for c in coeffs))

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def one(cls, order: int) -> "EgfSeries":
        return cls([1] + [0] * order)

    @classmethod
    def exp(cls, a: Scalar, order: int) -> "EgfSeries":
        """Coefficients of e^{a t}: c_n = a^n."""
        a = _frac(a)
        out, cur = [], Fraction(1)
        for _ in range(order + 1):
            out.append(cur)
            cur *= a
        return cls(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EgfSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _check_order(self, other: "EgfSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return EgfSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: Scalar) -> "EgfSeries":
        c = _frac(c)
        return EgfSeries([c * a for a in self.coeffs])

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        a, b = self.coeffs, other.coeffs
        out = []
        for n in range(self.order + 1):
            s = Fraction(0)
            binom = 1
            for k in range(n + 1):
                if a[k] and b[n - k]:
                    s += binom * a[k] * b[n - k]
                binom = binom * (n - k) // (k + 1)
            out.append(s)
        return EgfSeries(out)

    def reciprocal(self) -> "EgfSeries":
        """Series r with self * r = 1 + O(t^{N+1}); needs c_0 != 0."""
        a = self.coeffs
        if a[0] == 0:
            raise ZeroDivisionError("EGF reciprocal needs nonzero constant term")
        r = [Fraction(1) / a[0]]
        from math import comb

        for n in range(1, self.order + 1):
            s = Fraction(0)
            for k in range(1, n + 1):
                if a[k]:
                    s += comb(n, k) * a[k] * r[n - k]
            r.append(-s / a[0])
        return EgfSeries(r)

    def pow(self, e: int) -> "EgfSeries":
        """Integer power; negative exponents go through the reciprocal."""
        if e < 0:
            return self.reciprocal().pow(-e)
        result = EgfSeries.one(self.order)
        base = self
        while e:
            if e & 1:
                result = result * base
            e >>= 1
            if e:
                base = base * base
        return result

    def __repr__(self) -> str:
        return f"EgfSeries({list(self.coeffs)!r})"


@dataclass(frozen=True)
class GammaHalfValue:
    """Exact gamma value rational_part * sqrt(pi)^sqrt_pi_exponent.

    At non-positive integer arguments ``is_pole`` is set and the other
    fields are meaningless.
    """

    rational_part: Fraction
    sqrt_pi_exponent: int
    is_pole: bool = False

    @classmethod
    def pole(cls) -> "GammaHalfValue":
        return cls(Fraction(0), 0, True)


def binomial_general(z: Scalar, v: int) -> Fraction:
    """Binomial coefficient z(z-1)...(z-v+1)/v! for arbitrary rational z."""
    if v < 0:
        raise ValueError("v must be >= 0")
    z = _frac(z)
    num = Fraction(1)
    for i in range(v):
        num *= z - i
    return num / factorial(v)


def pochhammer(x: Scalar, v: int) -> Fraction:
    """Rising factorial x(x+1)...(x+v-1); empty product is 1."""
    if v < 0:
        raise ValueError("v must be >= 0")
    x = _frac(x)
    out = Fraction(1)
    for i in range(v):
        out *= x + i
    return out


def falling_factorial(x: Scalar, v: int) -> Fraction:
    """Falling factorial x(x-1)...(x-v+1)."""
    if v < 0:
        raise ValueError("v must be >= 0")
    x = _frac(x)
    out = Fraction(1)
    for i in range(v):
        out *= x - i
    return out


def gamma_half(a: Scalar) -> GammaHalfValue:
    """Exact gamma at integer or half-integer a.

    Integer a <= 0 is a pole.  Half-integer values are rational multiples
    of sqrt(pi), extended to negative arguments via Gamma(a+1) = a*Gamma(a).
    """
    a = _frac(a)
    if a.denominator == 1:
        n = int(a)
        if n <= 0:
            return GammaHalfValue.pole()
        return GammaHalfValue(Fraction(factorial(n - 1)), 0)
    if a.denominator == 2:
        # a = 1/2 + m with m integer; walk the recurrence from Gamma(1/2).
        m = int(a - Fraction(1, 2))
        r = Fraction(1)
        if m >= 0:
            for i in range(m):
                r *= Fraction(1, 2) + i
        else:
            for i in range(1, -m + 1):
                r /= Fraction(1, 2) - i
        return GammaHalfValue(r, 1)
    raise ValueError(f"gamma_half needs an integer or half-integer, got {a}")


def poly_integral01(p: Poly) -> Fraction:
    """Exact integral of p over [0, 1]."""
    return sum((c / (i + 1) for i, c in enumerate(p.coeffs)), Fraction(0))
