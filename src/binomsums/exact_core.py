"""Exact scalar, polynomial and truncated-series arithmetic.

Everything downstream works over exact rationals: dense polynomials,
truncated exponential-generating-function series, and gamma values at
integer/half-integer arguments.  Scalars cross the API as ``int`` or
``fractions.Fraction`` (``franel_recurrence`` returns ints, most other
functions a ``Fraction``); a float is refused, never converted.  Integer
indices must be ``int`` and, unless documented otherwise, >= 0
(``_check_indices``).  Inside, ``Poly`` and ``EgfSeries`` hold Python-int
numerators over one reduced denominator (the representation of FLINT's
``fmpq_poly``), so their arithmetic runs on ints and a ``Fraction`` is
built only where a value leaves the object.  Their private base
``_IntRow`` owns that form: ``from_ints``, ``coeffs``, equality, hashing
and scaling by a scalar.  ``_poly_at`` is the one Horner; every
polynomial value, ``_int_values`` included, goes through it.  The scalar
kernels return an ``_Unreduced`` quotient and the polynomial kernels an
``_UnreducedPoly``; their public functions reduce them.  ``GammaHalfValue``
is a ``NamedTuple``; the records that check their arguments when built
(``hypergeom.PfqSpec``, ``y6_engine.RationalFunction``) are slotted
``_Record`` classes, so no record generates code at import.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import factorial, gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence, Union

Scalar = Union[int, Fraction]

__all__ = [
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


class _Unreduced:
    """The rational num/den, den != 0, with no gcd taken: a kernel's value
    that the audit only compares.  Equality cross-multiplies with a quotient,
    an int or a Fraction; for a float, or anything else, it is NotImplemented."""

    __slots__ = ("num", "den")

    def __init__(self, num: int, den: int):
        self.num, self.den = num, den

    def __eq__(self, other: object) -> bool:
        if type(other) is _Unreduced:
            return self.num * other.den == other.num * self.den
        if isinstance(other, (int, Fraction)):
            return self.num * other.denominator == other.numerator * self.den
        return NotImplemented

    def fraction(self) -> Fraction:
        return Fraction(self.num, self.den)

    def __str__(self) -> str:
        return str(self.fraction())


class _UnreducedPoly:
    """sum nums[i] x^i / den, den != 0, with no gcd taken and trailing zeros
    allowed: a kernel's value that the audit only compares.  Equality with a
    Poly or another one compares the numerator tuples where den and length
    agree, else cross-multiplies; with anything else it is NotImplemented."""

    __slots__ = ("nums", "den")

    def __init__(self, nums: Iterable[int], den: int):
        self.nums, self.den = tuple(nums), den

    def __eq__(self, other: object) -> bool:
        if type(other) is not _UnreducedPoly and not isinstance(other, Poly):
            return NotImplemented
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if da == db and len(a) == len(b):
            return a == b
        return all(x * db == y * da for x, y in zip_longest(a, b, fillvalue=0))

    def poly(self) -> "Poly":
        return _poly(list(self.nums), self.den)

    def __str__(self) -> str:
        return repr(self.poly())


def _check_ints(**indices: object) -> None:
    """Refuse an index that is not an int (Fraction(2) included) before it
    reaches the arithmetic and fails there with a less useful message."""
    for name, value in indices.items():
        if type(value) is not int:
            raise TypeError(f"{name} must be an int, got {type(value).__name__}")


def _check_type(name: str, value: object, cls: type) -> None:
    """Refuse an argument that is not a ``cls`` with ``TypeError``, before
    it fails inside with an ``AttributeError``."""
    if not isinstance(value, cls):
        raise TypeError(f"{name} must be a {cls.__name__}, got {type(value).__name__}")


def _check_indices(**indices: object) -> None:
    """The gate of every public index that must be an int >= 0: a non-int
    raises ``TypeError`` and a negative value ``ValueError``, before any
    cache or arithmetic sees it.  The first index that fails decides
    which error is raised; a valid call makes no nested call."""
    for name, value in indices.items():
        if type(value) is not int or value < 0:
            _check_ints(**{name: value})
            if len(indices) == 1:
                raise ValueError(f"{name} must be >= 0")
            raise ValueError("indices must be >= 0")


def _ratio(x: Scalar) -> tuple[int, int]:
    """Numerator and positive denominator of an int or Fraction."""
    if type(x) is int:
        return x, 1
    if type(x) is not Fraction:  # a Fraction skips _frac's isinstance tests
        x = _frac(x)
    return x.numerator, x.denominator


def _common(cs: list[Fraction]) -> tuple[tuple[int, ...], int]:
    """Fractions as integer numerators over the lcm of their denominators.

    The lcm of reduced denominators leaves no common factor between the
    denominator and all numerators, so the result is canonical."""
    dens = [c.denominator for c in cs]
    den = lcm(*dens)
    if den == 1:
        return tuple([c.numerator for c in cs]), 1
    return tuple([c.numerator * (den // d) for c, d in zip(cs, dens)]), den


def _reduce(nums: list[int], den: int) -> tuple[tuple[int, ...], int]:
    """Integer numerators over a nonzero den, brought to canonical form:
    den > 0 and no common factor of den and all numerators."""
    if den < 0:
        nums, den = [-c for c in nums], -den
    if den != 1:
        g = gcd(den, *nums)
        if g != 1:
            return tuple([c // g for c in nums]), den // g
    return tuple(nums), den


def _align(a: Sequence[int], da: int, b: Sequence[int], db: int):
    """Numerators of a/da and b/db rewritten over their common denominator."""
    if da == db:
        return a, b, da
    g = gcd(da, db)
    fa, fb = db // g, da // g
    return [c * fa for c in a], [c * fb for c in b], da * fa


class _IntRow:
    """Integer numerators ``nums`` over one positive denominator ``den``
    that shares no factor with all of them: the canonical form that
    :class:`Poly` and :class:`EgfSeries` store.  The form is unique, so
    equality and hashing compare integers; ``coeffs`` builds the
    ``Fraction`` coefficients on demand.  Rows are built by the reducing
    constructor of their class (``_poly`` or ``_egf``), or by
    ``_canonical`` where the arithmetic already left them canonical."""

    __slots__ = ("nums", "den")

    @classmethod
    def from_ints(cls, nums: Iterable[int], den: int = 1):
        """The row nums[i] / den.  Numerators and den must be ints (bool
        excluded): a Fraction or float part would break the integer form."""
        nums = list(nums)
        if type(den) is not int or not set(map(type, nums)) <= {int}:
            bad = next(x for x in (den, *nums) if type(x) is not int)
            raise TypeError(f"from_ints needs int parts, got {type(bad).__name__}")
        if not nums and cls is EgfSeries:
            raise ValueError("EgfSeries needs at least the constant term")
        if den == 0:
            raise ZeroDivisionError("zero denominator")
        return (_poly if cls is Poly else _egf)(nums, den)

    @classmethod
    def _canonical(cls, nums: Iterable[int], den: int):
        """The row nums / den, already canonical, stored without a gcd."""
        row = object.__new__(cls)
        row.nums, row.den = tuple(nums), den
        return row

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        den = self.den
        return tuple([Fraction(c, den) for c in self.nums])

    def __eq__(self, other: object) -> bool:
        if isinstance(other, type(self)):
            return self.nums == other.nums and self.den == other.den
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.nums, self.den))

    def _scale(self, c: Scalar):
        """The row times the scalar c."""
        num, den = _ratio(c)
        nums = [num * a for a in self.nums]
        return (_poly if type(self) is Poly else _egf)(nums, self.den * den)


def _poly(nums: list[int], den: int) -> "Poly":
    """Poly from integer numerators over den, without trailing zeros."""
    while nums and not nums[-1]:
        nums.pop()
    p = object.__new__(Poly)
    p.nums, p.den = _reduce(nums, den) if nums else ((), 1)
    return p


def _egf(nums: list[int], den: int) -> "EgfSeries":
    """EgfSeries from integer numerators over den."""
    s = object.__new__(EgfSeries)
    s.nums, s.den = _reduce(nums, den)
    return s


class Poly(_IntRow):
    """Dense univariate polynomial with exact rational coefficients.

    Stored in the canonical form of :class:`_IntRow` with no trailing zero
    numerator; the zero polynomial is ``()`` over 1 and has degree -1.
    """

    __slots__ = ()

    def __init__(self, coeffs: Iterable[Scalar] = ()):
        cs = [_frac(c) for c in coeffs]
        while cs and not cs[-1]:
            cs.pop()
        self.nums, self.den = _common(cs)

    @classmethod
    def const(cls, c: Scalar) -> "Poly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "Poly":
        _check_indices(k=k)
        return cls([0] * k + [c])

    @classmethod
    def x(cls) -> "Poly":
        """The polynomial x; one shared instance, as a Poly is immutable."""
        return _X

    @property
    def degree(self) -> int:
        return len(self.nums) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.nums):
            return Fraction(self.nums[i], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = Poly([other])
        return super().__eq__(other)

    __hash__ = _IntRow.__hash__  # an __eq__ of its own would unset it

    def __add__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            b, db = other.nums, other.den
        elif isinstance(other, (int, Fraction)):
            num, db = _ratio(other)
            b = (num,)
        else:
            return NotImplemented
        a, b, den = _align(self.nums, self.den, b, db)
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] += c
        return _poly(out, den)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._canonical([-c for c in self.nums], self.den)

    def __sub__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, (Poly, int, Fraction)):
            return self + (-other)
        return NotImplemented

    def __rsub__(self, other: Scalar) -> "Poly":
        return (-self) + other

    def __mul__(self, other: "Poly | Scalar") -> "Poly":
        if isinstance(other, Poly):
            return _poly(_convolve(self.nums, other.nums), self.den * other.den)
        if isinstance(other, (int, Fraction)):
            return self._scale(other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "Poly":
        num, den = _ratio(c)
        if not num:
            if self.nums:
                raise ZeroDivisionError("polynomial division by zero")
            return self
        return _poly([a * den for a in self.nums], self.den * num)

    def __pow__(self, e: int) -> "Poly":
        _check_ints(e=e)
        if e < 0:
            raise ValueError("negative polynomial power")
        # By Gauss's lemma the content of nums**e is the content of nums
        # to the e, which stays coprime to den**e: no reduction is needed.
        nums = _power(self.nums, e, _convolve) if e else (1,)
        return Poly._canonical(nums, self.den**e)

    def __call__(self, x: Scalar) -> Fraction:
        return _poly_at(self, *_ratio(x)).fraction()

    def derivative(self) -> "Poly":
        nums = self.nums
        return _poly([i * nums[i] for i in range(1, len(nums))], self.den)

    def __repr__(self) -> str:
        if not self.nums:
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


_X = _poly([0, 1], 1)


def _poly_at(q: Poly, a: int, b: int) -> _Unreduced:
    """q(a/b) for b > 0 by Horner in integers: sum_i c_i a^i b^(d-i) / q.den b^d."""
    it = reversed(q.nums)
    acc = next(it, 0)
    b_pow = 1
    for c in it:
        b_pow *= b
        acc = acc * a + c * b_pow
    return _Unreduced(acc, q.den * b_pow)


def _int_values(q: Poly, count: int) -> list[int]:
    """The integer numerators q(x) q.den at x = 0..count-1."""
    return [_poly_at(q, x, 1).num for x in range(count)]


def _power(base, e: int, mul):
    """base**e for e >= 1 by repeated squaring under the product ``mul``.
    The result starts from the base, not from the identity, which saves
    one product per call."""
    result = None
    while e:
        if e & 1:
            result = base if result is None else mul(result, base)
        e >>= 1
        if e:
            base = mul(base, base)
    return result


def _convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Coefficients of the product of two integer polynomials."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b, i):
                out[j] += x * y
    return out


def _binomial_convolve(a: Sequence[int], b: Sequence[int]) -> list[int]:
    """Numerators of the product of two integer EGF rows of one order:
    entry n is sum_k C(n,k) a[k] b[n-k]."""
    out = []
    for n in range(len(a)):
        s = 0
        binom = 1
        for k in range(n + 1):
            if a[k] and b[n - k]:
                s += binom * a[k] * b[n - k]
            binom = binom * (n - k) // (k + 1)
        out.append(s)
    return out


class EgfSeries(_IntRow):
    """Truncated series sum c_n t^n / n!, with coefficients (c_0, ..., c_N).

    Stored in the canonical form of :class:`_IntRow`, trailing zeros kept.
    Products use the binomial convolution; two series must share the
    truncation order before they can be combined.
    """

    __slots__ = ()

    def __init__(self, coeffs: Sequence[Scalar]):
        if len(coeffs) == 0:
            raise ValueError("EgfSeries needs at least the constant term")
        self.nums, self.den = _common([_frac(c) for c in coeffs])

    def coeff(self, n: int) -> Fraction:
        _check_indices(n=n)
        return Fraction(self.nums[n], self.den)

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def one(cls, order: int) -> "EgfSeries":
        _check_indices(order=order)
        return _egf([1] + [0] * order, 1)

    @classmethod
    def exp(cls, a: Scalar, order: int) -> "EgfSeries":
        """Coefficients of e^{a t}: c_n = a^n."""
        _check_indices(order=order)
        # For a = p/q in lowest terms, p^n q^(N-n) over q^N is canonical.
        p, q = _ratio(a)
        out, cur = [], 1
        for _ in range(order + 1):
            out.append(cur)
            cur *= p
        if q != 1:
            q_pow = 1
            for n in range(order, -1, -1):
                out[n] *= q_pow
                q_pow *= q
        return EgfSeries._canonical(out, q**order)

    def _check_order(self, other: "EgfSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        a, b, den = _align(self.nums, self.den, other.nums, other.den)
        return _egf([x + y for x, y in zip(a, b)], den)

    def __sub__(self, other: "EgfSeries") -> "EgfSeries":
        return self + other.scale(-1)

    scale = _IntRow._scale

    def __mul__(self, other: "EgfSeries") -> "EgfSeries":
        self._check_order(other)
        return _egf(_binomial_convolve(self.nums, other.nums), self.den * other.den)

    def reciprocal(self) -> "EgfSeries":
        """Series r with self * r = 1 + O(t^{N+1}); needs c_0 != 0."""
        a = self.nums
        if a[0] == 0:
            raise ZeroDivisionError("EGF reciprocal needs nonzero constant term")
        # r_0..r_{n-1} are held as r over one running denominator, kept
        # at the lcm of their reduced denominators; the common den of the
        # input cancels from r_n = -(1/c_0) sum_k C(n,k) c_k r_{n-k}.
        (r0,), den = _reduce([self.den], a[0])
        r = [r0]
        for n in range(1, len(a)):
            s = 0
            binom = 1
            for k in range(1, n + 1):
                binom = binom * (n - k + 1) // k
                if a[k]:
                    s += binom * a[k] * r[n - k]
            (num,), d = _reduce([-s], a[0] * den)
            g = gcd(den, d)
            if g != d:
                grow = d // g
                r = [c * grow for c in r]
                den *= grow
            r.append(num * (den // d))
        return EgfSeries._canonical(r, den)

    def pow(self, e: int) -> "EgfSeries":
        """Integer power; negative exponents go through the reciprocal."""
        _check_ints(e=e)
        if e < 0:
            return self.reciprocal().pow(-e)
        return _power(self, e, EgfSeries.__mul__) if e else EgfSeries.one(self.order)

    def __repr__(self) -> str:
        return f"EgfSeries({list(self.coeffs)!r})"

    def __str__(self) -> str:
        return "[" + ", ".join(map(str, self.coeffs)) + "]"


class _Record:
    """Base of an immutable record whose ``__init__`` checks its arguments
    and stores them with ``object.__setattr__``.  Instances compare, hash
    and print by their ``__slots__``, in order, and refuse to change."""

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if type(other) is type(self):
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = (f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({', '.join(fields)})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")


class GammaHalfValue(NamedTuple):
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
    return falling_factorial(z, v) / factorial(v)


def pochhammer(x: Scalar, v: int) -> Fraction:
    """Rising factorial x(x+1)...(x+v-1) = (-1)^v (-x)(-x-1)...(-x-v+1);
    empty product is 1."""
    return falling_factorial(-x, v) * (-1) ** v


def falling_factorial(x: Scalar, v: int) -> Fraction:
    """Falling factorial x(x-1)...(x-v+1)."""
    _check_indices(v=v)
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
        # a = 1/2 + m: Gamma(a) = (1/2)_m sqrt(pi), and for m < 0
        # Gamma(1/2) = (a)_{-m} Gamma(a)
        m = int(a - Fraction(1, 2))
        if m >= 0:
            return GammaHalfValue(pochhammer(Fraction(1, 2), m), 1)
        return GammaHalfValue(1 / pochhammer(a, -m), 1)
    raise ValueError(f"gamma_half needs an integer or half-integer, got {a}")


def poly_integral01(p: Poly) -> Fraction:
    """Exact integral of p over [0, 1]."""
    _check_type("p", p, Poly)
    return _functional(p, _integral01_row(len(p.nums))).fraction()


def _integral01_row(d: int) -> tuple[list[int], int]:
    """The moments 1/(k+1), k < d, of the integral over [0, 1], as integers
    over L = lcm(1..d)."""
    big_l = lcm(*range(1, d + 1))
    return [big_l // (k + 1) for k in range(d)], big_l


def _functional(q: Poly, row: tuple[list[int], int]) -> _Unreduced:
    """A linear functional of the polynomial q (a ``Poly`` or an
    ``_UnreducedPoly``) from its moment row (mu, den), mu[k]/den being its
    value on x^k for k < len(q.nums): one integer dot product over
    q.den den, unreduced."""
    mu, den = row
    return _Unreduced(sum(map(mul, q.nums, mu)), q.den * den)
