"""Core exact-arithmetic layer: polynomials, truncated series, gamma values."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Iterable, Sequence

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomsums.audit.runner import _fmt

from binomsums.exact_core import (
    EgfSeries,
    GammaHalfValue,
    Poly,
    Scalar,
    _Unreduced,
    _UnreducedPoly,
    _frac,
    _int_values,
    binomial_general,
    falling_factorial,
    gamma_half,
    pochhammer,
    poly_integral01,
)
from binomsums.p_polynomials import _p_poly, p_poly

fractions = st.fractions(
    min_value=-10, max_value=10, max_denominator=8
)
coeff_lists = st.lists(fractions, min_size=0, max_size=6)


class TestPoly:
    def test_zero_handling(self):
        assert Poly().degree == -1
        assert Poly([0, 0]).degree == -1
        assert not Poly([0])
        assert Poly([0, 0, 3]).degree == 2

    def test_x_is_one_shared_instance(self):
        assert Poly.x() is Poly.x()
        assert Poly.x() == Poly([0, 1]) and Poly.x().coeffs == (0, 1)

    @pytest.mark.parametrize("c", [0, -7, Fraction(-3, 4)])
    def test_const_is_the_one_coefficient_poly(self, c):
        assert Poly.const(c) == Poly([c])
        assert Poly.const(c).coeffs == Poly([c]).coeffs
        assert type(Poly.const(c)) is Poly

    def test_const_refuses_a_float(self):
        with pytest.raises(TypeError, match="got float"):
            Poly.const(0.5)

    def test_evaluation_is_horner_exact(self):
        p = Poly([Fraction(1, 3), -2, 1])  # 1/3 - 2x + x^2
        assert p(Fraction(1, 2)) == Fraction(1, 3) - 1 + Fraction(1, 4)

    @given(coeff_lists, coeff_lists, fractions)
    def test_product_evaluates_pointwise(self, a, b, x):
        pa, pb = Poly(a), Poly(b)
        assert (pa * pb)(x) == pa(x) * pb(x)

    @given(coeff_lists, st.integers(min_value=0, max_value=5), fractions)
    def test_power_matches_repeated_product(self, a, e, x):
        p = Poly(a)
        ref = Poly([1])
        for _ in range(e):
            ref = ref * p
        assert p**e == ref
        assert (p**e)(x) == p(x) ** e

    @given(coeff_lists, st.integers(min_value=0, max_value=8))
    @example([], 3)  # the zero polynomial
    @example([1, 2], 0)
    @example([Fraction(-1, 2), 0, -3], 3)
    def test_int_values_are_the_value_numerators(self, a, count):
        q = Poly(a)
        values = _int_values(q, count)
        assert len(values) == count and all(type(v) is int for v in values)
        assert values == [q(x) * q.den for x in range(count)]

    def test_negative_power_rejected(self):
        with pytest.raises(ValueError):
            Poly([1, 1]) ** -1

    @given(coeff_lists)
    def test_derivative_drops_degree(self, a):
        p = Poly(a)
        d = p.derivative()
        if p.degree <= 0:
            assert d == Poly()
        else:
            assert d.degree == p.degree - 1

    def test_derivative_values(self):
        p = Poly([5, 0, 3, 1])  # 5 + 3x^2 + x^3
        assert p.derivative() == Poly([0, 6, 3])

    def test_integral_unit_interval(self):
        # monomial x^k integrates to 1/(k+1)
        for k in range(6):
            assert poly_integral01(Poly.monomial(k)) == Fraction(1, k + 1)
        assert poly_integral01(Poly()) == 0

    @given(coeff_lists, coeff_lists)
    def test_ring_axioms_spot(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert pa + pb == pb + pa
        assert pa * pb == pb * pa
        assert pa - pa == Poly()


class TestEgfSeries:
    def test_exp_coefficients(self):
        s = EgfSeries.exp(3, 4)
        assert s.coeffs == (1, 3, 9, 27, 81)

    @given(
        st.lists(fractions, min_size=1, max_size=5),
        st.lists(fractions, min_size=1, max_size=5),
    )
    def test_product_is_binomial_convolution(self, a, b):
        n = min(len(a), len(b)) - 1
        sa, sb = EgfSeries(a[: n + 1]), EgfSeries(b[: n + 1])
        prod = sa * sb
        from math import comb

        for k in range(n + 1):
            expected = sum(
                comb(k, i) * sa.coeffs[i] * sb.coeffs[k - i]
                for i in range(k + 1)
            )
            assert prod.coeffs[k] == expected

    def test_exponential_addition_law(self):
        a, b = Fraction(2, 3), Fraction(-1, 2)
        n = 6
        assert EgfSeries.exp(a, n) * EgfSeries.exp(b, n) == EgfSeries.exp(
            a + b, n
        )

    def test_order_mismatch_rejected(self):
        with pytest.raises(ValueError):
            EgfSeries([1, 2]) * EgfSeries([1, 2, 3])

    @given(st.lists(fractions, min_size=1, max_size=6))
    def test_reciprocal_inverts(self, a):
        if a[0] == 0:
            with pytest.raises(ZeroDivisionError):
                EgfSeries(a).reciprocal()
            return
        s = EgfSeries(a)
        assert s * s.reciprocal() == EgfSeries.one(s.order)

    def test_negative_pow_uses_reciprocal(self):
        s = EgfSeries.exp(2, 5)
        assert s.pow(-3) == EgfSeries.exp(-6, 5)

    def test_prints_its_coefficients(self):
        s = EgfSeries([1, Fraction(1, 2)])
        assert str(s) == "[1, 1/2]"
        assert repr(s) == "EgfSeries([Fraction(1, 1), Fraction(1, 2)])"


small_ints = st.one_of(st.just(0), st.integers(min_value=-10**6, max_value=10**6))
nonzero_ints = st.integers(min_value=-10**6, max_value=10**6).filter(bool)


class TestUnreduced:
    @given(small_ints, nonzero_ints, small_ints, nonzero_ints)
    @example(0, 3, 0, -5)
    @example(2, -4, -1, 2)
    def test_equality_agrees_with_fraction(self, a, b, c, d):
        x, value = _Unreduced(a, b), Fraction(a, b)
        cases = [(_Unreduced(c, d), Fraction(c, d)), (Fraction(c, d),) * 2, (c, c)]
        for other, reference in cases:
            expected = value == reference
            assert (x == other) is expected and (other == x) is expected
            assert (x != other) is not expected and (other != x) is not expected

    @given(small_ints, nonzero_ints, nonzero_ints)
    def test_scaled_parts_are_equal(self, a, b, k):
        x = _Unreduced(a * k, b * k)
        assert x == _Unreduced(a, b) and x == Fraction(a, b)
        assert x.fraction() == Fraction(a, b) and type(x.fraction()) is Fraction
        if b == 1 or a == 0:
            assert x == a

    @given(small_ints, nonzero_ints)
    def test_never_equals_a_float(self, a, b):
        x = _Unreduced(a, b)
        assert (x == a / b) is False and (a / b == x) is False
        assert x != a / b
        assert (_Unreduced(1, 2) == 0.5) is False

    @given(small_ints, nonzero_ints)
    def test_formats_as_the_reduced_fraction(self, a, b):
        x = _Unreduced(a, b)
        assert _fmt(x) == str(Fraction(a, b))
        assert _fmt([x, (x,)]) == _fmt([Fraction(a, b), (Fraction(a, b),)])

    @given(small_ints, nonzero_ints)
    def test_prints_as_the_reduced_fraction(self, a, b):
        assert str(_Unreduced(a, b)) == str(Fraction(a, b))
        assert str(_Unreduced(6, 4)) == "3/2"


row_nums = st.lists(st.integers(min_value=-6, max_value=6), max_size=5)
row_dens = st.integers(min_value=-6, max_value=6).filter(bool)


def _reference(nums, den) -> Poly:
    return Poly([Fraction(c, den) for c in nums])


class TestUnreducedPoly:
    @given(row_nums, row_dens, row_nums, row_dens)
    @example([1, 2, 0], 3, [1, 2], 3)
    @example([2, 4, 0], -4, [-1, -2], 2)
    @example([0, 0], 5, [], -1)
    @example([1, 2], 3, [1, 3], 3)
    def test_equality_agrees_with_poly(self, a, da, b, db):
        # a tuple side against a list side, of any lengths and den signs
        x, y = _UnreducedPoly(tuple(a), da), _UnreducedPoly(b, db)
        expected = _reference(a, da) == _reference(b, db)
        for other in (y, y.poly()):
            assert (x == other) is expected and (other == x) is expected
            assert (x != other) is not expected and (other != x) is not expected

    @given(row_nums, row_dens, row_dens, st.integers(min_value=0, max_value=2))
    def test_scaled_and_padded_rows_are_equal(self, a, d, k, pad):
        x = _UnreducedPoly(tuple(a), d)
        y = _UnreducedPoly([k * c for c in a] + [0] * pad, k * d)
        assert x == y and y == x and not x != y
        assert x == x.poly() and x.poly() == x
        ref = _reference(a, d)
        assert type(x.poly()) is Poly
        assert (x.poly().nums, x.poly().den) == (ref.nums, ref.den)

    def test_a_zero_leading_row_entry_leaves_a_trailing_zero(self):
        # lam = -1 with odd p and odd n: the x^m coefficient n! y6(0,n;-1,p)
        # = sum_k C(n,k)^p (-1)^k is 0, and the cached row keeps it
        for m, n, p in [(0, 1, 1), (2, 3, 1), (3, 5, 3), (4, 3, 3)]:
            row, poly = _p_poly(m, n, -1, 1, p), p_poly(m, n, -1, p)
            assert len(row.nums) == m + 1 and row.nums[-1] == 0
            assert poly.degree < m
            assert row == poly and poly == row and row.poly() == poly
            trimmed = _UnreducedPoly(list(row.nums[:-1]), row.den)
            assert row == trimmed and trimmed == row
            bumped = _UnreducedPoly((*row.nums[:-1], 1), row.den)
            assert row != bumped and bumped != poly

    @given(row_nums, row_dens)
    def test_never_equals_a_scalar_or_a_list(self, a, d):
        x = _UnreducedPoly(tuple(a), d)
        c = Fraction(a[0] if a else 0, d)
        for other in (c, c.numerator, float(c), list(a), tuple(a), _Unreduced(0, 1)):
            assert (x == other) is False and (other == x) is False
            assert x != other and other != x

    @given(row_nums, row_dens)
    def test_formats_as_the_reduced_poly(self, a, d):
        x, ref = _UnreducedPoly(tuple(a), d), _reference(a, d)
        assert _fmt(x) == repr(x.poly()) == repr(ref)
        assert _fmt([x, (x,)]) == _fmt([ref, (ref,)])

    def test_prints_as_the_reduced_poly(self):
        # trailing zeros and a den with a common factor print as Poly does
        x = _UnreducedPoly((2, 4, 0, 0), 4)
        assert str(x) == repr(Poly([Fraction(1, 2), 1])) == repr(x.poly())
        assert str(_UnreducedPoly((0, 0, 0), 7)) == repr(Poly()) == "Poly(0)"
        assert str(_UnreducedPoly((), 3)) == "Poly(0)"


series_nums = st.lists(st.integers(min_value=-6, max_value=6), min_size=1, max_size=5)


def _row(nums, den) -> list:
    return [_Unreduced(c, den) for c in nums]


def _series(nums, den) -> EgfSeries:
    return EgfSeries([Fraction(c, den) for c in nums])


class TestUnreducedRow:
    """y6G's sides: a list of ``_Unreduced`` over one den stands for the EGF
    row it reduces to, compared and printed as that series."""

    @given(series_nums, row_dens, series_nums, row_dens)
    @example([2, 4, 0], 4, [1, 2, 0], 2)
    @example([2, 4, 0], -4, [-1, -2, 0], 2)
    @example([1, 2], 3, [1, 2, 0], 3)
    @example([1, 2], 3, [1, 3], 3)
    def test_equality_agrees_with_the_series(self, a, da, b, db):
        # rows of one order compare as their series; other orders never equal
        x, y = _row(a, da), _row(b, db)
        expected = len(a) == len(b) and _series(a, da) == _series(b, db)
        assert (x == y) is expected and (y == x) is expected
        assert (x != y) is not expected and (y != x) is not expected

    @given(series_nums, row_dens)
    def test_never_equals_another_kind(self, a, d):
        x, series = _row(a, d), _series(a, d)
        for other in (series, _UnreducedPoly(a, d), Poly(series.coeffs)):
            assert (x == other) is False and (other == x) is False
            assert x != other and other != x

    @given(series_nums, row_dens)
    def test_prints_as_the_reduced_series(self, a, d):
        x, series = _row(a, d), _series(a, d)
        assert _fmt(x) == str(series) == _fmt(list(series.coeffs))
        assert _fmt([x, (x,)]) == _fmt([series, (series,)])


class TestGammaHalf:
    def test_half_integer_ladder(self):
        g = gamma_half(Fraction(1, 2))
        assert (g.rational_part, g.sqrt_pi_exponent, g.is_pole) == (1, 1, False)
        assert gamma_half(Fraction(5, 2)).rational_part == Fraction(3, 4)
        assert gamma_half(Fraction(-1, 2)).rational_part == -2
        assert gamma_half(Fraction(-3, 2)).rational_part == Fraction(4, 3)

    def test_integers(self):
        assert gamma_half(5).rational_part == 24
        assert gamma_half(1).rational_part == 1
        assert gamma_half(0).is_pole
        assert gamma_half(-3).is_pole
        assert gamma_half(0) == GammaHalfValue.pole()

    def test_recurrence(self):
        for num in range(-7, 8, 2):
            a = Fraction(num, 2)
            g, g1 = gamma_half(a), gamma_half(a + 1)
            assert g1.rational_part == a * g.rational_part
            assert g1.sqrt_pi_exponent == g.sqrt_pi_exponent

    def test_unsupported_argument(self):
        with pytest.raises(ValueError):
            gamma_half(Fraction(1, 3))


class TestFactorialSymbols:
    @given(fractions, st.integers(min_value=0, max_value=8))
    def test_falling_vs_rising(self, x, v):
        assert falling_factorial(x, v) == (-1) ** v * pochhammer(-x, v)

    @given(fractions, st.integers(min_value=0, max_value=8))
    def test_pochhammer_recurrence(self, x, v):
        assert pochhammer(x, v + 1) == pochhammer(x, v) * (x + v)

    def test_binomial_general(self):
        from math import comb

        for n in range(8):
            for k in range(8):
                assert binomial_general(n, k) == (comb(n, k) if k <= n else 0)
        # the negative-upper-index convention used by the closed sequences
        assert binomial_general(-1, 3) == -1
        assert binomial_general(Fraction(1, 2), 2) == Fraction(-1, 8)


# ---------------------------------------------------------------------------
# Differential tests: the integer-numerator classes against the former
# Fraction-coefficient ones, copied here verbatim apart from their names.

class RefPoly:
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
    def const(cls, c: Scalar) -> "RefPoly":
        return cls([c])

    @classmethod
    def monomial(cls, k: int, c: Scalar = 1) -> "RefPoly":
        return cls([0] * k + [c])

    @classmethod
    def x(cls) -> "RefPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self == RefPoly([other])
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RefPoly | Scalar") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            other = RefPoly([other])
        n = max(len(self.coeffs), len(other.coeffs))
        return RefPoly(
            [self.coeff(i) + other.coeff(i) for i in range(n)]
        )

    __radd__ = __add__

    def __neg__(self) -> "RefPoly":
        return RefPoly([-c for c in self.coeffs])

    def __sub__(self, other: "RefPoly | Scalar") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            other = RefPoly([other])
        return self + (-other)

    def __rsub__(self, other: Scalar) -> "RefPoly":
        return RefPoly([other]) + (-self)

    def __mul__(self, other: "RefPoly | Scalar") -> "RefPoly":
        if isinstance(other, (int, Fraction)):
            return RefPoly([c * other for c in self.coeffs])
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1 or 1)
        for i, a in enumerate(self.coeffs):
            if a == 0:
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] += a * b
        return RefPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, c: Scalar) -> "RefPoly":
        c = _frac(c)
        return RefPoly([a / c for a in self.coeffs])

    def __pow__(self, e: int) -> "RefPoly":
        if e < 0:
            raise ValueError("negative polynomial power")
        result = RefPoly([1])
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

    def derivative(self) -> "RefPoly":
        return RefPoly([i * c for i, c in enumerate(self.coeffs)][1:])

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


class RefEgfSeries:
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
    def one(cls, order: int) -> "RefEgfSeries":
        return cls([1] + [0] * order)

    @classmethod
    def exp(cls, a: Scalar, order: int) -> "RefEgfSeries":
        """Coefficients of e^{a t}: c_n = a^n."""
        a = _frac(a)
        out, cur = [], Fraction(1)
        for _ in range(order + 1):
            out.append(cur)
            cur *= a
        return cls(out)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, RefEgfSeries):
            return self.coeffs == other.coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def _check_order(self, other: "RefEgfSeries") -> None:
        if self.order != other.order:
            raise ValueError(
                f"truncation order mismatch: {self.order} != {other.order}"
            )

    def __add__(self, other: "RefEgfSeries") -> "RefEgfSeries":
        self._check_order(other)
        return RefEgfSeries([a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other: "RefEgfSeries") -> "RefEgfSeries":
        self._check_order(other)
        return RefEgfSeries([a - b for a, b in zip(self.coeffs, other.coeffs)])

    def scale(self, c: Scalar) -> "RefEgfSeries":
        c = _frac(c)
        return RefEgfSeries([c * a for a in self.coeffs])

    def __mul__(self, other: "RefEgfSeries") -> "RefEgfSeries":
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
        return RefEgfSeries(out)

    def reciprocal(self) -> "RefEgfSeries":
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
        return RefEgfSeries(r)

    def pow(self, e: int) -> "RefEgfSeries":
        """Integer power; negative exponents go through the reciprocal."""
        if e < 0:
            return self.reciprocal().pow(-e)
        result = RefEgfSeries.one(self.order)
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


def ref_poly_integral01(p: RefPoly) -> Fraction:
    """The former poly_integral01, on Fraction coefficients."""
    return sum((c / (i + 1) for i, c in enumerate(p.coeffs)), Fraction(0))


# Zero, small rationals and numerators/denominators far beyond a machine word.
wide = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5),
    fractions,
    st.builds(
        Fraction,
        st.integers(min_value=-(2**70), max_value=2**70),
        st.integers(min_value=1, max_value=2**40),
    ),
)
wide_lists = st.lists(wide, min_size=0, max_size=7)
nonzero = wide.filter(lambda c: c != 0)


def assert_same(new, ref) -> None:
    """Equal Fraction coefficients, equal repr, canonical integer form."""
    assert type(new.coeffs) is tuple
    assert all(type(c) is Fraction for c in new.coeffs)
    assert new.coeffs == ref.coeffs
    assert repr(new) == repr(ref)
    assert new.den == lcm(*[c.denominator for c in ref.coeffs])
    assert len(new.nums) == len(ref.coeffs)


class TestPolyAgainstReference:
    @given(wide_lists)
    def test_construction(self, a):
        new, ref = Poly(a), RefPoly(a)
        assert_same(new, ref)
        assert new.degree == ref.degree
        assert bool(new) == bool(ref)
        for i in range(-1, len(a) + 2):
            assert new.coeff(i) == ref.coeff(i)
            assert type(new.coeff(i)) is Fraction

    @given(wide_lists, wide_lists)
    def test_add_sub_neg(self, a, b):
        assert_same(Poly(a) + Poly(b), RefPoly(a) + RefPoly(b))
        assert_same(Poly(a) - Poly(b), RefPoly(a) - RefPoly(b))
        assert_same(-Poly(a), -RefPoly(a))

    @given(wide_lists, wide)
    def test_scalar_ops(self, a, c):
        new, ref = Poly(a), RefPoly(a)
        assert_same(new + c, ref + c)
        assert_same(c + new, c + ref)
        assert_same(new - c, ref - c)
        assert_same(c - new, c - ref)
        assert_same(new * c, ref * c)
        assert_same(c * new, c * ref)

    @given(wide_lists, nonzero)
    def test_division(self, a, c):
        assert_same(Poly(a) / c, RefPoly(a) / c)

    @given(wide_lists, wide_lists)
    def test_product(self, a, b):
        assert_same(Poly(a) * Poly(b), RefPoly(a) * RefPoly(b))

    @given(st.lists(wide, max_size=4), st.integers(min_value=0, max_value=5))
    def test_power(self, a, e):
        assert_same(Poly(a) ** e, RefPoly(a) ** e)

    @given(wide_lists, wide)
    def test_call(self, a, x):
        value = Poly(a)(x)
        assert type(value) is Fraction
        assert value == RefPoly(a)(x)

    @given(wide_lists)
    def test_derivative_and_integral(self, a):
        assert_same(Poly(a).derivative(), RefPoly(a).derivative())
        value = poly_integral01(Poly(a))
        assert type(value) is Fraction
        assert value == ref_poly_integral01(RefPoly(a))

    @given(wide_lists, wide_lists)
    def test_equality_and_hash(self, a, b):
        assert (Poly(a) == Poly(b)) == (RefPoly(a) == RefPoly(b))
        if Poly(a) == Poly(b):
            assert hash(Poly(a)) == hash(Poly(b))
        for c in (0, b[0] if b else 1):
            assert (Poly(a) == c) == (RefPoly(a) == c)

    def test_canonical_form(self):
        half = Poly([Fraction(1, 2), 1])
        assert half == Poly([Fraction(2, 4), 1])
        assert hash(half) == hash(Poly([Fraction(2, 4), 1]))
        unreduced = Poly.from_ints([6, 12, 0], 12)
        assert unreduced == half and hash(unreduced) == hash(half)
        assert (unreduced.nums, unreduced.den) == ((1, 2), 2)
        negative = Poly.from_ints([-1, -2], -2)
        assert negative == half and negative.den == 2
        zeros = [
            Poly(),
            Poly([0, Fraction(0)]),
            Poly.from_ints([0, 0], 7),
            half - half,
            half * 0,
            half * Poly(),
            Poly([5]).derivative(),
        ]
        for zero in zeros:
            assert (zero.nums, zero.den) == ((), 1)
            assert zero == Poly() and hash(zero) == hash(Poly())
            assert repr(zero) == "Poly(0)" and zero.degree == -1

    def test_zero_divisor(self):
        with pytest.raises(ZeroDivisionError):
            Poly([1, 2]) / 0
        assert_same(Poly() / 0, RefPoly() / 0)
        with pytest.raises(ZeroDivisionError):
            Poly.from_ints([1], 0)


series_lists = st.integers(min_value=0, max_value=6).flatmap(
    lambda n: st.tuples(
        st.lists(wide, min_size=n + 1, max_size=n + 1),
        st.lists(wide, min_size=n + 1, max_size=n + 1),
    )
)


class TestEgfSeriesAgainstReference:
    @given(wide, st.integers(min_value=0, max_value=8))
    def test_exp(self, a, order):
        assert_same(EgfSeries.exp(a, order), RefEgfSeries.exp(a, order))
        assert_same(EgfSeries.one(order), RefEgfSeries.one(order))

    @given(series_lists, wide)
    def test_linear_ops(self, ab, c):
        a, b = ab
        new, ref = EgfSeries(a), RefEgfSeries(a)
        assert_same(new, ref)
        assert_same(new.scale(c), ref.scale(c))
        assert_same(new + EgfSeries(b), ref + RefEgfSeries(b))
        assert_same(new - EgfSeries(b), ref - RefEgfSeries(b))
        assert (new == EgfSeries(b)) == (ref == RefEgfSeries(b))

    @given(series_lists)
    def test_product(self, ab):
        a, b = ab
        assert_same(EgfSeries(a) * EgfSeries(b), RefEgfSeries(a) * RefEgfSeries(b))

    @given(series_lists.map(lambda ab: ab[0]), st.integers(min_value=-3, max_value=4))
    def test_reciprocal_and_pow(self, a, e):
        new, ref = EgfSeries(a), RefEgfSeries(a)
        if a[0] == 0:
            with pytest.raises(ZeroDivisionError):
                new.reciprocal()
            if e >= 0:
                assert_same(new.pow(e), ref.pow(e))
            return
        assert_same(new.reciprocal(), ref.reciprocal())
        assert_same(new.pow(e), ref.pow(e))

    def test_reciprocal_order_120_on_bernoulli_base(self):
        # (e^t - 1)/t; its reciprocal holds the Bernoulli numbers.  Carrying
        # the unreduced denominator c_0^(N+1) would give a ~20,000-bit den.
        base = [Fraction(1, n + 1) for n in range(121)]
        new = EgfSeries(base).reciprocal()
        ref = RefEgfSeries(base).reciprocal()
        assert_same(new, ref)
        assert new.coeffs[1] == Fraction(-1, 2)
        assert new.den.bit_length() < 200

    def test_a_series_never_equals_a_polynomial(self):
        # both store the same integer row, but equality needs the same type
        s, p = EgfSeries([1, Fraction(1, 2)]), Poly([1, Fraction(1, 2)])
        assert (s.nums, s.den) == (p.nums, p.den)
        assert s != p and p != s

    def test_from_ints_is_canonical(self):
        s = EgfSeries.from_ints([2, -4, 0], 6)
        assert s == EgfSeries([Fraction(1, 3), Fraction(-2, 3), 0])
        assert (s.nums, s.den) == ((1, -2, 0), 3)
        assert EgfSeries.from_ints([0, 0], 5) == EgfSeries([0, 0])


@pytest.mark.parametrize("cls", [Poly, EgfSeries], ids=["Poly", "EgfSeries"])
@pytest.mark.parametrize(
    "nums, den, bad",
    [
        # a Fraction numerator was stored over den 1: unequal to, and
        # hashed unlike, Poly([1/2])
        ([Fraction(1, 2)], 1, "Fraction"),
        # failed inside fractions with "both arguments should be Rational"
        ([0.5], 1, "float"),
        ([1], True, "bool"),
        ([1, True], 1, "bool"),
        ([1], 2.0, "float"),
        ([1], Fraction(2), "Fraction"),
    ],
)
def test_from_ints_refuses_non_int_parts(cls, nums, den, bad):
    with pytest.raises(TypeError, match=f"from_ints needs int parts, got {bad}"):
        cls.from_ints(nums, den)


def test_package_all_is_the_union_of_the_module_lists():
    import binomsums
    from binomsums import classic_numbers, exact_core, hypergeom, p_polynomials
    from binomsums import y6_engine

    modules = [exact_core, classic_numbers, y6_engine, p_polynomials, hypergeom]
    names = [name for mod in modules for name in mod.__all__]
    assert len(names) == len(set(names)) == 50
    # Rational, a second name for Fraction, is no longer exported
    assert not hasattr(binomsums, "Rational")
    assert sorted(binomsums.__all__) == sorted(names)
    for mod in modules:
        for name in mod.__all__:
            assert getattr(binomsums, name) is getattr(mod, name)
    # exported by the package but once missing from their module's list, so
    # a tracer that wraps each module's __all__ never saw them
    assert "euler_number0" in classic_numbers.__all__
    assert "ogf_reference" in hypergeom.__all__
