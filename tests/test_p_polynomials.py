"""The coefficient-polynomial family and the power-sum closed forms."""

from __future__ import annotations

import inspect
from fractions import Fraction
from math import comb, factorial, lcm

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from binomsums.classic_numbers import (
    bernoulli_number,
    bernoulli_poly,
    euler_number0,
    euler_poly,
)
from binomsums import p_polynomials
from binomsums.audit import run_audit
from binomsums.exact_core import Poly, Scalar, _check_ints, _frac, _ratio
from binomsums.p_polynomials import (
    euler_operator,
    fermionic,
    mirimanoff_frobenius_sum,
    p_poly,
    power_sum_closed,
    r_poly,
    raw_sum_poly,
    volkenborn,
    vowe,
)
from binomsums.y6_engine import y6

lam_values = [Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "1", "2", "3")]
small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def brute_sum_poly_value(
    m: int, n: int, lam: Fraction, p: int, x: Fraction
) -> Fraction:
    total = Fraction(0)
    for j in range(n + 1):
        total += Fraction(comb(n, j)) ** p * lam**j * (x + j) ** m
    return total


# Lambdas with negative numerators, zero and denominators up to 2^64.
exact_lambdas = st.one_of(
    st.just(Fraction(0)),
    st.integers(min_value=-5, max_value=5),
    st.builds(
        Fraction,
        st.integers(min_value=-(2**64), max_value=2**64),
        st.integers(min_value=1, max_value=2**64),
    ),
)


def reference_raw_sum_poly(m: int, n: int, lam: Fraction, p: int) -> Poly:
    """The former Poly-power kernel, kept verbatim as the oracle of the
    integer-over-common-denominator one."""
    lam = _frac(lam)
    acc = Poly()
    lam_j = Fraction(1)
    for j in range(n + 1):
        acc = acc + Fraction(comb(n, j)) ** p * lam_j * Poly([j, 1]) ** m
        lam_j *= lam
    return acc


def reference_p_poly(m: int, n: int, lam: Scalar, p: int) -> Poly:
    """sum_{k=0}^{m} C(m,k) x^{m-k} y6(k,n;lam,p)."""
    _check_ints(m=m, n=n, p=p)
    lam = _frac(lam)
    ys = [y6(m - i, n, lam, p) for i in range(m + 1)]
    den = lcm(*[y.denominator for y in ys])
    return Poly.from_ints(
        [comb(m, i) * y.numerator * (den // y.denominator) for i, y in enumerate(ys)],
        den,
    )


class TestRawSumPoly:
    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=25),
        exact_lambdas,
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=150)
    def test_matches_poly_power_reference(self, m, n, lam, p):
        poly = raw_sum_poly(m, n, lam, p)
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert poly == reference_raw_sum_poly(m, n, lam, p)

    def test_float_lambda_rejected(self):
        with pytest.raises(TypeError):
            raw_sum_poly(1, 3, 0.1, 1)


@pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 2.0])
class TestIntegerIndices:
    def test_raw_sum_poly(self, bad):
        for args in ((bad, 3, 1, 2), (2, bad, 1, 2), (2, 3, 1, bad)):
            with pytest.raises(TypeError, match="must be an int"):
                raw_sum_poly(*args)

    def test_p_poly(self, bad):
        p_poly(2, 3, 1, 2)  # an equal int key already cached does not let it through
        for args in ((bad, 3, 1, 2), (2, bad, 1, 2), (2, 3, 1, bad)):
            with pytest.raises(TypeError, match="must be an int"):
                p_poly(*args)

    def test_r_poly(self, bad):
        r_poly(4, 2)  # an equal int key already cached does not let it through
        for args in ((bad, 2), (4, bad)):
            with pytest.raises(TypeError, match="must be an int"):
                r_poly(*args)


class TestPPoly:
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=12),
        exact_lambdas,
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=150)
    def test_matches_y6_assembled_reference(self, m, n, lam, p):
        # the former y6-assembled kernel is the oracle of the integer one
        poly = p_poly(m, n, lam, p)
        assert all(type(c) is Fraction for c in poly.coeffs)
        assert poly == reference_p_poly(m, n, lam, p)
        assert poly.coeffs == reference_p_poly(m, n, lam, p).coeffs

    def test_independent_of_y6(self):
        # the audit compares p_poly with y6, so it must not be built from it
        for fn in (p_poly, p_polynomials._p_poly, p_polynomials._raw_sum):
            names = inspect.unwrap(fn).__code__.co_names
            assert "y6" not in names and "_y6" not in names
        # Yp1Yp2_bridge sets the two kernels against each other
        assert "_p_poly" not in p_polynomials._raw_sum.__code__.co_names
        assert "_raw_sum" not in inspect.unwrap(p_polynomials._p_poly).__code__.co_names
        assert not hasattr(p_polynomials, "y6")

    def test_negative_indices_rejected(self):
        for args in ((-1, 3, 1, 2), (2, -1, 1, 2), (2, 3, 1, -1)):
            with pytest.raises(ValueError, match="indices must be >= 0"):
                p_poly(*args)

    def test_cache_is_bounded_above_a_default_audit(self):
        # a default audit builds each of its polynomials once, and every one
        # fits, so the bound evicts nothing
        p_poly.cache_clear()
        run_audit()
        info = p_poly.cache_info()
        assert info.maxsize is not None
        assert info.misses == info.currsize == 2520 < info.maxsize

    def test_int_and_fraction_lambda_share_one_entry(self):
        p_poly.cache_clear()
        assert p_poly(2, 3, 2, 2) == p_poly(2, 3, Fraction(2), 2)
        info = p_poly.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)
        # p_poly reduces a copy; the cached row itself is the one shared
        a, b = _ratio(Fraction(2))
        assert p_polynomials._p_poly(2, 3, a, b, 2) is p_polynomials._p_poly(2, 3, 2, 1, 2)

    def test_float_lambda_adds_no_entry(self):
        p_poly.cache_clear()
        with pytest.raises(TypeError):
            p_poly(2, 3, 2.0, 2)
        info = p_poly.cache_info()
        assert (info.misses, info.currsize) == (0, 0)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(lam_values),
        st.integers(min_value=0, max_value=3),
        small_fractions,
    )
    @settings(max_examples=80)
    def test_normalized_sum_values(self, m, n, lam, p, x):
        expected = brute_sum_poly_value(m, n, lam, p, x) / factorial(n)
        assert p_poly(m, n, lam, p)(x) == expected

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(lam_values),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60)
    def test_raw_vs_normalized(self, m, n, lam, p):
        assert raw_sum_poly(m, n, lam, p) == factorial(n) * p_poly(
            m, n, lam, p
        )

    @given(
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=6),
        st.sampled_from(lam_values),
        st.integers(min_value=0, max_value=3),
    )
    @settings(max_examples=60)
    def test_appell_derivative(self, m, n, lam, p):
        assert p_poly(m, n, lam, p).derivative() == m * p_poly(
            m - 1, n, lam, p
        )

    def test_constant_term_is_the_number(self):
        for m in range(6):
            for n in range(5):
                assert p_poly(m, n, Fraction(2), 2)(0) == y6(
                    m, n, Fraction(2), 2
                )


class TestPadicFunctionals:
    def test_monomial_moments(self):
        for n in range(10):
            assert volkenborn(Poly.monomial(n)) == bernoulli_number(n)
            assert fermionic(Poly.monomial(n)) == euler_number0(n)

    @given(
        st.lists(small_fractions, min_size=0, max_size=5),
        st.lists(small_fractions, min_size=0, max_size=5),
    )
    def test_linearity(self, a, b):
        pa, pb = Poly(a), Poly(b)
        assert volkenborn(pa + pb) == volkenborn(pa) + volkenborn(pb)
        assert fermionic(pa + pb) == fermionic(pa) + fermionic(pb)

    @given(st.lists(small_fractions, min_size=0, max_size=9))
    def test_mahler_form_matches_the_moment_functionals(self, coeffs):
        # the former route: x^i -> B_i and x^i -> E_i(0), term by term
        q = Poly(coeffs)
        moments = list(enumerate(q.coeffs))
        assert volkenborn(q) == sum(c * bernoulli_number(i) for i, c in moments)
        assert fermionic(q) == sum(c * euler_number0(i) for i, c in moments)


class TestPowerSums:
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=12),
        st.sampled_from(lam_values),
    )
    @settings(max_examples=120)
    def test_closed_form_vs_direct(self, m, upper, lam):
        direct = sum(
            (
                lam**j * (Fraction(j) ** m if (j, m) != (0, 0) else Fraction(1))
                for j in range(upper)
            ),
            Fraction(0),
        )
        assert power_sum_closed(m, upper, lam) == direct

    def test_faulhaber_branch(self):
        # lam = 1 goes through Bernoulli polynomials
        assert power_sum_closed(2, 5, Fraction(1)) == 0 + 1 + 4 + 9 + 16

    def test_alternating_branch(self):
        assert power_sum_closed(1, 4, Fraction(-1)) == 0 - 1 + 2 - 3

    def test_apostol_branch(self):
        assert power_sum_closed(1, 3, Fraction(2)) == 0 + 2 + 8


class TestEulerOperatorAndVowe:
    def test_operator_on_monomials(self):
        for k in range(6):
            assert euler_operator(Poly.monomial(k)) == k * Poly.monomial(k)
            assert euler_operator(Poly.monomial(k), 3) == k**3 * Poly.monomial(
                k
            )

    @given(
        st.lists(small_fractions, max_size=8),
        st.integers(min_value=0, max_value=6),
    )
    @example([], 3)
    @example([7], 1)
    @settings(max_examples=100)
    def test_operator_is_the_iterated_x_times_derivative(self, coeffs, iterations):
        # x d/dx as Poly arithmetic, applied `iterations` times; zero
        # iterations give q back, and the zero polynomial stays zero
        q = Poly(coeffs)
        expected = q
        for _ in range(iterations):
            expected = Poly.x() * expected.derivative()
        got = euler_operator(q, iterations)
        assert got == expected and (got.nums, got.den) == (expected.nums, expected.den)
        assert euler_operator(q, 0) == q

    def test_operator_gates_are_unchanged(self):
        with pytest.raises(TypeError, match="q must be a Poly, got list"):
            euler_operator([1, 2])
        with pytest.raises(TypeError, match="iterations must be an int, got float"):
            euler_operator(Poly([1, 2]), 1.0)
        with pytest.raises(ValueError, match="iterations must be >= 0"):
            euler_operator(Poly([1, 2]), -1)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=6),
        st.integers(min_value=0, max_value=3),
        st.sampled_from(lam_values),
    )
    @settings(max_examples=60)
    def test_operator_extracts_the_numbers(self, n, m, p, lam):
        assert euler_operator(r_poly(n, p), m)(lam) == y6(m, n, lam, p)

    def test_vowe_first_terms(self):
        assert vowe(0) == Poly([1])
        assert vowe(1) == Poly([1, 1])
        assert vowe(2) == Poly([1, 4, 1])

    def test_vowe_coefficients_are_squared_binomials(self):
        for n in range(9):
            assert vowe(n) == Poly([comb(n, k) ** 2 for k in range(n + 1)])


class TestGeometricPowerSum:
    us = [Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "2", "3")]

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=1, max_value=8),
        st.sampled_from([Fraction(0), Fraction(1), Fraction(1, 2)]),
        st.sampled_from(us),
    )
    @settings(max_examples=100)
    def test_matches_direct_sum(self, m, n, x0, u):
        direct = sum(
            (
                u**j
                * ((x0 + j) ** m if (x0 + j, m) != (0, 0) else Fraction(1))
                for j in range(n)
            ),
            Fraction(0),
        )
        assert mirimanoff_frobenius_sum(m, n, x0, u) == direct

    def test_singular_ratio_rejected(self):
        with pytest.raises(ValueError):
            mirimanoff_frobenius_sum(2, 3, Fraction(0), Fraction(1))
        with pytest.raises(ValueError):
            mirimanoff_frobenius_sum(2, 3, Fraction(0), Fraction(0))
