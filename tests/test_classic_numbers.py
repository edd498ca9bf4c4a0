"""Classical number and polynomial families against independent oracles."""

from __future__ import annotations

import tracemalloc
from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomsums import classic_numbers
from binomsums.classic_numbers import (
    FamilyTag,
    apostol_bernoulli,
    apostol_euler,
    bernoulli_number,
    bernoulli_poly,
    bernoulli_poly_order,
    classic_sequence,
    euler_number0,
    euler_poly,
    euler_poly_order,
    frobenius_euler,
    legendre,
    mirimanoff,
    stirling1,
    stirling2,
    y_seq,
)
from binomsums.exact_core import EgfSeries, Poly
from binomsums.y6_engine import y1

small_fractions = st.fractions(min_value=-4, max_value=4, max_denominator=6)


def partitions_into_blocks(n: int, k: int) -> int:
    """Count set partitions of {0..n-1} into k nonempty blocks by direct
    recursion: element n-1 is a singleton or joins one of the blocks."""
    if n == 0:
        return 1 if k == 0 else 0
    if k == 0:
        return 0
    return partitions_into_blocks(n - 1, k - 1) + k * partitions_into_blocks(
        n - 1, k
    )


def falling_product(n: int) -> Poly:
    """x(x-1)...(x-n+1) expanded; its coefficients define s(n,k)."""
    acc = Poly([1])
    for i in range(n):
        acc = acc * Poly([-i, 1])
    return acc


def expm1_pow(v: int, order: int) -> EgfSeries:
    """(e^t - 1)^v truncated at the given order."""
    base = EgfSeries([0] + [1] * order)
    return base.pow(v)


def log1p_pow(k: int, order: int) -> EgfSeries:
    """(log(1+t))^k truncated at the given order."""
    # log(1+t) = sum (-1)^{n-1} (n-1)! t^n/n!
    coeffs = [Fraction(0)] + [
        Fraction((-1) ** (n - 1) * factorial(n - 1)) for n in range(1, order + 1)
    ]
    return EgfSeries(coeffs).pow(k)


class TestStirling:
    def test_generating_functions(self):
        # s(n,k) and S(n,k) are n! [t^n] of (log(1+t))^k/k! and (e^t-1)^k/k!
        order = 20
        for k in range(order + 1):
            first = log1p_pow(k, order).coeffs
            second = expm1_pow(k, order).coeffs
            for n in range(order + 1):
                assert stirling1(n, k) == first[n] / factorial(k)
                assert stirling2(n, k) == second[n] / factorial(k)

    @pytest.mark.parametrize(
        "call",
        [
            lambda: stirling1(400, 1),
            lambda: stirling2(400, 1),
            lambda: bernoulli_number(400),
            lambda: euler_number0(400),
        ],
        ids=["stirling1", "stirling2", "bernoulli_number", "euler_number0"],
    )
    def test_one_term_keeps_no_row(self, call, monkeypatch):
        # fresh triangles, so that rows another test built hide nothing: row
        # 400 is built from row 0 with two rows live (about 0.2 MB), where
        # rows 0..400 kept in a table take 12-15 MB
        for name, next_row in (
            ("_STIRLING1", classic_numbers._stirling1_next),
            ("_STIRLING2", classic_numbers._stirling2_next),
        ):
            monkeypatch.setattr(classic_numbers, name, classic_numbers._Triangle(next_row))
        tracemalloc.start()
        try:
            call()
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        assert kept < 2**14

    def test_second_kind_vs_enumeration(self):
        for n in range(8):
            for k in range(n + 2):
                assert stirling2(n, k) == partitions_into_blocks(n, k)

    def test_first_kind_vs_falling_factorial(self):
        for n in range(8):
            coeffs = falling_product(n).coeffs
            for k in range(n + 2):
                expected = coeffs[k] if k < len(coeffs) else 0
                assert stirling1(n, k) == expected

    @given(
        st.integers(min_value=1, max_value=10),
        st.integers(min_value=1, max_value=10),
    )
    def test_second_kind_recurrence(self, n, k):
        # the table is built by this recurrence, so this is a consistency
        # check only; test_generating_functions is the independent oracle
        assert stirling2(n, k) == k * stirling2(n - 1, k) + stirling2(
            n - 1, k - 1
        )

    @given(
        st.integers(min_value=0, max_value=9),
        st.integers(min_value=0, max_value=9),
    )
    def test_inversion(self, n, m):
        # the two kinds are inverse triangular matrices
        total = sum(
            stirling1(n, k) * stirling2(k, m) for k in range(n + 1)
        )
        assert total == (1 if n == m else 0)


class TestBernoulliEuler:
    def test_bernoulli_numbers_by_recurrence(self):
        # sum_{k<n} C(n,k) B_k = 0 for n >= 2, B_0 = 1
        assert bernoulli_number(0) == 1
        for n in range(2, 12):
            assert sum(
                comb(n, k) * bernoulli_number(k) for k in range(n)
            ) == 0
        assert bernoulli_number(1) == Fraction(-1, 2)
        assert bernoulli_number(2) == Fraction(1, 6)
        assert bernoulli_number(3) == 0

    @given(st.integers(min_value=1, max_value=10), small_fractions)
    def test_bernoulli_difference_equation(self, n, x):
        assert bernoulli_poly(n)(x + 1) - bernoulli_poly(n)(x) == n * x ** (
            n - 1
        )

    @given(st.integers(min_value=0, max_value=10), small_fractions)
    def test_euler_reflection_equation(self, n, x):
        assert euler_poly(n)(x + 1) + euler_poly(n)(x) == 2 * x**n

    @given(st.integers(min_value=1, max_value=10))
    def test_derivatives(self, n):
        assert bernoulli_poly(n).derivative() == n * bernoulli_poly(n - 1)
        assert euler_poly(n).derivative() == n * euler_poly(n - 1)

    def test_order_one_reduces_to_classical(self):
        for n in range(8):
            assert bernoulli_poly_order(n, 1) == bernoulli_poly(n)
            assert euler_poly_order(n, 1) == euler_poly(n)

    def test_order_zero_is_monomial(self):
        for n in range(6):
            assert bernoulli_poly_order(n, 0) == Poly.monomial(n)
            assert euler_poly_order(n, 0) == Poly.monomial(n)

    @given(
        st.integers(min_value=0, max_value=7),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=3),
        small_fractions,
        small_fractions,
    )
    @settings(max_examples=40)
    def test_order_addition_law(self, n, k1, k2, x, y):
        # the order parameter is additive under binomial convolution
        lhs = bernoulli_poly_order(n, k1 + k2)(x + y)
        rhs = sum(
            comb(n, j)
            * bernoulli_poly_order(j, k1)(x)
            * bernoulli_poly_order(n - j, k2)(y)
            for j in range(n + 1)
        )
        assert lhs == rhs

    def test_euler_number0(self):
        for n in range(10):
            assert euler_number0(n) == euler_poly(n)(0)


class TestDeformedFamilies:
    lams = [Fraction(0), Fraction(-2), Fraction(-1, 2), Fraction(2), Fraction(3)]

    @given(
        st.integers(min_value=1, max_value=8),
        st.sampled_from(lams),
        small_fractions,
    )
    def test_apostol_bernoulli_difference(self, n, lam, x):
        poly = apostol_bernoulli(n, lam)
        assert lam * poly(x + 1) - poly(x) == n * x ** (n - 1)

    @given(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(lams),
        small_fractions,
    )
    def test_apostol_euler_reflection(self, n, lam, x):
        poly = apostol_euler(n, lam)
        assert lam * poly(x + 1) + poly(x) == 2 * x**n

    @given(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(lams),
        small_fractions,
    )
    def test_frobenius_euler_difference(self, n, u, x):
        poly = frobenius_euler(n, u)
        assert poly(x + 1) - u * poly(x) == (1 - u) * x**n

    def test_singular_parameters_rejected(self):
        for one in (1, Fraction(1), Fraction(4, 4)):
            with pytest.raises(ValueError):
                apostol_bernoulli(3, one)
            with pytest.raises(ValueError):
                frobenius_euler(3, one)
        for minus_one in (-1, Fraction(-1), Fraction(-4, 4)):
            with pytest.raises(ValueError):
                apostol_euler(3, minus_one)
        # a float is refused before the singular test sees it
        for family, singular in (
            (apostol_bernoulli, 1.0),
            (frobenius_euler, 1.0),
            (apostol_euler, -1.0),
        ):
            with pytest.raises(TypeError):
                family(3, singular)

    @pytest.mark.parametrize(
        "family, args",
        [
            pytest.param(family, args, id=family.__name__)
            for family, args in (
                (bernoulli_number, ()),
                (euler_number0, ()),
                (bernoulli_poly_order, (-2,)),
                (euler_poly_order, (2,)),
                (apostol_bernoulli, (2,)),
                (apostol_euler, (2,)),
                (frobenius_euler, (2,)),
            )
        ],
    )
    def test_negative_degree_rejected(self, family, args):
        with pytest.raises(ValueError, match="n must be >= 0"):
            family(-1, *args)

    def test_apostol_reduces_to_classical_limits(self):
        # Frobenius-Euler at u = -1 is the classical Euler polynomial
        for n in range(8):
            assert frobenius_euler(n, -1) == euler_poly(n)


# An oracle independent of the Stirling transforms: expand each defining
# generating function as a truncated EGF and read the Appell polynomial off
# its coefficients, which do not depend on the truncation order.

ORACLE_N = 30


def appell(series: EgfSeries, n: int) -> Poly:
    """sum_i C(n,i) a_{n-i} x^i from the series coefficients a_j."""
    a = series.coeffs
    return Poly([comb(n, i) * a[n - i] for i in range(n + 1)])


def bernoulli_series(k: int) -> EgfSeries:
    """(t/(e^t-1))^k as the power -k of (e^t-1)/t."""
    return EgfSeries([Fraction(1, n + 1) for n in range(ORACLE_N + 1)]).pow(-k)


def euler_series(k: int) -> EgfSeries:
    """(2/(e^t+1))^k as the power -k of (e^t+1)/2."""
    return EgfSeries([1] + [Fraction(1, 2)] * ORACLE_N).pow(-k)


def apostol_bernoulli_series(lam: Fraction) -> EgfSeries:
    """t/(lam e^t - 1): the reciprocal of the denominator, times t."""
    r = EgfSeries([lam - 1] + [lam] * ORACLE_N).reciprocal().coeffs
    return EgfSeries([0] + [n * r[n - 1] for n in range(1, ORACLE_N + 1)])


def apostol_euler_series(lam: Fraction) -> EgfSeries:
    """2/(lam e^t + 1)."""
    return EgfSeries([lam + 1] + [lam] * ORACLE_N).reciprocal().scale(2)


def frobenius_euler_series(u: Fraction) -> EgfSeries:
    """(1-u)/(e^t - u)."""
    return EgfSeries([1 - u] + [1] * ORACLE_N).reciprocal().scale(1 - u)


ORACLE_PARAMS = [Fraction(s) for s in ("0", "-2", "-1", "-1/2", "1/2", "1", "2", "3")]
DEFORMED = [
    # family, its series, the parameter its generating function excludes
    (apostol_bernoulli, apostol_bernoulli_series, 1),
    (apostol_euler, apostol_euler_series, -1),
    (frobenius_euler, frobenius_euler_series, 1),
]


class TestEgfOracle:
    """Every family equals the Appell polynomials of its generating
    function, expanded by EgfSeries reciprocals and powers, for n <= 30."""

    @pytest.mark.parametrize("k", range(-4, 5))
    def test_order_families(self, k):
        for family, series in (
            (bernoulli_poly_order, bernoulli_series(k)),
            (euler_poly_order, euler_series(k)),
        ):
            for n in range(ORACLE_N + 1):
                assert family(n, k) == appell(series, n), (family.__name__, n)

    @pytest.mark.parametrize(
        "family, series, lam",
        [
            pytest.param(family, series, lam, id=f"{family.__name__}[{lam}]")
            for family, series, excluded in DEFORMED
            for lam in ORACLE_PARAMS
            if lam != excluded
        ],
    )
    def test_deformed_families(self, family, series, lam):
        expansion = series(lam)
        for n in range(ORACLE_N + 1):
            assert family(n, lam) == appell(expansion, n), n

    def test_numbers(self):
        bernoulli, euler = bernoulli_series(1), euler_series(1)
        for n in range(ORACLE_N + 1):
            assert bernoulli_number(n) == bernoulli.coeff(n)
            assert euler_number0(n) == euler.coeff(n)


def catalan_by_ballot_paths(n: int) -> int:
    """Count monotone lattice paths below the diagonal by dynamic
    programming; an oracle independent of any closed form."""
    ways = [[0] * (n + 1) for _ in range(n + 1)]
    ways[0] = [1] * (n + 1)
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            ways[i][j] = ways[i - 1][j] + (
                ways[i][j - 1] if j - 1 >= i else 0
            )
    return ways[n][n]


class TestClassicSequences:
    def test_catalan_vs_path_count(self):
        for n in range(10):
            assert classic_sequence(FamilyTag.CATALAN, n) == (
                catalan_by_ballot_paths(n)
            )

    def test_catalan_leading_terms(self):
        values = [classic_sequence(FamilyTag.CATALAN, n) for n in range(7)]
        assert values == [1, 1, 2, 5, 14, 42, 132]

    def test_daehee_closed_form(self):
        for n in range(41):
            assert classic_sequence(FamilyTag.DAEHEE, n) == Fraction(
                (-1) ** n * factorial(n), n + 1
            )

    def test_changhee_closed_form(self):
        for n in range(41):
            assert classic_sequence(FamilyTag.CHANGHEE, n) == Fraction(
                (-1) ** n * factorial(n), 2**n
            )

    @pytest.mark.parametrize("tag", list(FamilyTag))
    @pytest.mark.parametrize("start, stop", [(0, 12), (5, 12), (9, 10)])
    def test_range_kernel_is_the_term_by_term_sequence(self, tag, start, stop):
        rng = range(start, stop)
        expected = [classic_sequence(tag, n) for n in rng]
        assert list(classic_numbers.classic_range(tag, rng)) == expected

    @pytest.mark.parametrize("tag", list(FamilyTag))
    def test_range_kernel_checks_its_start(self, tag):
        with pytest.raises(ValueError, match="n must be >= 0"):
            classic_numbers.classic_range(tag, range(-1, 3))


class TestAuxiliaryFamilies:
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.sampled_from(TestDeformedFamilies.lams + [Fraction(1)]),
    )
    def test_y1_brute_force(self, n, k, lam):
        expected = sum(
            comb(k, j) * lam**j * (j**n if (j, n) != (0, 0) else 1)
            for j in range(k + 1)
        ) / Fraction(factorial(k))
        assert y1(n, k, lam) == expected

    def test_y_seq_by_rational_expansion(self):
        # long-divide 2/(lam^2 t + lam - 1) by hand for a sample lam
        lam = Fraction(2)
        coeffs = []
        # 2/(4t + 1) = 2 * sum (-4t)^k
        for k in range(6):
            coeffs.append(2 * Fraction(-4) ** k)
        for n, c in enumerate(coeffs):
            assert y_seq(n, lam) == factorial(n) * c

    def test_y_seq_rejects_lambda_one(self):
        for one in (1, Fraction(1), Fraction(4, 4)):
            with pytest.raises(ValueError):
                y_seq(3, one)
        with pytest.raises(TypeError):
            y_seq(3, 1.0)

    def test_legendre_recurrence_and_endpoints(self):
        assert legendre(0) == Poly([1])
        assert legendre(1) == Poly([0, 1])
        for n in range(1, 30):
            lhs = (n + 1) * legendre(n + 1)
            rhs = (2 * n + 1) * Poly.x() * legendre(n) - n * legendre(n - 1)
            assert lhs == rhs
        for n in range(31):
            assert legendre(n)(1) == 1
            assert legendre(n)(-1) == (-1) ** n

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=6),
        small_fractions,
    )
    def test_mirimanoff_evaluates_power_sum(self, m, n, x):
        poly = mirimanoff(m, n)
        expected = sum(
            (x**j * (j**m if (j, m) != (0, 0) else 1) for j in range(n)),
            Fraction(0),
        )
        assert poly(x) == expected
