"""The central sum family, Golombek-style B(d,k), and their generating
functions, checked against brute-force summation."""

from __future__ import annotations

from fractions import Fraction
from itertools import combinations, product
from math import comb, factorial, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomsums import p_polynomials, recurrences, y6_engine
from binomsums.audit import (
    AuditConfig,
    GridSpec,
    build_registry,
    evaluate_entry,
    run_audit,
)
from binomsums.classic_numbers import stirling1, stirling2
from binomsums.exact_core import Poly, _frac
from binomsums.y6_engine import (
    RationalFunction,
    b_ogf,
    bnk,
    franel,
    franel_recurrence,
    moment,
    t_poly,
    y6,
    y6_egf,
)

lam_values = [Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "1", "2", "3")]


def brute_y6(m: int, n: int, lam: Fraction, p: int) -> Fraction:
    total = Fraction(0)
    for k in range(n + 1):
        power = Fraction(1) if (k, m) == (0, 0) else Fraction(k) ** m
        total += Fraction(comb(n, k)) ** p * power * lam**k
    return total / factorial(n)


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


def reference_y6(m: int, n: int, lam: Fraction, p: int) -> Fraction:
    """The former Fraction-loop kernel, kept verbatim as the oracle of the
    integer-over-common-denominator one."""
    if m < 0 or n < 0 or p < 0:
        raise ValueError("indices must be >= 0")
    lam = _frac(lam)
    total = Fraction(0)
    lam_k = Fraction(1)
    for k in range(n + 1):
        km = 1 if m == 0 else k**m
        total += Fraction(comb(n, k)) ** p * km * lam_k
        lam_k *= lam
    return total / factorial(n)


def signed_object_count(m: int, n: int, lam: int, p: int) -> int:
    """The paper's combinatorial reading of n! y6(m,n;lam,p) for integer
    lam: count p-tuples of equal-size k-subsets of [n], each with a map
    [m] -> [k] and a colouring of the k points with |lam| colours, signed
    by sign(lam)^k. Enumerates the objects; does no binomial arithmetic."""
    total = 0
    for k in range(n + 1):
        subsets = list(combinations(range(n), k))
        objects = product(
            product(subsets, repeat=p),
            product(range(k), repeat=m),
            product(range(abs(lam)), repeat=k),
        )
        count = sum(1 for _ in objects)
        total += -count if lam < 0 and k % 2 else count
    return total


class TestY6:
    def test_counts_the_papers_signed_objects(self):
        points = [
            (m, n, lam, p)
            for n in range(6)
            for p in range(4)
            for m in range(4)
            for lam in range(-2, 4)
        ]
        assert len(points) == 576
        for m, n, lam, p in points:
            assert signed_object_count(m, n, lam, p) == factorial(n) * y6(
                m, n, lam, p
            ), (m, n, lam, p)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=25),
        exact_lambdas,
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=200)
    def test_matches_fraction_loop_reference(self, m, n, lam, p):
        value = y6(m, n, lam, p)
        assert type(value) is Fraction
        assert value == reference_y6(m, n, lam, p)

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=25),
        exact_lambdas,
        st.integers(min_value=0, max_value=4),
    )
    @settings(max_examples=100)
    def test_kernel_is_the_integer_scaled_sum(self, m, n, lam, p):
        # the memo holds S = n! b^n y6 for lam = a/b in lowest terms, b > 0
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        value = y6_engine._y6(m, n, a, b, p)
        assert type(value) is int
        assert value == factorial(n) * b**n * brute_y6(m, n, lam, p)

    @given(
        st.integers(min_value=0, max_value=25),
        exact_lambdas,
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=20),
        st.data(),
    )
    @settings(max_examples=100)
    def test_row_is_the_scalar_kernel(self, n, lam, p, top, data):
        # the row walk gives, column by column, the integers of the scalar walk
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        m = data.draw(st.integers(min_value=0, max_value=top))
        row = y6_engine._y6_row(n, a, b, p, top)
        assert len(row) == top + 1
        assert row[m] == y6_engine._y6.__wrapped__(m, n, a, b, p)

    def test_float_lambda_rejected(self):
        with pytest.raises(TypeError):
            y6(1, 3, 0.1, 1)
        # an equal exact value already in the cache does not let it through
        y6(0, 2, Fraction(1, 2), 1)
        with pytest.raises(TypeError):
            y6(0, 2, 0.5, 1)

    @pytest.mark.parametrize("bad", [Fraction(1, 2), Fraction(2), 2.0, "2"])
    def test_non_int_index_rejected(self, bad):
        y6(2, 3, Fraction(1), 2)  # the int entry is cached first
        for args in ((bad, 3, 1, 2), (2, bad, 1, 2), (2, 3, 1, bad)):
            with pytest.raises(TypeError, match="must be an int"):
                y6(*args)

    def test_cache_is_bounded_above_a_default_audit(self):
        # every entry a default audit needs fits, so the bound evicts nothing
        memos = (y6_engine._y6, y6_engine._y6_row)
        for memo in memos:
            memo.cache_clear()
        run_audit()
        for memo in memos:
            info = memo.cache_info()
            assert info.maxsize is not None
            assert info.misses == info.currsize < info.maxsize

    def test_int_and_fraction_lambda_share_one_entry(self):
        y6.cache_clear()
        assert y6(2, 3, 2, 2) == y6(2, 3, Fraction(2), 2)
        info = y6.cache_info()
        assert (info.misses, info.hits, info.currsize) == (1, 1, 1)

    def test_float_lambda_adds_no_entry(self):
        y6.cache_clear()
        with pytest.raises(TypeError):
            y6(2, 3, 2.0, 2)
        info = y6.cache_info()
        assert (info.misses, info.currsize) == (0, 0)

    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.sampled_from(lam_values),
        st.integers(min_value=0, max_value=4),
    )
    def test_matches_brute_force(self, m, n, lam, p):
        assert y6(m, n, lam, p) == brute_y6(m, n, lam, p)

    def test_empty_row(self):
        # n = 0 keeps only the k = 0 term
        assert y6(0, 0, Fraction(1), 3) == 1
        assert y6(5, 0, Fraction(2), 3) == 0

    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=3),
    )
    def test_reflection_at_unit_lambda(self, m, n, p):
        # substituting k -> n-k fixes the weight when lam = 1
        lhs = y6(m, n, Fraction(1), p)
        rhs = sum(
            comb(m, i) * Fraction(n) ** (m - i) * (-1) ** i * y6(i, n, Fraction(1), p)
            for i in range(m + 1)
        )
        assert lhs == rhs

    def test_central_binomial_slice(self):
        for n in range(15):
            assert factorial(n) * y6(0, n, Fraction(1), 2) == comb(2 * n, n)


def plain_kernel(m: int, n: int, a: int, b: int, p: int) -> int:
    """n! b^n y6(m,n;a/b,p), summed term by term with math.comb."""
    return sum(comb(n, k) ** p * k**m * a**k * b ** (n - k) for k in range(n + 1))


LARGE_N = [
    (3, 400, Fraction(-7, 13), 3),  # the benchmark's y6 slice
    (3, 400, Fraction(5, 9), 3),
    (2, 300, Fraction(3, 7), 5),  # (k+1)^5 takes two digits
    (0, 300, Fraction(1), 5),
    (0, 60, Fraction(0), 2),
    (4, 60, Fraction(0), 2),
    (0, 60, Fraction(-3, 2**40 + 1), 3),
    (2, 60, Fraction(-(2**35) - 1, 2**40 + 1), 2),
]


class TestKernelAtLargeN:
    # terms thousands of bits long, and divisors (k+1)^p b past one 30-bit
    # digit, which the hypothesis tests above (n <= 25) never reach; the
    # memos are bypassed so each case runs the kernels' loops
    @pytest.mark.parametrize("m, n, lam, p", LARGE_N)
    def test_matches_the_plain_sum(self, m, n, lam, p):
        a, b = lam.numerator, lam.denominator
        assert y6_engine._y6.__wrapped__(m, n, a, b, p) == plain_kernel(m, n, a, b, p)

    @pytest.mark.parametrize("m, n, lam, p", LARGE_N)
    def test_row_matches_the_plain_sum(self, m, n, lam, p):
        # every column of the row the registry reads for the case's m
        a, b = lam.numerator, lam.denominator
        row = y6_engine._y6_row.__wrapped__(n, a, b, p, m | 15)
        assert list(row) == [plain_kernel(i, n, a, b, p) for i in range(16)]

    def test_bnk_rows(self):
        for k in range(301):
            row = [comb(k, j) for j in range(k + 1)]
            for d in range(5):
                expected = sum(c * j**d for j, c in enumerate(row))
                assert bnk(d, k) == expected, (d, k)


class TestBnk:
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=12),
    )
    def test_matches_brute_force(self, d, k):
        expected = sum(
            comb(k, j) * (j**d if (j, d) != (0, 0) else 1)
            for j in range(k + 1)
        )
        assert bnk(d, k) == expected

    def test_low_order_closed_forms(self):
        for k in range(13):
            assert bnk(0, k) == 2**k
            assert 2 * bnk(1, k) == k * 2**k
            assert 4 * bnk(2, k) == k * (k + 1) * 2**k

    def test_t_poly_requires_positive_degree(self):
        with pytest.raises(ValueError):
            t_poly(0)

    def test_t_poly_bridge(self):
        for d in range(1, 13):
            poly = t_poly(d)
            for k in range(13):
                assert bnk(d, k) == Fraction(2) ** (k - d) * poly(k)

    @pytest.mark.parametrize("d", range(1, 13))
    def test_t_poly_is_its_stirling_sum(self, d):
        # coefficient of k^l: sum_{j=l}^{d} s(j,l) S(d,j) 2^(d-j), in Fractions
        coeffs = [Fraction(0)] + [
            sum(
                (stirling1(j, l) * stirling2(d, j) * 2 ** (d - j)
                 for j in range(l, d + 1)),
                Fraction(0),
            )
            for l in range(1, d + 1)
        ]
        assert t_poly(d) == Poly(coeffs)

    def test_first_t_polys(self):
        assert t_poly(1) == Poly([0, 1])
        assert t_poly(2) == Poly([0, 1, 1])  # k + k^2 halves out to k(k+1)/2


class TestRationalFunction:
    def test_geometric_series(self):
        rf = RationalFunction(Poly([1]), Poly([1, -2]))
        assert rf.series(8) == [2**n for n in range(9)]

    def test_zero_denominator_rejected(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1]), Poly())

    def test_denominator_vanishing_at_origin_has_no_series(self):
        with pytest.raises(ZeroDivisionError):
            RationalFunction(Poly([1]), Poly([0, 1])).series(4)

    def test_b_ogf_matches_values(self):
        for d in range(7):
            assert b_ogf(d).series(12) == [bnk(d, k) for k in range(13)]


class TestMomentsAndFranel:
    def test_moment_is_integer_valued(self):
        for n in range(9):
            for p in range(5):
                for m in range(6):
                    value = moment(m, p, n)
                    assert value.denominator == 1

    def test_franel3_recurrence(self):
        # (n+1)^2 f(n+1) = (7n^2+7n+2) f(n) + 8n^2 f(n-1)   (Franel 1894)
        f = {n: franel(3, 0, n, 1) for n in range(201)}
        f[-1] = 0
        for n in range(200):
            lhs = (n + 1) ** 2 * f[n + 1]
            assert lhs == (7 * n * n + 7 * n + 2) * f[n] + 8 * n * n * f[n - 1]

    def test_franel_rows(self):
        assert [franel(3, 0, n, Fraction(1)) for n in range(5)] == [
            1,
            2,
            10,
            56,
            346,
        ]
        assert [franel(4, 0, n, Fraction(1)) for n in range(5)] == [
            1,
            2,
            18,
            164,
            1810,
        ]

    @given(
        st.integers(min_value=0, max_value=4),
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(lam_values),
    )
    def test_franel_is_scaled_y6(self, m, n, p, lam):
        assert franel(p, m, n, lam) == factorial(n) * y6(m, n, lam, p)


class TestFranelRecurrence:
    """The O(N) kernel against the direct sum; the benchmark's own Franel
    oracle is the p = 3 recurrence itself, so it cannot check this."""

    @pytest.mark.parametrize("p, stop", [(3, 300), (4, 200)])
    def test_matches_direct_sum(self, p, stop):
        assert franel_recurrence(p, stop) == [
            franel(p, 0, n, Fraction(1)) for n in range(stop)
        ]

    @pytest.mark.parametrize("p", [3, 4])
    def test_spot_values(self, p):
        terms = franel_recurrence(p, 1001)
        for n in (600, 1000):
            assert terms[n] == sum(comb(n, k) ** p for k in range(n + 1))

    def test_prefixes_and_empty(self):
        assert franel_recurrence(3, 0) == []
        assert franel_recurrence(4, 1) == [1]
        assert franel_recurrence(3, 5) == [1, 2, 10, 56, 346]
        assert franel_recurrence(4, 5) == [1, 2, 18, 164, 1810]

    @pytest.mark.parametrize("p", [0, 1, 2, 5])
    def test_other_powers_raise(self, p):
        with pytest.raises(ValueError, match="p = 3, 4"):
            franel_recurrence(p, 10)

    def test_bad_stop_raises(self):
        with pytest.raises(ValueError):
            franel_recurrence(3, -1)
        with pytest.raises(TypeError, match="must be an int"):
            franel_recurrence(3, 10.0)

    def test_inexact_step_raises(self, monkeypatch):
        # c_1(0) = -15 in place of -16: 4 f(2) = 8 f(0) + 15 f(1) = 38
        row = next(r for r in recurrences.ROWS if (r.p, r.x) == (3, 1))
        c0, (c1,), c2 = row.telescoper
        bad = row._replace(telescoper=(c0, ((c1[0] + 1, *c1[1:]),), c2))
        rows = tuple(bad if r is row else r for r in recurrences.ROWS)
        monkeypatch.setattr(recurrences, "ROWS", rows)
        with pytest.raises(ArithmeticError, match="not exact at n = 2"):
            franel_recurrence(3, 4)

    def test_is_public_for_the_tracer(self):
        assert "franel_recurrence" in y6_engine.__all__


class TestEgfPath:
    @given(
        st.integers(min_value=0, max_value=8),
        st.integers(min_value=0, max_value=4),
        st.sampled_from(lam_values),
    )
    @settings(max_examples=60)
    def test_series_coefficients_are_the_numbers(self, n, p, lam):
        series = y6_egf(n, lam, p, 10)
        for m in range(11):
            assert series.coeffs[m] == y6(m, n, lam, p)

    @pytest.mark.parametrize(
        "lam", [Fraction(0), Fraction(-2), Fraction(-1, 2), Fraction(5, 11), 3]
    )
    def test_integer_sum_matches_the_fraction_sum(self, lam):
        # the coefficient j of (1/n!) sum_k C(n,k)^p lam^k e^{kt} is
        # (1/n!) sum_k C(n,k)^p lam^k k^j, summed here in Fractions
        for n, p in product(range(9), range(5)):
            series = y6_egf(n, lam, p, 12)
            terms = [comb(n, k) ** p * Fraction(lam) ** k for k in range(n + 1)]
            expected = [
                sum((t * k**j for k, t in enumerate(terms)), Fraction(0)) / factorial(n)
                for j in range(13)
            ]
            assert list(series.coeffs) == expected
            assert series.den > 0 and gcd(series.den, *series.nums) == 1

    def test_float_lambda_is_refused(self):
        with pytest.raises(TypeError, match="expected an int or Fraction"):
            y6_egf(3, 0.5, 2, 4)


# the polynomial family's entries and y6G, which look up y6 and p_poly at
# every grid point
MEMO_ENTRIES = (
    "Yp1Yp2_bridge",
    "py6a",
    "py6ab",
    "inP1",
    "inP2",
    "inP8",
    "inP8a",
    "P1_corollary",
    "inP3_4",
    "inP5_6",
    "y6G",
)


def test_memo_lookups_hash_no_fraction(monkeypatch):
    # the memos are keyed on lam's integer parts: a grid over rational lam
    # must hash no Fraction, on cache misses or hits
    entries = {e.id: e for e in build_registry()}
    config = AuditConfig(default=GridSpec(m_max=3, n_max=3, p_max=2))
    calls = []
    fraction_hash = Fraction.__hash__

    def counting_hash(self):
        calls.append(self)
        return fraction_hash(self)

    y6.cache_clear()
    y6_engine._y6_row.cache_clear()
    p_polynomials.p_poly.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__hash__", counting_hash)
        hash(Fraction(1, 3))
        assert len(calls) == 1  # the patch counts
        calls.clear()
        results = [evaluate_entry(entries[i], config) for i in MEMO_ENTRIES * 2]
    assert all(r.matches_expected for r in results)
    assert sum(r.points for r in results) > 0
    assert calls == []


def test_y6g_builds_no_fraction(monkeypatch):
    # both sides of y6G are lists of integers over n! b^n, compared unreduced
    entry = next(e for e in build_registry() if e.id == "y6G")
    config = AuditConfig(default=GridSpec(n_max=4, p_max=3))
    calls = []
    fraction_new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        calls.append(args)
        return fraction_new(cls, *args, **kwargs)

    y6.cache_clear()
    y6_engine._y6_row.cache_clear()
    with monkeypatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting_new))
        Fraction(1, 3)
        assert len(calls) == 1  # the patch counts
        calls.clear()
        results = [evaluate_entry(entry, config) for _ in range(2)]
    assert all(r.matches_expected and r.points == 5 * 4 * 7 for r in results)
    assert calls == []


def test_sums_over_m_read_one_row_per_slice():
    # inP1 reads y6 only through its sums over m: one default evaluation
    # leaves the scalar memo empty and keeps one row per (n, lam, p) slice,
    # however many m the slice has
    (entry,) = [e for e in build_registry() if e.id == "inP1"]
    config = AuditConfig()
    slices = {(n, p, lam) for _, n, p, lam in entry.grid(config.for_entry("inP1"))}
    y6.cache_clear()
    y6_engine._y6_row.cache_clear()
    assert evaluate_entry(entry, config).matches_expected
    assert y6.cache_info().currsize == 0
    assert 0 < y6_engine._y6_row.cache_info().currsize <= len(slices)
