"""Terminating hypergeometric evaluation and the ordinary generating
function closed forms."""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomsums.exact_core import pochhammer
from binomsums.hypergeom import (
    OgfCase,
    PfqSpec,
    alternating_square_gamma,
    ogf_reference,
    ogf_series,
    pfq_terminating,
    y6_hyper,
)
from binomsums.y6_engine import y6

lam_values = [Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "1", "2", "3")]
rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)
# parameters that may be non-positive integers, so that poles and extra
# termination points occur
parameters = st.one_of(rationals, st.integers(min_value=-9, max_value=3).map(Fraction))


def fraction_pfq(spec: PfqSpec) -> Fraction:
    """The former Fraction loop of pfq_terminating, kept as its oracle."""
    tops = [-int(a) for a in spec.upper if a.denominator == 1 and a <= 0]
    if not tops:
        raise ValueError("series does not terminate")
    M = min(tops)
    for b in spec.lower:
        if b.denominator == 1 and b <= 0 and -b < M:
            raise ValueError("lower pole before termination")
    total = Fraction(0)
    term = Fraction(1)
    for m in range(M + 1):
        total += term
        num = Fraction(1)
        for a in spec.upper:
            num *= a + m
        den = Fraction(m + 1)
        for b in spec.lower:
            den *= b + m
        if den == 0:
            break  # beyond a lower pole, but only past the last kept term
        term *= spec.z * num / den
    return total


class TestPfq:
    @given(
        st.integers(min_value=0, max_value=9),
        st.lists(parameters, max_size=3),
        st.lists(parameters, max_size=3),
        st.one_of(st.just(Fraction(0)), rationals),
    )
    @settings(max_examples=300)
    def test_matches_the_fraction_loop(self, n, upper, lower, z):
        spec = PfqSpec([-n, *upper], lower, z)
        try:
            expected = fraction_pfq(spec)
        except ValueError:
            with pytest.raises(ValueError, match="hits its pole"):
                pfq_terminating(spec)
            return
        value = pfq_terminating(spec)
        assert value == expected and type(value) is Fraction

    @pytest.mark.parametrize("z", [Fraction(0), Fraction(-3, 5), Fraction(7, 2)])
    @pytest.mark.parametrize("n", range(6))
    def test_pole_at_the_termination_index_matches_the_fraction_loop(self, n, z):
        # the lower parameter -n vanishes exactly at the last term, where
        # the Fraction loop stopped with its break
        spec = PfqSpec([-n, Fraction(3, 2), -n - 2], [-n, Fraction(-1, 3)], z)
        assert pfq_terminating(spec) == fraction_pfq(spec)

    @given(
        st.integers(min_value=0, max_value=8),
        st.fractions(min_value=-3, max_value=3, max_denominator=4),
        st.fractions(min_value=Fraction(1, 4), max_value=4, max_denominator=4),
    )
    @settings(max_examples=80)
    def test_chu_vandermonde(self, n, b, c):
        # 2F1(-n, b; c; 1) = (c-b)_n / (c)_n for c not a non-positive integer
        spec = PfqSpec([-n, b], [c], Fraction(1))
        assert pfq_terminating(spec) == pochhammer(c - b, n) / pochhammer(c, n)

    def test_term_by_term(self):
        # 2F1(-2, 1; 1; z) = 1 - 2z + z^2 at a sample z
        z = Fraction(1, 3)
        value = pfq_terminating(PfqSpec([-2, 1], [1], z))
        assert value == 1 - 2 * z + z**2

    @pytest.mark.parametrize(
        "upper, z",
        [((-2.0,), Fraction(1)), ((Fraction(-2),), 0.5)],
        ids=["float_upper", "float_z"],
    )
    def test_float_in_a_spec_is_refused(self, upper, z):
        with pytest.raises(TypeError, match="expected an int or Fraction, got float"):
            pfq_terminating(PfqSpec(upper, (), z))

    def test_spec_from_lists_is_a_hashable_fraction_tuple(self):
        spec = PfqSpec([-2, 1], [1], 3)
        assert spec == PfqSpec((-2, 1), (1,), Fraction(3))
        assert hash(spec) == hash(PfqSpec((-2, 1), (1,), Fraction(3)))
        assert spec.upper == (Fraction(-2), Fraction(1)) and type(spec.z) is Fraction

    def test_requires_terminating_upper(self):
        with pytest.raises(ValueError):
            pfq_terminating(PfqSpec([Fraction(1, 2)], [], Fraction(1)))

    def test_lower_pole_before_termination_rejected(self):
        # lower parameter -1 hits zero at term 2, before -3 terminates at 4
        with pytest.raises(ValueError):
            pfq_terminating(PfqSpec([-3, 1], [-1], Fraction(1)))

    def test_lower_pole_after_termination_allowed(self):
        # -4 in the denominator only vanishes past the -2 cut-off
        value = pfq_terminating(PfqSpec([-2, 1], [-4], Fraction(2)))
        terms = [Fraction(1)]
        terms.append(Fraction(-2) * 1 / Fraction(-4) * 2)
        terms.append(
            pochhammer(-2, 2) * pochhammer(1, 2) / pochhammer(-4, 2) / 2 * 4
        )
        assert value == sum(terms)

    @given(
        st.integers(min_value=0, max_value=8),
        st.sampled_from(lam_values),
        st.integers(min_value=1, max_value=4),
    )
    def test_y6_hyper_equals_slice(self, n, lam, p):
        assert y6_hyper(n, lam, p) == y6(0, n, lam, p)

    def test_y6_hyper_requires_positive_p(self):
        with pytest.raises(ValueError):
            y6_hyper(3, Fraction(1), 0)


class TestAlternatingSquares:
    def test_gamma_form_matches_piecewise(self):
        for n in range(17):
            alternating = sum(
                (-1) ** k * comb(n, k) ** 2 for k in range(n + 1)
            )
            assert alternating_square_gamma(n) == alternating
            if n % 2:
                assert alternating_square_gamma(n) == 0


class TestOgfClosedForms:
    def test_p0_case(self):
        for lam in lam_values:
            if lam == 1:
                continue
            assert ogf_series(OgfCase.LAM_P0, lam, 8) == ogf_reference(
                OgfCase.LAM_P0, lam, 8
            )

    def test_p0_singular_lambda_rejected(self):
        for one in (1, Fraction(1), Fraction(4, 4)):
            with pytest.raises(ValueError):
                ogf_series(OgfCase.LAM_P0, one, 8)
        with pytest.raises(TypeError):
            ogf_series(OgfCase.LAM_P0, 1.0, 8)

    def test_p1_case(self):
        for lam in lam_values:
            assert ogf_series(OgfCase.LAM_P1, lam, 8) == ogf_reference(
                OgfCase.LAM_P1, lam, 8
            )

    def test_central_case(self):
        series = ogf_series(OgfCase.ONE_P2, None, 10)
        assert series == ogf_reference(OgfCase.ONE_P2, None, 10)
        assert series == [
            Fraction(comb(2 * n, n), factorial(n)) for n in range(11)
        ]

    def test_alternating_case(self):
        assert ogf_series(OgfCase.MINUS1_P2, None, 10) == ogf_reference(
            OgfCase.MINUS1_P2, None, 10
        )
