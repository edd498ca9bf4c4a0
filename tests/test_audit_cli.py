"""Registry integrity, grid configuration, runner behaviour, and the CLI."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from collections import Counter
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import binomsums
from binomsums import (
    audit,
    classic_numbers,
    cli,
    exact_core,
    hypergeom,
    p_polynomials,
    y6_engine,
)
from binomsums.audit import (
    AuditConfig,
    ConfigError,
    GridSpec,
    Verdict,
    build_registry,
    evaluate_entry,
    load_config,
    run_audit,
)
from binomsums.audit import registry
from binomsums.audit.registry import IdentityEntry
from binomsums.audit.runner import _fmt_point, render_csv, render_json, render_markdown
from binomsums.classic_numbers import (
    bernoulli_poly_order,
    euler_poly_order,
    stirling2,
)
from binomsums.exact_core import Poly, _Unreduced, _UnreducedPoly, poly_integral01
from binomsums.p_polynomials import fermionic, p_poly, raw_sum_poly, volkenborn
from binomsums.y6_engine import bnk, franel, moment, y6

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("tracer", ROOT / "perfbench" / "tracer.py")
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)

# a value other than the default for each GridSpec key, small enough that an
# entry whose points it changes still runs quickly
OTHER_VALUE = {"m_max": 3, "n_max": 3, "p_max": 1, "lambdas": (Fraction(5, 7),)}
ENTRY_KEYS = [
    pytest.param(entry, name, id=f"{entry.id}-{name}")
    for entry in build_registry()
    for name in GridSpec._fields
]

EXPECTED_IDS = {
    "golombek", "CC2", "Bs1", "boyadzhiev", "altStirling", "CB1_xu",
    "tpoly", "xu_x", "fd_ogf", "Cab3", "Caa3", "y6G", "y6bb", "chu",
    "dixon", "cusick_sym", "cusick_diag", "franel3", "franel4", "AWolf",
    "alt3", "catalan_CN", "legendre_P0", "legendre_P2", "changhee_theorem",
    "Yp1Yp2_bridge", "py6a", "py6ab", "inP1", "inP2", "inP8", "inP8a",
    "P1_corollary", "inP3_4", "inP5_6", "mirimanoff_frobenius",
    "apostol_powersum", "faulhaber", "alt_euler_sum", "sec6_stirling",
    "sec6_bernoulli", "sec6_euler", "yp3_euler_operator",
    "vowe_recurrence", "vowe_legendre", "ogf_00", "ogf_01", "ogf_12",
    "ogf_m12",
}


class TestRegistry:
    def test_expected_ids_all_present(self):
        ids = {e.id for e in build_registry()}
        missing = EXPECTED_IDS - ids
        assert not missing, f"registry is missing {sorted(missing)}"

    def test_ids_unique(self):
        ids = [e.id for e in build_registry()]
        assert len(ids) == len(set(ids))

    def test_corrected_present_when_required(self):
        for entry in build_registry():
            if entry.expected is Verdict.HOLDS_CORRECTED_ONLY:
                assert entry.corrected is not None, entry.id

    def test_every_grid_nonempty(self):
        config = AuditConfig()
        for entry in build_registry():
            points = list(entry.grid(config.for_entry(entry.id)))
            assert points, entry.id

    @pytest.mark.parametrize("p", [2, 3])
    def test_alternating_closed_form_matches_the_sum(self, p):
        # the right side of AWolf (p = 2), alt3 and dixon (p = 3)
        for n in range(40):
            total = sum((-1) ** k * comb(n, k) ** p for k in range(n + 1))
            assert registry._alternating_closed(p, n) == total

    @pytest.mark.parametrize("lam", ["0", "1", "-1", "-2", "-1/2", "7/3"])
    def test_binom_sum_matches_the_fraction_loop(self, lam):
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        for p in range(4):
            # n = -1 is the empty sum
            empty = registry._binom_sum(-1, p, a, b, [], 7)
            assert empty == 0 and type(empty) is _Unreduced
        gs = [
            lambda j: Fraction(j + 1, 3),
            lambda j: (j + 1) ** 3 - j**3,  # int-valued
            Poly([Fraction(1, 2), -3, Fraction(5, 7)]),  # a Poly evaluated at j
            lambda j: Fraction(j - 2, j + 2) if j % 2 else 2 * j - 5,  # mixed
        ]
        for g in gs:
            for n in range(7):
                # g(0..n) as integer numerators over one denominator
                gj = [Fraction(g(j)) for j in range(n + 1)]
                den = lcm(*[v.denominator for v in gj])
                values = [int(v * den) for v in gj]
                outer = factorial(n) * 2**n
                for p in range(4):
                    expected = sum(
                        Fraction(comb(n, j)) ** p * lam**j * g(j) for j in range(n + 1)
                    )
                    got = registry._binom_sum(n, p, a, b, values, den)
                    assert got == expected and type(got) is _Unreduced
                    assert got.fraction() == expected
                    # an outer divisor folded into the denominator
                    got = registry._binom_sum(n, p, a, b, values, den * outer)
                    assert got == expected / outer

    @pytest.mark.parametrize("lam", ["0", "1", "-1", "-2", "-1/2", "-7/3", "5/11"])
    def test_binom_weights_are_the_terms_over_b_to_the_n(self, lam):
        # C(n,j)^p a^j b^(n-j) is the term C(n,j)^p lam^j over b^n, with
        # 0^0 = 1; n = -1, the empty sum, has no weights
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        for p in range(5):
            assert registry._binom_weights(-1, p, a, b) == []
            for n in range(11):
                weights = registry._binom_weights(n, p, a, b)
                assert all(type(w) is int for w in weights)
                assert [Fraction(w, b**n) for w in weights] == [
                    Fraction(comb(n, j)) ** p * lam**j for j in range(n + 1)
                ]

    @pytest.mark.parametrize("lam", ["0", "1", "-2", "-1/2", "7/3"])
    def test_y6_sum_matches_the_fraction_loops(self, lam):
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        for m in range(6):
            for n in range(6):
                for p in range(4):
                    ys = [y6(k, n, lam, p) for k in range(m + 1)]
                    integral = sum(
                        comb(m, k) * ys[k] / (m - k + 1) for k in range(m + 1)
                    )
                    assert registry._coefficient_integral(m, n, p, a, b) == integral
                    expanded = sum(
                        comb(m, k) * Fraction(m + 1, m - k + 1) * ys[k]
                        for k in range(m + 1)
                    )
                    assert registry._inp8a(True, m, n, p, lam)[0] == expanded
                    at_one = sum(comb(m, k) * ys[k] for k in range(m + 1))
                    assert (
                        registry._p1_corollary(True, m, n, p, lam)[1]
                        == at_one
                    )
                    recurrence = Poly(
                        [comb(m, i) * y6(m - i + 1, n, lam, p) for i in range(m + 1)]
                    )
                    assert registry._py6ab(m, n, p, lam)[1] == recurrence

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=9),
        st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), rationals),
        st.one_of(st.just(Fraction(0)), rationals),
    )
    @settings(max_examples=300)
    def test_power_sum_matches_the_fraction_loops(self, m, upper, lam, x0):
        # _binom_sum at p = 0 against the Fraction loop of the power sums
        # (x0 = 0) and the former left side of mirimanoff_frobenius; upper = 0
        # is the empty sum
        total, lj = Fraction(0), Fraction(1)
        for j in range(upper):
            total += lj * Fraction(j) ** m
            lj *= lam
        assert registry._power_sum(m, upper, lam) == total
        shifted = sum((lam**j * (x0 + j) ** m for j in range(upper)), Fraction(0))
        value = registry._power_sum(m, upper, lam, x0)
        assert value == shifted and type(value) is _Unreduced
        if upper and lam not in (0, 1):
            lhs, _ = registry._mirimanoff_frobenius(True, m, upper, x0, lam)
            assert lhs == shifted

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.one_of(st.just(Fraction(0)), rationals),
    )
    @settings(max_examples=60, deadline=None)
    def test_sec6_inner_sums_match_the_fraction_loops(self, m, n, p, lam):
        # the former per-k Fraction sums over the order-n polynomials
        def bernoulli_inner(k):
            return sum(
                comb(m + n, v) * stirling2(v, n) * bernoulli_poly_order(m + n - v, n)(k)
                for v in range(m + n + 1)
            )

        def euler_inner(k):
            return sum(
                comb(m, v) * bnk(v, n) * euler_poly_order(m - v, n)(k)
                for v in range(m + 1)
            )

        def weighted(inner):
            return sum(
                Fraction(comb(n, k)) ** p * lam**k * inner(k) for k in range(n + 1)
            )

        bernoulli = weighted(bernoulli_inner) / (comb(m + n, n) * factorial(n))
        assert registry._sec6_bernoulli(m, n, p, lam)[1] == bernoulli
        euler = weighted(euler_inner) / (factorial(n) * 2**n)
        assert registry._sec6_euler(m, n, p, lam)[1] == euler

    @pytest.mark.parametrize("lam", ["-1", "1/2", "2"])
    def test_sec6_stirling_inner_sum_matches_the_fraction_loop(self, lam):
        lam = Fraction(lam)
        for m in range(6):
            for n in range(6):
                for p in range(1, 4):

                    def inner(k):
                        return sum(
                            stirling2(m, l) / (factorial(n - k) * factorial(k - l))
                            for l in range(k + 1)
                        )

                    expected = sum(
                        Fraction(comb(n, k)) ** (p - 1) * lam**k * inner(k)
                        for k in range(n + 1)
                    )
                    assert registry._sec6_stirling(m, n, p, lam)[1] == expected

    def test_binom_sum_is_independent_of_the_routes_it_checks(self):
        # neither the sum nor the builder of its weights calls a route that
        # the sum is compared with
        routes = {
            "y6", "_y6", "_y6_row", "_y6_value", "_moment_row",
            "p_poly", "_p_poly", "raw_sum_poly", "_raw_sum", "r_poly",
        }
        for fn in (registry._binom_sum, registry._binom_weights):
            assert not set(fn.__code__.co_names) & routes, fn.__name__
        assert "_binom_weights" in registry._binom_sum.__code__.co_names

    def test_scalar_sides_build_no_fraction(self, monkeypatch):
        # these holding forms return unreduced integer quotients on both
        # sides, compared by cross-multiplying: once the tables and memos
        # are filled, a grid point builds no Fraction
        names = {
            "inP1", "inP3_4", "inP5_6", "inP8a", "sec6_stirling",
            "sec6_bernoulli", "sec6_euler", "yp3_euler_operator",
        }
        config = AuditConfig(default=GridSpec(m_max=3, n_max=3, p_max=2))
        forms = [
            (e.printed if e.corrected is None else e.corrected,
             list(e.grid(config.for_entry(e.id))))
            for e in build_registry()
            if e.id in names
        ]
        assert len(forms) == len(names)
        calls = []
        fraction_new = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            calls.append(args)
            return fraction_new(cls, *args, **kwargs)

        with registry._tables():
            for form, points in forms:
                for pt in points:
                    form(*pt)
            with monkeypatch.context() as mp:
                mp.setattr(Fraction, "__new__", staticmethod(counting_new))
                Fraction(1, 3)
                assert len(calls) == 1  # the patch counts
                calls.clear()
                sides = [form(*pt) for form, points in forms for pt in points]
                assert all(lhs == rhs for lhs, rhs in sides)
        assert calls == []
        assert len(sides) == 2108

    def test_poly_sides_build_no_reduced_poly(self, monkeypatch):
        # the polynomial family's identities compare unreduced rows over
        # n! b^n or b^n: once _p_poly is filled, a grid point takes no gcd
        names = {"py6a", "py6ab", "Yp1Yp2_bridge"}
        config = AuditConfig(default=GridSpec(m_max=3, n_max=3, p_max=2))
        forms = [
            (e.printed if e.corrected is None else e.corrected,
             list(e.grid(config.for_entry(e.id))))
            for e in build_registry()
            if e.id in names
        ]
        assert len(forms) == len(names)
        calls = []
        make_poly = exact_core._poly

        def counting_poly(nums, den):
            calls.append((nums, den))
            return make_poly(nums, den)

        with registry._tables():
            for form, points in forms:
                for pt in points:
                    form(*pt)
            with monkeypatch.context() as mp:
                mp.setattr(exact_core, "_poly", counting_poly)
                Poly.x() * 2
                assert len(calls) == 1  # the patch counts
                calls.clear()
                sides = [form(*pt) for form, points in forms for pt in points]
                assert all(lhs == rhs for lhs, rhs in sides)
        assert calls == []
        assert len(sides) == 924

    def test_public_values_stay_canonical_fractions(self):
        # the public wrappers reduce what the kernels leave unreduced
        # (4/2, 6/6, -2/4, 6/6 and 2/2 here, and rows over n! b^n and b^n
        # with a trailing zero at lam = -1), and no module exports the
        # quotient types
        polys = [
            p_poly(2, 3, Fraction(1, 2), 2),
            p_poly(2, 3, -1, 1),
            raw_sum_poly(2, 3, Fraction(-2, 3), 1),
            raw_sum_poly(2, 3, -1, 1),
        ]
        for poly in polys:
            canonical = Poly(poly.coeffs)
            assert type(poly) is Poly
            assert (poly.nums, poly.den) == (canonical.nums, canonical.den)
        assert polys[1].degree < 2 and polys[3].degree < 2
        values = [
            (y6(0, 2, 1, 1), (2, 1)),
            (poly_integral01(Poly([0, 0, 3])), (1, 1)),
            (fermionic(Poly.monomial(1)), (-1, 2)),
            (volkenborn(Poly([0, 0, 6])), (1, 1)),
            (Poly([0, 2])(Fraction(1, 2)), (1, 1)),
        ]
        for value, parts in values:
            assert type(value) is Fraction
            assert (value.numerator, value.denominator) == parts
        modules = [
            binomsums, exact_core, classic_numbers, y6_engine, p_polynomials,
            hypergeom, audit, audit.config, registry, audit.runner, cli,
        ]
        for mod in modules:
            exported = getattr(mod, "__all__", ())
            for kind in (_Unreduced, _UnreducedPoly):
                assert kind.__name__ not in exported
                assert all(getattr(mod, name) is not kind for name in exported)

    def test_every_side_is_a_protocol_kind(self):
        # the side protocol in the README: every leaf of a side, where lists
        # and tuples recurse, is one of five kinds, and each kind is used
        kinds = {int, Fraction, Poly, _Unreduced, _UnreducedPoly}

        def leaves(side):
            if isinstance(side, (list, tuple)):
                for value in side:
                    yield from leaves(value)
            else:
                yield side

        config = AuditConfig(default=GridSpec(m_max=4, n_max=4, p_max=2))
        seen, foreign = set(), set()
        with registry._tables():
            for e in build_registry():
                points = [
                    pt for pt in e.grid(config.for_entry(e.id))
                    if e.singular(*pt) is None
                ]
                for form in filter(None, (e.printed, e.corrected)):
                    for pt in points:
                        for leaf in leaves(form(*pt)):
                            seen.add(type(leaf))
                            if type(leaf) not in kinds:
                                foreign.add((e.id, type(leaf).__name__))
        assert foreign == set()
        assert seen == kinds

    def test_audit_all_is_the_union_of_the_module_lists(self):
        from binomsums import audit
        from binomsums.audit import config, runner

        modules = [config, registry, runner]
        names = [name for mod in modules for name in mod.__all__]
        assert len(names) == len(set(names))
        assert sorted(audit.__all__) == sorted(names)
        for mod in modules:
            for name in mod.__all__:
                assert getattr(audit, name) is getattr(mod, name)
        assert {"ConfigError", "DEFAULT_LAMBDAS"} <= set(config.__all__)

    def test_corrected_required_by_constructor(self):
        with pytest.raises(ValueError):
            IdentityEntry(
                id="bad",
                paper_ref="x",
                expected=Verdict.HOLDS_CORRECTED_ONLY,
                printed=lambda: (0, 0),
                grid=lambda spec: iter([{}]),
            )

    def test_identity_refuses_parameters_that_are_not_the_axes(self, monkeypatch):
        monkeypatch.setattr(registry, "_ENTRIES", [])
        grid = registry._grid("m", "n", m_cap=1, n_cap=1)
        assert grid.axes == ("m", "n")

        def chu(m, n):
            """x"""
            return 0, 0

        def fixed(corrected, m, n):
            """x"""
            return 0, 0

        registry._identity("ok", Verdict.HOLDS_PRINTED, grid)(chu)
        registry._identity("fix", Verdict.HOLDS_CORRECTED_ONLY, grid)(fixed)
        assert [(e.id, e.axes) for e in registry._ENTRIES] == [
            ("ok", ("m", "n")), ("fix", ("m", "n"))
        ]
        bad = [
            (Verdict.HOLDS_PRINTED, lambda n, m: (0, 0)),  # out of order
            (Verdict.HOLDS_PRINTED, lambda m: (0, 0)),  # an axis missing
            (Verdict.HOLDS_PRINTED, lambda m, n, p: (0, 0)),  # one too many
            (Verdict.HOLDS_PRINTED, lambda corrected, m, n: (0, 0)),
            (Verdict.HOLDS_CORRECTED_ONLY, lambda m, n: (0, 0)),
            (Verdict.HOLDS_CORRECTED_ONLY, lambda m, n, *, corrected: (0, 0)),
            (Verdict.HOLDS_PRINTED, lambda m, n, *args: (0, 0)),
            (Verdict.HOLDS_PRINTED, lambda m, n, **kw: (0, 0)),
            (Verdict.HOLDS_PRINTED, lambda m, n, *, p: (0, 0)),  # keyword-only
        ]
        for i, (expected, fn) in enumerate(bad):
            fn.__doc__ = "x"
            with pytest.raises(RuntimeError, match="evaluator parameters"):
                registry._identity(f"bad{i}", expected, grid)(fn)
        assert len(registry._ENTRIES) == 2

    @pytest.mark.parametrize("entry", build_registry(), ids=lambda e: e.id)
    def test_every_point_has_one_value_per_axis(self, entry):
        points = list(entry.grid(AuditConfig().for_entry(entry.id)))
        assert points
        assert all(type(pt) is tuple and len(pt) == len(entry.axes) for pt in points)

    def test_golombek_points_are_named_by_their_own_axes(self):
        (entry,) = [e for e in build_registry() if e.id == "golombek"]
        names = Counter(
            tuple(_fmt_point(entry.axes, pt))
            for pt in entry.grid(AuditConfig().for_entry(entry.id))
        )
        # (d, k) for d = 1..3, k = 0..8, then (m, n) for m = 0..3, n = 2..8
        assert names == {("d", "k"): 27, ("m", "n"): 28}

    @pytest.mark.parametrize(
        "entry_id, points, reason",
        [
            (
                "mirimanoff_frobenius",
                [
                    f'"m": "{m}", "n": "{n}", "x0": "{x0}", "lam": "1"'
                    for m in range(7)
                    for n in range(1, 7)
                    for x0 in ("0", "1", "1/2")
                ],
                "closed form undefined at u in {0, 1}",
            ),
            (
                "apostol_powersum",
                [
                    f'"m": "{m}", "n": "{n}", "lam": "1"'
                    for m in range(1, 9)
                    for n in range(1, 9)
                ],
                "Apostol-Bernoulli closed form undefined at lambda = 1",
            ),
            ("ogf_00", ['"lam": "1"'], "ordinary closed form singular at lambda = 1"),
        ],
    )
    def test_skipped_points_keep_their_json_text(self, entry_id, points, reason):
        (result,) = run_audit(pattern=entry_id).results
        items = (f'{{"point": {{{pt}}}, "reason": "{reason}"}}' for pt in points)
        assert json.dumps(result.skipped) == "[" + ", ".join(items) + "]"


class TestConfig:
    def test_defaults(self):
        spec = GridSpec()
        assert (spec.m_max, spec.n_max, spec.p_max) == (8, 8, 4)
        assert Fraction(-1, 2) in spec.lambdas

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            """
            # default grid
            m_max = 4
            lambdas = 1, -1, 1/2

            [chu]
            n_max = 3
            """
        )
        config = load_config(path)
        assert config.default.m_max == 4
        assert config.default.lambdas == (
            Fraction(1),
            Fraction(-1),
            Fraction(1, 2),
        )
        assert config.for_entry("chu").n_max == 3
        assert config.for_entry("chu").m_max == 4  # inherits earlier default
        assert config.for_entry("dixon").n_max == 8

    def test_section_may_set_a_key_set_at_the_top(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("n_max = 4\n[chu]\nn_max = 3\n[dixon]\nm_max = 2\n")
        config = load_config(path)
        assert config.default.n_max == 4
        assert config.for_entry("chu").n_max == 3
        assert config.for_entry("dixon") == GridSpec(m_max=2, n_max=4)

    def test_bad_key_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("q_max = 4\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("m_max = 0.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_override_id_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("[no_such_entry]\nn_max = 2\n")
        config = load_config(path)
        with pytest.raises(ConfigError):
            run_audit(config, pattern="chu")

    def test_override_bounds_an_entry_whose_grid_reads_it(self):
        config = AuditConfig(overrides={"CC2": GridSpec(n_max=3)})
        (result,) = run_audit(config, pattern="CC2").results
        assert result.points == 9 * 4  # m in 0..8, n in 0..3


class TestRunner:
    def test_single_entry_verdict(self):
        report = run_audit(pattern="chu")
        (result,) = report.results
        assert result.verdict is Verdict.HOLDS_PRINTED
        assert result.matches_expected
        assert result.counterexample is None
        assert result.points == 21

    def test_counterexample_has_both_sides(self):
        report = run_audit(pattern="cusick_diag")
        (result,) = report.results
        assert result.verdict is Verdict.FAILS_BOTH
        ce = result.counterexample
        assert ce is not None
        assert set(ce) >= {"point", "printedLhs", "printedRhs"}
        assert ce["printedLhs"] != ce["printedRhs"]

    def test_skipped_points_reported_with_reasons(self):
        report = run_audit(pattern="apostol_powersum")
        (result,) = report.results
        assert result.skipped
        assert all("lambda" in item["reason"] for item in result.skipped)

    def test_ogf_00_skips_lambda_one_by_its_integer_parts(self):
        (entry,) = [e for e in build_registry() if e.id == "ogf_00"]
        reason = "ordinary closed form singular at lambda = 1"
        for one in (1, Fraction(1), Fraction(4, 4)):
            assert entry.singular(lam=one) == reason
        assert entry.singular(lam=Fraction(2)) is None
        with pytest.raises(TypeError):
            entry.singular(lam=1.0)
        (result,) = run_audit(pattern="ogf_00").results
        assert [s["reason"] for s in result.skipped] == [reason]

    def test_empty_grid_is_config_error(self):
        entry = IdentityEntry(
            id="hollow",
            paper_ref="x",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda *pt: (0, 0),
            grid=lambda spec: iter([(Fraction(1),)]),
            axes=("lam",),
            singular=lambda *pt: "always singular",
        )
        with pytest.raises(ConfigError, match="every grid point is singular"):
            evaluate_entry(entry, AuditConfig())

    @pytest.mark.parametrize("entry", build_registry(), ids=lambda e: e.id)
    def test_sides_share_their_nesting(self, entry):
        # the runner compares sides with !=, under which a list never equals
        # a tuple; at the first active point both sides of every form nest
        # lists and tuples alike, so != compares values, not containers
        def shape(value):
            if isinstance(value, (list, tuple)):
                return type(value), [shape(v) for v in value]
            return None

        pt = next(
            pt
            for pt in entry.grid(AuditConfig().for_entry(entry.id))
            if entry.singular(*pt) is None
        )
        for form in (entry.printed, entry.corrected):
            if form is not None:
                lhs, rhs = form(*pt)
                assert shape(lhs) == shape(rhs)

    @pytest.mark.parametrize(
        "entry_id, builder, builds",
        [
            ("sec6_stirling", "_stirling_values", 81),
            ("sec6_bernoulli", "_sec6_bernoulli_values", 36),
            ("sec6_euler", "_sec6_euler_values", 36),
            ("inP8a", "_inp8a_values", 82),
            ("inP3_4", "_bernoulli_values", 81),
            ("inP5_6", "_euler_values", 81),
            ("yp3_euler_operator", "_euler_operator_r", 216),
            # one row per degree d = m + 1 for m = 0..8
            ("inP1", "_integral01_row", 9),
            ("inP3_4", "_volkenborn_row", 9),
            ("inP5_6", "_fermionic_row", 9),
            # one weight row per m = 0..8
            ("inP1", "_integral_weights", 9),
            ("P1_corollary", "_binomials", 9),
            # (e, n) = (0, 0) before the printed form fails at the first
            # point, then (m + 1, n) for the 81 pairs of the corrected form
            ("inP2", "_riemann_values", 82),
            # one weight row per (n, p, lam) slice of the direct sums, 9 n
            # by 4 p by 7 lam (p - 1 = 0..2 for sec6_stirling); inP2's
            # printed form fails at a point of the first slice
            ("inP2", "_binom_weights", 252),
            ("inP3_4", "_binom_weights", 252),
            ("sec6_stirling", "_binom_weights", 189),
            # and of its power sums, p = 0: 6 upper limits by 6 lam
            ("mirimanoff_frobenius", "_binom_weights", 36),
            # one B(d,k) row per d = 1..6, read at the 13 k of each
            ("CB1_xu", "_bnk_row", 6),
            ("xu_x", "_bnk_row", 6),
            ("fd_ogf", "_bnk_row", 7),
            ("sec6_euler", "_bnk_row", 6),
            # one polynomial per degree or (degree, order) the entry reads
            ("faulhaber", "bernoulli_poly", 8),
            ("inP3_4", "bernoulli_poly", 9),
            ("inP5_6", "euler_poly", 9),
            ("sec6_bernoulli", "bernoulli_poly_order", 36),
            ("sec6_euler", "euler_poly_order", 36),
        ],
    )
    def test_tables_are_built_once_per_evaluation(
        self, monkeypatch, entry_id, builder, builds
    ):
        # on the default grid each table is built once per distinct int
        # key, not once per grid point, and none outlives the evaluation
        build = getattr(registry, builder)
        keys = []

        def counted(*key):
            keys.append(key)
            return build(*key)

        monkeypatch.setattr(registry, builder, counted)
        (entry,) = [e for e in build_registry() if e.id == entry_id]
        result = evaluate_entry(entry, AuditConfig())
        assert result.matches_expected
        assert len(keys) == len(set(keys)) == builds
        assert not registry._TABLES

    def test_direct_calls_keep_no_table(self, monkeypatch):
        # outside evaluate_entry an evaluator builds its tables afresh, so a
        # kernel patched between two direct calls is read by the second
        before = registry._sec6_stirling(m=2, n=3, p=1, lam=1)[1]
        assert not registry._TABLES
        table = registry._STIRLING2
        doubled = SimpleNamespace(row=lambda n: [2 * s for s in table.row(n)])
        monkeypatch.setattr(registry, "_STIRLING2", doubled)
        after = registry._sec6_stirling(m=2, n=3, p=1, lam=1)[1]
        assert after == 2 * before.fraction() != 0
        assert not registry._TABLES

    def test_determinism_modulo_run_metadata(self):
        a = json.loads(render_json(run_audit(pattern="cusick_*")))
        b = json.loads(render_json(run_audit(pattern="cusick_*")))
        for doc in (a, b):
            doc.pop("runId")
            doc.pop("timestamp")
            doc.pop("elapsedSeconds")
        assert a == b

    def test_entries_run_on_the_calling_thread(self, monkeypatch):
        from binomsums.audit import runner as runner_module

        idents = []
        evaluate = runner_module.evaluate_entry

        def recording(entry, config):
            idents.append(threading.get_ident())
            return evaluate(entry, config)

        monkeypatch.setattr(runner_module, "evaluate_entry", recording)
        report = run_audit(pattern="ogf_*", threads=4)
        assert len(idents) == len(report.results) == 4
        assert set(idents) == {threading.get_ident()}

    def test_parallel_matches_serial(self):
        serial = run_audit(pattern="ogf_*", threads=1)
        parallel = run_audit(pattern="ogf_*", threads=4)
        assert [(r.id, r.verdict) for r in serial.results] == [
            (r.id, r.verdict) for r in parallel.results
        ]

    def test_render_formats(self):
        report = run_audit(pattern="chu")
        doc = json.loads(render_json(report))
        assert set(doc) >= {"runId", "gridTotals", "entries"}
        entry = doc["entries"][0]
        assert set(entry) >= {
            "id",
            "paperRef",
            "verdict",
            "expected",
            "points",
            "skipped",
        }
        md = render_markdown(report)
        assert "| chu |" in md
        csv_text = render_csv(report)
        assert csv_text.splitlines()[0].startswith("id,")
        assert "chu,HOLDS_PRINTED" in csv_text

    def test_markdown_lists_every_printed_counterexample(self):
        # each entry whose printed form fails, with the point and both
        # printed sides of its JSON counterexample, and no other entry
        report = run_audit()
        entries = json.loads(render_json(report))["entries"]
        expected = []
        for e in entries:
            if e["verdict"] != Verdict.HOLDS_PRINTED.value:
                found = e["counterexample"]
                expected.append(
                    f"- **{e['id']}** at {found['point']}: "
                    f"lhs = {found['printedLhs']}, rhs = {found['printedRhs']}"
                )
        assert len(expected) == 12
        _, section = render_markdown(report).split("## Printed-form counterexamples\n\n")
        assert section.splitlines() == expected

    def test_config_check_draws_an_unmatched_grid_only_to_its_first_change(
        self, monkeypatch
    ):
        # inP1's grid runs m slowest, so m_max = 2000 first changes a point
        # just past the default grid's last one
        from binomsums.audit import runner as runner_module

        (inp1,) = [e for e in build_registry() if e.id == "inP1"]
        default_points = len(list(inp1.grid(GridSpec())))
        drawn = []

        def counted(spec):
            for pt in inp1.grid(spec):
                drawn.append(pt)
                yield pt

        entries = [
            dataclasses.replace(e, grid=counted) if e is inp1 else e
            for e in build_registry()
        ]
        monkeypatch.setattr(runner_module, "build_registry", lambda: entries)
        config = AuditConfig(overrides={"inP1": GridSpec(m_max=2000)})
        assert run_audit(config, pattern="chu").all_expected
        assert default_points == 2268
        assert len(drawn) <= 2 * default_points + 2


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cusick_diag" in out and "FAILS_BOTH" in out

    def test_run_exit_zero_and_json(self, capsys):
        assert cli.main(["run", "--filter", "chu", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0]["id"] == "chu"

    def test_import_loads_no_thread_pool_or_uuid(self):
        # start-up cost of every CLI process: a run imports no thread pool,
        # whatever --threads says, and the run id needs no uuid module
        code = (
            "import os, sys; before = set(sys.modules); import binomsums.cli; "
            "binomsums.cli.main(['run', '--filter', 'chu', '--threads', '4', "
            "'--out', os.devnull]); "
            "new = set(sys.modules) - before; "
            "print(' '.join(sorted(new & {'concurrent.futures', 'uuid'})))"
        )
        src = str(ROOT / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == ""

    def test_run_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["run", "--filter", "dixon", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["entries"][0]["verdict"] == "HOLDS_PRINTED"

    def test_run_verdict_mismatch_exits_one(self, monkeypatch, capsys):
        from binomsums.audit import runner as runner_module

        lying = IdentityEntry(
            id="lying",
            paper_ref="x",
            expected=Verdict.FAILS_BOTH,
            printed=lambda: (Fraction(1), Fraction(1)),
            grid=lambda spec: iter([{}]),
        )
        monkeypatch.setattr(runner_module, "build_registry", lambda: [lying])
        assert cli.main(["run", "--filter", "lying"]) == 1
        capsys.readouterr()

    def test_a_closed_stdout_keeps_the_verdict_exit(self, monkeypatch, tmp_path, capsys):
        # the reader of stdout has gone: the write stops quietly, stdout's
        # descriptor is pointed at the null device and a mismatch still
        # exits 1, where an unwritable --out exits 2
        from binomsums.audit import runner as runner_module

        lying = IdentityEntry(
            id="lying",
            paper_ref="x",
            expected=Verdict.FAILS_BOTH,
            printed=lambda: (Fraction(1), Fraction(1)),
            grid=lambda spec: iter([()]),
        )
        monkeypatch.setattr(runner_module, "build_registry", lambda: [lying])

        def gone(pieces):
            raise BrokenPipeError(32, "Broken pipe")

        fd = os.open(tmp_path / "stdout", os.O_WRONLY | os.O_CREAT)
        try:
            closed = SimpleNamespace(writelines=gone, fileno=lambda: fd)
            with monkeypatch.context() as mp:
                mp.setattr(sys, "stdout", closed)
                assert cli.main(["run", "--filter", "lying"]) == 1
            assert os.path.samestat(os.fstat(fd), os.stat(os.devnull))
        finally:
            os.close(fd)
        assert capsys.readouterr() == ("", "")
        out = tmp_path / "missing" / "report.json"
        assert cli.main(["run", "--filter", "lying", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_run_unmatched_filter_exits_two(self, tmp_path, capsys):
        assert cli.main(["run", "--filter", "zzz_nothing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        out = tmp_path / "report.json"
        assert cli.main(["run", "--filter", "zzz_nothing", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_run_threads_below_one_exits_two(self, capsys, threads):
        assert cli.main(["run", "--filter", "chu", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threads must be at least 1")

    def test_run_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense without equals\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_run_zero_denominator_lambda_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("m_max = 2\nlambdas = 1/2, 1/0\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error: line 2: bad value for lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", ["1, 1, 2", "1, 2/2"])
    def test_run_repeated_lambda_exits_two(self, tmp_path, capsys, lambdas):
        path = tmp_path / "twice.cfg"
        path.write_text(f"m_max = 2\nlambdas = {lambdas}\n")
        assert cli.main(["run", "--filter", "ogf_01", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: bad value for lambdas: ")

    def test_run_repeated_key_in_a_section_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("[chu]\nm_max = 2\nm_max = 3\n")
        assert cli.main(["run", "--filter", "chu", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: key 'm_max' given twice\n"

    def test_run_repeated_section_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("[chu]\nn_max = 3\n[dixon]\nn_max = 2\n[chu]\nm_max = 2\n")
        assert cli.main(["run", "--filter", "chu", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 5: section [chu] given twice\n"

    @pytest.mark.parametrize("entry", ["chu", "dixon", "xu_x", "fd_ogf", "ogf_12"])
    def test_run_section_for_a_fixed_grid_exits_two(self, tmp_path, capsys, entry):
        # a fixed grid never reads its GridSpec, so no key of its section
        # changes a point
        path = tmp_path / "fixed.cfg"
        path.write_text(f"n_max = 4\n[{entry}]\nn_max = 3\n")
        assert cli.main(["run", "--filter", entry, "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: config overrides that change no grid point: [{entry}] n_max\n"
        )

    @pytest.mark.parametrize("entry, key", ENTRY_KEYS)
    def test_run_section_key_is_accepted_exactly_when_it_changes_the_points(
        self, tmp_path, capsys, entry, key
    ):
        value, default = OTHER_VALUE[key], GridSpec()
        assert value != getattr(default, key)
        changed = default._replace(**{key: value})
        moves = list(entry.grid(changed)) != list(entry.grid(default))
        text = ", ".join(map(str, value)) if key == "lambdas" else str(value)
        path = tmp_path / "one_key.cfg"
        path.write_text(f"[{entry.id}]\n{key} = {text}\n")
        code = cli.main(["run", "--filter", entry.id, "--config", str(path)])
        captured = capsys.readouterr()
        if moves:
            assert (code, captured.err) == (0, "")
        else:
            assert (code, captured.out) == (2, "")
            assert captured.err == (
                f"error: config overrides that change no grid point: [{entry.id}] {key}\n"
            )

    def test_run_names_every_idle_override_before_any_entry_runs(self, tmp_path, capsys):
        # sections the filter does not match are checked too, and a section
        # that only repeats a top-level value differs in no key
        path = tmp_path / "idle.cfg"
        path.write_text(
            "n_max = 4\n[y6G]\nm_max = 3\n[CC2]\np_max = 1\nm_max = 3\n"
            "[sec6_bernoulli]\nn_max = 4\n"
        )
        assert cli.main(["run", "--filter", "golombek", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: config overrides that change no grid point: "
            "[CC2] p_max, [sec6_bernoulli], [y6G] m_max\n"
        )

    @pytest.mark.parametrize("entry_id, key", [("chu", "n_max"), ("CC2", "p_max")])
    def test_run_audit_refuses_an_idle_section_under_the_tracer(self, entry_id, key):
        # the tracer replaces each entry's grid by a wrapper of its own
        original = next(e.grid for e in build_registry() if e.id == entry_id)
        config = AuditConfig(overrides={entry_id: GridSpec(**{key: OTHER_VALUE[key]})})
        tr = tracer.Tracer()
        try:
            tr.install()
            traced = next(e.grid for e in audit.runner.build_registry() if e.id == entry_id)
            assert traced is not original
            with pytest.raises(ConfigError, match=rf"\[{entry_id}\] {key}$"):
                audit.runner.run_audit(config, pattern=entry_id)
        finally:
            tr.uninstall()
        assert audit.runner.build_registry is registry.build_registry

    def test_readme_config_example_runs(self, tmp_path, capsys):
        readme = (ROOT / "README.md").read_text(encoding="utf-8")
        (example,) = re.findall(r"```ini\n(.*?)```", readme, re.S)
        path = tmp_path / "readme.cfg"
        path.write_text(example)
        assert cli.main(["run", "--config", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)["gridTotals"]["mismatches"] == 0

    def test_run_huge_grid_bound_exits_two(self, tmp_path, capsys):
        # a bound past a C index must be refused as configuration, not end
        # in a traceback with the verdict-mismatch code
        path = tmp_path / "huge.cfg"
        path.write_text("n_max = 3\nm_max = 99999999999999999999999\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: bad value for m_max: ")
        assert "Traceback" not in captured.err

    def test_run_apostol_powersum_at_lambda_zero(self, tmp_path, capsys):
        path = tmp_path / "lam.cfg"
        path.write_text("lambdas = 0, 2\n")
        argv = ["run", "--filter", "apostol_powersum", "--config", str(path)]
        assert cli.main([*argv, "--format", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["verdict"] == "HOLDS_CORRECTED_ONLY"
        assert entry["skipped"] == []

    @pytest.mark.parametrize("bound", ["m_max = -1", "p_max = -3"])
    def test_run_empty_grid_exits_two(self, tmp_path, capsys, bound):
        path = tmp_path / "empty.cfg"
        path.write_text(bound + "\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(": grid is empty\n")
        assert "skip" not in err and "singular" not in err

    def test_seq_csv(self, capsys):
        assert cli.main(["seq", "franel", "--range", "0..4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,2", "2,10", "3,56", "4,346"]

    def test_seq_daehee(self, capsys):
        assert cli.main(["seq", "daehee", "--range", "0..3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,-1/2", "2,2/3", "3,-3/2"]

    @pytest.mark.parametrize(
        "family, closed_form",
        [
            ("daehee", lambda n: Fraction((-1) ** n * factorial(n), n + 1)),
            ("changhee", lambda n: Fraction((-1) ** n * factorial(n), 2**n)),
        ],
        ids=["daehee", "changhee"],
    )
    def test_seq_daehee_changhee_closed_forms(self, family, closed_form, capsys):
        out = _seq_output([family, "--range", "0..200"], capsys)
        expected = "".join(f"{n},{closed_form(n)}\n" for n in range(201))
        assert out == "n,value\n" + expected

    def test_seq_bnk_geometric_row(self, capsys):
        code = cli.main(
            ["seq", "bnk", "--params", "d=0", "--range", "0..4"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,2", "2,4", "3,8", "4,16"]

    def test_seq_json_fraction_params(self, capsys):
        code = cli.main(
            [
                "seq",
                "y6",
                "--params",
                "m=1,lam=-1/2,p=2",
                "--range",
                "0..2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["lam"] == "-1/2"
        assert [v["value"] for v in doc["values"]] == ["0", "-1/2", "-3/4"]

    def test_seq_missing_required_param_exits_two(self, tmp_path, capsys):
        _seq_refused(["bnk", "--range", "0..3"], tmp_path, capsys)

    @pytest.mark.parametrize(
        "argv",
        [["seq"], ["seq", "--range", "0..3"], ["seq", "--family", "franel"]],
        ids=["bare", "range-only", "family-option"],
    )
    def test_seq_family_is_a_required_positional(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: audit")
        assert "family" in err

    @pytest.mark.parametrize("params", ["=3", " =1/2", "m=1,=3"])
    def test_seq_empty_param_key_exits_two(self, params, capsys):
        assert cli.main(["seq", "y6", "--params", params, "--range", "0..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = params.split(",")[-1]
        assert captured.err == f"error: expected key=value, got {bad!r}\n"

    @pytest.mark.parametrize(
        "params", [["m=0,m=1"], ["m=0", "m=1"]], ids=["one-item", "two-items"]
    )
    def test_seq_repeated_param_exits_two(self, params, capsys):
        argv = ["seq", "y6", "--range", "0..2"]
        for item in params:
            argv += ["--params", item]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter 'm' given twice\n"

    def test_seq_bad_range_exits_two(self, tmp_path, capsys):
        _seq_refused(["catalan", "--range", "5..1"], tmp_path, capsys)

    @pytest.mark.parametrize(
        "argv",
        [
            ["franel", "--range=-1..1"],
            ["moment", "--range=-1..1"],
            ["bnk", "--params", "d=2", "--range=-1..2"],
        ],
        ids=["franel", "moment", "bnk"],
    )
    def test_seq_negative_index_names_the_index(self, argv, tmp_path, capsys):
        err = _seq_refused(argv, tmp_path, capsys)
        assert err == "error: indices must be >= 0\n"

    @pytest.mark.parametrize("family", ["catalan", "daehee", "changhee"])
    def test_seq_negative_start_of_a_classic_family_exits_two(self, family, capsys):
        # the range kernel checks its first index before it yields a term,
        # so no row is written under a shifted label
        assert cli.main(["seq", family, "--range=-1..3"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: n must be >= 0\n"

    @pytest.mark.parametrize(
        "family, params",
        [
            ("bnk", "d=2,x=3"),
            ("y6", "lamb=1/2"),
            ("franel", "d=1"),
            ("moment", "lam=2"),
            ("catalan", "p=1"),
        ],
    )
    def test_seq_unknown_param_exits_two(self, family, params, capsys):
        assert cli.main(["seq", family, "--params", params, "--range", "0..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {family} takes no parameter ")

    def test_seq_deterministic_bytes(self, capsys):
        cli.main(["seq", "changhee", "--range", "0..6"])
        first = capsys.readouterr().out
        cli.main(["seq", "changhee", "--range", "0..6"])
        assert capsys.readouterr().out == first


def _seq_refused(argv: list[str], tmp_path, capsys) -> str:
    """Run a refused ``audit seq`` request to stdout and with ``--out``:
    each exits 2 and writes nothing.  Returns the first run's stderr."""
    assert cli.main(["seq", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    out = tmp_path / "refused.csv"
    assert cli.main(["seq", *argv, "--out", str(out)]) == 2
    assert capsys.readouterr() == ("", captured.err)
    assert not out.exists()
    return captured.err


def _seq_output(argv: list[str], capsys) -> str:
    assert cli.main(["seq", *argv]) == 0
    return capsys.readouterr().out


def _per_term_text(
    family: str, fmt: str, rng: range, params: dict, values: list
) -> str:
    """``audit seq`` output rendered from values computed term by term, by
    the formatter it had before it streamed: every row first, then one
    ``"\\n".join`` or one ``json.dumps``."""
    rows = list(zip(rng, values))
    if fmt == "json":
        doc = {
            "family": family,
            "params": {k: str(v) for k, v in params.items()},
            "values": [{"n": n, "value": str(v)} for n, v in rows],
        }
        return json.dumps(doc, indent=2) + "\n"
    lines = ["n,value"] + [f"{n},{v}" for n, v in rows]
    return "\n".join(lines) + "\n"


def _count_unrolls(monkeypatch) -> list:
    """The rows ``y6_engine`` unrolls from now on, in call order."""
    rows = []
    kernel = y6_engine.unroll
    monkeypatch.setattr(
        y6_engine,
        "unroll",
        lambda row, *args: rows.append((row.p, row.x)) or kernel(row, *args),
    )
    return rows


def _direct(family: str, params: dict):
    """n -> the family's value by its own direct-sum function, with the
    defaults ``audit seq`` applies."""
    m, lam = int(params.get("m", 0)), params.get("lam", Fraction(1))
    if family == "y6":
        return lambda n: y6(m, n, lam, int(params.get("p", 2)))
    if family == "franel":
        return lambda n: franel(int(params.get("p", 3)), m, n, lam)
    return lambda n: moment(m, int(params.get("p", 2)), n)


def _seq_matches_the_direct_sum(family, params_text, lo, hi, fmt, capsys):
    argv = [family, "--range", f"{lo}..{hi}", "--format", fmt]
    if params_text:
        argv += ["--params", params_text]
    params = cli._parse_params([params_text])
    rng = range(lo, hi + 1)
    expected = [_direct(family, params)(n) for n in rng]
    expected_text = _per_term_text(family, fmt, rng, params, expected)
    assert _seq_output(argv, capsys) == expected_text


class TestSeqRecurrences:
    """``audit seq`` y6, franel and moment unroll the certified row that
    ``recurrences.row_for`` picks; the bytes must be those of the direct sum
    evaluated term by term, for every lam and from any start."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize("lam", ["0", "1", "-1", "2", "1/2", "5/11", "-7/13"])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_bytes_match_the_direct_sum(self, p, lam, fmt, monkeypatch, capsys):
        rows = _count_unrolls(monkeypatch)
        families = [
            ("y6", f"m={{m}},lam={lam},p={p}"),
            ("franel", f"p={p},m={{m}},lam={lam}"),
        ]
        if lam == "1":
            families.append(("moment", f"m={{m}},p={p}"))
        for m in range(5):
            for lo, hi in [(0, 30), (250, 260)]:
                for family, params in families:
                    _seq_matches_the_direct_sum(
                        family, params.format(m=m), lo, hi, fmt, capsys
                    )
        expected = {(p, None): 10 * len(families)}
        if (p, lam) == (3, "1"):  # at m = 0 the row at x = 1 serves
            expected = {(3, None): 8 * len(families), (3, 1): 2 * len(families)}
        assert Counter(rows) == expected

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "lo, hi, p", [(0, 600, 3), (250, 260, 3), (0, 200, 4)]
    )
    def test_franel_numbers_take_the_row_at_one(
        self, lo, hi, p, fmt, monkeypatch, capsys
    ):
        rows = _count_unrolls(monkeypatch)
        _seq_matches_the_direct_sum("franel", f"p={p}", lo, hi, fmt, capsys)
        assert rows == [(p, 1)]

    @pytest.mark.parametrize(
        "family, params, row",
        [
            ("franel", "", (3, 1)),
            ("franel", "m=1", (3, None)),
            ("franel", "p=1,lam=-7/13", (1, None)),
            ("y6", "p=4", (4, 1)),
            ("y6", "p=3,lam=2/2", (3, 1)),
            ("y6", "m=3,p=3,lam=5/11", (3, None)),
            ("y6", "", (2, None)),
            ("moment", "p=4", (4, 1)),
            ("moment", "m=2,p=1", (1, None)),
        ],
    )
    def test_each_slice_with_a_row_takes_it(
        self, family, params, row, monkeypatch, capsys
    ):
        rows = _count_unrolls(monkeypatch)
        _seq_matches_the_direct_sum(family, params, 0, 30, "csv", capsys)
        assert rows == [row]

    @pytest.mark.parametrize(
        "family, params",
        [
            ("franel", "p=0"),
            ("franel", "p=5"),
            ("franel", "p=4,m=1"),
            ("franel", "p=4,lam=2"),
            ("y6", "p=0,lam=5/11"),
            ("y6", "m=2,lam=-7/13,p=6"),
            ("y6", "p=4,lam=1/2"),
            ("moment", "m=1,p=4"),
            ("moment", "p=5"),
        ],
    )
    def test_other_slices_take_the_direct_sum(
        self, family, params, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("a recurrence used outside its rows")

        monkeypatch.setattr(y6_engine, "unroll", refuse)
        _seq_matches_the_direct_sum(family, params, 0, 30, "csv", capsys)

    def test_lambda_one_is_read_from_its_integer_parts(self, monkeypatch):
        rows = _count_unrolls(monkeypatch)
        rng = range(0, 8)
        expected = [franel(3, 0, n, Fraction(1)) for n in rng]
        for one in (1, Fraction(1), Fraction(4, 4)):
            assert list(y6_engine.franel_range(3, 0, one, rng)) == expected
        assert rows == [(3, 1)] * 3
        with pytest.raises(TypeError):
            y6_engine.franel_range(3, 0, 1.0, rng)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["y6", "--range=-1..2"], "indices must be >= 0"),
            (["y6", "--params", "m=-1"], "indices must be >= 0"),
            (["y6", "--params", "p=-2,lam=1/2"], "indices must be >= 0"),
            (["franel", "--params", "m=-1"], "indices must be >= 0"),
            (["franel", "--params", "p=-3"], "indices must be >= 0"),
            (["moment", "--params", "m=-2,p=3"], "indices must be >= 0"),
            (["y6", "--params", "lam=nan"], "not a rational number: 'nan'"),
            (["franel", "--params", "p=3/2"], "parameter 'p' must be an integer"),
        ],
    )
    def test_refusals_keep_their_message(self, argv, message, capsys):
        assert cli.main(["seq", *argv]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_a_late_window_holds_no_earlier_term(self, capsys):
        # franel(3, 0, n, 1) has about 3n bits: the 4,000 terms before the
        # window would take about 3 MB, the six in it about 9 kB
        tracemalloc.start()
        try:
            assert cli.main(["seq", "franel", "--range", "4000..4005"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out = capsys.readouterr().out.splitlines()
        assert out[1] == f"4000,{y6_engine._y6(0, 4000, 1, 1, 3)}"
        assert peak < 512 * 1024


class TestSeqStreaming:
    """``audit seq`` writes each row as the family yields it, in the bytes of
    the formatter that held every row first."""

    @pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "family, params_text, lo, hi",
        [
            ("bnk", "d=3", 0, 40),
            ("bnk", "d=0", 7, 7),
            ("y6", "", 0, 30),
            ("y6", "m=3,p=3,lam=5/11", 12, 40),
            ("moment", "", 5, 5),
            ("moment", "m=2,p=3", 0, 30),
            ("catalan", "", 0, 30),
            ("catalan", "", 9, 9),
            ("daehee", "", 3, 30),
            ("changhee", "", 0, 0),
            ("changhee", "", 0, 30),
            ("franel", "p=3,lam=1/2", 10, 40),
            ("franel", "", 5000, 5000),
        ],
    )
    def test_bytes_match_the_joined_text(
        self, family, params_text, lo, hi, fmt, to_file, tmp_path, capsys
    ):
        params = cli._parse_params([params_text])
        rng = range(lo, hi + 1)
        values = list(cli._SEQ_FAMILIES[family][1](rng, params))
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)  # franel(5000) has about 4,500 digits
        try:
            expected = _per_term_text(family, fmt, rng, params, values)
        finally:
            sys.set_int_max_str_digits(previous)
        argv = ["seq", family, "--range", f"{lo}..{hi}", "--format", fmt]
        if params_text:
            argv += ["--params", params_text]
        out = tmp_path / "seq.txt"
        if to_file:
            argv += ["--out", str(out)]
        assert cli.main(argv) == 0
        captured = capsys.readouterr().out
        if to_file:
            assert (captured, out.read_text(encoding="utf-8")) == ("", expected)
        else:
            assert captured == expected and not out.exists()

    def test_a_failure_after_the_first_row_keeps_the_rows_written(
        self, tmp_path, monkeypatch, capsys
    ):
        def terms(rng, ps):
            yield from (1, 2)
            raise MemoryError

        monkeypatch.setitem(cli._SEQ_FAMILIES, "catalan", ((), terms))
        out = tmp_path / "seq.csv"
        assert cli.main(["seq", "catalan", "--range", "0..5", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: out of memory")
        assert out.read_text() == "n,value\n0,1\n1,2\n"

    @pytest.mark.parametrize(
        "params, top, share",
        [
            # the row at lam = 1: franel(3, 0, n, 1) has about 3n bits, so
            # the 3,001 rows take about 4 MB of text
            ("", 3000, 1 / 4),
            # the direct sum, which no row serves at p = 5: its 401 rows take
            # 121 kB of text, and the y6 memo once kept every term
            ("p=5", 400, 1),
        ],
        ids=["row", "direct"],
    )
    def test_rows_are_not_held(self, params, top, share, tmp_path):
        # written as they come, a few terms are live; a short range first
        # takes the one-time allocations and a row's seeds out of the count
        out = tmp_path / "franel.csv"
        argv = ["seq", "franel", "--params", params, "--out", str(out)]
        assert cli.main([*argv, "--range", "0..1"]) == 0
        # misses as well as entries: a full memo keeps its size as it fills
        memo = y6_engine._y6.cache_info()
        tracemalloc.start()
        try:
            assert cli.main([*argv, "--range", f"0..{top}"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < out.stat().st_size * share
        info = y6_engine._y6.cache_info()
        assert (info.misses, info.currsize) == (memo.misses, memo.currsize)


class TestSeqDigitLimit:
    """Values past CPython's 4,300-digit int -> str limit print in full, and
    the limit is restored afterwards."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["franel", "--range", "4800..4800"],
                lambda: franel(3, 0, 4800, Fraction(1)),
            ),
            (
                ["y6", "--range", "3000..3000", "--params", "p=3,lam=5/11"],
                lambda: y6(0, 3000, Fraction(5, 11), 3),
            ),
        ],
        ids=["franel", "y6"],
    )
    def test_large_values_print_and_limit_is_restored(self, argv, expected, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4000)
        try:
            out = _seq_output(argv, capsys)
            assert sys.get_int_max_str_digits() == 4000
            sys.set_int_max_str_digits(0)
            value = expected()
            assert len(str(value)) > 4300
            n = argv[2].partition("..")[0]
            assert out == f"n,value\n{n},{value}\n"
        finally:
            sys.set_int_max_str_digits(previous)
