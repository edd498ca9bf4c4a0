"""Non-vacuity of the pinned verdicts.

For every entry with a holding form, the evaluator of that form is wrapped
so that it adds 1 to the first leaf of one side at the first active grid
point. A ``HOLDS_PRINTED`` entry must then stop reporting
``HOLDS_PRINTED``, and a ``HOLDS_CORRECTED_ONLY`` entry must report
``FAILS_BOTH``. The runner stops at the first failing point, so each case
evaluates only the points before the perturbed one.
"""

from __future__ import annotations

from dataclasses import replace
from fractions import Fraction

import pytest

from binomsums import classic_numbers, exact_core, hypergeom, p_polynomials, y6_engine
from binomsums.audit import (
    AuditConfig,
    GridSpec,
    Verdict,
    build_registry,
    evaluate_entry,
    registry,
    run_audit,
)
from binomsums.exact_core import EgfSeries, Poly

HOLDING = [e for e in build_registry() if e.expected is not Verdict.FAILS_BOTH]


def _bump(value):
    """Add 1 to the first leaf; lists and tuples recurse into element 0."""
    if isinstance(value, (Fraction, int, Poly)):
        return value + 1
    if isinstance(value, (list, tuple)) and value:
        return type(value)([_bump(value[0]), *value[1:]])
    raise TypeError(f"cannot perturb {value!r}")


def _perturbed(evaluator, first: dict, side: int):
    def wrapped(**pt):
        sides = list(evaluator(**pt))
        if pt == first:
            sides[side] = _bump(sides[side])
        return tuple(sides)

    return wrapped


@pytest.mark.parametrize("side", [0, 1], ids=["lhs", "rhs"])
@pytest.mark.parametrize("entry", HOLDING, ids=lambda e: e.id)
def test_perturbed_side_flips_the_verdict(entry, side):
    config = AuditConfig()
    first = next(
        pt
        for pt in entry.grid(config.for_entry(entry.id))
        if entry.singular(**pt) is None
    )
    if entry.expected is Verdict.HOLDS_PRINTED:
        mutant = replace(entry, printed=_perturbed(entry.printed, first, side))
        assert evaluate_entry(mutant, config).verdict is not Verdict.HOLDS_PRINTED
    else:
        mutant = replace(entry, corrected=_perturbed(entry.corrected, first, side))
        assert evaluate_entry(mutant, config).verdict is Verdict.FAILS_BOTH


def test_holding_forms_cover_both_pinned_kinds():
    kinds = {e.expected for e in HOLDING}
    assert kinds == {Verdict.HOLDS_PRINTED, Verdict.HOLDS_CORRECTED_ONLY}
    assert len(HOLDING) == 48


@pytest.mark.parametrize("value", [[], (), "1", 1.0, EgfSeries.exp(1, 2)])
def test_bump_rejects_empty_sides_and_unknown_leaves(value):
    with pytest.raises(TypeError):
        _bump([value])


def _clear_number_caches():
    for fn in vars(classic_numbers).values():
        if hasattr(fn, "cache_clear"):
            fn.cache_clear()


SMALL = AuditConfig(default=GridSpec(m_max=4, n_max=4, p_max=2))


@pytest.fixture(scope="module")
def clean_audit():
    # a clean audit first fills every memo and table it can, so a fault
    # test below sees the same flips whichever tests ran before it
    assert run_audit(SMALL).all_expected


def test_corrupted_stirling_table_flips_the_moment_functionals(
    monkeypatch, clean_audit
):
    # S(n,1) + 1 in every second-kind row corrupts the Bernoulli and Euler
    # numbers and polynomials; the functionals integrate p_poly through its
    # Mahler expansion, so the moment identities must stop holding
    def next_row(row, n):
        out = classic_numbers._stirling2_next(row, n)
        out[1] += 1
        return out

    entries = {e.id: e for e in build_registry()}
    try:
        with monkeypatch.context() as mp:
            corrupted = classic_numbers._Triangle(next_row)
            mp.setattr(classic_numbers, "_STIRLING2", corrupted)
            _clear_number_caches()
            verdicts = {
                name: evaluate_entry(entries[name], SMALL).verdict
                for name in ("inP3_4", "inP5_6", "faulhaber")
            }
    finally:
        _clear_number_caches()
    assert verdicts == dict.fromkeys(verdicts, Verdict.FAILS_BOTH)


def test_faulty_int_values_flips_the_moment_entries(monkeypatch, clean_audit):
    # _int_values gives both the Mahler values of p_poly and the values of
    # B_m/E_m at j on the two sides of inP3_4/inP5_6, and the inner sums of
    # the Section 6 double sums: q(1) off by one must fail them, not cancel
    def off_at_one(q, count):
        values = exact_core._int_values(q, count)
        if count > 1:
            values[1] += q.den
        return values

    entries = {e.id: e for e in build_registry()}
    monkeypatch.setattr(p_polynomials, "_int_values", off_at_one)
    monkeypatch.setattr(registry, "_int_values", off_at_one)
    names = ("inP3_4", "inP5_6", "sec6_bernoulli", "sec6_euler")
    verdicts = {name: evaluate_entry(entries[name], SMALL).verdict for name in names}
    assert verdicts == dict.fromkeys(names, Verdict.FAILS_BOTH)


def test_faulty_y6_kernel_flips_its_consumers(monkeypatch, clean_audit):
    # S = n! b^n y6 off by one at (m, n) = (1, 2) reaches the entries that
    # read y6, franel, moment or the registry's own _y6 sums; their other
    # sides (p_poly, _binom_sum, closed forms) must not share the fault
    kernel = y6_engine._y6

    def off_at_one_two(m, n, a, b, p):
        return kernel(m, n, a, b, p) + ((m, n) == (1, 2))

    entries = {e.id: e for e in build_registry()}
    monkeypatch.setattr(y6_engine, "_y6", off_at_one_two)
    monkeypatch.setattr(registry, "_y6", off_at_one_two)
    names = (
        "golombek",
        "CC2",
        "altStirling",
        "Cab3",
        "y6G",
        "cusick_sym",
        "py6ab",
        "inP1",
        "inP8a",
        "P1_corollary",
        "sec6_stirling",
        "sec6_bernoulli",
        "sec6_euler",
        "yp3_euler_operator",
    )
    verdicts = {name: evaluate_entry(entries[name], SMALL).verdict for name in names}
    assert verdicts == dict.fromkeys(names, Verdict.FAILS_BOTH)


def test_faulty_binom_sum_flips_its_consumers(monkeypatch, clean_audit):
    # _binom_sum off by 1/den at n = 2 reaches the Riemann, Mahler and
    # Section 6 sums and, at p = 0, the four power sums; their other sides
    # (p_poly, y6 and the closed forms) must not share the fault
    kernel = registry._binom_sum

    def off_at_two(n, p, a, b, values, den):
        value = kernel(n, p, a, b, values, den)
        return value + Fraction(1, den) if n == 2 else value

    monkeypatch.setattr(registry, "_binom_sum", off_at_two)
    flipped = {
        e.id: verdict
        for e in build_registry()
        if (verdict := evaluate_entry(e, SMALL).verdict) is not e.expected
    }
    names = (
        "inP2",
        "inP8a",
        "inP3_4",
        "inP5_6",
        "sec6_stirling",
        "sec6_bernoulli",
        "sec6_euler",
        "faulhaber",
        "apostol_powersum",
        "alt_euler_sum",
        "mirimanoff_frobenius",
    )
    assert flipped == dict.fromkeys(names, Verdict.FAILS_BOTH)


def test_faulty_pfq_flips_every_pfq_consumer(monkeypatch, clean_audit):
    # y6bb and the Franel entries all take their pFq side from
    # hypergeom.pfq_terminating, through y6_hyper; 2v + 1 cannot cancel
    kernel = hypergeom.pfq_terminating
    monkeypatch.setattr(hypergeom, "pfq_terminating", lambda spec: 2 * kernel(spec) + 1)
    flipped = {
        e.id
        for e in build_registry()
        if evaluate_entry(e, SMALL).verdict is not e.expected
    }
    assert flipped == {"y6bb", "franel3", "franel4"}
