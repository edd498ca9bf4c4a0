"""Non-vacuity of the pinned verdicts.

For every entry with a holding form, the evaluator of that form is wrapped
so that it adds 1 to the first leaf of one side at the first active grid
point. A ``HOLDS_PRINTED`` entry must then stop reporting
``HOLDS_PRINTED``, and a ``HOLDS_CORRECTED_ONLY`` entry must report
``FAILS_BOTH``. The runner stops at the first failing point, so each case
evaluates only the points before the perturbed one.

Each fault test replaces one kernel by a faulty copy wherever a module
binds it and pins every entry whose verdict then changes on a small grid:
the fault must reach the entries that read the kernel, and no two sides
may share it and cancel.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from dataclasses import replace
from fractions import Fraction
from math import factorial

import pytest

from binomsums import classic_numbers, exact_core, hypergeom, p_polynomials, y6_engine
from binomsums.audit import (
    AuditConfig,
    GridSpec,
    Verdict,
    build_registry,
    evaluate_entry,
    registry,
    runner,
)
from binomsums.exact_core import Poly, _Unreduced, _UnreducedPoly
from binomsums.y6_engine import RationalFunction

HOLDING = [e for e in build_registry() if e.expected is not Verdict.FAILS_BOTH]


def _bump(value):
    """Add 1 to the first leaf; lists and tuples recurse into element 0.
    A quotient num/den becomes (num + den)/den, and an unreduced polynomial
    gains den in nums[0], 1 in its constant term."""
    if isinstance(value, (Fraction, int, Poly)):
        return value + 1
    if isinstance(value, _Unreduced):
        return _Unreduced(value.num + value.den, value.den)
    if isinstance(value, _UnreducedPoly):
        nums = list(value.nums) or [0]
        nums[0] += value.den
        return _UnreducedPoly(nums, value.den)
    if isinstance(value, (list, tuple)) and value:
        return type(value)([_bump(value[0]), *value[1:]])
    raise TypeError(f"cannot perturb {value!r}")


def _perturbed(evaluator, first: tuple, side: int):
    def wrapped(*pt):
        sides = list(evaluator(*pt))
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
        if entry.singular(*pt) is None
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


@pytest.mark.parametrize(
    "value", [[], (), "1", 1.0, RationalFunction(Poly([1]), Poly([1]))]
)
def test_bump_rejects_empty_sides_and_unknown_leaves(value):
    with pytest.raises(TypeError):
        _bump([value])


SMALL = AuditConfig(default=GridSpec(m_max=4, n_max=4, p_max=2))


def _modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if name == "binomsums" or name.startswith("binomsums.")
    ]


def _clear_memos():
    for mod in _modules():
        for obj in vars(mod).values():
            if hasattr(obj, "cache_clear"):
                obj.cache_clear()


@contextmanager
def _faulted(monkeypatch, owner, name, fault):
    """Inside the block, ``owner.name`` is ``fault(owner.name)`` wherever a
    loaded ``binomsums`` module binds the original. Every memo is cleared
    before and after, so none hides the fault or keeps a faulty value."""
    original = getattr(owner, name)
    faulty = fault(original)
    _clear_memos()
    try:
        with monkeypatch.context() as mp:
            for mod in _modules():
                for attr, obj in list(vars(mod).items()):
                    if obj is original:
                        mp.setattr(mod, attr, faulty)
            yield
    finally:
        _clear_memos()


def _flipped(monkeypatch, owner, name, fault):
    """{id: verdict} of every entry whose verdict on ``SMALL`` changes
    under the fault."""
    with _faulted(monkeypatch, owner, name, fault):
        return {
            e.id: verdict
            for e in build_registry()
            if (verdict := evaluate_entry(e, SMALL).verdict) is not e.expected
        }


def _fails(names: str):
    """Every entry in the space-separated ``names`` at ``FAILS_BOTH``."""
    return dict.fromkeys(names.split(), Verdict.FAILS_BOTH)


def test_corrupted_stirling_table_flips_every_number_family(monkeypatch):
    # S(n,1) + 1 in every second-kind row corrupts S(n,k) and what is built
    # on it: the Bernoulli, Euler, Apostol and Frobenius-Euler numbers and
    # polynomials and the t polynomials; inP3_4 and inP5_6 flip through the
    # B_m and E_m values on their right sides (their left sides take moment
    # rows, which no Stirling number builds)
    def corrupted(table):
        def next_row(row, n):
            out = classic_numbers._stirling2_next(row, n)
            out[1] += 1
            return out

        return classic_numbers._Triangle(next_row)

    flipped = _flipped(monkeypatch, classic_numbers, "_STIRLING2", corrupted)
    assert flipped == _fails(
        "Bs1 Caa3 altStirling alt_euler_sum apostol_powersum boyadzhiev "
        "catalan_CN changhee_theorem faulhaber fd_ogf inP3_4 inP5_6 "
        "legendre_P0 mirimanoff_frobenius sec6_bernoulli sec6_euler "
        "sec6_stirling tpoly xu_x"
    )


def test_corrupted_first_kind_table_flips_its_readers(monkeypatch):
    # s(n,1) + 1 in every first-kind row corrupts s(n,k) and what is built
    # on it: the m_v of CB1_xu, the t polynomials, the Daehee and Changhee
    # sums (catalan_CN, legendre_P0 and changhee_theorem), the
    # order-k Bernoulli polynomials (sec6_bernoulli) and the Bernoulli
    # polynomials behind faulhaber's and inP3_4's closed sides
    def corrupted(table):
        def next_row(row, n):
            out = classic_numbers._stirling1_next(row, n)
            out[1] += 1
            return out

        return classic_numbers._Triangle(next_row)

    flipped = _flipped(monkeypatch, classic_numbers, "_STIRLING1", corrupted)
    assert flipped == _fails(
        "CB1_xu catalan_CN changhee_theorem faulhaber inP3_4 legendre_P0 "
        "sec6_bernoulli tpoly xu_x"
    )


def test_faulty_int_values_flips_the_moment_entries(monkeypatch):
    # _int_values gives the values of B_m/E_m at j on the right sides of
    # inP3_4/inP5_6, whose left sides take moment rows and no _int_values,
    # and the inner sums of the Section 6 double sums: q(1) off by one must
    # fail them
    def off_at_one(kernel):
        def faulty(q, count):
            values = kernel(q, count)
            if count > 1:
                values[1] += q.den
            return values

        return faulty

    flipped = _flipped(monkeypatch, exact_core, "_int_values", off_at_one)
    assert flipped == _fails("inP3_4 inP5_6 sec6_bernoulli sec6_euler")


def test_faulty_horner_flips_every_polynomial_value(monkeypatch):
    # _poly_at is the one Horner: Poly.__call__, _int_values (the B_m, E_m
    # and Section 6 value tables), P1_corollary's p_poly(1) and
    # yp3_euler_operator's r polynomial all evaluate through it, so
    # v -> 2v + 1 must fail every entry that evaluates a polynomial on one
    # side only
    def doubled(kernel):
        def faulty(q, a, b):
            v = kernel(q, a, b)
            return _Unreduced(2 * v.num + v.den, v.den)

        return faulty

    flipped = _flipped(monkeypatch, exact_core, "_poly_at", doubled)
    assert flipped == _fails(
        "Caa3 P1_corollary alt_euler_sum apostol_powersum changhee_theorem "
        "faulhaber inP3_4 inP5_6 legendre_P0 legendre_P2 mirimanoff_frobenius "
        "sec6_bernoulli sec6_euler tpoly yp3_euler_operator"
    )


def _off_on_x(builder):
    # mu_1 + 1: the functional's value on x is off by 1/den
    def faulty(d):
        mu, den = builder(d)
        return [mu[0], mu[1] + 1, *mu[2:]] if d > 1 else mu, den

    return faulty


@pytest.mark.parametrize(
    "owner, builder, flips",
    [
        (exact_core, "_integral01_row", "inP1 inP2"),
        (p_polynomials, "_volkenborn_row", "inP3_4"),
        (p_polynomials, "_fermionic_row", "inP5_6"),
    ],
)
def test_faulty_moment_row_flips_the_entries_that_read_it(
    monkeypatch, owner, builder, flips
):
    # a moment row gives the left sides of its entries only; the right sides
    # (y6 sums, Riemann sums, Bernoulli and Euler values) never build it
    flipped = _flipped(monkeypatch, owner, builder, _off_on_x)
    assert flipped == _fails(flips)


def _off_at_one_two(kernel):
    def faulty(m, n, a, b, p):
        return kernel(m, n, a, b, p) + ((m, n) == (1, 2))

    return faulty


def _off_at_one_of_row_two(kernel):
    def faulty(n, a, b, p, top):
        row = kernel(n, a, b, p, top)
        return (row[0], row[1] + 1, *row[2:]) if n == 2 else row

    return faulty


def test_faulty_y6_kernel_flips_its_consumers(monkeypatch):
    # S = n! b^n y6 off by one at (m, n) = (1, 2), in the scalar kernel or in
    # the row kernel, reaches the entries that read it: the scalar one through
    # y6, franel, moment and the registry's single values, the row one through
    # the registry's sums over m; their other sides (p_poly, _binom_sum,
    # _moment_row, closed forms) must not share the fault
    scalar = _flipped(monkeypatch, y6_engine, "_y6", _off_at_one_two)
    assert scalar == _fails(
        "CC2 Cab3 altStirling cusick_sym golombek sec6_bernoulli sec6_euler "
        "sec6_stirling yp3_euler_operator"
    )
    row = _flipped(monkeypatch, y6_engine, "_y6_row", _off_at_one_of_row_two)
    assert row == _fails("P1_corollary inP1 inP8a py6ab y6G")
    # the two kernels split the consumers of S between them
    assert not scalar.keys() & row.keys()
    assert {**scalar, **row} == _fails(
        "CC2 Cab3 P1_corollary altStirling cusick_sym golombek inP1 inP8a "
        "py6ab sec6_bernoulli sec6_euler sec6_stirling y6G "
        "yp3_euler_operator"
    )
    # y6G compares lists of quotients over n! b^n; its counterexample prints
    # the reduced coefficient lists
    (y6g,) = [e for e in build_registry() if e.id == "y6G"]
    with _faulted(monkeypatch, y6_engine, "_y6_row", _off_at_one_of_row_two):
        found = evaluate_entry(y6g, SMALL).counterexample
        point = found["point"]
        n, p, lam = int(point["n"]), int(point["p"]), Fraction(point["lam"])
        a, b = lam.numerator, lam.denominator
        lhs = list(y6_engine.y6_egf(n, lam, p, 12).coeffs)
        den = factorial(n) * b**n
        rhs = [_Unreduced(v, den) for v in y6_engine._y6_row(n, a, b, p, 15)[:13]]
    assert found["printedLhs"] == runner._fmt(lhs)
    assert found["printedRhs"] == runner._fmt(rhs)
    assert lhs != rhs


def test_faulty_binom_sum_flips_its_consumers(monkeypatch):
    # _binom_sum off by 1/den at n = 2 reaches the Riemann, Mahler and
    # Section 6 sums and, at p = 0, the four power sums; their other sides
    # (p_poly, y6 and the closed forms) must not share the fault
    def off_at_two(kernel):
        def faulty(n, p, a, b, values, den):
            value = kernel(n, p, a, b, values, den)
            if n != 2:
                return value
            # value + 1/den, left unreduced like the kernel's own quotient
            return _Unreduced(value.num * den + value.den, value.den * den)

        return faulty

    flipped = _flipped(monkeypatch, registry, "_binom_sum", off_at_two)
    assert flipped == _fails(
        "alt_euler_sum apostol_powersum faulhaber inP2 inP3_4 inP5_6 inP8a "
        "mirimanoff_frobenius sec6_bernoulli sec6_euler sec6_stirling"
    )


def _doubled(kernel):
    # v -> 2v + 1 on every numerator: no scaling of the row can cancel it
    def faulty(m, n, a, b, p):
        row = kernel(m, n, a, b, p)
        return _UnreducedPoly([2 * v + 1 for v in row.nums], row.den)

    return faulty


def test_faulty_p_poly_flips_its_consumers(monkeypatch):
    # every entry that reads the polynomial family through _p_poly sets it
    # against raw_sum, y6, _binom_sum or closed forms, which do not call it
    flipped = _flipped(monkeypatch, p_polynomials, "_p_poly", _doubled)
    assert flipped == _fails(
        "P1_corollary Yp1Yp2_bridge inP1 inP2 inP3_4 inP5_6 py6a py6ab"
    )


def test_faulty_raw_sum_flips_only_the_bridge(monkeypatch):
    # the raw defining sum is read by one entry, against _p_poly
    flipped = _flipped(monkeypatch, p_polynomials, "_raw_sum", _doubled)
    assert flipped == _fails("Yp1Yp2_bridge")


def test_faulty_pfq_flips_every_pfq_consumer(monkeypatch):
    # y6bb and the Franel entries all take their pFq side from
    # hypergeom.pfq_terminating, through y6_hyper; 2v + 1 cannot cancel
    flipped = _flipped(
        monkeypatch,
        hypergeom,
        "pfq_terminating",
        lambda kernel: lambda spec: 2 * kernel(spec) + 1,
    )
    assert flipped == _fails("franel3 franel4 y6bb")


def _twice_plus_one(kernel):
    # v -> 2v + 1 on a quotient, and on every numerator of a row
    def faulty(*args):
        value = kernel(*args)
        if isinstance(value, _Unreduced):
            return _Unreduced(2 * value.num + value.den, value.den)
        if isinstance(value, _UnreducedPoly):
            return _UnreducedPoly([2 * v + 1 for v in value.nums], value.den)
        return [2 * v + 1 for v in value]

    return faulty


@pytest.mark.parametrize(
    "owner, kernel, flips",
    [
        (p_polynomials, "_mirimanoff_frobenius_sum", "mirimanoff_frobenius"),
        (p_polynomials, "_power_sum_closed", "alt_euler_sum apostol_powersum"),
        # the Horner moment row feeds y6_egf and, reweighted by C(m,i),
        # _p_poly; py6a does not flip, since its derivative identity
        # d^k/dx^k P(m) = m!/(m-k)! P(m-k) holds for the polynomials that
        # any moment row gives
        (
            y6_engine,
            "_moment_row",
            "P1_corollary Yp1Yp2_bridge inP1 inP2 inP3_4 inP5_6 py6ab y6G",
        ),
        (registry, "_boyadzhiev_row", "boyadzhiev"),
        (exact_core, "_binomial_convolve", "Cab3 golombek"),
    ],
)
def test_faulty_integer_closed_side_flips_its_readers(monkeypatch, owner, kernel, flips):
    # each integer closed side is read by the entries pinned here, against a
    # brute-force sum or the y6 kernel that never calls it
    flipped = _flipped(monkeypatch, owner, kernel, _twice_plus_one)
    assert flipped == _fails(flips)
