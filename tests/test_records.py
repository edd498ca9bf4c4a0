"""What the seven record types promise, whatever they are built with:
their constructor arguments and defaults, their validation errors,
equality and hashing by value, no change once built where they are
immutable, and no mutable default shared between instances."""

from __future__ import annotations

from fractions import Fraction
from types import MappingProxyType

import pytest

from binomsums.audit.config import DEFAULT_LAMBDAS, AuditConfig, GridSpec
from binomsums.audit.registry import Verdict
from binomsums.audit.runner import AuditReport, EntryResult
from binomsums.exact_core import GammaHalfValue, Poly
from binomsums.hypergeom import PfqSpec
from binomsums.y6_engine import RationalFunction


def _entry_result():
    return EntryResult("chu", "x", Verdict.HOLDS_PRINTED, Verdict.HOLDS_PRINTED, 3)


# type -> (fields in order, a builder of one instance, hashable, frozen)
RECORDS = {
    "GammaHalfValue": (
        ("rational_part", "sqrt_pi_exponent", "is_pole"),
        lambda: GammaHalfValue(Fraction(3, 4), 1),
        True,
        True,
    ),
    "GridSpec": (
        ("m_max", "n_max", "p_max", "lambdas"),
        lambda: GridSpec(n_max=3, lambdas=(Fraction(1, 2),)),
        True,
        True,
    ),
    "AuditConfig": (
        ("default", "overrides"),
        lambda: AuditConfig(GridSpec(p_max=2), {"chu": GridSpec(n_max=3)}),
        False,
        True,
    ),
    "EntryResult": (
        ("id", "paper_ref", "expected", "verdict", "points", "skipped",
         "counterexample"),
        _entry_result,
        False,
        False,
    ),
    "AuditReport": (
        ("run_id", "timestamp", "elapsed_seconds", "results"),
        lambda: AuditReport("r", "t", 0.5, [_entry_result()]),
        False,
        False,
    ),
    "PfqSpec": (
        ("upper", "lower", "z"),
        lambda: PfqSpec([-2, Fraction(1, 2)], [1], 3),
        True,
        True,
    ),
    "RationalFunction": (
        ("numerator", "denominator"),
        lambda: RationalFunction(Poly([1]), Poly([1, -2])),
        True,
        True,
    ),
}
NAMES = sorted(RECORDS)
HASHABLE = [name for name in NAMES if RECORDS[name][2]]
FROZEN = [name for name in NAMES if RECORDS[name][3]]


@pytest.mark.parametrize("name", NAMES)
def test_equal_arguments_give_equal_instances(name):
    _, make, _, _ = RECORDS[name]
    a, b = make(), make()
    assert a is not b
    assert a == b
    assert not a != b


@pytest.mark.parametrize("name", HASHABLE)
def test_equal_instances_hash_equal(name):
    _, make, _, _ = RECORDS[name]
    assert hash(make()) == hash(make())
    assert len({make(), make()}) == 1


@pytest.mark.parametrize("name", FROZEN)
def test_a_frozen_record_refuses_a_new_value(name):
    fields, make, _, _ = RECORDS[name]
    record = make()
    for field in fields:
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, before)
        assert getattr(record, field) is before


@pytest.mark.parametrize("name", NAMES)
def test_fields_keep_their_order_and_show_in_the_repr(name):
    fields, make, _, _ = RECORDS[name]
    record = make()
    values = [getattr(record, field) for field in fields]
    assert type(record)(*values) == record
    assert type(record)(**dict(zip(fields, values))) == record
    text = repr(record)
    assert text.startswith(f"{name}(")
    starts = [text.index(f"{field}=") for field in fields]
    assert starts == sorted(starts)


def test_defaults():
    assert GammaHalfValue(Fraction(1), 0).is_pole is False
    assert GammaHalfValue.pole().is_pole is True
    assert GridSpec() == GridSpec(8, 8, 4, DEFAULT_LAMBDAS)
    config = AuditConfig()
    assert config.default == GridSpec()
    assert dict(config.overrides) == {}
    assert config.for_entry("chu") == GridSpec()
    result = _entry_result()
    assert list(result.skipped) == []
    assert result.counterexample is None


@pytest.mark.parametrize(
    "make, field",
    [(AuditConfig, "overrides"), (_entry_result, "skipped")],
    ids=["AuditConfig.overrides", "EntryResult.skipped"],
)
def test_no_instance_shares_a_mutable_default(make, field):
    a, b = getattr(make(), field), getattr(make(), field)
    if a is b:
        assert isinstance(a, (tuple, frozenset, MappingProxyType))


def test_results_report_the_match_and_the_totals():
    match = _entry_result()
    miss = EntryResult(
        "dixon", "y", Verdict.HOLDS_PRINTED, Verdict.FAILS_BOTH, 4,
        [{"point": {"n": "0"}, "reason": "r"}], {"point": {"n": "1"}},
    )
    assert match.matches_expected and not miss.matches_expected
    report = AuditReport("r", "t", 0.5, [match, miss])
    assert not report.all_expected
    assert report.totals == {"entries": 2, "points": 7, "skipped": 1, "mismatches": 1}


def test_pfq_spec_holds_tuples_of_fractions():
    spec = PfqSpec([-2, Fraction(1, 2)], [1], 3)
    assert spec.upper == (Fraction(-2), Fraction(1, 2))
    assert spec.lower == (Fraction(1),)
    assert spec.z == Fraction(3)
    for part in (spec.upper, spec.lower):
        assert type(part) is tuple
        assert {type(v) for v in part} == {Fraction}
    assert type(spec.z) is Fraction
    assert spec == PfqSpec((Fraction(-2), Fraction(1, 2)), (1,), Fraction(3))


@pytest.mark.parametrize(
    "upper, lower, z",
    [([-2, 0.5], [1], 1), ([-2], [1.0], 1), ([-2], [1], 0.5)],
    ids=["upper", "lower", "z"],
)
def test_pfq_spec_refuses_a_float(upper, lower, z):
    with pytest.raises(TypeError, match="got float"):
        PfqSpec(upper, lower, z)


def test_rational_function_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        RationalFunction(Poly([1]), Poly())


def test_records_of_different_types_are_not_equal():
    assert PfqSpec([-1], [], 1) != RationalFunction(Poly([1]), Poly([1]))
    assert RationalFunction(Poly([1]), Poly([1])) != (Poly([1]), Poly([1]))
