"""Acceptance gate: ten end-to-end criteria, each printing one PASS line.

Every comparison is exact (Fraction/Poly equality, tolerance zero).
"""

from __future__ import annotations

import hashlib
import json
import time
from fractions import Fraction
from math import comb, factorial
from pathlib import Path

import pytest

from binomsums import cli
from binomsums.audit import Verdict, run_audit
from binomsums.audit.runner import render_json
from binomsums.classic_numbers import stirling1, stirling2
from binomsums.hypergeom import y6_hyper
from binomsums.p_polynomials import (
    euler_operator,
    p_poly,
    power_sum_closed,
    r_poly,
    raw_sum_poly,
    vowe,
)
from binomsums.y6_engine import b_ogf, bnk, franel, moment, t_poly, y6, y6_egf

LAMBDAS = [Fraction(s) for s in ("-2", "-1", "-1/2", "1/2", "1", "2", "3")]

# Pinned verdicts, grid totals and report digest of the default audit, kept
# with the benchmark; read here, never written.
EXPECTED_AUDIT = (
    Path(__file__).resolve().parents[1] / "perfbench" / "expected_audit.json"
)


@pytest.fixture(scope="module")
def serial_report():
    """One full serial audit, shared by the criteria that need it."""
    return run_audit(threads=1)


def _ok(number: int, label: str) -> None:
    print(f"ACCEPTANCE {number:02d} PASS: {label}")


def test_criterion_01_sequence_reproduction():
    start = time.monotonic()
    assert [franel(3, 0, n, Fraction(1)) for n in range(5)] == [1, 2, 10, 56, 346]
    assert [franel(4, 0, n, Fraction(1)) for n in range(5)] == [1, 2, 18, 164, 1810]
    for k in range(13):
        assert bnk(0, k) == 2**k
        assert 2 * bnk(1, k) == k * 2**k
        assert 4 * bnk(2, k) == k * (k + 1) * 2**k
    for n in range(21):
        assert moment(0, 2, n) == comb(2 * n, n)
    assert time.monotonic() - start < 1.0
    _ok(1, "sequence families reproduce exactly in under a second")


def test_criterion_02_dixon_special_case():
    for n in range(7):
        assert franel(3, 0, 2 * n, Fraction(-1)) == Fraction(
            (-1) ** n * factorial(3 * n), factorial(n) ** 3
        )
    _ok(2, "alternating-cube even rows match the factorial closed form")


def test_criterion_03_hypergeometric_equivalence():
    start = time.monotonic()
    for n in range(11):
        for p in range(1, 5):
            for lam in LAMBDAS:
                assert y6_hyper(n, lam, p) == y6(0, n, lam, p)
    assert time.monotonic() - start < 10.0
    _ok(3, "terminating series path agrees with direct summation, < 10 s")


def test_criterion_04_egf_derivative_equivalence():
    for n in range(9):
        for p in range(5):
            for lam in LAMBDAS:
                series = y6_egf(n, lam, p, 12)
                for m in range(13):
                    assert series.coeffs[m] == y6(m, n, lam, p)
    _ok(4, "generating-series coefficients equal the numbers up to m = 12")


def test_criterion_05_structural_bnk_suite():
    for d in range(1, 7):
        poly = t_poly(d)
        for k in range(13):
            assert bnk(d, k) == Fraction(2) ** (k - d) * poly(k)
            assert (
                sum(
                    stirling1(d, d - v) / factorial(d) * bnk(d - v, k)
                    for v in range(d)
                )
                == Fraction(2) ** (k - d) * comb(k, d)
            )
        # coefficient formula for the bridge polynomial
        for l in range(1, d + 1):
            assert poly.coeff(l) == sum(
                stirling1(j, l) * stirling2(d, j) * 2 ** (d - j)
                for j in range(l, d + 1)
            )
    for d in range(7):
        assert b_ogf(d).series(12) == [bnk(d, k) for k in range(13)]
    _ok(5, "bridge polynomial, recurrence, coefficients, and series agree")


def test_criterion_06_polynomial_family_suite(serial_report):
    by_id = {r.id: r for r in serial_report.results}
    for holds in (
        "py6ab",
        "inP1",
        "yp3_euler_operator",
        "vowe_recurrence",
        "vowe_legendre",
        "legendre_P0",
        "legendre_P2",
        "changhee_theorem",
        "catalan_CN",
    ):
        assert by_id[holds].verdict is Verdict.HOLDS_PRINTED, holds
    for corrected in ("Yp1Yp2_bridge", "py6a", "inP2", "inP3_4", "inP5_6"):
        assert by_id[corrected].verdict is Verdict.HOLDS_CORRECTED_ONLY, corrected
    assert serial_report.elapsed_seconds < 60.0
    # spot-check the bridge and operator statements directly
    for m in range(5):
        for n in range(5):
            assert raw_sum_poly(m, n, Fraction(2), 2) == factorial(n) * p_poly(
                m, n, Fraction(2), 2
            )
    assert euler_operator(r_poly(4, 2), 3)(Fraction(1, 2)) == y6(
        3, 4, Fraction(1, 2), 2
    )
    assert vowe(2).coeffs == (1, 4, 1)
    _ok(6, "polynomial-family suite holds; full audit under 60 s")


def test_criterion_07_power_sum_closed_forms():
    for m in range(9):
        for upper in range(13):
            for lam in LAMBDAS:
                direct = sum(
                    (
                        lam**j
                        * (Fraction(j) ** m if (j, m) != (0, 0) else Fraction(1))
                        for j in range(upper)
                    ),
                    Fraction(0),
                )
                assert power_sum_closed(m, upper, lam) == direct
    _ok(7, "all three power-sum branches equal direct summation")


def test_criterion_08_double_sum_expansions():
    for m in range(6):
        for n in range(6):
            for p in range(1, 3):
                for lam in (Fraction(-1), Fraction(1), Fraction(2)):
                    value = y6(m, n, lam, p)
                    via_stirling = sum(
                        Fraction(comb(n, k)) ** (p - 1)
                        * stirling2(m, l)
                        * lam**k
                        / (factorial(n - k) * factorial(k - l))
                        for k in range(n + 1)
                        for l in range(k + 1)
                    )
                    assert value == via_stirling
    report = run_audit(pattern="sec6_*")
    assert all(r.verdict is Verdict.HOLDS_PRINTED for r in report.results)
    assert len(report.results) == 3
    _ok(8, "all three double-sum expansions hold with the bound index")


def test_criterion_09_pinned_audit_verdicts(tmp_path, capsys):
    out = tmp_path / "report.json"
    code = cli.main(["run", "--format", "json", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    doc = json.loads(out.read_text())
    verdicts = {e["id"]: e for e in doc["entries"]}
    for corrected in (
        "Yp1Yp2_bridge",
        "py6a",
        "inP2",
        "inP8",
        "inP8a",
        "P1_corollary",
        "inP3_4",
        "inP5_6",
        "apostol_powersum",
        "alt_euler_sum",
        "mirimanoff_frobenius",
    ):
        entry = verdicts[corrected]
        assert entry["verdict"] == "HOLDS_CORRECTED_ONLY", corrected
        ce = entry["counterexample"]
        assert ce["printedLhs"] != ce["printedRhs"]
    diag = verdicts["cusick_diag"]
    assert diag["verdict"] == "FAILS_BOTH"
    assert diag["counterexample"]["printedLhs"] != diag["counterexample"][
        "printedRhs"
    ]
    _ok(9, "audit exits 0 with pinned verdicts and two-sided counterexamples")


def test_criterion_10_parallel_soundness(serial_report):
    serial = serial_report
    parallel = run_audit(threads=4)
    assert [(r.id, r.verdict, r.points, len(r.skipped)) for r in serial.results] == [
        (r.id, r.verdict, r.points, len(r.skipped)) for r in parallel.results
    ]
    _ok(10, "single-threaded and multi-threaded runs agree exactly")


def test_report_digest_matches_pinned(serial_report):
    """The JSON report, without its run metadata, is byte-for-byte the
    pinned one: canonical JSON (sorted keys, no spaces) hashed by SHA-256."""
    pinned = json.loads(EXPECTED_AUDIT.read_text())
    doc = json.loads(render_json(serial_report))
    for key in ("runId", "timestamp", "elapsedSeconds"):
        doc.pop(key)
    assert {e["id"]: e["verdict"] for e in doc["entries"]} == pinned["verdicts"]
    assert doc["gridTotals"]["points"] == pinned["points"]
    assert doc["gridTotals"]["skipped"] == pinned["skipped"]
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(canonical.encode()).hexdigest() == pinned["digest"]
    print("ACCEPTANCE PASS: report digest equals the pinned one")
