"""Output oracles for the benchmark workloads.

Each ``check_*`` function returns a list of problems; an empty list means
the output is correct. The sequence oracles are independent of the code
under test: a P-recursive recurrence for the Franel numbers
(Petkovsek-Wilf-Zeilberger, *A = B*, 1996), the closed forms of the Daehee
and Changhee numbers, and a plain integer sum for ``y6``.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from math import comb, factorial

# Report fields that change from run to run.
VOLATILE = ("runId", "timestamp", "elapsedSeconds")


def report_digest(text: str) -> str:
    """SHA-256 of the JSON report without its run metadata."""
    doc = json.loads(text)
    for key in VOLATILE:
        doc.pop(key, None)
    canonical = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def check_audit(text: str, pinned: dict) -> list[str]:
    """Verdicts, grid totals and digest of an ``audit run`` JSON report."""
    try:
        doc = json.loads(text)
    except ValueError as exc:
        return [f"report is not JSON: {exc}"]
    problems = []
    verdicts = {e["id"]: e["verdict"] for e in doc.get("entries", [])}
    if verdicts != pinned["verdicts"]:
        wrong = sorted(
            set(verdicts.items()) ^ set(pinned["verdicts"].items())
        )
        problems.append(f"verdicts differ from the pinned ones: {wrong[:6]}")
    totals = doc.get("gridTotals", {})
    for key in ("points", "skipped"):
        if totals.get(key) != pinned[key]:
            problems.append(f"{key} = {totals.get(key)}, pinned {pinned[key]}")
    if report_digest(text) != pinned["digest"]:
        problems.append("report digest differs from the pinned one")
    return problems


def parse_csv(text: str) -> list[tuple[int, str]]:
    """Rows of ``audit seq`` CSV output as (n, value text)."""
    lines = text.splitlines()
    if not lines or lines[0] != "n,value":
        raise ValueError("missing n,value header")
    rows = []
    for line in lines[1:]:
        n, _, value = line.partition(",")
        rows.append((int(n), value))
    return rows


def _check_indices(rows: list[tuple[int, str]], count: int) -> list[str]:
    if [n for n, _ in rows] != list(range(count)):
        return [f"expected indices 0..{count - 1}, got {len(rows)} rows"]
    return []


def check_franel(rows: list[tuple[int, str]], count: int) -> list[str]:
    """f_n = sum_k C(n,k)^3 via (n+1)^2 f_{n+1} = (7n^2+7n+2) f_n + 8n^2 f_{n-1}."""
    problems = _check_indices(rows, count)
    if problems:
        return problems
    f = [int(v) for _, v in rows]
    if f[:2] != [1, 2][: len(f)]:
        problems.append(f"initial terms {f[:2]} != [1, 2]")
    for n in range(1, count - 1):
        lhs = (n + 1) ** 2 * f[n + 1]
        rhs = (7 * n * n + 7 * n + 2) * f[n] + 8 * n * n * f[n - 1]
        if lhs != rhs:
            problems.append(f"franel recurrence fails at n={n}")
            break
    return problems


def daehee(n: int) -> Fraction:
    """Daehee number D_n = (-1)^n n!/(n+1)."""
    return Fraction((-1) ** n * factorial(n), n + 1)


def changhee(n: int) -> Fraction:
    """Changhee number Ch_n = (-1)^n n!/2^n."""
    return Fraction((-1) ** n * factorial(n), 2**n)


def y6_m3_p3(n: int, a: int, b: int) -> Fraction:
    """y6(3, n; a/b, 3) from n! b^n y6 = sum_k C(n,k)^3 k^3 a^k b^(n-k)."""
    total = sum(comb(n, k) ** 3 * k**3 * a**k * b ** (n - k) for k in range(n + 1))
    return Fraction(total, factorial(n) * b**n)


def check_values(rows: list[tuple[int, str]], expected: list[str]) -> list[str]:
    """Exact text comparison against precomputed values."""
    problems = _check_indices(rows, len(expected))
    if problems:
        return problems
    for (n, value), want in zip(rows, expected):
        if value != want:
            return [f"value at n={n} is {value[:40]}, expected {want[:40]}"]
    return []
