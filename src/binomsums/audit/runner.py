"""Executes registry entries over their grids and renders reports.

``EntryResult`` and ``AuditReport`` are ``NamedTuple``s, built once and
never changed."""

from __future__ import annotations

import csv
import fnmatch
import io
import json
import os
import time
from itertools import starmap, zip_longest
from typing import Any, NamedTuple, Optional, Sequence

from .config import AuditConfig, ConfigError
from .registry import IdentityEntry, Verdict, _never_singular, _tables, build_registry

__all__ = [
    "EntryResult",
    "AuditReport",
    "evaluate_entry",
    "run_audit",
    "render_json",
    "render_markdown",
    "render_csv",
]


def _fmt(value: Any) -> str:
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_fmt(v) for v in value) + "]"
    return str(value)


def _fmt_point(axes: tuple[str, ...], pt: tuple) -> dict:
    """The point as {axis: str(value)}, leaving out the None that pads a
    point to axes it does not use."""
    return {name: str(v) for name, v in zip(axes, pt) if v is not None}


class EntryResult(NamedTuple):
    id: str
    paper_ref: str
    expected: Verdict
    verdict: Verdict
    points: int
    skipped: Sequence[dict] = ()
    counterexample: Optional[dict] = None

    @property
    def matches_expected(self) -> bool:
        return self.verdict is self.expected


class AuditReport(NamedTuple):
    run_id: str
    timestamp: str
    elapsed_seconds: float
    results: list[EntryResult]

    @property
    def all_expected(self) -> bool:
        return all(r.matches_expected for r in self.results)

    @property
    def totals(self) -> dict:
        return {
            "entries": len(self.results),
            "points": sum(r.points for r in self.results),
            "skipped": sum(len(r.skipped) for r in self.results),
            "mismatches": sum(
                1 for r in self.results if not r.matches_expected
            ),
        }


def _first_failure(form, points: list[tuple]) -> Optional[tuple[tuple, Any, Any]]:
    """The first point where the form's two sides differ, with both sides;
    an ``_Unreduced`` side compares by cross-multiplying, with no gcd."""
    for i, (lhs, rhs) in enumerate(starmap(form, points)):
        if lhs != rhs:
            return points[i], lhs, rhs
    return None


def evaluate_entry(entry: IdentityEntry, config: AuditConfig) -> EntryResult:
    """The entry's verdict over its grid.

    The registry's tables (``registry._TABLES``) are kept only while the
    entry runs, so its evaluators build each one afresh, from the kernels
    as they are now, and share it across the grid."""
    spec = config.for_entry(entry.id)
    points = list(entry.grid(spec))
    skipped: list[dict] = []
    active = points
    if entry.singular is not _never_singular:
        active = []
        for pt in points:
            reason = entry.singular(*pt)
            if reason is not None:
                skipped.append({"point": _fmt_point(entry.axes, pt), "reason": reason})
            else:
                active.append(pt)
    if not points:
        raise ConfigError(f"{entry.id}: grid is empty")
    if not active:
        raise ConfigError(
            f"{entry.id}: every grid point is singular "
            f"({len(skipped)} skipped)"
        )

    with _tables():
        printed_fail = _first_failure(entry.printed, active)
        corrected_fail = None
        if printed_fail is not None and entry.corrected is not None:
            corrected_fail = _first_failure(entry.corrected, active)

    if printed_fail is None:
        verdict = Verdict.HOLDS_PRINTED
        counterexample = None
    else:
        pt, lhs, rhs = printed_fail
        counterexample = {
            "point": _fmt_point(entry.axes, pt),
            "printedLhs": _fmt(lhs),
            "printedRhs": _fmt(rhs),
        }
        verdict = Verdict.FAILS_BOTH
        if entry.corrected is not None:
            if corrected_fail is None:
                verdict = Verdict.HOLDS_CORRECTED_ONLY
            else:
                cpt, clhs, crhs = corrected_fail
                counterexample["correctedLhs"] = _fmt(clhs)
                counterexample["correctedRhs"] = _fmt(crhs)
                counterexample["correctedPoint"] = _fmt_point(entry.axes, cpt)

    return EntryResult(
        id=entry.id,
        paper_ref=entry.paper_ref,
        expected=entry.expected,
        verdict=verdict,
        points=len(active),
        skipped=skipped,
        counterexample=counterexample,
    )


def run_audit(
    config: AuditConfig | None = None,
    pattern: str = "*",
    threads: int = 1,
) -> AuditReport:
    """Evaluate the registry entries whose ids match ``pattern``.

    Entries run in registry order on the calling thread. ``threads`` must
    be at least 1 and changes neither the thread count nor the result:
    every entry is pure-Python big-integer arithmetic, which the
    interpreter lock would only interleave.

    Before any entry runs, each ``config`` section, matched or not, is
    checked by its effect: every key in which it differs from the default
    must change the entry's points when set alone over the default, and a
    section that differs in no key is refused too (``ConfigError``).
    """
    config = config or AuditConfig()
    if threads < 1:
        raise ConfigError(f"threads must be at least 1, got {threads}")
    registry = build_registry()
    grids = {e.id: e.grid for e in registry}
    unknown = set(config.overrides) - set(grids)
    if unknown:
        raise ConfigError(
            f"config overrides reference unknown ids: {sorted(unknown)}"
        )
    base, idle = config.default, []
    for i, spec in config.overrides.items():
        changed = {k: v for k, v in spec._asdict().items() if v != getattr(base, k)}
        if not changed:
            idle.append(f"[{i}]")
            continue
        for k, v in changed.items():
            # points are tuples, never the None that pads the shorter grid;
            # both grids are drawn only up to their first difference
            pairs = zip_longest(grids[i](base), grids[i](base._replace(**{k: v})))
            if all(x == y for x, y in pairs):
                idle.append(f"[{i}] {k}")
    if idle:
        raise ConfigError(
            f"config overrides that change no grid point: {', '.join(sorted(idle))}"
        )
    entries = [e for e in registry if fnmatch.fnmatch(e.id, pattern)]
    if not entries:
        raise ConfigError(f"no entries matched the filter {pattern!r}")
    start = time.monotonic()
    results = [evaluate_entry(e, config) for e in entries]
    elapsed = time.monotonic() - start
    return AuditReport(
        run_id=os.urandom(16).hex(),
        timestamp=time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        elapsed_seconds=elapsed,
        results=results,
    )


def render_json(report: AuditReport) -> str:
    doc = {
        "runId": report.run_id,
        "timestamp": report.timestamp,
        "elapsedSeconds": round(report.elapsed_seconds, 3),
        "gridTotals": report.totals,
        "entries": [
            {
                "id": r.id,
                "paperRef": r.paper_ref,
                "verdict": r.verdict.value,
                "expected": r.expected.value,
                "points": r.points,
                "skipped": r.skipped,
                **(
                    {"counterexample": r.counterexample}
                    if r.counterexample
                    else {}
                ),
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2)


def render_markdown(report: AuditReport) -> str:
    lines = [
        f"# Identity audit {report.run_id}",
        "",
        f"- timestamp: {report.timestamp}",
        f"- elapsed: {report.elapsed_seconds:.2f}s",
        f"- totals: {report.totals}",
        "",
        "| id | verdict | expected | ok | points | skipped |",
        "|----|---------|----------|----|--------|---------|",
    ]
    for r in report.results:
        ok = "yes" if r.matches_expected else "NO"
        lines.append(
            f"| {r.id} | {r.verdict.value} | {r.expected.value} "
            f"| {ok} | {r.points} | {len(r.skipped)} |"
        )
    fails = [r for r in report.results if r.counterexample]
    if fails:
        lines += ["", "## Printed-form counterexamples", ""]
        for r in fails:
            lines.append(f"- **{r.id}** at {r.counterexample['point']}: "
                         f"lhs = {r.counterexample['printedLhs']}, "
                         f"rhs = {r.counterexample['printedRhs']}")
    return "\n".join(lines) + "\n"


def render_csv(report: AuditReport) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(
        ["id", "verdict", "expected", "matches_expected", "points", "skipped"]
    )
    for r in report.results:
        writer.writerow(
            [
                r.id,
                r.verdict.value,
                r.expected.value,
                str(r.matches_expected).lower(),
                r.points,
                len(r.skipped),
            ]
        )
    return buf.getvalue()
