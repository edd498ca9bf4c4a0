#!/usr/bin/env python3
"""Run the full identity audit and write reports next to this script.

Produces audit_report.json and audit_report.md in the chosen output
directory (default: the current working directory).
"""

from __future__ import annotations

import argparse
import pathlib
import sys

from binomsums.audit import ConfigError, run_audit
from binomsums.audit.runner import render_json, render_markdown


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--out-dir", default=".", help="report directory")
    parser.add_argument("--threads", type=int, default=1)
    args = parser.parse_args()

    try:
        report = run_audit(threads=args.threads)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    out = pathlib.Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    (out / "audit_report.json").write_text(render_json(report))
    (out / "audit_report.md").write_text(render_markdown(report))

    totals = report.totals
    print(
        f"{totals['entries']} entries, {totals['points']} points, "
        f"{totals['skipped']} skipped, {totals['mismatches']} mismatches "
        f"in {report.elapsed_seconds:.2f}s"
    )
    return 0 if report.all_expected else 1


if __name__ == "__main__":
    sys.exit(main())
