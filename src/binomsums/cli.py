"""Command-line interface.

Subcommands:

- ``audit list``: show every registered identity with its expected verdict.
- ``audit run``: evaluate the registry over rational grids and emit a report.
- ``audit seq``: print exact terms of a named sequence family.

Exit codes: 0 when every verdict matches its pinned expectation, 1 when a
verdict deviates, 2 on usage or configuration errors and on input too
large for the memory at hand.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Iterable

from .audit.config import AuditConfig, ConfigError, load_config
from .audit.registry import build_registry
from .audit.runner import render_csv, render_json, render_markdown, run_audit
from .classic_numbers import FamilyTag, _classic_range
from .y6_engine import _franel_range, _sums, _y6_range, bnk

EXIT_OK = 0
EXIT_VERDICT_MISMATCH = 1
EXIT_USAGE = 2


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"not a rational number: {text!r}") from exc


def _parse_params(items: list[str]) -> dict[str, Fraction]:
    params: dict[str, Fraction] = {}
    for item in items:
        for piece in item.split(","):
            if not piece:
                continue
            key, sep, value = piece.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"expected key=value, got {piece!r}")
            if key in params:
                raise ConfigError(f"parameter {key!r} given twice")
            params[key] = _parse_fraction(value.strip())
    return params


def _parse_range(text: str) -> range:
    lo, sep, hi = text.partition("..")
    if not sep:
        raise ConfigError(f"expected a..b range, got {text!r}")
    try:
        a, b = int(lo), int(hi)
    except ValueError as exc:
        raise ConfigError(f"range bounds must be integers: {text!r}") from exc
    if b < a:
        raise ConfigError(f"empty range: {text!r}")
    return range(a, b + 1)


def _int_param(params: dict, key: str, default: int | None = None) -> int:
    if key not in params:
        if default is None:
            raise ConfigError(f"missing required parameter {key!r}")
        return default
    value = params[key]
    if value.denominator != 1:
        raise ConfigError(f"parameter {key!r} must be an integer")
    return int(value)


def _y6_terms(rng: range, ps: dict) -> Iterable:
    """y6(m,n;lam,p) over a range."""
    m, p = _int_param(ps, "m", 0), _int_param(ps, "p", 2)
    return _y6_range(m, ps.get("lam", Fraction(1)), p, rng)


# Each family with the ``--params`` keys it reads and its terms over a range.
_SEQ_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[[range, dict], Iterable]]] = {
    "bnk": (("d",), lambda rng, ps: [bnk(_int_param(ps, "d"), n) for n in rng]),
    "y6": (("m", "lam", "p"), _y6_terms),
    "moment": (
        ("m", "p"),
        # sum_k C(n,k)^p k^m, the kernel's integers at lam = 1
        lambda rng, ps: _sums(
            _int_param(ps, "m", 0), 1, 1, _int_param(ps, "p", 2), rng
        ),
    ),
    **{
        tag.value: ((), lambda rng, ps, t=tag: _classic_range(t, rng))
        for tag in FamilyTag
    },
    "franel": (
        ("p", "m", "lam"),
        lambda rng, ps: _franel_range(
            _int_param(ps, "p", 3), _int_param(ps, "m", 0), ps.get("lam", 1), rng
        ),
    ),
}


def _write(text: str, out: str | None) -> None:
    """Write ``text`` to the file ``out``, or to stdout when it is None."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text, end="")


def _cmd_list(args: argparse.Namespace) -> int:
    for entry in build_registry():
        print(f"{entry.id:24s} {entry.expected.value:22s} {entry.paper_ref}")
    return EXIT_OK


def _cmd_run(args: argparse.Namespace) -> int:
    config = AuditConfig()
    if args.config:
        config = load_config(args.config)
    report = run_audit(config, pattern=args.filter, threads=args.threads)
    renderers = {
        "json": render_json,
        "md": render_markdown,
        "csv": render_csv,
    }
    text = renderers[args.format](report)
    _write(text, args.out)
    return EXIT_OK if report.all_expected else EXIT_VERDICT_MISMATCH


def _cmd_seq(args: argparse.Namespace) -> int:
    keys, fn = _SEQ_FAMILIES[args.family]
    params = _parse_params(args.params)
    unknown = sorted(set(params) - set(keys))
    if unknown:
        allowed = ", ".join(sorted(keys)) or "none"
        raise ConfigError(
            f"{args.family} takes no parameter {', '.join(unknown)} "
            f"(it reads: {allowed})"
        )
    rng = _parse_range(args.range)
    rows = list(zip(rng, fn(rng, params)))
    # Terms may pass CPython's 4,300-digit limit on int -> str conversion
    # (0 means no limit; interpreters before 3.10.7 have none); lift it for
    # the formatting only.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        if args.format == "json":
            doc = {
                "family": args.family,
                "params": {k: str(v) for k, v in params.items()},
                "values": [{"n": n, "value": str(v)} for n, v in rows],
            }
            text = json.dumps(doc, indent=2) + "\n"
        else:
            lines = ["n,value"] + [f"{n},{v}" for n, v in rows]
            text = "\n".join(lines) + "\n"
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    _write(text, args.out)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="audit",
        description="exact identity audits for binomial-power sums",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered identities").set_defaults(
        fn=_cmd_list
    )

    run = sub.add_parser("run", help="run the identity audit")
    run.add_argument("--filter", default="*", help="glob filter on entry ids")
    run.add_argument("--config", default=None, help="grid configuration file")
    run.add_argument(
        "--format", choices=("json", "md", "csv"), default="json"
    )
    run.add_argument("--out", default=None, help="write the report to a file")
    run.add_argument(
        "--threads",
        type=int,
        default=1,
        help="checked to be at least 1; entries run in order on one thread, "
        "so it changes neither the thread count nor the report",
    )
    run.set_defaults(fn=_cmd_run)

    seq = sub.add_parser("seq", help="print terms of a sequence family")
    seq.add_argument("family", choices=sorted(_SEQ_FAMILIES))
    seq.add_argument("--range", default="0..10", help="index range a..b")
    seq.add_argument(
        "--params",
        action="append",
        default=[],
        help="comma-separated key=value pairs; values may be fractions",
    )
    seq.add_argument("--format", choices=("csv", "json"), default="csv")
    seq.add_argument("--out", default=None, help="write output to a file")
    seq.set_defaults(fn=_cmd_seq)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.fn(args)
    except (ValueError, OSError) as exc:  # ConfigError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError:
        print("error: out of memory; try a smaller range or grid", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
