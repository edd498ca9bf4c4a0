"""Command-line interface.

Subcommands:

- ``audit list``: show every registered identity with its expected verdict.
- ``audit run``: evaluate the registry over rational grids and emit a report.
- ``audit seq``: print exact terms of a named sequence family.

Exit codes: 0 when every verdict matches its pinned expectation, 1 when a
verdict deviates, 2 on usage or configuration errors and on input too
large for the memory at hand.  A reader of stdout that closes early (as
``head`` does) changes none of these: the command stops writing quietly.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction
from itertools import chain, repeat
from typing import Callable, Iterable, Iterator

from .audit.config import AuditConfig, ConfigError, load_config
from .audit.registry import build_registry
from .audit.runner import render_csv, render_json, render_markdown, run_audit
from .classic_numbers import FamilyTag, _classic_range
from .exact_core import _check_indices
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


def _y6_terms(rng: range, ps: dict) -> Iterator:
    """y6(m,n;lam,p) over a range."""
    m, p = _int_param(ps, "m", 0), _int_param(ps, "p", 2)
    return _y6_range(m, ps.get("lam", Fraction(1)), p, rng)


def _bnk_terms(rng: range, ps: dict) -> Iterator:
    """B(d,k) over a range."""
    d = _int_param(ps, "d")
    _check_indices(d=d, k=rng.start)
    return map(bnk, repeat(d), rng)


# Each family with the ``--params`` keys it reads and its terms over a
# range: a lazy iterator whose arguments are checked before it is returned.
_SEQ_FAMILIES: dict[str, tuple[tuple[str, ...], Callable[[range, dict], Iterator]]] = {
    "bnk": (("d",), _bnk_terms),
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


def _write(pieces: Iterable[str], out: str | None) -> None:
    """Write ``pieces`` as they come to the file ``out``, or to stdout when
    it is None.  When the reader of stdout has gone (``| head``), the rest
    is dropped and the command keeps its own exit code."""
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.writelines(pieces)
        return
    try:
        sys.stdout.writelines(pieces)
        sys.stdout.flush()
    except BrokenPipeError:
        # stdout points at the null device from here on, so that the flush
        # at exit fails no second time (the recipe of the Python docs)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())


def _cmd_list(args: argparse.Namespace) -> int:
    _write(
        (
            f"{entry.id:24s} {entry.expected.value:22s} {entry.paper_ref}\n"
            for entry in build_registry()
        ),
        None,
    )
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
    _write([renderers[args.format](report)], args.out)
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
    rows = zip(rng, fn(rng, params))
    # the first term before anything is opened or written, so that a
    # refused request leaves no output
    first = next(rows)
    pieces = _seq_text(args.family, params, args.format, chain([first], rows))
    # Terms may pass CPython's 4,300-digit limit on int -> str conversion
    # (0 means no limit; interpreters before 3.10.7 have none); lift it
    # while the rows are written.
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: 0)()
    if digit_limit:
        sys.set_int_max_str_digits(0)
    try:
        _write(pieces, args.out)
    finally:
        if digit_limit:
            sys.set_int_max_str_digits(digit_limit)
    return EXIT_OK


def _seq_text(family: str, params: dict, fmt: str, rows: Iterable) -> Iterator[str]:
    """The CSV, or the ``indent=2`` JSON of ``json.dumps``, of the rows
    ``(n, value)`` piece by piece, one row at a time."""
    if fmt == "csv":
        yield "n,value\n"
        for n, v in rows:
            yield f"{n},{v}\n"
        return
    doc = {"family": family, "params": {k: str(v) for k, v in params.items()}}
    head = json.dumps(doc, indent=2)
    # the document up to its closing brace, then the values array by hand
    sep = head[:-2] + ',\n  "values": [\n'
    for n, v in rows:
        yield f'{sep}    {{\n      "n": {n},\n      "value": "{v}"\n    }}'
        sep = ",\n"
    yield "\n  ]\n}\n"


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
