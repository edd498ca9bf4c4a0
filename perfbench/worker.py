"""Child processes of the benchmark; ``run.py`` starts them with ``src`` on
``PYTHONPATH``.

    worker.py traced SUMMARY SPANS ARG...
        Run ``audit ARG...`` with the tracer installed, then write the
        per-function summary (JSON) and the layer-boundary spans.

    worker.py warm
        Long-lived audit process. It imports the package and runs one
        untimed audit to fill the memo caches, prints a ``ready`` line, then
        answers one JSON request per stdin line until stdin closes:
        ``{"report": PATH, "trace": null | [SUMMARY, SPANS]}`` runs
        ``run_audit(threads=2)`` plus ``render_json`` and replies with the
        start (``time.perf_counter``), wall and CPU time of that operation
        and the peak RSS so far.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

WARM_THREADS = 2


def _rss_mb() -> float:
    """Peak RSS of this process since exec (VmHWM; ``ru_maxrss`` would also
    count the parent's resident memory at fork time)."""
    with open("/proc/self/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    raise RuntimeError("no VmHWM in /proc/self/status")


def _cpu_s() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def _dump(tracer, summary_path: str, spans_path: str, **extra) -> None:
    t0 = time.perf_counter()
    tracer.write_spans(Path(spans_path))
    summary = tracer.summary()
    summary.update(extra)
    summary["dump_s"] = time.perf_counter() - t0
    Path(summary_path).write_text(json.dumps(summary))


def traced_cli(summary_path: str, spans_path: str, argv: list[str]) -> int:
    import binomsums.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    tracer.start_op()
    try:
        code = binomsums.cli.main(argv)
    finally:
        tracer.end_op()
        tracer.uninstall()
    _dump(tracer, summary_path, spans_path, exit=code)
    return code


def _audit_op(runner) -> tuple[float, float, float, int, str]:
    cpu0 = _cpu_s()
    t0 = time.perf_counter()
    report = runner.run_audit(threads=WARM_THREADS)
    text = runner.render_json(report)
    wall = time.perf_counter() - t0
    cpu = _cpu_s() - cpu0
    return t0, wall, cpu, 0 if report.all_expected else 1, text


def warm() -> int:
    import binomsums.cli  # noqa: F401  (same imports as the CLI)
    from binomsums.audit import runner

    runner.render_json(runner.run_audit(threads=WARM_THREADS))
    print(json.dumps({"ready": True}), flush=True)
    for line in sys.stdin:
        request = json.loads(line)
        tracer = None
        if request["trace"]:
            from tracer import Tracer

            tracer = Tracer()
            tracer.install()
            tracer.start_op()
        try:
            start, wall, cpu, code, text = _audit_op(runner)
        finally:
            if tracer is not None:
                tracer.end_op()
                tracer.uninstall()
        Path(request["report"]).write_text(text)
        if tracer is not None:
            start, wall = tracer.op_start, tracer.op_end - tracer.op_start
            _dump(tracer, *request["trace"], exit=code)
        reply = {"start": start, "wall_s": wall, "cpu_s": cpu, "rss_mb": _rss_mb(), "exit": code}
        print(json.dumps(reply), flush=True)
    return 0


def main(argv: list[str]) -> int:
    if argv[:1] == ["traced"] and len(argv) >= 3:
        return traced_cli(argv[1], argv[2], argv[3:])
    if argv == ["warm"]:
        return warm()
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
