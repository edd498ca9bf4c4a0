#!/usr/bin/env python3
"""Benchmark of the binomsums CLI and library, run from the repository root.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --list

Workloads (each a closed loop with one client, one operation in flight):

- ``audit_cold``: ``audit run --threads 1 --out FILE`` on the default grid,
  in a fresh interpreter per operation.
- ``audit_warm``: one long-lived process that has already run one audit
  repeats ``run_audit(threads=2)`` + ``render_json`` on the default grid.
- ``seq_large_n``: four ``audit seq`` calls, each in a fresh interpreter:
  franel 0..600, daehee 0..30, changhee 0..30 and y6 with m=3, p=3 and
  lam=a/b drawn from the seed (``seq_lambda``), over 0..400.

Operations are repeated until ``--seconds`` have passed. Every output is
checked by the oracles in ``oracles.py`` outside the timed region; a
non-zero exit, a timeout or a wrong output counts as a failed operation.
With ``--trace 0`` the run reports the end-to-end metrics of
``BENCHMARK.json``, each the median over the run's operations (set-up
time: the median of several set-ups). Times are corrected for the host's
speed (``hostspeed.py``): the harness, every child and a sampler run pinned
to one CPU, and each time is scaled to a CPU of fixed, nominal speed. With ``--trace 1`` it alternates
untraced and traced operations and reports the per-layer metrics, medians
over the traced operations. The last line of stdout is the JSON result;
the run context and every sample go to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import compileall
import hashlib
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

sys.path.insert(0, str(BENCH))
import oracles  # noqa: E402
from hostspeed import HostSpeed, Sampler, reference_loop  # noqa: E402

WORKLOADS = ("audit_cold", "audit_warm", "seq_large_n")
# A run must end within 180 s; no operation may start a child past this.
DEADLINE_S = 165.0
# Set-ups per run: fresh interpreters that import the CLI and build the
# registry. The warm set-up also runs a full audit, so it is done fewer times.
COLD_SETUPS = 25
WARM_SETUPS = 3
SETUP_CODE = "import binomsums.cli as c; c.build_registry()"
# ``python -m binomsums.cli`` that writes its own peak RSS (VmHWM, Linux) to
# stderr at exit. ``ru_maxrss`` of a child would also count the resident
# memory of this process at fork time.
PEAK_TAG = "perfbench-peak-rss-kb="
CLI_CODE = (
    "import atexit, runpy, sys\n"
    "def peak():\n"
    "    with open('/proc/self/status') as f:\n"
    "        kb = [line.split()[1] for line in f if line.startswith('VmHWM:')]\n"
    f"    sys.stderr.write('\\n{PEAK_TAG}' + kb[0] + '\\n')\n"
    "atexit.register(peak)\n"
    "runpy.run_module('binomsums.cli', run_name='__main__', alter_sys=True)\n"
)
SEQ_CALLS = (
    ("franel", "", 600),
    ("daehee", "", 30),
    ("changhee", "", 30),
    ("y6", "m=3,lam={lam},p=3", 400),
)


@dataclass
class Op:
    """One timed operation and what its oracle found."""

    wall_s: float
    cpu_s: float
    rss_mb: float
    items: int
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    summary: dict | None = None
    totals: dict | None = None
    # perf_counter intervals the operation ran in, for the speed correction
    windows: list[tuple[float, float]] = field(default_factory=list)


class Run:
    def __init__(self, args: argparse.Namespace):
        self.args = args
        self.start = time.perf_counter()
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.tmp = OUT / f"tmp-{args.workload}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        self.ops: list[Op] = []
        self.setups: list[float] = []
        self.setup_windows: list[tuple[float, float]] = []
        self.setup_problems: list[str] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.start)

    def measuring(self, loop_start: float) -> bool:
        """Closed loop: start another operation while time is left; a traced
        run ends with at least one untraced and one traced operation."""
        if self.remaining() <= 0:
            return False
        if self.args.trace and not any(op.traced for op in self.ops):
            return True
        return time.perf_counter() - loop_start < self.args.seconds

    def spawn(self, argv: list[str]) -> tuple[int, float, float, float, str, float]:
        """Run a child to completion: (exit code, wall s, cpu s, peak RSS MB,
        stderr tail, start). Exit code -9 marks a timeout."""
        err_path = self.tmp / "stderr.txt"
        with open(err_path, "wb") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(
                argv, cwd=ROOT, env=self.env, stdout=subprocess.DEVNULL,
                stderr=err,
            )
            timer = threading.Timer(max(self.remaining(), 1.0), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        err_text, _, peak_kb = err_path.read_text(errors="replace").partition(PEAK_TAG)
        rss = int(peak_kb) / 1024 if peak_kb.strip().isdigit() else usage.ru_maxrss / 1024
        cpu = usage.ru_utime + usage.ru_stime
        return proc.returncode, wall, cpu, rss, err_text.strip()[-300:], t0

    def measure_setups(self) -> None:
        if self.args.trace:
            return  # set-up time is an end-to-end metric only
        for _ in range(COLD_SETUPS):
            code, wall, _, _, tail, t0 = self.spawn([sys.executable, "-c", SETUP_CODE])
            self.setups.append(wall)
            self.setup_windows.append((t0, t0 + wall))
            if code != 0:
                self.setup_problems.append(f"set-up exit {code}: {tail}")


# -- audit workloads ----------------------------------------------------------

def _pinned_audit() -> dict:
    return json.loads((BENCH / "expected_audit.json").read_text())


def _audit_totals(text: str) -> dict:
    try:
        return json.loads(text)["gridTotals"]
    except (ValueError, KeyError):
        return {}


def audit_cold(run: Run) -> None:
    pinned = _pinned_audit()
    run.measure_setups()
    report = run.tmp / "report.json"
    traced = False
    loop_start = time.perf_counter()
    while run.measuring(loop_start):
        report.unlink(missing_ok=True)
        argv = ["run", "--threads", "1", "--out", str(report)]
        op = _cli_op(run, argv, traced)
        text = report.read_text() if report.exists() else ""
        op.problems += oracles.check_audit(text, pinned)
        op.items = pinned["points"]
        op.totals = _audit_totals(text)
        run.ops.append(op)
        traced = bool(run.args.trace) and not traced


def _cli_op(run: Run, argv: list[str], traced: bool) -> Op:
    """One ``audit ARGV`` call in a fresh interpreter, optionally traced."""
    if not traced:
        cmd = [sys.executable, "-c", CLI_CODE, *argv]
        code, wall, cpu, rss, tail, t0 = run.spawn(cmd)
        return Op(wall, cpu, rss, 0, [] if code == 0 else [f"exit {code}: {tail}"],
                  windows=[(t0, t0 + wall)])
    summary_path = run.tmp / "trace-summary.json"
    summary_path.unlink(missing_ok=True)
    label = argv[1] if argv[0] == "seq" else argv[0]
    spans = OUT / f"spans-{run.args.workload}-{label}.bin"
    cmd = [sys.executable, str(BENCH / "worker.py"), "traced",
           str(summary_path), str(spans), *argv]
    code, wall, cpu, rss, tail, t0 = run.spawn(cmd)
    op = Op(wall, cpu, rss, 0, [] if code == 0 else [f"exit {code}: {tail}"],
            traced=True, windows=[(t0, t0 + wall)])
    if summary_path.exists():
        op.summary = json.loads(summary_path.read_text())
        op.wall_s = wall - op.summary["dump_s"]
    else:
        op.problems.append("traced run wrote no summary")
    return op


class WarmWorker:
    """The long-lived process of ``audit_warm``."""

    def __init__(self, run: Run):
        self.run = run
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(BENCH / "worker.py"), "warm"],
            cwd=ROOT, env=run.env, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, text=True,
        )
        self.ready = self._reply() is not None
        self.setup_s = time.perf_counter() - t0
        self.setup_window = (t0, t0 + self.setup_s)

    def _reply(self) -> dict | None:
        timer = threading.Timer(max(self.run.remaining(), 1.0), self.proc.kill)
        timer.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            timer.cancel()
        try:
            return json.loads(line) if line else None
        except ValueError:
            return None

    def request(self, report: Path, trace: list[str] | None) -> dict | None:
        try:
            self.proc.stdin.write(
                json.dumps({"report": str(report), "trace": trace}) + "\n"
            )
            self.proc.stdin.flush()
        except BrokenPipeError:
            return None
        return self._reply()

    def close(self) -> None:
        try:
            self.proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            self.proc.wait(timeout=max(self.run.remaining(), 1.0))
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def audit_warm(run: Run) -> None:
    pinned = _pinned_audit()
    worker = WarmWorker(run)
    try:
        run.setups.append(worker.setup_s)
        run.setup_windows.append(worker.setup_window)
        if not worker.ready:
            run.setup_problems.append("warm worker did not become ready")
            return
        report = run.tmp / "report.json"
        summary_path = run.tmp / "trace-summary.json"
        spans = OUT / "spans-audit_warm.bin"
        traced = False
        loop_start = time.perf_counter()
        while run.measuring(loop_start):
            report.unlink(missing_ok=True)
            summary_path.unlink(missing_ok=True)
            trace = [str(summary_path), str(spans)] if traced else None
            reply = worker.request(report, trace)
            if reply is None:
                run.ops.append(Op(0.0, 0.0, 0.0, 0, ["warm worker died"]))
                break
            text = report.read_text() if report.exists() else ""
            op = Op(reply["wall_s"], reply["cpu_s"], reply["rss_mb"],
                    pinned["points"], oracles.check_audit(text, pinned),
                    traced=traced, totals=_audit_totals(text),
                    windows=[(reply["start"], reply["start"] + reply["wall_s"])])
            if reply["exit"] != 0:
                op.problems.append("an audit verdict deviates")
            if traced and summary_path.exists():
                op.summary = json.loads(summary_path.read_text())
            elif traced:
                op.problems.append("traced run wrote no summary")
            run.ops.append(op)
            traced = bool(run.args.trace) and not traced
    finally:
        worker.close()
    # Further set-up samples, in fresh workers after the timed loop.
    if run.args.trace:
        return
    for _ in range(WARM_SETUPS - 1):
        if run.remaining() <= 0:
            break
        extra = WarmWorker(run)
        extra.close()
        run.setups.append(extra.setup_s)
        run.setup_windows.append(extra.setup_window)
        if not extra.ready:
            run.setup_problems.append("warm worker did not become ready")


# -- sequence workload --------------------------------------------------------

def seq_lambda(seed: int) -> tuple[int, int]:
    """lam = a/b with a in {-7, -5, 5, 7} and b in {9, 11, 13}: numerators
    of one bit length and denominators of one bit length, all coprime, so
    the size of the y6 terms, and with it the work, does not depend on the
    seed."""
    rng = random.Random(seed)
    return rng.choice((-7, -5, 5, 7)), rng.choice((9, 11, 13))


def seq_large_n(run: Run) -> None:
    a, b = seq_lambda(run.args.seed)
    expected = {
        "daehee": [str(oracles.daehee(n)) for n in range(31)],
        "changhee": [str(oracles.changhee(n)) for n in range(31)],
        "y6": [str(oracles.y6_m3_p3(n, a, b)) for n in range(401)],
    }
    run.measure_setups()
    out = run.tmp / "seq.csv"
    traced = False
    loop_start = time.perf_counter()
    while run.measuring(loop_start):
        total = Op(0.0, 0.0, 0.0, 0, traced=traced)
        merged: list[dict] = []
        for family, params, top in SEQ_CALLS:
            argv = ["seq", family, "--range", f"0..{top}", "--out", str(out)]
            if params:
                argv += ["--params", params.format(lam=f"{a}/{b}")]
            out.unlink(missing_ok=True)
            op = _cli_op(run, argv, traced)
            total.wall_s += op.wall_s
            total.cpu_s += op.cpu_s
            total.rss_mb = max(total.rss_mb, op.rss_mb)
            total.windows += op.windows
            total.items += top + 1
            total.problems += op.problems
            if op.summary is not None:
                merged.append(op.summary)
            try:
                rows = oracles.parse_csv(out.read_text())
            except (OSError, ValueError) as exc:
                total.problems.append(f"{family}: unreadable output: {exc}")
                continue
            if family == "franel":
                found = oracles.check_franel(rows, top + 1)
            else:
                found = oracles.check_values(rows, expected[family])
            total.problems += [f"{family}: {p}" for p in found]
        if traced:
            total.summary = merge_summaries(merged)
            total.totals = {"points": 0, "skipped": 0}
        run.ops.append(total)
        traced = bool(run.args.trace) and not traced


# -- metrics ------------------------------------------------------------------

def merge_summaries(summaries: list[dict]) -> dict:
    """Sum the tracer summaries of the processes of one operation."""
    functions: dict[str, dict] = {}
    caches: dict[str, dict] = {}
    for s in summaries:
        for name, f in s["functions"].items():
            acc = functions.setdefault(
                name, {"layer": f["layer"], "calls": 0, "total_s": 0.0,
                       "self_s": 0.0, "wait_s": 0.0})
            for key in ("calls", "total_s", "self_s", "wait_s"):
                acc[key] += f[key]
        for name, c in s["caches"].items():
            acc = caches.setdefault(name, {"hits": 0, "misses": 0, "entries": 0})
            for key in acc:
                acc[key] += c[key]
    return {"functions": functions, "caches": caches}


def layer_values(op: Op, untraced_wall: float) -> dict[str, float]:
    """Per-layer metrics of one traced operation."""
    fns, caches = op.summary["functions"], op.summary["caches"]

    def fn(name: str, key: str) -> float:
        return fns.get(name, {}).get(key, 0)

    def hit_ratio(name: str) -> float:
        c = caches.get(name, {"hits": 0, "misses": 0})
        looked_up = c["hits"] + c["misses"]
        return c["hits"] / looked_up if looked_up else 0.0

    values: dict[str, float] = {}
    layer_self: dict[str, float] = {}
    for name, f in fns.items():
        if f["layer"] is not None:
            layer_self[f["layer"]] = layer_self.get(f["layer"], 0.0) + f["self_s"]
        values[f"{name}.calls"] = f["calls"]
        values[f"{name}.self_s"] = f["self_s"]
        values[f"{name}.total_s"] = f["total_s"]
        values[f"{name}.s"] = f["total_s"]  # audit.registry.<entry id>.s
    for layer, s in layer_self.items():
        values[f"{layer}.self_s"] = s
    for name in caches:
        values[f"{name}.hit_ratio"] = hit_ratio(name)
        values[f"{name}.cache_entries"] = caches[name]["entries"]
    values["classic_numbers.cache_entries"] = sum(
        c["entries"] for n, c in caches.items() if n.startswith("classic_numbers.")
    )
    values["audit.registry.build_s"] = fn("audit.registry.build_registry", "total_s")
    values["audit.runner.render_s"] = sum(
        fn(f"audit.runner.render_{k}", "total_s") for k in ("json", "markdown", "csv")
    )
    values["audit.runner.queue_wait_s"] = fn("audit.runner.evaluate_entry", "wait_s")
    values["audit.runner.points"] = (op.totals or {}).get("points", 0)
    values["audit.runner.skipped"] = (op.totals or {}).get("skipped", 0)
    values["trace.wall_s"] = op.wall_s
    values["trace.untraced_s"] = op.wall_s - sum(layer_self.values())
    values["trace.overhead_ratio"] = op.wall_s / untraced_wall
    return values


def compute_metrics(run: Run, spec: dict, speed: HostSpeed) -> dict[str, dict]:
    scales = [speed.scale(op.windows) for op in run.ops]
    if not run.args.trace:
        plain = [(op, k) for op, k in zip(run.ops, scales) if not op.traced]
        setups = [wall * speed.factor(*window)
                  for wall, window in zip(run.setups, run.setup_windows)]
        values = {
            "wall_s": statistics.median(op.wall_s * k for op, k in plain),
            "cpu_s": statistics.median(op.cpu_s * k for op, k in plain),
            "items_per_s": statistics.median(
                op.items / (op.wall_s * k) if op.wall_s else 0.0 for op, k in plain
            ),
            "setup_s": statistics.median(setups) if setups else 0.0,
            "peak_rss_mb": statistics.median(op.rss_mb for op, _ in plain),
        }
        wanted = spec["end_to_end"]
    else:
        # Ops alternate untraced, traced: each traced op is compared with
        # the untraced op just before it, both corrected for host speed.
        per_op = [layer_values(op, prev.wall_s * k_prev / k)
                  for prev, op, k_prev, k in zip(run.ops, run.ops[1:], scales, scales[1:])
                  if op.traced and not prev.traced and op.summary is not None]
        values = {
            m["name"]: statistics.median(v.get(m["name"], 0) for v in per_op)
            for m in spec["per_layer"]
        } if per_op else {}
        wanted = spec["per_layer"]
    return {
        m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]}
        for m in wanted
    }


# -- run context and output ---------------------------------------------------

def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "binomsums").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip()


def host_reference_s() -> float:
    """Median time of three runs of the host speed reference loop, recorded
    at the start and end of a run so that host speed drift is visible."""
    return statistics.median(reference_loop(15000) for _ in range(3))


def context(args: argparse.Namespace) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "loadavg_start": os.getloadavg(),
        "host_ref_s_start": host_reference_s(),
        "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
    }


def print_catalogue(spec: dict) -> None:
    moves = json.loads((BENCH / "layer_map.json").read_text())
    print(f"command: {' '.join(spec['command'])}  (run_seconds {spec['run_seconds']})")
    print("\nworkloads:")
    for w in spec["workloads"]:
        print(f"  {w['name']:14s} {w['why']}")
    print("\nend-to-end metrics (--trace 0):")
    for m in spec["end_to_end"]:
        print(f"  {m['name']:14s} {m['unit']:6s} {m['better']:6s} bound {m['bound']}")
    print("\nper-layer metrics (--trace 1) -> what they should move:")
    for m in spec["per_layer"]:
        hint = moves.get(m["name"]) or next(
            (v for k, v in moves.items() if k.endswith("*") and m["name"].startswith(k[:-1])),
            "",
        )
        print(f"  {m['name']:40s} {m['unit']:6s} {m['better']:6s} {hint}")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="defaults to run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--list", action="store_true",
                        help="print every metric with its unit and exit")
    args = parser.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print("error: BENCHMARK.json not found at the repository root", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.list:
        print_catalogue(spec)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    if args.seconds is None:
        args.seconds = float(spec["run_seconds"])
    if not (SRC / "binomsums" / "cli.py").is_file():
        print(f"error: no binomsums sources under {SRC}", file=sys.stderr)
        return 2
    # The build step: byte-compile the sources once, outside every timing.
    if not compileall.compile_dir(str(SRC), quiet=2):
        print("error: the sources do not compile", file=sys.stderr)
        return 2

    # One CPU for the harness, every child and the sampler, so that the
    # sampler sees the speed the children run at.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    ctx = context(args)
    ctx["pinned_cpu"] = cpu
    if args.workload == "seq_large_n":
        ctx["lam"] = "%d/%d" % seq_lambda(args.seed)
    run = Run(args)
    sampler = Sampler(run.tmp / "host-speed.json")
    try:
        {"audit_cold": audit_cold, "audit_warm": audit_warm,
         "seq_large_n": seq_large_n}[args.workload](run)
    finally:
        samples = sampler.stop()
    if not samples:
        print("error: the host speed sampler recorded nothing", file=sys.stderr)
        return 2
    speed = HostSpeed(samples)
    ctx["host_sample_mean_ms"] = speed.mean_s * 1000
    ctx["host_samples"] = len(samples)
    ctx["host_samples_dropped"] = speed.dropped
    ctx["loadavg_end"] = os.getloadavg()
    ctx["host_ref_s_end"] = host_reference_s()
    ctx["elapsed_s"] = time.perf_counter() - run.start

    failed = sum(1 for op in run.ops if op.problems) + len(run.setup_problems)
    attempted = len(run.ops) + len(run.setup_problems)
    if not run.ops or not any(not op.traced for op in run.ops):
        metrics = {m["name"]: {"value": 0.0, "unit": m["unit"]}
                   for m in spec["per_layer" if args.trace else "end_to_end"]}
        attempted = max(attempted, 1)
        failed = max(failed, 1)
    else:
        metrics = compute_metrics(run, spec, speed)

    record = {
        "context": ctx,
        "setup_s": run.setups,
        "setup_speed": [speed.factor(*w) for w in run.setup_windows],
        "setup_problems": run.setup_problems,
        "ops": [
            {"wall_s": op.wall_s, "cpu_s": op.cpu_s, "rss_mb": op.rss_mb,
             "speed": speed.scale(op.windows), "items": op.items,
             "traced": op.traced, "problems": op.problems}
            for op in run.ops
        ],
        "metrics": metrics,
    }
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")

    print(f"context: {json.dumps(ctx)}")
    for op in run.ops:
        for problem in op.problems:
            print(f"FAILED: {problem}")
    for problem in run.setup_problems:
        print(f"FAILED: {problem}")
    print(f"operations: {attempted}, failed: {failed}, "
          f"error_rate: {failed / attempted:.4f}")
    for key, m in metrics.items():
        print(f"{key:40s} {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
