"""The ``python -m binomsums.cli`` entry point end to end.

Each command runs in a fresh interpreter and writes its output file; the
benchmark's oracles (``perfbench/oracles.py``, standard library only)
check it: the audit report against the pinned verdicts, grid totals and
digest, and each ``seq`` range against an independent recurrence, closed
form or plain integer sum.
"""

from __future__ import annotations

import importlib.util
import json
import os
import subprocess
import sys
from math import factorial
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

_spec = importlib.util.spec_from_file_location("oracles", ROOT / "perfbench" / "oracles.py")
oracles = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracles)


def _env() -> dict[str, str]:
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def _cli(*args: str, check: bool = True, **kwargs) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-m", "binomsums.cli", *args],
        env=_env(),
        timeout=300,
        check=check,
        **kwargs,
    )


def test_audit_run_matches_the_pinned_report(tmp_path):
    out = tmp_path / "report.json"
    _cli("run", "--threads", "1", "--out", str(out))
    pinned = json.loads((ROOT / "perfbench" / "expected_audit.json").read_text())
    assert oracles.check_audit(out.read_text(), pinned) == []


def test_seq_franel_follows_the_recurrence(tmp_path):
    out = tmp_path / "franel.csv"
    _cli("seq", "franel", "--range", "0..600", "--out", str(out))
    assert oracles.check_franel(oracles.parse_csv(out.read_text()), 601) == []


@pytest.mark.parametrize(
    "args, count, expected",
    [
        (("daehee",), 31, oracles.daehee),
        (("changhee",), 31, oracles.changhee),
        (("y6", "--params", "m=3,p=3,lam=5/11"), 61, lambda n: oracles.y6_m3_p3(n, 5, 11)),
        (
            ("franel", "--params", "m=3,lam=5/11"),
            61,
            lambda n: factorial(n) * oracles.y6_m3_p3(n, 5, 11),
        ),
        (
            ("moment", "--params", "m=3,p=3"),
            61,
            lambda n: factorial(n) * oracles.y6_m3_p3(n, 1, 1),
        ),
    ],
    ids=["daehee", "changhee", "y6", "franel_m3", "moment"],
)
def test_seq_matches_the_oracle_values(tmp_path, args, count, expected):
    out = tmp_path / "seq.csv"
    _cli("seq", *args, "--range", f"0..{count - 1}", "--out", str(out))
    rows = oracles.parse_csv(out.read_text())
    assert oracles.check_values(rows, [str(expected(n)) for n in range(count)]) == []


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
def test_running_out_of_memory_exits_two_without_a_traceback(tmp_path):
    # the runner lists every point of inP1's grid before it evaluates one;
    # with m and n up to 10,000 that is billions of points, far beyond a
    # 400 MB address space, so the child runs out of memory within seconds
    # (audit seq writes each row as it is computed, so no range of it
    # serves here)
    import resource

    config = tmp_path / "huge.cfg"
    config.write_text("[inP1]\nm_max = 10000\nn_max = 10000\n")
    limit = 400 * 2**20
    done = _cli(
        "run", "--filter", "inP1", "--config", str(config),
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, limit)),
        capture_output=True,
        text=True,
        check=False,
    )
    assert (done.returncode, done.stdout) == (2, "")
    assert "Traceback" not in done.stderr
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


@pytest.mark.parametrize(
    "args, lines",
    [
        (("seq", "franel", "--range", "0..3000"), 2),  # | head -n 2
        (("run", "--filter", "chu"), 0),  # | true
        (("list",), 0),
    ],
    ids=["seq", "run", "list"],
)
def test_a_reader_that_closes_early_leaves_the_exit_code(args, lines):
    # the reader takes its lines and closes the pipe; the command drops the
    # rest of its output and exits as it would have, with nothing on stderr
    with subprocess.Popen(
        [sys.executable, "-m", "binomsums.cli", *args],
        env=_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
    ) as proc:
        head = [proc.stdout.readline() for _ in range(lines)]
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=300)
    assert (code, err) == (0, "")
    assert head == ["n,value\n", "0,1\n"][:lines]
