"""Tests of the benchmark itself: the oracles must flag wrong output, the
tracer must account for all time and restore the package, and the host
speed correction must scale each operation by its own window.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import copy
import json
import sys
import threading
from fractions import Fraction
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import oracles  # noqa: E402
import run  # noqa: E402
import hostspeed  # noqa: E402
from hostspeed import HostSpeed, Sampler  # noqa: E402
from tracer import Tracer  # noqa: E402

import binomsums.cli  # noqa: E402,F401
from binomsums import audit, classic_numbers, exact_core, y6_engine  # noqa: E402
from binomsums.audit import registry, runner  # noqa: E402


def _csv(values) -> list[tuple[int, str]]:
    text = "n,value\n" + "".join(f"{n},{v}\n" for n, v in enumerate(values))
    return oracles.parse_csv(text)


def test_franel_oracle_accepts_the_program_and_flags_a_perturbed_term():
    values = [y6_engine.franel(3, 0, n, 1) for n in range(40)]
    assert oracles.check_franel(_csv(values), 40) == []
    values[17] += 1
    assert oracles.check_franel(_csv(values), 40)
    assert oracles.check_franel(_csv(values[:39]), 40)


@pytest.mark.parametrize(
    "closed, tag",
    [(oracles.daehee, classic_numbers.FamilyTag.DAEHEE),
     (oracles.changhee, classic_numbers.FamilyTag.CHANGHEE)],
)
def test_closed_form_oracles_match_and_flag_perturbation(closed, tag):
    got = [classic_numbers.classic_sequence(tag, n) for n in range(20)]
    expected = [str(closed(n)) for n in range(20)]
    assert oracles.check_values(_csv(got), expected) == []
    got[11] += Fraction(1, 3)
    assert oracles.check_values(_csv(got), expected)


def test_y6_oracle_matches_and_flags_perturbation():
    lam = Fraction(-5, 7)
    got = [y6_engine.y6(3, n, lam, 3) for n in range(30)]
    expected = [str(oracles.y6_m3_p3(n, -5, 7)) for n in range(30)]
    assert oracles.check_values(_csv(got), expected) == []
    got[29] = -got[29]
    assert oracles.check_values(_csv(got), expected)


def _small_report() -> tuple[str, dict]:
    doc = {
        "runId": "a", "timestamp": "t", "elapsedSeconds": 1.0,
        "gridTotals": {"entries": 2, "points": 10, "skipped": 1, "mismatches": 0},
        "entries": [
            {"id": "x", "verdict": "HOLDS_PRINTED", "points": 6},
            {"id": "y", "verdict": "FAILS_BOTH", "points": 4,
             "counterexample": {"printedLhs": "3/4"}},
        ],
    }
    pinned = {
        "verdicts": {"x": "HOLDS_PRINTED", "y": "FAILS_BOTH"},
        "points": 10, "skipped": 1,
        "digest": oracles.report_digest(json.dumps(doc)),
    }
    return json.dumps(doc), pinned


def test_audit_oracle_ignores_run_metadata_only():
    text, pinned = _small_report()
    doc = json.loads(text)
    doc.update(runId="b", timestamp="u", elapsedSeconds=9.9)
    assert oracles.check_audit(json.dumps(doc), pinned) == []


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d["entries"][1]["counterexample"].update(printedLhs="3/5"),
        lambda d: d["entries"][0].update(verdict="FAILS_BOTH"),
        lambda d: d["gridTotals"].update(points=11),
        lambda d: d["entries"].pop(),
    ],
)
def test_audit_oracle_flags_a_perturbed_report(mutate):
    text, pinned = _small_report()
    doc = json.loads(text)
    mutate(doc)
    assert oracles.check_audit(json.dumps(doc), pinned)
    assert oracles.check_audit("not json", pinned)


def test_pinned_audit_matches_the_full_default_audit():
    pinned = json.loads((BENCH / "expected_audit.json").read_text())
    text = runner.render_json(runner.run_audit())
    assert oracles.check_audit(text, pinned) == []
    assert len(pinned["verdicts"]) == 49


def test_seq_lambda_depends_only_on_the_seed():
    assert run.seq_lambda(7) == run.seq_lambda(7)
    seen = {run.seq_lambda(s) for s in range(50)}
    assert len(seen) == 12
    for a, b in seen:
        assert a.bit_length() == 3 and b.bit_length() == 4
        assert Fraction(a, b).denominator == b


@pytest.fixture
def tracer():
    t = Tracer()
    t.install()
    try:
        yield t
    finally:
        t.uninstall()


def test_install_rebinds_names_imported_elsewhere_and_uninstall_restores():
    before = {
        "registry.y6": registry.y6,
        "y6_engine.y6": y6_engine.y6,
        "registry.stirling1": registry.stirling1,
        "Poly.__rmul__": vars(exact_core.Poly)["__rmul__"],
        "Poly.const": vars(exact_core.Poly)["const"],
        "cli.build_registry": binomsums.cli.build_registry,
    }
    t = Tracer()
    t.install()
    try:
        assert registry.y6 is y6_engine.y6 is not before["y6_engine.y6"]
        assert registry.stirling1 is classic_numbers.stirling1
        assert registry.stirling1 is not before["registry.stirling1"]
        poly = vars(exact_core.Poly)
        assert poly["__rmul__"] is poly["__mul__"] is not before["Poly.__rmul__"]
        assert poly["__radd__"] is poly["__add__"]
        assert isinstance(poly["const"], classmethod)
        assert exact_core.Poly.const(3) == exact_core.Poly([3])
        assert binomsums.cli.build_registry is runner.build_registry
        assert audit.build_registry is registry.build_registry
    finally:
        t.uninstall()
    after = {
        "registry.y6": registry.y6,
        "y6_engine.y6": y6_engine.y6,
        "registry.stirling1": registry.stirling1,
        "Poly.__rmul__": vars(exact_core.Poly)["__rmul__"],
        "Poly.const": vars(exact_core.Poly)["const"],
        "cli.build_registry": binomsums.cli.build_registry,
    }
    assert after == before


def test_self_times_tile_the_operation_and_caches_use_lru_deltas(tracer):
    y6_engine.y6.__wrapped__.cache_clear()
    tracer.start_op()
    lam = Fraction(1, 3)
    p = exact_core.Poly([1, 2]) * exact_core.Poly([3, lam]) + 1
    for n in range(5):
        y6_engine.y6(2, n, lam, 2)
        y6_engine.y6(2, n, lam, 2)
    3 * p
    tracer.end_op()
    s = tracer.summary()
    fns = s["functions"]
    total_self = sum(f["self_s"] for f in fns.values())
    assert total_self == pytest.approx(s["wall_s"], rel=1e-9, abs=1e-12)
    assert fns["exact_core.Poly.mul"]["calls"] == 2
    assert fns["exact_core.Poly.add"]["calls"] == 1
    assert fns["y6_engine.y6"]["calls"] == 10
    assert s["caches"]["y6_engine.y6"] == {"hits": 5, "misses": 5, "entries": 5}
    assert s["spans"] >= 13


def test_self_times_tile_a_two_thread_operation(tracer):
    tracer.start_op()

    def work():
        for n in range(30):
            exact_core.Poly([n, 1]) ** 4

    threads = [threading.Thread(target=work) for _ in range(2)]
    for th in threads:
        th.start()
    for th in threads:
        th.join(timeout=60)
        assert not th.is_alive()
    tracer.end_op()
    s = tracer.summary()
    total_self = sum(f["self_s"] for f in s["functions"].values())
    assert total_self == pytest.approx(s["wall_s"], rel=1e-9, abs=1e-12)
    assert s["functions"]["exact_core.Poly.pow"]["calls"] == 60


def test_traced_registry_keeps_verdicts_and_times_each_entry(tracer):
    tracer.start_op()
    report = runner.run_audit(pattern="ogf_*")
    tracer.end_op()
    assert report.all_expected and len(report.results) == 4
    fns = tracer.summary()["functions"]
    assert fns["audit.registry.build_registry"]["calls"] == 1
    for entry_id in ("ogf_00", "ogf_01", "ogf_12", "ogf_m12"):
        assert fns[f"audit.registry.{entry_id}"]["calls"] >= 2


def test_merge_and_layer_values_sum_processes():
    summary = {
        "functions": {
            "untraced": {"layer": None, "calls": 0, "total_s": 0.0,
                         "self_s": 0.5, "wait_s": 0.0},
            "cli.main": {"layer": "cli", "calls": 1, "total_s": 2.0,
                         "self_s": 1.0, "wait_s": 0.0},
            "y6_engine.y6": {"layer": "y6_engine", "calls": 3, "total_s": 1.0,
                             "self_s": 1.0, "wait_s": 0.0},
        },
        "caches": {"y6_engine.y6": {"hits": 1, "misses": 3, "entries": 3}},
    }
    merged = run.merge_summaries([summary, copy.deepcopy(summary)])
    op = run.Op(5.0, 5.0, 20.0, 0, traced=True, summary=merged, totals={})
    values = run.layer_values(op, untraced_wall=4.0)
    assert values["y6_engine.y6.calls"] == 6
    assert values["y6_engine.y6.hit_ratio"] == 0.25
    assert values["y6_engine.y6.cache_entries"] == 6
    assert values["cli.self_s"] == 2.0
    assert values["trace.untraced_s"] == 1.0
    assert values["trace.overhead_ratio"] == 1.25


def test_host_speed_scales_each_window_to_the_nominal_speed():
    # 0.0-1.0 s at nominal speed, 1.0-2.0 s at half of it, one preempted.
    nominal = hostspeed.REF_NOMINAL_S
    samples = [(i / 10, nominal) for i in range(10)]
    samples += [(1 + i / 10, 2 * nominal) for i in range(10)]
    samples += [(1.55, 9 * nominal)]
    speed = HostSpeed(samples)
    assert speed.dropped == 1
    assert speed.factor(0.0, 0.95) == 1.0
    assert speed.factor(1.0, 1.95) == 0.5
    assert speed.factor(0.5, 1.45) == pytest.approx(0.75)
    assert speed.factor(5.0, 5.01) == 0.5  # no sample inside: the nearest
    # A 2 s operation, half at each speed, took 1.5 s at the nominal speed.
    assert 2.0 * speed.scale([(0.0, 0.95), (1.0, 1.95)]) == pytest.approx(1.5)


def test_sampler_records_until_stopped(tmp_path):
    sampler = Sampler(tmp_path / "samples.json")
    samples = sampler.stop()
    assert sampler.proc.returncode == 0
    assert samples and all(d > 0 for _, d in samples)
