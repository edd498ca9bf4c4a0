"""Registry integrity, grid configuration, runner behaviour, and the CLI."""

from __future__ import annotations

import json
import os
import subprocess
import sys
import threading
from fractions import Fraction
from math import comb, factorial, lcm
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from binomsums import cli, y6_engine
from binomsums.audit import (
    AuditConfig,
    ConfigError,
    GridSpec,
    Verdict,
    build_registry,
    evaluate_entry,
    load_config,
    run_audit,
)
from binomsums.audit import registry
from binomsums.audit.registry import IdentityEntry
from binomsums.audit.runner import render_csv, render_json, render_markdown
from binomsums.classic_numbers import (
    bernoulli_poly_order,
    euler_poly_order,
    stirling2,
)
from binomsums.exact_core import Poly
from binomsums.y6_engine import bnk, franel, y6

rationals = st.fractions(min_value=-5, max_value=5, max_denominator=7)

EXPECTED_IDS = {
    "golombek", "CC2", "Bs1", "boyadzhiev", "altStirling", "CB1_xu",
    "tpoly", "xu_x", "fd_ogf", "Cab3", "Caa3", "y6G", "y6bb", "chu",
    "dixon", "cusick_sym", "cusick_diag", "franel3", "franel4", "AWolf",
    "alt3", "catalan_CN", "legendre_P0", "legendre_P2", "changhee_theorem",
    "Yp1Yp2_bridge", "py6a", "py6ab", "inP1", "inP2", "inP8", "inP8a",
    "P1_corollary", "inP3_4", "inP5_6", "mirimanoff_frobenius",
    "apostol_powersum", "faulhaber", "alt_euler_sum", "sec6_stirling",
    "sec6_bernoulli", "sec6_euler", "yp3_euler_operator",
    "vowe_recurrence", "vowe_legendre", "ogf_00", "ogf_01", "ogf_12",
    "ogf_m12",
}


class TestRegistry:
    def test_expected_ids_all_present(self):
        ids = {e.id for e in build_registry()}
        missing = EXPECTED_IDS - ids
        assert not missing, f"registry is missing {sorted(missing)}"

    def test_ids_unique(self):
        ids = [e.id for e in build_registry()]
        assert len(ids) == len(set(ids))

    def test_corrected_present_when_required(self):
        for entry in build_registry():
            if entry.expected is Verdict.HOLDS_CORRECTED_ONLY:
                assert entry.corrected is not None, entry.id

    def test_every_grid_nonempty(self):
        config = AuditConfig()
        for entry in build_registry():
            points = list(entry.grid(config.for_entry(entry.id)))
            assert points, entry.id

    @pytest.mark.parametrize("lam", ["0", "1", "-2", "-1/2", "7/3"])
    def test_binom_sum_matches_the_fraction_loop(self, lam):
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        gs = [
            lambda j: Fraction(j + 1, 3),
            lambda j: (j + 1) ** 3 - j**3,  # int-valued
            Poly([Fraction(1, 2), -3, Fraction(5, 7)]),  # a Poly evaluated at j
            lambda j: Fraction(j - 2, j + 2) if j % 2 else 2 * j - 5,  # mixed
        ]
        for g in gs:
            for n in range(7):
                # g(0..n) as integer numerators over one denominator
                gj = [Fraction(g(j)) for j in range(n + 1)]
                den = lcm(*[v.denominator for v in gj])
                values = [int(v * den) for v in gj]
                outer = factorial(n) * 2**n
                for p in range(4):
                    expected = sum(
                        Fraction(comb(n, j)) ** p * lam**j * g(j) for j in range(n + 1)
                    )
                    got = registry._binom_sum(n, p, a, b, values, den)
                    assert got == expected and isinstance(got, Fraction)
                    # an outer divisor folded into the denominator
                    got = registry._binom_sum(n, p, a, b, values, den * outer)
                    assert got == expected / outer

    @pytest.mark.parametrize("lam", ["0", "1", "-2", "-1/2", "7/3"])
    def test_y6_sum_matches_the_fraction_loops(self, lam):
        lam = Fraction(lam)
        a, b = lam.numerator, lam.denominator
        for m in range(6):
            for n in range(6):
                for p in range(4):
                    ys = [y6(k, n, lam, p) for k in range(m + 1)]
                    integral = sum(
                        comb(m, k) * ys[k] / (m - k + 1) for k in range(m + 1)
                    )
                    assert registry._coefficient_integral(m, n, p, a, b) == integral
                    expanded = sum(
                        comb(m, k) * Fraction(m + 1, m - k + 1) * ys[k]
                        for k in range(m + 1)
                    )
                    assert registry._inp8a(m, n, p, lam, corrected=True)[0] == expanded
                    at_one = sum(comb(m, k) * ys[k] for k in range(m + 1))
                    assert (
                        registry._p1_corollary(m, n, p, lam, corrected=True)[1]
                        == at_one
                    )
                    recurrence = Poly(
                        [comb(m, i) * y6(m - i + 1, n, lam, p) for i in range(m + 1)]
                    )
                    assert registry._py6ab(m, n, p, lam)[1] == recurrence

    @given(
        st.integers(min_value=0, max_value=6),
        st.integers(min_value=0, max_value=9),
        st.one_of(st.sampled_from([Fraction(0), Fraction(1), Fraction(-1)]), rationals),
        st.one_of(st.just(Fraction(0)), rationals),
    )
    @settings(max_examples=300)
    def test_power_sum_matches_the_fraction_loops(self, m, upper, lam, x0):
        # _binom_sum at p = 0 against the Fraction loop of the power sums
        # (x0 = 0) and the former left side of mirimanoff_frobenius; upper = 0
        # is the empty sum
        total, lj = Fraction(0), Fraction(1)
        for j in range(upper):
            total += lj * Fraction(j) ** m
            lj *= lam
        assert registry._power_sum(m, upper, lam) == total
        shifted = sum((lam**j * (x0 + j) ** m for j in range(upper)), Fraction(0))
        value = registry._power_sum(m, upper, lam, x0)
        assert value == shifted and type(value) is Fraction
        if upper and lam not in (0, 1):
            lhs, _ = registry._mirimanoff_frobenius(m, upper, x0, lam, corrected=True)
            assert lhs == shifted

    @given(
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=5),
        st.integers(min_value=0, max_value=2),
        st.one_of(st.just(Fraction(0)), rationals),
    )
    @settings(max_examples=60, deadline=None)
    def test_sec6_inner_sums_match_the_fraction_loops(self, m, n, p, lam):
        # the former per-k Fraction sums over the order-n polynomials
        def bernoulli_inner(k):
            return sum(
                comb(m + n, v) * stirling2(v, n) * bernoulli_poly_order(m + n - v, n)(k)
                for v in range(m + n + 1)
            )

        def euler_inner(k):
            return sum(
                comb(m, v) * bnk(v, n) * euler_poly_order(m - v, n)(k)
                for v in range(m + 1)
            )

        def weighted(inner):
            return sum(
                Fraction(comb(n, k)) ** p * lam**k * inner(k) for k in range(n + 1)
            )

        bernoulli = weighted(bernoulli_inner) / (comb(m + n, n) * factorial(n))
        assert registry._sec6_bernoulli(m, n, p, lam)[1] == bernoulli
        euler = weighted(euler_inner) / (factorial(n) * 2**n)
        assert registry._sec6_euler(m, n, p, lam)[1] == euler

    @pytest.mark.parametrize("lam", ["-1", "1/2", "2"])
    def test_sec6_stirling_inner_sum_matches_the_fraction_loop(self, lam):
        lam = Fraction(lam)
        for m in range(6):
            for n in range(6):
                for p in range(1, 4):

                    def inner(k):
                        return sum(
                            stirling2(m, l) / (factorial(n - k) * factorial(k - l))
                            for l in range(k + 1)
                        )

                    expected = sum(
                        Fraction(comb(n, k)) ** (p - 1) * lam**k * inner(k)
                        for k in range(n + 1)
                    )
                    assert registry._sec6_stirling(m, n, p, lam)[1] == expected

    def test_binom_sum_is_independent_of_the_routes_it_checks(self):
        names = set(registry._binom_sum.__code__.co_names)
        assert not names & {"y6", "p_poly", "raw_sum_poly", "r_poly"}

    def test_audit_all_is_the_union_of_the_module_lists(self):
        from binomsums import audit
        from binomsums.audit import config, runner

        modules = [config, registry, runner]
        names = [name for mod in modules for name in mod.__all__]
        assert len(names) == len(set(names))
        assert sorted(audit.__all__) == sorted(names)
        for mod in modules:
            for name in mod.__all__:
                assert getattr(audit, name) is getattr(mod, name)
        assert {"ConfigError", "DEFAULT_LAMBDAS"} <= set(config.__all__)

    def test_corrected_required_by_constructor(self):
        with pytest.raises(ValueError):
            IdentityEntry(
                id="bad",
                paper_ref="x",
                expected=Verdict.HOLDS_CORRECTED_ONLY,
                printed=lambda: (0, 0),
                grid=lambda spec: iter([{}]),
            )


class TestConfig:
    def test_defaults(self):
        spec = GridSpec()
        assert (spec.m_max, spec.n_max, spec.p_max) == (8, 8, 4)
        assert Fraction(-1, 2) in spec.lambdas

    def test_load_with_overrides(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            """
            # default grid
            m_max = 4
            lambdas = 1, -1, 1/2

            [chu]
            n_max = 3
            """
        )
        config = load_config(path)
        assert config.default.m_max == 4
        assert config.default.lambdas == (
            Fraction(1),
            Fraction(-1),
            Fraction(1, 2),
        )
        assert config.for_entry("chu").n_max == 3
        assert config.for_entry("chu").m_max == 4  # inherits earlier default
        assert config.for_entry("dixon").n_max == 8

    def test_section_may_set_a_key_set_at_the_top(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("n_max = 4\n[chu]\nn_max = 3\n[dixon]\nm_max = 2\n")
        config = load_config(path)
        assert config.default.n_max == 4
        assert config.for_entry("chu").n_max == 3
        assert config.for_entry("dixon") == GridSpec(m_max=2, n_max=4)

    def test_bad_key_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("q_max = 4\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_bad_value_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("m_max = 0.5\n")
        with pytest.raises(ConfigError):
            load_config(path)

    def test_unknown_override_id_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text("[no_such_entry]\nn_max = 2\n")
        config = load_config(path)
        with pytest.raises(ConfigError):
            run_audit(config, pattern="chu")


class TestRunner:
    def test_single_entry_verdict(self):
        report = run_audit(pattern="chu")
        (result,) = report.results
        assert result.verdict is Verdict.HOLDS_PRINTED
        assert result.matches_expected
        assert result.counterexample is None
        assert result.points == 21

    def test_counterexample_has_both_sides(self):
        report = run_audit(pattern="cusick_diag")
        (result,) = report.results
        assert result.verdict is Verdict.FAILS_BOTH
        ce = result.counterexample
        assert ce is not None
        assert set(ce) >= {"point", "printedLhs", "printedRhs"}
        assert ce["printedLhs"] != ce["printedRhs"]

    def test_skipped_points_reported_with_reasons(self):
        report = run_audit(pattern="apostol_powersum")
        (result,) = report.results
        assert result.skipped
        assert all("lambda" in item["reason"] for item in result.skipped)

    def test_empty_grid_is_config_error(self):
        entry = IdentityEntry(
            id="hollow",
            paper_ref="x",
            expected=Verdict.HOLDS_PRINTED,
            printed=lambda **pt: (0, 0),
            grid=lambda spec: iter([{"lam": Fraction(1)}]),
            singular=lambda **pt: "always singular",
        )
        with pytest.raises(ConfigError, match="every grid point is singular"):
            evaluate_entry(entry, AuditConfig())

    @pytest.mark.parametrize("entry", build_registry(), ids=lambda e: e.id)
    def test_sides_share_their_nesting(self, entry):
        # the runner compares sides with !=, under which a list never equals
        # a tuple; at the first active point both sides of every form nest
        # lists and tuples alike, so != compares values, not containers
        def shape(value):
            if isinstance(value, (list, tuple)):
                return type(value), [shape(v) for v in value]
            return None

        pt = next(
            pt
            for pt in entry.grid(AuditConfig().for_entry(entry.id))
            if entry.singular(**pt) is None
        )
        for form in (entry.printed, entry.corrected):
            if form is not None:
                lhs, rhs = form(**pt)
                assert shape(lhs) == shape(rhs)

    @pytest.mark.parametrize(
        "entry_id, builder, builds",
        [
            ("sec6_stirling", "_stirling_values", 81),
            ("sec6_bernoulli", "_sec6_bernoulli_values", 36),
            ("sec6_euler", "_sec6_euler_values", 36),
            ("inP8a", "_inp8a_values", 82),
            ("inP3_4", "_bernoulli_values", 81),
            ("inP5_6", "_euler_values", 81),
            ("yp3_euler_operator", "_euler_operator_r", 216),
        ],
    )
    def test_tables_are_built_once_per_evaluation(
        self, monkeypatch, entry_id, builder, builds
    ):
        # on the default grid each lam-invariant table is built once per
        # distinct int key, not once per grid point, and none outlives the
        # evaluation
        build = getattr(registry, builder)
        keys = []

        def counted(*key):
            keys.append(key)
            return build(*key)

        monkeypatch.setattr(registry, builder, counted)
        (entry,) = [e for e in build_registry() if e.id == entry_id]
        result = evaluate_entry(entry, AuditConfig())
        assert result.matches_expected
        assert len(keys) == len(set(keys)) == builds
        assert not registry._TABLES

    def test_direct_calls_keep_no_table(self, monkeypatch):
        # outside evaluate_entry an evaluator builds its tables afresh, so a
        # kernel patched between two direct calls is read by the second
        before = registry._sec6_stirling(m=2, n=3, p=1, lam=1)[1]
        assert not registry._TABLES
        monkeypatch.setattr(registry, "stirling2", lambda n, k: 2 * stirling2(n, k))
        after = registry._sec6_stirling(m=2, n=3, p=1, lam=1)[1]
        assert after == 2 * before != 0
        assert not registry._TABLES

    def test_determinism_modulo_run_metadata(self):
        a = json.loads(render_json(run_audit(pattern="cusick_*")))
        b = json.loads(render_json(run_audit(pattern="cusick_*")))
        for doc in (a, b):
            doc.pop("runId")
            doc.pop("timestamp")
            doc.pop("elapsedSeconds")
        assert a == b

    def test_entries_run_on_the_calling_thread(self, monkeypatch):
        from binomsums.audit import runner as runner_module

        idents = []
        evaluate = runner_module.evaluate_entry

        def recording(entry, config):
            idents.append(threading.get_ident())
            return evaluate(entry, config)

        monkeypatch.setattr(runner_module, "evaluate_entry", recording)
        report = run_audit(pattern="ogf_*", threads=4)
        assert len(idents) == len(report.results) == 4
        assert set(idents) == {threading.get_ident()}

    def test_parallel_matches_serial(self):
        serial = run_audit(pattern="ogf_*", threads=1)
        parallel = run_audit(pattern="ogf_*", threads=4)
        assert [(r.id, r.verdict) for r in serial.results] == [
            (r.id, r.verdict) for r in parallel.results
        ]

    def test_render_formats(self):
        report = run_audit(pattern="chu")
        doc = json.loads(render_json(report))
        assert set(doc) >= {"runId", "gridTotals", "entries"}
        entry = doc["entries"][0]
        assert set(entry) >= {
            "id",
            "paperRef",
            "verdict",
            "expected",
            "points",
            "skipped",
        }
        md = render_markdown(report)
        assert "| chu |" in md
        csv_text = render_csv(report)
        assert csv_text.splitlines()[0].startswith("id,")
        assert "chu,HOLDS_PRINTED" in csv_text


class TestCli:
    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "cusick_diag" in out and "FAILS_BOTH" in out

    def test_run_exit_zero_and_json(self, capsys):
        assert cli.main(["run", "--filter", "chu", "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["entries"][0]["id"] == "chu"

    def test_import_loads_no_thread_pool_or_uuid(self):
        # start-up cost of every CLI process: a run imports no thread pool,
        # whatever --threads says, and the run id needs no uuid module
        code = (
            "import os, sys; before = set(sys.modules); import binomsums.cli; "
            "binomsums.cli.main(['run', '--filter', 'chu', '--threads', '4', "
            "'--out', os.devnull]); "
            "new = set(sys.modules) - before; "
            "print(' '.join(sorted(new & {'concurrent.futures', 'uuid'})))"
        )
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        out = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True,
            text=True,
            timeout=60,
            check=True,
        )
        assert out.stdout.strip() == ""

    def test_run_writes_file(self, tmp_path):
        out = tmp_path / "report.json"
        code = cli.main(
            ["run", "--filter", "dixon", "--out", str(out), "--format", "json"]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["entries"][0]["verdict"] == "HOLDS_PRINTED"

    def test_run_verdict_mismatch_exits_one(self, monkeypatch, capsys):
        from binomsums.audit import runner as runner_module

        lying = IdentityEntry(
            id="lying",
            paper_ref="x",
            expected=Verdict.FAILS_BOTH,
            printed=lambda: (Fraction(1), Fraction(1)),
            grid=lambda spec: iter([{}]),
        )
        monkeypatch.setattr(runner_module, "build_registry", lambda: [lying])
        assert cli.main(["run", "--filter", "lying"]) == 1
        capsys.readouterr()

    def test_run_unmatched_filter_exits_two(self, tmp_path, capsys):
        assert cli.main(["run", "--filter", "zzz_nothing"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:")
        out = tmp_path / "report.json"
        assert cli.main(["run", "--filter", "zzz_nothing", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error:")
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "-3"])
    def test_run_threads_below_one_exits_two(self, capsys, threads):
        assert cli.main(["run", "--filter", "chu", "--threads", threads]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: threads must be at least 1")

    def test_run_bad_config_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("nonsense without equals\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        capsys.readouterr()

    def test_run_zero_denominator_lambda_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("m_max = 2\nlambdas = 1/2, 1/0\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        assert "error: line 2: bad value for lambdas" in capsys.readouterr().err

    @pytest.mark.parametrize("lambdas", ["1, 1, 2", "1, 2/2"])
    def test_run_repeated_lambda_exits_two(self, tmp_path, capsys, lambdas):
        path = tmp_path / "twice.cfg"
        path.write_text(f"m_max = 2\nlambdas = {lambdas}\n")
        assert cli.main(["run", "--filter", "ogf_01", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: bad value for lambdas: ")

    def test_run_repeated_key_in_a_section_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("[chu]\nm_max = 2\nm_max = 3\n")
        assert cli.main(["run", "--filter", "chu", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 3: key 'm_max' given twice\n"

    def test_run_repeated_section_exits_two(self, tmp_path, capsys):
        path = tmp_path / "twice.cfg"
        path.write_text("[chu]\nn_max = 3\n[dixon]\nn_max = 2\n[chu]\nm_max = 2\n")
        assert cli.main(["run", "--filter", "chu", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: line 5: section [chu] given twice\n"

    def test_run_huge_grid_bound_exits_two(self, tmp_path, capsys):
        # a bound past a C index must be refused as configuration, not end
        # in a traceback with the verdict-mismatch code
        path = tmp_path / "huge.cfg"
        path.write_text("n_max = 3\nm_max = 99999999999999999999999\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: line 2: bad value for m_max: ")
        assert "Traceback" not in captured.err

    def test_run_apostol_powersum_at_lambda_zero(self, tmp_path, capsys):
        path = tmp_path / "lam.cfg"
        path.write_text("lambdas = 0, 2\n")
        argv = ["run", "--filter", "apostol_powersum", "--config", str(path)]
        assert cli.main([*argv, "--format", "json"]) == 0
        (entry,) = json.loads(capsys.readouterr().out)["entries"]
        assert entry["verdict"] == "HOLDS_CORRECTED_ONLY"
        assert entry["skipped"] == []

    @pytest.mark.parametrize("bound", ["m_max = -1", "p_max = -3"])
    def test_run_empty_grid_exits_two(self, tmp_path, capsys, bound):
        path = tmp_path / "empty.cfg"
        path.write_text(bound + "\n")
        assert cli.main(["run", "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.endswith(": grid is empty\n")
        assert "skip" not in err and "singular" not in err

    def test_seq_csv(self, capsys):
        assert cli.main(["seq", "franel", "--range", "0..4"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,2", "2,10", "3,56", "4,346"]

    def test_seq_daehee(self, capsys):
        assert cli.main(["seq", "daehee", "--range", "0..3"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,-1/2", "2,2/3", "3,-3/2"]

    @pytest.mark.parametrize(
        "family, closed_form",
        [
            ("daehee", lambda n: Fraction((-1) ** n * factorial(n), n + 1)),
            ("changhee", lambda n: Fraction((-1) ** n * factorial(n), 2**n)),
        ],
        ids=["daehee", "changhee"],
    )
    def test_seq_daehee_changhee_closed_forms(self, family, closed_form, capsys):
        out = _seq_output([family, "--range", "0..200"], capsys)
        expected = "".join(f"{n},{closed_form(n)}\n" for n in range(201))
        assert out == "n,value\n" + expected

    def test_seq_bnk_geometric_row(self, capsys):
        code = cli.main(
            ["seq", "bnk", "--params", "d=0", "--range", "0..4"]
        )
        assert code == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == ["n,value", "0,1", "1,2", "2,4", "3,8", "4,16"]

    def test_seq_json_fraction_params(self, capsys):
        code = cli.main(
            [
                "seq",
                "y6",
                "--params",
                "m=1,lam=-1/2,p=2",
                "--range",
                "0..2",
                "--format",
                "json",
            ]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["params"]["lam"] == "-1/2"
        assert [v["value"] for v in doc["values"]] == ["0", "-1/2", "-3/4"]

    def test_seq_missing_required_param_exits_two(self, capsys):
        assert cli.main(["seq", "bnk", "--range", "0..3"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [["seq"], ["seq", "--range", "0..3"], ["seq", "--family", "franel"]],
        ids=["bare", "range-only", "family-option"],
    )
    def test_seq_family_is_a_required_positional(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: audit")
        assert "family" in err

    @pytest.mark.parametrize("params", ["=3", " =1/2", "m=1,=3"])
    def test_seq_empty_param_key_exits_two(self, params, capsys):
        assert cli.main(["seq", "y6", "--params", params, "--range", "0..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        bad = params.split(",")[-1]
        assert captured.err == f"error: expected key=value, got {bad!r}\n"

    @pytest.mark.parametrize(
        "params", [["m=0,m=1"], ["m=0", "m=1"]], ids=["one-item", "two-items"]
    )
    def test_seq_repeated_param_exits_two(self, params, capsys):
        argv = ["seq", "y6", "--range", "0..2"]
        for item in params:
            argv += ["--params", item]
        assert cli.main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: parameter 'm' given twice\n"

    def test_seq_bad_range_exits_two(self, capsys):
        assert cli.main(["seq", "catalan", "--range", "5..1"]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("family", ["franel", "moment"])
    def test_seq_negative_index_names_the_index(self, family, capsys):
        assert cli.main(["seq", family, "--range=-1..1"]) == 2
        assert capsys.readouterr().err == "error: indices must be >= 0\n"

    @pytest.mark.parametrize(
        "family, params",
        [
            ("bnk", "d=2,x=3"),
            ("y6", "lamb=1/2"),
            ("franel", "d=1"),
            ("moment", "lam=2"),
            ("catalan", "p=1"),
        ],
    )
    def test_seq_unknown_param_exits_two(self, family, params, capsys):
        assert cli.main(["seq", family, "--params", params, "--range", "0..2"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {family} takes no parameter ")

    def test_seq_deterministic_bytes(self, capsys):
        cli.main(["seq", "changhee", "--range", "0..6"])
        first = capsys.readouterr().out
        cli.main(["seq", "changhee", "--range", "0..6"])
        assert capsys.readouterr().out == first


def _seq_output(argv: list[str], capsys) -> str:
    assert cli.main(["seq", *argv]) == 0
    return capsys.readouterr().out


def _per_term_text(fmt: str, rng: range, params: dict, values: list) -> str:
    """``audit seq`` output rendered from values computed term by term."""
    if fmt == "json":
        doc = {
            "family": "franel",
            "params": {k: str(v) for k, v in params.items()},
            "values": [{"n": n, "value": str(v)} for n, v in zip(rng, values)],
        }
        return json.dumps(doc, indent=2) + "\n"
    return "n,value\n" + "".join(f"{n},{v}\n" for n, v in zip(rng, values))


class TestSeqFranelFastPath:
    """m = 0, lam = 1, p = 3, 4 takes the recurrence; the bytes must be
    those of the direct sum evaluated term by term."""

    @pytest.mark.parametrize("fmt", ["csv", "json"])
    @pytest.mark.parametrize(
        "lo, hi, p", [(0, 600, 3), (250, 260, 3), (0, 200, 4)]
    )
    def test_bytes_match_the_per_term_route(
        self, lo, hi, p, fmt, monkeypatch, capsys
    ):
        calls = []
        kernel = y6_engine.franel_recurrence
        monkeypatch.setattr(
            y6_engine, "franel_recurrence", lambda *a: calls.append(a) or kernel(*a)
        )
        argv = ["franel", "--range", f"{lo}..{hi}", "--format", fmt]
        params = {}
        if p != 3:
            argv += ["--params", f"p={p}"]
            params = {"p": Fraction(p)}
        rng = range(lo, hi + 1)
        expected = [franel(p, 0, n, Fraction(1)) for n in rng]
        assert _seq_output(argv, capsys) == _per_term_text(fmt, rng, params, expected)
        assert calls == [(p, hi + 1)]

    @pytest.mark.parametrize(
        "params, p, m, lam",
        [
            ("p=2", 2, 0, Fraction(1)),
            ("m=1", 3, 1, Fraction(1)),
            ("lam=2", 3, 0, Fraction(2)),
        ],
    )
    def test_other_slices_take_the_direct_sum(
        self, params, p, m, lam, monkeypatch, capsys
    ):
        def refuse(*args):
            raise AssertionError("recurrence used outside its slice")

        monkeypatch.setattr(y6_engine, "franel_recurrence", refuse)
        rng = range(0, 31)
        out = _seq_output(["franel", "--params", params, "--range", "0..30"], capsys)
        expected = [franel(p, m, n, lam) for n in rng]
        assert out == _per_term_text("csv", rng, {}, expected)


class TestSeqDigitLimit:
    """Values past CPython's 4,300-digit int -> str limit print in full, and
    the limit is restored afterwards."""

    @pytest.mark.parametrize(
        "argv, expected",
        [
            (
                ["franel", "--range", "4800..4800"],
                lambda: franel(3, 0, 4800, Fraction(1)),
            ),
            (
                ["y6", "--range", "3000..3000", "--params", "p=3,lam=5/11"],
                lambda: y6(0, 3000, Fraction(5, 11), 3),
            ),
        ],
        ids=["franel", "y6"],
    )
    def test_large_values_print_and_limit_is_restored(self, argv, expected, capsys):
        previous = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4000)
        try:
            out = _seq_output(argv, capsys)
            assert sys.get_int_max_str_digits() == 4000
            sys.set_int_max_str_digits(0)
            value = expected()
            assert len(str(value)) > 4300
            n = argv[2].partition("..")[0]
            assert out == f"n,value\n{n},{value}\n"
        finally:
            sys.set_int_max_str_digits(previous)
