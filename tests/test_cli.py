import csv
import io
import json
import multiprocessing
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from totient_forge import claims, cli, constructions
from totient_forge.cli import main
from totient_forge.primality import is_probable_prime
from totient_forge.search import FERMAT_PRIMES, PAIR_WITNESS_TABLE, RTableRow
from totient_forge.sequences import generate_sequence
from totient_forge.sieve_enum import solution_count_table


def run(capsys, argv):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def fake_c8_search(missed_m=None, raising_m=None):
    """search_pair_r for C8's tasks: the bundled witness, a larger r for
    missed_m, or a ValueError for raising_m."""
    ms = {fermat - 1: m for m, fermat in enumerate(FERMAT_PRIMES)}

    def search(task, cache_dir):
        m = ms[task.a]
        if m == raising_m:
            raise ValueError("broken claim")
        return SimpleNamespace(r=PAIR_WITNESS_TABLE[m] + 2 * (m == missed_m))

    return search


class TestSolveCommand:
    def test_k6_m2(self, capsys, cache_dir):
        code, out = run(capsys, ["--cache-dir", str(cache_dir), "solve", "--k", "6", "--M", "2"])
        assert code == 0
        assert "n=4 " in out and "n=6 " in out

    def test_witness_search_flag(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "solve", "--k", "6", "--M", "2",
            "--with-witness-search",
        ])
        assert code == 0
        ns = [line.split()[2] for line in out.splitlines()]
        assert {"n=4", "n=6", "n=7", "n=10"} <= set(ns)

    def test_k1_m2_meets_theorem_count(self, capsys, cache_dir):
        code, out = run(capsys, ["--cache-dir", str(cache_dir), "solve", "--k", "1", "--M", "2"])
        assert code == 0
        assert len(out.strip().splitlines()) >= 5

    def test_invalid_k_usage_error(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "solve", "--k", "0", "--M", "2"])
        assert exc.value.code == 2

    def test_non_decimal_rejected(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "solve", "--k", "1e6", "--M", "2"])
        assert exc.value.code == 2

    def test_byte_stable(self, capsys, cache_dir):
        argv = ["--cache-dir", str(cache_dir), "solve", "--k", "12", "--M", "1"]
        _, first = run(capsys, argv)
        _, second = run(capsys, argv)
        assert first == second

    def test_json_matches_text(self, capsys, cache_dir):
        base = ["--cache-dir", str(cache_dir)]
        _, text = run(capsys, base + ["solve", "--k", "6", "--M", "2"])
        _, as_json = run(capsys, base + ["--format", "json", "solve", "--k", "6", "--M", "2"])
        records = json.loads(as_json)
        text_lines = text.strip().splitlines()
        assert len(records) == len(text_lines)
        for record, line in zip(records, text_lines):
            assert f"k={record['k']} M={record['M']} n={record['n']} " in line
            assert f"method={record['method']}" in line

    def test_k_factors_hint(self, capsys, cache_dir):
        k = str(2**101)
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "solve", "--k", k, "--M", "1",
            "--k-factors", "2^101",
        ])
        assert code == 0
        assert len(out.strip().splitlines()) == 5

    def test_k_factors_mismatch_usage_error(self, capsys, cache_dir):
        code, _ = run(capsys, [
            "--cache-dir", str(cache_dir), "solve", "--k", "12", "--M", "2",
            "--k-factors", "2^2",
        ])
        assert code == 2

    def test_construction_defect_exits_1(self, capsys, cache_dir, monkeypatch):
        # 330 picks the 36/55 ratio; its failure is an error, even though the
        # other five solutions would clear the minimum of 3
        def unmet(k, kf, num, den):
            raise constructions.BranchHypothesisUnmet(f"{num}/{den} fails for k={k}")

        monkeypatch.setattr(constructions, "_ratio_solution", unmet)
        code = main(["--cache-dir", str(cache_dir), "solve", "--k", "330", "--M", "2",
                     "--with-witness-search"])
        assert code == 1
        assert "error: 36/55 fails" in capsys.readouterr().err


class TestOtherCommands:
    def test_totient(self, capsys, cache_dir):
        code, out = run(capsys, ["--cache-dir", str(cache_dir), "totient", "65537"])
        assert code == 0 and out.strip() == "65536"

    def test_factor(self, capsys, cache_dir):
        code, out = run(capsys, ["--cache-dir", str(cache_dir), "factor", "56066"])
        assert code == 0 and out.strip() == "2 * 17^2 * 97"

    def test_enumerate_csv(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "--format", "csv",
            "enumerate", "--k", "6", "--M", "2", "--max", "1000000",
        ])
        assert code == 0
        assert out.splitlines()[:2] == ["k,M,limit", "6,2,1000000"]
        assert out.splitlines()[2:] == ["4", "6", "7", "10"]

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_count_csv(self, capsys, cache_dir, fmt):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "--format", fmt,
            "count", "--k-max", "3", "--M", "1", "--max", "10",
        ])
        assert code == 0
        assert out == solution_count_table(3, 1, 10).to_csv()
        assert out.splitlines()[:2] == ["k,count", "1,2"]  # phi(n+1) = phi(n): n = 1, 3

    def test_count_json(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "--format", "json",
            "count", "--k-max", "10", "--M", "2", "--max", "1000",
        ])
        assert code == 0
        data = json.loads(out)
        table = solution_count_table(10, 2, 1000)
        assert data["counts"] == {str(k): c for k, c in table.counts.items()}
        assert (data["k_max"], data["M"], data["limit"]) == ("10", 2, "1000")
        assert data["min_count"] == table.min_count
        assert data["min_achievers"] == [str(k) for k in table.min_achievers]

    @pytest.mark.parametrize("argv", [
        ["--k-max", "5", "--M", "3", "--max", "100"],
        ["--k-max", "0", "--M", "2", "--max", "100"],
        ["--k-max", "5", "--M", "2", "--max", "0"],
    ])
    def test_count_invalid_input_usage_error(self, cache_dir, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "count"] + argv)
        assert exc.value.code == 2

    def test_count_range_too_large_usage_error(self, capsys, cache_dir):
        # k_max + max is past the dense table's 2**27-value cap
        code = main([
            "--cache-dir", str(cache_dir), "count", "--k-max", "1", "--M", "2",
            "--max", str(2**27),
        ])
        assert code == 2
        assert "memory cap" in capsys.readouterr().err

    def test_sequence(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "sequence",
            "--variant", "newbase", "--bound", "10000",
        ])
        assert code == 0
        terms = [int(line.split("\t")[0]) for line in out.splitlines()[1:]]
        assert terms == [2, 3, 5, 11, 19, 37, 73, 109, 1459, 2179, 2917, 4357, 8713]

    def test_search_r(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "search-r", "--a", "2", "--b", "3",
        ])
        assert code == 0
        assert out.splitlines()[0] == "r=2"

    def test_search_r_fermat_shorthand(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "search-r", "--m", "0", "--even-only",
        ])
        assert code == 0
        assert out.splitlines()[0] == "r=2"  # 2*2+1 = 5, 3*2+1 = 7

    def test_search_r_m_conflicts_with_ab(self, capsys, cache_dir):
        code, _ = run(capsys, [
            "--cache-dir", str(cache_dir), "search-r", "--m", "0", "--a", "2", "--b", "3",
        ])
        assert code == 2

    def test_search_r_json(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "--format", "json",
            "search-r", "--a", "16", "--b", "17",
        ])
        assert code == 0
        data = json.loads(out)
        assert (data["r"], data["p1"], data["p2"]) == ("6", "97", "103")

    def test_unknown_level_rejected(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "verify-claims", "--level", "bogus"])
        assert exc.value.code == 2

    def test_threads_flag_is_a_usage_error(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "--threads", "2", "factor", "6"])
        assert exc.value.code == 2

    def test_avoid_flag_is_a_usage_error(self, cache_dir):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "search-r", "--a", "16", "--b", "17",
                  "--avoid", "34"])
        assert exc.value.code == 2

    def test_factoring_bound_usage_error(self, capsys, cache_dir):
        code, _ = run(capsys, ["--cache-dir", str(cache_dir), "factor", str(10**19 + 9)])
        assert code == 2

    def test_solve_csv_format(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "--format", "csv",
            "solve", "--k", "6", "--M", "2",
        ])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "k,M,n,method,witnesses,n_factors"
        assert lines[1].startswith("6,2,4,SeqNew,")


class TestConfig:
    def test_cache_env_honored(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOTIENT_FORGE_CACHE", str(tmp_path / "from_env"))
        code, _ = run(capsys, ["search-r", "--a", "2", "--b", "3"])
        assert code == 0
        assert (tmp_path / "from_env" / "pair_search").exists()

    def test_flag_beats_env(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("TOTIENT_FORGE_CACHE", str(tmp_path / "from_env2"))
        flag_dir = tmp_path / "from_flag"
        code, _ = run(capsys, [
            "--cache-dir", str(flag_dir), "search-r", "--a", "2", "--b", "3",
        ])
        assert code == 0
        assert (flag_dir / "pair_search").exists()
        assert not (tmp_path / "from_env2").exists()

    def test_verify_claims_defaults_to_env_cache(self, capsys, tmp_path, monkeypatch):
        env_dir = tmp_path / "from_env3"
        monkeypatch.setenv("TOTIENT_FORGE_CACHE", str(env_dir))
        code, out = run(capsys, ["verify-claims", "--level", "quick"])
        assert code == 1  # C2 and C4 encode published magnitudes that fail
        csv_path = env_dir / "claims_quick.csv"
        assert f"csv report written to {csv_path}" in out
        assert csv_path.read_text().startswith("claim,status,runtime_s,anchor,evidence\nC1,Pass,")
        assert [p.name for p in env_dir.iterdir()] == ["claims_quick.csv"]


class TestUnusablePaths:
    # a path that cannot be read or written is reported, not raised
    def test_csv_report_in_a_missing_directory(self, capsys, cache_dir, tmp_path, monkeypatch):
        def must_not_run(level, cache_dir):
            pytest.fail("the claims ran before the CSV path was checked")

        monkeypatch.setattr(cli, "run_claims", must_not_run)
        code = main(["--cache-dir", str(cache_dir), "verify-claims", "--level", "quick",
                     "--csv", str(tmp_path / "no" / "such" / "x.csv")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "x.csv" in err

    def test_default_cache_dir_made_before_the_claims_run(self, tmp_path, monkeypatch):
        report = claims.ClaimReport("C1", "anchor", "Pass", "evidence", 0.0)
        fresh = tmp_path / "fresh" / "cache"

        def running(level, cache_dir):
            assert cache_dir.is_dir()
            return [report]

        monkeypatch.setattr(cli, "run_claims", running)
        assert main(["--cache-dir", str(fresh), "verify-claims", "--level", "quick"]) == 0
        assert (fresh / "claims_quick.csv").read_text().startswith("claim,status")

    def test_cache_entry_that_is_a_file(self, capsys, tmp_path):
        (tmp_path / "pair_search").write_text("")
        code = main(["--cache-dir", str(tmp_path), "search-r", "--a", "2", "--b", "3"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


class TestFormats:
    @pytest.mark.parametrize("fmt,argv", [
        ("csv", ["factor", "12"]),
        ("csv", ["totient", "12"]),
        ("csv", ["search-r", "--a", "2", "--b", "3"]),
        ("json", ["verify-claims", "--level", "quick"]),
    ])
    def test_unsupported_format_is_a_usage_error(self, capsys, cache_dir, fmt, argv):
        with pytest.raises(SystemExit) as exc:
            main(["--cache-dir", str(cache_dir), "--format", fmt] + argv)
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"{argv[0]} does not support --format {fmt}" in captured.err

    @pytest.mark.parametrize("fmt,argv", [
        ("json", ["factor", "12"]),
        ("json", ["totient", "12"]),
        ("json", ["search-r", "--a", "2", "--b", "3"]),
        ("text", ["factor", "12"]),
    ])
    def test_supported_format_runs(self, capsys, cache_dir, fmt, argv):
        code, out = run(capsys, ["--cache-dir", str(cache_dir), "--format", fmt] + argv)
        assert code == 0 and out


class TestVerifyClaimsContract:
    def test_quick_level_table_and_exit(self, capsys, cache_dir):
        code, out = run(capsys, [
            "--cache-dir", str(cache_dir), "verify-claims", "--level", "quick",
        ])
        lines = out.splitlines()
        for cid in ("C1", "C2", "C3", "C4", "C5", "C6"):
            assert any(line.startswith(f"{cid} ") for line in lines)
        assert not any(line.startswith("C7 ") for line in lines)  # quick level
        failed = sum("Fail" in line.split()[1:2] for line in lines if line and not line.startswith(" "))
        assert code == (1 if failed else 0)
        assert (cache_dir / "claims_quick.csv").exists()

    def test_csv_format_prints_only_the_csv(self, capsys, cache_dir):
        code = main(["--cache-dir", str(cache_dir), "--format", "csv", "verify-claims", "--level", "quick"])
        captured = capsys.readouterr()
        rows = list(csv.reader(io.StringIO(captured.out)))
        assert rows[0] == ["claim", "status", "runtime_s", "anchor", "evidence"]
        assert [row[0] for row in rows[1:]] == ["C1", "C2", "C3", "C4", "C5", "C6"]
        assert all(len(row) == 5 for row in rows[1:])
        assert code == 1 and [row[1] for row in rows[1:]].count("Fail") == 2  # C2 and C4
        csv_path = cache_dir / "claims_quick.csv"
        assert captured.err.strip() == f"csv report written to {csv_path}"
        assert csv_path.read_text() == captured.out

    def test_claims_levels_validated(self, cache_dir):
        from totient_forge.claims import run_claims

        with pytest.raises(ValueError):
            run_claims("bogus", cache_dir)

    def test_levels_run_the_claims_up_to_them(self, cache_dir, monkeypatch):
        # one part each, so C8 too reports its id
        table = {cid: claims._Claim(claim.level, claim.anchor, lambda d, cid=cid: cid)
                 for cid, claim in claims._CLAIMS.items()}
        monkeypatch.setattr(claims, "_CLAIMS", table)
        assert claims.LEVELS == ("quick", "full", "extreme")
        quick = ["C1", "C2", "C3", "C4", "C5", "C6"]
        assert claims.run_claims("quick", cache_dir) == quick
        assert claims.run_claims("full", cache_dir) == quick + ["C7"]
        assert claims.run_claims("extreme", cache_dir) == quick + ["C7", "C8"]

    def test_claim_exceptions_cross_the_pool_unchanged(self, capsys, cache_dir, monkeypatch):
        def broken(d):
            raise ValueError("broken claim")

        def raised_unchanged(level):
            with pytest.raises(ValueError, match="broken claim"):
                claims.run_claims(level, cache_dir)
            assert multiprocessing.active_children() == []  # the pool joined its workers
            code = main(["--cache-dir", str(cache_dir), "verify-claims", "--level", level])
            assert code == 2
            assert capsys.readouterr().err.strip() == "error: broken claim"

        c8 = claims._CLAIMS["C8"]
        table = {cid: claim._replace(run=lambda d, cid=cid: cid) for cid, claim in claims._CLAIMS.items()}
        table["C3"] = table["C3"]._replace(run=broken)
        monkeypatch.setattr(claims, "_CLAIMS", table)
        raised_unchanged("quick")
        # C3 mended: C8's search for m = 2 raises, in one of C8's five part tasks
        table["C3"] = table["C3"]._replace(run=lambda d: "C3")
        table["C8"] = c8
        monkeypatch.setattr(claims, "search_pair_r", fake_c8_search(raising_m=2))
        raised_unchanged("extreme")

    def test_a_dead_worker_fails_fast(self, tmp_path):
        # in a child interpreter, so that a claim run in-process could not
        # end the test run itself: C2's worker dies at level quick; at level
        # extreme (C1..C7 stubbed, to stay fast) the worker running C8's
        # search for m = 2 (a = 16) dies
        breakages = {
            "quick": 'claims._CLAIMS["C2"] = claims._CLAIMS["C2"]._replace(run=lambda d: os._exit(3))',
            "extreme": "\n".join([
                "for cid in claims.CLAIM_IDS[:7]:",
                "    claims._CLAIMS[cid] = claims._CLAIMS[cid]._replace(run=lambda d: None)",
                "search = claims.search_pair_r",
                "claims.search_pair_r = lambda task, cache_dir: os._exit(3) if task.a == 16 else search(task, cache_dir)",
            ]),
        }
        src = str(Path(claims.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        for level, breakage in breakages.items():
            child = f"""
import os, sys
from totient_forge import claims
from totient_forge.cli import main
{breakage}
sys.exit(main(["--cache-dir", {str(tmp_path)!r}, "verify-claims", "--level", {level!r}]))
"""
            proc = subprocess.run([sys.executable, "-c", child], capture_output=True, text=True,
                                  env=env, timeout=60)
            assert proc.returncode == 1
            assert proc.stderr.startswith("error: a claim process died (")

    @staticmethod
    def stub_c1_to_c7(monkeypatch):
        table = dict(claims._CLAIMS)
        for cid in claims.CLAIM_IDS[:7]:
            table[cid] = table[cid]._replace(run=lambda d, cid=cid: cid)
        monkeypatch.setattr(claims, "_CLAIMS", table)

    def test_c8_searches_are_five_pool_tasks(self, tmp_path, monkeypatch):
        from concurrent.futures import ProcessPoolExecutor

        submitted = []
        pool_map = ProcessPoolExecutor.map

        def recording_map(pool, fn, *iterables):
            tasks = list(zip(*iterables))
            submitted.extend(task[0] for task in tasks)
            return pool_map(pool, fn, *zip(*tasks))

        self.stub_c1_to_c7(monkeypatch)
        monkeypatch.setattr(claims, "search_pair_r", fake_c8_search())
        monkeypatch.setattr(ProcessPoolExecutor, "map", recording_map)
        reports = claims.run_claims("extreme", tmp_path)
        assert submitted == ["C1", "C2", "C3", "C4", "C5", "C6", "C7"] + ["C8"] * 5
        assert reports[:7] == list(claims.CLAIM_IDS[:7])
        assert reports[7].status == "Pass"
        assert reports[7].evidence == "; ".join(
            f"m={m}: r = 10^100 + {PAIR_WITNESS_TABLE[m] - 10**100}" for m in range(5))

    def test_one_failed_c8_part_fails_c8_once(self, tmp_path, monkeypatch):
        self.stub_c1_to_c7(monkeypatch)
        monkeypatch.setattr(claims, "search_pair_r", fake_c8_search(missed_m=2))
        pooled = claims.run_claims("extreme", tmp_path)[7]
        notes = [f"m={m}: r = 10^100 + {PAIR_WITNESS_TABLE[m] - 10**100}" for m in range(5)]
        notes[2] = f"m=2: search returned 10^100 + {PAIR_WITNESS_TABLE[2] + 2 - 10**100}, bundled value missed"
        assert pooled.status == "Fail"
        assert pooled.evidence == "; ".join(notes) + "; reproduce: totient-forge verify-claims --level extreme"
        assert pooled.evidence.count("reproduce:") == 1
        direct = claims.claim_c8(tmp_path)
        assert (direct.status, direct.evidence) == (pooled.status, pooled.evidence)

    def test_c8_runtime_is_the_sum_of_its_parts(self, tmp_path, monkeypatch):
        self.stub_c1_to_c7(monkeypatch)
        monkeypatch.setattr(claims, "_CLAIMS", dict(claims._CLAIMS, C8=claims._CLAIMS["C8"]._replace(
            run=lambda d, m: claims._C8Part(True, f"m={m}", 2.0**-m))))
        report = claims.run_claims("extreme", tmp_path)[7]
        assert report.runtime == 1 + 1 / 2 + 1 / 4 + 1 / 8 + 1 / 16
        assert report.evidence == "m=0; m=1; m=2; m=3; m=4"

    def test_pooled_c8_equals_claim_c8(self, tmp_path, monkeypatch):
        self.stub_c1_to_c7(monkeypatch)
        pooled = claims.run_claims("extreme", tmp_path / "pooled")[7]
        direct = claims.claim_c8(tmp_path / "direct")  # a cold cache, as the pooled run had
        assert pooled.status == "Pass"
        assert (direct.claim_id, direct.status, direct.evidence) == (pooled.claim_id, pooled.status, pooled.evidence)

    # a failing claim's hint names the lowest level that runs it; C2 and C4
    # fail as published, the others are made to fail here
    @pytest.mark.parametrize("cid,level,patch", [
        ("C1", "quick", ("verify_r_table", lambda: [
            RTableRow(0, 4, is_probable_prime(9), is_probable_prime(13))])),
        ("C2", "quick", None),
        ("C3", "quick", ("generate_sequence", lambda variant: generate_sequence(variant, 100))),
        ("C4", "quick", None),
        ("C5", "quick", ("enumerate_solutions", lambda k, M, limit: SimpleNamespace(solutions=(4, 6, 7)))),
        ("C6", "quick", ("solve", lambda *args, **kwargs: [])),
        ("C7", "full", ("solution_count_table", lambda k_max, M, limit: SimpleNamespace(
            min_count=3, min_achievers=(6,)))),
        ("C8", "extreme", ("search_pair_r", lambda task, cache_dir: SimpleNamespace(r=10**101))),
    ])
    def test_reproduce_hint_names_the_lowest_level(self, cache_dir, monkeypatch, cid, level, patch):
        if patch is not None:
            monkeypatch.setattr(claims, *patch)
        report = getattr(claims, f"claim_c{cid[1]}")(cache_dir)
        assert report.status == "Fail"
        assert report.evidence.endswith(f"; reproduce: totient-forge verify-claims --level {level}")
