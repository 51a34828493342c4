import dataclasses
import logging
import math
import os
import random
import tempfile

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from totient_forge import primality, search
from totient_forge.primality import (
    PRESIEVE_BOUND,
    SPF_LIMIT,
    PrimalityVerdict,
    Verdict,
    is_probable_prime,
    presieve,
)
from totient_forge.search import (
    FERMAT_PRIMES,
    PAIR_WITNESS_TABLE,
    LimitExhausted,
    PairSearchTask,
    Parity,
    fermat_pair_task,
    search_pair_r,
    verify_r_table,
)


def brute_force_r(a, b, start, parity=Parity.ANY, limit=10**6):
    """Independent oracle: test every candidate with sympy, no presieve."""
    r = start
    if parity is Parity.EVEN_ONLY and r % 2:
        r += 1
    step = 2 if parity is Parity.EVEN_ONLY else 1
    while r < start + limit:
        p1, p2 = a * r + 1, b * r + 1
        if sympy.isprime(p1) and sympy.isprime(p2):
            return r
        r += step
    raise AssertionError("oracle exhausted")


# Searches whose minimal r has b*r + 1 >= 1009**2 and is reached after a block
# whose forms are all below it (no presieve) and into or past a presieved one;
# picked with brute_force_r from seeded starts just below SPF_LIMIT / b
CROSSING = [
    PairSearchTask(a=17, b=28, start=36050),
    PairSearchTask(a=32, b=37, start=27416),
    PairSearchTask(a=22, b=23, start=44103),
    PairSearchTask(a=13, b=41, start=24530, parity=Parity.EVEN_ONLY),
    PairSearchTask(a=43, b=47, start=21528, parity=Parity.EVEN_ONLY),
    PairSearchTask(a=3, b=7, start=145300, parity=Parity.EVEN_ONLY),
]


class TestSearchPairR:
    def test_tiny(self):
        res = search_pair_r(PairSearchTask(a=2, b=3), use_cache=False)
        assert (res.r, res.p1, res.p2) == (2, 5, 7)

    def test_against_brute_force(self):
        rng = random.Random(424242)
        tasks = []
        for _ in range(200):
            a = rng.randrange(1, 50)
            b = rng.randrange(a + 1, 51)
            start = rng.randrange(1, 101)
            parity = rng.choice([Parity.ANY, Parity.EVEN_ONLY])
            tasks.append(PairSearchTask(a=a, b=b, start=start, parity=parity))
        for task in tasks + CROSSING:
            a, b, start, parity = task.a, task.b, task.start, task.parity
            res = search_pair_r(task, use_cache=False)
            assert res.r == brute_force_r(a, b, start, parity)
            assert res.p1 == a * res.r + 1 and res.p2 == b * res.r + 1
            assert all(v.is_prime for v in res.verdicts)
            assert res.r >= start
            if parity is Parity.EVEN_ONLY:
                assert res.r % 2 == 0

    @pytest.mark.parametrize("a,b,start,blocks", [
        (92, 211, 1, [64, 256, 1024]),  # minimal r = 396
        (2, 3, 4 * 10**9, [4096]),  # 3 * (start + 4096) + 1 > PRESIEVE_BOUND**2
    ])
    def test_presieve_block_sizes(self, a, b, start, blocks, monkeypatch):
        counts = []
        scan = search._scan_block

        def recording(task, block_start, count, step):
            counts.append(count)
            return scan(task, block_start, count, step)

        monkeypatch.setattr(search, "_scan_block", recording)
        res = search_pair_r(PairSearchTask(a=a, b=b, start=start), use_cache=False)
        assert res.r == brute_force_r(a, b, start)
        assert counts == blocks

    def test_no_presieve_below_the_table(self, monkeypatch):
        calls = []

        def recording(a, b, start, count, step, bound):
            calls.append((start, count, step, bound))
            return presieve(a, b, start, count, step, bound)

        monkeypatch.setattr(search, "presieve", recording)
        # every form of the search (a*r+1, b*r+1 <= 211*1344+1) is a table lookup
        assert search_pair_r(PairSearchTask(a=92, b=211), use_cache=False).r == 396
        assert calls == []
        for task in CROSSING:
            calls.clear()
            res = search_pair_r(task, use_cache=False)
            assert res.r == brute_force_r(task.a, task.b, task.start, task.parity)
            # the first block stays below the table, a later one is presieved
            assert calls and calls[0][0] > task.start
            for start, count, step, bound in calls:
                top = task.b * (start + (count - 1) * step) + 1
                assert top >= SPF_LIMIT
                assert bound == min(PRESIEVE_BOUND, math.isqrt(top) + 1)

    def test_never_builds_the_small_prime_table(self, monkeypatch):
        # candidates above 2**64 never reach the table below 1009**2
        monkeypatch.setattr(primality, "_SPF", None)
        res = search_pair_r(PairSearchTask(a=2, b=3, start=10**40), use_cache=False)
        assert res.r >= 10**40
        assert primality._SPF is None

    # (offset of r from 10**40, candidates tested) for a = 2^(2^m), b = a + 1
    @pytest.mark.parametrize("m,offset,tested", [
        (0, 2374, 16), (1, 23120, 91), (2, 3416, 14), (3, 3050, 11), (4, 620, 4),
    ])
    @pytest.mark.parametrize("parity", [Parity.ANY, Parity.EVEN_ONLY])
    def test_pinned_witnesses_from_1e40(self, m, offset, tested, parity, monkeypatch):
        lucas = primality._strong_lucas_composite
        lucas_calls = []

        def counting(n):
            lucas_calls.append(n)
            return lucas(n)

        monkeypatch.setattr(primality, "_strong_lucas_composite", counting)
        a = 1 << (1 << m)
        task = PairSearchTask(a=a, b=a + 1, start=10**40, parity=parity)
        res = search_pair_r(task, use_cache=False)
        assert (res.r - 10**40, res.candidates_tested) == (offset, tested)
        # the Lucas test runs only once both forms passed base 2: on the hit alone
        assert lucas_calls == [res.p1, res.p2]

    def test_presieve_inverts_once_per_multiplier(self, monkeypatch):
        # the witness-search pool's m = 2 task from 10^80 scans three
        # presieved blocks; only the first search's first block inverts, once
        # per form, and a repeated search inverts nothing
        presieves, inverses = [], []
        sieve, invert = search.presieve, primality._inverses
        monkeypatch.setattr(search, "presieve", lambda *args: presieves.append(args) or sieve(*args))
        monkeypatch.setattr(primality, "_inverses", lambda *args: inverses.append(args) or invert(*args))
        primality._form_constants.cache_clear()
        task = fermat_pair_task(2, 10**80 + 613575)
        res = search_pair_r(task, use_cache=False)
        assert (res.r - task.start, res.candidates_tested) == (151055, 484)
        assert (len(presieves), len(inverses)) == (3, 2)
        presieves.clear()
        inverses.clear()
        assert search_pair_r(task, use_cache=False) == res
        assert (len(presieves), len(inverses)) == (3, 0)

    def test_confirms_only_the_hit_below_2_64(self, monkeypatch):
        # forms below 2**64: of the 14 candidates tested, 3 pass the screen
        # on a*r+1 only, and only the hit's two forms reach confirm
        screen, confirm = search.screen, search.confirm
        screened, confirmed = [], []
        monkeypatch.setattr(search, "screen", lambda n: screened.append(n) or screen(n))
        monkeypatch.setattr(search, "confirm", lambda n: confirmed.append(n) or confirm(n))
        res = search_pair_r(fermat_pair_task(4, 10**14), use_cache=False)
        assert (res.r - 10**14, res.candidates_tested) == (6008, 14)
        assert res.p2 < 2**64
        assert len(screened) == 14 + 3 + 1
        assert confirmed == [res.p1, res.p2]

    def test_scan_builds_no_verdict(self, monkeypatch):
        # the stages answer with witnesses: only reading res.verdicts builds one
        built = []
        new = PrimalityVerdict.__new__

        def counting(cls, *args, **kwargs):
            built.append(args)
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(PrimalityVerdict, "__new__", counting)
        results = [search_pair_r(fermat_pair_task(4, start), use_cache=False)
                   for start in (10**14, 10**40)]
        assert built == []
        results[0].verdicts
        assert len(built) == 2

    # below and above 2**64, on a miss and on the cache hit after it
    @pytest.mark.parametrize("start,verdict", [
        (10**14, Verdict.PRIME), (10**40, Verdict.PROBABLE_PRIME),
    ])
    def test_verdicts_are_derived_from_the_forms(self, start, verdict, tmp_path):
        task = fermat_pair_task(4, start)
        miss = search_pair_r(task, cache_dir=tmp_path)
        hit = search_pair_r(task, cache_dir=tmp_path)
        assert hit == miss
        for res in (miss, hit):
            assert res.verdicts == (is_probable_prime(res.p1), is_probable_prime(res.p2))
            assert [v.verdict for v in res.verdicts] == [verdict, verdict]

    @pytest.mark.parametrize("m", range(5))
    def test_lucas_rejection_keeps_scanning(self, m, monkeypatch):
        a = 1 << (1 << m)
        task = PairSearchTask(a=a, b=a + 1, start=10**40, parity=Parity.EVEN_ONLY)
        hit = search_pair_r(task, use_cache=False)
        after = search_pair_r(PairSearchTask(a=a, b=a + 1, start=hit.r + 2, parity=Parity.EVEN_ONLY),
                              use_cache=False)
        lucas = primality._strong_lucas_composite
        monkeypatch.setattr(primality, "_strong_lucas_composite", lambda n: n == hit.p2 or lucas(n))
        res = search_pair_r(task, use_cache=False)
        assert (res.r, res.verdicts) == (after.r, after.verdicts)
        assert res.candidates_tested == hit.candidates_tested + after.candidates_tested

    def test_limit_exhausted(self):
        with pytest.raises(LimitExhausted):
            search_pair_r(PairSearchTask(a=2, b=3, start=1, limit=2), use_cache=False)

    def test_task_validation(self):
        with pytest.raises(ValueError):
            PairSearchTask(a=3, b=3)
        with pytest.raises(ValueError):
            PairSearchTask(a=2, b=3, start=0)


class TestCache:
    def test_hit_round_trip(self, tmp_path):
        task = PairSearchTask(a=2, b=3, start=17)
        first = search_pair_r(task, cache_dir=tmp_path)
        again = search_pair_r(task, cache_dir=tmp_path)
        assert again == first

    def test_corrupt_cache_regenerates(self, tmp_path):
        task = PairSearchTask(a=2, b=3, start=17)
        first = search_pair_r(task, cache_dir=tmp_path)
        files = list((tmp_path / "pair_search").iterdir())
        assert len(files) == 1
        files[0].write_text("garbage\n")
        again = search_pair_r(task, cache_dir=tmp_path)
        assert again.r == first.r

    def test_truncation_detected(self, tmp_path):
        task = PairSearchTask(a=2, b=3, start=17)
        search_pair_r(task, cache_dir=tmp_path)
        [path] = (tmp_path / "pair_search").iterdir()
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop a body line and the trailer
        assert search_pair_r(task, cache_dir=tmp_path) == search_pair_r(task, use_cache=False)
        assert path.read_text().splitlines()[-1] == "# count=2"

    def test_record_cut_inside_its_last_body_line(self, tmp_path, caplog):
        # cut to r and a candidates_tested of 99: a well-formed body, which
        # only the "# count=2" trailer exposes
        task = PairSearchTask(a=1, b=2, start=327899)
        uncached = search_pair_r(task, use_cache=False)
        assert (uncached.r, uncached.candidates_tested) == (328896, 998)
        search_pair_r(task, cache_dir=tmp_path)
        [path] = (tmp_path / "pair_search").iterdir()
        text = path.read_text()
        path.write_text(text[: text.index("\n998\n") + 3])
        with caplog.at_level(logging.WARNING, logger="totient_forge.search"):
            assert search_pair_r(task, cache_dir=tmp_path) == uncached
        assert "count mismatch" in caplog.text

    def test_wrong_r_in_cache_rejected(self, tmp_path):
        task = PairSearchTask(a=2, b=3, start=1)
        first = search_pair_r(task, cache_dir=tmp_path)
        files = list((tmp_path / "pair_search").iterdir())
        text = files[0].read_text().splitlines()
        text[1] = "3"  # r=3 gives p2 = 10, not prime
        files[0].write_text("\n".join(text) + "\n")
        again = search_pair_r(task, cache_dir=tmp_path)
        assert again.r == first.r == 2

    def test_cached_r_at_or_beyond_limit_is_a_miss(self, tmp_path):
        assert search_pair_r(PairSearchTask(a=2, b=3, start=17), cache_dir=tmp_path).r == 20
        # the limit is exclusive, so r = 20 does not qualify below 20
        with pytest.raises(LimitExhausted):
            search_pair_r(PairSearchTask(a=2, b=3, start=17, limit=20), cache_dir=tmp_path)
        task = PairSearchTask(a=2, b=3, start=17, limit=21)
        assert search_pair_r(task, cache_dir=tmp_path) == search_pair_r(task, use_cache=False)

    # well-formed records under their real header and "# count=2" trailer
    # whose body no search of the task could have written
    @pytest.mark.parametrize("task,body", [
        # r = 2 is a witness (forms 5 and 7), but below start
        (PairSearchTask(a=2, b=3, start=17), ["2", "1"]),
        # the forms 3 and 5 are prime, but r is odd
        (PairSearchTask(a=2, b=4, parity=Parity.EVEN_ONLY), ["1", "1"]),
        # r = 20 is the task's witness, but no scan tests 0 candidates
        (PairSearchTask(a=2, b=3, start=17), ["20", "0"]),
    ], ids=["below-start", "odd-r", "none-tested"])
    def test_record_the_task_could_not_write_is_discarded(self, task, body, tmp_path, caplog):
        uncached = search_pair_r(task, use_cache=False)
        search_pair_r(task, cache_dir=tmp_path)
        [path] = (tmp_path / "pair_search").iterdir()
        lines = path.read_text().splitlines()
        assert lines[-1] == "# count=2"
        path.write_text("\n".join([lines[0], *body, lines[-1]]) + "\n")
        with caplog.at_level(logging.WARNING, logger="totient_forge.search"):
            assert search_pair_r(task, cache_dir=tmp_path) == uncached
        assert "discarding" in caplog.text

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            search_pair_r(PairSearchTask(a=2, b=3, start=17), cache_dir=tmp_path)
        assert list((tmp_path / "pair_search").iterdir()) == []

    def test_limit_is_part_of_the_key(self, tmp_path):
        # without a limit the first block reaches past 1009**2, is presieved,
        # and 1 candidate is tested; the limit cuts that block below 1009**2,
        # where nothing is presieved and all 21 candidates up to r are tested
        free = PairSearchTask(a=1, b=3, start=339320)
        tight = PairSearchTask(a=1, b=3, start=339320, limit=339341)
        uncached = {task: search_pair_r(task, use_cache=False) for task in (free, tight)}
        assert [uncached[task].candidates_tested for task in (free, tight)] == [1, 21]
        for task in (free, tight, free, tight):
            assert search_pair_r(task, cache_dir=tmp_path) == uncached[task]

    @settings(max_examples=60, deadline=None)
    @given(
        a=st.integers(1, 49),
        b_gap=st.integers(1, 20),
        start_offset=st.integers(-100, 20),
        parity=st.sampled_from(Parity),
        limit_offsets=st.lists(st.none() | st.integers(1, 80), min_size=1, max_size=4),
    )
    def test_cached_call_equals_uncached(self, a, b_gap, start_offset, parity, limit_offsets):
        # tasks near r = 1009**2 / b, where the limit decides whether a block
        # is presieved, differing only in the limit; each runs twice (a miss,
        # then a hit) on one cache
        b = a + b_gap
        start = max(1, SPF_LIMIT // b + start_offset)
        tasks = [PairSearchTask(a=a, b=b, start=start, parity=parity,
                                limit=None if offset is None else start + offset)
                 for offset in limit_offsets]

        def outcome(task, **kwargs):
            try:
                return search_pair_r(task, **kwargs)
            except LimitExhausted:
                return LimitExhausted

        with tempfile.TemporaryDirectory() as cache:
            for task in tasks + tasks:
                assert outcome(task, cache_dir=cache) == outcome(task, use_cache=False)


class TestRTable:
    def test_all_rows_pass(self):
        rows = verify_r_table()
        assert [row.m for row in rows] == [0, 1, 2, 3, 4]
        for row in rows:
            assert row.ok
            assert row.p1_verdict.verdict is Verdict.PROBABLE_PRIME
            assert row.p2_verdict.verdict is Verdict.PROBABLE_PRIME

    def test_offsets(self):
        assert {m: r - 10**100 for m, r in PAIR_WITNESS_TABLE.items()} == {
            0: 9760, 1: 60128, 2: 150326, 3: 51326, 4: 14786,
        }


class TestFermatPairTask:
    def test_fermat_primes(self):
        assert FERMAT_PRIMES == (3, 5, 17, 257, 65537)
        assert all(sympy.isprime(f) for f in FERMAT_PRIMES)

    def test_task_fields(self):
        task = fermat_pair_task(3, 10**100, limit=10**101)
        assert task == PairSearchTask(
            a=256, b=257, start=10**100, parity=Parity.EVEN_ONLY, limit=10**101,
        )
        assert [f.name for f in dataclasses.fields(PairSearchTask)] == [
            "a", "b", "start", "parity", "limit",
        ]
        assert fermat_pair_task(0, 1) == PairSearchTask(a=2, b=3, start=1, parity=Parity.EVEN_ONLY)
