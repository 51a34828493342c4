"""Acceptance criteria, one test per criterion (C1..C8, P1, P2).

Each test prints a single PASS/FAIL line. Two published magnitude statements
are contradicted by exact arithmetic, so C2 and C4 assert the exact
magnitudes of the published term lists and check that the claim suite
reports the literal published claims as Fail:

* C2: the exact product of the published 21-term Hasanalizade list is
  ~2.015*10^58. What exceeds 4*10^58 is twice the product (the even-k
  coverage bound, since the product is odd).
* C4: the exact product of the published 27-term branch list is
  ~3.595*10^80 (exponent 80, not 83); any extension multiplies it by a prime
  above the last term, which already gives at least 10^84.
"""

import math
import os
import random

import pytest
import sympy

from totient_forge.arith import totient, v2
from totient_forge.claims import (
    EXPECTED_HASANALIZADE,
    EXPECTED_NEW_BASE,
    EXPECTED_NEW_BRANCH7_PREFIX,
    EXPECTED_NEW_BRANCH13_23,
    claim_c2,
    claim_c4,
)
from totient_forge.constructions import solve, verify_solution
from totient_forge.search import (
    FERMAT_PRIMES,
    PAIR_WITNESS_TABLE,
    fermat_pair_task,
    search_pair_r,
    verify_r_table,
)
from totient_forge.sequences import SequenceVariant, generate_sequence, sequence_product_magnitude
from totient_forge.sieve_enum import (
    enumerate_solutions,
    sieve_totient,
    solution_count_table,
    totients_upto,
)

# mirrors the CLI levels: quick = C1..C6, full adds C7, extreme adds C8;
# the default runs everything because all criteria are cheap here
LEVEL = os.environ.get("TOTIENT_FORGE_LEVEL", "extreme")


def announce(cid: str, ok: bool, detail: str) -> None:
    print(f"{cid} {'PASS' if ok else 'FAIL'}: {detail}")


def test_c1_r_table_primality():
    rows = verify_r_table()
    ok = all(row.ok for row in rows)
    announce("C1", ok, "both forms probable prime for every bundled (m, r) row")
    assert ok


def test_c2_hasanalizade_sequence(cache_dir):
    seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5)
    mantissa, exponent = sequence_product_magnitude(seq)
    expected = math.prod(EXPECTED_HASANALIZADE)
    report = claim_c2(cache_dir)
    list_ok = seq.terms == EXPECTED_HASANALIZADE
    announce(
        "C2",
        list_ok and seq.product == expected and report.status == "Fail",
        f"21-term match: {list_ok}; exact product {mantissa:.2f}e{exponent}; "
        f"2 * product = {2 * seq.product:.3e} (the even-k coverage bound) exceeds 4e58; "
        f"claim suite reports the published 'product > 4e58' as {report.status}",
    )
    assert list_ok
    assert seq.product == expected
    # the published "product > 4*10^58" is contradicted: the product is
    # ~2.015e58 and odd, and only twice it (the even-k bound) exceeds 4e58
    assert expected % 2 == 1
    assert (exponent, f"{mantissa:.2f}") == (58, "2.01")
    assert 2 * expected > 4 * 10**58 > expected
    assert report.status == "Fail"
    assert "product 2.01e58" in report.evidence
    assert "2*product = 4.03e+58" in report.evidence


def test_c3_new_base_sequence():
    seq = generate_sequence(SequenceVariant.NEW_BASE, 10**8)
    mantissa, exponent = sequence_product_magnitude(seq)
    ok = seq.terms == EXPECTED_NEW_BASE and exponent == 26
    announce("C3", ok, f"13-term match: {seq.terms == EXPECTED_NEW_BASE}; "
                       f"product {mantissa:.2f}e{exponent}")
    assert seq.terms == EXPECTED_NEW_BASE
    assert exponent == 26


def test_c4_branch_sequences(cache_dir):
    seq23 = generate_sequence(SequenceVariant.NEW_BRANCH13_23, 2 * 10**7)
    mant23, exp23 = sequence_product_magnitude(seq23)
    seq7 = generate_sequence(SequenceVariant.NEW_BRANCH7, 13000)
    _, exp7 = sequence_product_magnitude(seq7)
    expected23 = math.prod(EXPECTED_NEW_BRANCH13_23)
    report = claim_c4(cache_dir)
    list23_ok = seq23.terms == EXPECTED_NEW_BRANCH13_23
    prefix7_ok = seq7.terms[: len(EXPECTED_NEW_BRANCH7_PREFIX)] == EXPECTED_NEW_BRANCH7_PREFIX
    member_ok = 12011 in seq7.terms
    exp7_ok = exp7 >= 310
    announce(
        "C4",
        list23_ok and seq23.product == expected23 and prefix7_ok and member_ok and exp7_ok
        and report.status == "Fail",
        f"27-term match: {list23_ok}; exact product {mant23:.2f}e{exp23}; "
        f"7-branch prefix: {prefix7_ok}; contains 12011: {member_ok}; "
        f"7-branch exponent {exp7} >= 310: {exp7_ok}; "
        f"claim suite reports the published exponent 83 as {report.status}",
    )
    assert list23_ok
    assert seq23.product == expected23
    assert prefix7_ok and member_ok and exp7_ok
    # the published "order 2*10^83" is contradicted: the product is
    # ~3.595e80, and any further term is a prime above the last one, which
    # lifts the product to at least 10^84, past exponent 83
    assert (exp23, f"{mant23:.2f}") == (80, "3.59")
    assert expected23 * (EXPECTED_NEW_BRANCH13_23[-1] + 1) >= 10**84
    assert report.status == "Fail"
    assert "product 3.59e80" in report.evidence
    assert "exponent 80" in report.evidence


def test_c5_k6_enumeration():
    small = enumerate_solutions(6, 2, 10**6)
    large = enumerate_solutions(6, 2, 10**7)
    ok = small.solutions == (4, 6, 7, 10) and large.solutions == (4, 6, 7, 10)
    announce("C5", ok, f"10^6 -> {list(small.solutions)}, 10^7 -> {list(large.solutions)}")
    assert small.solutions == (4, 6, 7, 10)
    assert large.solutions == (4, 6, 7, 10)


def test_c6_theorem_counts_desk_scale():
    failures = []
    for k in range(1, 2001):
        m2 = solve(k, 2)
        needed = 5 if k % 2 else 3
        if len(m2) < needed:
            failures.append(f"k={k} M=2 count {len(m2)}")
        if not all(verify_solution(s) for s in m2):
            failures.append(f"k={k} M=2 verify")
        if k % 2 == 0:
            m1 = solve(k, 1)
            if len(m1) < 5:
                failures.append(f"k={k} M=1 count {len(m1)}")
            if len({v2(s.n) for s in m1}) != len(m1):
                failures.append(f"k={k} M=1 v2 collision")
            if not all(verify_solution(s) for s in m1):
                failures.append(f"k={k} M=1 verify")
    announce("C6", not failures,
             failures[0] if failures else "counts and exact verification hold for all k <= 2000")
    assert not failures


@pytest.mark.skipif(LEVEL == "quick", reason="full/extreme level only")
def test_c7_full_sweep():
    table = solution_count_table(10**4, 2, 10**6)
    ok = table.min_count == 4 and table.min_achievers == (6,)
    announce("C7", ok, f"min count {table.min_count} achieved at {list(table.min_achievers)}")
    assert table.min_count == 4
    assert table.min_achievers == (6,)


@pytest.mark.skipif(LEVEL in ("quick", "full"), reason="extreme level only")
def test_c8_witness_rediscovery(cache_dir):
    notes = []
    ok = True
    for m, expected in sorted(PAIR_WITNESS_TABLE.items()):
        result = search_pair_r(
            fermat_pair_task(m, 10**100, limit=10**100 + 10**6), cache_dir=cache_dir,
        )
        if result.r == expected:
            notes.append(f"m={m} exact")
        elif result.r < expected and all(vd.is_prime for vd in result.verdicts):
            # minimality of the bundled values is an assumption, not a claim:
            # a smaller valid witness is reported as a finding, not a failure
            notes.append(f"m={m} FINDING: smaller witness 10^100+{result.r - 10**100} "
                         f"(bundled 10^100+{expected - 10**100})")
        else:
            ok = False
            notes.append(f"m={m} MISSED (got {result.r})")
    announce("C8", ok, "; ".join(notes))
    assert ok


def test_p1_oracle_containment():
    limit = 10**5
    bad = []
    for k in range(1, 201):
        for M in (1, 2):
            oracle = set(enumerate_solutions(k, M, limit).solutions)
            for s in solve(k, M):
                if s.n <= limit and s.n not in oracle:
                    bad.append((k, M, s.n))
    announce("P1", not bad,
             bad[0] if bad else "every constructed n <= 10^5 appears in the oracle output, k <= 200")
    assert not bad


def _factor_dicts_upto(limit: int) -> list[dict[int, int]]:
    spf = list(range(limit + 1))
    for p in range(2, math.isqrt(limit) + 1):
        if spf[p] == p:
            for q in range(p * p, limit + 1, p):
                if spf[q] == q:
                    spf[q] = p
    dicts = [dict() for _ in range(limit + 1)]
    for n in range(2, limit + 1):
        m, d = n, {}
        while m > 1:
            p = spf[m]
            d[p] = d.get(p, 0) + 1
            m //= p
        dicts[n] = d
    return dicts


def _phi_from_merge(da: dict, db: dict) -> int:
    out = 1
    merged = dict(db)
    for p, e in da.items():
        merged[p] = merged.get(p, 0) + e
    for p, e in merged.items():
        out *= p ** (e - 1) * (p - 1)
    return out


def test_p2_identity_suite():
    limit = 10**4
    phi = totients_upto(limit)
    facts = _factor_dicts_upto(limit)

    # (1) totient(a*b) = a * totient(b) whenever primes(a) are within primes(b)
    checked = 0
    for b in range(1, limit + 1):
        primes = sorted(facts[b])
        smooth = [1]
        for p in primes:
            extended = []
            for a in smooth:
                v = a * p
                while v <= limit:
                    extended.append(v)
                    v *= p
            smooth.extend(extended)
        for a in smooth:
            assert _phi_from_merge(facts[a], facts[b]) == a * phi[b], (a, b)
            checked += 1

    # (2) a * totient(b) = b * totient(a) under equal radicals
    by_radical: dict[int, list[int]] = {}
    for n in range(1, limit + 1):
        by_radical.setdefault(math.prod(facts[n]) if facts[n] else 1, []).append(n)
    pair_count = 0
    for group in by_radical.values():
        for i, a in enumerate(group):
            for b in group[i + 1 :]:
                assert a * phi[b] == b * phi[a], (a, b)
                pair_count += 1

    # (3) F_m - 1 = 2 * totient(F_m - 1)
    for value in FERMAT_PRIMES:
        assert value - 1 == 2 * totient(value - 1)

    # (4) sieve totients match factorization totients: all n <= 10^5, then
    # 10^4 random points below 10^9 cross-checked against sympy
    big_facts = _factor_dicts_upto(10**5)
    sieved = totients_upto(10**5)
    for n in range(1, 10**5 + 1):
        assert sieved[n] == _phi_from_merge({}, big_facts[n]), n
    rng = random.Random(2024)
    width = 100
    for _ in range(100):
        lo = rng.randrange(1, 10**9 - width)
        seg = sieve_totient(lo, lo + width)
        for offset in range(width):
            assert seg.values[offset] == sympy.totient(lo + offset), lo + offset

    announce("P2", True,
             f"identities held: {checked} star-divides pairs, {pair_count} equal-radical pairs, "
             f"5 Fermat identities, sieve agreement at 10^5 + 10^4 random points")
