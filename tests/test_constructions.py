import math

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from totient_forge import constructions
from totient_forge.arith import FactoringBoundExceeded, Factorization, v2
from totient_forge.claims import EXPECTED_NEW_BRANCH13_23
from totient_forge.constructions import (
    AllTermsDivideK,
    CannotVerify,
    FermatWitness,
    InvalidWitness,
    MissingWitness,
    NotApplicable,
    RatioWitness,
    SeqWitness,
    Solution,
    construct_fermat_m1,
    construct_fermat_m2,
    construct_makowski,
    construct_prop_double_prime,
    construct_prop_phi_pair,
    construct_seq_solution,
    serialize_solution,
    solution_to_dict,
    solve,
    solve_even_m2,
    verify_solution,
)
from totient_forge.primality import is_probable_prime
from totient_forge.search import FERMAT_PRIMES, PairSearchTask, Parity, fermat_pair_task, search_pair_r
from totient_forge.sequences import PrimeSequence, SequenceVariant, generate_sequence


def oracle_check(s: Solution) -> None:
    """Independent verification through sympy."""
    assert sympy.totient(s.n + s.k) == s.M * sympy.totient(s.n)


class TestMakowski:
    @pytest.mark.parametrize("k,n", [(2, 2), (6, 6), (5, 10), (100, 100), (7, 14)])
    def test_values(self, k, n):
        s = construct_makowski(k, 2)
        assert s.n == n
        oracle_check(s)

    def test_odd_multiple_of_three_rejected(self):
        with pytest.raises(NotApplicable):
            construct_makowski(9, 2)

    def test_requires_doubled_equation(self):
        with pytest.raises(NotApplicable):
            construct_makowski(2, 1)


class TestFermat:
    def test_m1_case1(self):
        s = construct_fermat_m1(2, 2)
        assert s.n == 32
        assert s.method == "FermatCase1"
        oracle_check(s)

    def test_m1_case2_with_witness(self):
        s = construct_fermat_m1(34, 2, r=6)
        assert s.n == 56032
        assert s.method == "FermatCase2"
        assert str(s.n_factorization) == "2^5 * 17 * 103"
        oracle_check(s)

    def test_m1_rejects_odd_k(self):
        with pytest.raises(NotApplicable):
            construct_fermat_m1(3, 0)

    def test_m1_missing_witness(self):
        with pytest.raises(MissingWitness):
            construct_fermat_m1(6, 0)  # 3 | 6 and no r

    def test_m1_bad_witness(self):
        with pytest.raises(InvalidWitness):
            construct_fermat_m1(6, 0, r=4)  # 2*4+1 = 9 is composite
        with pytest.raises(InvalidWitness):
            construct_fermat_m1(30, 0, r=2)  # p1 = 5 divides 30

    @pytest.mark.parametrize("k,m,r,n", [(1, 0, None, 2), (3, 0, 2, 42), (3, 1, None, 12)])
    def test_m2_values(self, k, m, r, n):
        s = construct_fermat_m2(k, m, r)
        assert s.n == n
        oracle_check(s)

    def test_m2_rejects_even_k(self):
        with pytest.raises(NotApplicable):
            construct_fermat_m2(2, 0)

    def test_index_range(self):
        with pytest.raises(NotApplicable):
            construct_fermat_m1(2, 5)


class TestSequenceSolutions:
    def test_hasanalizade_k2(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5)
        s = construct_seq_solution(2, seq, 2)
        assert s.n == 6
        assert s.witnesses[0].index == 1 and s.witnesses[0].p == 3
        oracle_check(s)

    def test_newbase_k6(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4)
        s = construct_seq_solution(6, seq, 2)
        assert s.n == 4
        assert s.witnesses[0].a == 2
        oracle_check(s)

    def test_newbase_k2(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4)
        s = construct_seq_solution(2, seq, 2)
        assert s.n == 1
        oracle_check(s)

    def test_all_terms_divide(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 11)
        assert seq.terms == (2, 3, 5, 11)
        with pytest.raises(AllTermsDivideK):
            construct_seq_solution(2 * 3 * 5 * 11, seq, 2)

    def test_odd_k_rejected(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 100)
        with pytest.raises(NotApplicable):
            construct_seq_solution(5, seq, 2)

    def test_forced_prefix_term_without_rules_rejected(self):
        # 23 sits in the forced prefix; its a+1 = 12 need not divide this k
        seq = generate_sequence(SequenceVariant.NEW_BRANCH13_23, 100)
        with pytest.raises(InvalidWitness):
            construct_seq_solution(2 * 3 * 5 * 11 * 13, seq, 2)

    # composite terms: 25 would give n = 150 with "2 * 3 * 25", 9 would give
    # n = 8, and neither satisfies the equation
    @pytest.mark.parametrize("k,seq", [
        (138, PrimeSequence(SequenceVariant.HASANALIZADE, (3, 25), 10**4)),
        (10, PrimeSequence(SequenceVariant.NEW_BASE, (2, 9), 100)),
    ])
    def test_unvalidated_sequence_rejected(self, k, seq):
        with pytest.raises(InvalidWitness, match="not prime"):
            construct_seq_solution(k, seq, 2)


class TestSolveEvenM2:
    def test_k6_base_branch(self):
        ns = sorted(s.n for s in solve_even_m2(6))
        assert ns == [4, 6]

    def test_k2(self):
        ns = sorted(s.n for s in solve_even_m2(2))
        assert ns == [1, 2]

    def test_ratio_36_55(self):
        # 1320 = 2^3 * 3 * 5 * 11, coprime to 7 and 13
        sols = solve_even_m2(1320)
        assert 864 in {s.n for s in sols}
        for s in sols:
            oracle_check(s)

    def test_branch7(self):
        k = 2 * 3 * 5 * 11 * 7
        sols = solve_even_m2(k)
        assert {s.n for s in sols} == {6 * k // 7, k}
        for s in sols:
            oracle_check(s)

    def test_ratio_66_95_with_19(self):
        k = 2 * 3 * 5 * 11 * 13 * 19
        sols = solve_even_m2(k)
        assert 66 * k // 95 in {s.n for s in sols}
        for s in sols:
            oracle_check(s)

    def test_ratio_66_95_without_19_falls_back(self):
        k = 2 * 3 * 5 * 11 * 13
        sols = solve_even_m2(k)
        ns = {s.n for s in sols}
        assert 9 * k // 10 in ns  # base-sequence solution via the term 19
        for s in sols:
            oracle_check(s)

    def test_branch13_23(self):
        k = 2 * 3 * 5 * 11 * 13 * 23
        sols = solve_even_m2(k)
        assert 9 * k // 10 in {s.n for s in sols}
        for s in sols:
            oracle_check(s)

    def test_odd_k_rejected(self):
        with pytest.raises(NotApplicable):
            solve_even_m2(3)

    def test_dispatch_by_divisibility_up_to_1e6(self):
        # every k = 330*j <= 10**6: the branch follows from 7, 13, 19 and 23
        # alone, and the 36/55 and 66/95 ratios never fail where chosen
        for k in range(330, 10**6 + 1, 330):
            sols = solve_even_m2(k)
            branch, makowski = sols
            assert makowski.method == "Makowski" and makowski.n == k
            if k % 7 and k % 13:
                expected = RatioWitness(36, 55)
            elif k % 7 and k % 23 and k % 19 == 0:
                expected = RatioWitness(66, 95)
            elif k % 7 == 0:
                expected = SequenceVariant.NEW_BRANCH7
            elif k % (13 * 23) == 0:
                expected = SequenceVariant.NEW_BRANCH13_23
            else:
                expected = SequenceVariant.NEW_BASE
            (witness,) = branch.witnesses
            got = witness if isinstance(witness, RatioWitness) else witness.variant
            assert got == expected, k
            assert all(verify_solution(s) for s in sols), k


class TestPropositions:
    def test_double_prime_k6(self):
        s = construct_prop_double_prime(6, 7)
        assert s.n == 7
        oracle_check(s)

    def test_double_prime_recovers_makowski(self):
        s = construct_prop_double_prime(5, 2)
        assert s.n == 10
        oracle_check(s)

    def test_double_prime_divisibility_required(self):
        with pytest.raises(InvalidWitness):
            construct_prop_double_prime(10, 7)

    def test_phi_pair(self):
        s = construct_prop_phi_pair(10, 5)
        assert s.n == 18
        oracle_check(s)

    def test_phi_pair_coprimality_required(self):
        with pytest.raises(InvalidWitness):
            construct_prop_phi_pair(2, 2)
        with pytest.raises(InvalidWitness):
            construct_prop_phi_pair(70, 5)


class TestVerifySolution:
    def test_true_case(self):
        assert verify_solution(Solution(6, 2, 7, "Enumerated")) is True

    def test_false_case(self):
        assert verify_solution(Solution(6, 2, 8, "Enumerated")) is False

    def test_m1_false_case(self):
        assert verify_solution(Solution(2, 1, 1, "Enumerated")) is False

    def test_uses_certified_factorizations(self):
        s = construct_fermat_m1(34, 2, r=6)
        assert verify_solution(s) is True

    def test_rechecks_carried_factorizations(self):
        # 9 listed as prime would give totient(9) = 8 and 2*8 = totient(17)
        s = Solution(8, 2, 9, "Enumerated",
                     n_factorization=Factorization(((9, 1),), 9),
                     nk_factorization=Factorization(((17, 1),), 17))
        assert verify_solution(s) is False

    def test_cannot_verify_above_bound(self):
        huge = 10**40 + 1
        with pytest.raises(CannotVerify):
            verify_solution(Solution(2, 1, huge, "Enumerated"))


class TestSolve:
    def test_k6_m2_default(self):
        ns = [s.n for s in solve(6, 2)]
        assert ns == sorted(ns)
        assert {4, 6, 10} <= set(ns)

    def test_k6_m2_witness_search_adds_prop_solution(self):
        ns = {s.n for s in solve(6, 2, with_witness_search=True)}
        assert {4, 6, 7, 10} <= ns

    def test_k2_m1_five_fermat(self):
        sols = solve(2, 1)
        assert [s.n for s in sols] == [4, 8, 32, 512, 131072]
        assert len({v2(s.n) for s in sols}) == 5

    def test_k1_m2(self):
        ns = {s.n for s in solve(1, 2)}
        assert {2, 4, 16, 256, 65536} <= ns

    def test_merged_methods(self):
        # for odd k coprime to 3, Makowski's n = 2k equals the m = 0 case-1 value
        sols = solve(5, 2)
        merged = next(s for s in sols if s.n == 10)
        assert merged.method == "FermatCase1+Makowski"
        assert len(merged.witnesses) == 1  # Makowski carries no witness record

    def test_case2_inside_solve(self):
        sols = solve(9, 2)
        assert len(sols) >= 5
        tags = {s.method for s in sols}
        assert "FermatCase2" in tags
        for s in sols:
            oracle_check(s)

    def test_invalid_m(self):
        with pytest.raises(ValueError):
            solve(2, 3)

    def test_odd_k_m1_has_no_construction(self):
        assert solve(3, 1) == []

    def test_ordering_markers(self):
        # sequence route stays below k, Makowski and Hasanalizade at or above
        for k in range(2, 500, 2):
            sols = solve(k, 2)
            by_tag = {}
            for s in sols:
                for tag in s.method.split("+"):
                    by_tag.setdefault(tag, []).append(s.n)
            for n in by_tag.get("SeqNew", []):
                assert n < k
            for n in by_tag.get("Makowski", []) + by_tag.get("SeqHasanalizade", []):
                assert n >= k

    def test_fermat_two_adic_valuations(self):
        # each Fermat solution is exactly divisible by 2^(2^m + v2(k))
        for k in range(2, 201, 2):
            for s in solve(k, 1):
                w = s.witnesses[0]
                assert v2(s.n) == (1 << w.m) + v2(k), (k, s.n)

    def test_huge_k_with_hint(self):
        k = 2**101
        hint = Factorization.from_pairs([(2, 101)])
        sols = solve(k, 1, k_fact=hint)
        assert len(sols) == 5
        for s in sols:
            # verified through the certified factorizations, no blind factoring
            assert verify_solution(s) is True

    def test_makowski_kept_when_branch_sequence_fails(self):
        # every newbranch13_23 term divides k, so that branch raises; only the
        # branch may be skipped, not Makowski's n = k with it
        k = math.prod(EXPECTED_NEW_BRANCH13_23)
        kf = Factorization.from_pairs((p, 1) for p in EXPECTED_NEW_BRANCH13_23)
        with pytest.raises(AllTermsDivideK):
            solve_even_m2(k, k_fact=kf)
        sols = solve(k, 2, k_fact=kf)
        assert construct_makowski(k, 2, kf) in sols
        assert {s.method for s in sols} == {"Makowski", "SeqHasanalizade"}
        assert all(verify_solution(s) for s in sols)

    def test_branch_sequence_retried_at_a_larger_bound(self):
        # k is the product of every newbranch7 term up to the variant's bound
        # of 13,000, 2*3*5*11*7 among them: the 7 branch runs out of terms
        # coprime to k at that bound, and the next rung of the ladder
        # supplies term 106
        seq = generate_sequence(SequenceVariant.NEW_BRANCH7)
        assert (seq.search_bound, len(seq.terms)) == (13_000, 105)
        k = seq.product
        kf = Factorization.from_pairs((p, 1) for p in seq.terms)
        branch, makowski = solve_even_m2(k, k_fact=kf)
        assert branch.method == "SeqNew"
        assert branch.witnesses == (SeqWitness(SequenceVariant.NEW_BRANCH7, 106, 13613, 6806),)
        assert verify_solution(branch)
        assert makowski == construct_makowski(k, 2, kf)

    def test_huge_k_case2_with_hint(self):
        k = 10**100
        hint = Factorization.from_pairs([(2, 100), (5, 100)])
        sols = solve(k, 1, k_fact=hint)
        assert len(sols) == 5
        assert any(s.method == "FermatCase2" for s in sols)  # 5 divides k
        assert len({v2(s.n) for s in sols}) == 5


# 12 = 3 * 4 with 4 listed as a prime: the right value, but not certified
BOGUS_12 = Factorization(((3, 1), (4, 1)), 12)


class TestKFactorizationCertified:
    @pytest.mark.parametrize("entry", [
        pytest.param(lambda: solve(12, 2, k_fact=BOGUS_12), id="solve"),
        pytest.param(lambda: solve_even_m2(12, k_fact=BOGUS_12), id="solve_even_m2"),
        pytest.param(lambda: construct_makowski(12, 2, k_fact=BOGUS_12), id="makowski"),
        pytest.param(lambda: construct_fermat_m1(12, 1, k_fact=BOGUS_12), id="fermat_m1"),
        pytest.param(lambda: construct_seq_solution(
            12, generate_sequence(SequenceVariant.NEW_BASE, 10**4), 2, k_fact=BOGUS_12),
            id="seq_solution"),
        pytest.param(lambda: construct_prop_double_prime(12, 3, k_fact=BOGUS_12),
                     id="prop_double_prime"),
        pytest.param(lambda: construct_prop_phi_pair(12, 1, k_fact=BOGUS_12), id="prop_phi_pair"),
    ])
    def test_bogus_hint_rejected(self, entry):
        with pytest.raises(ValueError, match="not prime"):
            entry()


class TestSolveOddKM1:
    """No construction applies to M = 1 with odd k: solve factors nothing and
    returns [], but keeps every error it raises for its inputs."""

    @pytest.mark.parametrize("k", [1, 3, 999, 711208893582865411])
    def test_returns_empty_without_factoring(self, k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("solve(k, 1) with odd k factored k")

        monkeypatch.setattr(constructions, "factorize", refuse)
        assert solve(k, 1) == []
        assert solve(k, 1, with_witness_search=True) == []

    def test_out_of_range_k_still_raises(self):
        with pytest.raises(NotApplicable):
            solve(-1, 1)
        with pytest.raises(FactoringBoundExceeded):
            solve(10**18 + 1, 1)

    def test_hint_is_still_certified(self):
        with pytest.raises(ValueError, match="not prime"):
            solve(45, 1, k_fact=Factorization(((5, 1), (9, 1)), 45))
        with pytest.raises(ValueError, match="does not match"):
            solve(15, 1, k_fact=Factorization(((3, 1), (7, 1)), 21))
        assert solve(15, 1, k_fact=Factorization(((3, 1), (5, 1)), 15)) == []


def sympy_totient(n: int) -> int:
    phi = 1
    for p, e in sympy.factorint(n).items():
        phi *= p ** (e - 1) * (p - 1)
    return phi


@settings(max_examples=60, deadline=None)
@given(k=st.integers(1, 10**6), M=st.sampled_from((1, 2)))
def test_solve_outputs_satisfy_equation(k, M):
    for s in solve(k, M, with_witness_search=True):
        assert (s.k, s.M) == (k, M)
        assert sympy_totient(s.n + k) == M * sympy_totient(s.n)


class TestSerialization:
    def test_text_record(self):
        s = construct_fermat_m1(34, 2, r=6)
        assert serialize_solution(s) == (
            "k=34 M=1 n=56032 method=FermatCase2 "
            "witnesses[m=2,case=2,r=6] n_factors[2^5 * 17 * 103]"
        )

    def test_dict_fields(self):
        s = construct_makowski(6, 2)
        d = solution_to_dict(s)
        assert d == {
            "k": "6", "M": 2, "n": "6", "method": "Makowski",
            "witnesses": [], "n_factors": "2 * 3",
        }


def _leading_forms(m: int, count: int) -> list[tuple[int, int]]:
    """((F_m - 1)*r + 1, F_m*r + 1) for F_m's first `count` pair witnesses r."""
    fermat, forms, r = FERMAT_PRIMES[m], [], 0
    for _ in range(count):
        r = search_pair_r(fermat_pair_task(m, r + 1), use_cache=False).r
        forms.append(((fermat - 1) * r + 1, fermat * r + 1))
    return forms


def _case2_r(kf: Factorization, M: int, m: int) -> int:
    """The witness r of solve's FermatCase2 solution for F_m."""
    [r] = [w.r for s in solve(kf.value, M, k_fact=kf) for w in s.witnesses
           if isinstance(w, FermatWitness) and (w.m, w.case) == (m, 2)]
    return r


def _cold_witness_lists(monkeypatch) -> None:
    monkeypatch.setattr(constructions, "_FERMAT_WITNESSES", tuple([] for _ in FERMAT_PRIMES))


class TestFermatWitnessList:
    @pytest.mark.parametrize("m", range(5))
    def test_list_gives_the_avoid_search_r(self, m, monkeypatch):
        # F_m times forms of its leading witnesses, so that 0, 1, 2, 3 and 4
        # of them divide k, through either form; 2 * F_m * a1 * b1 is
        # scripts/search_digest.py's avoid-list k
        (a1, b1), (a2, b2), (a3, b3), (_, b4) = _leading_forms(m, 4)
        odd = [Factorization.from_pairs((p, 1) for p in (FERMAT_PRIMES[m], *excluded))
               for excluded in ((), (a1,), (b1,), (a1, b1), (b2,), (a1, b2), (b1, a2, b3),
                                (a1, b2, a3, b4))]
        cases = [(kf.times_prime(2), 1) for kf in odd] + [(kf, 2) for kf in odd]
        fermat = FERMAT_PRIMES[m]
        expected = [search_pair_r(PairSearchTask(fermat - 1, fermat, parity=Parity.EVEN_ONLY,
                                                 avoid_divisors_of=kf.value)).r
                    for kf, _ in cases]
        assert len(set(expected)) == 5
        for (kf, M), r in zip(cases, expected):
            _cold_witness_lists(monkeypatch)
            assert _case2_r(kf, M, m) == r
        # warm: the list now holds the five witnesses the last k needed
        for (kf, M), r in reversed(list(zip(cases, expected))):
            assert _case2_r(kf, M, m) == r

    def test_solve_writes_no_cache_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("TOTIENT_FORGE_CACHE", str(tmp_path))
        _cold_witness_lists(monkeypatch)
        # F_0's first witness r = 2 has forms 5 and 7, both dividing k
        kf = Factorization.from_pairs([(2, 1), (3, 1), (5, 1), (7, 1)])
        assert _case2_r(kf, 1, 0) == 6
        assert list(tmp_path.rglob("*")) == []

    def test_value_types_are_immutable(self):
        s = solve(6, 2)[0]
        for value, field in ((s.n_factorization, "value"), (s, "n"),
                             (is_probable_prime(7), "verdict")):
            with pytest.raises(AttributeError):
                setattr(value, field, 1)
