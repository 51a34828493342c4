import math

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totient_forge.claims import (
    EXPECTED_HASANALIZADE,
    EXPECTED_NEW_BASE,
    EXPECTED_NEW_BRANCH7_PREFIX,
    EXPECTED_NEW_BRANCH13_23,
)
from totient_forge.cli import main
from totient_forge.constructions import solve
from totient_forge.sequences import (
    PrimeSequence,
    SequenceVariant,
    generate_sequence,
    sequence_product_magnitude,
    validate_sequence,
)


def independent_rule_check(seq: PrimeSequence) -> None:
    """Re-verify the generation rules with sympy-only arithmetic."""
    product = 1
    for i, p in enumerate(seq.terms):
        assert sympy.isprime(p)
        if i >= len(seq.prefix):
            if seq.variant is SequenceVariant.HASANALIZADE:
                assert product % (p - 2) == 0
                assert set(sympy.factorint(p - 1)) <= set(sympy.factorint(2 * product))
            else:
                a = (p - 1) // 2
                assert p == 2 * a + 1
                assert product % (a + 1) == 0
                assert set(sympy.factorint(a)) <= set(sympy.factorint(product))
        product *= p


def brute_force_terms(variant: SequenceVariant, bound: int) -> tuple[int, ...]:
    """Independent oracle: walk every prime up to the bound, rules via sympy."""
    terms = list(variant.prefix)
    product = math.prod(terms)
    last = 2  # neither family admits 2: p - 2 = 0, and 2 is not 2a + 1
    while True:
        for p in sympy.primerange(last + 1, bound + 1):
            if p in terms:
                continue
            # the terms are the primes of the product
            if variant is SequenceVariant.HASANALIZADE:
                ok = product % (p - 2) == 0 and set(sympy.factorint(p - 1)) <= {2, *terms}
            else:
                a = (p - 1) // 2
                ok = product % (a + 1) == 0 and set(sympy.factorint(a)) <= set(terms)
            if ok:
                break
        else:
            return tuple(terms)
        terms.append(p)
        product *= p
        last = p


def capped_divisors(n: int, cap: int) -> list[int]:
    """The divisors of n up to cap, built over sympy's factorization of n."""
    divisors = [1]
    for p, e in sympy.factorint(n).items():
        divisors = [d * p**j for d in divisors for j in range(e + 1) if d * p**j <= cap]
    return divisors


@settings(max_examples=80, deadline=None)
@given(variant=st.sampled_from(SequenceVariant), bound=st.integers(2, 3000))
@example(variant=SequenceVariant.NEW_BRANCH7, bound=3000)
@example(variant=SequenceVariant.HASANALIZADE, bound=3000)
def test_generation_matches_brute_force(variant, bound):
    bound = max(bound, max(variant.prefix))  # lower bounds are rejected
    seq = generate_sequence(variant, bound)
    assert seq.terms == brute_force_terms(variant, bound)


class TestGoldenLists:
    def test_hasanalizade(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5)
        assert seq.terms == EXPECTED_HASANALIZADE
        independent_rule_check(seq)

    def test_new_base_small_bound(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4)
        assert seq.terms == EXPECTED_NEW_BASE
        independent_rule_check(seq)

    def test_new_branch13_23(self):
        seq = generate_sequence(SequenceVariant.NEW_BRANCH13_23, 2 * 10**7)
        assert seq.terms == EXPECTED_NEW_BRANCH13_23
        independent_rule_check(seq)

    def test_new_branch7_prefix(self):
        seq = generate_sequence(SequenceVariant.NEW_BRANCH7, 1000)
        assert seq.terms[: len(EXPECTED_NEW_BRANCH7_PREFIX)] == EXPECTED_NEW_BRANCH7_PREFIX
        independent_rule_check(seq)


class TestCompleteness:
    """Any qualifying candidate corresponds to a divisor of the full product,
    so enumerating divisors independently proves the scans missed nothing."""

    def test_new_base_has_no_term_up_to_1e8(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**8)
        product, last = seq.product, seq.terms[-1]
        for d in sympy.divisors(product):  # a + 1 must divide the product
            p = 2 * d - 1
            if last < p <= 10**8 and sympy.isprime(p):
                a = d - 1
                assert not set(sympy.factorint(a)) <= set(sympy.factorint(product)), p

    def test_new_base_has_no_term_up_to_1e12(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**12)
        assert seq.terms == EXPECTED_NEW_BASE

    def test_hasanalizade_complete_to_2e5(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5)
        product, last = seq.product, seq.terms[-1]
        # p - 2 must divide the product, and p <= 2*10**5 needs d <= 2*10**5 - 2
        for d in capped_divisors(product, 2 * 10**5 - 2):
            p = d + 2
            if last < p <= 2 * 10**5 and sympy.isprime(p):
                assert not set(sympy.factorint(p - 1)) <= set(sympy.factorint(2 * product)), p


class TestGeneration:
    def test_extension_property(self):
        for variant in SequenceVariant:
            small = generate_sequence(variant, 150)
            large = generate_sequence(variant, 5000)
            assert large.terms[: len(small.terms)] == small.terms

    def test_bound_below_prefix_rejected(self):
        with pytest.raises(ValueError):
            generate_sequence(SequenceVariant.NEW_BRANCH13_23, 20)

    def test_bound_cap(self):
        # the largest accepted bound has isqrt(bound) == 10**8
        inside = (10**8 + 1) ** 2 - 1
        assert generate_sequence(SequenceVariant.NEW_BASE, inside).terms == EXPECTED_NEW_BASE
        with pytest.raises(ValueError):
            generate_sequence(SequenceVariant.NEW_BASE, inside + 1)

    def test_aux_values(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4)
        assert seq.aux[0] == 0
        for p, a in zip(seq.terms[1:], seq.aux[1:]):
            assert p == 2 * a + 1
        has = generate_sequence(SequenceVariant.HASANALIZADE, 100)
        assert has.aux == ()

    def test_variant_bounds(self):
        # the bounds at which the claims reproduce the published sequences
        assert {v: v.bound for v in SequenceVariant} == {
            SequenceVariant.HASANALIZADE: 2 * 10**5,
            SequenceVariant.NEW_BASE: 10**8,
            SequenceVariant.NEW_BRANCH7: 13_000,
            SequenceVariant.NEW_BRANCH13_23: 2 * 10**7,
        }
        for variant in SequenceVariant:
            assert generate_sequence(variant) is generate_sequence(variant, variant.bound)
        # the largest bound solve reads each variant at
        assert {v: v.reach for v in SequenceVariant} == {
            SequenceVariant.HASANALIZADE: 2 * 10**5,
            SequenceVariant.NEW_BASE: 10**8,
            SequenceVariant.NEW_BRANCH7: 13 * 10**7,
            SequenceVariant.NEW_BRANCH13_23: 2 * 10**7,
        }

    @pytest.mark.parametrize("variant,count", [
        pytest.param(SequenceVariant.HASANALIZADE, 21, id="hasanalizade"),
        pytest.param(SequenceVariant.NEW_BASE, 13, id="newbase"),
        pytest.param(SequenceVariant.NEW_BRANCH13_23, 27, id="newbranch13_23"),
    ])
    def test_no_term_at_100_times_the_bound(self, variant, count):
        # so a reach equal to the bound loses nothing near it
        assert variant.reach == variant.bound
        assert len(generate_sequence(variant).terms) == count
        assert generate_sequence(variant, 100 * variant.bound).terms == \
            generate_sequence(variant).terms

    def test_validator_rejects_tampering(self):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4)
        validate_sequence(seq)
        broken = PrimeSequence(seq.variant, seq.terms + (7,), seq.search_bound)
        with pytest.raises(ValueError):
            validate_sequence(broken)

    # each sequence breaks exactly one invariant, and only its check catches it
    @pytest.mark.parametrize("seq,message", [
        pytest.param(PrimeSequence(SequenceVariant.NEW_BRANCH7, (2, 3, 5, 7, 11), 100),
                     "does not start with its forced prefix", id="prefix"),
        # 3 after the prefix is the first generated term and obeys the rule
        pytest.param(PrimeSequence(SequenceVariant.NEW_BRANCH7, (2, 3, 5, 11, 7, 3), 100),
                     "repeated term", id="repeat"),
        pytest.param(PrimeSequence(SequenceVariant.NEW_BASE, (2, 3, 5, 11), 10),
                     "term 11 beyond the search bound", id="bound"),
        # 19 qualifies after 2*3*5 (a = 9, a + 1 = 10), and 11 still does after it
        pytest.param(PrimeSequence(SequenceVariant.NEW_BASE, (2, 3, 5, 19, 11), 100),
                     "generated terms must increase", id="order"),
        # 7 = 2*3 + 1 needs a + 1 = 4 to divide the product 6
        pytest.param(PrimeSequence(SequenceVariant.NEW_BASE, (2, 3, 7), 100),
                     "term 7 violates the generation rules", id="rule"),
    ])
    def test_validator_names_the_broken_invariant(self, seq, message):
        with pytest.raises(ValueError, match=message):
            validate_sequence(seq)


class TestMagnitude:
    def test_single_term(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 4)
        assert seq.terms == (3,)
        assert sequence_product_magnitude(seq) == (3.0, 0)

    def test_hasanalizade_product(self):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5)
        assert seq.product == math.prod(EXPECTED_HASANALIZADE)
        mantissa, exponent = sequence_product_magnitude(seq)
        assert exponent == 58
        # the even-k coverage bound is twice the (odd) product
        assert 2 * seq.product > 4 * 10**58


class TestMemo:
    def test_one_sequence_per_process_and_no_files(self, tmp_path, capsys):
        first, second = tmp_path / "first", tmp_path / "second"
        for d in (first, second):
            d.mkdir()
        seq = generate_sequence(SequenceVariant.NEW_BRANCH7, 1000, first)
        assert generate_sequence(SequenceVariant.NEW_BRANCH7, 1000, second) is seq
        solve(6, 2, cache_dir=first)
        assert main(["--cache-dir", str(second), "sequence",
                     "--variant", "newbase", "--bound", "100"]) == 0
        capsys.readouterr()
        assert list(first.iterdir()) == list(second.iterdir()) == []

    def test_sequence_files_are_ignored(self, tmp_path):
        # a well-formed record of an older version holding the prefix alone:
        # every term passes validation, so only not reading it gives the
        # full sequence
        path = tmp_path / "sequences" / "newbase_997.txt"
        path.parent.mkdir()
        path.write_text("# newbase 997\n2\n# count=1\n")
        seq = generate_sequence(SequenceVariant.NEW_BASE, 997, tmp_path)
        assert seq.terms == tuple(p for p in EXPECTED_NEW_BASE if p <= 997)
        assert len(seq.terms) == 8
        assert path.read_text() == "# newbase 997\n2\n# count=1\n"
