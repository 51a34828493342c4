import math
import os
import tempfile

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
    with tempfile.TemporaryDirectory() as tmp:
        seq = generate_sequence(variant, bound, tmp)
    assert seq.terms == brute_force_terms(variant, bound)


class TestGoldenLists:
    def test_hasanalizade(self, cache_dir):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5, cache_dir)
        assert seq.terms == EXPECTED_HASANALIZADE
        independent_rule_check(seq)

    def test_new_base_small_bound(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4, cache_dir)
        assert seq.terms == EXPECTED_NEW_BASE
        independent_rule_check(seq)

    def test_new_branch13_23(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BRANCH13_23, 2 * 10**7, cache_dir)
        assert seq.terms == EXPECTED_NEW_BRANCH13_23
        independent_rule_check(seq)

    def test_new_branch7_prefix(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BRANCH7, 1000, cache_dir)
        assert seq.terms[: len(EXPECTED_NEW_BRANCH7_PREFIX)] == EXPECTED_NEW_BRANCH7_PREFIX
        independent_rule_check(seq)


class TestCompleteness:
    """Any qualifying candidate corresponds to a divisor of the full product,
    so enumerating divisors independently proves the scans missed nothing."""

    def test_new_base_has_no_term_up_to_1e8(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**8, cache_dir)
        product, last = seq.product, seq.terms[-1]
        for d in sympy.divisors(product):  # a + 1 must divide the product
            p = 2 * d - 1
            if last < p <= 10**8 and sympy.isprime(p):
                a = d - 1
                assert not set(sympy.factorint(a)) <= set(sympy.factorint(product)), p

    def test_new_base_has_no_term_up_to_1e12(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**12, cache_dir)
        assert seq.terms == EXPECTED_NEW_BASE

    def test_hasanalizade_complete_to_2e5(self, cache_dir):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5, cache_dir)
        product, last = seq.product, seq.terms[-1]
        # p - 2 must divide the product, and p <= 2*10**5 needs d <= 2*10**5 - 2
        for d in capped_divisors(product, 2 * 10**5 - 2):
            p = d + 2
            if last < p <= 2 * 10**5 and sympy.isprime(p):
                assert not set(sympy.factorint(p - 1)) <= set(sympy.factorint(2 * product)), p


class TestGeneration:
    def test_extension_property(self, cache_dir):
        for variant in SequenceVariant:
            small = generate_sequence(variant, 150, cache_dir)
            large = generate_sequence(variant, 5000, cache_dir)
            assert large.terms[: len(small.terms)] == small.terms

    def test_bound_below_prefix_rejected(self, cache_dir):
        with pytest.raises(ValueError):
            generate_sequence(SequenceVariant.NEW_BRANCH13_23, 20, cache_dir)

    def test_bound_cap(self, cache_dir):
        # the largest accepted bound has isqrt(bound) == 10**8
        inside = (10**8 + 1) ** 2 - 1
        assert generate_sequence(SequenceVariant.NEW_BASE, inside, cache_dir).terms == EXPECTED_NEW_BASE
        with pytest.raises(ValueError):
            generate_sequence(SequenceVariant.NEW_BASE, inside + 1, cache_dir)

    def test_aux_values(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4, cache_dir)
        assert seq.aux[0] == 0
        for p, a in zip(seq.terms[1:], seq.aux[1:]):
            assert p == 2 * a + 1
        has = generate_sequence(SequenceVariant.HASANALIZADE, 100, cache_dir)
        assert has.aux == ()

    def test_validator_rejects_tampering(self, cache_dir):
        seq = generate_sequence(SequenceVariant.NEW_BASE, 10**4, cache_dir)
        validate_sequence(seq)
        broken = PrimeSequence(
            seq.variant, seq.prefix, seq.terms + (7,),
            seq.aux + (3,), seq.product * 7, seq.search_bound,
        )
        with pytest.raises(ValueError):
            validate_sequence(broken)


class TestMagnitude:
    def test_single_term(self, cache_dir):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 4, cache_dir)
        assert seq.terms == (3,)
        assert sequence_product_magnitude(seq) == (3.0, 0)

    def test_hasanalizade_product(self, cache_dir):
        seq = generate_sequence(SequenceVariant.HASANALIZADE, 2 * 10**5, cache_dir)
        assert seq.product == math.prod(EXPECTED_HASANALIZADE)
        mantissa, exponent = sequence_product_magnitude(seq)
        assert exponent == 58
        # the even-k coverage bound is twice the (odd) product
        assert 2 * seq.product > 4 * 10**58


class TestDiskCache:
    def path(self, cache_dir, variant, bound):
        return cache_dir / "sequences" / f"{variant.value}_{bound}.txt"

    # the file holds the terms alone; aux and the product are rebuilt on load
    @pytest.mark.parametrize("variant,bound", [
        (SequenceVariant.HASANALIZADE, 10**4),
        (SequenceVariant.NEW_BASE, 977),
        (SequenceVariant.NEW_BRANCH7, 10**4),
        (SequenceVariant.NEW_BRANCH13_23, 10**4),
    ])
    def test_round_trip(self, tmp_path, variant, bound, caplog):
        import totient_forge.sequences as seqmod

        first = generate_sequence(variant, bound, tmp_path)
        seqmod._memo.clear()
        again = generate_sequence(variant, bound, tmp_path)
        assert again == first
        assert "discarding" not in caplog.text

    def test_truncation_detected(self, tmp_path):
        import totient_forge.sequences as seqmod

        original = generate_sequence(SequenceVariant.NEW_BASE, 971, tmp_path)
        path = self.path(tmp_path, SequenceVariant.NEW_BASE, 971)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")  # drop a term and the trailer
        seqmod._memo.clear()
        regenerated = generate_sequence(SequenceVariant.NEW_BASE, 971, tmp_path)
        assert regenerated == original

    def test_garbage_detected(self, tmp_path):
        import totient_forge.sequences as seqmod

        original = generate_sequence(SequenceVariant.HASANALIZADE, 211, tmp_path)
        path = self.path(tmp_path, SequenceVariant.HASANALIZADE, 211)
        path.write_text("# hasanalizade 211\n3\n9\n# count=2\n")
        seqmod._memo.clear()
        regenerated = generate_sequence(SequenceVariant.HASANALIZADE, 211, tmp_path)
        assert regenerated == original

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        def fail(src, dst):
            raise OSError("simulated failure")

        monkeypatch.setattr(os, "replace", fail)
        with pytest.raises(OSError):
            generate_sequence(SequenceVariant.NEW_BASE, 967, tmp_path)
        assert list((tmp_path / "sequences").iterdir()) == []
