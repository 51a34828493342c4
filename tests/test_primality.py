import functools
import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st

from totient_forge import primality
from totient_forge.arith import Factorization, factorize
from totient_forge.primality import (
    DETERMINISTIC_LIMIT,
    PRESIEVE_BOUND,
    PrimalityVerdict,
    Verdict,
    _mr_composite,
    confirm,
    is_prime,
    is_probable_prime,
    presieve,
    primes_upto,
    screen,
)


class TestIsPrimeSmall:
    # is_probable_prime below 2**64, where its verdict is deterministic
    def test_units_composite(self):
        assert is_probable_prime(0).verdict is Verdict.COMPOSITE
        assert is_probable_prime(1).verdict is Verdict.COMPOSITE

    def test_fermat_prime(self):
        assert is_probable_prime(65537).verdict is Verdict.PRIME

    def test_fermat_f5_composite_with_factor(self):
        v = is_probable_prime(4294967297)
        assert v.verdict is Verdict.COMPOSITE
        assert v.witness == 641

    # trial division by the primes <= 997 proves every n < 1009**2
    @pytest.mark.parametrize("n", [1009, 7919, 1018057])
    def test_primes_proven_by_trial_division(self, n, monkeypatch):
        def no_miller_rabin(*args):
            raise AssertionError("Miller-Rabin ran after trial division proved n prime")

        monkeypatch.setattr(primality, "_mr_composite", no_miller_rabin)
        assert is_probable_prime(n).verdict is Verdict.PRIME

    @pytest.mark.parametrize("n", [1009**2, 1009 * 1013])
    def test_products_of_primes_above_trial_range(self, n):
        v = is_probable_prime(n)
        assert v.verdict is Verdict.COMPOSITE
        d = n - 1
        s = (d & -d).bit_length() - 1
        assert _mr_composite(n, v.witness, d >> s, s)

    def test_exhaustive_small_against_sympy(self):
        # every n below 1009**2, where the verdict is a table lookup: primes
        # from sympy, and the witness of a composite is its smallest prime,
        # found by an ascending pass over the primes <= 997
        limit = primality.SPF_LIMIT
        expected_prime = np.zeros(limit, dtype=bool)
        expected_prime[list(sympy.primerange(limit))] = True
        smallest = np.zeros(limit, dtype=np.int64)
        for p in sympy.primerange(998):
            cells = smallest[2 * p :: p]
            cells[cells == 0] = p
        verdicts = [is_probable_prime(n) for n in range(limit)]
        got_prime = np.array([v.is_prime for v in verdicts])
        got_witness = np.array([v.witness or 0 for v in verdicts])
        assert not np.flatnonzero(got_prime != expected_prime).tolist()
        assert not np.flatnonzero(got_witness != smallest).tolist()
        assert all(v.witness is None for v in verdicts if v.is_prime)
        got_yes_no = np.array([is_prime(n) for n in range(limit)])
        assert not np.flatnonzero(got_yes_no != expected_prime).tolist()

    def test_random_word_size_against_sympy(self):
        rng = random.Random(31337)
        for _ in range(2000):
            n = rng.randrange(2, DETERMINISTIC_LIMIT)
            assert is_probable_prime(n).is_prime == sympy.isprime(n), n


class TestIsProbablePrime:
    def test_delegates_below_threshold(self):
        assert is_probable_prime(65537).verdict is Verdict.PRIME

    def test_r_table_rows(self):
        r = 10**100 + 9760
        assert is_probable_prime(2 * r + 1).verdict is Verdict.PROBABLE_PRIME
        assert is_probable_prime(3 * r + 1).verdict is Verdict.PROBABLE_PRIME

    def test_power_of_ten_composite(self):
        assert is_probable_prime(10**100).verdict is Verdict.COMPOSITE

    def test_random_large_against_sympy(self):
        rng = random.Random(99)
        for _ in range(400):
            n = rng.randrange(2**64, 2**160)
            assert is_probable_prime(n).is_prime == sympy.isprime(n), n

    def test_large_known_primes(self):
        # primes big enough to exercise the Lucas path
        for p in [2**89 - 1, 2**107 - 1, 2**127 - 1, 10**40 + 121]:
            assert is_probable_prime(p).verdict is Verdict.PROBABLE_PRIME
            assert sympy.isprime(p)

    def test_strong_base2_pseudoprimes_rejected(self):
        for n in [2047, 3277, 4033, 4681, 8321, 15841, 29341]:
            assert not is_probable_prime(n).is_prime

    # below 2**64, strong pseudoprimes to base 2 and to every base of 3..37
    # below the witness
    @pytest.mark.parametrize("n,witness", [
        (2152302898747, 13),
        (3474749660383, 17),
        (341550071728321, 23),
        (3825123056546413051, 37),
    ])
    def test_base2_pseudoprimes_pass_the_screen(self, n, witness):
        assert screen(n) is None
        assert confirm(n) == witness
        assert is_probable_prime(n) == PrimalityVerdict(n, Verdict.COMPOSITE, witness)

    def test_screen_names_the_smallest_trial_prime(self):
        # 151 * 751 * 28351, a strong pseudoprime to bases 2, 3, 5 and 7
        n = 3215031751
        assert screen(n) == 151
        assert is_probable_prime(n) == PrimalityVerdict(n, Verdict.COMPOSITE, 151)

    # each stage returns None when n passes it, else a witness; confirm
    # takes only what the screen passed
    @pytest.mark.parametrize("n,stages", [
        (0, [0]),
        (1, [0]),
        (997 * 1009, [997]),
        (4294967297, [641]),
        ((10**40 + 121) * (2**89 - 1), [2]),
        (65537, [None, None]),
        (2**61 - 1, [None, None]),
        (2152302898747, [None, 13]),
        (10**40 + 121, [None, None]),
    ])
    def test_stage_witnesses(self, n, stages):
        got = [screen(n)]
        if got[0] is None:
            got.append(confirm(n))
        assert got == stages
        # is_probable_prime names a witness only where it is one
        witness = next((w for w in got if w is not None), None)
        assert is_probable_prime(n).witness == (witness or None)
        assert is_probable_prime(n).is_prime == is_prime(n) == (witness is None)

    def test_lucas_rejection_has_no_witness(self, monkeypatch):
        monkeypatch.setattr(primality, "_strong_lucas_composite", lambda n: True)
        n = 10**40 + 121
        assert (screen(n), confirm(n)) == (None, 0)
        assert is_probable_prime(n) == PrimalityVerdict(n, Verdict.COMPOSITE, None)
        assert not is_prime(n)

    def test_lucas_matches_published_pseudoprime_list(self):
        from totient_forge.primality import _strong_lucas_composite

        # known strong Lucas pseudoprimes (Selfridge parameters): the Lucas
        # half alone must accept them, and the base-2 half must reject them
        for n in [5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199]:
            assert not sympy.isprime(n)
            assert not _strong_lucas_composite(n)
            d = n - 1
            s = (d & -d).bit_length() - 1
            assert _mr_composite(n, 2, d >> s, s)
        for n in sympy.primerange(5000, 6000):
            assert not _strong_lucas_composite(n)

    def test_square_of_large_prime_composite(self):
        p = 2**107 - 1
        assert is_probable_prime(p * p).verdict is Verdict.COMPOSITE

    @pytest.mark.parametrize("factors", [
        (2,), (641,), (997,), (3, 997), (641, 997), (2, 641, 997),
    ])
    def test_small_factor_above_2_64_is_the_witness(self, factors):
        # the smallest prime <= 997 dividing n is the witness, however many divide it
        for big in (2**89 - 1, 2**107 - 1, 10**40 + 121):
            n = math.prod(factors) * big
            assert n > DETERMINISTIC_LIMIT
            v = is_probable_prime(n)
            assert v.verdict is Verdict.COMPOSITE
            assert v.witness == min(factors), n

    def test_composite_witnesses_verify(self):
        rng = random.Random(5)
        for _ in range(500):
            n = rng.randrange(4, 2**70)
            v = is_probable_prime(n)
            if v.verdict is not Verdict.COMPOSITE or v.witness is None:
                continue
            w = v.witness
            if 1 < w < n and n % w == 0:
                continue  # divisor certificate
            d = n - 1
            s = (d & -d).bit_length() - 1
            assert _mr_composite(n, w, d >> s, s)


# pseudoprimes of the stages above: strong to base 2 (rejected by the table or
# by a later base), strong to bases 2..31 with their smallest factor 151, and
# strong Lucas pseudoprimes (rejected by base 2)
_PSEUDOPRIMES = (2047, 3277, 4033, 4681, 8321, 15841, 29341, 2152302898747,
                 3474749660383, 341550071728321, 3825123056546413051, 3215031751,
                 5459, 5777, 10877, 16109, 18971, 22499, 24569, 25199)


class TestIsPrime:
    def test_matches_the_verdict_path(self):
        rng = random.Random(2718)
        trial_product = math.prod(primes_upto(1000).tolist())

        def draw(lo, hi, count):
            # half uniform, half coprime to the primes <= 997, so that
            # confirm runs on them and primes and pseudoprimes appear
            values = [rng.randrange(lo, hi) for _ in range(count // 2)]
            while len(values) < count:
                n = rng.randrange(lo, hi)
                if math.gcd(n, trial_product) == 1:
                    values.append(n)
            return values

        limit = primality.SPF_LIMIT
        edges = [0, 1, 2, -1, limit - 1, limit, DETERMINISTIC_LIMIT - 1, DETERMINISTIC_LIMIT]
        values = (draw(limit, DETERMINISTIC_LIMIT, 20_000) + draw(DETERMINISTIC_LIMIT, 2**340, 2_000)
                  + edges + list(_PSEUDOPRIMES))
        answers = {n: is_prime(n) for n in values}
        assert not [n for n in values if answers[n] != is_probable_prime(n).is_prime]
        assert not any(answers[n] for n in _PSEUDOPRIMES)
        # primes were drawn on both sides of 2**64
        assert any(answers[n] for n in values if limit <= n < DETERMINISTIC_LIMIT)
        assert any(answers[n] for n in values if n > DETERMINISTIC_LIMIT)

    def test_builds_no_verdict_below_the_table_limit(self, monkeypatch):
        def no_verdict(*args, **kwargs):
            raise AssertionError("a PrimalityVerdict was built")

        monkeypatch.setattr(primality, "PrimalityVerdict", no_verdict)
        limit = primality.SPF_LIMIT
        assert [n for n in range(-3, 200) if is_prime(n)] == list(sympy.primerange(200))
        assert is_prime(limit - 1) is False and is_prime(1018057) is True
        f = factorize(2**4 * 3 * 1009 * 1018057)
        f.validate()
        with pytest.raises(ValueError, match="not prime"):
            Factorization(((2, 1), (1018080, 1)), 2 * 1018080).validate()


class TestSieves:
    def test_primes_upto_matches_sympy(self):
        assert primes_upto(10**6).tolist() == list(sympy.primerange(2, 10**6 + 1))

    def test_primes_upto_cap(self):
        with pytest.raises(ValueError, match=r"capped at 10\*\*8"):
            primes_upto(10**8 + 1)


_PRESIEVE_ARGS = dict(
    a=st.one_of(st.integers(1, 64), st.sampled_from((16, 256, 65536))),
    gap=st.one_of(st.integers(1, 64), st.integers(1, 10**30)),
    start=st.one_of(st.integers(1, 300), st.integers(1, 10**100)),
    count=st.one_of(st.integers(0, 300), st.integers(0, 3000)),
    step=st.sampled_from((1, 2, 3, 6)),
    # prime lists from the 2 primes <= 3 to the 9,592 <= PRESIEVE_BOUND
    bound=st.sampled_from((3, 97, 709, 719, 1000, 5000, PRESIEVE_BOUND)),
)


class TestPresieve:
    def test_small_survivors(self):
        mask = presieve(2, 3, 1, 10)
        survivors = [1 + i for i, alive in enumerate(mask) if alive]
        assert 2 in survivors          # 5 and 7 are both prime
        assert 4 not in survivors      # 2*4+1 = 9 is divisible by 3
        assert survivors == [2, 6]

    def test_empty_range(self):
        assert presieve(2, 3, 1, 0) == bytearray()

    def test_dead_candidates_really_composite(self):
        mask = presieve(4, 9, 5, 512, step=2)
        for i, alive in enumerate(mask):
            r = 5 + 2 * i
            if not alive:
                assert not (sympy.isprime(4 * r + 1) and sympy.isprime(9 * r + 1))

    def test_segment_cap(self):
        with pytest.raises(ValueError):
            presieve(2, 3, 1, 2**20 + 1)

    @pytest.mark.parametrize("a,b,start,step", [
        (2, 3, 1, 0),
        (2, 3, 1, -2),
        (2, 3, 0, 1),
        (2, 3, -5, 2),
        (0, 3, 1, 1),
        (-1, 3, 1, 1),
        (3, 3, 1, 1),
        (4, 3, 1, 1),
    ])
    def test_rejects_inputs_outside_the_domain(self, a, b, start, step):
        # the same rules as PairSearchTask: 1 <= a < b, start >= 1, step >= 1
        with pytest.raises(ValueError):
            presieve(a, b, start, 5, step=step)

    def test_bound_capped_at_the_constants(self):
        # the per-process constants cover the primes <= PRESIEVE_BOUND only
        assert presieve(2, 3, 1, 10, bound=PRESIEVE_BOUND) == presieve(2, 3, 1, 10)
        with pytest.raises(ValueError, match="capped"):
            presieve(2, 3, 1, 10, bound=PRESIEVE_BOUND + 1)

    def test_form_constants_are_read_only(self):
        # every block of every search with the multiplier shares them
        for constants in primality._form_constants(65536, 2):
            assert len(constants) == len(primes_upto(PRESIEVE_BOUND))
            with pytest.raises(ValueError):
                constants[0] = 1

    @settings(max_examples=60, deadline=None)
    @given(**_PRESIEVE_ARGS)
    def test_memo_hit_equals_its_miss(self, a, gap, start, count, step, bound):
        # a call on a warm memo, at the same start or at the next block's,
        # equals the call that filled it
        b = a + gap
        primality._form_constants.cache_clear()
        cold = presieve(a, b, start, count, step, bound)
        assert presieve(a, b, start, count, step, bound) == cold
        after = start + count * step
        warm = presieve(a, b, after, count, step, bound)
        primality._form_constants.cache_clear()
        assert presieve(a, b, after, count, step, bound) == warm

    @settings(max_examples=60, deadline=None)
    @given(**_PRESIEVE_ARGS)
    # step 6: both primes <= 3 divide every u = c*step, so both take the flat
    # path; start 1 puts forms equal to their own sieving prime in the window
    @example(a=1, gap=1, start=1, count=64, step=6, bound=3)
    @example(a=2, gap=4, start=1, count=300, step=1, bound=97)
    @example(a=2, gap=1, start=1, count=300, step=1, bound=PRESIEVE_BOUND)
    @example(a=1, gap=1, start=1, count=3000, step=1, bound=5000)
    @example(a=2, gap=1, start=1, count=1200, step=6, bound=719)
    @example(a=16, gap=1, start=10**100, count=2048, step=2, bound=PRESIEVE_BOUND)
    def test_mask_matches_naive_reference(self, a, gap, start, count, step, bound):
        expected = naive_presieve(a, a + gap, start, count, step, bound)
        assert presieve(a, a + gap, start, count, step, bound) == expected


@functools.cache
def _sieving_primes(bound: int) -> np.ndarray:
    return np.array(list(sympy.primerange(2, bound + 1)), dtype=np.int64)


def naive_presieve(a, b, start, count, step, bound) -> bytearray:
    """mask[i] == 0 iff a*r+1 or b*r+1, r = start + i*step, has a prime
    divisor q <= bound with q < the form: every (prime, candidate) pair is
    tested, with no inverses, strides or exemption bookkeeping."""
    primes = _sieving_primes(bound)
    struck = np.zeros(count, dtype=bool)
    for c in (a, b):
        t = np.array([(c * start + 1) % q for q in primes.tolist()], dtype=np.int64)
        u = np.array([c * step % q for q in primes.tolist()], dtype=np.int64)
        for lo in range(0, count, 256):
            i = np.arange(lo, min(lo + 256, count), dtype=np.int64)
            divides = (t[:, None] + i[None, :] * u[:, None]) % primes[:, None] == 0
            # a multiple of q is less than q only if it is q itself
            forms = [c * (start + j * step) + 1 for j in i.tolist()]
            small = np.array([f if f <= bound else 0 for f in forms], dtype=np.int64)
            divides &= small[None, :] != primes[:, None]
            struck[lo:lo + len(i)] |= divides.any(axis=0)
    return bytearray((~struck).astype(np.uint8).tobytes())
