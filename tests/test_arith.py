import math
import random

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from totient_forge import arith, primality
from totient_forge.arith import (
    DEFAULT_FACTORING_BOUND,
    FactoringBoundExceeded,
    Factorization,
    factorize,
    iter_divisors,
    star_divides,
    totient,
    v2,
)
from totient_forge.search import FERMAT_PRIMES


def phi_by_count(n: int) -> int:
    # independent oracle: count residues coprime to n directly
    if n == 1:
        return 1
    return int(np.count_nonzero(np.gcd(np.arange(1, n + 1), n) == 1))


def radical(n: int) -> int:
    """Reference radical for the identity tests: the product of n's primes."""
    return math.prod(p for p, _ in factorize(n).factors)


class TestRadical:
    """The reference radical on known values."""

    @pytest.mark.parametrize("n,expected", [(1, 1), (12, 6), (56032, 3502), (8, 2)])
    def test_values(self, n, expected):
        assert radical(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            radical(0)


class TestStarDivides:
    @pytest.mark.parametrize("a,b,expected", [
        (4, 2, True),
        (6, 12, True),
        (10, 4, False),
        (1, 7, True),
        (12, 10, False),
    ])
    def test_values(self, a, b, expected):
        assert star_divides(a, b) is expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            star_divides(0, 3)
        with pytest.raises(ValueError):
            star_divides(3, 0)

    def test_mutual_star_divide_is_equal_radical(self):
        radicals = [0] + [radical(n) for n in range(1, 300)]
        for a in range(1, 300):
            for b in range(1, 300):
                both = star_divides(a, b) and star_divides(b, a)
                assert both == (radicals[a] == radicals[b])


class TestFactorize:
    def test_one(self):
        assert factorize(1).factors == ()
        assert factorize(1).value == 1

    def test_desk(self):
        assert factorize(56066).factors == ((2, 1), (17, 2), (97, 1))

    def test_large_prime_term(self):
        f = factorize(160001)
        assert f.factors == ((160001, 1),)
        assert sympy.isprime(160001)

    def test_round_trip_random(self):
        rng = random.Random(20240811)
        for i in range(10_000):
            n = rng.randrange(1, 10**12)
            f = factorize(n)
            assert f.value == n
            f.validate()
            if i < 500:  # independent spot-check
                assert dict(f.factors) == dict(sympy.factorint(n))

    def test_bound_enforced(self):
        with pytest.raises(FactoringBoundExceeded):
            factorize(10**19 + 7)
        # the cap is inclusive: numpy trial division needs inputs below 2**63
        assert factorize(DEFAULT_FACTORING_BOUND).value == DEFAULT_FACTORING_BOUND
        with pytest.raises(FactoringBoundExceeded):
            factorize(DEFAULT_FACTORING_BOUND + 1)

    def test_hint_above_bound(self):
        n = 2**101
        f = factorize(n, hint=Factorization.from_pairs([(2, 101)]))
        assert f.value == n

    def test_bad_hint_rejected(self):
        with pytest.raises(ValueError):
            factorize(12, hint=Factorization.from_pairs([(2, 2)]))
        with pytest.raises(ValueError):
            # 4 is not prime: validation must refuse it
            factorize(12, hint=Factorization(((3, 1), (4, 1)), 12))

    def test_semiprime_needs_rho(self):
        p, q = 1_000_003, 1_000_033
        assert factorize(p * q).factors == ((p, 1), (q, 1))

    # the table walk, the first pass with a prime or 1 left, a cofactor
    # tested once, and rho
    @pytest.mark.parametrize("lo, hi, count", [
        (1, 1009**2, 3000),
        (1009**2, 10**8, 1000),
        (10**8, 10**12, 300),
        (10**12, 10**18 + 1, 100),
    ])
    def test_matches_sympy_per_class(self, lo, hi, count):
        rng = random.Random(lo)
        for n in [lo, hi - 1] + [rng.randrange(lo, hi) for _ in range(count)]:
            assert dict(factorize(n).factors) == sympy.factorint(n), n

    @pytest.mark.parametrize("n", [
        1_000_003 * 1_000_033,            # p*q, 10**6 < p <= q
        999_999_937 * 1_000_000_007,      # the same just below 10**18
        (10**6 + 3) ** 2,
        100_000_007,                      # first primes above 10**8, 10**12
        1_000_000_000_039,
        2**59,
        9973 * 999_983,                   # p <= 10**4 < q <= 10**6
        9973 * 999_983 * 1_000_003,
        10007 * 1_000_000_007,            # 10**4 < p <= 10**6 < q
        10007 * 99_930_048_965_713,
        999_983 * 999_999_999_989,
        10007**2,                         # p**2, p > 10**4
        999_983**2,
        999_999_937**2,
        10007 * 10009 * 10037,            # three primes > 10**4
        99991 * 999_983 * 9_999_991,
        10007**2 * 1_000_003,
        1009**2 - 1, 1009**2, 1009 * 1013,
        2**40 * 3**10,
        10**18,
    ])
    def test_edge_cases_match_sympy(self, n):
        assert dict(factorize(n).factors) == sympy.factorint(n)

    @pytest.mark.parametrize("n", [
        100_000_000_000_000_003,          # a prime near 10**17
        2 * 3 * 1_000_000_000_039,        # a prime cofactor above 10**12
        1_000_003 * 1_000_033,
        7 * 1_000_003 * 999_999_937,      # composite after the 10**6 pass
        999_999_937 * 1_000_000_007,
        (10**6 + 3) ** 2,
        100_000_007,
    ])
    def test_tests_each_cofactor_once(self, n, monkeypatch):
        tested = []

        def counting(m):
            tested.append(m)
            return primality.is_prime(m)

        monkeypatch.setattr(arith, "is_prime", counting)
        assert dict(factorize(n).factors) == sympy.factorint(n)
        assert len(tested) == len(set(tested)), tested

    def test_table_walk_matches_sympy(self):
        # every n <= 2*10**4, 2,000 seeded n below 1009**2, and the values
        # either side of the table's end and of 10**8
        rng = random.Random(1009)
        ns = list(range(1, 2 * 10**4 + 1)) + [rng.randrange(1, 1009**2) for _ in range(2000)]
        ns += [1009**2 - 1, 1009**2, 1009**2 + 1, 10**8 - 1, 10**8 + 1]
        for n in ns:
            f = factorize(n)
            assert f == Factorization.from_pairs(sympy.factorint(n).items()), n
            f.validate()

    def test_rho_splits_pool_semiprime(self):
        # the solve-sweep pool's slowest k to factor
        assert str(factorize(711208893582865411)) == "363418051 * 1956999361"

    def test_validate_rejects_descending_primes(self):
        with pytest.raises(ValueError, match="ascending"):
            Factorization(((3, 1), (2, 1)), 6).validate()

    def test_validate_rejects_a_wrong_value(self):
        with pytest.raises(ValueError, match="does not match"):
            Factorization(((2, 1), (3, 1)), 7).validate()


class TestTotient:
    @pytest.mark.parametrize("n,expected", [(1, 1), (10, 4), (65537, 65536)])
    def test_values(self, n, expected):
        assert totient(n) == expected

    def test_against_direct_count(self):
        for n in range(1, 10_001):
            assert totient(n) == phi_by_count(n)

    def test_accepts_factorization(self):
        assert totient(factorize(100)) == 40


class TestV2:
    @pytest.mark.parametrize("n,expected", [(1, 0), (32, 5), (56032, 5), (7, 0)])
    def test_values(self, n, expected):
        assert v2(n) == expected

    def test_rejects_zero(self):
        with pytest.raises(ValueError):
            v2(0)


class TestIdentities:
    def test_star_divides_identity_smoke(self):
        # totient(a*b) = a * totient(b) whenever rad(a) | b
        phi = [0] + [totient(n) for n in range(1, 400)]
        for b in range(1, 400):
            for a in range(1, 400):
                if star_divides(a, b):
                    assert totient(a * b) == a * phi[b]

    def test_equal_radical_identity_smoke(self):
        radicals = [0] + [radical(n) for n in range(1, 400)]
        phi = [0] + [totient(n) for n in range(1, 400)]
        for a in range(1, 400):
            for b in range(1, 400):
                if radicals[a] == radicals[b]:
                    assert a * phi[b] == b * phi[a]

    def test_fermat_half_identity(self):
        for value in FERMAT_PRIMES:
            assert value - 1 == 2 * totient(value - 1)


class TestFactorization:
    def test_str_and_parse_round_trip(self):
        f = factorize(56032)
        assert str(f) == "2^5 * 17 * 103"
        assert Factorization.parse(str(f)) == f
        assert Factorization.parse("1").value == 1

    # small primes, one near 2**32 and two above 2**64 (parse re-tests them)
    @settings(max_examples=100, deadline=None)
    @given(pairs=st.lists(
        st.tuples(st.sampled_from((2, 3, 5, 7, 641, 65537, 4294967311, 2**89 - 1, 2**107 - 1)),
                  st.integers(0, 4)),
        max_size=6,
    ))
    def test_parse_str_round_trip_property(self, pairs):
        f = Factorization.from_pairs(pairs)
        again = Factorization.parse(str(f))
        assert again == f
        assert again.value == math.prod(p**e for p, e in pairs)

    @settings(max_examples=200, deadline=None)
    @given(
        pairs=st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11, 641, 65537)), st.integers(0, 3)),
                       max_size=5),
        p=st.sampled_from((2, 3, 5, 7, 11, 13, 641, 65537, 2**89 - 1)),
        e=st.integers(0, 3),
    )
    def test_times_prime_matches_from_pairs(self, pairs, p, e):
        f = Factorization.from_pairs(pairs)
        assert f.times_prime(p, e) == Factorization.from_pairs(f.factors + ((p, e),))
        with pytest.raises(ValueError):
            f.times_prime(p, -1)

    @settings(max_examples=200, deadline=None)
    @given(
        a=st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 11, 641, 65537)), st.integers(0, 3)),
                   max_size=5),
        b=st.lists(st.tuples(st.sampled_from((2, 3, 5, 7, 13, 641, 2**89 - 1)), st.integers(0, 3)),
                   max_size=5),
    )
    def test_times_and_div_exact_match_from_pairs(self, a, b):
        f, g = Factorization.from_pairs(a), Factorization.from_pairs(b)
        product = Factorization.from_pairs(f.factors + g.factors)
        assert f.times(g) == product == g.times(f)
        assert product.div_exact(g.value) == f and product.div_exact(f.value) == g
        quotient = dict(f.factors)
        for p, e in g.factors:
            quotient[p] = quotient.get(p, 0) - e
        if min(quotient.values(), default=0) < 0:
            with pytest.raises(ValueError):
                f.div_exact(g.value)
        else:
            assert f.div_exact(g.value) == Factorization.from_pairs(quotient.items())

    def test_parse_rejects_composite(self):
        with pytest.raises(ValueError):
            Factorization.parse("4 * 3")

    def test_div_exact(self):
        f = factorize(720)
        assert f.div_exact(6).value == 120
        with pytest.raises(ValueError):
            f.div_exact(7)

    def test_times(self):
        assert factorize(12).times(factorize(10)).value == 120
        assert factorize(5).times_prime(5).factors == ((5, 2),)

    def test_divisor_helpers(self):
        f = factorize(360)
        assert iter_divisors(f) == sorted(sympy.divisors(360))
        assert iter_divisors(f, limit=10) == [d for d in sympy.divisors(360) if d <= 10]
        assert f.div_exact(45) == factorize(8)
        with pytest.raises(ValueError):
            f.div_exact(7)

