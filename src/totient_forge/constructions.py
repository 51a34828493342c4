"""Solution constructions for phi(n+k) = M*phi(n), M in {1, 2}.

Every constructor derives the factorizations of n and n+k symbolically from
the factorization of k and the witness data, evaluates both totients exactly,
and only then returns a Solution. Nothing is ever reported unverified. Every
family gives n = num*k/den and n+k = (num+den)*k/den, built and certified by
one builder, _ratio.

k's factorization is certified once, at the public entry point (solve,
solve_even_m2 or a construct_* function); the private builders behind them
take that certified factorization as given.

Error vocabulary (part of the public contract):
  NotApplicable        the construction's hypothesis excludes this k
  MissingWitness       a required witness (r) was not supplied
  InvalidWitness       a supplied witness fails its side conditions
  BranchHypothesisUnmet a dispatch branch was selected but its formula fails
  AllTermsDivideK      no sequence term is coprime to k
  CannotVerify         verification impossible without factorizations
"""

from __future__ import annotations

import logging
from enum import Enum
from math import gcd
from pathlib import Path
from typing import NamedTuple

from .arith import (
    DEFAULT_FACTORING_BOUND,
    Factorization,
    factorize,
    iter_divisors,
    star_divides,
)
from .primality import is_prime
from .search import (
    DEFAULT_CANDIDATE_BUDGET,
    FERMAT_PRIMES,
    LimitExhausted,
    fermat_pair_task,
    search_pair_r,
)
from .sequences import PrimeSequence, SequenceVariant, generate_sequence, validate_sequence

__all__ = [
    "Method",
    "MIN_SOLUTIONS",
    "Solution",
    "ConstructionError",
    "NotApplicable",
    "MissingWitness",
    "InvalidWitness",
    "BranchHypothesisUnmet",
    "AllTermsDivideK",
    "CannotVerify",
    "FermatWitness",
    "PropWitness",
    "SeqWitness",
    "RatioWitness",
    "construct_makowski",
    "construct_fermat_m1",
    "construct_fermat_m2",
    "construct_seq_solution",
    "solve_even_m2",
    "construct_prop_double_prime",
    "construct_prop_phi_pair",
    "verify_solution",
    "solve",
    "serialize_solution",
    "solution_to_dict",
]

log = logging.getLogger(__name__)


class ConstructionError(Exception):
    pass


class NotApplicable(ConstructionError):
    pass


class MissingWitness(ConstructionError):
    pass


class InvalidWitness(ConstructionError):
    pass


class BranchHypothesisUnmet(ConstructionError):
    pass


class AllTermsDivideK(ConstructionError):
    pass


class CannotVerify(ConstructionError):
    pass


class Method(Enum):
    MAKOWSKI = "Makowski"
    FERMAT_CASE1 = "FermatCase1"
    FERMAT_CASE2 = "FermatCase2"
    SEQ_HASANALIZADE = "SeqHasanalizade"
    SEQ_NEW = "SeqNew"
    PROP_DOUBLE_PRIME = "PropDoublePrime"
    PROP_PHI_PAIR = "PropPhiPair"


class FermatWitness(NamedTuple):
    m: int
    case: int
    r: int | None = None

    def label(self) -> str:
        r = "" if self.r is None else f",r={self.r}"
        return f"m={self.m},case={self.case}{r}"


class PropWitness(NamedTuple):
    p: int | None = None
    m_param: int | None = None

    def label(self) -> str:
        return f"p={self.p}" if self.p is not None else f"m_param={self.m_param}"


class SeqWitness(NamedTuple):
    variant: SequenceVariant
    index: int  # 1-based position of the selected term
    p: int
    a: int | None = None

    def label(self) -> str:
        a = "" if self.a is None else f",a={self.a}"
        return f"variant={self.variant.value},index={self.index},p={self.p}{a}"


class RatioWitness(NamedTuple):
    num: int
    den: int

    def label(self) -> str:
        return f"num={self.num},den={self.den}"


class Solution(NamedTuple):
    """A certified solution: totient(n+k) = M * totient(n) holds exactly."""

    k: int
    M: int
    n: int
    method: str
    witnesses: tuple = ()
    n_factorization: Factorization | None = None
    nk_factorization: Factorization | None = None


def serialize_solution(s: Solution) -> str:
    tags = ";".join(w.label() for w in s.witnesses) or "-"
    fact = str(s.n_factorization) if s.n_factorization is not None else "?"
    return f"k={s.k} M={s.M} n={s.n} method={s.method} witnesses[{tags}] n_factors[{fact}]"


def solution_to_dict(s: Solution) -> dict:
    return {
        "k": str(s.k),
        "M": s.M,
        "n": str(s.n),
        "method": s.method,
        "witnesses": [w.label() for w in s.witnesses],
        "n_factors": str(s.n_factorization) if s.n_factorization is not None else "?",
    }


# ---------------------------------------------------------------------------
# shared helpers


def _k_fact(k: int, k_fact: Factorization | None) -> Factorization:
    """k's factorization, validated when supplied, else computed."""
    if k < 1:
        raise NotApplicable("k must be >= 1")
    return factorize(k, hint=k_fact)


def _ratio(k, kf, M, num_f, den, sum_f, method: Method, witness,
           error=InvalidWitness) -> Solution:
    """Certified n = num*k/den with n+k = (num+den)*k/den, from factorizations
    num_f of num and sum_f of num+den."""
    if k % den:
        raise error(f"{den} does not divide k={k}")
    base = kf.div_exact(den)
    n = num_f.value * k // den
    fact_n, fact_nk = base.times(num_f), base.times(sum_f)
    if fact_n.value != n or fact_nk.value != n + k:
        raise error(f"derived factorizations do not reproduce n={n}, n+k={n + k}")
    if fact_nk.totient() != M * fact_n.totient():
        raise error(f"n={n} does not satisfy totient(n+k) = {M}*totient(n) for k={k}")
    return Solution(k, M, n, method.value, (witness,) if witness is not None else (),
                    fact_n, fact_nk)


def _prime(p: int) -> Factorization:
    """The factorization of a number already known to be prime."""
    return Factorization(((p, 1),), p)


_ONE = Factorization((), 1)


# ---------------------------------------------------------------------------
# Makowski's solutions


def construct_makowski(k: int, M: int, k_fact: Factorization | None = None) -> Solution:
    """n = k for even k; n = 2k for odd k coprime to 3."""
    if M != 2:
        raise NotApplicable("Makowski's construction solves the doubled equation only")
    return _makowski(k, _k_fact(k, k_fact))


def _makowski(k: int, kf: Factorization) -> Solution:
    if k % 2 == 0:
        return _ratio(k, kf, 2, _ONE, 1, _prime(2), Method.MAKOWSKI, None)
    if k % 3 == 0:
        # phi(3k) = 3*phi(k) != 2*phi(2k) once 3 | k
        raise NotApplicable("odd k must be coprime to 3")
    return _ratio(k, kf, 2, _prime(2), 1, _prime(3), Method.MAKOWSKI, None)


# ---------------------------------------------------------------------------
# Fermat-prime constructions


# (F_m - 1 = 2^(2^m), F_m) for the five Fermat primes
_FERMAT = tuple(
    (Factorization(((2, 1 << m),), fermat - 1), _prime(fermat))
    for m, fermat in enumerate(FERMAT_PRIMES)
)


def _fermat(k: int, m: int, r: int | None, M: int, kf: Factorization) -> Solution:
    if M == 1 and k % 2:
        raise NotApplicable("this construction requires even k")
    if M == 2 and k % 2 == 0:
        raise NotApplicable("this construction requires odd k")
    if not 0 <= m <= 4:
        raise NotApplicable("only the five known Fermat primes (m = 0..4) apply")
    power_f, fermat_f = _FERMAT[m]
    fermat = fermat_f.value
    if gcd(fermat, k) == 1:
        # case 1: n = 2^(2^m) * k
        return _ratio(k, kf, M, power_f, 1, fermat_f, Method.FERMAT_CASE1, FermatWitness(m, 1))
    # case 2: F_m | k, n = (F_m - 1) * p2 * k and n+k = F_m * p1 * k
    if r is None:
        raise MissingWitness(f"2^(2^{m})+1 divides k; a witness r is required")
    if r < 1:
        raise InvalidWitness("r must be >= 1")
    p1 = (fermat - 1) * r + 1
    p2 = fermat * r + 1
    for p in (p1, p2):
        if not is_prime(p):
            raise InvalidWitness(f"{p} is not prime for witness r={r}")
        if k % p == 0:
            raise InvalidWitness(f"witness prime {p} divides k")
    return _ratio(k, kf, M, power_f.times_prime(p2), 1, fermat_f.times_prime(p1),
                  Method.FERMAT_CASE2, FermatWitness(m, 2, r))


# The pair witnesses r of each F_m found so far, ascending, with every witness
# below the last one listed; kept for the life of the process, never on disk.
_FERMAT_WITNESSES: tuple[list[int], ...] = tuple([] for _ in FERMAT_PRIMES)
# the limit of the avoid search from r = 1, so the same k exhaust both
_FERMAT_WITNESS_LIMIT = 2 + 2 * DEFAULT_CANDIDATE_BUDGET


def _fermat_witness(m: int, k: int) -> int:
    """The smallest pair witness r of F_m with neither (F_m - 1)*r + 1 nor
    F_m*r + 1 dividing k: the r of the avoid search, fermat_pair_task(m, 1)
    with avoid_divisors_of=k.

    Each prime of k excludes at most two witnesses. The list grows, by an
    uncached search past its last entry, only when every listed one is
    excluded.
    """
    fermat = FERMAT_PRIMES[m]
    witnesses = _FERMAT_WITNESSES[m]
    i = 0
    while True:
        if i == len(witnesses):
            task = fermat_pair_task(m, witnesses[-1] + 1 if witnesses else 1,
                                    limit=_FERMAT_WITNESS_LIMIT)
            witnesses.append(search_pair_r(task, use_cache=False).r)
        r = witnesses[i]
        if k % ((fermat - 1) * r + 1) and k % (fermat * r + 1):
            return r
        i += 1


def construct_fermat_m1(k: int, m: int, r: int | None = None,
                        k_fact: Factorization | None = None) -> Solution:
    """Solution of phi(n+k) = phi(n) for even k from the Fermat prime 2^(2^m)+1."""
    return _fermat(k, m, r, 1, _k_fact(k, k_fact))


def construct_fermat_m2(k: int, m: int, r: int | None = None,
                        k_fact: Factorization | None = None) -> Solution:
    """Solution of phi(n+k) = 2*phi(n) for odd k from the Fermat prime 2^(2^m)+1."""
    return _fermat(k, m, r, 2, _k_fact(k, k_fact))


# ---------------------------------------------------------------------------
# sequence-based solutions (even k, M = 2)


def construct_seq_solution(k: int, seq: PrimeSequence, M: int,
                           k_fact: Factorization | None = None) -> Solution:
    """Solution from the smallest sequence term coprime to k.

    Hasanalizade sequences give n = p*k/(p-2); doubling sequences give
    n = a*k/(a+1) with p = 2a+1. Exact divisibility holds whenever the
    selected term is governed by the generation rules (it is re-checked).
    The supplied sequence is validated first, as a supplied k_fact is: its
    terms are taken as primes from then on.
    """
    if M != 2:
        raise NotApplicable("sequence constructions solve the doubled equation only")
    kf = _k_fact(k, k_fact)
    try:
        validate_sequence(seq)
    except ValueError as exc:
        raise InvalidWitness(f"invalid {seq.variant.value} sequence: {exc}") from exc
    return _seq_solution(k, seq, kf)


def _seq_solution(k: int, seq: PrimeSequence, kf: Factorization) -> Solution:
    if k % 2:
        raise NotApplicable("sequence constructions require even k")
    index, p = next(
        ((i, q) for i, q in enumerate(seq.terms, start=1) if gcd(q, k) == 1),
        (None, None),
    )
    if p is None:
        raise AllTermsDivideK(f"every term of {seq.variant.value} divides k={k}")
    if seq.variant is SequenceVariant.HASANALIZADE:
        # p is odd (k is even): n = p*k/(p-2), n+k = 2(p-1)*k/(p-2)
        if not star_divides(p - 1, 2 * k):
            raise InvalidWitness(f"term {p} does not govern k={k}")
        return _ratio(k, kf, 2, _prime(p), p - 2, factorize(p - 1).times_prime(2),
                      Method.SEQ_HASANALIZADE, SeqWitness(seq.variant, index, p))
    # p = 2a+1: n = a*k/(a+1), n+k = p*k/(a+1)
    a = (p - 1) // 2
    if a == 0 or not star_divides(a, k):
        raise InvalidWitness(f"term {p} does not govern k={k}")
    return _ratio(k, kf, 2, factorize(a), a + 1, _prime(p), Method.SEQ_NEW,
                  SeqWitness(seq.variant, index, p, a))


def _ratio_solution(k: int, kf: Factorization, num: int, den: int) -> Solution:
    return _ratio(k, kf, 2, factorize(num), den, factorize(num + den), Method.SEQ_NEW,
                  RatioWitness(num, den), error=BranchHypothesisUnmet)


def solve_even_m2(k: int, k_fact: Factorization | None = None) -> list[Solution]:
    """The even-k branch dispatch for phi(n+k) = 2*phi(n).

    The branch follows from k's divisibility by 330 = 2*3*5*11, 7, 13, 19 and
    23 and gives a sequence or a fixed-ratio solution; Makowski's n = k is
    always added. With 330 | k, both ratios hold wherever they are chosen:
    for 7, 13 not dividing k, n = 36j and n+k = 91j with j = k/55 and 6 | j,
    so phi(91j) = 72 phi(j) = 2 phi(36j); for 13, 19 | k and 7, 23 not
    dividing it, n = 66j and n+k = 161j with j = k/95 and 66 | j, so
    phi(161j) = 132 phi(j) = 2 phi(66j). Without 19 the 66/95 ratio is not
    an integer, and the base sequence is used.
    """
    kf = _k_fact(k, k_fact)
    return [_even_m2_branch(k, kf), _makowski(k, kf)]


def _even_m2_branch(k: int, kf: Factorization) -> Solution:
    if k % 2:
        raise NotApplicable("even k required")
    if k % 330 == 0:
        if k % 7 == 0:
            return _seq_solution_with_retry(k, kf, SequenceVariant.NEW_BRANCH7)
        if k % 13:
            return _ratio_solution(k, kf, 36, 55)
        if k % 23 == 0:
            return _seq_solution_with_retry(k, kf, SequenceVariant.NEW_BRANCH13_23)
        if k % 19 == 0:
            return _ratio_solution(k, kf, 66, 95)
    return _seq_solution(k, generate_sequence(SequenceVariant.NEW_BASE), kf)


def _seq_solution_with_retry(k, kf, variant) -> Solution:
    # rungs 100x apart from the variant's bound while every term divides k:
    # newbranch7 13,000, 1.3*10^6, 1.3*10^8; newbranch13_23 its bound alone
    bound = variant.bound
    while True:
        try:
            return _seq_solution(k, generate_sequence(variant, bound), kf)
        except AllTermsDivideK:
            if bound >= 2 * 10**7:
                raise
            bound *= 100


# ---------------------------------------------------------------------------
# special-case propositions (M = 2)


def construct_prop_double_prime(k: int, p: int,
                                k_fact: Factorization | None = None) -> Solution:
    """n = p*k/(p-1) when p and 2p-1 are prime, coprime to k, and (p-1) | k."""
    return _prop_double_prime(k, p, _k_fact(k, k_fact))


def _prop_double_prime(k: int, p: int, kf: Factorization) -> Solution:
    if p < 2:
        raise InvalidWitness("p must be a prime >= 2")
    if not is_prime(p):
        raise InvalidWitness(f"p={p} is not prime")
    if not is_prime(2 * p - 1):
        raise InvalidWitness(f"2p-1={2 * p - 1} is not prime")
    if gcd(p, k) != 1 or gcd(2 * p - 1, k) != 1:
        raise InvalidWitness("p and 2p-1 must be coprime to k")
    return _ratio(k, kf, 2, _prime(p), p - 1, _prime(2 * p - 1), Method.PROP_DOUBLE_PRIME,
                  PropWitness(p=p))


def construct_prop_phi_pair(k: int, m_param: int,
                            k_fact: Factorization | None = None) -> Solution:
    """n = (m+4)*k/m for even k when m | k, phi(m+2) = phi(m+4), both coprime to k."""
    return _prop_phi_pair(k, m_param, _k_fact(k, k_fact))


def _prop_phi_pair(k: int, m_param: int, kf: Factorization) -> Solution:
    if k % 2:
        raise NotApplicable("even k required")
    if m_param < 1:
        raise InvalidWitness("m must be >= 1")
    if gcd(m_param + 2, k) != 1 or gcd(m_param + 4, k) != 1:
        raise InvalidWitness("m+2 and m+4 must be coprime to k")
    f_plus2 = factorize(m_param + 2)
    f_plus4 = factorize(m_param + 4)
    if f_plus2.totient() != f_plus4.totient():
        raise InvalidWitness(f"totient({m_param + 2}) != totient({m_param + 4})")
    return _ratio(k, kf, 2, f_plus4, m_param, f_plus2.times_prime(2), Method.PROP_PHI_PAIR,
                  PropWitness(m_param=m_param))


# ---------------------------------------------------------------------------
# verification and orchestration


def verify_solution(s: Solution) -> bool:
    """Exactly evaluate totient(n+k) == M * totient(n).

    Uses the factorizations carried by the solution when they match its values
    and every listed factor re-tests prime, otherwise factors directly
    (CannotVerify above the factoring bound).
    """

    def fact_of(value: int, carried: Factorization | None) -> Factorization:
        if carried is not None and carried.value == value:
            try:
                carried.validate()
                return carried
            except ValueError:
                pass  # a listed factor is not prime: factor the value afresh
        try:
            return factorize(value)
        except Exception as exc:
            raise CannotVerify(f"cannot factor {value}: {exc}") from exc

    fact_n = fact_of(s.n, s.n_factorization)
    fact_nk = fact_of(s.n + s.k, s.nk_factorization)
    return fact_nk.totient() == s.M * fact_n.totient()


def _merge(solutions) -> list[Solution]:
    by_n: dict[int, Solution] = {}
    for s in sorted(solutions, key=lambda s: (s.n, s.method)):
        cur = by_n.get(s.n)
        if cur is None:
            by_n[s.n] = s
        else:
            tags = sorted(set(cur.method.split("+")) | set(s.method.split("+")))
            by_n[s.n] = cur._replace(method="+".join(tags),
                                     witnesses=cur.witnesses + s.witnesses)
    return [by_n[n] for n in sorted(by_n)]


def _scan_divisors(kf: Factorization, build) -> list[Solution]:
    """Every solution build(d) yields over the divisors d <= 10^6 of k."""
    found = []
    for d in iter_divisors(kf, limit=10**6):
        try:
            found.append(build(d))
        except ConstructionError:
            continue
    return found


# Minimum solution counts guaranteed at desk scale, keyed by (M, k % 2): the
# five Fermat solutions for M = 1 with even k and M = 2 with odd k; the
# branch, Makowski and Hasanalizade solutions for M = 2 with even k; none for
# M = 1 with odd k. Claim C6 and the CLI's solve exit code check them.
MIN_SOLUTIONS = {(1, 0): 5, (1, 1): 0, (2, 0): 3, (2, 1): 5}


def solve(
    k: int,
    M: int,
    k_fact: Factorization | None = None,
    with_witness_search: bool = False,
    cache_dir: Path | str | None = None,
) -> list[Solution]:
    """All solutions the applicable constructions produce for (k, M).

    Whenever the Fermat prime F_m divides k, its construction takes the
    minimal witness r whose forms do not divide k, read from a per-process
    list of F_m's witnesses, which an uncached search extends only when
    every listed one is excluded. Failures of individual constructions are
    logged and skipped, never fatal. Results are deduplicated by n (method
    tags merged) and sorted ascending. `cache_dir` is unused: witnesses and
    sequences are kept in memory, never on disk.

    No construction applies to M = 1 with odd k, so that case returns []
    without factoring k; it still raises NotApplicable for k < 1,
    FactoringBoundExceeded above the factoring bound with no k_fact, and
    ValueError for a k_fact that does not validate or match k.
    """
    if M not in (1, 2):
        raise ValueError("M must be 1 or 2")
    if M == 1 and k % 2 and k_fact is None and 1 <= k <= DEFAULT_FACTORING_BOUND:
        return []  # no construction for odd k at M = 1; factoring k would raise nothing
    kf = _k_fact(k, k_fact)
    found: list[Solution] = []

    def attempt(fn, *args):
        try:
            found.append(fn(*args))
        except ConstructionError as exc:
            log.debug("skipping %s for k=%s: %s", getattr(fn, "__name__", fn), k, exc)
        except LimitExhausted as exc:
            log.warning("witness search exhausted for k=%s: %s", k, exc)

    def fermat_with_search(m: int):
        r = _fermat_witness(m, k) if k % FERMAT_PRIMES[m] == 0 else None
        return _fermat(k, m, r, M, kf)

    if M == 1 and k % 2 == 0:
        for m in range(5):
            attempt(fermat_with_search, m)
    elif M == 2 and k % 2 == 1:
        for m in range(5):
            attempt(fermat_with_search, m)
        attempt(_makowski, k, kf)
    elif M == 2:
        attempt(_even_m2_branch, k, kf)
        attempt(_makowski, k, kf)
        attempt(_seq_solution, k, generate_sequence(SequenceVariant.HASANALIZADE), kf)
    if with_witness_search and M == 2:
        found.extend(_scan_divisors(kf, lambda d: _prop_double_prime(k, d + 1, kf)))
        if k % 2 == 0:
            found.extend(_scan_divisors(kf, lambda d: _prop_phi_pair(k, d, kf)))
    return _merge(found)
