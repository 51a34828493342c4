"""totient-forge: constructions, witness searches and brute-force enumeration
for the equations totient(n+k) = totient(n) and totient(n+k) = 2*totient(n)."""

from .arith import (
    DEFAULT_FACTORING_BOUND,
    FactoringBoundExceeded,
    Factorization,
    factorize,
    star_divides,
    totient,
    v2,
)
from .constructions import (
    AllTermsDivideK,
    BranchHypothesisUnmet,
    CannotVerify,
    ConstructionError,
    InvalidWitness,
    Method,
    MissingWitness,
    NotApplicable,
    Solution,
    construct_fermat_m1,
    construct_fermat_m2,
    construct_makowski,
    construct_prop_double_prime,
    construct_prop_phi_pair,
    construct_seq_solution,
    serialize_solution,
    solve,
    solve_even_m2,
    verify_solution,
)
from .primality import (
    DETERMINISTIC_LIMIT,
    PrimalityVerdict,
    Verdict,
    is_probable_prime,
    presieve,
)
from .search import (
    LimitExhausted,
    PairSearchResult,
    PairSearchTask,
    Parity,
    search_pair_r,
    verify_r_table,
)
from .sequences import (
    PrimeSequence,
    SequenceVariant,
    generate_sequence,
    sequence_product_magnitude,
)
from .sieve_enum import (
    EnumerationReport,
    enumerate_solutions,
    sieve_totient,
    solution_count_table,
)

__version__ = "0.1.0"
