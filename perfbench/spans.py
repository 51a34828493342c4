"""Span tracing of the library's public functions, installed from outside.

`Tracer.install()` replaces each traced function with a timing wrapper in
every `totient_forge` module namespace that binds it (the package re-exports
and each `from .x import y`), so calls between modules are caught too. Each
span records its duration; its self time is that duration minus the time of
the traced spans it encloses. Counts are read from arguments and returned
values, never from library internals.

Generators (`primality.iter_primes`) are not wrapped: a wrapper would time
only their creation, so their work is charged to the span that consumes
them. The span stack assumes one thread, the CLI default `--threads 1`.
Spans are aggregated in memory as they close and reported by `metrics()`.
"""

from __future__ import annotations

import importlib
import os
import sys
from collections import defaultdict
from time import perf_counter

TWO_64 = 1 << 64

# (name, unit, better) of every per-layer metric, in report order; the
# claims, cli and trace entries are filled in by run.py
PER_LAYER = (
    ("sieve_enum.sieve_totient.calls", "count", "lower"),
    ("sieve_enum.sieve_totient.self_s", "s", "lower"),
    ("sieve_enum.sieve_totient.values", "count", "lower"),
    ("sieve_enum.sieve_totient.ns_per_value", "ns", "lower"),
    ("sieve_enum.enumerate_solutions.self_s", "s", "lower"),
    ("sieve_enum.enumerate_solutions.sieved_per_checked", "ratio", "lower"),
    ("sieve_enum.solution_count_table.self_s", "s", "lower"),
    ("sequences.generate_sequence.calls", "count", "lower"),
    ("sequences.generate_sequence.self_s.hasanalizade", "s", "lower"),
    ("sequences.generate_sequence.self_s.newbase", "s", "lower"),
    ("sequences.generate_sequence.self_s.newbranch7", "s", "lower"),
    ("sequences.generate_sequence.self_s.newbranch13_23", "s", "lower"),
    ("sequences.validate_sequence.self_s", "s", "lower"),
    ("sequences.cache.generated", "count", "lower"),
    ("sequences.cache.loaded", "count", "higher"),
    ("sequences.cache.memo", "count", "higher"),
    ("search.search_pair_r.calls", "count", "lower"),
    ("search.search_pair_r.self_s", "s", "lower"),
    ("search.search_pair_r.total_s", "s", "lower"),
    ("search.candidates_tested", "count", "lower"),
    ("search.us_per_candidate", "us", "lower"),
    ("search.cache_hits", "count", "higher"),
    ("primality.is_probable_prime.calls", "count", "lower"),
    ("primality.is_probable_prime.self_s", "s", "lower"),
    ("primality.is_probable_prime.calls_above_2_64", "count", "lower"),
    ("primality.is_probable_prime.verdict.prime", "count", "lower"),
    ("primality.is_probable_prime.verdict.probable_prime", "count", "lower"),
    ("primality.is_probable_prime.verdict.composite", "count", "lower"),
    ("primality.presieve.calls", "count", "lower"),
    ("primality.presieve.self_s", "s", "lower"),
    ("primality.presieve.candidates", "count", "lower"),
    ("primality.presieve.survivor_frac", "ratio", "lower"),
    ("arith.factorize.calls", "count", "lower"),
    ("arith.factorize.calls_with_hint", "count", "lower"),
    ("arith.factorize.self_s.hint", "s", "lower"),
    ("arith.factorize.self_s.le1e8", "s", "lower"),
    ("arith.factorize.self_s.le1e12", "s", "lower"),
    ("arith.factorize.self_s.le1e18", "s", "lower"),
    ("constructions.solve.calls", "count", "lower"),
    ("constructions.solve.self_s", "s", "lower"),
    ("constructions.solve.solutions", "count", "higher"),
    ("constructions.verify_solution.calls", "count", "lower"),
    ("constructions.verify_solution.self_s", "s", "lower"),
) + tuple((f"claims.C{i}_s", "s", "lower") for i in range(1, 9)) + (
    ("cli.overhead_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _file_count(root) -> int:
    return sum(len(files) for _, _, files in os.walk(root))


class Tracer:
    def __init__(self):
        self._stack = [0.0]  # enclosed span time, one slot per open span
        self.counts = defaultdict(float)
        self._sequence_keys: set = set()

    # -- span bookkeeping ------------------------------------------------

    def _wrap(self, fn, observe, before=None):
        stack = self._stack

        def traced(*args, **kwargs):
            token = before(args, kwargs) if before is not None else None
            stack.append(0.0)
            start = perf_counter()
            result = None  # stays None when fn raises
            try:
                result = fn(*args, **kwargs)
            finally:
                total = perf_counter() - start
                enclosed = stack.pop()
                stack[-1] += total
                observe(args, kwargs, result, total - enclosed, total, token)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = fn.__name__
        return traced

    def install(self) -> None:
        """Wrap every traced function in every namespace that binds it."""
        importlib.import_module("totient_forge.cli")
        targets = {
            ("sieve_enum", "sieve_totient"): (self._sieve_totient, None),
            ("sieve_enum", "enumerate_solutions"): (self._enumerate, self._enumerate_before),
            ("sieve_enum", "solution_count_table"): (self._self_time("sieve_enum.solution_count_table"), None),
            ("sequences", "generate_sequence"): (self._generate_sequence, self._generate_before),
            ("sequences", "validate_sequence"): (self._self_time("sequences.validate_sequence"), None),
            ("search", "search_pair_r"): (self._search_pair_r, None),
            ("primality", "is_probable_prime"): (self._is_probable_prime, None),
            ("primality", "presieve"): (self._presieve, None),
            ("arith", "factorize"): (self._factorize, None),
            ("constructions", "solve"): (self._solve, None),
            ("constructions", "verify_solution"): (self._self_time("constructions.verify_solution"), None),
        }
        modules = [m for name, m in list(sys.modules.items())
                   if name == "totient_forge" or name.startswith("totient_forge.")]
        for (module_name, fn_name), (observe, before) in targets.items():
            original = getattr(importlib.import_module(f"totient_forge.{module_name}"), fn_name)
            wrapped = self._wrap(original, observe, before)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapped)

    # -- observers: (args, kwargs, result, self_s, total_s, token) --

    def _self_time(self, prefix):
        counts = self.counts

        def observe(args, kwargs, result, self_s, total_s, token):
            counts[prefix + ".calls"] += 1
            counts[prefix + ".self_s"] += self_s

        return observe

    def _sieve_totient(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["sieve_enum.sieve_totient.calls"] += 1
        c["sieve_enum.sieve_totient.self_s"] += self_s
        if result is not None:
            c["sieve_enum.sieve_totient.values"] += result.hi - result.lo

    def _enumerate_before(self, args, kwargs):
        return self.counts["sieve_enum.sieve_totient.values"]

    def _enumerate(self, args, kwargs, result, self_s, total_s, sieved_before):
        c = self.counts
        c["sieve_enum.enumerate_solutions.self_s"] += self_s
        if result is not None:
            c["sieve_enum.enumerate_solutions.sieved"] += (
                c["sieve_enum.sieve_totient.values"] - sieved_before)
            c["sieve_enum.enumerate_solutions.checked"] += result.limit

    def _generate_before(self, args, kwargs):
        variant = _arg(args, kwargs, 0, "variant")
        bound = _arg(args, kwargs, 1, "bound")
        cache_dir = _arg(args, kwargs, 2, "cache_dir")
        key = (variant, bound, cache_dir)
        files_before = None
        if key not in self._sequence_keys and cache_dir is not None:
            self._sequence_keys.add(key)
            files_before = _file_count(cache_dir)
        return key, files_before, self.counts["sequences.validate_sequence.calls"]

    def _generate_sequence(self, args, kwargs, result, self_s, total_s, token):
        # generated: the call added a cache file; loaded: it validated a
        # cached sequence (the load path re-checks every term); memo: neither
        c = self.counts
        c["sequences.generate_sequence.calls"] += 1
        if result is None:
            return
        c[f"sequences.generate_sequence.self_s.{result.variant.value}"] += self_s
        key, files_before, validated_before = token
        if files_before is not None and _file_count(key[2]) > files_before:
            c["sequences.cache.generated"] += 1
        elif c["sequences.validate_sequence.calls"] > validated_before:
            c["sequences.cache.loaded"] += 1
        else:
            c["sequences.cache.memo"] += 1

    def _search_pair_r(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["search.search_pair_r.calls"] += 1
        c["search.search_pair_r.self_s"] += self_s
        c["search.search_pair_r.total_s"] += total_s
        if result is None:
            return
        if result.candidates_tested == 0:  # a real scan tests at least the hit
            c["search.cache_hits"] += 1
        else:
            c["search.candidates_tested"] += result.candidates_tested
            c["search.scan_s"] += total_s

    def _is_probable_prime(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["primality.is_probable_prime.calls"] += 1
        c["primality.is_probable_prime.self_s"] += self_s
        if result is None:
            return
        if result.value >= TWO_64:
            c["primality.is_probable_prime.calls_above_2_64"] += 1
        c[f"primality.is_probable_prime.verdict.{result.verdict.name.lower()}"] += 1

    def _presieve(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["primality.presieve.calls"] += 1
        c["primality.presieve.self_s"] += self_s
        if result is not None:
            c["primality.presieve.candidates"] += len(result)
            c["primality.presieve.survivors"] += result.count(1)

    def _factorize(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["arith.factorize.calls"] += 1
        if _arg(args, kwargs, 1, "hint") is not None:
            c["arith.factorize.calls_with_hint"] += 1
            input_class = "hint"
        else:
            n = _arg(args, kwargs, 0, "n")
            input_class = "le1e8" if n <= 10**8 else "le1e12" if n <= 10**12 else "le1e18"
        c[f"arith.factorize.self_s.{input_class}"] += self_s

    def _solve(self, args, kwargs, result, self_s, total_s, token):
        c = self.counts
        c["constructions.solve.calls"] += 1
        c["constructions.solve.self_s"] += self_s
        if result is not None:
            c["constructions.solve.solutions"] += len(result)

    # -- report ------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-layer values of the library metrics in PER_LAYER (ratios 0 when undefined)."""
        c = self.counts

        def ratio(num, den, scale=1.0):
            return c[num] * scale / c[den] if c[den] else 0.0

        derived = {
            "sieve_enum.sieve_totient.ns_per_value": ratio(
                "sieve_enum.sieve_totient.self_s", "sieve_enum.sieve_totient.values", 1e9),
            "sieve_enum.enumerate_solutions.sieved_per_checked": ratio(
                "sieve_enum.enumerate_solutions.sieved", "sieve_enum.enumerate_solutions.checked"),
            "search.us_per_candidate": ratio("search.scan_s", "search.candidates_tested", 1e6),
            "primality.presieve.survivor_frac": ratio(
                "primality.presieve.survivors", "primality.presieve.candidates"),
        }
        return {name: derived.get(name, c[name]) for name, _, _ in PER_LAYER
                if not name.startswith(("claims.", "cli.", "trace."))}
