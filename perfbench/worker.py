"""In-process side of the benchmark: one fresh interpreter per call.

    worker.py setup <workload> --seed N --cache-dir DIR
    worker.py run <workload> --seed N --seconds S --trace 0|1 --cache-dir DIR
    worker.py claims --cache-dir DIR --csv PATH

`setup` performs one set-up round and exits. `run` sets up, measures passes
over the workload's inputs for about S seconds (with --trace 1: one plain and
one traced pass) and prints a JSON summary as its last stdout line. `claims`
runs the verify-claims CLI entry point in-process with span tracing on.
Launched by run.py with the checkout's src/ on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import random
import statistics
import sys
from pathlib import Path
from time import perf_counter

import inputs
import totient_forge as tf
from spans import Tracer
from totient_forge import cli
from totient_forge.sequences import SequenceVariant, generate_sequence

# Calls go through the package namespaces, where Tracer.install() puts its
# wrappers. The sequences solve() reads: every variant at its dispatch bound,
# and the Hasanalizade sequence at the bound of its fallback construction.
_SOLVE_SEQUENCES = tuple((v, 10**4) for v in SequenceVariant) + (
    (SequenceVariant.HASANALIZADE, 2 * 10**5),
)


class IndependentCheck:
    """Re-checks solver output with sympy only; caches verdicts by value."""

    def __init__(self):
        import sympy  # imported here so that set-up rounds do not pay for it

        self._isprime = sympy.isprime
        self._verdicts: dict[int, bool] = {}

    def is_prime(self, p: int) -> bool:
        if p not in self._verdicts:
            self._verdicts[p] = bool(self._isprime(p))
        return self._verdicts[p]

    def _totient(self, value: int, fact) -> int | None:
        if fact is None:
            return None
        product, phi = 1, 1
        for p, e in fact.factors:
            if e < 1 or not self.is_prime(p):
                return None
            product *= p**e
            phi *= p ** (e - 1) * (p - 1)
        return phi if product == value else None

    def solutions_ok(self, k: int, M: int, solutions) -> bool:
        for s in solutions:
            if s.k != k or s.M != M:
                return False
            phi_n = self._totient(s.n, s.n_factorization)
            phi_nk = self._totient(s.n + k, s.nk_factorization)
            if phi_n is None or phi_nk is None or phi_nk != M * phi_n:
                return False
        return True


# -- solve-sweep -------------------------------------------------------------


class SolveSweep:
    def __init__(self, seed: int, cache_dir: Path):
        self.cache_dir = cache_dir
        self.calls = [(k, M) for k in inputs.solve_ks(seed) for M in inputs.SOLVE_M_VALUES]
        for variant, bound in _SOLVE_SEQUENCES:
            generate_sequence(variant, bound, cache_dir)
        self.pinned = inputs.load_reference("solve_fixed.json")
        self.first: list[str] | None = None

    def run_pass(self) -> tuple[list, list[float]]:
        outputs, latencies = [], []
        for k, M in self.calls:
            t0 = perf_counter()
            try:
                result = tf.solve(k, M, with_witness_search=True, cache_dir=self.cache_dir)
            except Exception as exc:  # a raising call is a failed operation
                result = exc
            latencies.append(perf_counter() - t0)
            outputs.append(result)
        return outputs, latencies

    def failures(self, outputs) -> int:
        """Failed calls of one pass: each output against the pinned digest
        (C6 range), the independent check (first pass) or the first pass."""
        digests = [None if isinstance(out, Exception) else inputs.solution_digest(out)
                   for out in outputs]
        if self.first is None:
            check = IndependentCheck()
            ok = [
                digest is not None
                and check.solutions_ok(k, M, out)
                and digest == self.pinned.get(f"{k}/{M}", digest)
                for (k, M), out, digest in zip(self.calls, outputs, digests)
            ]
            self.first = [d if good else None for d, good in zip(digests, ok)]
        else:
            ok = [d is not None and d == f for d, f in zip(digests, self.first)]
        return ok.count(False)


# -- witness-search ----------------------------------------------------------


class WitnessSearch:
    def __init__(self, seed: int, cache_dir: Path):
        self.cache_dir = cache_dir
        pool = inputs.load_reference("witness_pool.json")
        random.Random(seed).shuffle(pool)
        self.tasks = [(1 << (1 << row["m"]), int(row["start"]), int(row["r"])) for row in pool]
        self.checker: IndependentCheck | None = None
        self.passes = 0

    def run_pass(self) -> tuple[list, list[float]]:
        # each pass gets an empty cache directory, so no search is a cache hit
        self.passes += 1
        cache_dir = self.cache_dir / f"pass{self.passes}"
        outputs, latencies = [], []
        for a, start, _ in self.tasks:
            task = tf.PairSearchTask(a=a, b=a + 1, start=start, parity=tf.Parity.EVEN_ONLY)
            t0 = perf_counter()
            try:
                result = tf.search_pair_r(task, cache_dir=cache_dir)
            except Exception as exc:
                result = exc
            latencies.append(perf_counter() - t0)
            outputs.append(result)
        return outputs, latencies

    def failures(self, outputs) -> int:
        """Failed searches of one pass: r against the pinned r, both linear
        forms against sympy."""
        if self.checker is None:
            self.checker = IndependentCheck()
        bad = 0
        for (a, _, r), out in zip(self.tasks, outputs):
            bad += isinstance(out, Exception) or not (
                out.r == r
                and out.p1 == a * r + 1
                and out.p2 == (a + 1) * r + 1
                and self.checker.is_prime(out.p1)
                and self.checker.is_prime(out.p2)
            )
        return bad


WORKLOADS = {"solve-sweep": SolveSweep, "witness-search": WitnessSearch}


def measure(workload, seconds: float) -> dict:
    """Passes until the next one would end past `seconds` (at least one).

    Every pass runs the same operations on the same inputs, so an operation's
    time differs between passes only by the load that other tenants put on
    the shared host. Each operation is therefore timed by its fastest pass,
    and the metrics are taken over these best times: wall_s is their sum,
    op_p50_ms and op_p99_ms their percentiles across the operations.
    """
    walls, passes = [], []
    attempted = failed = 0
    while True:
        t0 = perf_counter()
        outputs, latencies = workload.run_pass()
        walls.append(perf_counter() - t0)
        passes.append(latencies)
        attempted += len(outputs)
        failed += workload.failures(outputs)
        if sum(walls) + statistics.median(walls) > seconds:
            break
    best = [min(times) for times in zip(*passes)]
    return {
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "wall_s": sum(best),
        "ops_per_s": len(best) / sum(best),
        "op_p50_ms": inputs.percentile(best, 50) * 1e3,
        "op_p99_ms": inputs.percentile(best, 99) * 1e3,
        "ops_per_pass": len(best),
    }


def measure_traced(workload) -> dict:
    """One plain pass, then one traced pass of the same inputs."""
    t0 = perf_counter()
    outputs, _ = workload.run_pass()
    plain = perf_counter() - t0
    failed = workload.failures(outputs)
    tracer = Tracer()
    tracer.install()
    t0 = perf_counter()
    outputs, _ = workload.run_pass()
    traced = perf_counter() - t0
    failed += workload.failures(outputs)
    return {
        "plain_wall": plain,
        "traced_wall": traced,
        "attempted": 2 * len(outputs),
        "failed": failed,
        "layers": tracer.metrics(),
    }


def traced_claims(cache_dir: str, csv_path: str) -> dict:
    tracer = Tracer()
    tracer.install()
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(["--cache-dir", cache_dir, "verify-claims", "--level", "extreme",
                         "--csv", csv_path])
    return {"exit_code": code, "layers": tracer.metrics()}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "claims"))
    parser.add_argument("workload", nargs="?", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--csv")
    args = parser.parse_args()
    if args.mode == "claims":
        summary = traced_claims(args.cache_dir, args.csv)
    else:
        workload = WORKLOADS[args.workload](args.seed, Path(args.cache_dir))
        if args.mode == "setup":
            return 0
        summary = measure_traced(workload) if args.trace else measure(workload, args.seconds)
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
