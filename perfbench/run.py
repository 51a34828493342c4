"""totient-forge benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from its src/.
Every workload is a closed loop with one caller in one process, at the CLI
default --threads 1:

  claims-cold     `totient-forge verify-claims --level extreme` against an
                  empty private cache: sequence generation and the 10^100
                  witness searches all run and write the cache.
  claims-warm     the same command against a cache filled once in set-up:
                  sequences and witnesses are read back and re-validated.
  solve-sweep     solve(k, M, with_witness_search=True), M in {1, 2}, for every
                  k <= 2000 and a pinned pool of k from [10^6, 10^9) and
                  [10^12, 10^18), in seeded order.
  witness-search  search_pair_r on a pinned pool of tasks a = 2^(2^m),
                  b = a + 1, even r from 10^D + offset, in seeded order, each
                  pass with an empty cache.

A pass is one CLI process (claims-*), one sweep over the seed's (k, M) list,
or one search of every pool task. The run repeats passes until the next one
would end after --seconds (at least one pass). An operation is one claim,
one solve call or one search; every output is checked against the pinned
references in perfbench/reference/ and independently with sympy.

End-to-end metrics (--trace 0):
  wall_s       time of one pass: the fastest CLI process (claims-*), or the
               sum over the pass's operations of each one's fastest time
               across the run's passes (solve-sweep, witness-search)
  setup_s      median set-up time: a fresh interpreter importing the package
               and preparing the inputs, five times (claims-warm: the one
               cold CLI run that fills its cache)
  peak_rss_mb  peak resident memory of the measured processes
  ops_per_s    operations of a pass divided by wall_s
  op_p50_ms    median over the operations of their fastest times
               (claims-*: the latency of the CLI process, wall_s)
  op_p99_ms    99th percentile (nearest rank) of the same; a solve-sweep pass
               has 5300 operations, a witness-search pass 20
Passes repeat the same work, so what differs between them is the load that
other tenants put on the shared host; best-of-passes times are much less
affected by that load than medians or means (worker.measure).
With --trace 1 the run makes one plain and one traced pass and reports the
per-layer metrics listed in spans.PER_LAYER (spans.py explains the tracing).

The last stdout line is the JSON result: correct, attempted, failed, metrics.
Exit code 0 once a result is printed, 1 when a pass could not be run, 2 when
the checkout holds no library source.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from typing import NamedTuple

import inputs
from spans import PER_LAYER

ROOT = Path.cwd()
SRC = ROOT / "src"
HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
TIME_LIMIT_S = 170
SETUP_ROUNDS = 5
CLAIMS = tuple(f"C{i}" for i in range(1, 9))

END_TO_END = (
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p99_ms", "ms"),
)


class BenchError(RuntimeError):
    pass


class Child(NamedTuple):
    code: int
    wall: float
    rss_mb: float
    stdout: str


class Context:
    def __init__(self, args, work: Path):
        self.args = args
        self.work = work
        self.deadline = time.monotonic() + TIME_LIMIT_S
        self.serial = 0  # numbers the files and directories of this run
        self.env = dict(os.environ)
        self.env.pop("TOTIENT_FORGE_CACHE", None)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)

    def fresh_dir(self, stem: str) -> Path:
        self.serial += 1
        path = self.work / f"{stem}{self.serial}"
        path.mkdir()
        return path

    def run(self, cmd: list[str], any_exit: bool = False) -> Child:
        """Run one child to completion; its wall time and peak RSS come from wait4.

        Any exit code but 0 is an error unless `any_exit` is set."""
        self.serial += 1
        out_path = self.work / f"child{self.serial}.out"
        err_path = self.work / f"child{self.serial}.err"
        reaped = {}
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *cmd], stdout=out, stderr=err,
                                    env=self.env, cwd=ROOT)

            def reap():
                _, status, usage = os.wait4(proc.pid, 0)
                reaped.update(wall=time.perf_counter() - start, status=status, usage=usage)

            reaper = threading.Thread(target=reap, daemon=True)
            reaper.start()
            try:
                reaper.join(max(1.0, self.deadline - time.monotonic()))
            finally:
                # timed out, or a signal interrupted the join; Thread.is_alive()
                # is unreliable after that, so test what the reaper recorded
                timed_out = "usage" not in reaped
                if timed_out:
                    proc.kill()
                    while "usage" not in reaped:
                        time.sleep(0.01)
        if timed_out:
            raise BenchError(f"timed out: {' '.join(cmd)}")
        proc.returncode = os.waitstatus_to_exitcode(reaped["status"])
        if proc.returncode and not any_exit:
            tail = err_path.read_text(errors="replace")[-2000:]
            raise BenchError(f"exit {proc.returncode}: {' '.join(cmd)}\n{tail}")
        return Child(proc.returncode, reaped["wall"], reaped["usage"].ru_maxrss / 1024,
                     out_path.read_text())


def last_json(child: Child) -> dict:
    try:
        return json.loads(child.stdout.strip().splitlines()[-1])
    except (IndexError, ValueError) as exc:
        raise BenchError(f"no JSON summary from a worker: {exc}") from exc


# -- claims-cold / claims-warm -------------------------------------------------


def check_claims(exit_code: int, csv_path: Path) -> tuple[int, dict[str, float]]:
    """(failed claims, runtime_s by claim) of one verify-claims run."""
    reference = inputs.load_reference("claims.json")
    if exit_code != reference["exit_code"] or not csv_path.exists():
        return len(CLAIMS), {}
    with open(csv_path, encoding="utf-8", newline="") as handle:
        rows = {row["claim"]: row for row in csv.DictReader(handle)}
    failed = sum(
        (rows.get(cid, {}).get("status"), rows.get(cid, {}).get("evidence"))
        != (ref["status"], ref["evidence"])
        for cid, ref in reference["claims"].items()
    )
    return failed, {cid: float(row["runtime_s"]) for cid, row in rows.items()}


def verify_claims(ctx: Context, cache_dir: Path) -> tuple[Child, int, dict[str, float]]:
    csv_path = ctx.work / f"claims{ctx.serial}.csv"
    # the exit code is an output here: check_claims compares it with the pinned one
    child = ctx.run(["-m", "totient_forge.cli", "--cache-dir", str(cache_dir),
                     "verify-claims", "--level", "extreme", "--csv", str(csv_path)],
                    any_exit=True)
    return (child, *check_claims(child.code, csv_path))


def claims_workload(ctx: Context, warm: bool) -> dict:
    attempted = failed = 0
    if warm:
        warm_cache = ctx.fresh_dir("cache")
        fill, failed, _ = verify_claims(ctx, warm_cache)
        attempted = len(CLAIMS)
        setup = [fill.wall]
    else:
        setup = [ctx.run(["-c", "import totient_forge.cli"]).wall for _ in range(SETUP_ROUNDS)]

    def cache_dir() -> Path:
        return warm_cache if warm else ctx.fresh_dir("cache")

    result = {"setup": setup}
    if ctx.args.trace:
        plain, bad, runtimes = verify_claims(ctx, cache_dir())
        csv_path = ctx.work / "traced.csv"
        traced = ctx.run([str(WORKER), "claims", "--cache-dir", str(cache_dir()),
                          "--csv", str(csv_path)])
        summary = last_json(traced)
        traced_bad, _ = check_claims(summary["exit_code"], csv_path)
        layers = summary["layers"]
        layers.update({f"claims.{cid}_s": runtimes.get(cid, 0.0) for cid in CLAIMS})
        layers["cli.overhead_s"] = plain.wall - sum(runtimes.values())
        layers["trace.overhead_s"] = traced.wall - plain.wall
        return result | {"attempted": attempted + 2 * len(CLAIMS),
                         "failed": failed + bad + traced_bad, "layers": layers}
    walls = []
    rss = 0.0
    while True:
        child, bad, _ = verify_claims(ctx, cache_dir())
        walls.append(child.wall)
        rss = max(rss, child.rss_mb)
        attempted += len(CLAIMS)
        failed += bad
        if sum(walls) + statistics.median(walls) > ctx.args.seconds:
            break
    # as in worker.measure, a pass is timed by its fastest repetition; the
    # latency unit here is the CLI process, one per pass
    wall = min(walls)
    return result | {
        "attempted": attempted, "failed": failed, "passes": len(walls), "peak_rss_mb": rss,
        "wall_s": wall, "ops_per_s": len(CLAIMS) / wall,
        "op_p50_ms": wall * 1e3, "op_p99_ms": wall * 1e3, "ops_per_pass": len(CLAIMS),
    }


# -- solve-sweep / witness-search ------------------------------------------------


def in_process_workload(ctx: Context, name: str) -> dict:
    seed = str(ctx.args.seed)
    setup = [
        ctx.run([str(WORKER), "setup", name, "--seed", seed,
                 "--cache-dir", str(ctx.fresh_dir("setup"))]).wall
        for _ in range(SETUP_ROUNDS)
    ]
    child = ctx.run([str(WORKER), "run", name, "--seed", seed,
                     "--seconds", str(ctx.args.seconds), "--trace", str(ctx.args.trace),
                     "--cache-dir", str(ctx.fresh_dir("cache"))])
    summary = last_json(child)
    result = {"setup": setup, "peak_rss_mb": child.rss_mb} | summary
    if ctx.args.trace:
        layers = summary["layers"]
        layers.update({f"claims.{cid}_s": 0.0 for cid in CLAIMS})
        layers["cli.overhead_s"] = 0.0
        layers["trace.overhead_s"] = summary["traced_wall"] - summary["plain_wall"]
    return result


WORKLOADS = {
    "claims-cold": lambda ctx: claims_workload(ctx, warm=False),
    "claims-warm": lambda ctx: claims_workload(ctx, warm=True),
    "solve-sweep": lambda ctx: in_process_workload(ctx, "solve-sweep"),
    "witness-search": lambda ctx: in_process_workload(ctx, "witness-search"),
}


# -- report ----------------------------------------------------------------------


def environment() -> dict:
    import numpy

    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, check=False).stdout.strip() or commit
        except OSError:
            pass
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "git_commit": commit,
        "src_sha256": digest.hexdigest()[:16],
    }


def metrics_of(result: dict, trace: bool) -> dict:
    if trace:
        layers = result["layers"]
        return {name: {"value": int(layers[name]) if unit == "count" else layers[name],
                       "unit": unit}
                for name, unit, _ in PER_LAYER}
    values = result | {"setup_s": statistics.median(result["setup"])}
    return {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # stopping this process unwinds through Context.run, which kills its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (SRC / "totient_forge" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'totient_forge'}; run from a checkout root",
              file=sys.stderr)
        return 2

    work = ROOT / ".perfbench" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = WORKLOADS[args.workload](Context(args, work))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if not any(work.parent.iterdir()):
            work.parent.rmdir()

    metrics = metrics_of(result, bool(args.trace))
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}")
    print("environment " + json.dumps(environment(), sort_keys=True))
    if not args.trace:
        print(f"{result['passes']} passes of {result['ops_per_pass']} operations, "
              f"{len(result['setup'])} set-up rounds")
    for name, metric in metrics.items():
        print(f"  {name:56s} {metric['value']:.6g} {metric['unit']}")
    print(f"error_rate {failed / attempted:.6g} ({failed} of {attempted} operations failed)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
