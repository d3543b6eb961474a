"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload small-oracle --seed 1 --seconds 20 --trace 0

The program under test is the ``hetsched`` package in the checkout's ``src``
directory; nothing needs installing.  A run sets the workload up, then repeats
its round of operations, one process and one thread, until one more round would
end past ``--seconds`` (always at least one round).  Each metric is the median
over the rounds.  With ``--trace 0`` it reports the end-to-end metrics, timed
around the package's public routes; with ``--trace 1`` it first runs one
untraced round, then traced rounds, and reports the per-layer metrics and how
much the tracing slowed a round.  The last line of standard output is the
result; everything else goes to standard error.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"

# (name, unit).  Only metrics that take seconds on every workload carry a
# bound: the time of one route on a workload that barely uses it (10 ms of
# analysis on waters-optimize) swings by a quarter from run to run on a shared
# machine, so the route totals are reported per layer instead.
END_TO_END = [
    ("setup_s", "s"),
    ("wall_s", "s"),
]
PER_LAYER = [
    ("optimize.s", "s"),
    ("search.s", "s"),
    ("analyze.s", "s"),
    ("simulate.s", "s"),
    ("build.s", "s"),
    ("build.columns", "count"),
    ("build.binaries", "count"),
    ("build.rows", "count"),
    ("build.nonzeros", "count"),
    ("assemble.s", "s"),
    ("highs.s", "s"),
    ("highs.nodes", "count"),
    ("highs.calls", "count"),
    ("decode.s", "s"),
    ("verify.s", "s"),
    ("optimize.rr.s", "s"),
    ("optimize.npfp.s", "s"),
    ("optimize.nocontention.s", "s"),
    ("optimize.minmax-lat.s", "s"),
    ("optimize.minsum-lat.s", "s"),
    ("optimize.minmax-rt.s", "s"),
    ("optimize.minsum-rt.s", "s"),
    ("analyze.exact.s", "s"),
    ("analyze.conservative.s", "s"),
    ("analyze.fixed-point.s", "s"),
    ("analyze.calls", "count"),
    ("search.analyze.s", "s"),
    ("search.enumerate.s", "s"),
    ("search.candidates", "count"),
    ("search.feasible", "count"),
    ("search.feasible_ratio", "ratio"),
    ("simulate.events", "count"),
    ("simulate.events_per_s", "1/s"),
    ("validate_trace.s", "s"),
    ("trace.slowdown", "ratio"),
]
SETUP_SAMPLES = 5  # this process and four fresh interpreters


def set_up(workload: str, seed: int):
    """Import the package and make the workload's inputs; return both timed."""
    start = time.perf_counter()
    import scipy.optimize  # noqa: F401  (the first solve would import it lazily)

    from workloads import WORKLOADS

    if workload not in WORKLOADS:
        raise SystemExit(f"bench: unknown workload {workload!r}; pick one of {sorted(WORKLOADS)}")
    instance = WORKLOADS[workload](seed)
    return time.perf_counter() - start, instance


def time_setups(workload: str, seed: int, first: float) -> float:
    """Median set-up time over this process and fresh interpreters."""
    samples = [first]
    cmd = [sys.executable, str(Path(__file__)), "--workload", workload, "--seed", str(seed)]
    for _ in range(SETUP_SAMPLES - 1):
        out = subprocess.run(
            cmd + ["--setup-only"], capture_output=True, text=True, timeout=120, check=True
        )
        samples.append(float(out.stdout.split()[-1]))
    return statistics.median(samples)


def layer_metrics(rnd: dict) -> dict:
    """Per-layer values of one traced round, including the derived ones."""
    values = dict(rnd)
    values["assemble.s"] = rnd["backend.s"] - rnd["highs.s"]
    values["search.enumerate.s"] = rnd["search.s"] - rnd["search.analyze.s"]
    values["search.feasible_ratio"] = rnd["search.feasible"] / rnd["search.candidates"]
    values["simulate.events_per_s"] = rnd["simulate.events"] / rnd["simulate.s"]
    return values


def measure(instance, seconds: float, trace: bool) -> tuple:
    """Run rounds; return the ledger and one dict of metric values per round."""
    from checks import Ledger
    from timing import Meter, Tracer

    meter, ledger = Meter(), Ledger()

    def one_round() -> float:
        meter.start_round()
        start = time.perf_counter()
        instance.run_round(meter, ledger)
        elapsed = time.perf_counter() - start
        meter.add("wall_s", elapsed)
        return elapsed

    def repeat(begin: float) -> None:
        while True:
            last = one_round()
            if time.perf_counter() - begin + last > seconds:
                return

    begin = time.perf_counter()
    if not trace:
        repeat(begin)
        return ledger, meter.rounds
    untraced = one_round()
    with Tracer(meter):
        repeat(begin)
    traced = [layer_metrics(r) for r in meter.rounds[1:]]
    for r in traced:
        r["trace.slowdown"] = r["wall_s"] / untraced
    return ledger, traced


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time the set-up alone and print the seconds (used to time fresh set-ups)",
    )
    args = parser.parse_args(argv)

    if not (SRC / "hetsched" / "__init__.py").is_file():
        print(f"bench: no hetsched package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    # HiGHS writes to file descriptor 1; keep standard output for the result.
    sys.stdout.flush()
    result_fd = os.dup(1)
    os.dup2(2, 1)
    try:
        first, instance = set_up(args.workload, args.seed)
        if args.setup_only:
            line = repr(first)
        else:
            setup_s = time_setups(args.workload, args.seed, first)
            ledger, rounds = measure(instance, args.seconds, bool(args.trace))
            table = PER_LAYER if args.trace else END_TO_END
            for r in rounds:
                r["setup_s"] = setup_s
            metrics = {
                name: {"value": statistics.median(r[name] for r in rounds), "unit": unit}
                for name, unit in table
            }
            line = json.dumps(
                {
                    "correct": ledger.wrong == 0,
                    "attempted": ledger.attempted,
                    "failed": ledger.failed,
                    "metrics": metrics,
                }
            )
            print(f"[bench] {len(rounds)} rounds", file=sys.stderr)
    finally:
        sys.stdout.flush()
        os.dup2(result_fd, 1)
        os.close(result_fd)
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
