"""Re-scan the small-oracle workload's seeded instances against brute force.

Every operation of ``SmallOracle(seed)`` (``bench/workloads.py``, with the
instances of ``bench/gen.py``) is solved by ``optimize`` and searched by
``best_assignment``: 480 a seed, 19,200 over the default seeds 100-139.  For
each objective the scan prints:

* ``solves``: the operations;
* ``incumbent``: results with an incumbent, for which the local search
  found a schedulable deployment;
* ``re-solves``: results with ``resolved_without_presolve``;
* ``refuted``: first solves that proved an optimum above the local search's
  incumbent, each of which ``optimize`` re-solves;
* ``presolve``: the presolve faults the benchmark logs without counting them
  (``checks.presolve_fault``);
* ``disagree``: operations ``checks.check_oracle`` finds wrong, or failed
  (a status other than ``optimal``, or ``infeasible`` where brute force finds
  a deployment);
* ``optimize s``: the sum of the results' ``runtime_s``, so a change to how
  the solves are bounded can be timed over the scan.

Each presolve fault and disagreement is also printed on standard error.  The
scan reads the benchmark's modules and edits none of them.  Run it from the
root of a checkout, optionally with the first and last seed:

    python3 tools/rescan_oracle.py [FIRST LAST]
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from checks import Failure, check_oracle, presolve_fault  # noqa: E402
from workloads import SmallOracle  # noqa: E402

from hetsched.analysis import OBJECTIVES  # noqa: E402
from hetsched.bruteforce import best_assignment  # noqa: E402
from hetsched.milp import OPTIMAL, ScipyBackend, optimize  # noqa: E402
from hetsched.milp.decode import claim_limit  # noqa: E402

COLUMNS = ("solves", "incumbent", "re-solves", "refuted", "presolve", "disagree", "optimize s")


class _FirstSolve(ScipyBackend):
    """HiGHS, keeping the answer of the first solve of each ``optimize``."""

    def __init__(self):
        self.first = None

    def solve(self, model, **options):
        res = super().solve(model, **options)
        if self.first is None:
            self.first = res
        return res


def _refuted(first, incumbent) -> bool:
    if first.status != OPTIMAL or incumbent is None:
        return False
    return first.objective > claim_limit(float(incumbent))


def scan(seeds) -> dict[str, Counter]:
    counts = {objective: Counter() for objective in OBJECTIVES}
    for seed in seeds:
        for k, (inst, policy, objective) in enumerate(SmallOracle(seed).ops):
            name = f"SmallOracle({seed}).ops[{k}] {policy} {objective}"
            reference = best_assignment(inst, policy, objective).objective
            backend = _FirstSolve()
            result = optimize(inst, policy, objective, backend=backend)
            row = counts[objective]
            row["solves"] += 1
            row["incumbent"] += result.incumbent is not None
            row["optimize s"] += result.runtime_s
            row["re-solves"] += result.resolved_without_presolve
            row["refuted"] += _refuted(backend.first, result.incumbent)
            fault = presolve_fault(result, reference)
            if fault:
                row["presolve"] += 1
                print(f"{name}: presolve fault: {fault}", file=sys.stderr)
            try:
                problems = check_oracle(result, reference)
            except Failure as failure:
                problems = [str(failure)]
            if problems:
                row["disagree"] += 1
                print(f"{name}: {problems[0]}", file=sys.stderr)
    return counts


def _line(label: str, row: Counter) -> str:
    cells = (f"{row[c]:.1f}" if isinstance(row[c], float) else str(row[c]) for c in COLUMNS)
    return f"{label:<12}" + "".join(f"{cell:>11}" for cell in cells)


def main(argv: list[str]) -> int:
    first, last = (int(a) for a in argv) if argv else (100, 139)
    start = time.perf_counter()
    counts = scan(range(first, last + 1))
    print(f"SmallOracle seeds {first}-{last}, {time.perf_counter() - start:.0f} s")
    print(f"{'objective':<12}" + "".join(f"{c:>11}" for c in COLUMNS))
    total = Counter()
    for objective, row in counts.items():
        total.update(row)
        print(_line(objective, row))
    print(_line("all", total))
    return 1 if total["disagree"] else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
