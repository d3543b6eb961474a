"""Checks on the program's answers, and the ledger that counts operations.

Each check takes plain values that the workloads obtained from the program
and returns a list of problems; an empty list means the answer is right.  A
check never calls the program itself, so the test of the checks can hand it a
planted wrong answer.

Two kinds of failed operation are told apart.  A *wrong answer* (a check
returned problems) makes the run's ``correct`` false.  A *failure* (the
program raised, or the solver ended in a status other than ``optimal``, or
``infeasible`` where brute force agrees) is counted as failed but says nothing
about the answers that did come back, so ``correct`` stays true.
"""

from __future__ import annotations

import sys
import traceback
from fractions import Fraction

from hetsched.analysis import CONSERVATIVE, EXACT, FIXED_POINT

FLOAT_TOL = 1e-6  # the solver's float objective against the exact value
MAX_LOGGED = 20  # failed operations described on standard error per run


class Failure(Exception):
    """An operation that produced no answer to check."""


def _close(solver_value: float | None, exact: Fraction) -> bool:
    if solver_value is None:
        return False
    return abs(solver_value - float(exact)) <= FLOAT_TOL * max(1.0, abs(float(exact)))


def require_optimal(result) -> None:
    """Raise :class:`Failure` unless the solver proved optimality."""
    if result.status != "optimal":
        raise Failure(f"solver status {result.status!r}: {result.message}")


def check_solve(result, reanalyzed: Fraction | None) -> list[str]:
    """An optimal ``optimize`` result against the benchmark's own re-analysis.

    ``reanalyzed`` is the objective of ``result.assignment`` under the
    conservative analysis, computed by the caller.
    """
    problems = []
    if not result.verified:
        problems.append(f"optimum not verified: {result.message}")
    if reanalyzed is None:
        problems.append("optimal deployment is unschedulable on re-analysis")
    elif result.objective != reanalyzed:
        problems.append(f"objective {result.objective} but re-analysis gives {reanalyzed}")
    elif not _close(result.solver_objective, reanalyzed):
        problems.append(
            f"solver objective {result.solver_objective} is not within {FLOAT_TOL} of {reanalyzed}"
        )
    return problems


def check_oracle(result, reference: Fraction | None) -> list[str]:
    """An ``optimize`` result against the brute-force optimum ``reference``."""
    if reference is None:
        if result.status == "infeasible":
            return []
        if result.status == "optimal":
            return [f"optimize found {result.objective}, brute force finds no deployment"]
        raise Failure(f"solver status {result.status!r}: {result.message}")
    if result.status == "infeasible":
        return [f"optimize claims infeasible, brute force finds {reference}"]
    require_optimal(result)
    if result.objective != reference:
        return [f"optimize objective {result.objective} but brute force finds {reference}"]
    if not _close(result.solver_objective, reference):
        return [f"solver objective {result.solver_objective} is not within {FLOAT_TOL} of {reference}"]
    return []


def presolve_fault(result, reference: Fraction | None) -> str | None:
    """Describe ``result`` if HiGHS cut off the optimum, else ``None``.

    The solver proved a bound worse than the brute-force optimum
    ``reference``: it answered ``infeasible``, or ``optimal`` with a float
    objective above ``reference``.  The deployment it returns may still be
    optimal.  On seeded small instances this came from HiGHS's presolve: each
    case seen solves right with ``presolve=False`` (see the FOUND line in
    CHANGES.md).
    """
    if reference is None:
        return None
    if result.status == "infeasible":
        return f"optimize claims infeasible, brute force finds {reference}"
    if (
        result.status == "optimal"
        and result.solver_objective is not None
        and result.solver_objective > float(reference)
        and not _close(result.solver_objective, reference)
    ):
        return (
            f"solver objective {result.solver_objective} above the optimum {reference}"
            f" (its deployment: {result.objective})"
        )
    return None


def check_no_worse(value: Fraction | None, reference: Fraction | None, what: str) -> list[str]:
    """``value`` is a minimum that must not exceed ``reference``."""
    if reference is None:
        return []
    if value is None or value > reference:
        return [f"{what}: {value} is worse than {reference}"]
    return []


def check_mode_order(reports: dict) -> list[str]:
    """Conservative >= exact >= fixed-point wherever both bounds are finite.

    ``reports`` maps each analysis mode to its report of one deployment, and
    a deployment schedulable in one mode must be schedulable in every less
    pessimistic mode.  A finite conservative bound beside an unbounded exact
    one is no fault: the conservative jitters assume that higher-priority
    tasks meet their deadlines, the exact ones take their computed bounds.
    """
    problems = []
    order = (CONSERVATIVE, EXACT, FIXED_POINT)
    for upper_mode, lower_mode in zip(order, order[1:]):
        upper, lower = reports[upper_mode], reports[lower_mode]
        lower_wcrt = lower.wcrt()
        for tid, hi in upper.wcrt().items():
            lo = lower_wcrt[tid]
            if hi is not None and lo is not None and lo > hi:
                problems.append(f"{tid}: {lower_mode} {lo} above {upper_mode} {hi}")
        if upper.schedulable and not lower.schedulable:
            problems.append(f"schedulable in {upper_mode} but not in {lower_mode}")
    return problems


def check_simulation(sim, bounds: dict) -> list[str]:
    """A simulation of a deployment that the analysis calls schedulable.

    ``bounds`` maps each task to its analytic WCRT bound.
    """
    problems = [f"deadline miss: {m}" for m in sim.deadline_misses[:3]]
    for tid, bound in bounds.items():
        seen = sim.observed_wcrt_us.get(tid)
        if seen is not None and (bound is None or seen > bound):
            problems.append(f"{tid}: observed response {seen} above its bound {bound}")
    return problems


def check_search(
    result, reanalyzed: Fraction | None, sampled: list[Fraction | None]
) -> list[str]:
    """A brute-force optimum against its re-analysis and sampled deployments."""
    if result.objective is None:
        found = [v for v in sampled if v is not None]
        return [f"search finds nothing, a sample reaches {min(found)}"] if found else []
    problems = []
    if reanalyzed != result.objective:
        problems.append(f"search reports {result.objective}, re-analysis gives {reanalyzed}")
    better = [v for v in sampled if v is not None and v < result.objective]
    if better:
        problems.append(f"search optimum {result.objective} beaten by a sample at {min(better)}")
    return problems


class Ledger:
    """Counts operations attempted, failed, and answered wrongly."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def _report(self, label: str, text: str) -> None:
        if self.failed <= MAX_LOGGED:
            print(f"[bench] {label}: {text}", file=sys.stderr)

    def run(self, label: str, op) -> None:
        """Run one operation; ``op()`` returns the problems its checks found."""
        self.attempted += 1
        try:
            problems = op()
        except Failure as exc:
            self.failed += 1
            self._report(label, f"failed: {exc}")
        except Exception:  # the run must go on and count the failure
            self.failed += 1
            self._report(label, "raised:\n" + traceback.format_exc())
        else:
            if problems:
                self.failed += 1
                self.wrong += 1
                self._report(label, "wrong answer: " + "; ".join(problems))
