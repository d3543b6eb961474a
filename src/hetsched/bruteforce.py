"""Deployment searches on the compiled view: one exhaustive, one local.

:func:`best_assignment` walks every (mapping, priority order, acceleration
choice) combination and evaluates each with the conservative analysis.
Exponential, so only usable on small instances; its value is being an
independent reference the MILP route can be checked against.

:func:`local_search` descends from a greedy deployment by single moves (one
task to another core, two tasks' cores exchanged, two priorities swapped,
one optional segment toggled) and stops at a local optimum or after
:data:`LOCAL_SEARCH_EVALUATIONS` deployments, on any size of instance.  It
proves nothing, but a schedulable deployment it finds bounds the optimum
from above: ``optimize`` hands that value to HiGHS as a cutoff and checks
the solver's proof against it.

A candidate of either search is a tuple of indices (each task's core,
priority and accelerated segments) on the instance's compiled view.  The
searches value it with :func:`~hetsched.analysis.conservative_score`, which
runs the WCRT loop of :func:`~hetsched.analysis.analyze` without building a
report or an :class:`~hetsched.model.Assignment`.  Only the winner becomes
an ``Assignment``.  The exhaustive search analyzes it once more through
:func:`analyze`, whose objective is the one reported and must equal the
value the search found; the local search calls no :func:`analyze`.

Which priority orders the exhaustive search analyzes depends on the
arbitration policy.  Under ``rr`` and ``nocontention`` the conservative
analysis compares the priorities of two tasks only when they share a core:
a task's CPU interferers are the higher-priority tasks on its own core, and
neither arbitration reads a priority (round robin charges every other task's
longest request, a private lane charges nothing).  Two global orders that
rank each core's tasks alike are thus one deployment to the analysis, and
the search analyzes only the first of them in enumeration order.  For n
tasks on m cores that leaves (n+m-1)!/(m-1)! mapped orders instead of
m^n * n!.  Under ``npfp`` a request waits for every higher-priority request,
whichever core issued it, so the search keeps every global order.  Either
way the search returns the deployment the full enumeration would: the first
optimum in :func:`enumerate_assignments` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator

from hetsched.analysis import (
    CONSERVATIVE,
    NPFP,
    OBJECTIVES,
    POLICIES,
    CompiledInstance,
    analyze,
    check_name,
    conservative_score,
    evaluate_objective,
    require_chains,
)
from hetsched.model import Assignment, ModelError, ProblemInstance


def search_space_size(inst: ProblemInstance) -> int:
    """Number of deployments :func:`enumerate_assignments` would yield."""
    ci = inst.compiled
    n, m = len(ci.task_ids), len(ci.core_index)
    optional = sum(len(acc) - len(forced) for acc, forced in zip(ci.accelerable, ci.forced))
    return m**n * math.factorial(n) * 2**optional


def enumerate_assignments(inst: ProblemInstance) -> Iterator[Assignment]:
    """Yield every deployment, in a fixed lexicographic order.

    Order: core vectors first (task-major, core order as declared), then
    priority permutations, then acceleration subsets.  Segments that only
    exist in accelerated form are always accelerated.
    """
    ci = inst.compiled
    for deployment in _deployments(ci, per_core_orders=False):
        yield _assignment(ci, *deployment)


Deployment = tuple[tuple[int, ...], tuple[int, ...], tuple[frozenset[int], ...]]


def _optional_segments(ci: CompiledInstance) -> list[tuple[int, int]]:
    """``(task, segment)`` of every segment a deployment may or may not
    accelerate."""
    return [
        (i, j)
        for i, (acc, fixed) in enumerate(zip(ci.accelerable, ci.forced))
        for j in acc
        if j not in fixed
    ]


def _deployments(ci: CompiledInstance, per_core_orders: bool) -> Iterator[Deployment]:
    """:func:`enumerate_assignments` as index tuples: each task's core index,
    priority and accelerated segments.  With ``per_core_orders`` only the
    first priority permutation of each set of per-core priority orders is
    kept."""
    n = len(ci.task_ids)
    optional = _optional_segments(ci)
    accel_choices = []
    for bits in product((False, True), repeat=len(optional)):
        accel = [set(fixed) for fixed in ci.forced]
        for (i, j), on in zip(optional, bits):
            if on:
                accel[i].add(j)
        accel_choices.append(tuple(frozenset(s) for s in accel))
    for core_vec in product(range(len(ci.core_index)), repeat=n):
        same_core = [
            (i, s) for i in range(n) for s in range(i + 1, n) if core_vec[i] == core_vec[s]
        ]
        seen: set[tuple[bool, ...]] = set()
        for perm in permutations(range(1, n + 1)):
            if per_core_orders:
                orders = tuple(perm[i] > perm[s] for i, s in same_core)
                if orders in seen:
                    continue
                seen.add(orders)
            for accelerated in accel_choices:
                yield core_vec, perm, accelerated


def _assignment(
    ci: CompiledInstance,
    core_vec: tuple[int, ...],
    perm: tuple[int, ...],
    accelerated: tuple[frozenset[int], ...],
) -> Assignment:
    """The :class:`Assignment` of a deployment given as index tuples."""
    cores = list(ci.core_index)
    ids = ci.task_ids
    return Assignment(
        core_of={tid: cores[k] for tid, k in zip(ids, core_vec)},
        priority_of=dict(zip(ids, perm)),
        accelerated=dict(zip(ids, accelerated)),
    )


@dataclass(frozen=True)
class SearchResult:
    objective: Fraction | None  # None if no deployment is schedulable
    assignment: Assignment | None
    evaluated: int  # deployments analyzed
    feasible: int  # of those, the schedulable ones


def best_assignment(
    inst: ProblemInstance,
    policy: str,
    objective: str,
    limit: int = 1_000_000,
) -> SearchResult:
    """Return the best deployment by brute force (ties: first in order).

    ``limit`` caps :func:`search_space_size`, the full enumeration, even
    where the search analyzes fewer deployments, and must be an ``int``.
    The reported objective is that of :func:`~hetsched.analysis.analyze`'s
    report on the winner, which must equal the value the search found for
    it.
    """
    if isinstance(limit, bool) or not isinstance(limit, int):
        raise ModelError(f"limit must be a whole number of deployments, not {limit!r}")
    size = search_space_size(inst)
    if size > limit:
        raise ModelError(
            f"search space holds {size} deployments, above the limit of {limit}"
        )
    check_name(policy, POLICIES, "policy")
    check_name(objective, OBJECTIVES, "objective")
    ci = inst.compiled
    require_chains(objective, inst.chains)
    best_value: Fraction | None = None
    best: Deployment | None = None
    evaluated = 0
    feasible = 0
    for deployment in _deployments(ci, per_core_orders=policy != NPFP):
        evaluated += 1
        misses, value = conservative_score(ci, *deployment, policy, objective)
        if misses:
            continue
        feasible += 1
        if best_value is None or value < best_value:
            best_value, best = value, deployment
    if best is None:
        return SearchResult(objective=None, assignment=None, evaluated=evaluated, feasible=feasible)
    winner = _assignment(ci, *best)
    reported = evaluate_objective(analyze(inst, winner, policy, mode=CONSERVATIVE), objective)
    if reported != best_value:
        raise RuntimeError(
            f"search valued its best deployment at {best_value}, "
            f"but its analysis reports {reported}"
        )
    return SearchResult(
        objective=reported, assignment=winner, evaluated=evaluated, feasible=feasible
    )


# Deployments the local search analyzes at most, its start included.
LOCAL_SEARCH_EVALUATIONS = 2_000


def local_search(inst: ProblemInstance, policy: str, objective: str) -> SearchResult:
    """A deployment that no single move improves, found deterministically.

    The start gives deadline-monotonic priorities, accelerates only the
    accelerator-only segments and places the tasks in decreasing order of
    their largest CPU utilization, each on the core with the least of it so
    far.  A move puts one task on another core, exchanges the cores of two
    tasks on different cores, swaps two tasks' priorities or toggles one
    optional segment.  An exchange moves load both ways at once: on WATERS
    under rr and npfp no single-task core move lowers the number of misses,
    and only exchanges reach a schedulable deployment.  Each step analyzes
    every move and takes the first best one, if it is better than where the
    search stands: fewer tasks without a WCRT first, then a smaller
    objective.  The search stops at a local optimum or after
    :data:`LOCAL_SEARCH_EVALUATIONS` analyzed deployments.

    The result's objective is that of the deployment it returns, and equals
    ``evaluate_objective(analyze(..., mode=CONSERVATIVE), objective)``; both
    are None if the search ends on a deployment that misses.
    """
    check_name(policy, POLICIES, "policy")
    check_name(objective, OBJECTIVES, "objective")
    ci = inst.compiled
    require_chains(objective, inst.chains)
    n, m = len(ci.task_ids), len(ci.core_index)
    prio = [0] * n
    for rank, i in enumerate(sorted(range(n), key=ci.deadline.__getitem__)):
        prio[i] = n - rank
    core = [0] * n
    load = [Fraction(0)] * m
    utilization = [Fraction(c, t) for c, t in zip(ci.cmax, ci.period)]
    for i in sorted(range(n), key=utilization.__getitem__, reverse=True):
        core[i] = min(range(m), key=load.__getitem__)
        load[core[i]] += utilization[i]
    optional = _optional_segments(ci)
    evaluated = feasible = 0

    def score(deployment: Deployment) -> tuple[int, Fraction]:
        nonlocal evaluated, feasible
        evaluated += 1
        misses, value = conservative_score(ci, *deployment, policy, objective)
        feasible += not misses
        return misses, Fraction(0) if value is None else value

    def moves(core, prio, accelerated) -> Iterator[Deployment]:
        for i in range(n):
            for k in range(m):
                if k != core[i]:
                    yield (*core[:i], k, *core[i + 1 :]), prio, accelerated
        for i in range(n):
            for s in range(i + 1, n):
                if core[i] != core[s]:
                    exchanged = list(core)
                    exchanged[i], exchanged[s] = core[s], core[i]
                    yield tuple(exchanged), prio, accelerated
        for i in range(n):
            for s in range(i + 1, n):
                swapped = list(prio)
                swapped[i], swapped[s] = prio[s], prio[i]
                yield core, tuple(swapped), accelerated
        for i, j in optional:
            toggled = list(accelerated)
            toggled[i] = accelerated[i] ^ {j}
            yield core, prio, tuple(toggled)

    state: Deployment = (tuple(core), tuple(prio), ci.forced)
    current = score(state)
    while evaluated < LOCAL_SEARCH_EVALUATIONS:
        best: tuple[tuple[int, Fraction], Deployment] | None = None
        for move in moves(*state):
            key = score(move)
            if best is None or key < best[0]:
                best = key, move
            if evaluated >= LOCAL_SEARCH_EVALUATIONS:
                break
        if best is None or best[0] >= current:
            break
        current, state = best
    if current[0]:
        return SearchResult(objective=None, assignment=None, evaluated=evaluated, feasible=feasible)
    return SearchResult(
        objective=current[1],
        assignment=_assignment(ci, *state),
        evaluated=evaluated,
        feasible=feasible,
    )
