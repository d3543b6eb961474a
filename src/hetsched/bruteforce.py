"""Exhaustive deployment search.

Walks every (mapping, priority order, acceleration choice) combination and
evaluates each with the conservative analysis.  Exponential, so only usable
on small instances; its value is being an independent reference the MILP
route can be checked against.

Which priority orders the search analyzes depends on the arbitration policy.
Under ``rr`` and ``nocontention`` the conservative analysis compares the
priorities of two tasks only when they share a core: a task's CPU
interferers are the higher-priority tasks on its own core, and neither
arbitration reads a priority (round robin charges every other task's longest
request, a private lane charges nothing).  Two global orders that rank each
core's tasks alike are thus one deployment to the analysis, and the search
analyzes only the first of them in enumeration order.  For n tasks on m
cores that leaves (n+m-1)!/(m-1)! mapped orders instead of m^n * n!.  Under
``npfp`` a request waits for every higher-priority request, whichever core
issued it, so the search keeps every global order.  Either way the search
returns the deployment the full enumeration would: the first optimum in
:func:`enumerate_assignments` order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations, product
from typing import Iterator

from hetsched.analysis import CONSERVATIVE, NPFP, analyze, evaluate_objective
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
    return _deployments(inst, per_core_orders=False)


def _deployments(inst: ProblemInstance, per_core_orders: bool) -> Iterator[Assignment]:
    """:func:`enumerate_assignments`, optionally keeping only the first
    priority permutation of each set of per-core priority orders."""
    ci = inst.compiled
    ids = ci.task_ids
    n = len(ids)
    cores = list(ci.core_index)
    forced = dict(zip(ids, ci.forced))
    optional = [
        (tid, j)
        for tid, acc, fixed in zip(ids, ci.accelerable, ci.forced)
        for j in acc
        if j not in fixed
    ]
    accel_choices = []
    for bits in product((False, True), repeat=len(optional)):
        accel = {tid: set(fixed) for tid, fixed in forced.items()}
        for (tid, j), on in zip(optional, bits):
            if on:
                accel[tid].add(j)
        accel_choices.append({tid: frozenset(s) for tid, s in accel.items()})
    for core_vec in product(range(len(cores)), repeat=n):
        core_of = {tid: cores[k] for tid, k in zip(ids, core_vec)}
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
            priority_of = dict(zip(ids, perm))
            for accelerated in accel_choices:
                yield Assignment(
                    core_of=core_of, priority_of=priority_of, accelerated=accelerated
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
    where the search analyzes fewer deployments.
    """
    size = search_space_size(inst)
    if size > limit:
        raise ModelError(
            f"search space holds {size} deployments, above the limit of {limit}"
        )
    best_value: Fraction | None = None
    best: Assignment | None = None
    evaluated = 0
    feasible = 0
    for cand in _deployments(inst, per_core_orders=policy != NPFP):
        evaluated += 1
        report = analyze(inst, cand, policy, mode=CONSERVATIVE)
        value = evaluate_objective(report, objective)
        if value is None:
            continue
        feasible += 1
        if best_value is None or value < best_value:
            best_value, best = value, cand
    return SearchResult(
        objective=best_value, assignment=best, evaluated=evaluated, feasible=feasible
    )
