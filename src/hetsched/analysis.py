"""Schedulability analysis for partitioned fixed-priority tasks that
self-suspend while offloaded work runs on a single shared accelerator.

Each task is reduced to an alternating sequence of CPU execution regions and
suspensions (one suspension per accelerated segment).  Per-request accelerator
waiting is bounded according to the arbitration policy, and worst-case
response times are then computed with jitter-augmented response-time analysis.

Two WCRT procedures are provided:

* ``fixed-point`` -- the classic iterative recurrence, using each interferer's
  analyzed response time to derive its release jitter.
* checkpoint evaluation (``exact`` and ``conservative``) -- the demand bound is
  evaluated on a finite grid of candidate completion times.  ``conservative``
  mode uses assignment-independent jitter constants and is the exact analytic
  twin of the optimizer's constraint system; ``exact`` mode keeps the
  response-time-based jitters and therefore dominates the fixed-point bound
  while never exceeding the conservative one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Iterable, Mapping, Sequence, Sized

from hetsched.model import (
    Assignment,
    ChainSpec,
    ModelError,
    ProblemInstance,
    TaskSpec,
    Violation,
    raise_invalid,
    structural_violations,
)

# Accelerator arbitration policies.
RR = "rr"
NPFP = "npfp"
NO_CONTENTION = "nocontention"
POLICIES = (RR, NPFP, NO_CONTENTION)

# WCRT analysis modes.
EXACT = "exact"
CONSERVATIVE = "conservative"
FIXED_POINT = "fixed-point"
MODES = (EXACT, CONSERVATIVE, FIXED_POINT)

# Optimization objectives (shared with the MILP layer).
MINMAX_LAT = "minmax-lat"
MINSUM_LAT = "minsum-lat"
MINMAX_RT = "minmax-rt"
MINSUM_RT = "minsum-rt"
OBJECTIVES = (MINMAX_LAT, MINSUM_LAT, MINMAX_RT, MINSUM_RT)
LATENCY_OBJECTIVES = (MINMAX_LAT, MINSUM_LAT)  # the ones that need a chain


def check_name(value: str, names: Sequence[str], what: str) -> None:
    """Raise :class:`ModelError` unless ``value`` is one of ``names``."""
    if value not in names:
        raise ModelError(f"unknown {what} {value!r}")


def require_chains(objective: str, chains: Sized) -> None:
    """Raise :class:`ModelError` for a latency objective without ``chains``
    (an instance's, or a report's chain latencies).  Each entry point checks
    this after the names and the instance and before any analysis, so a
    chainless instance is refused whether or not it is schedulable."""
    if objective in LATENCY_OBJECTIVES and not chains:
        raise ModelError("latency objectives require at least one chain")


def _ceil_div(n: int, d: int) -> int:
    return -(-n // d)


# ---------------------------------------------------------------------------
# Self-suspending view of a deployed task
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SelfSuspendingView:
    """A deployed task as CPU execution regions separated by suspensions.

    ``exec_regions_us`` has exactly one more entry than ``suspensions_us``;
    region k runs before suspension k.  Regions may be zero (e.g. a free
    offload).  ``accelerated_segments`` records which segment produced each
    suspension, in order.
    """

    task_id: str
    exec_regions_us: tuple[int, ...]
    suspensions_us: tuple[int, ...]
    accelerated_segments: tuple[int, ...]

    @cached_property
    def cpu_wcet_us(self) -> int:
        return sum(self.exec_regions_us)

    @cached_property
    def suspends(self) -> bool:
        return bool(self.suspensions_us)

    @cached_property
    def longest_request_us(self) -> int:
        """Longest single accelerator request (0 for a CPU-only deployment)."""
        return max(self.suspensions_us, default=0)

    @cached_property
    def total_accel_us(self) -> int:
        return sum(self.suspensions_us)


def map_to_self_suspending(
    task: TaskSpec, core_type: str, accelerated: frozenset[int] | set[int]
) -> SelfSuspendingView:
    """Collapse a segment list into execution regions and suspensions.

    Consecutive CPU-resident segments merge into one region; an accelerated
    segment closes the current region with its offload cost and opens the next
    one with its finalization cost.
    """
    regions: list[int] = []
    suspensions: list[int] = []
    which: list[int] = []
    current = 0
    for j, seg in enumerate(task.segments):
        if j in accelerated:
            current += seg.offload_us[core_type]
            regions.append(current)
            suspensions.append(seg.accel_us or 0)
            which.append(j)
            current = seg.finalize_us[core_type]
        else:
            current += seg.exec_us[core_type]
    regions.append(current)
    return SelfSuspendingView(
        task_id=task.id,
        exec_regions_us=tuple(regions),
        suspensions_us=tuple(suspensions),
        accelerated_segments=tuple(which),
    )


# ---------------------------------------------------------------------------
# Assignment-independent constants (shared with the MILP formulation)
# ---------------------------------------------------------------------------


def min_cpu_wcet(inst: ProblemInstance, task: TaskSpec) -> int:
    """Smallest CPU-side WCET over the types of the platform's cores and the
    legal acceleration choices.  A declared type that no core has is left out,
    because no task runs on it."""
    types = {c.type for c in inst.platform.cores}
    totals = [sum(min(seg.cpu_costs(ct)) for seg in task.segments) for ct in types]
    if not totals:
        raise ModelError("platform has no cores")
    return min(totals)


def min_accel_wcet(task: TaskSpec) -> int:
    """Smallest accelerator busy time any legal deployment of ``task`` incurs.

    Segments that can only run on the accelerator always contribute; otherwise
    the cheapest optional segment bounds the minimum for deployments that
    accelerate anything at all.
    """
    forced = [task.segments[j].accel_us or 0 for j in task.forced_segments()]
    if forced:
        return sum(forced)
    optional = [task.segments[j].accel_us or 0 for j in task.accelerable_segments()]
    return min(optional) if optional else 0


def release_jitter_bound(inst: ProblemInstance, task: TaskSpec) -> int:
    """Assignment-independent jitter constant for CPU interference by ``task``.

    A task that can never suspend has no jitter.  Otherwise its CPU demand can
    shift by at most deadline minus the least CPU time it must spend itself.
    """
    if not task.accelerable_segments():
        return 0
    return max(0, task.deadline_us - min_cpu_wcet(inst, task))


def accel_jitter_bound(inst: ProblemInstance, task: TaskSpec) -> int:
    """Assignment-independent jitter constant for accelerator demand by ``task``."""
    return max(0, task.deadline_us - min_accel_wcet(task))


# ---------------------------------------------------------------------------
# Demand-bound machinery
# ---------------------------------------------------------------------------


def checkpoints(deadline: int, sources: Iterable[tuple[int, int]]) -> list[int]:
    """Candidate completion times in (0, deadline].

    For every interference source ``(period, jitter)`` this is the last
    instant before the deadline at which its demand can step, plus the
    deadline itself.  A source whose first step lies at or beyond the deadline
    contributes nothing.
    """
    points = {deadline}
    for period, jitter in sources:
        if period - jitter < deadline:
            v = ((deadline + jitter) // period) * period - jitter
            if v > 0:
                points.add(v)
    return sorted(p for p in points if p > 0)


def demand(t: int, base: int, interferers: Iterable[tuple[int, int, int]]) -> int:
    """Worst-case demand ``base + sum(max(0, ceil((t + J) / T)) * C)`` at
    time ``t``.  A negative jitter ``J`` (the npfp backlog's ``D - C``) can
    make ``t + J`` negative; such a source adds nothing."""
    total = base
    for c, period, jitter in interferers:
        k = _ceil_div(t + jitter, period)
        if k > 0:
            total += k * c
    return total


def demand_test(
    base: int,
    points: Sequence[int],
    interferers: Iterable[tuple[int, int, int]],
) -> int | None:
    """Smallest candidate point whose accumulated demand fits within it."""
    fit = _first_fit(base, points, list(interferers))
    return None if fit is None else fit[0]


def _first_fit(
    base: int, points: Sequence[int], interferers: Sequence[tuple[int, int, int]]
) -> tuple[int, int] | None:
    """:func:`demand_test`'s point and the demand there, which is the bound
    the grid certifies; None when no point fits."""
    for t in points:
        d = demand(t, base, interferers)
        if d <= t:
            return t, d
    return None


def rta_fixed_point(
    base: int,
    interferers: Iterable[tuple[int, int, int]],
    limit: int,
) -> int | None:
    """Least fixed point of the jitter-augmented response-time recurrence.

    Returns ``None`` as soon as the iterate exceeds ``limit`` (the deadline),
    which also guarantees termination.
    """
    interferers = list(interferers)
    if base > limit:
        return None
    r = base
    while True:
        nxt = demand(r, base, interferers)
        if nxt == r:
            return r
        if nxt > limit:
            return None
        r = nxt


# ---------------------------------------------------------------------------
# Compiled instance: the assignment-independent constants, computed once
# ---------------------------------------------------------------------------


# Per task, per checkpoint: ``(s, ceil((v + J_s) / T_s))`` for each source s.
Multipliers = tuple[tuple[tuple[tuple[int, int], ...], ...], ...]


class CompiledInstance:
    """An index-based view of a :class:`ProblemInstance` for repeated use.

    Tasks and cores are addressed by their position in the instance.  Every
    assignment-independent constant of the analysis and of the MILP builder
    (jitter bounds, checkpoint grids, interference multipliers, cost bounds,
    chain offsets) is defined here, computed on first use and then kept, so
    a caller that analyzes many deployments of one instance (the brute-force
    search) or encodes it (the MILP builder) computes them once, and a
    fixed-point analysis computes none of them.  Self-suspending views are
    memoized per (task, core type, accelerated segments).  Treat every
    attribute as read-only.

    Building the view rejects an instance that fails
    :func:`~hetsched.model.structural_violations`, and :meth:`deploy`
    rejects a deployment that fails :meth:`assignment_violations`, so every
    route that reads it validates its input.
    """

    def __init__(self, inst: ProblemInstance):
        raise_invalid("invalid instance", structural_violations(inst))
        tasks = inst.tasks
        self.instance = inst
        self.task_ids = tuple([t.id for t in tasks])
        self.task_index = {tid: i for i, tid in enumerate(self.task_ids)}
        self.core_index = {c.id: k for k, c in enumerate(inst.platform.cores)}
        self.core_type = tuple([c.type for c in inst.platform.cores])
        self.period = tuple([t.period_us for t in tasks])
        self.deadline = tuple([t.deadline_us for t in tasks])
        self._views: dict[tuple[int, str, frozenset[int]], SelfSuspendingView] = {}

    @cached_property
    def accelerable(self) -> tuple[tuple[int, ...], ...]:
        """Accelerable segments of each task."""
        return tuple(tuple(t.accelerable_segments()) for t in self.instance.tasks)

    @cached_property
    def forced(self) -> tuple[frozenset[int], ...]:
        """Accelerator-only segments of each task, which every deployment
        accelerates."""
        return tuple(frozenset(t.forced_segments()) for t in self.instance.tasks)

    @cached_property
    def accel_time(self) -> tuple[tuple[int, ...], ...]:
        """Accelerator time of each of :attr:`accelerable`'s segments."""
        tasks = self.instance.tasks
        return tuple(
            tuple(tasks[i].segments[j].accel_us for j in acc)
            for i, acc in enumerate(self.accelerable)
        )

    @cached_property
    def min_cpu(self) -> tuple[int, ...]:
        """:func:`min_cpu_wcet` of each task."""
        return tuple(min_cpu_wcet(self.instance, t) for t in self.instance.tasks)

    @cached_property
    def seg_cmax(self) -> tuple[tuple[int, ...], ...]:
        """Largest CPU-side cost of each segment of each task, over the types
        of the platform's cores and the segment's legal placements."""
        types = set(self.core_type)
        return tuple(
            tuple(max(max(seg.cpu_costs(ct)) for ct in types) for seg in t.segments)
            for t in self.instance.tasks
        )

    @cached_property
    def cmax(self) -> tuple[int, ...]:
        """Largest CPU-side cost of each task, the counterpart of
        :attr:`min_cpu`."""
        return tuple(sum(caps) for caps in self.seg_cmax)

    @cached_property
    def jitter(self) -> tuple[int, ...]:
        """:func:`release_jitter_bound` of each task."""
        return tuple(release_jitter_bound(self.instance, t) for t in self.instance.tasks)

    @cached_property
    def accel_jitter(self) -> tuple[int, ...]:
        """:func:`accel_jitter_bound` of each task."""
        return tuple(accel_jitter_bound(self.instance, t) for t in self.instance.tasks)

    @cached_property
    def cpu_grid(self) -> tuple[list[int], ...]:
        """Conservative WCRT checkpoints of each task: every other task is a
        source, with its release jitter bound.  Each grid ends at the task's
        deadline, and every exact-mode grid contains it."""
        jitter = self.jitter
        return tuple(
            checkpoints(d, [(t, jitter[s]) for s, t in enumerate(self.period) if s != i])
            for i, d in enumerate(self.deadline)
        )

    @cached_property
    def accel_grid(self) -> tuple[list[int], ...]:
        """Checkpoints of each task's npfp accelerator wait: every other task
        that may use the accelerator is a source, with its accelerator jitter
        bound.  Empty for a task that never uses the accelerator, and ends at
        the deadline otherwise."""
        acc, ajit = self.accelerable, self.accel_jitter
        return tuple(
            checkpoints(d, [(t, ajit[s]) for s, t in enumerate(self.period) if s != i and acc[s]])
            if acc[i]
            else []
            for i, d in enumerate(self.deadline)
        )

    def _multipliers(self, grids, jitter, is_source) -> Multipliers:
        """``(s, ceil((v + J_s) / T_s))`` at each checkpoint ``v`` of task
        ``i``'s grid, for every source ``s`` other than ``i``."""
        period = self.period
        return tuple(
            tuple(
                tuple(
                    (s, _ceil_div(v + jitter[s], t))
                    for s, t in enumerate(period)
                    if s != i and is_source(s)
                )
                for v in grid
            )
            for i, grid in enumerate(grids)
        )

    @cached_property
    def cpu_multipliers(self) -> Multipliers:
        """The conservative CPU demand's multipliers at each checkpoint ``v``
        of :attr:`cpu_grid`: ``(s, ceil((v + J_s) / T_s))`` for every other
        task ``s``, with its release jitter bound ``J_s``."""
        return self._multipliers(self.cpu_grid, self.jitter, lambda s: True)

    @cached_property
    def accel_multipliers(self) -> Multipliers:
        """The npfp accelerator backlog's multipliers at each checkpoint of
        :attr:`accel_grid`, as in :attr:`cpu_multipliers`, for every other
        task that may use the accelerator, with its accelerator jitter
        bound."""
        return self._multipliers(self.accel_grid, self.accel_jitter, self.accelerable.__getitem__)

    def chain_offset(self, chain: ChainSpec) -> int:
        """What a chain adds to its links' response times: the period of
        every link after its head."""
        return sum([self.period[self.task_index[tid]] for tid in chain.tasks[1:]])

    def view(self, i: int, core_type: str, accelerated: frozenset[int]) -> SelfSuspendingView:
        """:func:`map_to_self_suspending` of task ``i``, memoized."""
        key = (i, core_type, accelerated)
        v = self._views.get(key)
        if v is None:
            v = self._views[key] = map_to_self_suspending(
                self.instance.tasks[i], core_type, accelerated
            )
        return v

    def assignment_violations(self, assign: Assignment) -> list[Violation]:
        """Check a deployment against the instance (every task has a known
        core, priorities form a permutation of 1..n, acceleration choices
        respect segment types); returns an empty list for a valid one."""
        out: list[Violation] = []
        core_of, priority_of = assign.core_of, assign.priority_of
        for tid in self.task_ids:
            if tid not in core_of:
                out.append(Violation(f"core_of.{tid}", "missing core"))
            elif core_of[tid] not in self.core_index:
                out.append(Violation(f"core_of.{tid}", f"unknown core {core_of[tid]!r}"))
            if tid not in priority_of:
                out.append(Violation(f"priority_of.{tid}", "missing priority"))
        for name, table in (("core_of", core_of), ("priority_of", priority_of)):
            for tid in table:
                if tid not in self.task_index:
                    out.append(Violation(f"{name}.{tid}", "unknown task"))
        n = len(self.task_ids)
        if sorted(priority_of.get(t, 0) for t in self.task_ids) != list(range(1, n + 1)):
            out.append(Violation("priority_of", f"priorities must be a permutation of 1..{n}"))

        for tid, segs in assign.accelerated.items():
            path = f"accelerated.{tid}"
            i = self.task_index.get(tid)
            if i is None:
                out.append(Violation(path, "unknown task"))
                continue
            for j in segs:
                if not 0 <= j < len(self.instance.tasks[i].segments):
                    out.append(Violation(path, f"segment index {j} out of range"))
                elif j not in self.accelerable[i]:
                    out.append(Violation(path, f"segment {j} cannot run on the accelerator"))
        for tid, forced in zip(self.task_ids, self.forced):
            missing = sorted(forced - assign.accelerated_of(tid))
            if missing:
                message = f"accelerator-only segments {missing} must be accelerated"
                out.append(Violation(f"accelerated.{tid}", message))
        return out

    def check(self, assign: Assignment) -> None:
        """Raise :class:`ModelError` if :meth:`assignment_violations` finds
        anything."""
        raise_invalid("invalid assignment", self.assignment_violations(assign))

    def deploy(self, assign: Assignment) -> tuple[list[int], list[int], list[SelfSuspendingView]]:
        """Core index, priority and self-suspending view of each task of a
        deployment that passes :meth:`check`."""
        self.check(assign)
        core = [self.core_index[assign.core_of[tid]] for tid in self.task_ids]
        prio = [assign.priority_of[tid] for tid in self.task_ids]
        views = [
            self.view(i, self.core_type[k], assign.accelerated_of(tid))
            for i, (tid, k) in enumerate(zip(self.task_ids, core))
        ]
        return core, prio, views


# ---------------------------------------------------------------------------
# Per-request accelerator waiting bounds
# ---------------------------------------------------------------------------


def _npfp_wait(
    ci: CompiledInstance,
    prio: Sequence[int],
    views: Sequence[SelfSuspendingView],
    i: int,
    mode: str,
) -> int | None:
    """Non-preemptive priority arbitration: the wait before each request of
    task ``i`` runs, or ``None`` if it cannot be bounded within the deadline.

    A request first waits out one blocking lower-priority request plus the
    higher-priority backlog.  ``conservative`` mode is the optimizer's twin: it
    evaluates the backlog on the task's accelerator checkpoint grid, with
    assignment-independent jitter constants, and takes the demand at the
    smallest self-consistent point.  Otherwise the wait is the
    :func:`rta_fixed_point` of the backlog, in which a rival ``s`` with
    accelerator time ``g_s`` has jitter ``D_s - g_s``.  Unlike the CPU
    interference, this compares priorities of tasks on different cores.
    """
    blocking = 0
    hp: list[int] = []
    for s, v in enumerate(views):
        if s == i or not v.suspends:
            continue
        if prio[s] > prio[i]:
            hp.append(s)
        else:
            blocking = max(blocking, v.longest_request_us)

    if mode == CONSERVATIVE:
        interferers = [(views[s].total_accel_us, ci.period[s], ci.accel_jitter[s]) for s in hp]
        fit = _first_fit(blocking, ci.accel_grid[i], interferers)
        return None if fit is None else fit[1]
    rivals = [(views[s].total_accel_us, s) for s in hp]
    backlog = [(g, ci.period[s], ci.deadline[s] - g) for g, s in rivals]
    return rta_fixed_point(blocking, backlog, ci.deadline[i])


def _suspensions(
    ci: CompiledInstance,
    prio: Sequence[int],
    views: Sequence[SelfSuspendingView],
    policy: str,
    mode: str,
) -> list[tuple[int, ...] | None]:
    """Per-accelerated-segment suspension bounds of each task, by index."""
    if policy == RR:
        longest = [v.longest_request_us for v in views]
        everyone = sum(longest)
    out: list[tuple[int, ...] | None] = []
    for i, v in enumerate(views):
        if not v.suspends:
            out.append(())
            continue
        if policy == NO_CONTENTION:
            wait: int | None = 0
        elif policy == RR:
            # Before each of our requests runs, every other task can be
            # served at most once, each for its longest request.
            wait = everyone - longest[i]
        else:
            wait = _npfp_wait(ci, prio, views, i, mode)
        out.append(None if wait is None else tuple(wait + e for e in v.suspensions_us))
    return out


def suspension_bounds(
    inst: ProblemInstance,
    assign: Assignment,
    policy: str,
    mode: str = EXACT,
) -> dict[str, tuple[int, ...] | None]:
    """Per-accelerated-segment suspension bounds for every task.

    A task that never suspends maps to an empty tuple; ``None`` marks a task
    whose accelerator waiting cannot be bounded within its deadline.  The npfp
    bound uses the checkpoint grid in ``conservative`` mode and the
    exact-jitter fixed point otherwise.
    """
    check_name(policy, POLICIES, "policy")
    check_name(mode, MODES, "analysis mode")
    ci = inst.compiled
    _, prio, views = ci.deploy(assign)
    return dict(zip(ci.task_ids, _suspensions(ci, prio, views, policy, mode)))


# ---------------------------------------------------------------------------
# Whole-assignment analysis
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class TaskResult:
    task_id: str
    core: str
    priority: int
    cpu_wcet_us: int
    suspension_us: int | None
    wcrt_us: int | None
    deadline_us: int

    @property
    def schedulable(self) -> bool:
        return self.wcrt_us is not None and self.wcrt_us <= self.deadline_us


@dataclass(frozen=True)
class AnalysisReport:
    policy: str
    mode: str
    tasks: tuple[TaskResult, ...]
    chain_latency_us: Mapping[str, int | None]

    @property
    def schedulable(self) -> bool:
        return all(t.schedulable for t in self.tasks)

    def wcrt(self) -> dict[str, int | None]:
        return {t.task_id: t.wcrt_us for t in self.tasks}

    def task(self, task_id: str) -> TaskResult:
        for t in self.tasks:
            if t.task_id == task_id:
                return t
        raise KeyError(task_id)

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "mode": self.mode,
            "schedulable": self.schedulable,
            "tasks": [
                {
                    "id": t.task_id,
                    "core": t.core,
                    "priority": t.priority,
                    "cpu_wcet_us": t.cpu_wcet_us,
                    "suspension_us": t.suspension_us,
                    "wcrt_us": t.wcrt_us,
                    "deadline_us": t.deadline_us,
                    "schedulable": t.schedulable,
                }
                for t in self.tasks
            ],
            "chain_latency_us": dict(self.chain_latency_us),
        }


def chain_latency(
    chain: ChainSpec, wcrt: Mapping[str, int | None], inst: ProblemInstance
) -> int | None:
    """Worst-case end-to-end latency of an asynchronous cause-effect chain.

    Every link adds its response time plus one sampling period, except the
    head of the chain, whose own period does not delay data it produces.
    """
    wcrts = [wcrt.get(tid) for tid in chain.tasks]
    if None in wcrts:
        return None
    return sum(wcrts) + inst.compiled.chain_offset(chain)


def _cpu_interferers(
    ci: CompiledInstance,
    core: Sequence[int],
    prio: Sequence[int],
    views: Sequence[SelfSuspendingView],
    wcrt: Sequence[int | None],
    i: int,
    mode: str,
) -> list[tuple[int, int, int]] | None:
    """``(C, T, J)`` of each higher-priority task on task ``i``'s core.

    Only these tasks' priorities relative to ``i`` matter here, which is why
    the brute-force search may visit per-core priority orders.  ``None`` when
    an interferer's exact jitter is unbounded because its own WCRT is.
    """
    out: list[tuple[int, int, int]] = []
    for s in range(len(core)):
        if core[s] != core[i] or prio[s] <= prio[i]:
            continue
        v = views[s]
        if mode == CONSERVATIVE:
            j = ci.jitter[s]
        elif v.suspends:
            r = wcrt[s]
            if r is None:
                return None
            j = r - v.cpu_wcet_us
        else:
            j = 0
        out.append((v.cpu_wcet_us, ci.period[s], j))
    return out


def _chain_latencies(ci: CompiledInstance, wcrt: Sequence[int | None]) -> dict[str, int | None]:
    """:func:`chain_latency` of each chain of the instance, from the WCRT of
    each task by index."""
    wcrt_of = dict(zip(ci.task_ids, wcrt))
    return {c.id: chain_latency(c, wcrt_of, ci.instance) for c in ci.instance.chains}


def _wcrts(
    ci: CompiledInstance,
    core: Sequence[int],
    prio: Sequence[int],
    views: Sequence[SelfSuspendingView],
    policy: str,
    mode: str,
) -> tuple[list[tuple[int, ...] | None], list[int | None]]:
    """Suspension bounds and WCRT of each task of a deployment, by index.

    The deployment is given as each task's core index, priority and
    self-suspending view.  This is the whole analysis: :func:`analyze` wraps
    it in a report, and the brute-force search runs it on every candidate.
    """
    suspensions = _suspensions(ci, prio, views, policy, mode)
    n = len(prio)
    wcrt: list[int | None] = [None] * n
    # Decreasing priority, so interferers are analyzed before their victims.
    for i in sorted(range(n), key=prio.__getitem__, reverse=True):
        per_seg = suspensions[i]
        if per_seg is None:
            continue
        interferers = _cpu_interferers(ci, core, prio, views, wcrt, i, mode)
        if interferers is None:
            continue
        base = views[i].cpu_wcet_us + sum(per_seg)
        deadline = ci.deadline[i]
        if mode == FIXED_POINT:
            wcrt[i] = rta_fixed_point(base, interferers, deadline)
            continue
        if mode == CONSERVATIVE:
            points = ci.cpu_grid[i]
        else:
            # Response-time-based jitters add steps of their own.
            steps = checkpoints(deadline, [(t, j) for _, t, j in interferers])
            points = sorted(set(ci.cpu_grid[i]).union(steps))
        fit = _first_fit(base, points, interferers)
        wcrt[i] = None if fit is None else fit[1]
    return suspensions, wcrt


def analyze(
    inst: ProblemInstance,
    assign: Assignment,
    policy: str,
    mode: str = EXACT,
) -> AnalysisReport:
    """Response times, suspension bounds and chain latencies for a deployment.

    The analysis reads the instance's :attr:`~ProblemInstance.compiled` view,
    so analyzing many deployments of one instance computes its constants
    once.
    """
    check_name(policy, POLICIES, "policy")
    check_name(mode, MODES, "analysis mode")
    ci = inst.compiled
    core, prio, views = ci.deploy(assign)
    suspensions, wcrt = _wcrts(ci, core, prio, views, policy, mode)
    core_of = assign.core_of
    results = [
        TaskResult(tid, core_of[tid], p, v.cpu_wcet_us, None if s is None else sum(s), r, d)
        for tid, p, v, s, r, d in zip(ci.task_ids, prio, views, suspensions, wcrt, ci.deadline)
    ]
    return AnalysisReport(
        policy=policy,
        mode=mode,
        tasks=tuple(results),
        chain_latency_us=_chain_latencies(ci, wcrt),
    )


def evaluate_objective(report: AnalysisReport, objective: str) -> Fraction | None:
    """Objective value of an analyzed deployment; None if unschedulable.

    Latency objectives aggregate chain latencies; response-time objectives
    aggregate deadline-normalized response times.  Values are exact fractions
    so optimizer results can be compared without float noise.
    """
    check_name(objective, OBJECTIVES, "objective")
    require_chains(objective, report.chain_latency_us)
    if not report.schedulable:
        return None
    return _objective_value(
        objective,
        [t.wcrt_us for t in report.tasks],
        [t.deadline_us for t in report.tasks],
        list(report.chain_latency_us.values()),
    )


def conservative_score(
    ci: CompiledInstance,
    core: Sequence[int],
    prio: Sequence[int],
    accelerated: Sequence[frozenset[int]],
    policy: str,
    objective: str,
) -> tuple[int, Fraction | None]:
    """The number of tasks the conservative analysis gives no WCRT, and
    ``evaluate_objective(analyze(..., mode=CONSERVATIVE), objective)``, of a
    deployment given by each task's core index, priority and accelerated
    segments, without building the report.  The value is None unless no
    task misses.  Neither the names nor :func:`require_chains` are
    checked."""
    views = [ci.view(i, ci.core_type[k], acc) for i, (k, acc) in enumerate(zip(core, accelerated))]
    _, wcrt = _wcrts(ci, core, prio, views, policy, CONSERVATIVE)
    misses = wcrt.count(None)
    if misses:
        return misses, None
    latency = list(_chain_latencies(ci, wcrt).values())
    return 0, _objective_value(objective, wcrt, ci.deadline, latency)


def _objective_value(
    objective: str,
    wcrt: Sequence[int],
    deadline: Sequence[int],
    latency: Sequence[int],
) -> Fraction:
    """:func:`evaluate_objective` of a schedulable deployment, from the WCRT
    and deadline of each task and the latency of each chain."""
    if objective in LATENCY_OBJECTIVES:
        return Fraction(max(latency) if objective == MINMAX_LAT else sum(latency))
    ratios = [Fraction(r, d) for r, d in zip(wcrt, deadline)]
    return max(ratios) if objective == MINMAX_RT else sum(ratios)
