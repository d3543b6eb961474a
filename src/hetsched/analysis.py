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
from fractions import Fraction
from typing import Iterable, Mapping, Sequence

from hetsched.model import (
    Assignment,
    ChainSpec,
    ModelError,
    ProblemInstance,
    TaskSpec,
    validate_assignment,
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

    @property
    def cpu_wcet_us(self) -> int:
        return sum(self.exec_regions_us)

    @property
    def suspends(self) -> bool:
        return bool(self.suspensions_us)

    @property
    def longest_request_us(self) -> int:
        """Longest single accelerator request (0 for a CPU-only deployment)."""
        return max(self.suspensions_us, default=0)

    @property
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
    """Smallest CPU-side WCET over all cores and legal acceleration choices."""
    best: int | None = None
    for ct in inst.platform.core_types:
        total = 0
        for seg in task.segments:
            if seg.impl.must_accelerate:
                total += seg.cpu_wcet(ct, accelerated=True)
            elif seg.impl.may_accelerate:
                total += min(seg.cpu_wcet(ct, accelerated=False), seg.cpu_wcet(ct, accelerated=True))
            else:
                total += seg.cpu_wcet(ct, accelerated=False)
        best = total if best is None else min(best, total)
    if best is None:
        raise ModelError("platform declares no core types")
    return best


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
    """Worst-case demand ``base + sum(ceil((t + J) / T) * C)`` at time ``t``."""
    total = base
    for c, period, jitter in interferers:
        total += _ceil_div(t + jitter, period) * c
    return total


def demand_test(
    base: int,
    points: Sequence[int],
    interferers: Iterable[tuple[int, int, int]],
) -> int | None:
    """Smallest candidate point whose accumulated demand fits within it."""
    interferers = list(interferers)
    for t in points:
        if demand(t, base, interferers) <= t:
            return t
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
# Per-request accelerator waiting bounds
# ---------------------------------------------------------------------------


def rr_suspension(views: Mapping[str, SelfSuspendingView], task_id: str) -> tuple[int, ...]:
    """Round-robin arbitration: before each of our requests runs, every other
    task can be served at most once, each for its longest request."""
    others = sum(v.longest_request_us for t, v in views.items() if t != task_id)
    return tuple(e + others for e in views[task_id].suspensions_us)


def npfp_suspension_fixed_point(
    inst: ProblemInstance,
    assign: Assignment,
    views: Mapping[str, SelfSuspendingView],
    task_id: str,
) -> tuple[int, ...] | None:
    """Non-preemptive priority arbitration, exact-jitter variant.

    Each request first waits out one blocking lower-priority request plus the
    higher-priority backlog, obtained as a fixed point; the request's own
    processing time comes on top.  Returns ``None`` when the backlog cannot be
    bounded within the task's deadline.
    """
    my_prio = assign.priority_of[task_id]
    limit = inst.task(task_id).deadline_us
    blocking = 0
    hp: list[tuple[int, int, int]] = []  # (G, T, D) per higher-priority task
    for t, v in views.items():
        if t == task_id or not v.suspends:
            continue
        other = inst.task(t)
        if assign.priority_of[t] > my_prio:
            hp.append((v.total_accel_us, other.period_us, other.deadline_us))
        else:
            blocking = max(blocking, v.longest_request_us)

    phi = blocking
    if phi > limit:
        return None
    while True:
        nxt = blocking + sum(
            max(0, _ceil_div(phi + d - g, t)) * g for g, t, d in hp
        )
        if nxt == phi:
            break
        if nxt > limit:
            return None
        phi = nxt
    return tuple(phi + e for e in views[task_id].suspensions_us)


def npfp_suspension_checkpointed(
    inst: ProblemInstance,
    assign: Assignment,
    views: Mapping[str, SelfSuspendingView],
    task_id: str,
) -> tuple[int, ...] | None:
    """Non-preemptive priority arbitration, optimizer-parity variant.

    Higher-priority accelerator demand is evaluated on a precomputed grid of
    candidate points built from assignment-independent jitter constants; the
    waiting bound is the demand at the smallest self-consistent point.
    """
    me = inst.task(task_id)
    my_prio = assign.priority_of[task_id]
    blocking = 0
    interferers: list[tuple[int, int, int]] = []
    sources: list[tuple[int, int]] = []
    for other in inst.tasks:
        if other.id == task_id or not other.accelerable_segments():
            continue
        sources.append((other.period_us, accel_jitter_bound(inst, other)))
        v = views[other.id]
        if not v.suspends:
            continue
        if assign.priority_of[other.id] > my_prio:
            interferers.append(
                (v.total_accel_us, other.period_us, accel_jitter_bound(inst, other))
            )
        else:
            blocking = max(blocking, v.longest_request_us)

    points = checkpoints(me.deadline_us, sources)
    star = demand_test(blocking, points, interferers)
    if star is None:
        return None
    wait = demand(star, blocking, interferers)
    return tuple(wait + e for e in views[task_id].suspensions_us)


def build_views(inst: ProblemInstance, assign: Assignment) -> dict[str, SelfSuspendingView]:
    return {
        t.id: map_to_self_suspending(
            t, inst.core(assign.core_of[t.id]).type, assign.accelerated_of(t.id)
        )
        for t in inst.tasks
    }


def suspension_bounds(
    inst: ProblemInstance,
    assign: Assignment,
    policy: str,
    mode: str = EXACT,
) -> dict[str, tuple[int, ...] | None]:
    """Per-accelerated-segment suspension bounds for every task.

    A task that never suspends maps to an empty tuple; ``None`` marks a task
    whose accelerator waiting cannot be bounded within its deadline.
    """
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    return _suspension_bounds(inst, assign, policy, mode, build_views(inst, assign))


def _suspension_bounds(
    inst: ProblemInstance,
    assign: Assignment,
    policy: str,
    mode: str,
    views: Mapping[str, SelfSuspendingView],
) -> dict[str, tuple[int, ...] | None]:
    out: dict[str, tuple[int, ...] | None] = {}
    for task in inst.tasks:
        v = views[task.id]
        if not v.suspends:
            out[task.id] = ()
        elif policy == NO_CONTENTION:
            out[task.id] = tuple(v.suspensions_us)
        elif policy == RR:
            out[task.id] = rr_suspension(views, task.id)
        elif mode == CONSERVATIVE:
            out[task.id] = npfp_suspension_checkpointed(inst, assign, views, task.id)
        else:
            out[task.id] = npfp_suspension_fixed_point(inst, assign, views, task.id)
    return out


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
    total = 0
    for pos, tid in enumerate(chain.tasks):
        r = wcrt.get(tid)
        if r is None:
            return None
        total += r
        if pos > 0:
            total += inst.task(tid).period_us
    return total


def analyze(
    inst: ProblemInstance,
    assign: Assignment,
    policy: str,
    mode: str = EXACT,
) -> AnalysisReport:
    """Response times, suspension bounds and chain latencies for a deployment."""
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    if mode not in MODES:
        raise ModelError(f"unknown analysis mode {mode!r}")
    errors = validate_assignment(inst, assign)
    if errors:
        raise ModelError("invalid assignment: " + "; ".join(str(e) for e in errors))

    views = build_views(inst, assign)
    susp_mode = CONSERVATIVE if mode == CONSERVATIVE else EXACT
    suspensions = _suspension_bounds(inst, assign, policy, susp_mode, views)
    # Computed once per call: the checkpoint grid and conservative
    # interference read them; the fixed-point iteration reads neither.
    jitter = (
        {} if mode == FIXED_POINT else {s.id: release_jitter_bound(inst, s) for s in inst.tasks}
    )

    wcrt: dict[str, int | None] = {}
    results: dict[str, TaskResult] = {}
    # Decreasing priority, so interferers are analyzed before their victims.
    for task in sorted(inst.tasks, key=lambda t: -assign.priority_of[t.id]):
        tid = task.id
        view = views[tid]
        per_seg = suspensions[tid]
        total_susp = None if per_seg is None else sum(per_seg)

        r: int | None = None
        if total_susp is not None:
            base = view.cpu_wcet_us + total_susp
            interferers: list[tuple[int, int, int]] = []
            extra_sources: list[tuple[int, int]] = []
            feasible = True
            for other in inst.tasks:
                if (
                    other.id == tid
                    or assign.core_of[other.id] != assign.core_of[tid]
                    or assign.priority_of[other.id] <= assign.priority_of[tid]
                ):
                    continue
                ov = views[other.id]
                if mode == CONSERVATIVE:
                    j = jitter[other.id]
                elif ov.suspends:
                    rh = wcrt[other.id]
                    if rh is None:
                        feasible = False
                        break
                    j = rh - ov.cpu_wcet_us
                else:
                    j = 0
                interferers.append((ov.cpu_wcet_us, other.period_us, j))
                extra_sources.append((other.period_us, j))

            if not feasible:
                r = None
            elif mode == FIXED_POINT:
                r = rta_fixed_point(base, interferers, task.deadline_us)
            else:
                sources = [
                    (s.period_us, jitter[s.id])
                    for s in inst.tasks
                    if s.id != tid
                ]
                if mode == EXACT:
                    sources.extend(extra_sources)
                points = checkpoints(task.deadline_us, sources)
                star = demand_test(base, points, interferers)
                r = None if star is None else demand(star, base, interferers)

        wcrt[tid] = r
        results[tid] = TaskResult(
            task_id=tid,
            core=assign.core_of[tid],
            priority=assign.priority_of[tid],
            cpu_wcet_us=view.cpu_wcet_us,
            suspension_us=total_susp,
            wcrt_us=r,
            deadline_us=task.deadline_us,
        )

    chains = {c.id: chain_latency(c, wcrt, inst) for c in inst.chains}
    return AnalysisReport(
        policy=policy,
        mode=mode,
        tasks=tuple(results[t.id] for t in inst.tasks),
        chain_latency_us=chains,
    )


def evaluate_objective(report: AnalysisReport, objective: str) -> Fraction | None:
    """Objective value of an analyzed deployment; None if unschedulable.

    Latency objectives aggregate chain latencies; response-time objectives
    aggregate deadline-normalized response times.  Values are exact fractions
    so optimizer results can be compared without float noise.
    """
    if objective not in OBJECTIVES:
        raise ModelError(f"unknown objective {objective!r}")
    if not report.schedulable:
        return None
    if objective in (MINMAX_LAT, MINSUM_LAT):
        if not report.chain_latency_us:
            raise ModelError("latency objectives require at least one chain")
        values = [Fraction(v) for v in report.chain_latency_us.values()]
        return max(values) if objective == MINMAX_LAT else sum(values)
    ratios = [Fraction(t.wcrt_us, t.deadline_us) for t in report.tasks]
    return max(ratios) if objective == MINMAX_RT else sum(ratios)
