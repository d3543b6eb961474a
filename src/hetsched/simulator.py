"""Discrete-event execution of a deployed task set.

Each core runs preemptive fixed-priority scheduling over the jobs mapped to
it; the accelerator serves offloaded requests one at a time, arbitrated
round-robin or by task priority (or in parallel when modeling a
contention-free accelerator).  Time is integer microseconds throughout.

Two drive modes:

* ``seed=None``: synchronous release at time zero and every phase takes its
  worst case -- the classical critical-instant experiment.
* ``seed=<int>``: per-task release offsets drawn uniformly from the period
  and per-phase durations drawn uniformly from [ceil(w/2), w].

The trace is a list of :class:`SimEvent` in time order.  Its kinds:

* ``release``: a job of the task arrives.
* ``run`` (with ``core`` and ``segment``): the job takes the core.
* ``stop`` (with ``core`` and ``cause``): the job leaves the core while it
  still has CPU work.  ``cause="preempt"``: a higher-priority job takes the
  core.  ``cause="segment_end"``: its CPU phase ended and its next phase is
  again a CPU phase; the next ``run`` says who gets the core.
* ``offload`` (with ``segment``): the job requests the accelerator and
  leaves its core.
* ``accel_start`` / ``accel_done`` (with ``segment``): the accelerator
  starts and finishes serving that request.
* ``deadline_miss``: the job finishes late; ``finish`` follows at once.
* ``finish``: the job completes and leaves its core.

The simulator executes raw segments (offload, accelerator processing,
finalize) rather than the merged execution regions the analysis reasons
about, so agreement between observed response times and analytic bounds is
evidence for the bounds, not an artifact of shared code.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from hetsched.analysis import NO_CONTENTION, NPFP, POLICIES, RR
from hetsched.model import (
    Assignment,
    ModelError,
    ProblemInstance,
    validate_assignment,
)

_CPU = "cpu"
_ACCEL = "accel"


class SimEvent(NamedTuple):
    time_us: int
    kind: str  # release | run | stop | offload | accel_start | accel_done | finish | deadline_miss
    task: str
    core: str | None = None
    segment: int | None = None
    cause: str | None = None


@dataclass
class SimResult:
    horizon_us: int
    observed_wcrt_us: dict[str, int | None]
    jobs_finished: dict[str, int]
    deadline_misses: list[tuple[str, int, int]]  # (task, release, finish)
    truncated: bool
    events: list[SimEvent] = field(default_factory=list)

    def observed(self, task_id: str) -> int | None:
        return self.observed_wcrt_us[task_id]


class _Job:
    __slots__ = ("task_id", "release", "deadline", "phases", "idx", "remaining")

    def __init__(self, task_id: str, release: int, deadline: int, phases):
        self.task_id = task_id
        self.release = release
        self.deadline = deadline
        self.phases = phases  # list of (kind, worst_case, segment_index)
        self.idx = -1  # no phase entered yet
        self.remaining = 0


def _phase_templates(inst: ProblemInstance, assignment: Assignment) -> dict[str, list]:
    """Expand each task into its CPU/accelerator phase sequence."""
    ctype = {c.id: c.type for c in inst.platform.cores}
    out = {}
    for task in inst.tasks:
        ct = ctype[assignment.core_of[task.id]]
        accelerated = assignment.accelerated_of(task.id)
        phases = []
        for j, seg in enumerate(task.segments):
            if j in accelerated:
                phases.append((_CPU, seg.offload_us[ct], j))
                phases.append((_ACCEL, seg.accel_us, j))
                phases.append((_CPU, seg.finalize_us[ct], j))
            else:
                phases.append((_CPU, seg.exec_us[ct], j))
        out[task.id] = phases
    return out


def default_horizon(inst: ProblemInstance) -> int:
    """One hyperperiod, capped to keep degenerate period sets tractable."""
    hyper = math.lcm(*(t.period_us for t in inst.tasks))
    return min(max(hyper, 2 * max(t.period_us for t in inst.tasks)), 50_000_000)


def simulate(
    inst: ProblemInstance,
    assignment: Assignment,
    policy: str,
    horizon_us: int | None = None,
    seed: int | None = None,
) -> SimResult:
    """Run the deployment and report observed response times per task."""
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    # Building the compiled view rejects a malformed instance.  The simulator
    # reads none of its tables, so that it stays independent of the analysis.
    inst.compiled
    errors = validate_assignment(inst, assignment)
    if errors:
        raise ModelError("invalid assignment: " + "; ".join(str(e) for e in errors))

    rng = random.Random(seed) if seed is not None else None
    horizon = default_horizon(inst) if horizon_us is None else horizon_us
    hard_stop = horizon + 4 * max(t.deadline_us for t in inst.tasks)

    templates = _phase_templates(inst, assignment)
    task_ids = [t.id for t in inst.tasks]
    period = {t.id: t.period_us for t in inst.tasks}
    deadline = {t.id: t.deadline_us for t in inst.tasks}
    prio = assignment.priority_of
    core_of = assignment.core_of
    # Each core's tasks by descending priority; the stable sort keeps task
    # order among equal priorities.
    core_tasks: dict[str, list[str]] = {c.id: [] for c in inst.platform.cores}
    for tid in sorted(task_ids, key=lambda t: -prio[t]):
        core_tasks[core_of[tid]].append(tid)

    next_release = {
        tid: 0 if rng is None else rng.randrange(period[tid]) for tid in task_ids
    }
    queue: dict[str, deque[_Job]] = {tid: deque() for tid in task_ids}
    running: dict[str, _Job | None] = {c.id: None for c in inst.platform.cores}
    dirty: set[str] = set()  # cores whose jobs changed state since the last dispatch
    pending: dict[str, _Job] = {}  # accelerator requests awaiting a grant
    device_job: _Job | None = None  # RR/NPFP: the request being served
    device_done = None  # absolute completion time of device_job
    nc_done: list[tuple[int, _Job]] = []  # NoContention: parallel completions
    rr_token = 0

    events: list[SimEvent] = []
    observed: dict[str, int | None] = {tid: None for tid in task_ids}
    finished = {tid: 0 for tid in task_ids}
    misses: list[tuple[str, int, int]] = []
    truncated = False

    def emit(time, kind, task, core=None, segment=None, cause=None):
        events.append(SimEvent(time, kind, task, core, segment, cause))

    def duration(worst: int) -> int:
        if worst == 0 or rng is None:
            return worst
        return rng.randint(-(-worst // 2), worst)

    def advance(job: _Job, now: int) -> None:
        """Move a job to its next nonzero phase, issuing requests/finishing."""
        dirty.add(core_of[job.task_id])
        while True:
            job.idx += 1
            if job.idx >= len(job.phases):
                response = now - job.release
                prev = observed[job.task_id]
                observed[job.task_id] = response if prev is None else max(prev, response)
                finished[job.task_id] += 1
                if response > job.deadline:
                    misses.append((job.task_id, job.release, now))
                    emit(now, "deadline_miss", job.task_id)
                emit(now, "finish", job.task_id)
                queue[job.task_id].popleft()
                if queue[job.task_id]:
                    advance(queue[job.task_id][0], now)  # backlogged successor
                return
            kind, worst, seg = job.phases[job.idx]
            job.remaining = duration(worst)
            if job.remaining == 0:
                continue  # zero-length phase: falls through instantly
            if kind == _ACCEL:
                emit(now, "offload", job.task_id, segment=seg)
                pending[job.task_id] = job
            return

    def grant(now: int) -> None:
        nonlocal device_job, device_done, rr_token
        if not pending:
            return
        if policy == NO_CONTENTION:
            for tid in [t for t in task_ids if t in pending]:
                job = pending.pop(tid)
                emit(now, "accel_start", tid, segment=job.phases[job.idx][2])
                nc_done.append((now + job.remaining, job))
            return
        if device_job is not None:
            return
        if policy == RR:
            for step in range(len(task_ids)):
                tid = task_ids[(rr_token + step) % len(task_ids)]
                if tid in pending:
                    rr_token = (rr_token + step + 1) % len(task_ids)
                    break
            else:
                return
        else:  # NPFP: highest-priority requester wins, then runs to completion
            tid = max(pending, key=lambda t: prio[t])
        job = pending.pop(tid)
        device_job = job
        device_done = now + job.remaining
        emit(now, "accel_start", tid, segment=job.phases[job.idx][2])

    def earliest_release() -> float:
        return min((r for r in next_release.values() if r < horizon), default=math.inf)

    now = 0
    release_at = earliest_release()
    while True:
        # 1. releases, once the earliest pending one is due
        if release_at <= now:
            for tid in task_ids:
                while next_release[tid] <= now and next_release[tid] < horizon:
                    release = next_release[tid]
                    job = _Job(tid, release, deadline[tid], templates[tid])
                    queue[tid].append(job)
                    emit(release, "release", tid)
                    if queue[tid][0] is job:
                        advance(job, release)  # enter the first phase
                    next_release[tid] += period[tid]
            release_at = earliest_release()

        # 2. accelerator completions
        if device_job is not None and device_done <= now:
            job, device_job, device_done = device_job, None, None
            emit(now, "accel_done", job.task_id, segment=job.phases[job.idx][2])
            advance(job, now)
        if nc_done:
            for done, job in [x for x in nc_done if x[0] <= now]:
                nc_done.remove((done, job))
                emit(now, "accel_done", job.task_id, segment=job.phases[job.idx][2])
                advance(job, now)

        # 3. CPU phase completions.  A job whose next phase is again a CPU
        # phase leaves the core here too, so it is stopped explicitly;
        # ``offload`` and ``finish`` already mark the other ways off a core.
        for cid, job in running.items():
            if job is not None and job.remaining == 0:
                running[cid] = None
                advance(job, now)
                if job.idx < len(job.phases) and job.phases[job.idx][0] == _CPU:
                    emit(now, "stop", job.task_id, core=cid, cause="segment_end")

        # 4. accelerator grants (new requests may have just arrived)
        grant(now)

        # 5. dispatch: highest-priority ready job on each core whose jobs
        # changed state; on any other core the choice cannot have changed.
        if dirty:
            for cid, tids in core_tasks.items():
                if cid not in dirty:
                    continue
                # A job is CPU-ready iff its current phase is a CPU phase;
                # jobs waiting on or using the accelerator sit on an _ACCEL phase.
                choice = None
                for tid in tids:
                    if queue[tid]:
                        job = queue[tid][0]
                        if (
                            job.idx >= 0
                            and job.phases[job.idx][0] == _CPU
                            and job.remaining > 0
                        ):
                            choice = job
                            break
                if running[cid] is not choice:
                    if running[cid] is not None:
                        emit(now, "stop", running[cid].task_id, core=cid, cause="preempt")
                    if choice is not None:
                        seg = choice.phases[choice.idx][2]
                        emit(now, "run", choice.task_id, core=cid, segment=seg)
                    running[cid] = choice
            dirty.clear()

        # 6. next event time
        nxt = release_at
        if device_done is not None and device_done < nxt:
            nxt = device_done
        for done, _ in nc_done:
            if done < nxt:
                nxt = done
        for job in running.values():
            if job is not None and now + job.remaining < nxt:
                nxt = now + job.remaining
        if nxt == math.inf:
            break
        if nxt > hard_stop:
            truncated = True
            break
        delta = nxt - now
        for job in running.values():
            if job is not None:
                job.remaining -= delta
        now = nxt

    return SimResult(
        horizon_us=horizon,
        observed_wcrt_us=observed,
        jobs_finished=finished,
        deadline_misses=misses,
        truncated=truncated,
        events=events,
    )


def validate_trace(events: list[SimEvent], policy: str) -> list[str]:
    """Structural checks on a trace; returns human-readable problems.

    Verifies that every core runs at most one job at a time, that the
    accelerator serves at most one request at a time under the serializing
    policies, and that every service interval is bracketed by a matching
    request.
    """
    problems: list[str] = []
    core_busy: dict[str, str] = {}
    device_busy: str | None = None
    requested: set[str] = set()
    last_time = 0
    for ev in events:
        if ev.time_us < last_time:
            problems.append(f"time went backwards at {ev.time_us} ({ev.kind} {ev.task})")
        last_time = max(last_time, ev.time_us)
        if ev.kind == "run":
            if core_busy.get(ev.core) not in (None, ev.task):
                problems.append(
                    f"{ev.core} dispatched {ev.task} at {ev.time_us} while running "
                    f"{core_busy[ev.core]}"
                )
            core_busy[ev.core] = ev.task
        elif ev.kind == "stop":
            if core_busy.get(ev.core) != ev.task:
                problems.append(f"stop without run: {ev.task} on {ev.core} at {ev.time_us}")
            else:
                del core_busy[ev.core]
        elif ev.kind == "offload":
            requested.add(ev.task)
            for cid, tid in list(core_busy.items()):
                if tid == ev.task:
                    del core_busy[cid]
        elif ev.kind == "finish":
            for cid, tid in list(core_busy.items()):
                if tid == ev.task:
                    del core_busy[cid]
        elif ev.kind == "accel_start":
            if ev.task not in requested:
                problems.append(f"service without request: {ev.task} at {ev.time_us}")
            requested.discard(ev.task)
            if policy in (RR, NPFP):
                if device_busy is not None:
                    problems.append(
                        f"accelerator started {ev.task} at {ev.time_us} while serving "
                        f"{device_busy}"
                    )
                device_busy = ev.task
        elif ev.kind == "accel_done":
            if policy in (RR, NPFP):
                if device_busy != ev.task:
                    problems.append(f"completion without service: {ev.task} at {ev.time_us}")
                device_busy = None
    return problems
