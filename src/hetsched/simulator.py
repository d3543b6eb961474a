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

The trace is a list of events in time order, each a plain tuple in
:class:`SimEvent`'s field order ``(time_us, kind, task, core, segment,
cause)``; ``SimEvent._make(event)`` gives named access.  The kinds:

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

The event loop indexes tasks and cores by integers.  It keeps the absolute
completion time of each busy core and of each request in service, so the
next event time is the least of three minima (release, accelerator, CPU) and
no running job is touched between its dispatch and its completion or
preemption.  At each instant it handles releases, accelerator completions,
CPU completions and grants, in that order, and then dispatches again only
the cores whose jobs changed state, in core order.  Only a task's oldest
job can have started, so the others are kept as release times.

:func:`validate_trace` reads each event once.  Dispatch is partitioned, so
it takes the first core each task runs on as the task's home core, reports a
``run`` on any other core, and frees only the home core on an ``offload`` or
a ``finish``.  It keeps each task's open accelerator request from its
``offload`` to its ``accel_done``, so under every policy it reports a
completion that closes no service and a ``run`` while the request is open.
"""

from __future__ import annotations

import math
import random
from collections import deque
from dataclasses import dataclass, field
from typing import NamedTuple

from hetsched.analysis import NO_CONTENTION, NPFP, POLICIES, RR, check_name
from hetsched.model import Assignment, ModelError, ProblemInstance


class SimEvent(NamedTuple):
    """The fields of a trace event, for named access and hand-made traces.

    :func:`simulate` records plain tuples in this order: CPython's cyclic
    collector stops tracking an exact tuple of atomic items at the first
    collection that sees it, but never a tuple subclass, so named events
    would be walked again by every full collection.
    """

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
    events: list[tuple] = field(default_factory=list)  # in SimEvent's field order

    def observed(self, task_id: str) -> int | None:
        return self.observed_wcrt_us[task_id]


def _phases(inst: ProblemInstance, assignment: Assignment) -> list[tuple]:
    """Each task's CPU/accelerator phase sequence, by task index, as
    ``(on_accelerator, worst_case, segment_index)``, closed by ``None``: the
    job is done."""
    ctype = {c.id: c.type for c in inst.platform.cores}
    out = []
    for task in inst.tasks:
        ct = ctype[assignment.core_of[task.id]]
        accelerated = assignment.accelerated_of(task.id)
        phases = []
        for j, seg in enumerate(task.segments):
            if j in accelerated:
                phases.append((False, seg.offload_us[ct], j))
                phases.append((True, seg.accel_us, j))
                phases.append((False, seg.finalize_us[ct], j))
            else:
                phases.append((False, seg.exec_us[ct], j))
        out.append((*phases, None))
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
    check_name(policy, POLICIES, "policy")
    if horizon_us is not None and (
        isinstance(horizon_us, bool) or not isinstance(horizon_us, int) or horizon_us <= 0
    ):
        raise ModelError(
            f"horizon must be a positive whole number of microseconds, got {horizon_us!r}"
        )
    if seed is not None and (isinstance(seed, bool) or not isinstance(seed, int)):
        raise ModelError(f"seed must be a whole number, got {seed!r}")
    # The compiled view rejects a malformed instance or deployment.  The
    # simulator reads none of its analysis tables, so that it stays
    # independent of the analysis.
    inst.compiled.check(assignment)

    randrange = random.Random(seed).randrange if seed is not None else None
    horizon = default_horizon(inst) if horizon_us is None else horizon_us
    hard_stop = horizon + 4 * max(t.deadline_us for t in inst.tasks)
    inf = math.inf

    # Tasks and cores by index, in instance order.
    task_ids = [t.id for t in inst.tasks]
    core_ids = [c.id for c in inst.platform.cores]
    n = len(task_ids)
    phases = _phases(inst, assignment)
    period = [t.period_us for t in inst.tasks]
    deadline = [t.deadline_us for t in inst.tasks]
    prio = [assignment.priority_of[tid] for tid in task_ids]
    core_index = {cid: c for c, cid in enumerate(core_ids)}
    task_core = [core_index[assignment.core_of[tid]] for tid in task_ids]
    # Each core's tasks by descending priority; the stable sort keeps task
    # order among equal priorities.
    core_tasks: list[list[int]] = [[] for _ in core_ids]
    for i in sorted(range(n), key=lambda i: -prio[i]):
        core_tasks[task_core[i]].append(i)

    # Only a task's oldest unfinished job can have started: the others wait
    # for it to finish.  So a task's jobs are the release times in its queue,
    # and the per-task lists below describe the oldest, the head job.
    next_release = [0 if randrange is None else randrange(p) for p in period]
    next_release = [r if r < horizon else inf for r in next_release]  # inf: past the horizon
    queue = [deque() for _ in task_ids]
    cursor: list = [None] * n  # the head job's phases still ahead of it
    segment = [0] * n  # the segment of its current phase
    remaining = [0] * n  # the length of that phase; stale while the job holds its core
    ready = [False] * n  # the head job is in a CPU phase (on its core or not)
    running: list[int | None] = [None] * len(core_ids)  # the task on each core
    done_at = [inf] * len(core_ids)  # absolute completion of each running job
    dirty: set[int] = set()  # cores whose jobs changed state since the last dispatch
    pending: dict[int, None] = {}  # tasks awaiting an accelerator grant, in request order
    # Requests in service as (absolute completion time, task), in grant
    # order: at most one under RR/NPFP, any number under NoContention.
    serving: list[tuple[int, int]] = []
    rr_token = 0

    events: list[tuple] = []
    emit = events.append
    observed = [-1] * n  # the longest response so far; -1 before the first
    finished = [0] * n
    misses: list[tuple[str, int, int]] = []
    truncated = False

    def advance(i: int, now: int) -> bool:
        """Move task ``i``'s head job to its next nonzero phase, issuing
        requests and finishing jobs; return whether that job finished."""
        dirty.add(task_core[i])
        upcoming = cursor[i]
        done = False
        while True:
            step = next(upcoming)
            if step is None:
                q = queue[i]
                release = q.popleft()
                response = now - release
                if response > observed[i]:
                    observed[i] = response
                finished[i] += 1
                if response > deadline[i]:
                    misses.append((task_ids[i], release, now))
                    emit((now, "deadline_miss", task_ids[i], None, None, None))
                emit((now, "finish", task_ids[i], None, None, None))
                done = True
                if not q:
                    ready[i] = False
                    return done
                # The backlogged successor enters its first phase.  (A loop,
                # not a call: a self-calling closure would be a reference
                # cycle that keeps this run's lists alive after it returns.)
                upcoming = cursor[i] = iter(phases[i])
                continue
            accel, worst, seg = step
            if worst and randrange is not None:
                worst = randrange(-(-worst // 2), worst + 1)
            if worst:
                break
            # zero-length phase: falls through instantly
        segment[i] = seg
        remaining[i] = worst
        ready[i] = not accel
        if accel:
            emit((now, "offload", task_ids[i], None, seg, None))
            pending[i] = None
        return done

    now = 0
    release_at = min(next_release)
    cpu_next = accel_next = inf
    while True:
        # 1. releases, once the earliest pending one is due
        if release_at == now:
            i = next_release.index(now)
            while True:
                q = queue[i]
                idle = not q
                q.append(now)
                emit((now, "release", task_ids[i], None, None, None))
                if idle:
                    cursor[i] = iter(phases[i])
                    advance(i, now)  # enter the first phase
                r = now + period[i]
                next_release[i] = r if r < horizon else inf
                release_at = min(next_release)
                if release_at != now:
                    break
                i = next_release.index(now, i + 1)

        # 2. accelerator completions, in grant order
        if accel_next == now:
            for done, i in [entry for entry in serving if entry[0] == now]:
                serving.remove((done, i))
                emit((now, "accel_done", task_ids[i], None, segment[i], None))
                advance(i, now)
            accel_next = min(serving)[0] if serving else inf

        # 3. CPU phase completions.  A job whose next phase is again a CPU
        # phase leaves the core here too, so it is stopped explicitly;
        # ``offload`` and ``finish`` already mark the other ways off a core.
        if cpu_next == now:
            c = done_at.index(now)
            while True:
                i = running[c]
                running[c] = None
                done_at[c] = inf
                if not advance(i, now) and ready[i]:
                    emit((now, "stop", task_ids[i], core_ids[c], None, "segment_end"))
                if now not in done_at:
                    break
                c = done_at.index(now, c + 1)

        # 4. accelerator grants (new requests may have just arrived)
        if pending and (policy == NO_CONTENTION or not serving):
            if policy == NO_CONTENTION:
                granted = sorted(pending)
            elif policy == RR:
                # Some task is pending, so the scan stops at one.
                for step in range(n):
                    i = (rr_token + step) % n
                    if i in pending:
                        rr_token = (i + 1) % n
                        break
                granted = [i]
            else:  # NPFP: highest-priority requester wins, then runs to completion
                granted = [max(pending, key=prio.__getitem__)]
            for i in granted:
                del pending[i]
                emit((now, "accel_start", task_ids[i], None, segment[i], None))
                serving.append((now + remaining[i], i))
            accel_next = min(serving)[0]

        # 5. dispatch: highest-priority ready job on each core whose jobs
        # changed state; on any other core the choice cannot have changed.
        if dirty:
            for c in sorted(dirty):
                choice = None
                for i in core_tasks[c]:
                    if ready[i]:
                        choice = i
                        break
                current = running[c]
                # A job that holds a core is in a CPU phase, so it is ready,
                # and every way out of that phase goes through step 3, which
                # frees the core first.  So a core whose holder changes gets
                # a new one, never none.
                if current != choice:
                    if current is not None:
                        remaining[current] = done_at[c] - now
                        emit((now, "stop", task_ids[current], core_ids[c], None, "preempt"))
                    emit((now, "run", task_ids[choice], core_ids[c], segment[choice], None))
                    done_at[c] = now + remaining[choice]
                    running[c] = choice
            dirty.clear()
            cpu_next = min(done_at)

        # 6. next event time
        now = release_at if release_at < cpu_next else cpu_next
        if accel_next < now:
            now = accel_next
        if now > hard_stop:
            truncated = now != inf  # nothing left to do is not a truncation
            break

    return SimResult(
        horizon_us=horizon,
        observed_wcrt_us={tid: None if r < 0 else r for tid, r in zip(task_ids, observed)},
        jobs_finished=dict(zip(task_ids, finished)),
        deadline_misses=misses,
        truncated=truncated,
        events=events,
    )


def validate_trace(events: list[tuple], policy: str) -> list[str]:
    """Structural checks on a trace; returns human-readable problems.

    The events are tuples in :class:`SimEvent`'s field order, plain or
    named.  Verifies that every core runs at most one job at a time, that
    each task runs only on its home core (the first it ran on), that the
    accelerator serves at most one request at a time under the serializing
    policies, that every service follows a request and every completion
    closes a service, that no task runs between its request and its
    completion, and that every event is of a known kind.
    """
    check_name(policy, POLICIES, "policy")
    serial = policy in (RR, NPFP)
    problems: list[str] = []
    add = problems.append
    core_busy: dict[str, str] = {}
    home: dict[str, str] = {}  # the first core each task ran on
    device_busy: str | None = None
    # Each open request, by task: False while it waits, True in service.
    request: dict[str, bool] = {}
    last_time = 0
    for time, kind, task, core, _, _ in events:
        if time < last_time:
            add(f"time went backwards at {time} ({kind} {task})")
        else:
            last_time = time
        if kind == "run":
            own = home.setdefault(task, core)
            if own != core:
                add(f"{task} dispatched on {core} at {time}, away from its core {own}")
            if task in request:
                add(f"{task} dispatched on {core} at {time} during its accelerator request")
            held = core_busy.get(core)
            if held is not None and held != task:
                add(f"{core} dispatched {task} at {time} while running {held}")
            core_busy[core] = task
        elif kind == "release":
            pass
        elif kind == "finish" or kind == "offload":
            if kind == "offload":
                request[task] = False
            own = home.get(task)
            if core_busy.get(own) == task:
                del core_busy[own]
        elif kind == "stop":
            if core_busy.get(core) != task:
                add(f"stop without run: {task} on {core} at {time}")
            else:
                del core_busy[core]
        elif kind == "accel_start":
            if request.get(task) is not False:
                add(f"service without request: {task} at {time}")
            request[task] = True
            if serial:
                if device_busy is not None:
                    add(f"accelerator started {task} at {time} while serving {device_busy}")
                device_busy = task
        elif kind == "accel_done":
            if request.pop(task, None) is not True:
                add(f"completion without service: {task} at {time}")
            if device_busy == task:
                device_busy = None
        elif kind != "deadline_miss":
            add(f"unknown event kind {kind!r}: {task} at {time}")
    return problems
