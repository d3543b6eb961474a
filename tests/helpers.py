"""Shared builders for small synthetic instances and random test corpora."""

from __future__ import annotations

import os
import random

from hetsched.model import (
    Assignment,
    ChainSpec,
    Core,
    ImplType,
    PlatformSpec,
    ProblemInstance,
    SegmentSpec,
    TaskSpec,
)

CT = "ct"  # single core type used by the synthetic instances


def buffered_stdio_env() -> dict[str, str]:
    """This process's environment without ``PYTHONUNBUFFERED``, so that a
    child Python buffers its stdio as it does by default and a guard on its
    stdout cannot pass only because the caller's stdio is unbuffered."""
    return {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}


def seg_cpu(exec_us: int) -> SegmentSpec:
    return SegmentSpec(impl=ImplType.CPU, exec_us={CT: exec_us})


def seg_opt(exec_us: int, offload_us: int, finalize_us: int, accel_us: int) -> SegmentSpec:
    return SegmentSpec(
        impl=ImplType.CPU_HWA,
        exec_us={CT: exec_us},
        offload_us={CT: offload_us},
        finalize_us={CT: finalize_us},
        accel_us=accel_us,
    )


def seg_hwa(offload_us: int, finalize_us: int, accel_us: int) -> SegmentSpec:
    return SegmentSpec(
        impl=ImplType.HWA,
        offload_us={CT: offload_us},
        finalize_us={CT: finalize_us},
        accel_us=accel_us,
    )


def make_task(tid: str, period: int, segs, deadline: int | None = None) -> TaskSpec:
    return TaskSpec(
        id=tid,
        period_us=period,
        deadline_us=period if deadline is None else deadline,
        segments=tuple(segs),
    )


def make_instance(tasks, n_cores: int = 2, chains=(), accelerator: bool = True) -> ProblemInstance:
    platform = PlatformSpec(
        core_types=(CT,),
        cores=tuple(Core(f"c{k}", CT) for k in range(n_cores)),
        accelerator=accelerator,
    )
    return ProblemInstance(platform=platform, tasks=tuple(tasks), chains=tuple(chains))


def assign(core_of, priority_of, accelerated=None) -> Assignment:
    accelerated = accelerated or {}
    return Assignment(
        core_of=dict(core_of),
        priority_of=dict(priority_of),
        accelerated={t: frozenset(v) for t, v in accelerated.items()},
    )


# ---------------------------------------------------------------------------
# Random corpora.  Everything is driven by a caller-provided random.Random so
# test runs are reproducible.
# ---------------------------------------------------------------------------

_PERIODS = [1_000, 2_000, 4_000, 5_000, 8_000, 10_000, 16_000, 20_000]


def random_instance(
    rng: random.Random,
    max_tasks: int = 3,
    max_cores: int = 2,
    max_accelerable: int = 2,
    util: tuple[float, float] = (0.3, 0.9),
) -> ProblemInstance:
    """A small random instance with bounded size and utilization.

    At most ``max_accelerable`` segments across the whole set may use the
    accelerator, which keeps exhaustive enumeration of deployments cheap.
    """
    n_tasks = rng.randint(1, max_tasks)
    n_cores = rng.randint(1, max_cores)
    target = rng.uniform(*util)
    weights = [rng.uniform(0.2, 1.0) for _ in range(n_tasks)]
    share = target / sum(weights)

    accel_budget = max_accelerable
    tasks = []
    for i in range(n_tasks):
        period = rng.choice(_PERIODS)
        if rng.random() < 0.3:
            deadline = max(1, int(period * rng.uniform(0.6, 1.0)))
        else:
            deadline = period
        c_total = int(weights[i] * share * period)
        c_total = max(1, min(c_total, int(deadline * 0.95)))

        n_segs = rng.randint(1, 2)
        cuts = sorted(rng.randint(0, c_total) for _ in range(n_segs - 1))
        pieces = [b - a for a, b in zip([0] + cuts, cuts + [c_total])]
        segs = []
        for c in pieces:
            roll = rng.random()
            if accel_budget > 0 and roll < 0.15:
                accel_budget -= 1
                segs.append(
                    seg_hwa(
                        offload_us=max(0, int(c * rng.uniform(0.02, 0.2))),
                        finalize_us=max(0, int(c * rng.uniform(0.0, 0.1))),
                        accel_us=max(1, int(max(c, 1) * rng.uniform(0.3, 1.2))),
                    )
                )
            elif accel_budget > 0 and roll < 0.6:
                accel_budget -= 1
                segs.append(
                    seg_opt(
                        exec_us=c,
                        offload_us=max(0, int(c * rng.uniform(0.02, 0.4))),
                        finalize_us=max(0, int(c * rng.uniform(0.0, 0.2))),
                        accel_us=max(1, int(max(c, 1) * rng.uniform(0.3, 1.5))),
                    )
                )
            else:
                segs.append(seg_cpu(c))
        tasks.append(make_task(f"t{i}", period, segs, deadline=deadline))

    task_ids = [t.id for t in tasks]
    chains = []
    for k in range(1 + (rng.random() < 0.3)):
        length = rng.randint(1, n_tasks)
        chains.append(ChainSpec(id=f"ch{k}", tasks=tuple(rng.sample(task_ids, length))))
    return make_instance(tasks, n_cores=n_cores, chains=chains)


def oracle_corpus_instance(index: int) -> ProblemInstance:
    """Instance ``index`` of the ``random.Random(42)`` corpus that the oracle
    equivalence acceptance check walks through."""
    rng = random.Random(42)
    for _ in range(index):
        random_instance(rng)
    return random_instance(rng)


def random_assignment(rng: random.Random, inst: ProblemInstance) -> Assignment:
    """A uniformly random deployment (not necessarily schedulable)."""
    core_ids = [c.id for c in inst.platform.cores]
    prios = list(range(1, len(inst.tasks) + 1))
    rng.shuffle(prios)
    accelerated = {}
    for t in inst.tasks:
        chosen = set(t.forced_segments())
        for j in t.accelerable_segments():
            if j not in chosen and rng.random() < 0.5:
                chosen.add(j)
        accelerated[t.id] = frozenset(chosen)
    return Assignment(
        core_of={t.id: rng.choice(core_ids) for t in inst.tasks},
        priority_of={t.id: p for t, p in zip(inst.tasks, prios)},
        accelerated=accelerated,
    )
