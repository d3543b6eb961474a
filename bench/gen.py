"""Seeded input generator owned by the benchmark.

Everything here is driven by a caller-provided ``random.Random``, so one seed
always yields the same instances and deployments.  It deliberately does not
share code with the test helpers: editing a test must not change what the
benchmark measures.

Instances run on a heterogeneous platform of ``big`` and ``little`` cores,
where a little core executes every CPU phase ``LITTLE_SLOWDOWN`` times slower.
Sizes are passed in explicitly, so a workload can fix the mix of shapes it
draws and keep its cost steady from one seed to the next.
"""

from __future__ import annotations

import math
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
    validate_instance,
)

BIG = "big"
LITTLE = "little"
LITTLE_SLOWDOWN = 1.4
PERIODS_US = (2_000, 4_000, 5_000, 8_000, 10_000, 20_000, 40_000)
HYPERPERIOD_US = math.lcm(*PERIODS_US)  # a whole number of hyperperiods of any instance
UTILIZATION = (0.3, 0.8)  # range of the big-core utilization per core


def _on_types(cost: int, types: tuple[str, ...]) -> dict[str, int]:
    return {t: cost if t == BIG else int(cost * LITTLE_SLOWDOWN) for t in types}


def _segment(
    rng: random.Random, cost: int, kind: ImplType, types: tuple[str, ...]
) -> SegmentSpec:
    if kind is ImplType.CPU:
        return SegmentSpec(impl=kind, exec_us=_on_types(cost, types))
    offload = _on_types(max(1, int(cost * rng.uniform(0.05, 0.3))), types)
    finalize = _on_types(int(cost * rng.uniform(0.0, 0.15)), types)
    accel = max(1, int(cost * rng.uniform(0.3, 1.2)))
    if kind is ImplType.HWA:
        return SegmentSpec(impl=kind, offload_us=offload, finalize_us=finalize, accel_us=accel)
    return SegmentSpec(
        impl=kind,
        exec_us=_on_types(cost, types),
        offload_us=offload,
        finalize_us=finalize,
        accel_us=accel,
    )


def random_instance(
    rng: random.Random,
    n_tasks: int,
    n_cores: int,
    n_accelerable: int,
    forced_share: float = 0.2,
) -> ProblemInstance:
    """An instance of exactly ``n_tasks`` tasks on ``n_cores`` cores.

    Exactly ``min(n_accelerable, number of segments)`` segments may use the
    accelerator, and each of those must use it with probability
    ``forced_share``.
    """
    cores = tuple(
        Core(id=f"c{k}", type=BIG if k % 2 == 0 else LITTLE) for k in range(n_cores)
    )
    core_types = (BIG, LITTLE) if n_cores > 1 else (BIG,)
    target = rng.uniform(*UTILIZATION) * n_cores
    weights = [rng.uniform(0.3, 1.0) for _ in range(n_tasks)]
    scale = target / sum(weights)

    shapes = [rng.randint(1, 2) for _ in range(n_tasks)]  # segments per task
    slots = [(i, j) for i, n in enumerate(shapes) for j in range(n)]
    accel_slots = set(rng.sample(slots, min(n_accelerable, len(slots))))

    tasks = []
    for i, n_segs in enumerate(shapes):
        period = rng.choice(PERIODS_US)
        deadline = period if rng.random() < 0.7 else int(period * rng.uniform(0.7, 1.0))
        total = max(n_segs, min(int(weights[i] * scale * period), int(deadline * 0.9)))
        cut = rng.randint(1, total - 1) if n_segs == 2 else total
        pieces = [cut, total - cut][:n_segs]
        segs = []
        for j, cost in enumerate(pieces):
            if (i, j) not in accel_slots:
                kind = ImplType.CPU
            else:
                kind = ImplType.HWA if rng.random() < forced_share else ImplType.CPU_HWA
            segs.append(_segment(rng, cost, kind, core_types))
        tasks.append(TaskSpec(id=f"t{i}", period_us=period, deadline_us=deadline, segments=segs))

    ids = [t.id for t in tasks]
    chains = [
        ChainSpec(id=f"ch{k}", tasks=tuple(rng.sample(ids, rng.randint(1, n_tasks))))
        for k in range(rng.randint(1, 2))
    ]
    inst = ProblemInstance(
        platform=PlatformSpec(core_types=core_types, cores=cores, accelerator=True),
        tasks=tuple(tasks),
        chains=tuple(chains),
    )
    problems = validate_instance(inst)
    if problems:
        raise ValueError(f"generator made an invalid instance: {problems[0]}")
    return inst


def random_assignment(rng: random.Random, inst: ProblemInstance) -> Assignment:
    """A uniformly drawn deployment; it need not be schedulable."""
    core_ids = [c.id for c in inst.platform.cores]
    prios = list(range(1, len(inst.tasks) + 1))
    rng.shuffle(prios)
    accelerated = {}
    for t in inst.tasks:
        forced = set(t.forced_segments())
        optional = [j for j in t.accelerable_segments() if j not in forced]
        accelerated[t.id] = frozenset(forced | {j for j in optional if rng.random() < 0.5})
    return Assignment(
        core_of={t.id: rng.choice(core_ids) for t in inst.tasks},
        priority_of={t.id: p for t, p in zip(inst.tasks, prios)},
        accelerated=accelerated,
    )
