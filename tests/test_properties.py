"""Property-based checks of the analysis algebra and the mode lattice."""

import random
from fractions import Fraction

from helpers import make_instance, make_task, random_assignment, random_instance, seg_cpu
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsched.analysis import (
    CONSERVATIVE,
    EXACT,
    FIXED_POINT,
    POLICIES,
    analyze,
    checkpoints,
    chain_latency,
    demand,
    demand_test,
    rta_fixed_point,
    suspension_bounds,
)
from hetsched.model import ChainSpec, scale_wcets

interferer = st.tuples(
    st.integers(min_value=1, max_value=5_000),  # cost
    st.integers(min_value=1_000, max_value=50_000),  # period
    st.integers(min_value=0, max_value=40_000),  # jitter
)


@given(
    base=st.integers(min_value=0, max_value=20_000),
    hp=st.lists(interferer, max_size=4),
    t1=st.integers(min_value=0, max_value=100_000),
    t2=st.integers(min_value=0, max_value=100_000),
)
def test_demand_is_monotone_in_time(base, hp, t1, t2):
    lo, hi = sorted((t1, t2))
    assert demand(lo, base, hp) <= demand(hi, base, hp)


@given(
    deadline=st.integers(min_value=1, max_value=100_000),
    sources=st.lists(
        st.tuples(
            st.integers(min_value=1_000, max_value=50_000),
            st.integers(min_value=0, max_value=40_000),
        ),
        max_size=5,
    ),
)
def test_checkpoint_grid_shape(deadline, sources):
    grid = checkpoints(deadline, sources)
    assert grid, "the deadline itself is always a candidate"
    assert grid[-1] == deadline
    assert all(0 < v <= deadline for v in grid)
    assert grid == sorted(set(grid))


@given(
    base=st.integers(min_value=1, max_value=10_000),
    hp=st.lists(interferer, max_size=4),
    deadline=st.integers(min_value=1, max_value=200_000),
    sources=st.lists(
        st.tuples(
            st.integers(min_value=1_000, max_value=50_000),
            st.integers(min_value=0, max_value=40_000),
        ),
        max_size=4,
    ),
)
def test_demand_test_returns_the_first_passing_checkpoint(base, hp, deadline, sources):
    grid = checkpoints(deadline, sources)
    point = demand_test(base, grid, hp)
    if point is None:
        assert all(demand(v, base, hp) > v for v in grid)
    else:
        assert demand(point, base, hp) <= point
        earlier = [v for v in grid if v < point]
        assert all(demand(v, base, hp) > v for v in earlier)


@given(
    base=st.integers(min_value=1, max_value=10_000),
    hp=st.lists(interferer, max_size=4),
    limit=st.integers(min_value=1, max_value=150_000),
)
def test_fixed_point_result_is_a_fixed_point_within_the_limit(base, hp, limit):
    r = rta_fixed_point(base, hp, limit)
    if r is not None:
        assert base <= r <= limit
        assert r == demand(r, base, hp)


@given(
    base=st.integers(min_value=0, max_value=10_000),
    hp=st.lists(
        st.tuples(
            st.integers(min_value=1, max_value=5_000),  # accelerator time g
            st.integers(min_value=1_000, max_value=50_000),  # period
            st.integers(min_value=-60_000, max_value=40_000),  # D - g, may be negative
        ),
        max_size=4,
    ),
    limit=st.integers(min_value=1, max_value=150_000),
)
def test_negative_jitter_adds_no_negative_demand(base, hp, limit):
    # The npfp backlog's jitter D - g is negative for a rival whose
    # accelerator time exceeds its deadline.
    assert demand(0, base, hp) >= base
    r = rta_fixed_point(base, hp, limit)
    if r is not None:
        assert base <= r <= limit
        assert r == demand(r, base, hp)


@given(
    factor=st.fractions(min_value=Fraction(1, 10), max_value=Fraction(3, 1)),
    bigger=st.fractions(min_value=Fraction(1, 1), max_value=Fraction(2, 1)),
)
def test_scaling_is_monotone_and_keeps_periods(factor, bigger):
    t = make_task("t", 10_000, [seg_cpu(3_117)])
    inst = make_instance([t])
    small = scale_wcets(inst, factor)
    large = scale_wcets(inst, factor * bigger)
    s, l = small.tasks[0].segments[0], large.tasks[0].segments[0]
    assert s.exec_us["ct"] <= l.exec_us["ct"]
    assert small.tasks[0].period_us == 10_000
    assert scale_wcets(inst, 1).tasks[0].segments[0].exec_us["ct"] == 3_117


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_analysis_modes_form_a_lattice(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    asg = random_assignment(rng, inst)
    for policy in POLICIES:
        co = analyze(inst, asg, policy, mode=CONSERVATIVE)
        ex = analyze(inst, asg, policy, mode=EXACT)
        fp = analyze(inst, asg, policy, mode=FIXED_POINT)
        # a certificate from a more pessimistic mode survives refinement
        if co.schedulable:
            assert ex.schedulable
        if ex.schedulable:
            assert fp.schedulable
        for task in inst.tasks:
            r_co = co.task(task.id).wcrt_us
            r_ex = ex.task(task.id).wcrt_us
            r_fp = fp.task(task.id).wcrt_us
            if r_co is not None and r_ex is not None:
                assert r_ex <= r_co
            if r_ex is not None and r_fp is not None:
                assert r_fp <= r_ex
            # finite checkpoint answers are certificates by construction
            if r_co is not None:
                assert r_co <= task.deadline_us
            if r_ex is not None:
                assert r_ex <= task.deadline_us


@given(seed=st.integers(min_value=0, max_value=10**9))
@settings(max_examples=60, deadline=None)
def test_contention_free_suspension_never_exceeds_arbitrated(seed):
    rng = random.Random(seed)
    inst = random_instance(rng)
    asg = random_assignment(rng, inst)
    nc = suspension_bounds(inst, asg, "nocontention")
    rr = suspension_bounds(inst, asg, "rr")
    npfp = suspension_bounds(inst, asg, "npfp", mode=EXACT)
    for tid, base in nc.items():
        assert base is not None  # processing time alone is always bounded
        for other in (rr[tid], npfp[tid]):
            if other is None:
                continue
            assert len(other) == len(base)
            assert all(a >= b for a, b in zip(other, base))


@given(
    seed=st.integers(min_value=0, max_value=10**9),
    extra=st.integers(min_value=1, max_value=3),
)
@settings(max_examples=40, deadline=None)
def test_chain_latency_grows_with_every_link(seed, extra):
    rng = random.Random(seed)
    inst = random_instance(rng)
    asg = random_assignment(rng, inst)
    report = analyze(inst, asg, "rr", mode=EXACT)
    wcrt = report.wcrt()
    ids = [t.id for t in inst.tasks]
    links = [rng.choice(ids) for _ in range(extra + 1)]
    full = chain_latency(ChainSpec(id="x", tasks=tuple(links)), wcrt, inst)
    prefix = chain_latency(ChainSpec(id="y", tasks=tuple(links[:-1])), wcrt, inst)
    if full is None or prefix is None:
        assert any(report.task(t).wcrt_us is None for t in links)
    else:
        period = next(t.period_us for t in inst.tasks if t.id == links[-1])
        tail = report.task(links[-1]).wcrt_us
        assert full == prefix + period + tail
