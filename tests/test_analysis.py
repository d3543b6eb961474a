"""Self-suspending mapping, suspension bounds, WCRT analysis, chain latency."""

import pytest
from helpers import CT, assign, make_instance, make_task, seg_cpu, seg_hwa, seg_opt

from hetsched import analysis
from hetsched.analysis import (
    CONSERVATIVE,
    EXACT,
    FIXED_POINT,
    MODES,
    NO_CONTENTION,
    NPFP,
    POLICIES,
    RR,
    accel_jitter_bound,
    analyze,
    chain_latency,
    evaluate_objective,
    map_to_self_suspending,
    min_accel_wcet,
    min_cpu_wcet,
    release_jitter_bound,
    suspension_bounds,
)
from hetsched.model import (
    Core,
    ImplType,
    ModelError,
    PlatformSpec,
    ProblemInstance,
    SegmentSpec,
    builtin_waters,
    waters_published_assignment,
)


# -- mapping to the self-suspending form -------------------------------------


def test_mapping_without_acceleration_is_one_region():
    t = make_task("t", 10_000, [seg_cpu(3_000), seg_opt(5_000, 1_000, 500, 4_000), seg_cpu(2_000)])
    v = map_to_self_suspending(t, CT, frozenset())
    assert v.exec_regions_us == (10_000,)
    assert v.suspensions_us == ()
    assert not v.suspends


def test_mapping_splits_at_accelerated_segment():
    t = make_task("t", 10_000, [seg_cpu(3_000), seg_opt(5_000, 1_000, 500, 4_000), seg_cpu(2_000)])
    v = map_to_self_suspending(t, CT, frozenset({1}))
    assert v.exec_regions_us == (4_000, 2_500)
    assert v.suspensions_us == (4_000,)
    assert v.accelerated_segments == (1,)
    assert v.cpu_wcet_us == 6_500


def test_mapping_adjacent_accelerated_segments_allow_zero_regions():
    t = make_task(
        "t",
        10_000,
        [seg_opt(4_000, 0, 0, 1_000), seg_opt(4_000, 700, 300, 2_000)],
    )
    v = map_to_self_suspending(t, CT, frozenset({0, 1}))
    assert v.exec_regions_us == (0, 700, 300)
    assert v.suspensions_us == (1_000, 2_000)


def test_mapping_accelerator_only_segment():
    t = make_task("t", 10_000, [seg_hwa(200, 100, 5_000)])
    v = map_to_self_suspending(t, CT, frozenset({0}))
    assert v.exec_regions_us == (200, 100)
    assert v.suspensions_us == (5_000,)
    assert v.longest_request_us == 5_000


# -- assignment-independent constants ----------------------------------------


def test_min_cpu_wcet_picks_cheapest_configuration():
    t = make_task("t", 10_000, [seg_cpu(1_000), seg_opt(5_000, 1_000, 500, 4_000)])
    inst = make_instance([t])
    assert min_cpu_wcet(inst, t) == 1_000 + 1_500
    assert release_jitter_bound(inst, t) == 10_000 - 2_500


def test_min_cpu_wcet_reads_the_types_of_the_cores():
    # The cheaper "fast" type is declared but no core has it, so no task can
    # run that cheaply and the jitter bound must not assume it.
    platform = PlatformSpec(core_types=("slow", "fast"), cores=(Core("c0", "slow"),))
    both = {"slow": 1_000, "fast": 100}
    t0 = make_task(
        "t0",
        10_000,
        [SegmentSpec(ImplType.CPU_HWA, exec_us=both, offload_us=both,
                     finalize_us={"slow": 0, "fast": 0}, accel_us=2_000)],
    )
    t1 = make_task("t1", 10_000, [SegmentSpec(ImplType.CPU, exec_us=both)])
    inst = ProblemInstance(platform=platform, tasks=(t0, t1))
    assert min_cpu_wcet(inst, t0) == 1_000
    assert inst.compiled.min_cpu == (1_000, 1_000)
    assert inst.compiled.jitter == (9_000, 0)


def test_cpu_only_task_has_no_release_jitter():
    t = make_task("t", 10_000, [seg_cpu(9_000)])
    inst = make_instance([t])
    assert release_jitter_bound(inst, t) == 0


def test_min_accel_wcet_forced_segments_always_count():
    t = make_task("t", 10_000, [seg_hwa(100, 0, 3_000), seg_opt(500, 50, 50, 2_000)])
    inst = make_instance([t])
    assert min_accel_wcet(t) == 3_000
    assert accel_jitter_bound(inst, t) == 7_000


def test_min_accel_wcet_optional_takes_cheapest():
    t = make_task("t", 10_000, [seg_opt(500, 50, 50, 2_000), seg_opt(500, 50, 50, 900)])
    assert min_accel_wcet(t) == 900


def test_waters_constants():
    inst = builtin_waters()
    assert min_cpu_wcet(inst, inst.task("sfm")) == 6_711
    assert release_jitter_bound(inst, inst.task("sfm")) == 26_289
    assert release_jitter_bound(inst, inst.task("lidar_grabber")) == 0
    assert min_accel_wcet(inst.task("detection")) == 116_000
    assert accel_jitter_bound(inst, inst.task("detection")) == 84_000


# -- suspension bounds per policy ---------------------------------------------


def _three_offloaders():
    # Three single-segment tasks, all accelerated, processing 5000/3000/2000.
    tasks = [
        make_task("a", 40_000, [seg_opt(9_000, 100, 0, 5_000)]),
        make_task("b", 40_000, [seg_opt(9_000, 100, 0, 3_000)]),
        make_task("c", 40_000, [seg_opt(9_000, 100, 0, 2_000)]),
    ]
    inst = make_instance(tasks, n_cores=3)
    a = assign(
        {"a": "c0", "b": "c1", "c": "c2"},
        {"a": 3, "b": 2, "c": 1},
        {"a": {0}, "b": {0}, "c": {0}},
    )
    return inst, a


def test_round_robin_waits_for_one_request_per_rival():
    inst, a = _three_offloaders()
    s = suspension_bounds(inst, a, RR)
    assert s["a"] == (5_000 + 3_000 + 2_000,)
    assert s["b"] == (3_000 + 5_000 + 2_000,)
    assert s["c"] == (2_000 + 5_000 + 3_000,)


def test_no_contention_suspension_is_processing_time_only():
    inst, a = _three_offloaders()
    s = suspension_bounds(inst, a, NO_CONTENTION)
    assert s["a"] == (5_000,)
    assert s["c"] == (2_000,)


def test_npfp_high_priority_waits_out_one_blocker():
    tasks = [
        make_task("hi", 20_000, [seg_opt(6_000, 100, 0, 5_000)]),
        make_task("lo", 30_000, [seg_opt(9_000, 100, 0, 7_000)]),
    ]
    inst = make_instance(tasks)
    a = assign({"hi": "c0", "lo": "c1"}, {"hi": 2, "lo": 1}, {"hi": {0}, "lo": {0}})
    s = suspension_bounds(inst, a, NPFP)
    # One lower-priority request blocks, then ours runs: 7000 + 5000.
    assert s["hi"] == (12_000,)
    # The lower-priority task instead absorbs hi's backlog: 5000 + 7000.
    assert s["lo"] == (12_000,)


def test_npfp_unbounded_when_blocking_exceeds_deadline():
    tasks = [
        make_task("hi", 10_000, [seg_opt(2_000, 100, 0, 2_000)]),
        make_task("lo", 100_000, [seg_opt(9_000, 100, 0, 50_000)]),
    ]
    inst = make_instance(tasks)
    a = assign({"hi": "c0", "lo": "c1"}, {"hi": 2, "lo": 1}, {"hi": {0}, "lo": {0}})
    s = suspension_bounds(inst, a, NPFP)
    assert s["hi"] is None


def test_npfp_checkpointed_uses_grid_jitter_constants():
    # Sole higher-priority rival: G=4000, T=20000, D=10000, so its demand
    # jitter constant is 10000 - 4000 = 6000 and one request lands in any
    # window of interest: the wait bound is 4000 on top of our processing.
    tasks = [
        make_task("rival", 20_000, [seg_opt(3_000, 100, 0, 4_000)], deadline=10_000),
        make_task("me", 10_000, [seg_opt(2_000, 100, 0, 1_000)]),
    ]
    inst = make_instance(tasks)
    a = assign(
        {"rival": "c0", "me": "c1"},
        {"rival": 2, "me": 1},
        {"rival": {0}, "me": {0}},
    )
    assert accel_jitter_bound(inst, inst.task("rival")) == 6_000
    s = suspension_bounds(inst, a, NPFP, mode=CONSERVATIVE)
    assert s["me"] == (1_000 + 4_000,)
    # The conservative bound dominates the exact-jitter fixed point.
    exact = suspension_bounds(inst, a, NPFP, mode=EXACT)
    assert exact["me"][0] <= s["me"][0]


def test_non_suspending_task_has_empty_bound():
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t])
    a = assign({"t": "c0"}, {"t": 1})
    assert suspension_bounds(inst, a, RR) == {"t": ()}


# -- whole-assignment analysis -------------------------------------------------


def test_single_task_response_is_its_demand_not_the_deadline():
    t = make_task("t", 10_000, [seg_cpu(5_000)])
    inst = make_instance([t])
    a = assign({"t": "c0"}, {"t": 1})
    for mode in (EXACT, CONSERVATIVE, FIXED_POINT):
        assert analyze(inst, a, RR, mode=mode).task("t").wcrt_us == 5_000


def test_two_task_fixed_point_with_and_without_suspension():
    hp = make_task("hp", 4_000, [seg_cpu(1_000)])
    lo = make_task("lo", 10_000, [seg_cpu(2_000)])
    inst = make_instance([hp, lo], n_cores=1)
    a = assign({"hp": "c0", "lo": "c0"}, {"hp": 2, "lo": 1})
    rep = analyze(inst, a, RR, mode=FIXED_POINT)
    assert rep.task("hp").wcrt_us == 1_000
    assert rep.task("lo").wcrt_us == 3_000

    # Give the low task a 1000us suspension between two 1000us regions: the
    # response crosses the next release of hp and lands at 4000.
    lo2 = make_task("lo", 10_000, [seg_opt(2_000, 1_000, 1_000, 1_000)])
    inst2 = make_instance([hp, lo2], n_cores=1)
    a2 = assign({"hp": "c0", "lo": "c0"}, {"hp": 2, "lo": 1}, {"lo": {0}})
    rep2 = analyze(inst2, a2, NO_CONTENTION, mode=FIXED_POINT)
    assert rep2.task("lo").cpu_wcet_us == 2_000
    assert rep2.task("lo").suspension_us == 1_000
    assert rep2.task("lo").wcrt_us == 4_000


@pytest.mark.parametrize("mode", MODES)
def test_wcrt_exactly_at_the_deadline_is_schedulable(mode):
    # By hand: hp alone gives R = C = 2000 = D; lo's recurrence goes
    # 3000 -> 3000 + ceil(3000/10000)*2000 = 5000 -> 5000, so R = 5000 = D.
    hp = make_task("hp", 10_000, [seg_cpu(2_000)], deadline=2_000)
    lo = make_task("lo", 20_000, [seg_cpu(3_000)], deadline=5_000)
    inst = make_instance([hp, lo], n_cores=1)
    a = assign({"hp": "c0", "lo": "c0"}, {"hp": 2, "lo": 1})
    rep = analyze(inst, a, RR, mode=mode)
    assert rep.wcrt() == {"hp": 2_000, "lo": 5_000}
    assert rep.task("hp").schedulable and rep.task("lo").schedulable


def test_unschedulable_task_reports_none():
    t = make_task("t", 10_000, [seg_cpu(11_000)])
    inst = make_instance([t])
    a = assign({"t": "c0"}, {"t": 1})
    rep = analyze(inst, a, RR)
    assert rep.task("t").wcrt_us is None
    assert not rep.schedulable


def test_unbounded_suspension_propagates_to_wcrt():
    tasks = [
        make_task("hi", 10_000, [seg_opt(2_000, 100, 0, 2_000)]),
        make_task("lo", 100_000, [seg_opt(9_000, 100, 0, 50_000)]),
    ]
    inst = make_instance(tasks)
    a = assign({"hi": "c0", "lo": "c1"}, {"hi": 2, "lo": 1}, {"hi": {0}, "lo": {0}})
    rep = analyze(inst, a, NPFP)
    assert rep.task("hi").suspension_us is None
    assert rep.task("hi").wcrt_us is None


def test_analyze_rejects_invalid_assignment():
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t])
    with pytest.raises(ModelError, match="invalid assignment"):
        analyze(inst, assign({"t": "c9"}, {"t": 1}), RR)


# name, call on WATERS and its published deployment, then the ModelError's message
UNKNOWN_NAMES = [
    ("analyze policy", lambda i, a: analyze(i, a, "edf"), "unknown policy 'edf'"),
    ("suspension_bounds policy", lambda i, a: suspension_bounds(i, a, "edf"),
     "unknown policy 'edf'"),
    ("suspension_bounds mode", lambda i, a: suspension_bounds(i, a, NPFP, mode="bogus"),
     "unknown analysis mode 'bogus'"),
    ("analyze mode", lambda i, a: analyze(i, a, RR, mode="exactish"),
     "unknown analysis mode 'exactish'"),
    ("objective", lambda i, a: evaluate_objective(analyze(i, a, RR), "minmax-wcet"),
     "unknown objective 'minmax-wcet'"),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in UNKNOWN_NAMES], ids=[row[0] for row in UNKNOWN_NAMES]
)
def test_unknown_names_are_model_errors(call, message):
    with pytest.raises(ModelError) as err:
        call(builtin_waters(), waters_published_assignment())
    assert str(err.value) == message


def test_mode_ordering_on_shared_core_with_suspender():
    # A suspending high-priority task gives the conservative analysis a larger
    # jitter constant than the exact one, so bounds are ordered.
    hp = make_task("hp", 20_000, [seg_opt(2_000, 500, 500, 3_000)])
    lo = make_task("lo", 20_000, [seg_cpu(4_000)])
    inst = make_instance([hp, lo], n_cores=1)
    a = assign({"hp": "c0", "lo": "c0"}, {"hp": 2, "lo": 1}, {"hp": {0}})
    r_fp = analyze(inst, a, RR, mode=FIXED_POINT).task("lo").wcrt_us
    r_ex = analyze(inst, a, RR, mode=EXACT).task("lo").wcrt_us
    r_co = analyze(inst, a, RR, mode=CONSERVATIVE).task("lo").wcrt_us
    assert r_fp is not None and r_ex is not None and r_co is not None
    assert r_fp <= r_ex <= r_co


# -- chain latency -------------------------------------------------------------


def test_chain_latency_charges_periods_after_the_head():
    t1 = make_task("t1", 100, [seg_cpu(1)])
    t2 = make_task("t2", 200, [seg_cpu(1)])
    inst = make_instance([t1, t2])
    from hetsched.model import ChainSpec

    ch = ChainSpec(id="c", tasks=("t1", "t2"))
    assert chain_latency(ch, {"t1": 5, "t2": 7}, inst) == 5 + 7 + 200


def test_chain_latency_is_none_when_any_link_is_unschedulable():
    t1 = make_task("t1", 100, [seg_cpu(1)])
    inst = make_instance([t1])
    from hetsched.model import ChainSpec

    ch = ChainSpec(id="c", tasks=("t1",))
    assert chain_latency(ch, {"t1": None}, inst) is None


# -- reference deployment of the builtin benchmark ----------------------------


@pytest.fixture(scope="module")
def waters_reports():
    inst = builtin_waters()
    a = waters_published_assignment()
    return inst, {
        (policy, mode): analyze(inst, a, policy, mode=mode)
        for policy in (RR, NPFP)
        for mode in (EXACT, CONSERVATIVE, FIXED_POINT)
    }


def test_published_deployment_is_schedulable_under_all_modes(waters_reports):
    _, reports = waters_reports
    for rep in reports.values():
        assert rep.schedulable


def test_published_deployment_spot_wcrts(waters_reports):
    _, reports = waters_reports
    rep = reports[(RR, EXACT)]
    # lane_detection shares its Denver core with the higher-priority lidar
    # grabber; detection sits below the EKF on an A57 and carries its full
    # 116000us of GPU processing as suspension.
    assert rep.task("lane_detection").wcrt_us == 63_974
    assert rep.task("detection").suspension_us == 116_000
    assert rep.task("detection").wcrt_us == 186_101
    assert rep.task("lidar_grabber").wcrt_us == 10_868
    # With detection alone on the accelerator the policies agree.
    assert reports[(NPFP, EXACT)].task("detection").wcrt_us == 186_101
    assert reports[(RR, CONSERVATIVE)].task("detection").wcrt_us == 186_101


def test_published_deployment_chain_latencies(waters_reports):
    _, reports = waters_reports
    lat = reports[(RR, EXACT)].chain_latency_us
    assert lat["c5"] == 761_584
    assert lat["c2"] == 66_952
    assert lat["c8"] == 38_487
    assert max(v for v in lat.values()) == 761_584


def test_published_deployment_objectives(waters_reports):
    _, reports = waters_reports
    for key in ((RR, EXACT), (RR, CONSERVATIVE), (NPFP, CONSERVATIVE)):
        assert evaluate_objective(reports[key], "minmax-lat") == 761_584


def test_objective_is_none_for_unschedulable():
    t = make_task("t", 10_000, [seg_cpu(11_000)])
    inst = make_instance([t])
    rep = analyze(inst, assign({"t": "c0"}, {"t": 1}), RR)
    assert evaluate_objective(rep, "minmax-rt") is None


def test_latency_objective_requires_chains():
    # Refused before the schedulability of the report is read.
    t = make_task("t", 10_000, [seg_cpu(12_000)])
    inst = make_instance([t])
    rep = analyze(inst, assign({"t": "c0"}, {"t": 1}), RR)
    assert not rep.schedulable
    with pytest.raises(ModelError, match="chain"):
        evaluate_objective(rep, "minmax-lat")


def test_report_round_trips_to_dict(waters_reports):
    _, reports = waters_reports
    d = reports[(RR, EXACT)].to_dict()
    assert d["schedulable"] is True
    assert {row["id"] for row in d["tasks"]} == {t.id for t in builtin_waters().tasks}
    assert d["chain_latency_us"]["c5"] == 761_584


def test_compiled_instance_computes_constants_on_first_use(monkeypatch):
    waters, asg = builtin_waters(), waters_published_assignment()
    expected = {(p, m): analyze(waters, asg, p, mode=m) for p in POLICIES for m in MODES}
    assert waters.compiled is waters.compiled  # one view per instance
    fresh = builtin_waters()  # its view is not built yet

    def forbidden(*args):
        raise AssertionError("fixed-point analysis needs no jitter bound or grid")

    for name in ("release_jitter_bound", "accel_jitter_bound", "checkpoints"):
        monkeypatch.setattr(analysis, name, forbidden)
    for p in POLICIES:
        assert analyze(fresh, asg, p, mode=FIXED_POINT) == expected[p, FIXED_POINT]
    monkeypatch.undo()
    for (p, m), report in expected.items():
        assert analyze(fresh, asg, p, mode=m) == report
