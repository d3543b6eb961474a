"""Data model: validation, JSON round-trips, WCET scaling, builtin instance."""

import json
from fractions import Fraction

import pytest

from hetsched.analysis import analyze
from hetsched.bruteforce import best_assignment
from hetsched.milp import build_milp
from hetsched.model import (
    Assignment,
    ChainSpec,
    Core,
    ImplType,
    ModelError,
    PlatformSpec,
    ProblemInstance,
    SegmentSpec,
    TaskSpec,
    assignment_from_json,
    assignment_to_json,
    builtin_waters,
    instance_from_dict,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    load_instance,
    scale_wcets,
    validate_assignment,
    validate_instance,
    waters_published_assignment,
)
from hetsched.simulator import simulate


@pytest.fixture
def tiny():
    """Two tasks on one core type; the second may offload its only segment."""
    platform = PlatformSpec(
        core_types=("big",),
        cores=(Core("c0", "big"), Core("c1", "big")),
        accelerator=True,
    )
    t1 = TaskSpec(
        id="t1",
        period_us=10_000,
        deadline_us=10_000,
        segments=(SegmentSpec(impl=ImplType.CPU, exec_us={"big": 2_000}),),
    )
    t2 = TaskSpec(
        id="t2",
        period_us=20_000,
        deadline_us=20_000,
        segments=(
            SegmentSpec(
                impl=ImplType.CPU_HWA,
                exec_us={"big": 9_000},
                offload_us={"big": 1_000},
                finalize_us={"big": 500},
                accel_us=4_000,
            ),
        ),
    )
    chain = ChainSpec(id="ch", tasks=("t1", "t2"))
    return ProblemInstance(platform=platform, tasks=(t1, t2), chains=(chain,))


def test_valid_instance_has_no_violations(tiny):
    assert validate_instance(tiny) == []


def test_duplicate_task_id_is_flagged(tiny):
    bad = ProblemInstance(
        platform=tiny.platform, tasks=tiny.tasks + (tiny.tasks[0],), chains=()
    )
    msgs = [v.message for v in validate_instance(bad)]
    assert any("duplicate task id" in m for m in msgs)


def test_deadline_must_not_exceed_period(tiny):
    t = TaskSpec(
        id="late",
        period_us=5_000,
        deadline_us=6_000,
        segments=(SegmentSpec(impl=ImplType.CPU, exec_us={"big": 1}),),
    )
    bad = ProblemInstance(platform=tiny.platform, tasks=(t,), chains=())
    paths = [v.path for v in validate_instance(bad)]
    assert "tasks[0].deadline_us" in paths


def test_missing_wcet_for_core_type_is_flagged(tiny):
    t = TaskSpec(
        id="partial",
        period_us=5_000,
        deadline_us=5_000,
        segments=(SegmentSpec(impl=ImplType.CPU, exec_us={}),),
    )
    bad = ProblemInstance(platform=tiny.platform, tasks=(t,), chains=())
    assert any("missing WCET" in v.message for v in validate_instance(bad))


def test_cpu_only_segment_rejects_accelerator_fields(tiny):
    t = TaskSpec(
        id="mixed",
        period_us=5_000,
        deadline_us=5_000,
        segments=(SegmentSpec(impl=ImplType.CPU, exec_us={"big": 1}, accel_us=10),),
    )
    bad = ProblemInstance(platform=tiny.platform, tasks=(t,), chains=())
    assert any("cannot have accelerator WCETs" in v.message for v in validate_instance(bad))


def test_chain_referencing_unknown_task_is_flagged(tiny):
    bad = ProblemInstance(
        platform=tiny.platform,
        tasks=tiny.tasks,
        chains=(ChainSpec(id="ch", tasks=("t1", "ghost")),),
    )
    assert any("ghost" in v.message for v in validate_instance(bad))


ROUTES = {
    "analyze": lambda inst, asg: analyze(inst, asg, "rr"),
    "best_assignment": lambda inst, asg: best_assignment(inst, "rr", "minmax-rt"),
    "simulate": lambda inst, asg: simulate(inst, asg, "rr"),
    "build_milp": lambda inst, asg: build_milp(inst, "rr", "minmax-rt"),
}


@pytest.mark.parametrize("route", sorted(ROUTES))
@pytest.mark.parametrize("fault", ["missing WCET", "period 0"])
def test_every_route_rejects_a_malformed_instance(tiny, route, fault):
    # t1 runs on the core whose type its segment gives no WCET for, so a
    # route that read that WCET before checking would raise a KeyError.
    t1, t2 = tiny.tasks
    if fault == "missing WCET":
        platform = PlatformSpec(
            core_types=("big", "b"), cores=(Core("c0", "big"), Core("c1", "b"))
        )
        bad = ProblemInstance(platform=platform, tasks=(t1, t2), chains=tiny.chains)
        reason = "missing WCET for core type 'b'"
    else:
        t1 = TaskSpec(id="t1", period_us=0, deadline_us=0, segments=t1.segments)
        bad = ProblemInstance(platform=tiny.platform, tasks=(t1, t2), chains=tiny.chains)
        reason = "period must be positive"
    asg = Assignment(
        core_of={"t1": "c1", "t2": "c0"}, priority_of={"t1": 2, "t2": 1}, accelerated={}
    )
    with pytest.raises(ModelError, match="invalid instance") as err:
        ROUTES[route](bad, asg)
    assert reason in str(err.value)


def test_instance_json_round_trip(tiny):
    assert instance_from_json(instance_to_json(tiny)) == tiny


def test_unknown_keys_are_rejected(tiny):
    doc = instance_to_dict(tiny)
    doc["tasks"][0]["wcet"] = 123
    with pytest.raises(ModelError, match="unknown keys"):
        instance_from_dict(doc)


def test_missing_required_key_is_rejected(tiny):
    doc = instance_to_dict(tiny)
    del doc["tasks"][0]["period_us"]
    with pytest.raises(ModelError, match="period_us"):
        instance_from_dict(doc)


def test_non_integer_wcet_is_rejected(tiny):
    doc = instance_to_dict(tiny)
    doc["tasks"][0]["segments"][0]["exec_us"]["big"] = 1.5
    with pytest.raises(ModelError, match="expected an integer"):
        instance_from_dict(doc)


def test_string_accel_wcet_is_rejected(tiny):
    doc = instance_to_dict(tiny)
    doc["tasks"][1]["segments"][0]["accel_us"] = "5"
    with pytest.raises(ModelError, match=r"segments\[0\]\.accel_us: expected an integer"):
        instance_from_dict(doc)


@pytest.mark.parametrize("key", ["period_us", "deadline_us"])
def test_boolean_period_or_deadline_is_rejected(tiny, key):
    doc = instance_to_dict(tiny)
    doc["tasks"][0][key] = True
    with pytest.raises(ModelError, match=rf"tasks\[0\]\.{key}: expected an integer"):
        instance_from_dict(doc)


def test_load_instance_from_file(tmp_path, tiny):
    p = tmp_path / "inst.json"
    p.write_text(instance_to_json(tiny))
    assert load_instance(str(p)) == tiny


def test_load_unknown_builtin_fails():
    with pytest.raises(ModelError, match="unknown builtin"):
        load_instance("builtin:nope")


# -- assignments -------------------------------------------------------------


def test_assignment_round_trip():
    a = Assignment(
        core_of={"t1": "c0", "t2": "c1"},
        priority_of={"t1": 2, "t2": 1},
        accelerated={"t1": frozenset(), "t2": frozenset({0})},
    )
    assert assignment_from_json(assignment_to_json(a)) == a


def test_assignment_priorities_must_be_permutation(tiny):
    a = Assignment(
        core_of={"t1": "c0", "t2": "c0"},
        priority_of={"t1": 1, "t2": 1},
        accelerated={},
    )
    assert any("permutation" in v.message for v in validate_assignment(tiny, a))


def test_assignment_cannot_accelerate_cpu_only_segment(tiny):
    a = Assignment(
        core_of={"t1": "c0", "t2": "c1"},
        priority_of={"t1": 2, "t2": 1},
        accelerated={"t1": frozenset({0})},
    )
    assert any(
        "cannot run on the accelerator" in v.message for v in validate_assignment(tiny, a)
    )


def test_assignment_must_accelerate_forced_segments():
    platform = PlatformSpec(core_types=("big",), cores=(Core("c0", "big"),))
    t = TaskSpec(
        id="gpuonly",
        period_us=10_000,
        deadline_us=10_000,
        segments=(
            SegmentSpec(
                impl=ImplType.HWA,
                offload_us={"big": 100},
                finalize_us={"big": 0},
                accel_us=5_000,
            ),
        ),
    )
    inst = ProblemInstance(platform=platform, tasks=(t,), chains=())
    a = Assignment(core_of={"gpuonly": "c0"}, priority_of={"gpuonly": 1}, accelerated={})
    assert any("must be accelerated" in v.message for v in validate_assignment(inst, a))


# -- WCET scaling ------------------------------------------------------------


def test_scaling_rounds_up_to_whole_microseconds(tiny):
    scaled = scale_wcets(tiny, "0.8")
    # 9000 * 0.8 = 7200 exactly; 500 * 0.8 = 400; 2000 * 0.8 = 1600.
    assert scaled.tasks[1].segments[0].exec_us["big"] == 7_200
    assert scaled.tasks[1].segments[0].finalize_us["big"] == 400
    assert scaled.tasks[0].segments[0].exec_us["big"] == 1_600
    # Periods and deadlines are untouched.
    assert scaled.tasks[0].period_us == tiny.tasks[0].period_us


def test_scaling_is_exact_for_decimal_factors():
    # 15 * 0.8 must give 12, not the 13 a binary-float ceiling would produce.
    platform = PlatformSpec(core_types=("big",), cores=(Core("c0", "big"),), accelerator=False)
    t = TaskSpec(
        id="t",
        period_us=100,
        deadline_us=100,
        segments=(SegmentSpec(impl=ImplType.CPU, exec_us={"big": 15}),),
    )
    inst = ProblemInstance(platform=platform, tasks=(t,), chains=())
    assert scale_wcets(inst, 0.8).tasks[0].segments[0].exec_us["big"] == 12
    assert scale_wcets(inst, "0.8").tasks[0].segments[0].exec_us["big"] == 12
    assert scale_wcets(inst, Fraction(4, 5)).tasks[0].segments[0].exec_us["big"] == 12


def test_scaling_rejects_non_positive_factor(tiny):
    with pytest.raises(ModelError):
        scale_wcets(tiny, 0)
    with pytest.raises(ModelError):
        scale_wcets(tiny, "-1")


def test_scaling_localization_cpu_wcet_at_080():
    inst = builtin_waters()
    scaled = scale_wcets(inst, "0.8")
    loc = scaled.task("localization")
    # ceil(407811 * 4/5) = ceil(326248.8) = 326249
    assert loc.segments[0].exec_us["a57"] == 326_249


# -- builtin benchmark -------------------------------------------------------


def test_builtin_waters_shape_and_validity():
    inst = builtin_waters()
    assert len(inst.tasks) == 9
    assert len(inst.platform.cores) == 6
    assert len(inst.chains) == 8
    assert validate_instance(inst) == []
    # Implicit deadlines throughout.
    assert all(t.deadline_us == t.period_us for t in inst.tasks)
    # Exactly four tasks can use the accelerator, one of them exclusively.
    accelerable = [t.id for t in inst.tasks if t.accelerable_segments()]
    assert sorted(accelerable) == ["detection", "lane_detection", "localization", "sfm"]
    assert inst.task("detection").forced_segments() == [0]


def test_builtin_waters_spot_wcets():
    inst = builtin_waters()
    assert inst.task("lidar_grabber").segments[0].exec_us == {"a57": 14_379, "denver": 10_868}
    assert inst.task("planner").period_us == 15_000
    assert inst.task("sfm").segments[0].accel_us == 7_900
    assert inst.task("detection").segments[0].offload_us["denver"] == 4_086
    assert inst.task("localization").segments[0].exec_us["a57"] == 407_811


def test_builtin_waters_json_round_trip():
    inst = builtin_waters()
    text = instance_to_json(inst)
    assert instance_from_json(text) == inst
    # And the text itself is stable.
    assert instance_to_json(instance_from_json(text)) == text


def test_published_assignment_is_well_formed():
    inst = builtin_waters()
    a = waters_published_assignment()
    assert validate_assignment(inst, a) == []
    assert a.accelerated_of("detection") == frozenset({0})
    assert sum(bool(a.accelerated_of(t.id)) for t in inst.tasks) == 1
    # dasm and can_polling share a core in the published deployment.
    assert a.core_of["dasm"] == a.core_of["can_polling"]


def test_segment_cpu_wcet_helper(tiny):
    seg = tiny.tasks[1].segments[0]
    assert seg.cpu_wcet("big", accelerated=False) == 9_000
    assert seg.cpu_wcet("big", accelerated=True) == 1_500


def test_json_is_deterministic(tiny):
    assert instance_to_json(tiny) == instance_to_json(tiny)
    d = json.loads(instance_to_json(tiny))
    assert list(d) == sorted(d)
