"""Data model: validation, JSON round-trips, WCET scaling, builtin instance."""

import hashlib
import json
import random
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    assign,
    make_instance,
    make_task,
    random_assignment,
    random_instance,
    seg_cpu,
    seg_hwa,
    seg_opt,
)

from hetsched.analysis import analyze, suspension_bounds
from hetsched.bruteforce import best_assignment
from hetsched.milp import build_milp
from hetsched.milp.decode import SolutionDecodeError, verify_solution
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
    Violation,
    assignment_from_dict,
    assignment_from_json,
    assignment_to_dict,
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


def _with_task(inst, k, **changes):
    tasks = list(inst.tasks)
    tasks[k] = replace(tasks[k], **changes)
    return replace(inst, tasks=tuple(tasks))


def _with_segment(inst, k, **changes):
    """``inst`` with the only segment of task ``k`` changed."""
    return _with_task(inst, k, segments=(replace(inst.tasks[k].segments[0], **changes),))


def _with_platform(inst, **changes):
    return replace(inst, platform=replace(inst.platform, **changes))


# name, how to break the ``tiny`` instance, then the violation's path and message
STRUCTURAL_FAULTS = [
    ("WCET for an unknown core type",
     lambda i: _with_segment(i, 0, exec_us={"big": 1, "huge": 1}),
     "tasks[0].segments[0].exec_us.huge", "unknown core type 'huge'"),
    ("non-integer WCET", lambda i: _with_segment(i, 0, exec_us={"big": 1.5}),
     "tasks[0].segments[0].exec_us.big", "WCET must be a non-negative integer"),
    ("negative WCET", lambda i: _with_segment(i, 1, offload_us={"big": -1}),
     "tasks[1].segments[0].offload_us.big", "WCET must be a non-negative integer"),
    ("no core types", lambda i: _with_platform(i, core_types=()),
     "platform.core_types", "at least one core type required"),
    ("duplicate core type", lambda i: _with_platform(i, core_types=("big", "big")),
     "platform.core_types", "duplicate core type"),
    ("no cores", lambda i: _with_platform(i, cores=()),
     "platform.cores", "at least one core required"),
    ("duplicate core id", lambda i: _with_platform(i, cores=(Core("c0", "big"),) * 2),
     "platform.cores[1]", "duplicate core id 'c0'"),
    ("undeclared core type",
     lambda i: _with_platform(i, cores=(Core("c0", "big"), Core("c1", "small"))),
     "platform.cores[1].type", "undeclared core type 'small'"),
    ("no tasks", lambda i: replace(i, tasks=(), chains=()),
     "tasks", "at least one task required"),
    ("task without segments", lambda i: _with_task(i, 0, segments=()),
     "tasks[0].segments", "task needs at least one segment"),
    ("exec_us on an accelerator-only segment",
     lambda i: _with_segment(i, 1, impl=ImplType.HWA),
     "tasks[1].segments[0].exec_us", "accelerator-only segment cannot have exec_us"),
    ("accelerable segment without an accelerator",
     lambda i: _with_platform(i, accelerator=False),
     "tasks[1].segments[0]", "platform has no accelerator but segment may use one"),
    ("missing accel_us", lambda i: _with_segment(i, 1, accel_us=None),
     "tasks[1].segments[0].accel_us", "accelerated WCET must be a non-negative integer"),
    ("negative accel_us", lambda i: _with_segment(i, 1, accel_us=-1),
     "tasks[1].segments[0].accel_us", "accelerated WCET must be a non-negative integer"),
    ("fractional accel_us", lambda i: _with_segment(i, 1, accel_us=100.5),
     "tasks[1].segments[0].accel_us", "accelerated WCET must be a non-negative integer"),
    ("boolean accel_us", lambda i: _with_segment(i, 1, accel_us=True),
     "tasks[1].segments[0].accel_us", "accelerated WCET must be a non-negative integer"),
    ("fractional period", lambda i: _with_task(i, 0, period_us=10_000.5),
     "tasks[0].period_us", "period must be an integer"),
    ("boolean period", lambda i: _with_task(i, 0, period_us=True, deadline_us=1),
     "tasks[0].period_us", "period must be an integer"),
    ("fractional deadline", lambda i: _with_task(i, 0, deadline_us=9_999.5),
     "tasks[0].deadline_us", "deadline must be an integer"),
    ("boolean deadline", lambda i: _with_task(i, 0, deadline_us=True),
     "tasks[0].deadline_us", "deadline must be an integer"),
    ("duplicate chain id", lambda i: replace(i, chains=i.chains * 2),
     "chains[1]", "duplicate chain id 'ch'"),
    ("empty chain", lambda i: replace(i, chains=(ChainSpec(id="ch", tasks=()),)),
     "chains[0].tasks", "chain must contain at least one task"),
]


@pytest.mark.parametrize(
    "breaks, path, message",
    [row[1:] for row in STRUCTURAL_FAULTS],
    ids=[row[0] for row in STRUCTURAL_FAULTS],
)
def test_structural_violation_messages(tiny, breaks, path, message):
    assert Violation(path, message) in validate_instance(breaks(tiny))


def _edited_doc(obj, path, value):
    doc = instance_to_dict(obj) if isinstance(obj, ProblemInstance) else assignment_to_dict(obj)
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    return doc


# A deployment of the ``tiny`` instance that offloads t2's segment.
TINY_DEPLOYMENT = Assignment(
    core_of={"t1": "c0", "t2": "c1"}, priority_of={"t1": 2, "t2": 1}, accelerated={"t2": {0}}
)

# Deeper than the interpreter's recursion limit lets ``json`` parse.
DEEP_JSON = "[" * 100_000 + "]" * 100_000

# name, call on the ``tiny`` instance, then the start of the ModelError's message
READER_FAULTS = [
    ("platform is a number",
     lambda i: instance_from_dict(_edited_doc(i, ("platform",), 5)), "platform: expected an object"),
    ("exec_us is a number",
     lambda i: instance_from_dict(_edited_doc(i, ("tasks", 0, "segments", 0, "exec_us"), 5)),
     "tasks[0].segments[0].exec_us: expected an object of core-type -> integer"),
    ("unknown impl",
     lambda i: instance_from_dict(_edited_doc(i, ("tasks", 0, "segments", 0, "impl"), "gpu")),
     "tasks[0].segments[0].impl: expected one of cpu/hwa/cpu_hwa"),
    ("core type is a number",
     lambda i: instance_from_dict(_edited_doc(i, ("platform", "core_types", 0), 5)),
     "platform.core_types[0]: expected a string"),
    ("accelerator is a string",
     lambda i: instance_from_dict(_edited_doc(i, ("platform", "accelerator"), "false")),
     "platform.accelerator: expected true or false"),
    ("chain link is a number",
     lambda i: instance_from_dict(_edited_doc(i, ("chains", 0, "tasks", 0), 5)),
     "chains[0].tasks[0]: expected a string"),
    ("root lacks tasks",
     lambda i: instance_from_dict({k: v for k, v in instance_to_dict(i).items() if k != "tasks"}),
     "$: missing required key 'tasks'"),
    ("root has an unknown key",
     lambda i: instance_from_dict(_edited_doc(i, ("wcet",), 1)), "$: unknown keys ['wcet']"),
    # A priority table is an object like a WCET table, but says so plainly.
    ("priority_of is a number",
     lambda i: assignment_from_dict(_edited_doc(TINY_DEPLOYMENT, ("priority_of",), 5)),
     "priority_of: expected an object"),
    # An offloaded index is named by its list, not by its position.
    ("accelerated index is a string",
     lambda i: assignment_from_dict(_edited_doc(TINY_DEPLOYMENT, ("accelerated", "t2", 0), "0")),
     "accelerated.t2: expected an integer"),
    ("scale factor is a list", lambda i: scale_wcets(i, [1]),
     "unsupported scale factor type: list"),
    # A bool is an int, and True read as the factor 1.
    ("scale factor is a bool", lambda i: scale_wcets(i, True),
     "unsupported scale factor type: bool"),
    ("instance nested too deep", lambda i: instance_from_json(DEEP_JSON), "invalid JSON: "),
    ("assignment nested too deep", lambda i: assignment_from_json(DEEP_JSON), "invalid JSON: "),
]


@pytest.mark.parametrize(
    "call, message", [row[1:] for row in READER_FAULTS], ids=[row[0] for row in READER_FAULTS]
)
def test_reader_faults_are_model_errors(tiny, call, message):
    with pytest.raises(ModelError) as err:
        call(tiny)
    assert str(err.value).startswith(message)


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


# sha256 of every document below, concatenated in order.  A change to the
# document format updates the recorded digest on purpose.
JSON_DIGEST = json.loads((Path(__file__).parent / "data" / "json_digest.json").read_text())


def test_json_text_matches_the_recorded_digest():
    rng = random.Random(2019)
    texts = [instance_to_json(builtin_waters()), assignment_to_json(waters_published_assignment())]
    for _ in range(200):
        inst = random_instance(rng)
        texts += [instance_to_json(inst), assignment_to_json(random_assignment(rng, inst))]
    digest = hashlib.sha256("".join(texts).encode()).hexdigest()
    assert (len(texts), digest) == (JSON_DIGEST["documents"], JSON_DIGEST["sha256"])


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


# One CPU-only, one optional and one accelerator-only task, and a valid
# deployment of them that each row of BROKEN_DEPLOYMENTS breaks one way.
TRIO = make_instance(
    [
        make_task("t1", 10_000, [seg_cpu(1_000)]),
        make_task("t2", 20_000, [seg_opt(4_000, 500, 200, 2_000), seg_cpu(1_000)]),
        make_task("t3", 40_000, [seg_hwa(300, 100, 5_000)]),
    ]
)
CORES = {"t1": "c0", "t2": "c1", "t3": "c0"}
PRIOS = {"t1": 3, "t2": 2, "t3": 1}
ACCEL = {"t3": {0}}

BROKEN_DEPLOYMENTS = [
    # name, core_of, priority_of, accelerated, then the violation's path and message
    ("missing core", {"t1": "c0", "t3": "c0"}, PRIOS, ACCEL,
     "core_of.t2", "missing core"),
    ("unknown core", {**CORES, "t2": "c9"}, PRIOS, ACCEL,
     "core_of.t2", "unknown core 'c9'"),
    ("missing priority", CORES, {"t2": 2, "t3": 1}, ACCEL,
     "priority_of.t1", "missing priority"),
    ("unknown task in core_of", {**CORES, "ghost": "c0"}, PRIOS, ACCEL,
     "core_of.ghost", "unknown task"),
    ("unknown task in accelerated", CORES, PRIOS, {**ACCEL, "ghost": {0}},
     "accelerated.ghost", "unknown task"),
    ("segment out of range", CORES, PRIOS, {**ACCEL, "t2": {2}},
     "accelerated.t2", "segment index 2 out of range"),
    ("cpu-only segment accelerated", CORES, PRIOS, {**ACCEL, "t2": {1}},
     "accelerated.t2", "segment 1 cannot run on the accelerator"),
    ("forced segment missing", CORES, PRIOS, {},
     "accelerated.t3", "accelerator-only segments [0] must be accelerated"),
    ("priorities not a permutation", CORES, {"t1": 3, "t2": 3, "t3": 1}, ACCEL,
     "priority_of", "priorities must be a permutation of 1..3"),
]
BROKEN = pytest.mark.parametrize(
    "core_of, priority_of, accelerated, path, message",
    [row[1:] for row in BROKEN_DEPLOYMENTS],
    ids=[row[0] for row in BROKEN_DEPLOYMENTS],
)

# route -> (call, the error it raises, what its message starts with)
GATED_ROUTES = {
    "analyze": (lambda a: analyze(TRIO, a, "npfp"), ModelError, "invalid assignment: "),
    "suspension_bounds": (
        lambda a: suspension_bounds(TRIO, a, "rr"), ModelError, "invalid assignment: "
    ),
    "simulate": (lambda a: simulate(TRIO, a, "nocontention"), ModelError, "invalid assignment: "),
    "verify_solution": (
        lambda a: verify_solution(TRIO, a, "rr", "minmax-rt"),
        SolutionDecodeError,
        "decoded deployment is invalid: ",
    ),
}


def test_trio_deployment_is_valid():
    a = assign(CORES, PRIOS, ACCEL)
    assert validate_assignment(TRIO, a) == []
    for call, _, _ in GATED_ROUTES.values():
        call(a)


@BROKEN
def test_broken_deployment_violation(core_of, priority_of, accelerated, path, message):
    violations = validate_assignment(TRIO, assign(core_of, priority_of, accelerated))
    assert Violation(path, message) in violations


@pytest.mark.parametrize("route", sorted(GATED_ROUTES))
@BROKEN
def test_every_route_rejects_a_broken_deployment(
    route, core_of, priority_of, accelerated, path, message
):
    call, error, prefix = GATED_ROUTES[route]
    with pytest.raises(error) as err:
        call(assign(core_of, priority_of, accelerated))
    assert str(err.value).startswith(prefix)
    assert f"{path}: {message}" in str(err.value)


def test_priority_of_an_unknown_task_is_rejected():
    inst = builtin_waters()
    published = waters_published_assignment()
    ghost = replace(published, priority_of={**published.priority_of, "ghost": 99})
    assert validate_assignment(inst, ghost) == [Violation("priority_of.ghost", "unknown task")]
    with pytest.raises(ModelError, match="invalid assignment: priority_of.ghost: unknown task"):
        analyze(inst, ghost, "rr")


def test_assignment_check_needs_a_valid_instance(tiny):
    bad = ProblemInstance(
        platform=tiny.platform, tasks=(tiny.tasks[0], tiny.tasks[0]), chains=()
    )
    a = assign({"t1": "c0"}, {"t1": 1})
    with pytest.raises(ModelError, match="invalid instance: .*duplicate task id"):
        validate_assignment(bad, a)


# -- WCET scaling ------------------------------------------------------------


def test_scaling_rounds_up_to_whole_microseconds(tiny):
    scaled = scale_wcets(tiny, "0.8")
    # 9000 * 0.8 = 7200 exactly; 500 * 0.8 = 400; 2000 * 0.8 = 1600.
    assert scaled.tasks[1].segments[0].exec_us["big"] == 7_200
    assert scaled.tasks[1].segments[0].finalize_us["big"] == 400
    assert scaled.tasks[0].segments[0].exec_us["big"] == 1_600
    # 1000 * 0.8 = 800; 4000 * 0.8 = 3200.
    assert scaled.tasks[1].segments[0].offload_us["big"] == 800
    assert scaled.tasks[1].segments[0].accel_us == 3_200
    # Periods, deadlines, implementation types, the platform and the chains
    # are untouched.
    assert scaled.tasks[0].period_us == tiny.tasks[0].period_us
    assert [s.impl for t in scaled.tasks for s in t.segments] == [
        s.impl for t in tiny.tasks for s in t.segments
    ]
    assert scaled.platform == tiny.platform
    assert scaled.chains == tiny.chains
    assert scale_wcets(builtin_waters(), 1) == builtin_waters()


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
