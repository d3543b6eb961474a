"""Discrete-event simulation: dispatching, arbitration, and trace validation."""

import gc
import hashlib
import json
import random
import sys
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

from hetsched.analysis import CONSERVATIVE, EXACT, POLICIES, analyze
from hetsched.model import ModelError, builtin_waters, waters_published_assignment
from hetsched.simulator import SimEvent, simulate, validate_trace


def test_periodic_task_runs_every_period():
    t = make_task("t", 10_000, [seg_cpu(3_000)])
    inst = make_instance([t], n_cores=1)
    res = simulate(inst, assign({"t": "c0"}, {"t": 1}), "rr")
    assert res.horizon_us == 20_000
    assert res.jobs_finished["t"] == 2
    assert res.observed("t") == 3_000
    assert res.deadline_misses == []
    assert not res.truncated
    assert validate_trace(res.events, "rr") == []


def test_higher_priority_release_preempts():
    hi = make_task("hi", 5_000, [seg_cpu(1_000)])
    lo = make_task("lo", 20_000, [seg_cpu(6_000)])
    inst = make_instance([hi, lo], n_cores=1)
    res = simulate(inst, assign({"hi": "c0", "lo": "c0"}, {"hi": 2, "lo": 1}), "rr")
    assert res.observed("hi") == 1_000
    # lo: 4000 done by t=5000, preempted 1000, finishes its last 2000 at 8000
    assert res.observed("lo") == 8_000
    events = map(SimEvent._make, res.events)
    preempts = [e for e in events if e.kind == "stop" and e.cause == "preempt"]
    assert any(e.task == "lo" and e.time_us == 5_000 for e in preempts)
    assert validate_trace(res.events, "rr") == []


def _offload_pair():
    t1 = make_task("t1", 50_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    t2 = make_task("t2", 50_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    inst = make_instance([t1, t2])
    asg = assign(
        {"t1": "c0", "t2": "c1"},
        {"t1": 1, "t2": 2},
        {"t1": {0}, "t2": {0}},
    )
    return inst, asg


def test_round_robin_serializes_the_accelerator():
    inst, asg = _offload_pair()
    res = simulate(inst, asg, "rr")
    # Both offloads land at t=1000; the turn pointer favors t1, t2 waits out
    # t1's 4000 processing, and each spends 500 finalizing.
    assert res.observed("t1") == 5_500
    assert res.observed("t2") == 9_500
    assert validate_trace(res.events, "rr") == []
    starts = [e for e in map(SimEvent._make, res.events) if e.kind == "accel_start"]
    assert [e.task for e in starts[:2]] == ["t1", "t2"]


def test_round_robin_observation_meets_the_analytic_bound():
    inst, asg = _offload_pair()
    res = simulate(inst, asg, "rr")
    report = analyze(inst, asg, "rr", mode=CONSERVATIVE)
    for tid in ("t1", "t2"):
        assert res.observed(tid) <= report.task(tid).wcrt_us
    # t2 experiences the full cross-interference the suspension bound charges.
    assert res.observed("t2") == report.task("t2").wcrt_us


def test_priority_arbitration_serves_the_urgent_task_first():
    inst, asg = _offload_pair()
    res = simulate(inst, asg, "npfp")
    # t2 holds the higher priority, so the simultaneous requests resolve t2-first.
    assert res.observed("t2") == 5_500
    assert res.observed("t1") == 9_500
    starts = [e for e in map(SimEvent._make, res.events) if e.kind == "accel_start"]
    assert [e.task for e in starts[:2]] == ["t2", "t1"]
    assert validate_trace(res.events, "npfp") == []


def test_contention_free_accelerator_runs_requests_in_parallel():
    inst, asg = _offload_pair()
    res = simulate(inst, asg, "nocontention")
    assert res.observed("t1") == res.observed("t2") == 5_500
    assert validate_trace(res.events, "nocontention") == []
    # The same trace is illegal for a serializing accelerator.
    assert validate_trace(res.events, "rr") != []


# name, a broken trace, then the one problem validate_trace reports
BROKEN_TRACES = [
    ("time goes backwards", [SimEvent(10, "release", "a"), SimEvent(5, "release", "a")],
     "time went backwards at 5 (release a)"),
    ("second run on a busy core", [SimEvent(0, "run", "a", "c0"), SimEvent(1, "run", "b", "c0")],
     "c0 dispatched b at 1 while running a"),
    ("stop without run", [SimEvent(3, "stop", "a", "c0")], "stop without run: a on c0 at 3"),
    ("unknown event kind", [SimEvent(0, "release", "a"), SimEvent(2, "teleport", "a", "c0")],
     "unknown event kind 'teleport': a at 2"),
    ("one task on two cores", [SimEvent(0, "run", "a", "c0"), SimEvent(1, "run", "a", "c1")],
     "a dispatched on c1 at 1, away from its core c0"),
    ("service without request", [SimEvent(3, "accel_start", "x")],
     "service without request: x at 3"),
    ("completion without service", [SimEvent(0, "accel_done", "x")],
     "completion without service: x at 0"),
    ("run during a request", [SimEvent(0, "offload", "x"), SimEvent(1, "run", "x", "c0")],
     "x dispatched on c0 at 1 during its accelerator request"),
]


@pytest.mark.parametrize(
    "events, problem", [row[1:] for row in BROKEN_TRACES], ids=[row[0] for row in BROKEN_TRACES]
)
def test_validate_trace_reports_a_broken_trace(events, problem):
    for policy in POLICIES:
        assert validate_trace(events, policy) == [problem]


def test_zero_length_phases_pass_through():
    instant_finalize = make_task("a", 20_000, [seg_hwa(300, 0, 2_000)])
    instant_offload = make_task("b", 20_000, [seg_hwa(0, 200, 1_000)])
    inst = make_instance([instant_finalize, instant_offload])
    asg = assign(
        {"a": "c0", "b": "c1"},
        {"a": 2, "b": 1},
        {"a": {0}, "b": {0}},
    )
    res = simulate(inst, asg, "nocontention")
    assert res.observed("a") == 2_300  # finish coincides with accel_done
    assert res.observed("b") == 1_200  # request issued directly at release
    assert validate_trace(res.events, "nocontention") == []


def test_deadline_misses_are_recorded():
    t = make_task("t", 5_000, [seg_cpu(6_000)])
    inst = make_instance([t], n_cores=1)
    res = simulate(inst, assign({"t": "c0"}, {"t": 1}), "rr", horizon_us=20_000)
    assert res.deadline_misses
    task, release, finish = res.deadline_misses[0]
    assert task == "t" and finish - release > 5_000


def test_overload_eventually_truncates():
    t = make_task("t", 5_000, [seg_cpu(6_000)], deadline=5_000)
    inst = make_instance([t], n_cores=1)
    # Utilization 1.2: the backlog outgrows the post-horizon drain window.
    res = simulate(inst, assign({"t": "c0"}, {"t": 1}), "rr", horizon_us=200_000)
    assert res.truncated


def test_randomized_mode_is_seeded_and_within_worst_case():
    inst, asg = _offload_pair()
    a = simulate(inst, asg, "rr", seed=7)
    b = simulate(inst, asg, "rr", seed=7)
    assert a.events == b.events
    assert a.observed_wcrt_us == b.observed_wcrt_us
    report = analyze(inst, asg, "rr", mode=CONSERVATIVE)
    for tid in ("t1", "t2"):
        if a.observed(tid) is not None:
            assert a.observed(tid) <= report.task(tid).wcrt_us
    assert validate_trace(a.events, "rr") == []


def test_rejects_invalid_input():
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t], n_cores=1)
    with pytest.raises(ModelError, match="policy"):
        simulate(inst, assign({"t": "c0"}, {"t": 1}), "edf")
    with pytest.raises(ModelError, match="invalid"):
        simulate(inst, assign({"t": "nope"}, {"t": 1}), "rr")


def test_validator_flags_overlapping_service():
    events = [
        SimEvent(0, "offload", "x"),
        SimEvent(0, "offload", "y"),
        SimEvent(0, "accel_start", "x"),
        SimEvent(5, "accel_start", "y"),
    ]
    problems = validate_trace(events, "npfp")
    assert any("while serving" in p for p in problems)


@pytest.mark.parametrize("horizon", [0, -5, 1.5, True, "100"])
def test_rejects_a_horizon_that_is_not_a_positive_integer(horizon):
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t], n_cores=1)
    with pytest.raises(ModelError, match="horizon"):
        simulate(inst, assign({"t": "c0"}, {"t": 1}), "rr", horizon_us=horizon)


@pytest.mark.parametrize("seed", [True, 1.5, "x"])
def test_rejects_a_seed_that_is_not_an_integer(seed):
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t], n_cores=1)
    with pytest.raises(ModelError, match="seed"):
        simulate(inst, assign({"t": "c0"}, {"t": 1}), "rr", seed=seed)


def test_validator_refuses_an_unknown_policy():
    with pytest.raises(ModelError, match="policy"):
        validate_trace([], "bogus")


def test_a_run_leaves_no_reference_cycle():
    # A cycle would keep the whole trace alive after the caller drops it,
    # until the cyclic collector happens to run.
    inst, asg = builtin_waters(), waters_published_assignment()
    simulate(inst, asg, "npfp", seed=3)  # builds the instance's cached views
    gc.collect()
    gc.disable()
    try:
        simulate(inst, asg, "npfp", seed=3)
        assert gc.collect() == 0
    finally:
        gc.enable()


def test_the_trace_is_plain_tuples_the_collector_skips():
    # The collector untracks exact tuples of atomic items, never a NamedTuple.
    res = simulate(builtin_waters(), waters_published_assignment(), "npfp", seed=3)
    assert res.events
    assert all(type(e) is tuple for e in res.events)
    gc.collect()
    assert not any(gc.is_tracked(e) for e in res.events)


def test_random_deployments_stay_within_the_conservative_bounds():
    """A seeded sweep under every policy and both drives: every trace is well
    formed, and no deployment the conservative analysis accepts shows a
    response time above its bound."""
    rng = random.Random(4711)
    failures, accepted = [], 0
    for k in range(150):
        inst = random_instance(rng, max_tasks=4, util=(0.3, 1.1))
        asg = random_assignment(rng, inst)
        for policy in POLICIES:
            report = analyze(inst, asg, policy, mode=CONSERVATIVE)
            accepted += report.schedulable
            for drive in (None, k):
                res = simulate(inst, asg, policy, seed=drive)
                failures += [(k, policy, drive, p) for p in validate_trace(res.events, policy)]
                if not report.schedulable:
                    continue
                if res.truncated:
                    failures.append((k, policy, drive, "truncated"))
                for task in inst.tasks:
                    observed = res.observed(task.id)
                    if observed is not None and observed > report.task(task.id).wcrt_us:
                        failures.append((k, policy, drive, task.id, observed))
    assert failures == []
    assert accepted >= 150  # the sweep checks the bounds, not only the traces


def test_benchmark_deployment_honors_all_analytic_bounds():
    inst = builtin_waters()
    asg = waters_published_assignment()
    res = simulate(inst, asg, "rr")
    assert res.deadline_misses == []
    assert not res.truncated
    assert validate_trace(res.events, "rr") == []
    report = analyze(inst, asg, "rr", mode=EXACT)
    for task in inst.tasks:
        observed = res.observed(task.id)
        assert observed is not None
        assert observed <= report.task(task.id).wcrt_us


def test_cpu_phase_ending_into_cpu_phase_stops_the_job():
    hi = make_task("hi", 1_000, [seg_cpu(100)])
    lo = make_task("lo", 4_000, [seg_cpu(900), seg_cpu(500)])
    inst = make_instance([hi, lo], n_cores=1)
    res = simulate(inst, assign({"hi": "c0", "lo": "c0"}, {"hi": 2, "lo": 1}), "rr")
    # lo's first segment ends at 1000 (and 5000), just as hi is released and
    # takes the core: lo must leave the core before hi is dispatched.
    assert validate_trace(res.events, "rr") == []
    events = map(SimEvent._make, res.events)
    ends = [(e.time_us, e.task) for e in events if e.cause == "segment_end"]
    assert ends == [(1_000, "lo"), (5_000, "lo")]
    assert res.observed("lo") == 1_600


# ---------------------------------------------------------------------------
# Reference behaviour.  ``tests/data/sim_reference.json`` holds a digest of
# every case below as an earlier simulator produced it; any change to the
# schedule, the response times, the random draws, the event order or any
# field of any event shows up as a mismatch.  Re-record it (only on purpose) with
# ``PYTHONPATH=src:tests python tests/test_simulator.py > tests/data/sim_reference.json``.
# ---------------------------------------------------------------------------

REFERENCE = Path(__file__).parent / "data" / "sim_reference.json"


def _reference_cases():
    waters, published = builtin_waters(), waters_published_assignment()
    cases = [
        (f"waters/{policy}/{drive}", waters, published, policy, drive, None)
        for policy in POLICIES
        for drive in (None, 7)
    ]
    overload = make_instance([make_task("t", 5_000, [seg_cpu(6_000)])], n_cores=1)
    cases.append(("overload", overload, assign({"t": "c0"}, {"t": 1}), "rr", None, 200_000))
    rng = random.Random(2026)
    for k in range(60):
        inst = random_instance(rng, max_tasks=4, util=(0.3, 1.3))
        asg = random_assignment(rng, inst)
        policy = POLICIES[k % len(POLICIES)]
        drive = None if k % 2 == 0 else k
        cases.append((f"random/{k}/{policy}", inst, asg, policy, drive, None))
    for name, inst, asg in _targeted_deployments():
        cases += [
            (f"targeted/{name}/{policy}/{drive}", inst, asg, policy, drive, None)
            for policy in POLICIES
            for drive in (None, 3)
        ]
    return cases


def _targeted_deployments():
    """Small deployments that put the event loop's same-instant orderings
    on record, one corner each."""
    # Zero-length phases: a finalize and an offload that take no time.
    zero = make_instance(
        [make_task("a", 20_000, [seg_hwa(300, 0, 2_000)]),
         make_task("b", 20_000, [seg_hwa(0, 200, 1_000), seg_cpu(400)])]
    )
    zero_asg = assign({"a": "c0", "b": "c1"}, {"a": 2, "b": 1}, {"a": {0}, "b": {0}})
    # A release and a CPU completion in the same microsecond on one core:
    # hi completes at 1000 as mid (which takes no time) is released, and lo
    # at 2000 as hi and mid are.
    tie = make_instance(
        [make_task("hi", 2_000, [seg_cpu(1_000)]),
         make_task("lo", 4_000, [seg_cpu(1_000)]),
         make_task("mid", 1_000, [seg_cpu(0), seg_cpu(0)])],
        n_cores=1,
    )
    tie_asg = assign({"hi": "c0", "lo": "c0", "mid": "c0"}, {"hi": 2, "lo": 1, "mid": 3})
    # Three requests in the same microsecond from three cores.
    burst = make_instance(
        [make_task(t, 30_000, [seg_opt(6_000, 1_000, 300, 2_000)]) for t in ("x", "y", "z")],
        n_cores=3,
    )
    burst_asg = assign(
        {"x": "c0", "y": "c1", "z": "c2"},
        {"x": 2, "y": 3, "z": 1},
        {"x": {0}, "y": {0}, "z": {0}},
    )
    # A job released while its predecessor is still on the accelerator, so
    # it waits in the backlog; a CPU task shares the core.
    backlog = make_instance(
        [make_task("slow", 2_000, [seg_hwa(200, 100, 2_500)], deadline=2_000),
         make_task("cpu", 4_000, [seg_cpu(700)])],
        n_cores=1,
    )
    backlog_asg = assign({"slow": "c0", "cpu": "c0"}, {"slow": 2, "cpu": 1}, {"slow": {0}})
    return [
        ("zero-length", zero, zero_asg),
        ("release-at-completion", tie, tie_asg),
        ("simultaneous-requests", burst, burst_asg),
        ("backlog-behind-accelerator", backlog, backlog_asg),
    ]


def _digest(res) -> dict:
    """What the reference pins: outcomes plus two hashes of the event list.

    ``events_sha256`` leaves the ``segment_end`` stops out: it was recorded
    from a simulator that did not emit them (and its traces were wrong for
    it).  ``trace_sha256`` covers every event, so the full trace is pinned.
    """
    h, full = hashlib.sha256(), hashlib.sha256()
    for ev in map(SimEvent._make, res.events):
        line = json.dumps(list(ev)).encode() + b"\n"
        full.update(line)
        if not (ev.kind == "stop" and ev.cause == "segment_end"):
            h.update(line)
    return {
        "observed_wcrt_us": res.observed_wcrt_us,
        "jobs_finished": res.jobs_finished,
        "deadline_misses": [list(m) for m in res.deadline_misses],
        "truncated": res.truncated,
        "events_sha256": h.hexdigest(),
        "trace_sha256": full.hexdigest(),
    }


_CASES = _reference_cases()


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize(
    "name, inst, asg, policy, drive, horizon", _CASES, ids=[c[0] for c in _CASES]
)
def test_simulation_matches_reference(reference, name, inst, asg, policy, drive, horizon):
    res = simulate(inst, asg, policy, horizon_us=horizon, seed=drive)
    assert _digest(res) == reference[name]


if __name__ == "__main__":
    recorded = {
        name: _digest(simulate(inst, asg, policy, horizon_us=horizon, seed=drive))
        for name, inst, asg, policy, drive, horizon in _CASES
    }
    json.dump(recorded, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
