"""End-to-end sign-off checks for the whole package.

Each test prints one verdict line (``acceptance criterion N [...]: PASS``)
so a verbose run doubles as a sign-off sheet.  The four expensive benchmark
solves are shared through module-scoped fixtures; everything else is either
analytical or runs on small random corpora with fixed seeds.
"""

import math
import random
import re
import time
from fractions import Fraction

import pytest
from helpers import (
    CT,
    assign,
    make_instance,
    make_task,
    random_assignment,
    random_instance,
    seg_cpu,
    seg_opt,
)

from hetsched.analysis import (
    CONSERVATIVE,
    EXACT,
    FIXED_POINT,
    MODES,
    NO_CONTENTION,
    NPFP,
    OBJECTIVES,
    POLICIES,
    RR,
    accel_jitter_bound,
    analyze,
    checkpoints,
    demand_test,
    evaluate_objective,
    map_to_self_suspending,
    rta_fixed_point,
    suspension_bounds,
)
from hetsched.bruteforce import best_assignment, enumerate_assignments, search_space_size
from hetsched.milp import INFEASIBLE, MAX_ACCELERATION, optimize
from hetsched.milp.builder import build_milp
from hetsched.milp.lpwriter import write_lp
from hetsched.model import (
    Assignment,
    builtin_waters,
    instance_from_json,
    instance_to_json,
    scale_wcets,
    validate_instance,
    waters_published_assignment,
)
from hetsched.simulator import simulate, validate_trace

ACCELERABLE = {"detection", "lane_detection", "localization", "sfm"}

# Reference objective values for the benchmark instance (2 % tolerance) and
# the exact optima this build reaches with a zero-gap solve.
REFERENCE_NPFP_MINMAX = 761_584
REFERENCE_NPFP_MINSUM = 1_991_708
FROZEN_NPFP_MINMAX = 761_584
FROZEN_NPFP_MINSUM = 1_984_570

# Deployment the optimizer picks for the benchmark at WCET factor 0.8,
# frozen here so the scaling check stays purely analytical.
SCALED_CORE_OF = {
    "can_polling": "a57_3",
    "dasm": "a57_3",
    "detection": "a57_1",
    "ekf": "a57_0",
    "lane_detection": "a57_0",
    "lidar_grabber": "denver_1",
    "localization": "denver_0",
    "planner": "a57_2",
    "sfm": "a57_1",
}
SCALED_PRIORITY_OF = {
    "can_polling": 7,
    "dasm": 8,
    "detection": 2,
    "ekf": 6,
    "lane_detection": 3,
    "lidar_grabber": 9,
    "localization": 5,
    "planner": 4,
    "sfm": 1,
}


def _verdict(capsys, num: int, label: str, failures: list) -> None:
    line = f"acceptance criterion {num} [{label}]: {'FAIL' if failures else 'PASS'}"
    with capsys.disabled():
        print(f"\n{line}")
    assert not failures, f"{label}: " + "; ".join(str(f) for f in failures[:10])


def _accelerated_tasks(assignment: Assignment) -> set:
    return {tid for tid, segs in assignment.accelerated.items() if segs}


@pytest.fixture(scope="module")
def waters():
    return builtin_waters()


@pytest.fixture(scope="module")
def rr_minmax(waters):
    return optimize(waters, RR, "minmax-lat")


@pytest.fixture(scope="module")
def npfp_minmax(waters):
    return optimize(waters, NPFP, "minmax-lat")


@pytest.fixture(scope="module")
def npfp_minsum(waters):
    return optimize(waters, NPFP, "minsum-lat")


@pytest.fixture(scope="module")
def nc_minmax(waters):
    return optimize(waters, NO_CONTENTION, "minmax-lat", tie_break=MAX_ACCELERATION)


def test_benchmark_reconstruction(waters, capsys):
    t0 = time.perf_counter()
    failures = []
    problems = validate_instance(waters)
    if problems:
        failures.append(f"validation: {problems[:3]}")
    if instance_from_json(instance_to_json(waters)) != waters:
        failures.append("JSON round-trip changed the instance")
    if len(waters.tasks) != 9:
        failures.append(f"{len(waters.tasks)} tasks != 9")
    if len(waters.platform.cores) != 6:
        failures.append(f"{len(waters.platform.cores)} cores != 6")
    if len(waters.chains) != 8:
        failures.append(f"{len(waters.chains)} chains != 8")
    elapsed = time.perf_counter() - t0
    if elapsed >= 1.0:
        failures.append(f"took {elapsed:.2f}s, budget 1s")
    _verdict(capsys, 1, "benchmark reconstruction", failures)


def test_acceleration_decision(rr_minmax, npfp_minmax, nc_minmax, capsys):
    failures = []
    for label, res, want in (
        (RR, rr_minmax, {"detection"}),
        (NPFP, npfp_minmax, {"detection"}),
        (NO_CONTENTION, nc_minmax, ACCELERABLE),
    ):
        if not res.ok or not res.verified:
            failures.append(f"{label}: solve not verified (status {res.status})")
            continue
        got = _accelerated_tasks(res.assignment)
        if got != want:
            failures.append(f"{label}: accelerated {sorted(got)} != {sorted(want)}")
    runtime = sum(r.runtime_s or 0.0 for r in (rr_minmax, npfp_minmax, nc_minmax))
    if runtime > 1800:
        failures.append(f"solves took {runtime:.0f}s, budget 1800s")
    _verdict(capsys, 2, "acceleration decision", failures)


def test_objective_reproduction(npfp_minmax, npfp_minsum, capsys):
    failures = []
    for label, res, reference, frozen in (
        ("minmax-lat", npfp_minmax, REFERENCE_NPFP_MINMAX, FROZEN_NPFP_MINMAX),
        ("minsum-lat", npfp_minsum, REFERENCE_NPFP_MINSUM, FROZEN_NPFP_MINSUM),
    ):
        if res.objective is None:
            failures.append(f"{label}: no objective (status {res.status})")
            continue
        if res.objective != frozen:
            failures.append(f"{label}: optimum {res.objective} drifted from {frozen}")
        deviation = abs(Fraction(res.objective) - reference) / Fraction(reference)
        if deviation > Fraction(2, 100):
            failures.append(
                f"{label}: {res.objective} is {float(deviation):.2%} from {reference}"
            )
    _verdict(capsys, 3, "objective reproduction", failures)


def test_scaling_effect(waters, capsys):
    # At 80 % WCETs the cheaper Localization body makes its acceleration pay
    # for the round-robin contention it adds, so accelerating it alongside
    # Detection must not hurt the worst chain.
    t0 = time.perf_counter()
    failures = []
    inst = scale_wcets(waters, Fraction(4, 5))
    both = Assignment(
        core_of=dict(SCALED_CORE_OF),
        priority_of=dict(SCALED_PRIORITY_OF),
        accelerated={"detection": frozenset({0}), "localization": frozenset({0})},
    )
    detection_only = Assignment(
        core_of=dict(SCALED_CORE_OF),
        priority_of=dict(SCALED_PRIORITY_OF),
        accelerated={"detection": frozenset({0})},
    )
    rep_both = analyze(inst, both, RR, mode=CONSERVATIVE)
    rep_only = analyze(inst, detection_only, RR, mode=CONSERVATIVE)
    obj_both = evaluate_objective(rep_both, "minmax-lat")
    obj_only = evaluate_objective(rep_only, "minmax-lat")
    if not rep_both.schedulable or obj_both is None:
        failures.append("two-task acceleration is not schedulable")
    if not rep_only.schedulable or obj_only is None:
        failures.append("detection-only acceleration is not schedulable")
    if obj_both is not None and obj_only is not None:
        if obj_both > obj_only:
            failures.append(f"extra acceleration hurt: {obj_both} > {obj_only}")
        if (obj_both, obj_only) != (664_036, 696_270):
            failures.append(f"latencies drifted: {(obj_both, obj_only)}")
    elapsed = time.perf_counter() - t0
    if elapsed >= 10.0:
        failures.append(f"took {elapsed:.1f}s, budget 10s")
    _verdict(capsys, 4, "scaling effect", failures)


def test_oracle_equivalence(capsys):
    rng = random.Random(42)
    failures = []
    for k in range(200):
        inst = random_instance(rng)
        for policy in POLICIES:
            for objective in OBJECTIVES:
                res = optimize(inst, policy, objective)
                ref = best_assignment(inst, policy, objective)
                if ref.objective is None:
                    if res.objective is not None:
                        failures.append(
                            (k, policy, objective, "milp feasible, search is not")
                        )
                    continue
                if res.objective != ref.objective:
                    failures.append((k, policy, objective, res.objective, ref.objective))
                elif res.solver_objective is not None and abs(
                    res.solver_objective - float(ref.objective)
                ) > 1e-6 * max(1.0, abs(float(ref.objective))):
                    failures.append((k, policy, objective, "solver float drifted"))
    _verdict(capsys, 5, "oracle equivalence, 200 instances x 12 combos", failures)


def test_conservativeness(capsys):
    rng = random.Random(1234)
    failures = []
    for pair in range(1000):
        inst = random_instance(rng)
        asg = random_assignment(rng, inst)
        for policy in POLICIES:
            co = analyze(inst, asg, policy, mode=CONSERVATIVE)
            ex = analyze(inst, asg, policy, mode=EXACT)
            fp = analyze(inst, asg, policy, mode=FIXED_POINT)
            if co.schedulable and not ex.schedulable:
                failures.append((pair, policy, "checkpoint-schedulable but exact is not"))
            if ex.schedulable and not fp.schedulable:
                failures.append((pair, policy, "exact-schedulable but fixed point is not"))
            for task in inst.tasks:
                r_co = co.task(task.id).wcrt_us
                r_ex = ex.task(task.id).wcrt_us
                r_fp = fp.task(task.id).wcrt_us
                if r_co is not None and r_ex is not None and r_ex > r_co:
                    failures.append((pair, policy, task.id, "exact above conservative"))
                if r_ex is not None and r_fp is not None and r_fp > r_ex:
                    failures.append((pair, policy, task.id, "fixed point above exact"))
                # A finite checkpoint result is a certificate: it never
                # exceeds the deadline, and it can outlive the exact pass
                # only while some higher-priority task is already failing.
                if r_co is not None and r_co > task.deadline_us:
                    failures.append((pair, policy, task.id, "certificate over deadline"))
                if r_ex is not None and r_ex > task.deadline_us:
                    failures.append((pair, policy, task.id, "exact over deadline"))
                if r_co is not None and r_ex is None and co.schedulable:
                    failures.append((pair, policy, task.id, "exact gap in healthy system"))
    _verdict(capsys, 6, "conservativeness, 1000 assignment pairs", failures)


def test_simulation_safety(waters, capsys):
    failures = []
    drives = [None] + list(range(9))

    # The published benchmark deployment first, against its exact-mode bounds.
    pub = waters_published_assignment()
    report = analyze(waters, pub, RR, mode=EXACT)
    for seed in drives:
        res = simulate(waters, pub, RR, seed=seed)
        if res.deadline_misses:
            failures.append(("benchmark", seed, "missed deadlines"))
        if validate_trace(res.events, RR):
            failures.append(("benchmark", seed, "trace violation"))
        for task in waters.tasks:
            obs = res.observed(task.id)
            if obs is not None and obs > report.task(task.id).wcrt_us:
                failures.append(("benchmark", seed, task.id, obs))

    # Then random schedulable deployments against conservative bounds.
    rng = random.Random(77)
    checked = 0
    attempts = 0
    while checked < 100 and attempts < 3000:
        attempts += 1
        inst = random_instance(rng)
        asg = random_assignment(rng, inst)
        policy = POLICIES[attempts % len(POLICIES)]
        report = analyze(inst, asg, policy, mode=CONSERVATIVE)
        if not report.schedulable:
            continue
        checked += 1
        for seed in drives:
            res = simulate(inst, asg, policy, seed=seed)
            if res.deadline_misses:
                failures.append((checked, policy, seed, "missed deadlines"))
            if validate_trace(res.events, policy):
                failures.append((checked, policy, seed, "trace violation"))
            for task in inst.tasks:
                obs = res.observed(task.id)
                if obs is not None and obs > report.task(task.id).wcrt_us:
                    failures.append((checked, policy, seed, task.id, obs))
    if checked < 100:
        failures.append(f"only {checked} schedulable deployments found")
    _verdict(capsys, 7, "simulation safety, 100 deployments x 10 drives", failures)


def test_micro_cases(waters, rr_minmax, capsys):
    failures = []

    def check(cond, label):
        if not cond:
            failures.append(label)

    # Scaling rounds WCETs up.
    scaled = scale_wcets(waters, Fraction(4, 5))
    check(
        scaled.task("localization").segments[0].exec_us["a57"] == 326_249,
        "scaled localization wcet",
    )

    # Two accelerated segments fold into offload / finalize+offload / finalize.
    two = make_task("t", 50_000, [seg_opt(5_000, 700, 300, 2_000), seg_opt(4_000, 500, 100, 1_500)])
    view = map_to_self_suspending(two, CT, {0, 1})
    check(view.exec_regions_us == (700, 300 + 500, 100), "merged execution regions")
    check(view.suspensions_us == (2_000, 1_500), "suspension list")

    # Round robin: one outstanding request per rival ahead of ours.
    trio = make_instance(
        [
            make_task("a", 40_000, [seg_opt(9_000, 100, 0, 5_000)]),
            make_task("b", 40_000, [seg_opt(9_000, 100, 0, 3_000)]),
            make_task("c", 40_000, [seg_opt(9_000, 100, 0, 2_000)]),
        ],
        n_cores=3,
    )
    trio_assign = assign(
        {"a": "c0", "b": "c1", "c": "c2"},
        {"a": 3, "b": 2, "c": 1},
        {"a": {0}, "b": {0}, "c": {0}},
    )
    check(suspension_bounds(trio, trio_assign, RR)["a"] == (10_000,), "rr wait bound")

    # Priority order on the accelerator: the high task waits out one blocker.
    duo_npfp = make_instance(
        [
            make_task("hi", 20_000, [seg_opt(6_000, 100, 0, 5_000)]),
            make_task("lo", 30_000, [seg_opt(9_000, 100, 0, 7_000)]),
        ]
    )
    duo_assign = assign({"hi": "c0", "lo": "c1"}, {"hi": 2, "lo": 1}, {"hi": {0}, "lo": {0}})
    check(suspension_bounds(duo_npfp, duo_assign, NPFP)["hi"] == (12_000,), "npfp wait bound")

    # Checkpoint grids: in-window period points plus the deadline.
    check(checkpoints(10_000, [(4_000, 1_000)]) == [7_000, 10_000], "checkpoint grid")
    check(checkpoints(10_000, [(12_000, 1_000)]) == [10_000], "long-period grid")

    # The demand test reports the first passing point.
    check(demand_test(2_000, [8_000, 10_000], [(1_000, 4_000, 0)]) == 8_000, "demand test")

    # Response fixed point with and without suspension inflation.
    check(rta_fixed_point(2_000, [(1_000, 4_000, 0)], 10_000) == 3_000, "fixed point")
    check(rta_fixed_point(3_000, [(1_000, 4_000, 0)], 10_000) == 4_000, "inflated fixed point")

    # Checkpointed accelerator wait: the rival's grid constant is D - G.
    grid_inst = make_instance(
        [
            make_task("rival", 20_000, [seg_opt(3_000, 100, 0, 4_000)], deadline=10_000),
            make_task("me", 10_000, [seg_opt(2_000, 100, 0, 1_000)]),
        ]
    )
    grid_assign = assign(
        {"rival": "c0", "me": "c1"},
        {"rival": 2, "me": 1},
        {"rival": {0}, "me": {0}},
    )
    check(accel_jitter_bound(grid_inst, grid_inst.task("rival")) == 6_000, "grid jitter constant")
    bounds = suspension_bounds(grid_inst, grid_assign, NPFP, mode=CONSERVATIVE)
    check(bounds["me"] == (1_000 + 4_000,), "checkpointed wait bound")

    # Encoder shape on the benchmark instance.
    model = build_milp(waters, RR, "minmax-lat")
    names = model.col_names
    check(sum(n.startswith("x_") for n in names) == 54, "mapping variables")
    check(not any(n.startswith(("pr_", "P_")) for n in names), "no priority-level variables")
    check(sum(r.startswith("c6") for r in model.row_names) == 168, "triangle rows")
    check(sum(n.startswith("hp_") for n in names) == 72, "relation variables")
    check(sum(r.startswith("c2") for r in model.row_names) == 1_368, "same-core rows")

    # Every coefficient, bound and right-hand side stays well inside 2**40.
    # A row's right-hand side is its bound that is not -inf.
    rows = zip(model.row_lower, model.row_upper)
    magnitudes = [abs(hi if lo == -math.inf else lo) for lo, hi in rows]
    magnitudes += [abs(c) for c in model.coef]
    magnitudes += [abs(b) for b in model.col_lower]
    magnitudes += [abs(b) for b in model.col_upper if b != math.inf]
    check(all(math.isfinite(m) for m in magnitudes), "finite coefficients")
    check(max(magnitudes) < 2**40, "numeric envelope")

    # The LP text carries every row and column, each row labelled once.
    text = write_lp(model)
    labels = re.findall(r"(?m)^\s*(\w+):", text)
    check(len(labels) == len(set(labels)) == len(model.row_names) + 1, "lp row count")
    tokens = set(re.findall(r"[A-Za-z_]\w*", text))
    check(set(model.col_names) <= tokens, "lp column names")

    # The benchmark optimum decodes to a priority permutation the analysis signs off.
    if rr_minmax.assignment is None:
        failures.append("no benchmark solution to inspect")
    else:
        prios = sorted(rr_minmax.assignment.priority_of.values())
        check(prios == list(range(1, 10)), "priority permutation")
        check(
            analyze(waters, rr_minmax.assignment, RR, mode=CONSERVATIVE).schedulable,
            "optimum schedulable",
        )

    # Piling every task onto one little core cannot pass any analysis mode.
    pub = waters_published_assignment()
    crowd = Assignment(
        core_of={t.id: "a57_0" for t in waters.tasks},
        priority_of=dict(pub.priority_of),
        accelerated=dict(pub.accelerated),
    )
    for mode in MODES:
        check(not analyze(waters, crowd, RR, mode=mode).schedulable, f"one-core {mode}")

    # Enumeration size: 2 cores, 2 tasks, one optional acceleration.
    duo = make_instance(
        [
            make_task("t1", 10_000, [seg_cpu(4_000)]),
            make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)]),
        ]
    )
    check(search_space_size(duo) == 16, "search space size")
    check(sum(1 for _ in enumerate_assignments(duo)) == 16, "enumerated candidates")

    # Overload: both routes agree that nothing fits.
    over = make_instance(
        [
            make_task("t1", 10_000, [seg_cpu(6_000)]),
            make_task("t2", 10_000, [seg_cpu(6_000)]),
        ],
        n_cores=1,
    )
    check(optimize(over, RR, "minmax-rt").status == INFEASIBLE, "milp overload")
    ref = best_assignment(over, RR, "minmax-rt")
    check(ref.objective is None and ref.feasible == 0, "search overload")

    _verdict(capsys, 8, "hand-checked micro cases", failures)
