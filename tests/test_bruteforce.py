"""Exhaustive search: enumeration order, counting, and agreement with the MILP;
the local search against it."""

import dataclasses
import math
import random
from fractions import Fraction

import pytest
from helpers import make_instance, make_task, random_instance, seg_cpu, seg_hwa, seg_opt

import hetsched.bruteforce
from hetsched.analysis import (
    CONSERVATIVE,
    MINMAX_LAT,
    MINMAX_RT,
    MINSUM_LAT,
    MINSUM_RT,
    NO_CONTENTION,
    NPFP,
    OBJECTIVES,
    POLICIES,
    RR,
    analyze,
    evaluate_objective,
)
from hetsched.bruteforce import (
    best_assignment,
    enumerate_assignments,
    local_search,
    search_space_size,
)
from hetsched.milp import optimize
from hetsched.model import ChainSpec, ModelError, builtin_waters, validate_assignment


@pytest.fixture
def duo():
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    return make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])


def test_search_space_counts_cores_priorities_and_acceleration(duo):
    # 2 cores^2 tasks * 2! priorities * 2^1 optional acceleration
    assert search_space_size(duo) == 16
    cands = list(enumerate_assignments(duo))
    assert len(cands) == 16
    assert len({(tuple(sorted(c.core_of.items())), tuple(sorted(c.priority_of.items())),
                 tuple(sorted((t, tuple(sorted(s))) for t, s in c.accelerated.items())))
                for c in cands}) == 16


def test_enumeration_is_deterministic_and_valid(duo):
    first = next(enumerate_assignments(duo))
    assert first.core_of == {"t1": "c0", "t2": "c0"}
    assert first.priority_of == {"t1": 1, "t2": 2}
    assert first.accelerated_of("t2") == frozenset()
    for cand in enumerate_assignments(duo):
        assert validate_assignment(duo, cand) == []


def test_forced_segments_stay_accelerated():
    t = make_task("t", 50_000, [seg_hwa(300, 200, 9_000)])
    inst = make_instance([t], n_cores=1)
    cands = list(enumerate_assignments(inst))
    assert len(cands) == 1
    assert cands[0].accelerated_of("t") == frozenset({0})


def test_limit_guards_against_exponential_blowup(duo):
    with pytest.raises(ModelError, match="limit"):
        best_assignment(duo, "rr", "minmax-lat", limit=10)


@pytest.mark.parametrize("limit", [True, 1e6, "1000"], ids=["bool", "float", "string"])
def test_limit_must_be_a_whole_number(duo, limit):
    # True used to read as the limit 1, and a float or string as a size.
    with pytest.raises(ModelError, match="limit must be a whole number"):
        best_assignment(duo, "rr", "minmax-lat", limit=limit)


def test_finds_the_known_optimum(duo):
    res = best_assignment(duo, "rr", "minmax-lat")
    assert res.objective == 29_500
    # Three mapped orders (both tasks on c0 in either order, on c1 likewise,
    # or apart) times two acceleration choices.
    assert res.evaluated == 12
    assert 0 < res.feasible < 12
    assert res.assignment.accelerated_of("t2") == frozenset({0})
    assert res.assignment.core_of["t1"] != res.assignment.core_of["t2"]


def test_agrees_with_the_milp_route(duo):
    for policy in ("rr", "npfp", "nocontention"):
        for objective in ("minmax-lat", "minsum-lat", "minmax-rt", "minsum-rt"):
            milp = optimize(duo, policy, objective)
            brute = best_assignment(duo, policy, objective)
            assert milp.ok
            assert milp.objective == brute.objective, (policy, objective)


def test_reports_when_nothing_is_schedulable():
    t = make_task("t", 10_000, [seg_cpu(12_000)])
    inst = make_instance([t])
    res = best_assignment(inst, "rr", "minmax-rt")
    assert res.objective is None
    assert res.assignment is None
    assert res.feasible == 0
    assert res.evaluated == 2


def test_ties_resolve_to_the_first_candidate():
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t], n_cores=2)
    res = best_assignment(inst, "rr", "minmax-rt")
    assert res.assignment.core_of["t"] == "c0"  # both cores tie; first wins


def test_npfp_search_keeps_every_global_order(duo):
    assert best_assignment(duo, NPFP, "minmax-lat").evaluated == 16


def _tiny_instances():
    """Eight instances with at least two tasks and two cores, where per-core
    orders are fewer than global ones."""
    rng = random.Random(11)
    out = []
    while len(out) < 8:
        inst = random_instance(rng, max_tasks=3, max_cores=3)
        if len(inst.tasks) > 1 and len(inst.platform.cores) > 1:
            out.append(inst)
    return out


def _distinct_orders(inst) -> int:
    """(n+m-1)!/(m-1)! mapped per-core orders times the acceleration choices."""
    n, m = len(inst.tasks), len(inst.platform.cores)
    optional = sum(
        len(set(t.accelerable_segments()) - set(t.forced_segments())) for t in inst.tasks
    )
    return math.factorial(n + m - 1) // math.factorial(m - 1) * 2**optional


@pytest.mark.parametrize("k", range(8))
def test_search_matches_the_full_enumeration(k):
    inst = _tiny_instances()[k]
    cands = list(enumerate_assignments(inst))
    for policy in POLICIES:
        reports = [analyze(inst, c, policy, mode=CONSERVATIVE) for c in cands]
        for objective in OBJECTIVES:
            values = [evaluate_objective(r, objective) for r in reports]
            feasible = [v for v in values if v is not None]
            res = best_assignment(inst, policy, objective)
            if not feasible:
                assert res.objective is None and res.assignment is None
                continue
            assert res.objective == min(feasible), (policy, objective)
            # Ties resolve as in the full enumeration: its first optimum.
            assert res.assignment == cands[values.index(res.objective)]
            # npfp analyzes every candidate; rr and nocontention one per
            # set of per-core orders, so at most as many are schedulable.
            if policy == NPFP:
                assert res.feasible == len(feasible), (policy, objective)
            else:
                assert 0 < res.feasible <= len(feasible), (policy, objective)
        expected = search_space_size(inst) if policy == NPFP else _distinct_orders(inst)
        assert res.evaluated == expected, policy


@pytest.mark.parametrize("policy", POLICIES)
def test_search_analyzes_through_the_module_attribute(monkeypatch, duo, policy):
    # Tracing wraps this attribute to time the search's analysis of its
    # winner: one call per search that finds a deployment, none otherwise.
    calls = []
    real = hetsched.bruteforce.analyze

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(hetsched.bruteforce, "analyze", counting)
    res = best_assignment(duo, policy, "minsum-lat")
    assert res.assignment is not None
    assert len(calls) == 1
    calls.clear()
    overloaded = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = best_assignment(overloaded, policy, "minmax-rt")
    assert res.assignment is None
    assert calls == []


def test_search_refuses_a_winner_its_analysis_values_otherwise(monkeypatch, duo):
    real = hetsched.bruteforce.analyze

    def longer_chains(*args, **kwargs):
        report = real(*args, **kwargs)
        latency = {c: v + 1 for c, v in report.chain_latency_us.items()}
        return dataclasses.replace(report, chain_latency_us=latency)

    monkeypatch.setattr(hetsched.bruteforce, "analyze", longer_chains)
    with pytest.raises(RuntimeError, match="29500, but its analysis reports 29501"):
        best_assignment(duo, "rr", "minmax-lat")


def _first_five_task_draw():
    """The first 5-task, 2-core instance of ``random.Random(5005)``."""
    rng = random.Random(5005)
    while True:
        inst = random_instance(rng, max_tasks=5, max_cores=2)
        if len(inst.tasks) == 5 and len(inst.platform.cores) == 2:
            return inst


@pytest.mark.parametrize("objective", [MINMAX_RT, MINMAX_LAT])
@pytest.mark.parametrize("policy", POLICIES)
def test_five_tasks_on_two_cores_agree_with_the_milp_route(policy, objective):
    inst = _first_five_task_draw()
    milp = optimize(inst, policy, objective)
    brute = best_assignment(inst, policy, objective)
    assert milp.ok
    assert milp.objective == brute.objective


def _local_search_corpus():
    """Every policy and objective of 30 draws of ``random.Random(2026)``, at
    most 3 tasks on 2 cores, loaded up to 1.4."""
    rng = random.Random(2026)
    for _ in range(30):
        inst = random_instance(rng, util=(0.5, 1.4))
        for policy in POLICIES:
            for objective in OBJECTIVES:
                yield inst, policy, objective


def test_local_search_values_its_deployment_and_never_beats_the_exhaustive_search():
    solvable = matched = 0
    for inst, policy, objective in _local_search_corpus():
        res = local_search(inst, policy, objective)
        assert res == local_search(inst, policy, objective)  # deterministic
        ref = best_assignment(inst, policy, objective)
        solvable += ref.objective is not None
        if res.assignment is None:
            assert res.objective is None
        else:
            report = analyze(inst, res.assignment, policy, mode=CONSERVATIVE)
            assert res.objective == evaluate_objective(report, objective)
            assert res.objective >= ref.objective
            matched += res.objective == ref.objective
        assert 0 < res.evaluated <= hetsched.bruteforce.LOCAL_SEARCH_EVALUATIONS
        assert res.feasible <= res.evaluated
    # 290 of the 320 searches whose instance has a deployment reach its optimum.
    assert matched >= 0.85 * solvable


def test_local_search_stops_at_its_evaluation_cap(monkeypatch):
    # WATERS under nocontention descends for 465 deployments before it stops.
    waters = builtin_waters()
    assert local_search(waters, NO_CONTENTION, MINMAX_LAT).evaluated == 465
    monkeypatch.setattr(hetsched.bruteforce, "LOCAL_SEARCH_EVALUATIONS", 40)
    res = local_search(waters, NO_CONTENTION, MINMAX_LAT)
    assert res.evaluated == 40


# WATERS optima, each verified by a zero-gap ``optimize`` solve.
WATERS_OPTIMA = {
    (RR, MINMAX_LAT): 761_584,
    (NPFP, MINMAX_LAT): 761_584,
    (NO_CONTENTION, MINMAX_LAT): 605_292,
    (RR, MINSUM_LAT): 1_984_570,
    (NPFP, MINSUM_LAT): 1_984_570,
    (RR, MINMAX_RT): Fraction(13_939, 15_000),
    (NPFP, MINMAX_RT): Fraction(13_939, 15_000),
    (NO_CONTENTION, MINMAX_RT): Fraction(12_437, 15_000),
    (RR, MINSUM_RT): Fraction(34_649_227, 6_600_000),
    (NO_CONTENTION, MINSUM_RT): Fraction(20_533, 5_000),
}


@pytest.mark.parametrize("objective", OBJECTIVES)
@pytest.mark.parametrize("policy", POLICIES)
def test_local_search_finds_a_waters_deployment_for_every_policy(policy, objective):
    # Under rr and npfp no single-task core move from the start lowers the
    # number of misses, so the search reaches a schedulable deployment only
    # by exchanging two tasks' cores.  It then stops at the min-max latency
    # optimum; other values seen: nocontention min-max latency 608,686,
    # rr/npfp min-sum latency 1,997,606.
    waters = builtin_waters()
    res = local_search(waters, policy, objective)
    assert res.assignment is not None
    report = analyze(waters, res.assignment, policy, mode=CONSERVATIVE)
    assert report.schedulable
    assert res.objective == evaluate_objective(report, objective)
    if (policy, objective) in WATERS_OPTIMA:
        assert res.objective >= WATERS_OPTIMA[policy, objective]
    if objective == MINMAX_LAT and policy != NO_CONTENTION:
        assert res.objective == 761_584


def test_local_search_reports_no_deployment_when_it_ends_on_a_miss():
    overloaded = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = local_search(overloaded, "rr", "minmax-rt")
    assert (res.objective, res.assignment, res.feasible) == (None, None, 0)


@pytest.mark.parametrize("search", [best_assignment, local_search])
def test_searches_refuse_a_latency_objective_without_chains(search):
    # Whether or not the instance is schedulable; an invalid one is invalid first.
    for wcet in (2_000, 12_000):
        chainless = make_instance([make_task("t", 10_000, [seg_cpu(wcet)])])
        with pytest.raises(ModelError, match="latency objectives require at least one chain"):
            search(chainless, "rr", "minmax-lat")
    t = make_task("t", 10_000, [seg_cpu(2_000)])
    with pytest.raises(ModelError, match="invalid instance"):
        search(make_instance([t, t]), "rr", "minmax-lat")


def test_local_search_rejects_unknown_names(duo):
    with pytest.raises(ModelError, match="unknown policy"):
        local_search(duo, "fifo", "minmax-lat")
    with pytest.raises(ModelError, match="unknown objective"):
        local_search(duo, "rr", "makespan")
