"""End-to-end deployment optimization on small instances."""

import json
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import make_instance, make_task, oracle_corpus_instance, seg_cpu, seg_opt

from hetsched.bruteforce import best_assignment
from hetsched.milp import INFEASIBLE, MAX_ACCELERATION, OPTIMAL, ScipyBackend, optimize
from hetsched.milp.builder import COEFFICIENT_LIMIT, encoding_magnitude
from hetsched.model import ChainSpec, ModelError, instance_from_dict, validate_instance

# Three small instances on which HiGHS's presolve cut off the optimum of the
# MILP without the aggregated cuts c11e/c18e: it claimed 0.7073 against the
# true 0.7072, reported "infeasible" against 0.8516, and claimed 1.4704
# against 1.4167.
PRESOLVE_CUTOFFS = json.loads(
    (Path(__file__).parent / "data" / "presolve_cutoffs.json").read_text()
)


@pytest.fixture
def tiny():
    # Accelerating t2 turns a 9000 execution into 1500 on-CPU plus a 4000
    # suspension, which both shortens the chain and frees its core.
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    return make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])


def test_minimizes_chain_latency(tiny):
    res = optimize(tiny, "rr", "minmax-lat")
    assert res.status == OPTIMAL
    assert res.ok and res.verified
    # R(t1)=4000 and R(t2)=1500+4000 on separate cores, plus t2's period.
    assert res.objective == 29_500
    assert res.assignment.accelerated_of("t2") == frozenset({0})
    assert res.assignment.core_of["t1"] != res.assignment.core_of["t2"]
    assert res.report.schedulable


def test_solver_and_analysis_agree_on_the_optimum(tiny):
    res = optimize(tiny, "npfp", "minmax-lat")
    assert res.ok
    assert res.solver_objective == pytest.approx(float(res.objective), abs=1e-5)


def test_minimizes_worst_normalized_response_time(tiny):
    res = optimize(tiny, "nocontention", "minmax-rt")
    assert res.ok
    assert res.objective == Fraction(4_000, 10_000)


def test_minimizes_total_normalized_response_time(tiny):
    res = optimize(tiny, "rr", "minsum-rt")
    assert res.ok
    assert res.objective == Fraction(4_000, 10_000) + Fraction(5_500, 20_000)


def test_single_chain_sum_equals_max(tiny):
    res = optimize(tiny, "rr", "minsum-lat")
    assert res.ok
    assert res.objective == 29_500


def test_infeasible_instance_reports_no_deployment():
    t = make_task("t", 10_000, [seg_cpu(12_000)])
    inst = make_instance([t])
    res = optimize(inst, "rr", "minmax-rt")
    assert res.status == INFEASIBLE
    assert not res.ok
    assert res.assignment is None and res.report is None
    assert res.objective is None


def test_latency_optimum_is_solved_not_errored():
    # With continuous response times HiGHS accepted a drifted incumbent,
    # failed its own feasibility re-check and returned "Solve error" with no
    # solution, although brute force finds 7809.
    inst = oracle_corpus_instance(16)
    res = optimize(inst, "rr", "minmax-lat")
    assert res.status == OPTIMAL
    assert res.verified
    ref = best_assignment(inst, "rr", "minmax-lat")
    assert ref.objective == 7_809
    assert res.objective == ref.objective


def test_result_reports_solver_statistics():
    res = optimize(oracle_corpus_instance(16), "rr", "minmax-lat")
    assert res.ok
    assert isinstance(res.nodes, int) and res.nodes >= 1
    assert res.dual_bound == pytest.approx(res.solver_objective, rel=1e-6)
    d = res.to_dict()
    assert (d["nodes"], d["dual_bound"]) == (res.nodes, res.dual_bound)


class _NodeCountingBackend(ScipyBackend):
    def __init__(self):
        self.nodes = []

    def solve(self, *args, **kwargs):
        res = super().solve(*args, **kwargs)
        self.nodes.append(res.nodes)
        return res


def test_nodes_sum_over_the_tie_break_resolve():
    backend = _NodeCountingBackend()
    inst = oracle_corpus_instance(16)
    res = optimize(inst, "rr", "minmax-lat", backend=backend, tie_break=MAX_ACCELERATION)
    assert res.ok
    assert len(backend.nodes) == 2
    assert res.nodes == sum(backend.nodes)


def _twin(wcet):
    # Two tasks at 25 % load each on one core, and a chain of the first.  The
    # largest constant of their MILP is c11b's deadline plus demand cap:
    # 4 * wcet + 2 * wcet.
    tasks = [make_task(tid, 4 * wcet, [seg_cpu(wcet)]) for tid in ("a", "b")]
    chain = ChainSpec(id="ch", tasks=("a",))
    return make_instance(tasks, n_cores=1, chains=[chain], accelerator=False)


ENVELOPE_EDGE = (COEFFICIENT_LIMIT - 1) // 6  # largest WCET _twin accepts


def test_instance_just_inside_the_numeric_envelope_solves():
    inst = _twin(ENVELOPE_EDGE)
    assert encoding_magnitude(inst) == 6 * ENVELOPE_EDGE < COEFFICIENT_LIMIT
    assert validate_instance(inst) == []
    res = optimize(inst, "rr", "minmax-rt")
    assert res.status == OPTIMAL
    assert res.verified
    # Only the analysed objective is exact here: the rt objective weighs a
    # microsecond by 1/deadline, below HiGHS's dual feasibility tolerance.
    assert res.objective == Fraction(1, 2)
    res = optimize(inst, "rr", "minmax-lat")
    assert res.status == OPTIMAL
    assert res.verified
    assert res.objective == res.solver_objective == ENVELOPE_EDGE


def test_instance_just_outside_the_numeric_envelope_is_rejected():
    inst = _twin(ENVELOPE_EDGE + 1)
    assert encoding_magnitude(inst) >= COEFFICIENT_LIMIT
    problems = [str(v) for v in validate_instance(inst)]
    assert len(problems) == 1 and "2**40" in problems[0]
    with pytest.raises(ModelError, match=r"2\*\*40"):
        optimize(inst, "rr", "minmax-rt")


@pytest.mark.parametrize("case", PRESOLVE_CUTOFFS, ids=lambda c: c["origin"].split()[0])
def test_presolve_cutoff_instances_reach_the_brute_force_optimum(case):
    inst = instance_from_dict(case["instance"])
    res = optimize(inst, case["policy"], case["objective"])
    ref = best_assignment(inst, case["policy"], case["objective"])
    assert res.status == OPTIMAL
    assert res.verified
    assert isinstance(res.objective, Fraction)
    assert res.objective == ref.objective
    assert res.solver_objective == pytest.approx(float(ref.objective), abs=1e-6)


class _ZeroClockBackend(ScipyBackend):
    """HiGHS, but reporting that the solve took no time at all."""

    def solve(self, *args, **kwargs):
        res = super().solve(*args, **kwargs)
        res.runtime_s = 0.0
        return res


def test_runtime_covers_the_whole_call(tiny):
    # Build, decode and verify take time of their own, so the result's
    # runtime is positive even when the backend reports none.
    res = optimize(tiny, "rr", "minmax-lat", backend=_ZeroClockBackend())
    assert res.ok
    assert res.runtime_s > 0.0
    inst = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = optimize(inst, "rr", "minmax-rt", backend=_ZeroClockBackend())
    assert res.status == INFEASIBLE
    assert res.runtime_s > 0.0


def test_tie_break_prefers_acceleration():
    # Accelerated (1000+500 CPU, 4000 suspension) and plain (5500 CPU) shapes
    # produce identical response times, so the objective cannot distinguish
    # them; the tie-break must pick the accelerated deployment.
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(5_500, 1_000, 500, 4_000)])
    inst = make_instance([t1, t2])

    plain = optimize(inst, "rr", "minmax-rt")
    tied = optimize(inst, "rr", "minmax-rt", tie_break=MAX_ACCELERATION)
    assert plain.ok and tied.ok
    assert plain.objective == tied.objective == Fraction(2, 5)
    assert tied.assignment.accelerated_of("t2") == frozenset({0})


def test_unknown_tie_break_rejected(tiny):
    with pytest.raises(ValueError, match="tie_break"):
        optimize(tiny, "rr", "minmax-rt", tie_break="most-idle")


def test_emit_lp_writes_the_model(tiny, tmp_path):
    path = tmp_path / "tiny.lp"
    res = optimize(tiny, "rr", "minmax-lat", backend="scipy", emit_lp=str(path))
    assert res.ok
    text = path.read_text()
    assert text.startswith("\\")
    assert "Minimize" in text and "Binary" in text


def test_result_serializes(tiny):
    d = optimize(tiny, "rr", "minmax-lat").to_dict()
    assert d["status"] == "optimal"
    assert d["objective"] == 29_500.0
    assert d["verified"] is True
    assert d["assignment"]["accelerated"]["t2"] == [0]
    assert d["model"]["variables"] > 0
