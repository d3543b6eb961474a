"""End-to-end deployment optimization on small instances."""

import json
import math
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

import pytest
from helpers import (
    buffered_stdio_env,
    make_instance,
    make_task,
    oracle_corpus_instance,
    seg_cpu,
    seg_opt,
)

import hetsched.bruteforce
import hetsched.milp
from hetsched.analysis import MINMAX_LAT, MINMAX_RT, MINSUM_LAT, MINSUM_RT, OBJECTIVES
from hetsched.bruteforce import best_assignment
from hetsched.milp import (
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    MAX_ACCELERATION,
    NO_SOLUTION,
    OPTIMAL,
    ExternalBackend,
    ScipyBackend,
    SolveResult,
    optimize,
)
from hetsched.milp.builder import COEFFICIENT_LIMIT, encoding_magnitude
from hetsched.milp.decode import CLAIM_TOLERANCE
from hetsched.model import ChainSpec, ModelError, instance_from_dict, validate_instance

# Small instances on which HiGHS's presolve cut off the optimum.  On the first
# three it did so without the aggregated cuts c11e/c18e: it claimed 0.7073
# against the true 0.7072, reported "infeasible" against 0.8516, and claimed
# 1.4704 against 1.4167.  On the fourth it did so with the McCormick row c10m:
# it claimed 0.5024 against 0.5023, which optimize's presolve-off re-solve
# recovers.
DATA = Path(__file__).parent / "data"
PRESOLVE_CUTOFFS = json.loads((DATA / "presolve_cutoffs.json").read_text())


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
    assert d["resolved_without_presolve"] is False


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
    # largest constant of their MILP is the deadline 4 * wcet, of the R
    # bounds and the rt rows; the demand cap is 2 * wcet.
    tasks = [make_task(tid, 4 * wcet, [seg_cpu(wcet)]) for tid in ("a", "b")]
    chain = ChainSpec(id="ch", tasks=("a",))
    return make_instance(tasks, n_cores=1, chains=[chain], accelerator=False)


ENVELOPE_EDGE = (COEFFICIENT_LIMIT - 1) // 4  # largest WCET _twin accepts


def test_instance_just_inside_the_numeric_envelope_solves():
    inst = _twin(ENVELOPE_EDGE)
    assert encoding_magnitude(inst) == 4 * ENVELOPE_EDGE < COEFFICIENT_LIMIT
    assert validate_instance(inst) == []
    res = optimize(inst, "rr", "minmax-rt")
    assert res.status == OPTIMAL
    # Either priority order analyzes to 1/2.  HiGHS's own claim is not exact
    # at this scale (the rt objective weighs a microsecond by 1/deadline, below
    # its dual feasibility tolerance), so the claim is verified exactly when
    # it matches the analysis.
    assert res.objective == Fraction(1, 2)
    assert res.verified == (res.solver_objective == pytest.approx(0.5, rel=1e-6))
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


def test_instance_outside_the_numeric_envelope_still_analyzes():
    # The envelope bounds the MILP's constants; the analysis takes any size.
    ref = best_assignment(_twin(ENVELOPE_EDGE + 1), "rr", "minmax-rt")
    assert ref.objective == Fraction(1, 2)


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


class _InflatedClaimBackend(ScipyBackend):
    """HiGHS, but claiming an optimum one above the one it found.  With
    ``presolve_only``, only solves with presolve on lie, as in the presolve
    cut-offs.  Records the presolve setting of every solve."""

    def __init__(self, presolve_only=False):
        self.presolve_only = presolve_only
        self.presolve = []

    def solve(self, model, time_limit=None, mip_gap=0.0, presolve=True, objective_bound=None):
        self.presolve.append(presolve)
        res = super().solve(
            model,
            time_limit=time_limit,
            mip_gap=mip_gap,
            presolve=presolve,
            objective_bound=objective_bound,
        )
        if presolve or not self.presolve_only:
            res.objective += 1.0
        return res


def test_proven_optimum_above_the_analysis_is_not_verified(tiny):
    # At a zero gap the claim is a proof, and the returned deployment refutes
    # it, on the presolve-off re-solve too; at a positive gap a claim worse
    # than the deployment is allowed.
    backend = _InflatedClaimBackend()
    res = optimize(tiny, "rr", "minsum-rt", backend=backend)
    assert backend.presolve == [True, False]
    assert res.status == OPTIMAL
    assert res.solver_objective == pytest.approx(float(res.objective) + 1.0)
    assert not res.verified and not res.ok
    assert "proved" in res.message
    assert res.resolved_without_presolve
    backend = _InflatedClaimBackend()
    res = optimize(tiny, "rr", "minsum-rt", mip_gap=0.5, backend=backend)
    assert backend.presolve == [True]
    assert res.status == OPTIMAL
    assert res.verified and res.ok
    assert not res.resolved_without_presolve


def test_refuted_proof_is_solved_once_more_without_presolve(tiny):
    backend = _InflatedClaimBackend(presolve_only=True)
    res = optimize(tiny, "rr", "minsum-rt", backend=backend)
    assert backend.presolve == [True, False]
    assert res.ok
    assert res.solver_objective == pytest.approx(float(res.objective))
    assert res.resolved_without_presolve
    assert res.to_dict()["resolved_without_presolve"] is True


def test_refuted_proof_is_solved_again_with_the_tie_break():
    # The tie-break runs once, after the re-solve, so it pins the honest
    # optimum of the re-solve on the one model, with presolve off.
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(5_500, 1_000, 500, 4_000)])
    backend = _InflatedClaimBackend(presolve_only=True)
    res = optimize(
        make_instance([t1, t2]), "rr", "minmax-rt", backend=backend, tie_break=MAX_ACCELERATION
    )
    assert backend.presolve == [True, False, False]
    assert res.ok and res.resolved_without_presolve
    assert res.objective == Fraction(2, 5)
    assert res.assignment.accelerated_of("t2") == frozenset({0})


class _PresolveInfeasibleBackend(ScipyBackend):
    """HiGHS, but answering ``infeasible`` whenever presolve is on, as in the
    ``infeasible`` form of the presolve cut-offs."""

    def __init__(self):
        self.presolve = []

    def solve(self, model, time_limit=None, mip_gap=0.0, presolve=True, objective_bound=None):
        self.presolve.append(presolve)
        if presolve:
            return SolveResult(status=INFEASIBLE)
        return super().solve(
            model,
            time_limit=time_limit,
            mip_gap=mip_gap,
            presolve=presolve,
            objective_bound=objective_bound,
        )


def test_infeasible_answer_is_solved_once_more_without_presolve(tiny, monkeypatch):
    # The tie-break follows the re-solve on the one model, with presolve off.
    counts = Counter()
    _count_calls(monkeypatch, hetsched.milp, "build_milp", counts)
    for tie_break, presolve in [(None, [True, False]), (MAX_ACCELERATION, [True, False, False])]:
        counts.clear()
        backend = _PresolveInfeasibleBackend()
        res = optimize(tiny, "rr", "minmax-lat", backend=backend, tie_break=tie_break)
        assert backend.presolve == presolve
        assert counts["build_milp"] == 1
        assert res.status == OPTIMAL
        assert res.verified and res.ok
        assert res.objective == 29_500
        assert res.resolved_without_presolve


def test_confirmed_infeasibility_stays_infeasible():
    backend = _PresolveInfeasibleBackend()
    inst = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = optimize(inst, "rr", "minmax-rt", backend=backend)
    assert backend.presolve == [True, False]
    assert res.status == INFEASIBLE and not res.ok
    assert res.resolved_without_presolve


class _RecordingBackend(ScipyBackend):
    """HiGHS, recording the presolve setting and the objective bound of every
    solve.  With ``answer``, every solve returns that instead, without a
    deployment; with ``first_core``, HiGHS solves the model with every task
    held on the first core."""

    def __init__(self, answer=None, first_core=False):
        self.answer = answer
        self.first_core = first_core
        self.presolve = []
        self.bounds = []

    def solve(self, model, time_limit=None, mip_gap=0.0, presolve=True, objective_bound=None):
        self.presolve.append(presolve)
        self.bounds.append(objective_bound)
        if self.answer is not None:
            return SolveResult(status=self.answer, message="stand-in answer")
        if self.first_core:
            for row in model.meta["x"]:
                model.col_lower[row[0]] = 1.0
        return super().solve(
            model,
            time_limit=time_limit,
            mip_gap=mip_gap,
            presolve=presolve,
            objective_bound=objective_bound,
        )


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_only_the_first_solve_is_bounded(tiny, objective):
    # The incumbent is the optimum here, so the bound lets the optimum
    # through; the tie-break re-solve runs without it.
    backend = _RecordingBackend()
    res = optimize(tiny, "rr", objective, backend=backend, tie_break=MAX_ACCELERATION)
    assert res.ok and res.status == OPTIMAL
    assert res.incumbent == res.objective
    latency = objective in (MINMAX_LAT, MINSUM_LAT)
    known = float(res.incumbent)
    rt_bound = known + CLAIM_TOLERANCE * max(1.0, known)
    assert backend.bounds == [29_500.5 if latency else rt_bound, None]
    assert backend.presolve == [True, True]


@pytest.mark.parametrize("objective", [MINMAX_RT, MINSUM_RT])
@pytest.mark.parametrize("wcet, bounded", [(2_499_999, True), (2_500_000, False)])
def test_rt_solves_are_bounded_only_below_a_ten_second_deadline(objective, wcet, bounded):
    # From a deadline of 10**7 us on, an rt objective weighs a microsecond no
    # more than HiGHS's dual feasibility tolerance, so the solve gets no bound.
    inst = _twin(wcet)
    assert (max(inst.compiled.deadline) < 10**7) == bounded
    backend = _RecordingBackend()
    res = optimize(inst, "rr", objective, backend=backend)
    assert res.ok and res.status == OPTIMAL
    known = float(res.incumbent)
    assert backend.bounds[0] == (known + CLAIM_TOLERANCE * max(1.0, known) if bounded else None)


def test_a_proof_the_incumbent_beats_is_not_verified(tiny):
    # Held on one core, HiGHS proves an optimum whose deployment analyzes to
    # the claim but which the local search beats: the proof is solved once
    # more without presolve, and still beaten, it stays unverified.
    backend = _RecordingBackend(first_core=True)
    res = optimize(tiny, "rr", "minmax-rt", backend=backend)
    assert backend.presolve == [True, False]
    assert res.status == OPTIMAL and res.resolved_without_presolve
    assert res.incumbent == Fraction(2, 5)
    assert res.objective > res.incumbent
    assert res.solver_objective == pytest.approx(float(res.objective))
    assert not res.verified and not res.ok
    assert "local search found 0.4" in res.message


def test_a_proof_the_incumbent_beats_is_not_verified_after_the_tie_break(tiny):
    # The tie-break's deployment is verified against the re-solve's claim,
    # which the local search still beats.
    backend = _RecordingBackend(first_core=True)
    res = optimize(tiny, "rr", "minmax-rt", backend=backend, tie_break=MAX_ACCELERATION)
    assert backend.presolve == [True, False, False]
    assert res.status == OPTIMAL and res.resolved_without_presolve
    assert res.incumbent == Fraction(2, 5)
    assert not res.verified and not res.ok
    assert "local search found 0.4" in res.message


def test_infeasible_twice_is_an_error_once_the_search_found_a_deployment(tiny):
    backend = _RecordingBackend(answer=INFEASIBLE)
    res = optimize(tiny, "rr", "minmax-lat", backend=backend)
    assert backend.presolve == [True, False]
    assert backend.bounds == [29_500.5, None]
    assert res.status == ERROR and not res.ok
    assert res.resolved_without_presolve
    assert res.assignment is None and res.incumbent == 29_500
    assert "local search found 29500" in res.message
    # Without a schedulable deployment, infeasible stays infeasible.
    overloaded = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = optimize(overloaded, "rr", "minmax-rt", backend=_RecordingBackend(answer=INFEASIBLE))
    assert res.status == INFEASIBLE and res.incumbent is None


def test_a_solve_stopped_without_a_deployment_reports_the_incumbent(tiny):
    backend = _RecordingBackend(answer=NO_SOLUTION)
    res = optimize(tiny, "rr", "minmax-lat", backend=backend, time_limit=0.001)
    assert backend.presolve == [True]
    assert res.status == FEASIBLE
    assert res.ok and res.verified
    assert res.objective == res.incumbent == 29_500
    assert res.solver_objective is None
    assert res.report.schedulable
    assert res.assignment.accelerated_of("t2") == frozenset({0})
    assert res.to_dict()["incumbent"] == 29_500.0
    overloaded = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = optimize(overloaded, "rr", "minmax-rt", backend=_RecordingBackend(answer=NO_SOLUTION))
    assert res.status == NO_SOLUTION and res.assignment is None


class _LooseExternalBackend(ExternalBackend):
    """A command-line solver that answers HiGHS's deployment as ``optimal``
    with an objective 1 us above it, as a solver stopped at its own default
    gap may."""

    def __init__(self):
        super().__init__("solver {lp} {sol}")

    def solve(self, model, time_limit=None, mip_gap=0.0):
        res = ScipyBackend().solve(model, time_limit=time_limit, mip_gap=mip_gap)
        res.objective += 1.0
        return res


def test_external_optimal_is_not_a_zero_gap_proof(tiny):
    # The command template passes no gap, so an external "optimal" above the
    # deployment's own value is an honest claim, not a refuted proof.
    res = optimize(tiny, "rr", "minmax-lat", backend=_LooseExternalBackend())
    assert res.status == OPTIMAL
    assert res.verified and res.ok, res.message
    assert res.objective == 29_500
    assert res.solver_objective == pytest.approx(29_501.0)
    assert not res.resolved_without_presolve


def test_library_optimize_keeps_solver_noise_off_stdout():
    # HiGHS writes "transformNewIntegerFeasibleSolution" to file descriptor 1
    # while solving this instance (the benchmark's SmallOracle(6).ops[238]).
    script = (
        "import sys\n"
        "from hetsched.milp import optimize\n"
        "from hetsched.model import instance_from_json\n"
        "inst = instance_from_json(open(sys.argv[1]).read())\n"
        "sys.exit(0 if optimize(inst, 'nocontention', 'minmax-rt').ok else 1)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, str(DATA / "solver_noise.json")],
        capture_output=True,
        text=True,
        env=buffered_stdio_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ""
    assert "transformNewIntegerFeasibleSolution" in proc.stderr


def test_runtime_covers_the_whole_call(tiny):
    # The result's runtime times the whole call, which backends do not time.
    res = optimize(tiny, "rr", "minmax-lat")
    assert res.ok
    assert res.runtime_s > 0.0
    inst = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    res = optimize(inst, "rr", "minmax-rt")
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


def _count_calls(monkeypatch, owner, name, counts):
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)


def test_optimize_reaches_the_module_attributes_the_tracer_wraps(tiny, monkeypatch):
    # bench/timing.py times build, solve, decode and verify by swapping these
    # attributes, so optimize must look each one up there at every call.
    counts = Counter()
    for owner, name in [
        (hetsched.milp, "build_milp"),
        (hetsched.milp, "decode_assignment"),
        (hetsched.milp, "verify_solution"),
        (ScipyBackend, "solve"),
    ]:
        _count_calls(monkeypatch, owner, name, counts)
    assert optimize(tiny, "rr", "minmax-lat").ok
    assert counts == {"build_milp": 1, "decode_assignment": 1, "verify_solution": 1, "solve": 1}

    # A refuted proof under the tie-break: one build, then the first solve,
    # the re-solve and the tie-break, each decoded and verified.
    counts.clear()
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(5_500, 1_000, 500, 4_000)])
    backend = _InflatedClaimBackend(presolve_only=True)
    res = optimize(
        make_instance([t1, t2]), "rr", "minmax-rt", backend=backend, tie_break=MAX_ACCELERATION
    )
    assert res.ok and res.resolved_without_presolve
    assert counts == {"build_milp": 1, "decode_assignment": 3, "verify_solution": 3, "solve": 3}


def test_search_reaches_the_analysis_the_tracer_wraps(tiny, monkeypatch):
    # The search analyzes its winner once through the module attribute, and
    # an instance with no schedulable deployment not at all.
    counts = Counter()
    _count_calls(monkeypatch, hetsched.bruteforce, "analyze", counts)
    ref = best_assignment(tiny, "rr", "minmax-lat")
    assert ref.evaluated > 0 and ref.assignment is not None
    assert counts["analyze"] == 1
    counts.clear()
    overloaded = make_instance([make_task("t", 10_000, [seg_cpu(12_000)])])
    assert best_assignment(overloaded, "rr", "minmax-rt").assignment is None
    assert counts["analyze"] == 0
    # optimize's local search calls no analyze at all.
    assert optimize(tiny, "rr", "minmax-lat").ok
    assert counts["analyze"] == 0


def test_a_traced_round_gives_every_layer_metric(tiny, monkeypatch):
    # The benchmark's tracer and its per-layer metrics, on one small round.
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent / "bench"))
    import run
    import workloads
    from timing import Meter, Tracer

    meter = Meter()
    meter.start_round()
    with Tracer(meter):
        solved = workloads.solve(meter, tiny, "rr", "minmax-lat")
        found = workloads.search(meter, tiny, "rr", "minmax-lat")
        workloads.simulate(meter, tiny, found.assignment, "rr", None, None)
    metrics = run.layer_metrics(meter.rounds[0])
    assert solved.objective == found.objective
    assert metrics["highs.calls"] == 1
    assert metrics["search.candidates"] == found.evaluated
    assert 0 < metrics["search.analyze.s"] <= metrics["search.s"]
    assert 0 <= metrics["assemble.s"] and 0 <= metrics["search.enumerate.s"]


def test_unknown_tie_break_rejected(tiny):
    with pytest.raises(ValueError, match="tie_break"):
        optimize(tiny, "rr", "minmax-rt", tie_break="most-idle")


@pytest.mark.parametrize(
    "options, message",
    [
        ({"tie_break": "most-idle"}, "tie_break"),
        ({"mip_gap": -1}, "mip_gap"),
        ({"mip_gap": math.nan}, "mip_gap"),
        ({"mip_gap": math.inf}, "mip_gap"),
        ({"time_limit": -1}, "time_limit"),
        ({"time_limit": math.nan}, "time_limit"),
        ({"time_limit": math.nan, "backend": "false {lp}"}, "time_limit"),
        ({"time_limit": True}, "time_limit"),
        ({"mip_gap": False}, "mip_gap"),
        ({"time_limit": "1"}, "time_limit"),
        ({"mip_gap": "0.1"}, "mip_gap"),
    ],
    ids=[
        "unknown tie_break",
        "negative gap",
        "nan gap",
        "infinite gap",
        "negative time limit",
        "nan time limit",
        "nan time limit with a command",
        "boolean time limit",
        "boolean gap",
        "string time limit",
        "string gap",
    ],
)
def test_invalid_options_are_model_errors(tiny, options, message):
    # HiGHS would warn about a negative gap and solve with its default one,
    # and ignore a negative time limit.
    with pytest.raises(ModelError, match=message):
        optimize(tiny, "rr", "minmax-rt", **options)


def test_infinite_time_limit_is_no_limit(tiny):
    assert optimize(tiny, "rr", "minmax-rt", time_limit=math.inf).ok


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
