"""The benchmark's workloads: inputs made from a seed, and rounds of checked
operations on them.

Every workload calls all four routes of the package (``optimize``,
``best_assignment``, ``analyze``, ``simulate``), so that every metric reads on
every workload, but each puts its weight on different layers:

* ``waters-optimize``: a few long branch-and-bound solves of the WATERS 2019
  instance.  HiGHS does nearly all the work.
* ``small-oracle``: hundreds of tiny solves, each checked against brute force.
  Per-call costs (build, matrix assembly, decode, verify) count here.
* ``design-sweep``: the analysis in all three modes over random deployments,
  brute-force searches and simulations.  The only MILP work is the fixed
  cross-check on a WATERS slice, which the first workload also runs.

A round is a fixed list of operations; a run repeats it (see ``run.py``).
Each operation calls the program through :class:`timing.Meter` and returns the
problems its checks found.
"""

from __future__ import annotations

import random
import sys
from functools import partial

import hetsched
from hetsched import analysis, bruteforce, milp, simulator
from hetsched.analysis import (
    CONSERVATIVE,
    MINMAX_LAT,
    MINMAX_RT,
    MODES,
    NO_CONTENTION,
    NPFP,
    OBJECTIVES,
    POLICIES,
    RR,
)
from hetsched.model import ChainSpec, PlatformSpec, ProblemInstance

import gen
from checks import (
    check_mode_order,
    check_no_worse,
    check_oracle,
    check_search,
    check_simulation,
    check_solve,
    presolve_fault,
    require_optimal,
)

COMBOS = tuple((p, o) for p in POLICIES for o in OBJECTIVES)


# ---------------------------------------------------------------------------
# The four routes, timed from outside.
# ---------------------------------------------------------------------------


def solve(meter, inst, policy, objective):
    keys = ("optimize.s", f"optimize.{policy}.s", f"optimize.{objective}.s")
    return meter.call(keys, milp.optimize, inst, policy, objective)


def search(meter, inst, policy, objective):
    found = meter.call(("search.s",), bruteforce.best_assignment, inst, policy, objective)
    meter.add("search.candidates", found.evaluated)
    meter.add("search.feasible", found.feasible)
    return found


def analyze(meter, inst, assignment, policy, mode):
    meter.add("analyze.calls", 1)
    keys = ("analyze.s", f"analyze.{mode}.s")
    return meter.call(keys, analysis.analyze, inst, assignment, policy, mode=mode)


def simulate(meter, inst, assignment, policy, seed, horizon_us):
    sim = meter.call(
        ("simulate.s",),
        simulator.simulate,
        inst,
        assignment,
        policy,
        horizon_us=horizon_us,
        seed=seed,
    )
    meter.add("simulate.events", len(sim.events))
    trace_problems = meter.call(
        ("validate_trace.s",), simulator.validate_trace, sim.events, policy
    )
    # The trace verdict is shown but not counted: the simulator omits the
    # ``stop`` event when a CPU phase ends into another CPU phase and a
    # higher-priority job takes the core in the same microsecond, so on a
    # few random deployments the validator reports two jobs on one core
    # (see the FOUND line in CHANGES.md).  Counting it would make the share
    # of failed operations depend on the seed.
    if trace_problems:
        print(f"[bench] trace, not counted: {trace_problems[0]}", file=sys.stderr)
    return sim


# ---------------------------------------------------------------------------
# Operations shared by the workloads.
# ---------------------------------------------------------------------------


def deployment_problems(meter, inst, assignment, policy, drives, horizon_us=None, reports=None):
    """Analyze a deployment in every mode; simulate it if it is schedulable.

    The conservative bounds are the ones the simulation must respect.  The
    reports are left in ``reports`` for the caller.  ``horizon_us=None``
    simulates the simulator's default horizon, one hyperperiod.
    """
    reports = {} if reports is None else reports
    for mode in MODES:
        reports[mode] = analyze(meter, inst, assignment, policy, mode)
    problems = check_mode_order(reports)
    bounds = reports[CONSERVATIVE]
    if bounds.schedulable:
        for drive in drives:
            sim = simulate(meter, inst, assignment, policy, drive, horizon_us)
            problems += check_simulation(sim, bounds.wcrt())
    return problems


def oracle_op(meter, inst, policy, objective, drives, horizon_us, count_presolve_faults=True):
    """``optimize`` against ``best_assignment``; the optimum is then analyzed
    in every mode and simulated.

    With ``count_presolve_faults=False`` a wrong answer of the kind
    :func:`checks.presolve_fault` names is logged but not counted.  The
    seeded instances need this: the fault shows on a few seeds only, so
    counting it would make the share of failed operations depend on the seed.
    Inputs that do not depend on the seed count it.
    """
    found = search(meter, inst, policy, objective)
    result = solve(meter, inst, policy, objective)
    problems = check_oracle(result, found.objective)
    fault = None if count_presolve_faults else presolve_fault(result, found.objective)
    if fault:
        print(f"[bench] {policy} {objective}, presolve fault, not counted: {fault}", file=sys.stderr)
        problems = []
    if result.status == "optimal" and not problems:
        problems += deployment_problems(
            meter, inst, result.assignment, policy, drives, horizon_us
        )
    return problems


def run_oracle(meter, ledger, label, inst, drives, horizon_us):
    for policy, objective in COMBOS:
        ledger.run(
            f"{label}/{policy}/{objective}",
            partial(oracle_op, meter, inst, policy, objective, drives, horizon_us),
        )


# Two periods of the slice's slowest task; its hyperperiod is 6.6 s.
SLICE_HORIZON_US = 400_000


def waters_slice() -> ProblemInstance:
    """Three WATERS tasks on one core of each type, for a brute-force check.

    ``sfm`` may use the accelerator and ``detection`` must, so they contend
    for it; both feed ``dasm``, as in the full chains c1 and c2.  Every policy
    has a schedulable deployment, and nocontention's optimum is strictly
    better than the other two.
    """
    waters = hetsched.builtin_waters()
    keep = ("sfm", "detection", "dasm")
    cores = tuple(c for c in waters.platform.cores if c.id in ("a57_0", "denver_0"))
    return ProblemInstance(
        platform=PlatformSpec(
            core_types=waters.platform.core_types, cores=cores, accelerator=True
        ),
        tasks=tuple(t for t in waters.tasks if t.id in keep),
        chains=(
            ChainSpec(id="c1", tasks=("detection", "dasm")),
            ChainSpec(id="c2", tasks=("sfm", "dasm")),
        ),
    )


# ---------------------------------------------------------------------------
# Workloads.
# ---------------------------------------------------------------------------


class WatersOptimize:
    """The WATERS 2019 instance, solved to proven optimality four times.

    rr min-max latency is one of the acceptance solves; the three min-max
    response-time solves cover every policy.  The other acceptance solves
    take too long for a run (see README.md).  The seed only picks the second
    simulation drive: the instance is fixed.
    """

    SOLVES = ((RR, MINMAX_LAT), (RR, MINMAX_RT), (NPFP, MINMAX_RT), (NO_CONTENTION, MINMAX_RT))

    def __init__(self, seed: int):
        self.inst = hetsched.builtin_waters()
        self.published = hetsched.waters_published_assignment()
        self.slice = waters_slice()
        self.drives = (None, seed)

    def _published_op(self, meter, policy, published):
        reports = {}
        problems = deployment_problems(
            meter, self.inst, self.published, policy, self.drives, reports=reports
        )
        published[policy] = reports[CONSERVATIVE]
        return problems

    def _solve_op(self, meter, policy, objective, published, optima):
        result = solve(meter, self.inst, policy, objective)
        require_optimal(result)
        reports = {}
        problems = deployment_problems(
            meter, self.inst, result.assignment, policy, self.drives, reports=reports
        )
        value = analysis.evaluate_objective(reports[CONSERVATIVE], objective)
        problems += check_solve(result, value)
        problems += check_no_worse(
            value,
            analysis.evaluate_objective(published[policy], objective),
            f"{policy} {objective} optimum against the published deployment",
        )
        optima[policy, objective] = value
        if policy == NO_CONTENTION:
            for other in (RR, NPFP):
                if (other, objective) in optima:
                    problems += check_no_worse(
                        value, optima[other, objective], f"nocontention {objective} against {other}"
                    )
        return problems

    def run_round(self, meter, ledger) -> None:
        published: dict = {}
        for policy in POLICIES:
            ledger.run(f"published/{policy}", partial(self._published_op, meter, policy, published))
        optima: dict = {}
        for policy, objective in self.SOLVES:
            ledger.run(
                f"waters/{policy}/{objective}",
                partial(self._solve_op, meter, policy, objective, published, optima),
            )
        run_oracle(meter, ledger, "slice", self.slice, self.drives, SLICE_HORIZON_US)


class SmallOracle:
    """Random instances of at most 3 tasks and 2 cores, each solved by
    ``optimize`` and ``best_assignment`` for one policy and objective.

    Every (tasks, cores, policy, objective) stratum gets the same number of
    instances.  Solve times of random instances vary tenfold, so one solve per
    instance, balanced over the strata, buys far more independent samples per
    second than solving each instance twelve times.  Three tasks on two cores
    is left to the fixed WATERS slice of the other workloads: random instances
    of that shape vary sixty-fold in solve time, and a run's total swung by
    more than a tenth from seed to seed.  The presolve faults that show on a
    few seeds are logged, not counted (see :func:`oracle_op`).
    """

    SHAPES = ((1, 1), (1, 2), (2, 1), (2, 2), (3, 1))
    PER_STRATUM = 8
    ACCELERABLE = 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.ops = [
            (gen.random_instance(rng, n_tasks, n_cores, self.ACCELERABLE), policy, objective)
            for _ in range(self.PER_STRATUM)
            for n_tasks, n_cores in self.SHAPES
            for policy, objective in COMBOS
        ]

    def run_round(self, meter, ledger) -> None:
        for k, (inst, policy, objective) in enumerate(self.ops):
            ledger.run(
                f"small/{k}/{policy}/{objective}",
                partial(
                    oracle_op, meter, inst, policy, objective, (None,), gen.HYPERPERIOD_US, False
                ),
            )


class DesignSweep:
    """Analysis, brute force and simulation, with almost no MILP work."""

    WATERS_DEPLOYMENTS = 150
    SMALL_INSTANCES = 40
    SMALL_DEPLOYMENTS = 4
    SEARCHES = 6
    SEARCH_SAMPLES = 20
    SMALL_SIMULATIONS = 8

    def __init__(self, seed: int):
        rng = random.Random(seed)
        waters = hetsched.builtin_waters()
        self.sweep = [
            (waters, gen.random_assignment(rng, waters)) for _ in range(self.WATERS_DEPLOYMENTS)
        ]
        for _ in range(self.SMALL_INSTANCES):
            inst = gen.random_instance(rng, 3, 2, 2)
            self.sweep += [
                (inst, gen.random_assignment(rng, inst)) for _ in range(self.SMALL_DEPLOYMENTS)
            ]

        self.searches = []
        for k in range(self.SEARCHES):
            inst = gen.random_instance(rng, 4, 2, 2, forced_share=0.0)  # 1536 candidates
            samples = [gen.random_assignment(rng, inst) for _ in range(self.SEARCH_SAMPLES)]
            # Over the searches, every policy and every objective comes up.
            self.searches.append((inst, POLICIES[k % 3], OBJECTIVES[k % 4], samples))

        published = hetsched.waters_published_assignment()
        self.simulations = [(waters, published, policy, None) for policy in POLICIES]
        while len(self.simulations) < len(POLICIES) + self.SMALL_SIMULATIONS:
            inst = gen.random_instance(rng, 3, 2, 2)
            asg = gen.random_assignment(rng, inst)
            policy = rng.choice(POLICIES)
            if analysis.analyze(inst, asg, policy, mode=CONSERVATIVE).schedulable:
                self.simulations.append((inst, asg, policy, gen.HYPERPERIOD_US))

        self.slice = waters_slice()
        self.drives = (None, seed)

    @staticmethod
    def _search_op(meter, inst, policy, objective, samples):
        found = search(meter, inst, policy, objective)

        def value(asg):
            report = analyze(meter, inst, asg, policy, CONSERVATIVE)
            return analysis.evaluate_objective(report, objective)

        reanalyzed = None if found.assignment is None else value(found.assignment)
        return check_search(found, reanalyzed, [value(asg) for asg in samples])

    def run_round(self, meter, ledger) -> None:
        for k, (inst, asg) in enumerate(self.sweep):
            for policy in POLICIES:
                # No drives: the sweep analyzes and checks, it does not simulate.
                ledger.run(
                    f"sweep/{k}/{policy}",
                    partial(deployment_problems, meter, inst, asg, policy, ()),
                )
        for k, (inst, policy, objective, samples) in enumerate(self.searches):
            ledger.run(
                f"search/{k}/{policy}/{objective}",
                partial(self._search_op, meter, inst, policy, objective, samples),
            )
        for k, (inst, asg, policy, horizon_us) in enumerate(self.simulations):
            ledger.run(
                f"simulate/{k}/{policy}",
                partial(deployment_problems, meter, inst, asg, policy, self.drives, horizon_us),
            )
        run_oracle(meter, ledger, "slice", self.slice, self.drives, SLICE_HORIZON_US)


WORKLOADS = {
    "waters-optimize": WatersOptimize,
    "small-oracle": SmallOracle,
    "design-sweep": DesignSweep,
}
