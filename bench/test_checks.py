"""Tests of the benchmark's own checks: planted wrong answers must be counted.

Run from the root of the repository:

    python3 -m pytest -q bench/test_checks.py
"""

from __future__ import annotations

import dataclasses
import json
import random
import shutil
import subprocess
import sys
from functools import partial
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import pytest  # noqa: E402

import hetsched  # noqa: E402
from hetsched import analysis, milp, simulator  # noqa: E402
from hetsched.analysis import CONSERVATIVE, EXACT, MINMAX_LAT, NPFP, RR  # noqa: E402
from hetsched.milp import OptimizeResult  # noqa: E402

import gen  # noqa: E402
import run  # noqa: E402
from checks import Ledger  # noqa: E402
from timing import Meter, Tracer  # noqa: E402
from workloads import (  # noqa: E402
    WatersOptimize,
    deployment_problems,
    oracle_op,
)


@pytest.fixture
def meter():
    m = Meter()
    m.start_round()
    return m


@pytest.fixture
def small():
    """A small instance and a deployment of it that is schedulable under rr."""
    rng = random.Random(3)
    while True:
        inst = gen.random_instance(rng, 3, 2, 2)
        asg = gen.random_assignment(rng, inst)
        if analysis.analyze(inst, asg, RR, mode=CONSERVATIVE).schedulable:
            return inst, asg


def _counts(ledger: Ledger) -> tuple[int, int, int]:
    return ledger.attempted, ledger.failed, ledger.wrong


def _patch_optimize(monkeypatch, change):
    real = milp.optimize
    monkeypatch.setattr(milp, "optimize", lambda *a, **k: change(real(*a, **k)))


def test_truthful_answers_pass(meter, small):
    inst, asg = small
    ledger = Ledger()
    ledger.run("oracle", partial(oracle_op, meter, inst, RR, MINMAX_LAT, (None, 1), None))
    ledger.run("deployment", partial(deployment_problems, meter, inst, asg, RR, (None, 1)))
    assert _counts(ledger) == (2, 0, 0)


@pytest.mark.parametrize(
    "plant",
    [
        lambda r: dataclasses.replace(r, objective=r.objective + 1),
        lambda r: dataclasses.replace(r, solver_objective=r.solver_objective + 1),
    ],
    ids=["exact-objective", "solver-objective"],
)
def test_objective_one_microsecond_off_is_wrong(monkeypatch, meter, small, plant):
    _patch_optimize(monkeypatch, plant)
    ledger = Ledger()
    ledger.run("oracle", partial(oracle_op, meter, small[0], RR, MINMAX_LAT, (None,), None))
    assert _counts(ledger) == (1, 1, 1)


@pytest.mark.parametrize(
    "plant, counted",
    [
        (lambda r: dataclasses.replace(r, status="infeasible", assignment=None), False),
        (lambda r: dataclasses.replace(r, solver_objective=r.solver_objective + 1), False),
        (
            lambda r: dataclasses.replace(
                r, objective=r.objective + 1, solver_objective=r.solver_objective + 2
            ),
            False,
        ),
        (lambda r: dataclasses.replace(r, objective=r.objective + 1), True),
        (lambda r: dataclasses.replace(r, solver_objective=r.solver_objective - 1), True),
    ],
    ids=[
        "false-infeasible",
        "solver-objective-above",
        "worse-deployment-and-bound",
        "exact-objective",
        "solver-objective-below",
    ],
)
def test_seeded_oracle_logs_only_presolve_faults(monkeypatch, meter, small, plant, counted):
    """small-oracle logs a cut-off optimum but still counts any other
    disagreement with brute force."""
    _patch_optimize(monkeypatch, plant)
    ledger = Ledger()
    ledger.run(
        "oracle", partial(oracle_op, meter, small[0], RR, MINMAX_LAT, (None,), None, False)
    )
    assert _counts(ledger) == ((1, 1, 1) if counted else (1, 0, 0))


def test_waters_optimum_one_microsecond_off_is_wrong(monkeypatch, meter):
    """The WATERS checks, fed the published deployment as a claimed optimum."""
    wl = WatersOptimize(seed=1)
    report = analysis.analyze(wl.inst, wl.published, RR, mode=CONSERVATIVE)
    value = analysis.evaluate_objective(report, MINMAX_LAT)
    claimed = OptimizeResult(
        status="optimal",
        objective=value + 1,
        solver_objective=float(value + 1),
        assignment=wl.published,
        report=report,
        verified=True,
        gap=0.0,
        runtime_s=0.0,
        model_stats={},
    )
    monkeypatch.setattr(milp, "optimize", lambda *a, **k: claimed)
    ledger = Ledger()
    published: dict = {}
    ledger.run("published", partial(wl._published_op, meter, RR, published))
    ledger.run("solve", partial(wl._solve_op, meter, RR, MINMAX_LAT, published, {}))
    assert _counts(ledger) == (2, 1, 1)


def test_exact_above_conservative_is_wrong(monkeypatch, meter, small):
    inst, asg = small
    real = analysis.analyze

    def inflated(inst, asg, policy, mode=EXACT):
        report = real(inst, asg, policy, mode=mode)
        if mode != EXACT:
            return report
        first = report.tasks[0]
        bumped = dataclasses.replace(first, wcrt_us=first.wcrt_us + 1_000_000)
        return dataclasses.replace(report, tasks=(bumped,) + report.tasks[1:])

    monkeypatch.setattr(analysis, "analyze", inflated)
    ledger = Ledger()
    ledger.run("modes", partial(deployment_problems, meter, inst, asg, RR, ()))
    assert _counts(ledger) == (1, 1, 1)


def test_observed_response_above_bound_is_wrong(monkeypatch, meter, small):
    inst, asg = small
    real = simulator.simulate

    def late(*args, **kwargs):
        sim = real(*args, **kwargs)
        observed = {tid: (r or 0) + 10**9 for tid, r in sim.observed_wcrt_us.items()}
        return dataclasses.replace(sim, observed_wcrt_us=observed)

    monkeypatch.setattr(simulator, "simulate", late)
    ledger = Ledger()
    ledger.run("simulate", partial(deployment_problems, meter, inst, asg, RR, (None,), None))
    assert _counts(ledger) == (1, 1, 1)


@pytest.mark.parametrize("status", ["error", "no_solution", "feasible"])
def test_solver_failure_counts_failed_and_the_run_goes_on(monkeypatch, meter, small, status):
    _patch_optimize(monkeypatch, lambda r: dataclasses.replace(r, status=status))
    ledger = Ledger()
    ledger.run("oracle", partial(oracle_op, meter, small[0], NPFP, MINMAX_LAT, (None,), None))
    monkeypatch.undo()
    ledger.run("oracle", partial(oracle_op, meter, small[0], NPFP, MINMAX_LAT, (None,), None))
    assert _counts(ledger) == (2, 1, 0)


def test_infeasible_counts_only_when_brute_force_disagrees(monkeypatch, meter, small):
    overloaded = hetsched.scale_wcets(small[0], 50)
    ledger = Ledger()
    ledger.run("agreed", partial(oracle_op, meter, overloaded, RR, MINMAX_LAT, (None,), None))
    assert _counts(ledger) == (1, 0, 0)
    _patch_optimize(monkeypatch, lambda r: dataclasses.replace(r, status="infeasible", assignment=None))
    ledger.run("disputed", partial(oracle_op, meter, small[0], RR, MINMAX_LAT, (None,), None))
    assert _counts(ledger) == (2, 1, 1)


def test_tracer_restores_what_it_wraps(meter, small):
    before = milp.build_milp
    with Tracer(meter):
        assert milp.build_milp is not before
        milp.optimize(small[0], RR, MINMAX_LAT)
    assert milp.build_milp is before
    assert meter.rounds[-1]["highs.calls"] == 1
    assert meter.rounds[-1]["build.columns"] > 0


def test_benchmark_json_lists_the_metrics_run_reports():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == run.PER_LAYER
    assert {w["name"] for w in spec["workloads"]} == {"waters-optimize", "small-oracle", "design-sweep"}


def test_run_refuses_a_checkout_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    args = ["--workload", "small-oracle", "--seed", "1", "--seconds", "1", "--trace", "0"]
    out = subprocess.run(
        [sys.executable, "bench/run.py", *args], cwd=tmp_path, capture_output=True, text=True, timeout=60
    )
    assert out.returncode != 0
    assert out.stdout == ""
