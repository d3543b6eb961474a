"""Joint deployment optimization: build the MILP, solve it, decode and verify.

:func:`optimize` is the high-level entry point; the pieces (builder, LP
writer, backends, decoder) are importable individually.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

from hetsched.analysis import AnalysisReport
from hetsched.milp.backends import (
    ENV_SOLVER_CMD,
    ERROR,
    FEASIBLE,
    INFEASIBLE,
    NO_SOLUTION,
    OPTIMAL,
    UNBOUNDED,
    ExternalBackend,
    ScipyBackend,
    SolveResult,
    get_backend,
)
from hetsched.milp.builder import build_milp
from hetsched.milp.decode import (
    SolutionDecodeError,
    VerificationResult,
    decode_assignment,
    verify_solution,
)
from hetsched.milp.ir import MilpModel
from hetsched.milp.lpwriter import write_lp, write_lp_file
from hetsched.model import Assignment, ProblemInstance

MAX_ACCELERATION = "max-acceleration"


@dataclass(frozen=True)
class OptimizeResult:
    status: str
    objective: Fraction | None  # analytically recomputed from the deployment
    solver_objective: float | None
    assignment: Assignment | None
    report: AnalysisReport | None
    verified: bool
    gap: float | None
    runtime_s: float  # the whole call: build, solve(s), decode and verify
    model_stats: dict
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, summed over the tie-break re-solve
    dual_bound: float | None = None  # the solver's proven bound on solver_objective

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE) and self.verified

    def to_dict(self) -> dict:
        from hetsched.model import assignment_to_dict

        return {
            "status": self.status,
            "objective": None if self.objective is None else float(self.objective),
            "solver_objective": self.solver_objective,
            "assignment": None if self.assignment is None else assignment_to_dict(self.assignment),
            "analysis": None if self.report is None else self.report.to_dict(),
            "verified": self.verified,
            "gap": self.gap,
            "runtime_s": self.runtime_s,
            "model": self.model_stats,
            "message": self.message,
            "nodes": self.nodes,
            "dual_bound": self.dual_bound,
        }


def _pin_and_maximize_acceleration(model: MilpModel, incumbent: float) -> None:
    """Freeze the objective at the incumbent and prefer more acceleration.

    Used to break ties deterministically: among deployments achieving the
    optimal objective, pick one with the most accelerated segments.  The pin
    allows a hair of slack, far below the one-microsecond resolution of the
    objective values.
    """
    slack = 1e-6 * max(1.0, abs(incumbent))
    model.add_row(
        "tiebreak_pin", list(model.objective.items()), "<=", incumbent + slack
    )
    accel_vars = []
    for i, tid in enumerate(model.meta["tasks"]):
        for j in model.meta["accelerable"][tid]:
            accel_vars.append((model.var(f"a_t{i}_j{j}"), -1.0))
    model.set_objective(accel_vars)


def optimize(
    inst: ProblemInstance,
    policy: str,
    objective: str,
    backend=None,
    time_limit: float | None = None,
    mip_gap: float | None = 0.0,
    tie_break: str | None = None,
    emit_lp: str | None = None,
) -> OptimizeResult:
    """Find a deployment minimizing ``objective`` under ``policy``.

    The returned objective value is recomputed from the decoded deployment by
    the conservative analysis, so a successful result is certified
    end-to-end rather than taken on the solver's word.
    """
    start = time.perf_counter()
    model = build_milp(inst, policy, objective)
    stats = model.stats()
    if emit_lp:
        write_lp_file(model, emit_lp)
    if backend is None or isinstance(backend, str):
        backend = get_backend(backend)

    res = backend.solve(model, time_limit=time_limit, mip_gap=mip_gap)
    if not res.has_solution:
        return OptimizeResult(
            status=res.status,
            objective=None,
            solver_objective=res.objective,
            assignment=None,
            report=None,
            verified=False,
            gap=res.gap,
            runtime_s=time.perf_counter() - start,
            model_stats=stats,
            message=res.message,
            nodes=res.nodes,
            dual_bound=res.dual_bound,
        )

    solver_objective = res.objective
    status = res.status
    values = res.values
    nodes = res.nodes
    if tie_break == MAX_ACCELERATION and solver_objective is not None:
        _pin_and_maximize_acceleration(model, solver_objective)
        res2 = backend.solve(model, time_limit=time_limit, mip_gap=mip_gap)
        if nodes is not None and res2.nodes is not None:
            nodes += res2.nodes
        if res2.has_solution:
            values = res2.values
            status = res2.status if status == OPTIMAL else status
    elif tie_break is not None and tie_break != MAX_ACCELERATION:
        raise ValueError(f"unknown tie_break {tie_break!r}")

    assignment = decode_assignment(model, values)
    verification = verify_solution(
        inst, assignment, policy, objective, claimed=solver_objective
    )
    return OptimizeResult(
        status=status,
        objective=verification.objective,
        solver_objective=solver_objective,
        assignment=assignment,
        report=verification.report,
        verified=verification.ok,
        gap=res.gap,
        runtime_s=time.perf_counter() - start,
        model_stats=stats,
        message=verification.message or res.message,
        nodes=nodes,
        dual_bound=res.dual_bound,
    )


__all__ = [
    "ENV_SOLVER_CMD",
    "ERROR",
    "FEASIBLE",
    "INFEASIBLE",
    "MAX_ACCELERATION",
    "NO_SOLUTION",
    "OPTIMAL",
    "UNBOUNDED",
    "ExternalBackend",
    "MilpModel",
    "OptimizeResult",
    "ScipyBackend",
    "SolutionDecodeError",
    "SolveResult",
    "VerificationResult",
    "build_milp",
    "decode_assignment",
    "get_backend",
    "optimize",
    "verify_solution",
    "write_lp",
    "write_lp_file",
]
