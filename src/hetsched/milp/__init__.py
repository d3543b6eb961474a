"""Joint deployment optimization: build the MILP, solve it, decode and verify.

:func:`optimize` is the high-level entry point; the pieces (builder, LP
writer, backends, decoder) are importable individually.
"""

from __future__ import annotations

import math
import numbers
import time
from dataclasses import dataclass
from fractions import Fraction

from hetsched.analysis import LATENCY_OBJECTIVES, AnalysisReport
from hetsched.bruteforce import local_search
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
    claim_limit,
    decode_assignment,
    verify_solution,
)
from hetsched.milp.ir import MilpModel
from hetsched.milp.lpwriter import write_lp, write_lp_file
from hetsched.model import Assignment, ModelError, ProblemInstance, assignment_to_dict

MAX_ACCELERATION = "max-acceleration"

# An rt objective weighs a microsecond of task i's response time by 1/D_i,
# which from a deadline of 10**7 us on is no longer above HiGHS's default dual
# feasibility tolerance of 1e-7, so HiGHS's rt values are not exact there.  On
# such instances a bound at the incumbent cut off every deployment (the bounded
# solve and its presolve-off re-solve both answered infeasible), so the rt
# solves of an instance with a deadline this long get no bound.
RT_BOUND_DEADLINE_LIMIT = 10**7


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
    nodes: int | None = None  # branch-and-bound nodes over every solve; None if one reported none
    dual_bound: float | None = None  # the solver's proven bound on solver_objective
    resolved_without_presolve: bool = False  # an infeasible or uncertified proof was re-solved
    incumbent: Fraction | None = None  # the local search's objective; None if it found none

    @property
    def ok(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE) and self.verified

    def to_dict(self) -> dict:
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
            "resolved_without_presolve": self.resolved_without_presolve,
            "incumbent": None if self.incumbent is None else float(self.incumbent),
        }


def _pin_and_maximize_acceleration(model: MilpModel, claim: float) -> None:
    """Hold the objective at a settled claim and prefer more acceleration.

    Used to break ties deterministically: among deployments achieving the
    claimed objective, pick one with the most accelerated segments.  The pin
    lets the objective exceed the claim by the margin
    :func:`~hetsched.milp.decode.claim_limit` adds, the tolerance
    :func:`verify_solution` grants a claim, whatever the objective's unit.
    """
    model.add_row("tiebreak_pin", list(model.objective.items()), "<=", claim_limit(claim))
    model.set_objective([(col, -1.0) for cols in model.meta["a"] for col in cols.values()])


def _number(v) -> bool:
    """A real number and not a ``bool``, which would read as 0 or 1."""
    return isinstance(v, numbers.Real) and not isinstance(v, bool)


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

    Before the solve, :func:`~hetsched.bruteforce.local_search` looks for a
    schedulable deployment; its objective is the result's ``incumbent``.  For
    a latency objective, whose values are whole microseconds, the first
    solve of the built-in backend gets ``objective_bound`` half a
    microsecond above it, which cuts off only deployments worse than one
    already known.  For a response-time objective, a ratio, the bound is
    the incumbent plus :data:`~hetsched.milp.decode.CLAIM_TOLERANCE` of its
    size (:func:`~hetsched.milp.decode.claim_limit`), the threshold above
    which a proof counts as beaten; it is left off when a deadline reaches
    :data:`RT_BOUND_DEADLINE_LIMIT`.  A deployment HiGHS returns is the one
    reported, so the search stays a check on the MILP route, not a part of
    it.

    Every solve runs on the one model :func:`build_milp` returns, in a fixed
    order: the first solve, the presolve-off re-solve if it is due, and last,
    with ``tie_break``, one tie-break solve.  Each is decoded and verified as
    it returns.

    When the built-in backend answers ``infeasible``, or proves at a zero gap
    an optimum that :func:`verify_solution` does not certify (it refutes the
    proofs that the decoded deployment or the incumbent beats), the model is
    solved once more with HiGHS's presolve off and without the bound, and a
    deployment found that way is reported (``resolved_without_presolve``).
    On small seeded instances, presolve occasionally cut off the optimum or
    every feasible point, and each such case seen solved right without it.
    The re-solve is the control experiment on the same model, so a fault of
    the encoding still shows: a proof still refuted is not verified.  Only
    the built-in backend is given the gap, so only its ``optimal`` counts as
    a proof.  No answer is ``infeasible`` once the search has found a
    deployment; it is an ``error`` instead.  A solve that stops without a
    deployment (a time limit) reports the search's deployment as
    ``feasible``, verified like the solver's.

    The tie-break (:data:`MAX_ACCELERATION`) pins the objective at the claim
    of the solve the answer settled on and asks for the most accelerated
    segments, with presolve off if a re-solve ran, and without the bound.
    Its deployment is the one reported, verified against that claim, so a
    refuted proof leaves the result unverified.

    ``mip_gap`` is None or a finite number >= 0, and ``time_limit`` None or
    a number >= 0 (``inf`` is no limit), neither a ``bool``; any other
    value, like an unknown ``tie_break``, raises
    :class:`~hetsched.model.ModelError`.
    """
    if tie_break not in (None, MAX_ACCELERATION):
        raise ModelError(f"unknown tie_break {tie_break!r}")
    if mip_gap is not None and not (_number(mip_gap) and 0 <= mip_gap < math.inf):
        raise ModelError(f"mip_gap must be a finite number >= 0, not {mip_gap!r}")
    if time_limit is not None and not (_number(time_limit) and time_limit >= 0):
        raise ModelError(f"time_limit must be a number >= 0, not {time_limit!r}")
    start = time.perf_counter()
    model = build_milp(inst, policy, objective)
    stats = model.stats()
    if emit_lp:
        write_lp_file(model, emit_lp)
    if backend is None or isinstance(backend, str):
        backend = get_backend(backend)

    builtin = isinstance(backend, ScipyBackend)
    incumbent = local_search(inst, policy, objective)
    known = incumbent.objective
    first = {}  # options of the first solve only
    if builtin and known is not None:
        if objective in LATENCY_OBJECTIVES:
            first["objective_bound"] = float(known) + 0.5
        elif max(inst.compiled.deadline) < RT_BOUND_DEADLINE_LIMIT:
            first["objective_bound"] = claim_limit(float(known))
    nodes: list[int | None] = []  # as each solve reports them

    def solve(**options) -> SolveResult:
        res = backend.solve(model, time_limit=time_limit, mip_gap=mip_gap, **options)
        nodes.append(res.nodes)
        return res

    def proven(res: SolveResult) -> bool:
        return builtin and res.status == OPTIMAL and mip_gap == 0

    def check(values: dict[str, float], claim: SolveResult):
        """The deployment ``values`` encode, verified against ``claim``."""
        assignment = decode_assignment(model, values)
        return assignment, verify_solution(
            inst, assignment, policy, objective, claim.objective, proven(claim), incumbent=known
        )

    res = solve(**first)
    assignment = verification = None
    if res.has_solution:
        assignment, verification = check(res.values, res)
    resolved = (builtin and res.status == INFEASIBLE) or (proven(res) and not verification.ok)
    later = {"presolve": False} if resolved else {}  # options of the solves after the first
    if resolved:
        retry = solve(**later)
        if retry.has_solution:  # a re-solve without a deployment keeps the first answer
            res = retry
            assignment, verification = check(res.values, res)
    status = res.status
    if tie_break == MAX_ACCELERATION and res.has_solution and res.objective is not None:
        _pin_and_maximize_acceleration(model, res.objective)
        tie = solve(**later)
        if tie.has_solution:
            assignment, verification = check(tie.values, res)
            status = tie.status if status == OPTIMAL else status

    message = (verification is not None and verification.message) or res.message
    if known is not None and status == INFEASIBLE:
        status = ERROR
        message = f"solver answered infeasible but the local search found {float(known)}"
    elif known is not None and status == NO_SOLUTION:
        status, assignment = FEASIBLE, incumbent.assignment
        verification = verify_solution(inst, assignment, policy, objective)
        message = "solver stopped without a deployment; the local search's is reported"
    return OptimizeResult(
        status=status,
        objective=None if verification is None else verification.objective,
        solver_objective=res.objective,
        assignment=assignment,
        report=None if verification is None else verification.report,
        verified=verification is not None and verification.ok,
        gap=res.gap,
        runtime_s=time.perf_counter() - start,
        model_stats=stats,
        message=message,
        nodes=None if None in nodes else sum(nodes),
        dual_bound=res.dual_bound,
        resolved_without_presolve=resolved,
        incumbent=known,
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
