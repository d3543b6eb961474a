"""Turn a solver's variable values back into a deployment, and re-check the
claimed result against the analytic schedulability test."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hetsched.analysis import CONSERVATIVE, AnalysisReport, analyze, evaluate_objective
from hetsched.milp.ir import MilpModel
from hetsched.model import Assignment, ModelError, ProblemInstance, raise_invalid


# How far, relative to its size, a solver's claimed objective may sit from
# the analyzed one.
CLAIM_TOLERANCE = 1e-6


def claim_limit(value: float) -> float:
    """The largest claim that :data:`CLAIM_TOLERANCE` lets sit above ``value``."""
    return value + CLAIM_TOLERANCE * max(1.0, abs(value))


class SolutionDecodeError(ModelError):
    """The solver returned values that do not round to a valid deployment."""


def decode_assignment(model: MilpModel, values: dict[str, float]) -> Assignment:
    """The deployment that a solver's ``values``, keyed by column name, set
    on the columns that ``model.meta`` records."""
    meta = model.meta
    tasks: list[str] = meta["tasks"]
    cores: list[str] = meta["cores"]

    def on(col: int) -> bool:
        name = model.col_names[col]
        v = values.get(name, 0.0)
        if abs(v - round(v)) > 1e-4:
            raise SolutionDecodeError(f"variable {name} = {v} is not integral")
        return round(v) >= 1

    core_of = {}
    for tid, row in zip(tasks, meta["x"]):
        chosen = [k for k, col in enumerate(row) if on(col)]
        if len(chosen) != 1:
            raise SolutionDecodeError(f"task {tid} is mapped to {len(chosen)} cores")
        core_of[tid] = cores[chosen[0]]

    # A task's priority is one more than the number of tasks it outranks.
    # With one direction per pair (``c5``), these levels form a permutation
    # exactly when ``hp`` has no cycle.
    levels = [1] * len(tasks)
    for (i, _), col in meta["hp"].items():
        levels[i] += on(col)
    priority_of = dict(zip(tasks, levels))
    if sorted(levels) != list(range(1, len(tasks) + 1)):
        raise SolutionDecodeError("priorities do not form a permutation")

    accelerated = {
        tid: frozenset(j for j, col in cols.items() if on(col))
        for tid, cols in zip(tasks, meta["a"])
    }
    return Assignment(core_of=core_of, priority_of=priority_of, accelerated=accelerated)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    objective: Fraction | None  # recomputed analytically; None if unschedulable
    report: AnalysisReport
    message: str = ""


def verify_solution(
    inst: ProblemInstance,
    assignment: Assignment,
    policy: str,
    objective: str,
    claimed: float | None = None,
    proven: bool = False,
    incumbent: Fraction | None = None,
) -> VerificationResult:
    """Independently re-derive the decoded deployment's objective value.

    The deployment must be valid and pass the conservative schedulability
    test, and the recomputed objective must not beat the solver's claim by
    more than :data:`CLAIM_TOLERANCE` (the solver may legitimately claim a
    worse value when stopped early, never a better one).  A ``proven``
    claim, an optimum proved at a zero gap, is refuted by any known
    deployment that beats it by more than that: the decoded one, or the
    ``incumbent``, the value of a deployment found another way (the local
    search's in :func:`~hetsched.milp.optimize`).  An incumbent that beats
    the proof is reported ahead of every other finding.
    """
    raise_invalid(
        "decoded deployment is invalid",
        inst.compiled.assignment_violations(assignment),
        SolutionDecodeError,
    )
    report = analyze(inst, assignment, policy, mode=CONSERVATIVE)
    value = evaluate_objective(report, objective)
    message = ""
    if proven and incumbent is not None and claimed > claim_limit(float(incumbent)):
        message = f"solver proved {claimed} optimal but the local search found {float(incumbent)}"
    elif value is None:
        message = "deployment fails the conservative schedulability test"
    elif claimed is not None:
        if float(value) > claim_limit(claimed):
            message = f"solver claimed {claimed} but the analysis only certifies {float(value)}"
        elif proven and float(value) < claimed - CLAIM_TOLERANCE * max(1.0, abs(claimed)):
            message = (
                f"solver proved {claimed} optimal but its own deployment "
                f"analyzes to {float(value)}"
            )
    return VerificationResult(ok=not message, objective=value, report=report, message=message)
