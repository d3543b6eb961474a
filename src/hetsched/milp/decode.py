"""Turn a solver's variable values back into a deployment, and re-check the
claimed result against the analytic schedulability test."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from hetsched.analysis import CONSERVATIVE, AnalysisReport, analyze, evaluate_objective
from hetsched.milp.ir import MilpModel
from hetsched.model import Assignment, ModelError, ProblemInstance


# How far, relative to its size, a solver's claimed objective may sit from
# the analyzed one.
CLAIM_TOLERANCE = 1e-6


class SolutionDecodeError(ModelError):
    """The solver returned values that do not round to a valid deployment."""


def _binary(values: dict[str, float], name: str) -> bool:
    v = values.get(name, 0.0)
    if abs(v - round(v)) > 1e-4:
        raise SolutionDecodeError(f"variable {name} = {v} is not integral")
    return round(v) >= 1


def decode_assignment(model: MilpModel, values: dict[str, float]) -> Assignment:
    meta = model.meta
    tasks: list[str] = meta["tasks"]
    cores: list[str] = meta["cores"]

    core_of = {}
    for i, tid in enumerate(tasks):
        chosen = [k for k in range(len(cores)) if _binary(values, f"x_t{i}_k{k}")]
        if len(chosen) != 1:
            raise SolutionDecodeError(f"task {tid} is mapped to {len(chosen)} cores")
        core_of[tid] = cores[chosen[0]]

    # A task's priority is one more than the number of tasks it outranks.
    # With one direction per pair (``c5``), these levels form a permutation
    # exactly when ``hp`` has no cycle.
    n = len(tasks)
    priority_of = {
        tid: 1 + sum(_binary(values, f"hp_t{i}_t{s}") for s in range(n) if s != i)
        for i, tid in enumerate(tasks)
    }
    if sorted(priority_of.values()) != list(range(1, n + 1)):
        raise SolutionDecodeError("priorities do not form a permutation")

    accelerated = {}
    for i, tid in enumerate(tasks):
        chosen = {j for j in meta["accelerable"][tid] if _binary(values, f"a_t{i}_j{j}")}
        accelerated[tid] = frozenset(chosen)
    return Assignment(core_of=core_of, priority_of=priority_of, accelerated=accelerated)


@dataclass(frozen=True)
class VerificationResult:
    ok: bool
    schedulable: bool
    objective: Fraction | None  # recomputed analytically from the deployment
    claimed: float | None  # the solver's objective value, if any
    report: AnalysisReport
    message: str = ""
    refutes_proof: bool = False  # the deployment beats a proven optimum


def verify_solution(
    inst: ProblemInstance,
    assignment: Assignment,
    policy: str,
    objective: str,
    claimed: float | None = None,
    proven: bool = False,
) -> VerificationResult:
    """Independently re-derive the decoded deployment's objective value.

    The deployment must be valid and pass the conservative schedulability
    test, and the recomputed objective must not beat the solver's claim by
    more than :data:`CLAIM_TOLERANCE` (the solver may legitimately claim a
    worse value when stopped early, never a better one).  A ``proven``
    claim, an optimum proved at a zero gap, must not exceed the recomputed
    objective by more than that either: a deployment that beats the proven
    optimum refutes the proof.
    """
    errors = inst.compiled.assignment_violations(assignment)
    if errors:
        raise SolutionDecodeError(
            "decoded deployment is invalid: " + "; ".join(str(e) for e in errors)
        )
    report = analyze(inst, assignment, policy, mode=CONSERVATIVE)
    value = evaluate_objective(report, objective)
    if value is None:
        return VerificationResult(
            ok=False,
            schedulable=False,
            objective=None,
            claimed=claimed,
            report=report,
            message="deployment fails the conservative schedulability test",
        )
    if claimed is not None:
        slack = CLAIM_TOLERANCE * max(1.0, abs(claimed))
        if float(value) > claimed + slack:
            return VerificationResult(
                ok=False,
                schedulable=True,
                objective=value,
                claimed=claimed,
                report=report,
                message=(
                    f"solver claimed {claimed} but the analysis only certifies {float(value)}"
                ),
            )
        if proven and float(value) < claimed - slack:
            return VerificationResult(
                ok=False,
                schedulable=True,
                objective=value,
                claimed=claimed,
                report=report,
                message=(
                    f"solver proved {claimed} optimal but its own deployment "
                    f"analyzes to {float(value)}"
                ),
                refutes_proof=True,
            )
    return VerificationResult(
        ok=True, schedulable=True, objective=value, claimed=claimed, report=report
    )
