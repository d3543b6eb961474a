"""Command-line front end.

Subcommands mirror the library layers: ``validate`` and ``analyze`` wrap the
model and analysis modules, ``optimize`` the MILP route, ``search`` the
exhaustive reference, and ``simulate`` the discrete-event executor.  All
structured output is deterministic JSON (sorted keys) so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import json
import sys

from hetsched.analysis import (
    EXACT,
    LATENCY_OBJECTIVES,
    MODES,
    OBJECTIVES,
    POLICIES,
    analyze,
    evaluate_objective,
)
from hetsched.bruteforce import best_assignment, search_space_size
from hetsched.milp import INFEASIBLE, MAX_ACCELERATION, optimize
from hetsched.model import (
    Assignment,
    ModelError,
    ProblemInstance,
    assignment_from_json,
    assignment_to_dict,
    load_instance,
    raise_invalid,
    scale_wcets,
    validate_instance,
    waters_published_assignment,
)
from hetsched.simulator import SimEvent, simulate, validate_trace

PUBLISHED_ASSIGNMENT = "builtin:waters"


def _load_inputs(args, check: bool = True) -> ProblemInstance:
    """Load (and scale) the instance; with ``check`` reject an invalid one."""
    inst = load_instance(args.instance)
    if getattr(args, "scale", None) is not None:
        inst = scale_wcets(inst, args.scale)
    if check:
        raise_invalid("invalid instance", validate_instance(inst))
    return inst


def _load_assignment(ref: str) -> Assignment:
    if ref == PUBLISHED_ASSIGNMENT:
        return waters_published_assignment()
    with open(ref, "r", encoding="utf-8") as fh:
        return assignment_from_json(fh.read())


def _emit(doc: dict, args) -> None:
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit_csv(rows: list[dict], args) -> None:
    import csv

    target = open(args.out, "w", encoding="utf-8", newline="") if args.out else sys.stdout
    try:
        writer = csv.DictWriter(target, fieldnames=list(rows[0].keys()))
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.out:
            target.close()


def _cmd_validate(args) -> int:
    inst = _load_inputs(args, check=False)
    problems = [str(v) for v in validate_instance(inst)]
    doc = {
        "instance": args.instance,
        "valid": not problems,
        "problems": problems,
        "tasks": len(inst.tasks),
        "cores": len(inst.platform.cores),
        "chains": len(inst.chains),
    }
    _emit(doc, args)
    return 0 if not problems else 1


def _cmd_analyze(args) -> int:
    inst = _load_inputs(args)
    assignment = _load_assignment(args.assignment)
    report = analyze(inst, assignment, args.policy, mode=args.mode)
    if args.format == "csv":
        _emit_csv(report.to_dict()["tasks"], args)
    else:
        doc = report.to_dict()
        # Latency objectives need a chain; response-time ones do not.
        objectives = [o for o in OBJECTIVES if inst.chains or o not in LATENCY_OBJECTIVES]
        values = {o: evaluate_objective(report, o) for o in objectives}
        doc["objectives"] = {o: None if v is None else float(v) for o, v in values.items()}
        _emit(doc, args)
    return 0 if report.schedulable else 2


def _cmd_optimize(args) -> int:
    inst = _load_inputs(args)
    result = optimize(
        inst,
        args.policy,
        args.objective,
        backend=args.backend,
        time_limit=args.time_limit,
        mip_gap=args.mip_gap,
        tie_break=MAX_ACCELERATION if args.tie_break else None,
        emit_lp=args.emit_lp,
    )
    _emit(result.to_dict(), args)
    if result.ok:
        return 0
    # Only a proven infeasibility means "no feasible deployment"; a solver
    # error, an empty time-out or an unverified solution is a failure.
    return 2 if result.status == INFEASIBLE else 1


def _cmd_search(args) -> int:
    inst = _load_inputs(args)
    result = best_assignment(inst, args.policy, args.objective, limit=args.limit)
    doc = {
        "objective": None if result.objective is None else float(result.objective),
        "assignment": None
        if result.assignment is None
        else assignment_to_dict(result.assignment),
        "space": search_space_size(inst),
        "evaluated": result.evaluated,
        "feasible": result.feasible,
    }
    _emit(doc, args)
    return 0 if result.objective is not None else 2


def _cmd_simulate(args) -> int:
    inst = _load_inputs(args)
    assignment = _load_assignment(args.assignment)
    result = simulate(
        inst,
        assignment,
        args.policy,
        horizon_us=args.horizon,
        seed=args.seed,
    )
    problems = validate_trace(result.events, args.policy)
    doc = {
        "horizon_us": result.horizon_us,
        "observed_wcrt_us": result.observed_wcrt_us,
        "jobs_finished": result.jobs_finished,
        "deadline_misses": len(result.deadline_misses),
        "truncated": result.truncated,
        "trace_problems": problems,
    }
    if args.events:
        doc["events"] = [
            {k: v for k, v in zip(SimEvent._fields, ev) if v is not None} for ev in result.events
        ]
    _emit(doc, args)
    ok = not result.deadline_misses and not result.truncated and not problems
    return 0 if ok else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hetsched",
        description="Schedulability analysis and deployment optimization for "
        "task sets sharing a hardware accelerator.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, policy=True, assignment=False, objective=False):
        p.add_argument(
            "--instance",
            required=True,
            help="instance JSON path, or builtin:waters",
        )
        p.add_argument(
            "--scale",
            help="multiply every WCET by this decimal factor (e.g. 0.8)",
        )
        p.add_argument("--out", help="write output to this file instead of stdout")
        if assignment:
            p.add_argument(
                "--assignment",
                required=True,
                help=f"assignment JSON path, or {PUBLISHED_ASSIGNMENT} for the "
                "published benchmark deployment",
            )
        if policy:
            p.add_argument("--policy", required=True, choices=sorted(POLICIES))
        if objective:
            p.add_argument("--objective", required=True, choices=sorted(OBJECTIVES))

    p = sub.add_parser("validate", help="check an instance's structural invariants")
    common(p, policy=False)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("analyze", help="response times and chain latencies of a deployment")
    common(p, assignment=True)
    p.add_argument("--mode", default=EXACT, choices=sorted(MODES))
    p.add_argument("--format", default="json", choices=["json", "csv"])
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("optimize", help="find a deployment by mixed-integer programming")
    common(p, objective=True)
    p.add_argument("--backend", help="scipy (default), external, or a command template")
    p.add_argument("--time-limit", type=float, help="solver wall-clock budget in seconds")
    p.add_argument("--mip-gap", type=float, default=0.0, help="relative optimality gap")
    p.add_argument(
        "--tie-break",
        action="store_true",
        help="among optimal deployments, prefer the most accelerated one",
    )
    p.add_argument("--emit-lp", help="also write the model in LP format to this path")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("search", help="exhaustive reference search (small instances)")
    common(p, objective=True)
    p.add_argument("--limit", type=int, default=1_000_000, help="candidate cap")
    p.set_defaults(func=_cmd_search)

    p = sub.add_parser("simulate", help="discrete-event execution of a deployment")
    common(p, assignment=True)
    p.add_argument("--horizon", type=int, help="simulated microseconds (default: hyperperiod)")
    p.add_argument("--seed", type=int, help="randomize offsets and durations")
    p.add_argument("--events", action="store_true", help="include the event trace")
    p.set_defaults(func=_cmd_simulate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ModelError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
