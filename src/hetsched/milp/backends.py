"""Solver backends.

``ScipyBackend`` runs HiGHS in-process through :func:`scipy.optimize.milp`
and is the default.  ``ExternalBackend`` shells out to any command-line
solver that reads CPLEX-LP files: the command template receives the LP path,
a solution path, and the time limit, and the solution file may be CPLEX-style
XML or plain ``name value`` lines (HiGHS and CBC output both parse).

``ScipyBackend`` switches off HiGHS's feasibility-jump heuristic (Luteberget
& Sartor, "Feasibility Jump: an LP-free Lagrangian MIP heuristic", Math.
Prog. Comp. 2023).  HiGHS 1.12 runs it on every solve and again inside every
sub-MIP, and on the small deployment MILPs it is nearly all of the fixed
cost.  On a 14-column, 18-row model HiGHS's ``run()`` took 17.4 ms with it
and 1.3 ms without; on a quieter day the whole ``milp`` call took 8.8 ms and
1.3 ms (medians of 40 interleaved calls; scipy 1.17.1, 2 vCPUs).  It does
not pay on the large models either: the four WATERS min-max solves took
3.35 s with it and 3.24 s without, with 4 branch-and-bound nodes both
times, so there is no size threshold.  One solve got slower: WATERS rr
min-sum response time took 19.9 s and 5,686 nodes without it, against
16.2 s and 4,725 nodes with it, for the same optimum.  The two WATERS
min-sum latency solves did not move.

scipy passes the option, which its ``milp`` does not list, to HiGHS
verbatim and warns that it does; only that warning is silenced.  The solve
stays on :func:`scipy.optimize.milp` rather than on scipy's private
``_highspy`` bindings: it is the public entry point, and the benchmark
observes every HiGHS call (time, nodes, count) by wrapping it.
"""

from __future__ import annotations

import math
import os
import re
import shlex
import subprocess
import tempfile
import time
import warnings
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field

from hetsched.milp.ir import MilpModel
from hetsched.milp.lpwriter import write_lp_file
from hetsched.model import ModelError

ENV_SOLVER_CMD = "HETSCHED_SOLVER_CMD"

OPTIMAL = "optimal"
FEASIBLE = "feasible"  # a solution exists but optimality was not proven
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
NO_SOLUTION = "no_solution"
ERROR = "error"

# scipy's ``milp`` returns status 2 for HiGHS's kInfeasible and kModelError
# alike; the HiGHS model status is only in its message.
_HIGHS_STATUS = re.compile(r"\(HiGHS Status (\d+):")
_HIGHS_INFEASIBLE = 8  # HighsModelStatus.kInfeasible


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    gap: float | None = None
    runtime_s: float = 0.0
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them
    dual_bound: float | None = None  # proven lower bound on the objective

    @property
    def has_solution(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


class ScipyBackend:
    """In-process HiGHS via scipy.optimize.milp."""

    name = "scipy"

    def solve(
        self,
        model: MilpModel,
        time_limit: float | None = None,
        mip_gap: float | None = 0.0,
    ) -> SolveResult:
        import numpy as np
        from scipy import sparse
        from scipy.optimize import Bounds, LinearConstraint, milp

        nv = len(model.variables)
        c = np.zeros(nv)
        for idx, coef in model.objective.items():
            c[idx] = coef
        integrality = np.array([1 if v.integer else 0 for v in model.variables], dtype=np.uint8)
        lb = np.array([v.lb for v in model.variables])
        ub = np.array([np.inf if v.ub is None else v.ub for v in model.variables])

        constraints = None
        if model.rows:
            data, rows_ix, cols_ix = [], [], []
            lo = np.empty(len(model.rows))
            hi = np.empty(len(model.rows))
            for r, row in enumerate(model.rows):
                for idx, coef in row.terms:
                    rows_ix.append(r)
                    cols_ix.append(idx)
                    data.append(coef)
                if row.sense == "<=":
                    lo[r], hi[r] = -np.inf, row.rhs
                elif row.sense == ">=":
                    lo[r], hi[r] = row.rhs, np.inf
                else:
                    lo[r] = hi[r] = row.rhs
            A = sparse.csr_matrix((data, (rows_ix, cols_ix)), shape=(len(model.rows), nv))
            constraints = LinearConstraint(A, lo, hi)

        options: dict = {"disp": False, "mip_heuristic_run_feasibility_jump": False}
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_gap is not None:
            options["mip_rel_gap"] = float(mip_gap)

        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.filterwarnings(
                "ignore", message="Unrecognized options detected", category=RuntimeWarning
            )
            res = milp(
                c=c,
                integrality=integrality,
                bounds=Bounds(lb, ub),
                constraints=constraints,
                options=options,
            )
        elapsed = time.perf_counter() - start

        if res.status == 0:
            status = OPTIMAL
        elif res.status == 1:
            status = FEASIBLE if res.x is not None else NO_SOLUTION
        elif res.status == 2:
            highs = _HIGHS_STATUS.search(str(res.message))
            infeasible = highs is not None and int(highs.group(1)) == _HIGHS_INFEASIBLE
            status = INFEASIBLE if infeasible else ERROR
        elif res.status == 3:
            status = UNBOUNDED
        else:
            status = ERROR
        values = {}
        if res.x is not None:
            values = {v.name: float(res.x[i]) for i, v in enumerate(model.variables)}
        gap = res.get("mip_gap")
        nodes = res.get("mip_node_count")
        bound = res.get("mip_dual_bound")
        return SolveResult(
            status=status,
            objective=None if res.fun is None else float(res.fun),
            values=values,
            gap=None if gap is None else float(gap),
            runtime_s=elapsed,
            message=str(res.message),
            nodes=None if nodes is None else int(nodes),
            dual_bound=bound if bound is not None and math.isfinite(bound) else None,
        )


def _looks_like_float(tok: str) -> bool:
    try:
        float(tok)
        return True
    except ValueError:
        return False


def _parse_xml_solution(text: str, known: set[str]):
    root = ET.fromstring(text)
    status = None
    objective = None
    header = root.find("header")
    if header is not None:
        status = header.get("solutionStatusString") or header.get("status")
        if header.get("objectiveValue") is not None:
            objective = float(header.get("objectiveValue"))
    values = {}
    for var in root.iter("variable"):
        name = var.get("name")
        val = var.get("value")
        if name in known and val is not None:
            values[name] = float(val)
    return status, objective, values


def _parse_plain_solution(text: str, known: set[str]):
    status = None
    objective = None
    values: dict[str, float] = {}
    expect_status = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        low = line.lower()
        if line.startswith(("#", "*", "\\")):
            if "basis" in low:
                break  # HiGHS basis section reuses "name value" lines for codes
            continue
        if expect_status:
            status = line
            expect_status = False
            continue
        if low == "model status":
            expect_status = True  # HiGHS raw format: status is on the next line
            continue
        if low.startswith("model status:"):
            status = line.split(":", 1)[1].strip()
            continue
        if low.startswith("status"):
            parts = line.replace(":", " ").split(None, 1)
            if len(parts) == 2:
                status = parts[1].strip()
            continue
        if low.startswith("objective"):
            toks = line.replace(":", " ").split()
            if len(toks) >= 2 and _looks_like_float(toks[-1]):
                objective = float(toks[-1])
            continue
        if low.startswith(("optimal", "infeasible", "unbounded", "integer")):
            status = line
            toks = line.split()
            if "objective" in low and _looks_like_float(toks[-1]):
                objective = float(toks[-1])
            continue
        if low.startswith("feasible"):
            # Section marker in HiGHS files; never downgrade a known status.
            if status is None:
                status = line
            continue
        toks = line.split()
        if len(toks) >= 2 and toks[0] in known and _looks_like_float(toks[1]):
            values[toks[0]] = float(toks[1])
        elif len(toks) >= 3 and toks[1] in known and _looks_like_float(toks[2]):
            # CBC writes "<index> <name> <value> <reduced cost>".
            values[toks[1]] = float(toks[2])
    return status, objective, values


def parse_solution_file(text: str, model: MilpModel) -> SolveResult:
    """Interpret an external solver's solution file against a model."""
    known = {v.name for v in model.variables}
    stripped = text.lstrip()
    if stripped.startswith("<?xml") or stripped.startswith("<CPLEXSolution"):
        status_text, objective, values = _parse_xml_solution(text, known)
    else:
        status_text, objective, values = _parse_plain_solution(text, known)

    low = (status_text or "").lower()
    if "infeasible" in low:
        status = INFEASIBLE
    elif "unbounded" in low:
        status = UNBOUNDED
    elif "optimal" in low:
        status = OPTIMAL
    elif values:
        status = FEASIBLE
    else:
        status = NO_SOLUTION

    if objective is None and values and status in (OPTIMAL, FEASIBLE):
        objective = sum(
            coef * values.get(model.variables[idx].name, 0.0)
            for idx, coef in model.objective.items()
        )
    return SolveResult(
        status=status, objective=objective, values=values, message=status_text or ""
    )


class ExternalBackend:
    """Run a command-line solver on an LP file.

    The command template (argument or the HETSCHED_SOLVER_CMD environment
    variable) is formatted with ``{lp}``, ``{sol}`` and ``{timeout}`` (whole
    seconds), e.g.::

        highs --solution_file {sol} --time_limit {timeout} {lp}
        cbc {lp} sec {timeout} solve solution {sol}
    """

    name = "external"

    def __init__(self, command: str | None = None):
        self.command = command or os.environ.get(ENV_SOLVER_CMD, "")
        if not self.command:
            raise ModelError(
                f"external backend needs a command template (set {ENV_SOLVER_CMD})"
            )

    def solve(
        self,
        model: MilpModel,
        time_limit: float | None = None,
        mip_gap: float | None = 0.0,
    ) -> SolveResult:
        seconds = 86_400 if time_limit is None else max(1, math.ceil(time_limit))
        start = time.perf_counter()
        with tempfile.TemporaryDirectory(prefix="hetsched_milp_") as tmp:
            lp_path = os.path.join(tmp, "model.lp")
            sol_path = os.path.join(tmp, "model.sol")
            write_lp_file(model, lp_path)
            cmd = shlex.split(self.command.format(lp=lp_path, sol=sol_path, timeout=seconds))
            try:
                proc = subprocess.run(
                    cmd,
                    capture_output=True,
                    text=True,
                    timeout=seconds + 60,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                return SolveResult(status=ERROR, message=f"solver command failed: {exc}")
            elapsed = time.perf_counter() - start
            if not os.path.exists(sol_path):
                tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
                return SolveResult(
                    status=ERROR,
                    runtime_s=elapsed,
                    message="no solution file; solver said: " + " | ".join(tail),
                )
            with open(sol_path, "r", encoding="utf-8") as fh:
                result = parse_solution_file(fh.read(), model)
        result.runtime_s = elapsed
        return result


def get_backend(spec: str | None):
    """Resolve a backend: None/'scipy', 'external', or a command template."""
    if spec is None or spec == "scipy":
        return ScipyBackend()
    if spec == "external":
        return ExternalBackend()
    if "{lp}" in spec:
        return ExternalBackend(spec)
    raise ModelError(
        f"unknown backend {spec!r} (use 'scipy', 'external', or a command template with {{lp}})"
    )
