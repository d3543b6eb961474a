"""Solver backends.

``ScipyBackend`` runs HiGHS in-process through :func:`scipy.optimize.milp`
and is the default.  ``ExternalBackend`` shells out to any command-line
solver that reads CPLEX-LP files: the command template receives the LP path,
a solution path, and the time limit.  The solution file may be CPLEX XML,
HiGHS's raw ``--solution_file`` format, CBC's solution file, or plain
``name value`` lines under a ``Status:`` line.  Reading stops at HiGHS's
dual-values and basis sections, whose rows reuse the column names.  A status
of "infeasible or unbounded" (HiGHS's "Primal infeasible or unbounded",
CPLEX's "integer infeasible or unbounded") is ``error``, as ``ScipyBackend``
reports it, never ``infeasible``; so is a solution file that cannot be read,
or that gives the objective or a variable a value that is not finite.

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

HiGHS writes some diagnostics (``transformNewIntegerFeasibleSolution``) to
file descriptor 1 even with its log off, so ``ScipyBackend`` points
descriptor 1 at descriptor 2 around the ``milp`` call, at about 3 µs a
solve: every caller, not only the command line, keeps standard output for
its own results.  The redirect needs the C library's stdio buffers flushed
before descriptor 1 is restored.  HiGHS writes through C's ``printf``, and
when standard output is a pipe or a file, C's buffer holds the line until
it is flushed; without ``fflush(NULL)`` (called through :mod:`ctypes`) the
line reaches the real standard output after the call.  Only unbuffered
stdio (``PYTHONUNBUFFERED=1`` or ``python -u``) hides the need.  Switching
HiGHS's ``output_flag`` off does not replace the redirect: with
``"output_flag": False`` passed and the redirect removed,
``HighsMipSolverData::transformNewIntegerFeasibleSolution tmpSolver.run();``
still reaches standard output while ``optimize`` solves
``tests/data/solver_noise.json`` under nocontention min-max rt (scipy 1.17.1,
HiGHS 1.12.0).
"""

from __future__ import annotations

import contextlib
import ctypes
import math
import os
import re
import shlex
import subprocess
import sys
import tempfile
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

# Plain-text solution files: "Status: Optimal", "Model status: Optimal" or
# HiGHS's bare "Model status" header; CBC's "Optimal - objective value 3".
_STATUS_LINE = re.compile(r"(?:model\s+)?status\b:?\s*(.*)", re.IGNORECASE)
_CBC_STATUS = re.compile(r"(.+?)\s+-\s+objective value\s+(\S+)", re.IGNORECASE)
_WORDS = re.compile(r"[a-z][a-z ,]*", re.IGNORECASE)


@dataclass
class SolveResult:
    status: str
    objective: float | None = None
    values: dict[str, float] = field(default_factory=dict)
    gap: float | None = None
    message: str = ""
    nodes: int | None = None  # branch-and-bound nodes, where the solver reports them
    dual_bound: float | None = None  # proven lower bound on the objective

    @property
    def has_solution(self) -> bool:
        return self.status in (OPTIMAL, FEASIBLE)


# The C library of this process, whose ``fflush(NULL)`` flushes every C stdio
# stream, HiGHS's ``printf`` buffer among them.
_LIBC = ctypes.CDLL(None)


@contextlib.contextmanager
def _stdout_to_stderr():
    """Point file descriptor 1 at descriptor 2 for the duration.

    Both Python's and the C library's stdout buffers are flushed on the way
    in and out, so what was written inside lands on descriptor 2 and what
    was written before stays on descriptor 1.  Descriptor 1 belongs to the
    whole process, so solves run from several threads at once may leave it
    pointing at descriptor 2.
    """
    sys.stdout.flush()
    _LIBC.fflush(None)
    saved = os.dup(1)
    os.dup2(2, 1)
    try:
        yield
    finally:
        sys.stdout.flush()
        _LIBC.fflush(None)
        os.dup2(saved, 1)
        os.close(saved)


class ScipyBackend:
    """In-process HiGHS via scipy.optimize.milp.

    ``objective_bound`` reaches HiGHS's option of that name verbatim, as the
    feasibility-jump switch does: HiGHS prunes every node whose bound is not
    below it, so a solve given a bound above a known deployment's objective
    searches only for deployments at least as good.  It is not a proof of
    anything: HiGHS has been seen to answer ``optimal`` above a bound set
    below the optimum, so an ``infeasible`` answer under a bound says
    nothing either.  ``optimize`` gives a latency solve, whose values are
    whole microseconds, a bound half a microsecond above a known value, so
    it cuts off only worse deployments.  A response-time solve, whose values
    are ratios, gets the known value plus the relative tolerance within
    which a claim is taken to match it, and only while every deadline keeps
    the objective's weights above HiGHS's dual feasibility tolerance.
    """

    def solve(
        self,
        model: MilpModel,
        time_limit: float | None = None,
        mip_gap: float | None = 0.0,
        presolve: bool = True,
        objective_bound: float | None = None,
    ) -> SolveResult:
        import numpy as np
        from scipy.optimize import Bounds, LinearConstraint, milp
        from scipy.sparse import csr_matrix

        c = np.zeros(len(model.col_names))
        c[list(model.objective)] = list(model.objective.values())
        A = csr_matrix(
            (model.coef, model.col_index, model.row_start),
            shape=(len(model.row_names), len(model.col_names)),
        )

        options: dict = {
            "disp": False,
            "presolve": presolve,
            "mip_heuristic_run_feasibility_jump": False,
        }
        if time_limit is not None:
            options["time_limit"] = float(time_limit)
        if mip_gap is not None:
            options["mip_rel_gap"] = float(mip_gap)
        if objective_bound is not None:
            options["objective_bound"] = float(objective_bound)

        with warnings.catch_warnings(), _stdout_to_stderr():
            warnings.filterwarnings(
                "ignore", message="Unrecognized options detected", category=RuntimeWarning
            )
            res = milp(
                c=c,
                integrality=model.integer,
                bounds=Bounds(model.col_lower, model.col_upper),
                constraints=LinearConstraint(A, model.row_lower, model.row_upper),
                options=options,
            )

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
        values = {} if res.x is None else dict(zip(model.col_names, res.x.tolist()))
        gap = res.get("mip_gap")
        nodes = res.get("mip_node_count")
        bound = res.get("mip_dual_bound")
        return SolveResult(
            status=status,
            objective=None if res.fun is None else float(res.fun),
            values=values,
            gap=None if gap is None else float(gap),
            message=str(res.message),
            nodes=None if nodes is None else int(nodes),
            dual_bound=bound if bound is not None and math.isfinite(bound) else None,
        )


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


def _parse_text_solution(text: str, known: set[str]):
    """Status, objective and values of a plain-text solution file, in one pass."""
    status = objective = None
    values: dict[str, float] = {}
    status_next = False  # HiGHS writes "Model status" and the status below it
    for raw in text.splitlines():
        line = raw.strip()
        low = line.lower()
        if low.startswith(("# dual", "# basis")):
            break  # HiGHS's dual values and basis codes reuse the "name value" rows
        if not line or line.startswith(("#", "*", "\\")):
            continue
        toks = line.replace(":", " ").split()
        try:
            if status_next:
                status, status_next = line, False
            elif found := _STATUS_LINE.fullmatch(line):
                if status is None:
                    status = found.group(1) or None
                    status_next = status is None
            elif low.startswith("objective"):
                objective = float(toks[-1])
            elif found := _CBC_STATUS.fullmatch(line):
                status = status or found.group(1)
                objective = float(found.group(2))
            elif toks[0] in known:
                values[toks[0]] = float(toks[1])
            elif _WORDS.fullmatch(line):
                status = status or line  # a bare status such as "Feasible"
            elif toks[1] in known:
                values[toks[1]] = float(toks[2])  # CBC: "<index> <name> <value> <reduced cost>"
        except (IndexError, ValueError):
            continue
    return status, objective, values


def parse_solution_file(text: str, model: MilpModel) -> SolveResult:
    """Interpret an external solver's solution file against a model."""
    known = set(model.col_names)
    if text.lstrip().startswith(("<?xml", "<CPLEXSolution")):
        try:
            status_text, objective, values = _parse_xml_solution(text, known)
        except (ET.ParseError, ValueError) as exc:
            return SolveResult(status=ERROR, message=f"unreadable solution file: {exc}")
    else:
        status_text, objective, values = _parse_text_solution(text, known)
    for name, v in [("objective", objective), *values.items()]:
        if v is not None and not math.isfinite(v):
            return SolveResult(status=ERROR, message=f"unreadable solution file: {name} is {v}")

    low = (status_text or "").lower()
    if "infeasible or unbounded" in low:
        status = ERROR  # undecided, as ScipyBackend reports HiGHS's status 9
    elif "infeasible" in low:
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
            coef * values.get(model.col_names[idx], 0.0)
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

    A template that names any other field or that ``shlex`` cannot split
    raises :class:`~hetsched.model.ModelError` when the backend is made.
    No field passes the gap, so :func:`~hetsched.milp.optimize` does not
    take an ``optimal`` answer from the command as a zero-gap proof.
    """

    def __init__(self, command: str | None = None):
        self.command = command or os.environ.get(ENV_SOLVER_CMD, "")
        if not self.command:
            raise ModelError(
                f"external backend needs a command template (set {ENV_SOLVER_CMD})"
            )
        try:
            self._argv("model.lp", "model.sol", 1)
        except (KeyError, IndexError, AttributeError, ValueError) as exc:
            raise ModelError(f"bad solver command template {self.command!r}: {exc}") from None

    def _argv(self, lp: str, sol: str, timeout: int) -> list[str]:
        return shlex.split(self.command.format(lp=lp, sol=sol, timeout=timeout))

    def solve(
        self,
        model: MilpModel,
        time_limit: float | None = None,
        mip_gap: float | None = 0.0,
    ) -> SolveResult:
        no_limit = time_limit is None or math.isinf(time_limit)
        seconds = 86_400 if no_limit else max(1, math.ceil(time_limit))
        with tempfile.TemporaryDirectory(prefix="hetsched_milp_") as tmp:
            lp_path = os.path.join(tmp, "model.lp")
            sol_path = os.path.join(tmp, "model.sol")
            write_lp_file(model, lp_path)
            try:
                proc = subprocess.run(
                    self._argv(lp_path, sol_path, seconds),
                    capture_output=True,
                    text=True,
                    timeout=seconds + 60,
                )
            except (OSError, subprocess.TimeoutExpired) as exc:
                return SolveResult(status=ERROR, message=f"solver command failed: {exc}")
            if not os.path.exists(sol_path):
                tail = (proc.stderr or proc.stdout or "").strip().splitlines()[-5:]
                return SolveResult(
                    status=ERROR, message="no solution file; solver said: " + " | ".join(tail)
                )
            try:
                with open(sol_path, "r", encoding="utf-8") as fh:
                    text = fh.read()
            except UnicodeDecodeError as exc:
                return SolveResult(status=ERROR, message=f"unreadable solution file: {exc}")
        return parse_solution_file(text, model)


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
