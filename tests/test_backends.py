"""Solver backends: in-process HiGHS, solution-file parsing, external commands."""

import math
import os
import stat
import warnings

import pytest
import scipy.optimize

from hetsched.milp import optimize
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
    get_backend,
    parse_solution_file,
)
from hetsched.milp.ir import MilpModel
from hetsched.milp.lpwriter import write_lp_file
from hetsched.model import ModelError, builtin_waters


def tiny_model():
    """min x + 2y  s.t.  x + y >= 2.5,  y <= 1,  x integer."""
    m = MilpModel(name="tiny")
    x = m.add_var("x", lb=0.0, integer=True)
    y = m.add_var("y", lb=0.0, ub=1.0)
    m.add_row("cover", [(x, 1.0), (y, 1.0)], ">=", 2.5)
    m.set_objective([(x, 1.0), (y, 2.0)])
    return m


def test_scipy_solves_tiny_mip():
    res = ScipyBackend().solve(tiny_model())
    assert res.status == OPTIMAL
    assert res.has_solution
    # Two optima (x=2, y=0.5 and x=3, y=0) share the objective value.
    assert res.objective == pytest.approx(3.0)
    x, y = res.values["x"], res.values["y"]
    assert x + y >= 2.5 - 1e-9
    assert x == pytest.approx(round(x))


def test_scipy_reports_infeasible():
    m = tiny_model()
    m.add_row("cap", [(m.var("x"), 1.0), (m.var("y"), 1.0)], "<=", 1.0)
    res = ScipyBackend().solve(m)
    assert res.status == INFEASIBLE
    assert not res.has_solution
    assert res.values == {}


@pytest.mark.parametrize(
    "coef, rhs", [(1e300, 1.0), (math.inf, 1.0), (1.0, math.nan)], ids=["1e300", "inf", "nan"]
)
def test_scipy_model_error_is_not_infeasible(coef, rhs):
    # scipy's milp returns status 2 for a HiGHS model error as for a proof of
    # infeasibility; only the HiGHS status in its message tells them apart.
    m = tiny_model()
    m.add_row("bad", [(m.var("x"), coef)], "<=", rhs)
    res = ScipyBackend().solve(m)
    assert res.status == ERROR
    assert "Model error" in res.message
    assert not res.has_solution


@pytest.mark.parametrize(
    "integer, status", [(False, UNBOUNDED), (True, ERROR)], ids=["continuous", "integer"]
)
def test_scipy_reports_an_unbounded_model(integer, status):
    # On an integer model HiGHS answers "unbounded or infeasible" (HiGHS
    # status 9), which must not read as a proof of infeasibility.
    m = MilpModel("unbounded")
    x = m.add_var("x", lb=-math.inf, integer=integer)
    m.add_row("cap", [(x, 1.0)], "<=", 5.0)
    m.set_objective([(x, 1.0)])
    res = ScipyBackend().solve(m)
    assert res.status == status
    assert not res.has_solution


def test_scipy_switches_off_feasibility_jump(monkeypatch):
    seen = []
    milp = scipy.optimize.milp

    def spy(*args, **kwargs):
        seen.append(dict(kwargs["options"]))
        return milp(*args, **kwargs)

    monkeypatch.setattr(scipy.optimize, "milp", spy)
    assert ScipyBackend().solve(tiny_model()).status == OPTIMAL
    assert len(seen) == 1
    assert seen[0]["mip_heuristic_run_feasibility_jump"] is False


def test_scipy_solve_emits_no_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = ScipyBackend().solve(tiny_model())
    assert res.status == OPTIMAL


def test_scipy_reports_solver_statistics():
    res = ScipyBackend().solve(tiny_model())
    assert isinstance(res.nodes, int) and res.nodes >= 0
    assert res.dual_bound == pytest.approx(res.objective)


def test_parse_cplex_xml_solution():
    text = """<?xml version = "1.0" encoding="UTF-8" standalone="yes"?>
<CPLEXSolution version="1.2">
 <header problemName="tiny" objectiveValue="3" solutionStatusString="integer optimal solution"/>
 <variables>
  <variable name="x" index="0" value="2"/>
  <variable name="y" index="1" value="0.5"/>
  <variable name="slack" index="2" value="9"/>
 </variables>
</CPLEXSolution>
"""
    res = parse_solution_file(text, tiny_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0)
    assert res.values == {"x": 2.0, "y": 0.5}  # unknown names dropped


def test_parse_highs_raw_solution():
    text = """Model status
Optimal

# Primal solution values
Feasible
Objective 3
# Columns 2
x 2
y 0.5
# Rows 1
cover 2.5

# Basis
HiGHS v1
Valid
# Columns 2
x 1
y 1
"""
    res = parse_solution_file(text, tiny_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0)
    # Basis codes after "# Basis" must not clobber the solution values.
    assert res.values == {"x": 2.0, "y": 0.5}


def test_parse_colon_status_solution():
    res = parse_solution_file("Model status: Optimal\nObjective: 4\nx 4\n", tiny_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(4.0)
    assert res.values == {"x": 4.0}


def test_parse_cbc_style_solution():
    text = """Optimal - objective value 3.00000000
      0 x                      2                       1
      1 y                      0.5                     2
"""
    res = parse_solution_file(text, tiny_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0)
    assert res.values == {"x": 2.0, "y": 0.5}


def test_parse_solution_without_objective_recomputes_it():
    res = parse_solution_file("Model status: Optimal\nx 3\ny 1\n", tiny_model())
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(5.0)  # 3 + 2*1 from the model objective


@pytest.mark.parametrize(
    "text, status",
    [
        ("Status: Optimal\nx 2\n", OPTIMAL),
        ("Feasible\nx 2\n", FEASIBLE),
        ("Model status: Unbounded\n", UNBOUNDED),
        ("", NO_SOLUTION),
        (
            '<?xml version="1.0"?><CPLEXSolution><header'
            ' solutionStatusString="integer infeasible or unbounded"/></CPLEXSolution>',
            ERROR,
        ),
        ('<?xml version="1.0"?><CPLEXSolution><header', ERROR),
    ],
    ids=["status-line", "values-only", "unbounded", "empty", "undecided-xml", "truncated-xml"],
)
def test_parse_solution_file_status(text, status):
    assert parse_solution_file(text, tiny_model()).status == status


def test_parse_infeasible_solution_file():
    res = parse_solution_file("Model status: Infeasible\n", tiny_model())
    assert res.status == INFEASIBLE
    assert not res.has_solution


def test_truncated_solution_file_reports_the_parse_error():
    res = parse_solution_file('<?xml version="1.0"?><CPLEXSolution><header', tiny_model())
    assert res.status == ERROR
    assert res.message.startswith("unreadable solution file:")


@pytest.mark.parametrize(
    "text, named",
    [
        ("Model status: Optimal\nObjective 3\nx nan\ny 0.5\n", "x is nan"),
        ("Model status: Optimal\nObjective: inf\nx 2\ny 0.5\n", "objective is inf"),
        (
            '<?xml version="1.0"?><CPLEXSolution><header objectiveValue="3"'
            ' solutionStatusString="integer optimal solution"/><variables>'
            '<variable name="x" value="nan"/><variable name="y" value="0.5"/>'
            "</variables></CPLEXSolution>",
            "x is nan",
        ),
    ],
    ids=["text-value-nan", "text-objective-inf", "xml-value-nan"],
)
def test_a_number_that_is_not_finite_makes_the_solution_file_unreadable(text, named):
    res = parse_solution_file(text, tiny_model())
    assert res.status == ERROR and not res.has_solution
    assert res.message == f"unreadable solution file: {named}"


try:
    from scipy.optimize._highspy._core import _Highs
except ImportError:  # a private binding; other scipy builds may lack it
    _Highs = None


def continuous_tiny_model():
    """``tiny_model()`` with ``x`` continuous: the one optimum x = 2.5, y = 0."""
    m = tiny_model()
    m.integer[m.var("x")] = False
    return m


def infeasible_tiny_model():
    m = tiny_model()
    m.add_row("cap", [(m.var("x"), 1.0), (m.var("y"), 1.0)], "<=", 1.0)
    return m


def unbounded_model(integer):
    """min -x  s.t.  x + y >= 5."""
    m = MilpModel("unbounded")
    x = m.add_var("x", lb=0.0, integer=integer)
    y = m.add_var("y", lb=0.0)
    m.add_row("cover", [(x, 1.0), (y, 1.0)], ">=", 5.0)
    m.set_objective([(x, -1.0)])
    return m


HIGHS_MODELS = {
    "tiny": tiny_model,
    "tiny-continuous": continuous_tiny_model,
    "infeasible": infeasible_tiny_model,
    "unbounded-integer": lambda: unbounded_model(True),
    "unbounded-continuous": lambda: unbounded_model(False),
}


def highs_solution_file(model, presolve, tmp_path):
    """The solution file HiGHS writes (its raw ``--solution_file`` format)
    after solving ``model`` read back from an LP file."""
    lp, sol = tmp_path / "model.lp", tmp_path / "model.sol"
    write_lp_file(model, str(lp))
    highs = _Highs()
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("presolve", "on" if presolve else "off")
    highs.readModel(str(lp))
    highs.run()
    highs.writeSolution(str(sol), 0)
    return sol.read_text()


needs_highs = pytest.mark.skipif(_Highs is None, reason="scipy's HiGHS binding is missing")


@needs_highs
@pytest.mark.parametrize("presolve", [True, False], ids=["presolve", "no-presolve"])
@pytest.mark.parametrize("name", list(HIGHS_MODELS))
def test_highs_solution_file_reads_as_scipy_solves(tmp_path, name, presolve):
    # HiGHS writes "Primal infeasible or unbounded" for an undecided integer
    # model, and its dual section of an unbounded LP says "Infeasible".
    model = HIGHS_MODELS[name]()
    res = parse_solution_file(highs_solution_file(model, presolve, tmp_path), model)
    assert res.status == ScipyBackend().solve(model, presolve=presolve).status


@needs_highs
@pytest.mark.parametrize("presolve", [True, False], ids=["presolve", "no-presolve"])
def test_highs_solution_file_gives_primal_values(tmp_path, presolve):
    # The dual section that follows lists reduced costs under the same names.
    model = continuous_tiny_model()
    res = parse_solution_file(highs_solution_file(model, presolve, tmp_path), model)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(2.5)
    assert res.values == {"x": 2.5, "y": 0.0}


FAKE_SOLVER = """\
#!/usr/bin/env python3
\"\"\"Pretend solver: checks the LP exists, writes a canned solution.\"\"\"
import sys

lp, sol = sys.argv[1], sys.argv[2]
assert open(lp).readline().startswith("\\\\")
with open(sol, "w") as fh:
    fh.write("Model status: Optimal\\nObjective 3\\nx 2\\ny 0.5\\n")
"""


@pytest.fixture
def fake_solver(tmp_path):
    script = tmp_path / "fakesolver.py"
    script.write_text(FAKE_SOLVER)
    script.chmod(script.stat().st_mode | stat.S_IEXEC)
    return f"python3 {script} {{lp}} {{sol}}"


def test_external_backend_runs_command(fake_solver):
    res = ExternalBackend(fake_solver).solve(tiny_model(), time_limit=5)
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.0)
    assert res.values == {"x": 2.0, "y": 0.5}
    assert res.nodes is None and res.dual_bound is None


def test_external_backend_reads_command_from_environment(fake_solver, monkeypatch):
    monkeypatch.setenv(ENV_SOLVER_CMD, fake_solver)
    res = ExternalBackend().solve(tiny_model())
    assert res.status == OPTIMAL


def test_external_backend_requires_command(monkeypatch):
    monkeypatch.delenv(ENV_SOLVER_CMD, raising=False)
    with pytest.raises(ModelError, match=ENV_SOLVER_CMD):
        ExternalBackend()


def test_external_backend_reports_missing_solution_file(tmp_path):
    script = tmp_path / "broken.py"
    script.write_text("#!/usr/bin/env python3\nimport sys\nsys.stderr.write('boom')\n")
    res = ExternalBackend(f"python3 {script} {{lp}} {{sol}}").solve(tiny_model())
    assert res.status == ERROR
    assert "boom" in res.message


def test_external_backend_reports_bad_command():
    res = ExternalBackend("/does/not/exist {lp} {sol}").solve(tiny_model())
    assert res.status == ERROR
    assert "failed" in res.message


def test_get_backend_dispatch(fake_solver, monkeypatch):
    assert isinstance(get_backend(None), ScipyBackend)
    assert isinstance(get_backend("scipy"), ScipyBackend)
    monkeypatch.setenv(ENV_SOLVER_CMD, fake_solver)
    assert isinstance(get_backend("external"), ExternalBackend)
    templated = get_backend("mysolver {lp} -o {sol}")
    assert isinstance(templated, ExternalBackend)
    assert templated.command.startswith("mysolver")
    with pytest.raises(ModelError, match="backend"):
        get_backend("gurobi")


def test_time_limit_stops_the_solve_without_claiming_infeasibility():
    # The full solve takes seconds; 0.05 s stops it before the proof.
    res = optimize(builtin_waters(), "npfp", "minsum-lat", time_limit=0.05)
    assert res.status in (NO_SOLUTION, FEASIBLE)
