"""Command-line interface: subcommands, exit codes, output formats."""

import json
import math
import subprocess
import sys

import pytest
from helpers import (
    assign,
    buffered_stdio_env,
    make_instance,
    make_task,
    oracle_corpus_instance,
    seg_cpu,
    seg_opt,
)

from hetsched.cli import main
from hetsched.milp import ScipyBackend, build_milp
from hetsched.model import (
    ChainSpec,
    assignment_from_json,
    assignment_to_dict,
    assignment_to_json,
    builtin_waters,
    instance_from_json,
    instance_to_dict,
    instance_to_json,
    waters_published_assignment,
)
from hetsched.simulator import SimEvent, simulate


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture
def duo_files(tmp_path):
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    inst = make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])
    inst_path = tmp_path / "duo.json"
    inst_path.write_text(instance_to_json(inst))
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1}, {"t2": {0}})
    asg_path = tmp_path / "duo_assignment.json"
    asg_path.write_text(assignment_to_json(asg))
    return str(inst_path), str(asg_path)


@pytest.fixture
def overloaded_files(tmp_path):
    tasks = [make_task(f"t{i}", 10_000, [seg_cpu(6_000)]) for i in (1, 2)]
    inst = make_instance(tasks, n_cores=1)
    inst_path = tmp_path / "over.json"
    inst_path.write_text(instance_to_json(inst))
    asg = assign({"t1": "c0", "t2": "c0"}, {"t1": 2, "t2": 1})
    asg_path = tmp_path / "over_assignment.json"
    asg_path.write_text(assignment_to_json(asg))
    return str(inst_path), str(asg_path)


def test_validate_builtin(capsys):
    code, out, _ = run(capsys, "validate", "--instance", "builtin:waters")
    assert code == 0
    doc = json.loads(out)
    assert doc["valid"] is True
    assert (doc["tasks"], doc["cores"], doc["chains"]) == (9, 6, 8)


def test_validate_rejects_times_beyond_the_numeric_envelope(capsys, tmp_path):
    # At 10**15 HiGHS answered "infeasible (Model error)" for a 50 % load.
    tasks = [make_task(tid, 4 * 10**15, [seg_cpu(10**15)]) for tid in ("a", "b")]
    path = tmp_path / "huge.json"
    path.write_text(instance_to_json(make_instance(tasks, n_cores=1, accelerator=False)))
    code, out, _ = run(capsys, "validate", "--instance", str(path))
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert "2**40" in doc["problems"][0]


def test_analyze_published_deployment(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--instance", "builtin:waters",
        "--assignment", "builtin:waters",
        "--policy", "rr",
        "--mode", "exact",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schedulable"] is True
    assert len(doc["tasks"]) == 9
    assert doc["objectives"]["minmax-lat"] == 761_584.0


def test_analyze_csv_lists_every_task(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--instance", "builtin:waters",
        "--assignment", "builtin:waters",
        "--policy", "npfp",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("id,core,priority")
    assert len(lines) == 10


def test_analyze_csv_to_a_file(capsys, tmp_path):
    target = tmp_path / "report.csv"
    code, out, _ = run(
        capsys,
        "analyze",
        "--instance", "builtin:waters",
        "--assignment", "builtin:waters",
        "--policy", "rr",
        "--format", "csv",
        "--out", str(target),
    )
    assert code == 0
    assert out == ""
    lines = target.read_text().strip().splitlines()
    assert lines[0].startswith("id,core,priority")
    assert len(lines) == 10


def test_analyze_unschedulable_exit_code(capsys, overloaded_files):
    inst, asg = overloaded_files
    code, out, _ = run(
        capsys, "analyze", "--instance", inst, "--assignment", asg, "--policy", "rr"
    )
    assert code == 2
    assert json.loads(out)["schedulable"] is False


def test_analyze_reports_response_time_objectives_without_chains(capsys, tmp_path):
    tasks = [make_task("t1", 10_000, [seg_cpu(2_000)]), make_task("t2", 20_000, [seg_cpu(4_000)])]
    inst_path = tmp_path / "chainless.json"
    inst_path.write_text(instance_to_json(make_instance(tasks, n_cores=1)))
    asg_path = tmp_path / "chainless_assignment.json"
    asg_path.write_text(assignment_to_json(assign({"t1": "c0", "t2": "c0"}, {"t1": 2, "t2": 1})))
    code, out, _ = run(
        capsys, "analyze", "--instance", str(inst_path), "--assignment", str(asg_path),
        "--policy", "rr",
    )
    assert code == 0
    # Response over deadline: t1 2/10 ms, t2 8/20 ms; no chain, so no latency.
    assert json.loads(out)["objectives"] == {"minmax-rt": 0.4, "minsum-rt": 0.6}


@pytest.mark.parametrize("command", ["search", "optimize"])
def test_latency_objective_without_chains_is_an_error(capsys, tmp_path, command):
    # The same refusal whether or not the chainless instance is schedulable.
    for wcet in (2_000, 12_000):
        path = tmp_path / f"chainless_{wcet}.json"
        path.write_text(instance_to_json(make_instance([make_task("t", 10_000, [seg_cpu(wcet)])])))
        code, out, err = run(
            capsys, command, "--instance", str(path), "--policy", "rr", "--objective", "minmax-lat"
        )
        assert code == 1 and out == ""
        assert "error: latency objectives require at least one chain" in err


def test_analyze_scaled_instance(capsys):
    code, out, _ = run(
        capsys,
        "analyze",
        "--instance", "builtin:waters",
        "--assignment", "builtin:waters",
        "--policy", "rr",
        "--scale", "0.8",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["schedulable"] is True
    full = 14_379  # lidar worst case before scaling
    lidar = next(t for t in doc["tasks"] if t["id"] == "lidar_grabber")
    assert lidar["cpu_wcet_us"] < full


def test_optimize_finds_verified_optimum(capsys, duo_files):
    inst, _ = duo_files
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "optimal"
    assert doc["verified"] is True
    assert doc["objective"] == 29_500.0


def test_optimize_infeasible_exit_code(capsys, tmp_path):
    t = make_task("t", 10_000, [seg_cpu(12_000)])
    path = tmp_path / "inf.json"
    path.write_text(instance_to_json(make_instance([t])))
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", str(path),
        "--policy", "rr",
        "--objective", "minmax-rt",
    )
    assert code == 2
    assert json.loads(out)["status"] == "infeasible"


def test_optimize_solver_failure_is_not_infeasible(capsys, duo_files):
    # An external command that writes no solution file is a solver failure,
    # which must not be reported as "no feasible deployment".
    inst, _ = duo_files
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--backend", "false {lp}",
    )
    assert code == 1
    assert json.loads(out)["status"] == "error"


@pytest.mark.parametrize(
    "solution",
    ["Model status\nPrimal infeasible or unbounded\n", '<?xml version="1.0"?><CPLEXSolution><header'],
    ids=["undecided", "truncated"],
)
def test_optimize_undecided_or_unreadable_answer_is_an_error(capsys, tmp_path, duo_files, solution):
    # Neither file proves that no deployment exists, so the exit code is 1.
    inst, _ = duo_files
    script = tmp_path / "solver.py"
    script.write_text(f"import sys\nopen(sys.argv[1], 'w').write({solution!r})\n")
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--backend", f"{sys.executable} {script} {{sol}} {{lp}}",
    )
    assert code == 1
    assert json.loads(out)["status"] == "error"


def test_optimize_infeasible_answer_beside_a_known_deployment_is_an_error(
    capsys, tmp_path, duo_files
):
    # The local search found a deployment, so the solver's "infeasible" is
    # wrong, and the JSON names the search's value.
    inst, _ = duo_files
    script = tmp_path / "solver.py"
    script.write_text("import sys\nopen(sys.argv[1], 'w').write('Status: Infeasible\\n')\n")
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--backend", f"{sys.executable} {script} {{sol}} {{lp}}",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["incumbent"] == 29_500.0
    assert "local search found 29500" in doc["message"]


def test_optimize_non_utf8_solution_file_is_an_error(capsys, tmp_path, duo_files):
    inst, _ = duo_files
    script = tmp_path / "solver.py"
    script.write_text("import sys\nopen(sys.argv[1], 'wb').write(b'Model status\\n\\xff\\n')\n")
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--backend", f"{sys.executable} {script} {{sol}} {{lp}}",
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["message"].startswith("unreadable solution file: ")


def _no_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("bad", ["value", "objective"])
def test_optimize_non_finite_number_in_a_solution_file_is_an_error(
    capsys, tmp_path, duo_files, bad
):
    # HiGHS's own solution, written by a command with one number that is not
    # finite: a variable's value, or the objective beside correct values.
    inst, _ = duo_files
    with open(inst) as fh:
        model = build_milp(instance_from_json(fh.read()), "rr", "minmax-lat")
    res = ScipyBackend().solve(model)
    values = dict(res.values, **({"x_t0_k0": math.nan} if bad == "value" else {}))
    objective = math.inf if bad == "objective" else res.objective
    text = f"Model status: Optimal\nObjective: {objective!r}\n" + "".join(
        f"{name} {v!r}\n" for name, v in values.items()
    )
    script = tmp_path / "solver.py"
    script.write_text(f"import sys\nopen(sys.argv[1], 'w').write({text!r})\n")
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--backend", f"{sys.executable} {script} {{sol}} {{lp}}",
    )
    assert code == 1
    doc = json.loads(out, parse_constant=_no_constant)
    assert doc["status"] == "error" and doc["verified"] is False
    assert doc["message"].startswith("unreadable solution file: ")


def test_optimize_passes_an_infinite_time_limit_as_no_limit(capsys, duo_files):
    # The command reports the {timeout} it was given and writes no solution.
    inst, _ = duo_files
    report = f"{sys.executable} -c 'import sys; sys.stderr.write(sys.argv[1])' {{timeout}} {{lp}}"
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
        "--time-limit", "inf",
        "--backend", report,
    )
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "error"
    assert doc["message"].endswith("solver said: 86400")


@pytest.mark.parametrize("index", [16, 110])
def test_optimize_stdout_is_clean_json(capsys, tmp_path, index):
    # HiGHS writes to the stdout file descriptor directly, past capsys, so run
    # the CLI as a subprocess.  With continuous response times instance 16
    # ended in a solver error and instance 110 printed a HiGHS diagnostic
    # line ahead of the JSON document.
    path = tmp_path / f"corpus{index}.json"
    path.write_text(instance_to_json(oracle_corpus_instance(index)))
    args = ["--instance", str(path), "--policy", "rr", "--objective", "minmax-lat"]
    proc = subprocess.run(
        [sys.executable, "-m", "hetsched.cli", "optimize", *args],
        capture_output=True,
        text=True,
        env=buffered_stdio_env(),
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    code, out, _ = run(capsys, "search", *args)
    assert code == 0
    assert doc["objective"] is not None
    assert doc["objective"] == json.loads(out)["objective"]


def test_optimize_stdout_survives_solver_noise(tmp_path, duo_files):
    # Whatever HiGHS writes to file descriptor 1 must not reach the JSON
    # document on stdout.  The noise comes from inside the call HiGHS runs in,
    # once straight to the descriptor and once through C's buffered printf,
    # which HiGHS itself uses.
    inst, _ = duo_files
    script = tmp_path / "noisy.py"
    script.write_text(
        "import ctypes, os, sys\n"
        "import scipy.optimize\n"
        "from hetsched.cli import main\n"
        "milp = scipy.optimize.milp\n"
        "libc = ctypes.CDLL(None)\n"
        "def noisy(*args, **kwargs):\n"
        "    os.write(1, b'noise\\n')\n"
        "    libc.printf(b'printf noise\\n')\n"
        "    return milp(*args, **kwargs)\n"
        "scipy.optimize.milp = noisy\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script), "optimize", "--instance", inst,
         "--policy", "rr", "--objective", "minmax-lat"],
        capture_output=True,
        text=True,
        env=buffered_stdio_env(),
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["objective"] == 29_500.0
    assert "noise" in proc.stderr
    assert "printf noise" in proc.stderr


@pytest.mark.parametrize("command", ["analyze", "simulate", "search", "optimize"])
def test_invalid_instance_fails_every_subcommand(capsys, tmp_path, duo_files, command):
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)], deadline=20_000)
    t2 = make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)])
    path = tmp_path / "late.json"
    path.write_text(instance_to_json(make_instance([t1, t2])))
    _, asg = duo_files
    argv = [command, "--instance", str(path), "--policy", "rr"]
    if command in ("analyze", "simulate"):
        argv += ["--assignment", asg]
    else:
        argv += ["--objective", "minmax-rt"]
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: invalid instance:") and "deadline" in err


def test_search_matches_optimizer(capsys, duo_files):
    inst, _ = duo_files
    code, out, _ = run(
        capsys,
        "search",
        "--instance", inst,
        "--policy", "rr",
        "--objective", "minmax-lat",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["objective"] == 29_500.0
    assert doc["space"] == 16
    assert doc["evaluated"] == 12


def test_simulate_published_deployment(capsys):
    code, out, _ = run(
        capsys,
        "simulate",
        "--instance", "builtin:waters",
        "--assignment", "builtin:waters",
        "--policy", "rr",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["deadline_misses"] == 0
    assert doc["trace_problems"] == []
    assert doc["truncated"] is False


def test_simulate_can_dump_events(capsys, duo_files):
    inst, asg = duo_files
    code, out, _ = run(
        capsys,
        "simulate",
        "--instance", inst,
        "--assignment", asg,
        "--policy", "rr",
        "--events",
        "--seed", "3",
    )
    assert code == 0
    doc = json.loads(out)
    with open(inst, encoding="utf-8") as fh:
        instance = instance_from_json(fh.read())
    with open(asg, encoding="utf-8") as fh:
        assignment = assignment_from_json(fh.read())
    trace = simulate(instance, assignment, "rr", seed=3).events
    assert trace
    # The library's trace, event for event, without the unset fields.
    assert doc["events"] == [
        {f: v for f, v in zip(SimEvent._fields, e) if v is not None} for e in trace
    ]


def test_output_file_option(capsys, tmp_path):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "validate", "--instance", "builtin:waters", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["valid"] is True


def test_missing_instance_file_is_a_clean_error(capsys):
    code, _, err = run(capsys, "validate", "--instance", "/no/such/file.json")
    assert code == 1
    assert err.startswith("error:")


def _edited(doc: dict, path: tuple, value) -> str:
    """``doc`` as JSON text with the entry at ``path`` replaced by ``value``."""
    doc = json.loads(json.dumps(doc))
    *parents, key = path
    node = doc
    for p in parents:
        node = node[p]
    node[key] = value
    return json.dumps(doc)


WATERS_DOC = instance_to_dict(builtin_waters())
PUBLISHED_DOC = assignment_to_dict(waters_published_assignment())
NO_TASKS_DOC = json.dumps({**WATERS_DOC, "tasks": [], "chains": []})
EMPTY_ASSIGNMENT = json.dumps({"core_of": {}, "priority_of": {}, "accelerated": {}})
DEEP_JSON = "[" * 100_000 + "]" * 100_000  # deeper than ``json`` can recurse

# (path, value, instance text or None for builtin:waters, assignment text or
# None for the published deployment): ids and core types that are not strings.
NON_STRING_IDS = [
    ("tasks[0].id", 5, _edited(WATERS_DOC, ("tasks", 0, "id"), 5), None),
    ("platform.cores[0].id", 7.5, _edited(WATERS_DOC, ("platform", "cores", 0, "id"), 7.5), None),
    ("platform.cores[0].type", None, _edited(WATERS_DOC, ("platform", "cores", 0, "type"), None),
     None),
    ("platform.core_types[1]", 1, _edited(WATERS_DOC, ("platform", "core_types", 1), 1), None),
    ("chains[0].id", True, _edited(WATERS_DOC, ("chains", 0, "id"), True), None),
    ("chains[2].tasks[0]", 7, _edited(WATERS_DOC, ("chains", 2, "tasks", 0), 7), None),
    ("core_of.dasm", None, None, _edited(PUBLISHED_DOC, ("core_of", "dasm"), None)),
]

# (name, instance text or None for builtin:waters, assignment text or None
# for the published deployment, extra flags).  dasm's published priority is
# 6, so a reader that truncated 6.5 would accept the deployment.
MALFORMED = [
    ("instance is not JSON", "{not json", None, []),
    ("tasks is a number", _edited(WATERS_DOC, ("tasks",), 5), None, []),
    ("core_types is a number", _edited(WATERS_DOC, ("platform", "core_types"), 7), None, []),
    ("accelerator is text", _edited(WATERS_DOC, ("platform", "accelerator"), "false"), None, []),
    ("assignment is not JSON", None, "{not json", []),
    ("instance is nested too deep", DEEP_JSON, None, []),
    ("assignment is nested too deep", None, DEEP_JSON, []),
    ("priority is a string", None, _edited(PUBLISHED_DOC, ("priority_of", "dasm"), "abc"), []),
    ("priority is a fraction", None, _edited(PUBLISHED_DOC, ("priority_of", "dasm"), 6.5), []),
    ("accelerated is a number", None, _edited(PUBLISHED_DOC, ("accelerated", "dasm"), 3), []),
    ("scale is not a number", None, None, ["--scale", "abc"]),
    ("horizon is zero", None, None, ["--horizon", "0"]),
    ("horizon is negative", None, None, ["--horizon", "-5"]),
    ("gap is negative", None, None, ["--mip-gap", "-1"]),
    ("gap is nan", None, None, ["--mip-gap", "nan"]),
    ("time limit is negative", None, None, ["--time-limit", "-1"]),
    ("time limit is nan", None, None, ["--time-limit", "nan"]),
    ("time limit is nan for a command", None, None, ["--time-limit", "nan", "--backend", "false {lp}"]),
    ("command names an unknown field", None, None, ["--time-limit", "60", "--backend", "solver {lp} {gap}"]),
    ("command has a stray brace", None, None, ["--time-limit", "60", "--backend", "solver {lp} {"]),
    ("command has a positional field", None, None, ["--time-limit", "60", "--backend", "solver {lp} {0}"]),
    ("command has an unclosed quote", None, None, ["--time-limit", "60", "--backend", "solver '{lp}"]),
    # ``validate`` reports this instance on standard output, so the row
    # passes an assignment to leave it out; see the test below.
    ("no tasks", NO_TASKS_DOC, EMPTY_ASSIGNMENT, []),
] + [
    (f"{path} is {value!r}", inst_text, asg_text, [])
    for path, value, inst_text, asg_text in NON_STRING_IDS
]


@pytest.mark.parametrize(
    "inst_text, asg_text, flags", [m[1:] for m in MALFORMED], ids=[m[0] for m in MALFORMED]
)
def test_malformed_documents_and_flags_are_clean_errors(
    capsys, tmp_path, inst_text, asg_text, flags
):
    inst, asg = "builtin:waters", "builtin:waters"
    if inst_text is not None:
        inst = tmp_path / "bad.json"
        inst.write_text(inst_text)
    if asg_text is not None:
        asg = tmp_path / "bad_assignment.json"
        asg.write_text(asg_text)
    deployment = ["--instance", str(inst), "--assignment", str(asg), "--policy", "rr"]
    if flags[:1] in (["--mip-gap"], ["--time-limit"]):  # flags only ``optimize`` takes
        commands = [["optimize", "--instance", str(inst), "--policy", "rr",
                     "--objective", "minmax-lat"]]
    else:
        commands = [["simulate", *deployment]]
        if "--horizon" not in flags:  # the one flag only ``simulate`` takes
            commands.append(["analyze", *deployment])
            if asg_text is None:
                commands.append(["validate", "--instance", str(inst)])
    for argv in commands:
        code, out, err = run(capsys, *argv, *flags)
        assert code == 1, argv
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "Traceback" not in err


def test_an_instance_without_tasks_is_invalid_for_every_command(capsys, tmp_path):
    path = tmp_path / "no_tasks.json"
    path.write_text(NO_TASKS_DOC)
    asg = tmp_path / "empty_assignment.json"
    asg.write_text(EMPTY_ASSIGNMENT)
    inst = ["--instance", str(path), "--policy", "rr"]
    code, out, _ = run(capsys, "validate", *inst[:2])
    assert code == 1
    doc = json.loads(out)
    assert doc["valid"] is False
    assert doc["problems"] == ["tasks: at least one task required"]
    deployment = [*inst, "--assignment", str(asg)]
    for argv in (
        ["analyze", *deployment, "--format", "csv"],
        ["simulate", *deployment],
        ["optimize", *inst, "--objective", "minmax-rt"],
        ["search", *inst, "--objective", "minmax-rt"],
    ):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err == "error: invalid instance: tasks: at least one task required\n"


@pytest.mark.parametrize(
    "path, inst_text, asg_text",
    [(path, i, a) for path, _, i, a in NON_STRING_IDS],
    ids=[row[0] for row in NON_STRING_IDS],
)
def test_non_string_id_names_its_path(capsys, tmp_path, path, inst_text, asg_text):
    inst, asg = "builtin:waters", "builtin:waters"
    if inst_text is not None:
        inst = tmp_path / "bad.json"
        inst.write_text(inst_text)
    if asg_text is not None:
        asg = tmp_path / "bad_assignment.json"
        asg.write_text(asg_text)
    code, _, err = run(
        capsys, "analyze", "--instance", str(inst), "--assignment", str(asg), "--policy", "rr"
    )
    assert code == 1
    assert err == f"error: {path}: expected a string\n"


def test_priority_of_an_unknown_task_is_invalid(capsys, tmp_path):
    asg = tmp_path / "ghost.json"
    asg.write_text(_edited(PUBLISHED_DOC, ("priority_of", "ghost"), 99))
    code, out, err = run(
        capsys, "analyze", "--instance", "builtin:waters", "--assignment", str(asg), "--policy", "rr"
    )
    assert code == 1
    assert out == ""
    assert err == "error: invalid assignment: priority_of.ghost: unknown task\n"


def test_optimize_out_of_time_is_never_infeasible(capsys):
    # The full solve takes seconds; 0.05 s stops it before the proof.
    code, out, _ = run(
        capsys,
        "optimize",
        "--instance", "builtin:waters",
        "--policy", "npfp",
        "--objective", "minsum-lat",
        "--time-limit", "0.05",
    )
    assert code != 2
    assert json.loads(out)["status"] in ("no_solution", "feasible")


def test_unknown_policy_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main(
            [
                "analyze",
                "--instance", "builtin:waters",
                "--assignment", "builtin:waters",
                "--policy", "edf",
            ]
        )
    assert exc.value.code == 2


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hetsched.cli", "validate", "--instance", "builtin:waters"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["valid"] is True
