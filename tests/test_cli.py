"""Command-line interface: subcommands, exit codes, output formats."""

import json
import subprocess
import sys

import pytest
from helpers import assign, make_instance, make_task, oracle_corpus_instance, seg_cpu, seg_opt

from hetsched.cli import main
from hetsched.model import ChainSpec, assignment_to_json, instance_to_json


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


def test_analyze_unschedulable_exit_code(capsys, overloaded_files):
    inst, asg = overloaded_files
    code, out, _ = run(
        capsys, "analyze", "--instance", inst, "--assignment", asg, "--policy", "rr"
    )
    assert code == 2
    assert json.loads(out)["schedulable"] is False


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
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout)
    code, out, _ = run(capsys, "search", *args)
    assert code == 0
    assert doc["objective"] is not None
    assert doc["objective"] == json.loads(out)["objective"]


def test_optimize_stdout_survives_solver_noise(tmp_path, duo_files):
    # Whatever the solver writes to file descriptor 1 must not reach the
    # JSON document on stdout.
    inst, _ = duo_files
    script = tmp_path / "noisy.py"
    script.write_text(
        "import os, sys\n"
        "from hetsched.cli import main\n"
        "from hetsched.milp.backends import ScipyBackend\n"
        "solve = ScipyBackend.solve\n"
        "def noisy(self, *args, **kwargs):\n"
        "    os.write(1, b'noise\\n')\n"
        "    return solve(self, *args, **kwargs)\n"
        "ScipyBackend.solve = noisy\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    proc = subprocess.run(
        [sys.executable, str(script), "optimize", "--instance", inst,
         "--policy", "rr", "--objective", "minmax-lat"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["objective"] == 29_500.0
    assert "noise" in proc.stderr


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
    assert doc["evaluated"] == 16


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
    assert doc["events"]
    assert {"time_us", "kind", "task"} <= set(doc["events"][0])


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
