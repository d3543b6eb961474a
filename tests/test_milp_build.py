"""MILP construction: variable/row catalog, grids, determinism, LP round-trip."""

import collections
import hashlib
import json
import math
import random
from pathlib import Path

import pytest
from helpers import (
    make_instance,
    make_task,
    oracle_corpus_instance,
    random_assignment,
    random_instance,
    seg_cpu,
    seg_hwa,
    seg_opt,
)

from hetsched.analysis import (
    CONSERVATIVE,
    OBJECTIVES,
    POLICIES,
    analyze,
    checkpoints,
    evaluate_objective,
    release_jitter_bound,
)
from hetsched.milp import INFEASIBLE, OPTIMAL, ScipyBackend, build_milp, write_lp
from hetsched.milp.builder import encoding_magnitude
from hetsched.milp.ir import MilpModel
from hetsched.model import ChainSpec, ModelError, builtin_waters


@pytest.fixture(scope="module")
def waters_rr():
    return build_milp(builtin_waters(), "rr", "minmax-lat")


def _by_family(names):
    fam = {}
    for name in names:
        fam.setdefault(name.split("_")[0], []).append(name)
    return fam


def _vars_by_family(model):
    return _by_family(model.col_names)


def _rows_by_family(model):
    return _by_family(model.row_names)


def _row_terms(model, r):
    lo, hi = model.row_start[r], model.row_start[r + 1]
    return dict(zip(model.col_index[lo:hi], model.coef[lo:hi]))


def test_waters_variable_counts(waters_rr):
    fam = _vars_by_family(waters_rr)
    assert len(fam["x"]) == 9 * 6
    assert "pr" not in fam and "P" not in fam  # priorities are read from hp
    assert len(fam["hp"]) == 9 * 8
    assert len(fam["spk"]) == 9 * 8 * 6
    assert len(fam["a"]) == 9
    assert len(fam["R"]) == 9
    # One suspension variable per accelerable segment.
    assert len(fam["sseg"]) == 4
    assert len(fam["la"]) == 9


def test_waters_same_core_linearization_row_count(waters_rr):
    fam = _rows_by_family(waters_rr)
    c2 = len(fam["c2a"]) + len(fam["c2b"]) + len(fam["c2c"]) + len(fam["c2d"])
    assert c2 == 9 * 8 * 19  # 1368: three rows per core pair plus a sum row


def test_acceleration_variables_respect_segment_types(waters_rr):
    m = waters_rr
    tasks = m.meta["tasks"]
    det = tasks.index("detection")
    lid = tasks.index("lidar_grabber")
    sfm = tasks.index("sfm")
    assert m.col_lower[m.var(f"a_t{det}_j0")] == 1.0  # accelerator-only: forced on
    assert m.col_upper[m.var(f"a_t{lid}_j0")] == 0.0  # CPU-only: forced off
    v = m.var(f"a_t{sfm}_j0")
    assert m.col_lower[v] == 0.0 and m.col_upper[v] == 1.0  # free choice


def test_wcrt_grid_matches_analysis_checkpoints(waters_rr):
    inst = builtin_waters()
    for task in inst.tasks:
        expected = checkpoints(
            task.deadline_us,
            [
                (other.period_us, release_jitter_bound(inst, other))
                for other in inst.tasks
                if other.id != task.id
            ],
        )
        assert inst.compiled.cpu_grid[inst.compiled.task_index[task.id]] == expected


def test_checkpoint_selection_rows_per_grid_point(waters_rr):
    fam = _rows_by_family(waters_rr)
    n_points = sum(len(g) for g in builtin_waters().compiled.cpu_grid)
    assert len(fam["c11a"]) == len(fam["c11b"]) == len(fam["c11c"]) == n_points
    assert len(fam["c11d"]) == 9


@pytest.mark.parametrize("policy", ["rr", "npfp", "nocontention"])
def test_aggregated_cuts_per_task_and_per_accelerable_segment(policy):
    rows = _rows_by_family(build_milp(builtin_waters(), policy, "minmax-lat"))
    assert len(rows["c11e"]) == 9  # R_i >= e_i + s_i + sum of interference
    if policy == "npfp":
        assert len(rows["c18e"]) == 4  # sseg >= e_hw + b_i + sum of Hd, if accelerated
    else:
        assert "c18e" not in rows


def test_npfp_adds_accelerator_contention_machinery():
    model = build_milp(builtin_waters(), "npfp", "minmax-lat")
    fam = _vars_by_family(model)
    assert "la" not in fam
    # Four accelerable tasks, each seeing the other 8 tasks.
    assert len(fam["eta"]) == 4 * 8
    assert len(fam["Hd"]) == 4 * 8
    assert len(fam["b"]) == 4
    n_acc_points = sum(len(g) for g in builtin_waters().compiled.accel_grid)
    assert len(fam["delta"]) == len(fam["sigma"]) == n_acc_points
    rows = _rows_by_family(model)
    assert len(rows["c18d"]) == 4


def test_nocontention_has_no_arbitration_variables():
    model = build_milp(builtin_waters(), "nocontention", "minmax-lat")
    fam = _vars_by_family(model)
    for family in ("la", "eta", "Hd", "b", "delta", "sigma"):
        assert family not in fam
    rows = _rows_by_family(model)
    assert "c13" not in rows
    assert len(rows["c14"]) == 4  # suspension equals processing time


def test_objective_variants():
    inst = builtin_waters()
    m = build_milp(inst, "rr", "minmax-rt")
    names = set(m.col_names)
    assert "RTmax" in names and "Lmax" not in names
    m = build_milp(inst, "rr", "minsum-rt")
    # Objective directly prices the response times by 1/deadline.
    obj_vars = {m.col_names[i] for i in m.objective}
    assert obj_vars == {f"R_t{i}" for i in range(9)}
    m = build_milp(inst, "rr", "minsum-lat")
    obj_vars = {m.col_names[i] for i in m.objective}
    assert obj_vars == {f"L_ch{x}" for x in range(8)}


def test_latency_objective_requires_chains():
    t = make_task("t", 10_000, [seg_cpu(1_000)])
    inst = make_instance([t])
    with pytest.raises(ModelError, match="chain"):
        build_milp(inst, "rr", "minmax-lat")
    build_milp(inst, "rr", "minmax-rt")  # fine without chains


def test_unknown_policy_or_objective_rejected():
    inst = builtin_waters()
    with pytest.raises(ModelError, match="policy"):
        build_milp(inst, "fifo", "minmax-lat")
    with pytest.raises(ModelError, match="objective"):
        build_milp(inst, "rr", "makespan")


def test_build_is_deterministic():
    a = write_lp(build_milp(builtin_waters(), "npfp", "minsum-lat"))
    b = write_lp(build_milp(builtin_waters(), "npfp", "minsum-lat"))
    assert a == b


# -- LP text round-trip --------------------------------------------------------


def _parse_expr(expr):
    toks = expr.split()
    out = {}
    sign, coef = 1.0, None
    i = 0
    while i < len(toks):
        t = toks[i]
        if t == "+":
            sign, coef = 1.0, None
        elif t == "-":
            sign, coef = -1.0, None
        else:
            try:
                coef = float(t)
            except ValueError:
                out[t] = out.get(t, 0.0) + sign * (1.0 if coef is None else coef)
                sign, coef = 1.0, None
            else:
                i += 1
                name = toks[i]
                out[name] = out.get(name, 0.0) + sign * coef
                sign, coef = 1.0, None
        i += 1
    return out


def _parse_lp(text):
    section = None
    obj, rows, binaries, generals = {}, {}, set(), set()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("\\"):
            continue
        low = line.lower()
        if low in ("minimize", "subject to", "bounds", "binary", "general", "end"):
            section = low
            continue
        if section == "minimize":
            obj = _parse_expr(line.split(":", 1)[1])
        elif section == "subject to":
            name, rest = line.split(":", 1)
            for sense in ("<=", ">=", "="):
                if f" {sense} " in rest:
                    left, _, rhs = rest.rpartition(f" {sense} ")
                    rows[name.strip()] = (_parse_expr(left), sense, float(rhs))
                    break
        elif section == "binary":
            binaries.add(line)
        elif section == "general":
            generals.add(line)
    return obj, rows, binaries, generals


def test_lp_text_round_trips_every_row():
    t1 = make_task("t1", 10_000, [seg_cpu(4_000)])
    t2 = make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000), seg_hwa(100, 0, 2_000)])
    inst = make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])
    model = build_milp(inst, "npfp", "minmax-lat")
    obj, rows, binaries, generals = _parse_lp(write_lp(model))

    names = model.col_names
    want_obj = {names[i]: c for i, c in model.objective.items()}
    assert obj == want_obj
    assert len(rows) == len(model.row_names)
    bounds_of = {
        "<=": lambda v: (-math.inf, v),
        ">=": lambda v: (v, math.inf),
        "=": lambda v: (v, v),
    }
    for r, name in enumerate(model.row_names):
        got_terms, got_sense, got_rhs = rows[name]
        assert (model.row_lower[r], model.row_upper[r]) == bounds_of[got_sense](got_rhs), name
        assert got_terms == {names[i]: c for i, c in _row_terms(model, r).items()}, name
    columns = range(len(names))
    assert binaries == {names[i] for i in columns if model.is_binary(i)}
    # Response times and latencies are integral in the LP file too.
    assert generals == {names[i] for i in columns if model.integer[i] and not model.is_binary(i)}
    assert {"R_t0", "R_t1", "L_ch0", "Lmax"} <= generals


# sha256 of the LP text of every model below, concatenated in order.  An
# encoding change updates the recorded digest on purpose.
LP_DIGEST = json.loads((Path(__file__).parent / "data" / "lp_digest.json").read_text())


def test_lp_text_matches_the_recorded_digest():
    rng = random.Random(42)  # the oracle corpus, as oracle_corpus_instance walks it
    instances = [builtin_waters()] + [random_instance(rng) for _ in range(60)]
    digest = hashlib.sha256()
    models = 0
    for inst in instances:
        for policy in POLICIES:
            for objective in OBJECTIVES:
                digest.update(write_lp(build_milp(inst, policy, objective)).encode())
                models += 1
    assert (models, digest.hexdigest()) == (LP_DIGEST["models"], LP_DIGEST["sha256"])


# -- model container -------------------------------------------------------------


def test_duplicate_column_or_row_and_unknown_sense_are_refused():
    m = MilpModel("guards")
    x = m.add_var("x")
    m.add_row("r", [(x, 1.0)], "<=", 1.0)
    with pytest.raises(ValueError, match="duplicate variable"):
        m.add_binary("x")
    with pytest.raises(ValueError, match="duplicate row"):
        m.add_row("r", [(x, 1.0)], ">=", 0.0)
    with pytest.raises(ValueError, match="bad sense"):
        m.add_row("s", [(x, 1.0)], "=", 1.0)
    assert m.row_names == ["r"] and m.col_names == ["x"]


def test_lp_writer_refuses_a_row_without_terms():
    m = MilpModel("empty")
    x = m.add_var("x")
    m.set_objective([(x, 1.0)])
    m.add_row("nothing", [(x, 0.0)], ">=", 0.0)
    with pytest.raises(ValueError, match="'nothing' has no terms"):
        write_lp(m)


def test_lp_writer_signs_and_bounds():
    m = MilpModel("signs")
    x = m.add_var("x")
    y = m.add_var("y", lb=2.0)
    m.set_objective([(x, -1.0), (y, 1.0)])
    m.add_row("r", [(x, -1.0), (y, 3.0)], ">=", 1.0)
    lines = write_lp(m).splitlines()
    assert " obj: - x + y" in lines
    assert " r: - x + 3 y >= 1" in lines
    assert lines[lines.index("Bounds") + 1 :] == [" y >= 2", "End"]


def test_lp_writer_refuses_a_model_without_objective():
    m = MilpModel("aimless")
    m.add_row("r", [(m.add_var("x"), 1.0)], "<=", 1.0)
    with pytest.raises(ValueError, match="no objective"):
        write_lp(m)


def test_each_sense_becomes_row_bounds():
    m = MilpModel("senses")
    x = m.add_var("x")
    for sense in ("<=", ">=", "=="):
        m.add_row(sense, [(x, 1.0)], sense, 3)
    assert list(zip(m.row_lower, m.row_upper)) == [
        (-math.inf, 3.0),
        (3.0, math.inf),
        (3.0, 3.0),
    ]


def _largest_constant(model):
    bounds = model.row_lower + model.row_upper + model.col_lower + model.col_upper
    return max(abs(b) for b in bounds + model.coef if math.isfinite(b))


@pytest.mark.parametrize("index", [None, 0, 5, 16, 40])
def test_encoding_magnitude_bounds_every_constant(index):
    # The input check must cover every model the builder writes; on WATERS
    # the bound is reached.
    inst = builtin_waters() if index is None else oracle_corpus_instance(index)
    largest = max(
        _largest_constant(build_milp(inst, policy, objective))
        for policy in POLICIES
        for objective in OBJECTIVES
    )
    assert largest <= encoding_magnitude(inst)
    if index is None:
        assert largest == encoding_magnitude(inst)


# -- encoding twin -------------------------------------------------------------


def _schedulable_deployments(policy, count):
    rng = random.Random(2024)
    out = []
    while len(out) < count:
        inst = random_instance(rng)
        asg = random_assignment(rng, inst)
        if analyze(inst, asg, policy, mode=CONSERVATIVE).schedulable:
            out.append((inst, asg))
    return out


def _pin(model, inst, asg):
    """Fix ``x``, ``hp`` and ``a`` to the deployment through their bounds."""
    tasks = model.meta["tasks"]
    cores = model.meta["cores"]
    fixed = {}
    for i, tid in enumerate(tasks):
        for k, cid in enumerate(cores):
            fixed[f"x_t{i}_k{k}"] = asg.core_of[tid] == cid
        for s, other in enumerate(tasks):
            if s != i:
                fixed[f"hp_t{i}_t{s}"] = asg.priority_of[tid] > asg.priority_of[other]
        for j in range(len(inst.task(tid).segments)):
            fixed[f"a_t{i}_j{j}"] = j in asg.accelerated_of(tid)
    for name, on in fixed.items():
        idx = model.var(name)
        model.col_lower[idx] = model.col_upper[idx] = float(on)


@pytest.mark.parametrize("policy", POLICIES)
def test_pinned_deployment_reaches_the_conservative_analysis(policy):
    # With the deployment fixed, the MILP's optimum is the conservative
    # analysis of that deployment: a row that is too tight raises it, a row
    # that is too loose lowers it.
    backend = ScipyBackend()
    for inst, asg in _schedulable_deployments(policy, 6):
        report = analyze(inst, asg, policy, mode=CONSERVATIVE)
        for objective in OBJECTIVES:
            model = build_milp(inst, policy, objective)
            _pin(model, inst, asg)
            res = backend.solve(model)
            expected = float(evaluate_objective(report, objective))
            assert res.status == OPTIMAL, (objective, res.message)
            assert res.objective == pytest.approx(expected, rel=1e-6), objective


def test_pinned_deployment_is_exact_on_rejected_deployments():
    # Random deployments, most of which the conservative analysis rejects:
    # pinned, a schedulable one reaches its analyzed objective and a rejected
    # one leaves the MILP infeasible, so no row admits what the analysis
    # refuses.
    rng = random.Random(2026)
    backend = ScipyBackend()
    outcomes = collections.Counter()
    for _ in range(25):
        inst = random_instance(rng, max_tasks=4, util=(0.5, 1.4))
        asg = random_assignment(rng, inst)
        for policy in POLICIES:
            report = analyze(inst, asg, policy, mode=CONSERVATIVE)
            for objective in OBJECTIVES:
                model = build_milp(inst, policy, objective)
                _pin(model, inst, asg)
                res = backend.solve(model)
                expected = evaluate_objective(report, objective)
                case = (policy, objective, res.message)
                if expected is None:
                    assert res.status == INFEASIBLE, case
                else:
                    assert res.status == OPTIMAL, case
                    assert res.objective == pytest.approx(float(expected), rel=1e-6), case
                outcomes[res.status] += 1
    assert outcomes == {OPTIMAL: 112, INFEASIBLE: 188}
