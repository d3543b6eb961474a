"""MILP construction: variable/row catalog, grids, determinism, LP round-trip."""

import pytest
from helpers import make_instance, make_task, oracle_corpus_instance, seg_cpu, seg_hwa, seg_opt

from hetsched.analysis import OBJECTIVES, POLICIES, checkpoints, release_jitter_bound
from hetsched.milp import build_milp, write_lp
from hetsched.milp.builder import encoding_magnitude
from hetsched.model import ChainSpec, ModelError, builtin_waters


@pytest.fixture(scope="module")
def waters_rr():
    return build_milp(builtin_waters(), "rr", "minmax-lat")


def _vars_by_family(model):
    fam = {}
    for v in model.variables:
        fam.setdefault(v.name.split("_")[0], []).append(v)
    return fam


def _rows_by_family(model):
    fam = {}
    for r in model.rows:
        fam.setdefault(r.name.split("_")[0], []).append(r)
    return fam


def test_waters_variable_counts(waters_rr):
    fam = _vars_by_family(waters_rr)
    assert len(fam["x"]) == 9 * 6
    assert len(fam["pr"]) == 9 * 9
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
    by_name = {v.name: v for v in waters_rr.variables}
    tasks = waters_rr.meta["tasks"]
    det = tasks.index("detection")
    lid = tasks.index("lidar_grabber")
    sfm = tasks.index("sfm")
    assert by_name[f"a_t{det}_j0"].lb == 1.0  # accelerator-only: forced on
    assert by_name[f"a_t{lid}_j0"].ub == 0.0  # CPU-only: forced off
    v = by_name[f"a_t{sfm}_j0"]
    assert v.lb == 0.0 and v.ub == 1.0  # free choice


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
        assert waters_rr.meta["wcrt_grid"][task.id] == expected


def test_checkpoint_selection_rows_per_grid_point(waters_rr):
    fam = _rows_by_family(waters_rr)
    n_points = sum(len(g) for g in waters_rr.meta["wcrt_grid"].values())
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
    n_acc_points = sum(len(g) for g in model.meta["accel_grid"].values())
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
    names = {v.name for v in m.variables}
    assert "RTmax" in names and "Lmax" not in names
    m = build_milp(inst, "rr", "minsum-rt")
    # Objective directly prices the response times by 1/deadline.
    obj_vars = {m.variables[i].name for i in m.objective}
    assert obj_vars == {f"R_t{i}" for i in range(9)}
    m = build_milp(inst, "rr", "minsum-lat")
    obj_vars = {m.variables[i].name for i in m.objective}
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

    want_obj = {model.variables[i].name: c for i, c in model.objective.items()}
    assert obj == want_obj
    assert len(rows) == len(model.rows)
    sense_map = {"<=": "<=", ">=": ">=", "==": "="}
    for row in model.rows:
        got_terms, got_sense, got_rhs = rows[row.name]
        assert got_sense == sense_map[row.sense], row.name
        assert got_rhs == row.rhs, row.name
        assert got_terms == {model.variables[i].name: c for i, c in row.terms}, row.name
    assert binaries == {v.name for v in model.variables if v.is_binary}
    # Response times and latencies are integral in the LP file too.
    assert generals == {v.name for v in model.variables if v.integer and not v.is_binary}
    assert {"R_t0", "R_t1", "L_ch0", "Lmax"} <= generals


def _largest_constant(model):
    mags = [abs(r.rhs) for r in model.rows]
    mags += [abs(c) for r in model.rows for _, c in r.terms]
    mags += [abs(b) for v in model.variables for b in (v.lb, v.ub) if b is not None]
    return max(mags)


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
