"""Decoding solver output into deployments and re-checking claimed objectives."""

from fractions import Fraction

import pytest
from helpers import assign, make_instance, make_task, seg_cpu, seg_opt

from hetsched.milp import build_milp
from hetsched.milp.decode import SolutionDecodeError, decode_assignment, verify_solution
from hetsched.model import ChainSpec


@pytest.fixture
def two_task():
    t1 = make_task("t1", 10_000, [seg_cpu(2_000)])
    t2 = make_task("t2", 20_000, [seg_opt(6_000, 500, 500, 3_000)])
    return make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])


@pytest.fixture
def model(two_task):
    return build_milp(two_task, "rr", "minmax-lat")


def _values(core=(0, 1), prio=(2, 1), accel=False):
    v = {}
    for i, k in enumerate(core):
        v[f"x_t{i}_k{k}"] = 1.0
    for i, p in enumerate(prio):
        for s, q in enumerate(prio):
            if s != i:
                v[f"hp_t{i}_t{s}"] = 1.0 if p > q else 0.0
    v["a_t1_j0"] = 1.0 if accel else 0.0
    return v


def test_decode_reads_mapping_priorities_and_acceleration(model):
    asg = decode_assignment(model, _values(accel=True))
    assert asg.core_of == {"t1": "c0", "t2": "c1"}
    assert asg.priority_of == {"t1": 2, "t2": 1}
    assert asg.accelerated_of("t1") == frozenset()
    assert asg.accelerated_of("t2") == frozenset({0})


def test_decode_tolerates_solver_noise(model):
    vals = _values()
    vals["x_t0_k0"] = 0.99999
    vals["x_t0_k1"] = 1.2e-5
    asg = decode_assignment(model, vals)
    assert asg.core_of["t1"] == "c0"


def test_decode_rejects_fractional_binaries(model):
    vals = _values()
    vals["x_t0_k0"] = 0.4
    with pytest.raises(SolutionDecodeError, match="not integral"):
        decode_assignment(model, vals)


def test_decode_rejects_task_on_two_cores(model):
    vals = _values()
    vals["x_t0_k1"] = 1.0
    with pytest.raises(SolutionDecodeError, match="2 cores"):
        decode_assignment(model, vals)


def test_decode_rejects_unmapped_task(model):
    vals = _values()
    del vals["x_t1_k1"]
    with pytest.raises(SolutionDecodeError, match="0 cores"):
        decode_assignment(model, vals)


def test_decode_rejects_duplicate_priorities(model):
    vals = _values(prio=(1, 1))
    with pytest.raises(SolutionDecodeError, match="permutation"):
        decode_assignment(model, vals)


def test_decode_rejects_a_priority_cycle():
    tasks = [make_task(f"t{i}", 10_000, [seg_cpu(1_000)]) for i in range(3)]
    model = build_milp(make_instance(tasks), "rr", "minmax-rt")
    vals = {f"x_t{i}_k0": 1.0 for i in range(3)}
    # t0 outranks t1, t1 outranks t2 and t2 outranks t0: every pair is
    # ordered, but each task outranks one other, so all get level 2.
    for i, s in ((0, 1), (1, 2), (2, 0)):
        vals[f"hp_t{i}_t{s}"] = 1.0
    with pytest.raises(SolutionDecodeError, match="permutation"):
        decode_assignment(model, vals)


def test_verify_accepts_honest_claim(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    # Chain latency: R(t1)=2000, then R(t2)=6000 plus t2's period.
    res = verify_solution(two_task, asg, "rr", "minmax-lat", claimed=28_000.0)
    assert res.ok
    assert res.objective == 28_000
    assert res.report.task("t2").wcrt_us == 6_000


def test_verify_accepts_slightly_worse_claim(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    res = verify_solution(two_task, asg, "rr", "minmax-lat", claimed=28_500.0)
    assert res.ok  # solver stopped early with a loose bound: still sound


def test_verify_flags_a_proven_claim_its_deployment_beats(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    res = verify_solution(two_task, asg, "rr", "minmax-lat", claimed=28_500.0, proven=True)
    assert not res.ok
    assert res.objective == 28_000
    assert "proved 28500.0 optimal" in res.message
    assert verify_solution(two_task, asg, "rr", "minmax-lat", claimed=28_000.0, proven=True).ok


def test_verify_flags_a_proven_claim_the_incumbent_beats(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    res = verify_solution(
        two_task, asg, "rr", "minmax-lat", claimed=28_000.0, proven=True, incumbent=Fraction(27_000)
    )
    assert not res.ok
    assert res.objective == 28_000
    assert res.message == "solver proved 28000.0 optimal but the local search found 27000.0"
    # Its own deployment refutes this proof too, but the incumbent is named.
    res = verify_solution(
        two_task, asg, "rr", "minmax-lat", claimed=28_500.0, proven=True, incumbent=Fraction(28_000)
    )
    assert not res.ok
    assert res.message == "solver proved 28500.0 optimal but the local search found 28000.0"
    # An incumbent at the proven optimum does not refute it.
    assert verify_solution(
        two_task, asg, "rr", "minmax-lat", claimed=28_000.0, proven=True, incumbent=Fraction(28_000)
    ).ok


def test_verify_holds_only_a_proof_to_the_incumbent(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    # A solver stopped early may claim more than a known deployment.
    res = verify_solution(
        two_task, asg, "rr", "minmax-lat", claimed=28_500.0, incumbent=Fraction(27_000)
    )
    assert res.ok and res.message == ""


def test_verify_without_an_incumbent_checks_only_the_deployment(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    for claimed, message in [
        (28_000.0, ""),
        (28_500.0, "solver proved 28500.0 optimal but its own deployment analyzes to 28000.0"),
        (27_000.0, "solver claimed 27000.0 but the analysis only certifies 28000.0"),
    ]:
        res = verify_solution(
            two_task, asg, "rr", "minmax-lat", claimed=claimed, proven=True, incumbent=None
        )
        assert (res.ok, res.message) == (not message, message)


def test_verify_flags_overly_optimistic_claim(two_task):
    asg = assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1})
    res = verify_solution(two_task, asg, "rr", "minmax-lat", claimed=27_000.0)
    assert not res.ok
    assert res.objective == 28_000
    assert "claimed 27000.0" in res.message


def test_verify_flags_unschedulable_deployment():
    t1 = make_task("t1", 10_000, [seg_cpu(6_000)])
    t2 = make_task("t2", 10_000, [seg_cpu(6_000)])
    inst = make_instance([t1, t2], chains=[ChainSpec(id="c", tasks=("t1", "t2"))])
    asg = assign({"t1": "c0", "t2": "c0"}, {"t1": 2, "t2": 1})
    res = verify_solution(inst, asg, "rr", "minmax-lat")
    assert not res.ok
    assert res.objective is None
    assert "schedulability" in res.message


def test_verify_rejects_invalid_deployment(two_task):
    asg = assign({"t1": "c0", "t2": "c9"}, {"t1": 2, "t2": 1})
    with pytest.raises(SolutionDecodeError, match="invalid"):
        verify_solution(two_task, asg, "rr", "minmax-lat")
