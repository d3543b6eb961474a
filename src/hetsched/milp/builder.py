"""Assemble the joint deployment MILP.

The program simultaneously decides task-to-core mapping, a global priority
permutation, and per-segment acceleration, subject to every task passing the
checkpoint-based schedulability test used by the ``conservative`` analysis
mode.  Demand is linearized by precomputing the interference multiplier
``ceil((v + J) / T)`` at every checkpoint ``v`` with assignment-independent
jitter constants; a binary per checkpoint picks the one that certifies the
response time.

Variable families (one LP column each, ``t{i}``/``k{k}``/``j{j}``/``p{p}``/
``g{g}`` are task, core, segment, priority and checkpoint indices; the legend
lives in ``model.meta``):

===========================  ====================================================
``x_t{i}_k{k}``              task i runs on core k
``spk/sp``                   linearized same-core indicators per task pair
``pr_t{i}_p{p}``, ``P_t{i}`` priority permutation matrix and priority level
``hp_t{i}_t{s}``             1 iff i has higher priority than s
``a_t{i}_j{j}``              segment j of i runs on the accelerator
``eseg/e``                   CPU-side WCET per segment / per task
``I_t{i}_t{s}``              CPU interference budget i exerts on s
``rho/y``, ``R_t{i}``        per-checkpoint demand, checkpoint choice, WCRT
``sseg/s``                   suspension per accelerated segment / per task
``la_t{i}``                  (round-robin) longest accelerator request of i
``eta/Hd/b/delta/sigma``     (priority arbitration) accelerator interference,
                             blocking, and checkpointed waiting
``L_ch{x}/Lmax/RTmax``       objective auxiliaries
===========================  ====================================================

``R_t{i}``, ``L_ch{x}`` and ``Lmax`` are general integers.  Every term of the
checkpoint WCRT is a whole number of microseconds (costs, suspension caps,
multipliers, and the periods a chain adds), so once the binaries are fixed the
least feasible values are integral and no optimum is cut off.  Declaring them
continuous lets the solver accept drifted incumbents such as ``3342.999999``
that its own post-solve check then rejects as infeasible.

Two families of aggregated valid inequalities tighten the LP relaxation.  The
checkpoint rows tie ``R_t{i}`` to the analysis only through a big-M on each
``y`` binary, so without the cuts the relaxation is weak.  On WATERS (2 vCPUs,
HiGHS 1.12.0) rr min-max latency then took 6,446 branch-and-bound nodes and
34 s; with them it takes one node and 0.6 s, and the four min-max solves of
the benchmark's ``waters-optimize`` workload take 4 nodes instead of 7,085.

* ``c11e_t{i}`` (every policy): ``R_i >= e_i + s_i + sum_s I_{s,i}``.  The
  selected checkpoint gives ``R_i >= rho_{i,g}`` (``c11c``) and
  ``rho_{i,g} >= e_i + s_i + sum_s ceil((v + J_s) / T_s) * I_{s,i}``
  (``c11a``); every multiplier is at least 1 because ``v > 0`` and
  ``J_s >= 0``, and every ``I`` is nonnegative.
* ``c18e_t{i}_j{j}`` (npfp): ``sseg_ij >= e_hw + b_i + sum_s Hd_{s,i} -
  M * (1 - a_ij)`` with ``M = e_hw + delta_cap_i``, the big-M of ``c18c``.
  An accelerated segment selects one ``sigma`` (``c18d``), whose ``c18c`` row
  gives ``sseg_ij >= e_hw + delta_g`` and whose ``c18a`` row gives
  ``delta_g >= b_i + sum_s coef * Hd_{s,i}`` with every ``coef >= 1``.  When
  the segment is not accelerated the row is slack, because ``b_i`` and the
  ``Hd`` columns are bounded so that their sum is at most ``delta_cap_i``.

A smaller encoding with one symmetric ``sp`` column per unordered task pair
(the solver only needs ``sp >= x_ik + x_sk - 1``) halves the WATERS model,
953 to 485 columns under rr, but on top of these cuts it measured slower:
those four solves took 15.4 s and 3,402 nodes instead of 3.4 s and 4 nodes.
"""

from __future__ import annotations

from dataclasses import dataclass

from hetsched.analysis import (
    MINMAX_LAT,
    MINMAX_RT,
    MINSUM_LAT,
    MINSUM_RT,
    NO_CONTENTION,
    NPFP,
    OBJECTIVES,
    POLICIES,
    RR,
    _ceil_div,
    accel_jitter_bound,
    checkpoints,
    release_jitter_bound,
)
from hetsched.milp.ir import MilpModel
from hetsched.model import ImplType, ModelError, ProblemInstance, validate_instance


# Criterion 8's limit on every coefficient, variable bound and right-hand side
# of the encoding, enforced on the input by ``validate_instance``.  HiGHS
# rejects a matrix entry of 1e15 or more (its ``large_matrix_value``) as a
# model error.
COEFFICIENT_LIMIT = 2**40


@dataclass(frozen=True)
class _BigMs:
    """Per-task constants and big-Ms of the encoding.

    Only the suspension caps, and the demand caps built on them, depend on
    the arbitration policy; :meth:`suspension_caps` and :meth:`rho_caps` give
    those.
    """

    period: list[int]
    deadline: list[int]
    jit: list[int]  # release jitter constant (CPU interference)
    ajit: list[int]  # accelerator jitter constant
    acc_idx: list[list[int]]  # accelerable segments
    accel: list[list[int]]  # accelerator time of each accelerable segment
    max_accel: list[int]
    sum_accel: list[int]
    seg_cap: list[list[int]]  # upper bound on a segment's CPU-side cost
    cmax: list[int]  # upper bound on a task's CPU-side cost
    b_cap: list[int]  # npfp blocking cap
    delta_cap: list[int]  # npfp accelerator-wait cap (c18b/c18c/c18e)

    @classmethod
    def of(cls, inst: ProblemInstance) -> "_BigMs":
        tasks = inst.tasks
        n = len(tasks)
        ctypes = {c.type for c in inst.platform.cores}
        seg_cap = []
        for t in tasks:
            caps = []
            for seg in t.segments:
                cap = 0
                for ct in ctypes:
                    if seg.impl is not ImplType.HWA:
                        cap = max(cap, seg.exec_us[ct])
                    if seg.impl.may_accelerate:
                        cap = max(cap, seg.offload_us[ct] + seg.finalize_us[ct])
                caps.append(cap)
            seg_cap.append(caps)
        acc_idx = [t.accelerable_segments() for t in tasks]
        accel = [[t.segments[j].accel_us or 0 for j in acc_idx[i]] for i, t in enumerate(tasks)]
        max_accel = [max(a, default=0) for a in accel]
        sum_accel = [sum(a) for a in accel]
        period = [t.period_us for t in tasks]
        deadline = [t.deadline_us for t in tasks]
        ajit = [accel_jitter_bound(inst, t) for t in tasks]
        b_cap = [max((max_accel[s] for s in range(n) if s != i), default=0) for i in range(n)]
        delta_cap = [
            b_cap[i]
            + sum(
                _ceil_div(deadline[i] + ajit[s], period[s]) * sum_accel[s]
                for s in range(n)
                if s != i and acc_idx[s]
            )
            for i in range(n)
        ]
        return cls(
            period=period,
            deadline=deadline,
            jit=[release_jitter_bound(inst, t) for t in tasks],
            ajit=ajit,
            acc_idx=acc_idx,
            accel=accel,
            max_accel=max_accel,
            sum_accel=sum_accel,
            seg_cap=seg_cap,
            cmax=[sum(caps) for caps in seg_cap],
            b_cap=b_cap,
            delta_cap=delta_cap,
        )

    def suspension_caps(self, policy: str) -> list[dict[int, int]]:
        """Cap on each accelerable segment's suspension (``sseg`` bounds)."""
        n = len(self.deadline)
        out = []
        for i in range(n):
            others = sum(self.max_accel[h] for h in range(n) if h != i)
            caps = {}
            for j, e_hw in zip(self.acc_idx[i], self.accel[i]):
                if policy == NO_CONTENTION:
                    caps[j] = e_hw
                elif policy == RR:
                    caps[j] = e_hw + others
                else:
                    caps[j] = e_hw + self.deadline[i]
            out.append(caps)
        return out

    def rho_caps(self, s_cap: list[int]) -> list[int]:
        """Cap on each task's demand at any checkpoint (``c11b``/``c11c``)."""
        n = len(self.deadline)
        D, T, jit, cmax = self.deadline, self.period, self.jit, self.cmax
        return [
            cmax[i]
            + s_cap[i]
            + sum(_ceil_div(D[i] + jit[s], T[s]) * cmax[s] for s in range(n) if s != i)
            for i in range(n)
        ]


def encoding_magnitude(inst: ProblemInstance) -> int:
    """Largest magnitude among the coefficients, variable bounds and
    right-hand sides that :func:`build_milp` writes for ``inst`` under any
    policy and objective.

    Every checkpoint grid ends at the deadline ``D_i``, so each row family
    peaks there.  The candidates are ``c11b``'s ``D_i + rho_cap_i``, which
    covers ``c11c``, ``c12``-``c14``, the ``rt`` rows and every ``rho``,
    ``sseg``, ``s`` and ``Hd`` bound; ``c10``'s ``2 * cmax_i``, which covers
    ``c8`` and the ``e``/``I`` bounds; npfp's ``max(D_i, e_hw) + delta_cap_i``
    of ``c18b``/``c18c``/``c18e``, which covers ``c16``/``c17a``; the demand
    multipliers of ``c11a`` and ``c18a``; and the task count of ``c4``/``c6``.
    A chain adds the largest value its ``L_ch`` can take: the periods its
    ``lat`` row adds plus the deadlines of its tasks.
    """
    caps = _BigMs.of(inst)
    D, T = caps.deadline, caps.period
    n = len(D)
    s_cap = [0] * n  # the largest over the policies
    for policy in POLICIES:
        for i, ss in enumerate(caps.suspension_caps(policy)):
            s_cap[i] = max(s_cap[i], sum(ss.values()))
    out = n
    for i, rho in enumerate(caps.rho_caps(s_cap)):
        out = max(out, D[i] + rho, 2 * caps.cmax[i])
        for s in range(n):
            if s != i:
                out = max(out, _ceil_div(D[i] + caps.jit[s], T[s]))
        if caps.acc_idx[i]:
            out = max(out, max(D[i], caps.max_accel[i]) + caps.delta_cap[i])
            for s in range(n):
                if s != i and caps.acc_idx[s]:
                    out = max(out, _ceil_div(D[i] + caps.ajit[s], T[s]))
    by_id = {t.id: t for t in inst.tasks}
    for chain in inst.chains:
        tasks = [by_id[tid] for tid in chain.tasks]
        out = max(
            out, sum(t.period_us for t in tasks[1:]) + sum(t.deadline_us for t in tasks)
        )
    return out


def build_milp(inst: ProblemInstance, policy: str, objective: str) -> MilpModel:
    """Build the deployment MILP for ``inst`` under an arbitration policy."""
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    if objective not in OBJECTIVES:
        raise ModelError(f"unknown objective {objective!r}")
    errors = validate_instance(inst)
    if errors:
        raise ModelError("invalid instance: " + "; ".join(str(e) for e in errors))
    if objective in (MINMAX_LAT, MINSUM_LAT) and not inst.chains:
        raise ModelError("latency objectives require at least one chain")

    tasks = list(inst.tasks)
    n = len(tasks)
    cores = list(inst.platform.cores)
    m = len(cores)
    ctypes = [c.type for c in cores]

    # ------------------------------------------------------------------ data
    exec_cost: list[list[list[int] | None]] = []  # CPU execution per core
    accf_cost: list[list[list[int] | None]] = []  # offload+finalize per core
    accel_time: list[list[int | None]] = []
    for t in tasks:
        er, ar, et = [], [], []
        for seg in t.segments:
            e_k = [seg.exec_us[ct] for ct in ctypes] if seg.impl is not ImplType.HWA else None
            a_k = (
                [seg.offload_us[ct] + seg.finalize_us[ct] for ct in ctypes]
                if seg.impl.may_accelerate
                else None
            )
            er.append(e_k)
            ar.append(a_k)
            et.append(seg.accel_us if seg.impl.may_accelerate else None)
        exec_cost.append(er)
        accf_cost.append(ar)
        accel_time.append(et)

    caps = _BigMs.of(inst)
    seg_cap, cmax, b_cap, delta_cap = caps.seg_cap, caps.cmax, caps.b_cap, caps.delta_cap
    acc_idx, max_accel, sum_accel = caps.acc_idx, caps.max_accel, caps.sum_accel
    period, deadline, jit, ajit = caps.period, caps.deadline, caps.jit, caps.ajit
    ss_cap = caps.suspension_caps(policy)
    s_cap = [sum(c.values()) for c in ss_cap]
    rho_cap = caps.rho_caps(s_cap)

    wcrt_grid = [
        checkpoints(deadline[i], [(period[s], jit[s]) for s in range(n) if s != i])
        for i in range(n)
    ]

    model = MilpModel(name=f"deploy_{policy}_{objective}")

    # ------------------------------------------------------------- variables
    x = [[model.add_binary(f"x_t{i}_k{k}") for k in range(m)] for i in range(n)]

    spk: dict[tuple[int, int, int], int] = {}
    sp: dict[tuple[int, int], int] = {}
    for i in range(n):
        for s in range(n):
            if s == i:
                continue
            for k in range(m):
                spk[i, s, k] = model.add_binary(f"spk_t{i}_t{s}_k{k}")
            sp[i, s] = model.add_var(f"sp_t{i}_t{s}", lb=0.0, ub=1.0)

    pr = [[model.add_binary(f"pr_t{i}_p{p}") for p in range(1, n + 1)] for i in range(n)]
    P = [model.add_var(f"P_t{i}", lb=1.0, ub=float(n)) for i in range(n)]

    hp: dict[tuple[int, int], int] = {}
    for i in range(n):
        for s in range(n):
            if s != i:
                hp[i, s] = model.add_binary(f"hp_t{i}_t{s}")

    a: list[list[int]] = []
    for i, t in enumerate(tasks):
        row = []
        for j, seg in enumerate(t.segments):
            if seg.impl is ImplType.CPU:
                row.append(model.add_binary(f"a_t{i}_j{j}", ub=0.0))
            elif seg.impl is ImplType.HWA:
                row.append(model.add_binary(f"a_t{i}_j{j}", lb=1.0))
            else:
                row.append(model.add_binary(f"a_t{i}_j{j}"))
        a.append(row)

    eseg = [
        [model.add_var(f"eseg_t{i}_j{j}", ub=float(seg_cap[i][j])) for j in range(len(t.segments))]
        for i, t in enumerate(tasks)
    ]
    e = [model.add_var(f"e_t{i}", ub=float(cmax[i])) for i in range(n)]

    I: dict[tuple[int, int], int] = {}
    for i in range(n):
        for s in range(n):
            if s != i:
                I[i, s] = model.add_var(f"I_t{i}_t{s}", ub=float(cmax[i]))

    rho = [
        [model.add_var(f"rho_t{i}_g{g}", ub=float(rho_cap[i])) for g in range(len(wcrt_grid[i]))]
        for i in range(n)
    ]
    y = [
        [model.add_binary(f"y_t{i}_g{g}") for g in range(len(wcrt_grid[i]))] for i in range(n)
    ]
    R = [model.add_var(f"R_t{i}", ub=float(deadline[i]), integer=True) for i in range(n)]

    sseg = [
        {j: model.add_var(f"sseg_t{i}_j{j}", ub=float(ss_cap[i][j])) for j in acc_idx[i]}
        for i in range(n)
    ]
    s_var = [model.add_var(f"s_t{i}", ub=float(s_cap[i])) for i in range(n)]

    if policy == RR:
        la = [model.add_var(f"la_t{i}", ub=float(max_accel[i])) for i in range(n)]

    if policy == NPFP:
        accel_grid = [
            checkpoints(
                deadline[i],
                [(period[s], ajit[s]) for s in range(n) if s != i and acc_idx[s]],
            )
            if acc_idx[i]
            else []
            for i in range(n)
        ]
        eta: dict[tuple[int, int, int], int] = {}
        Hd: dict[tuple[int, int], int] = {}
        b: dict[int, int] = {}
        delta: dict[tuple[int, int, int], int] = {}
        sigma: dict[tuple[int, int, int], int] = {}
        for i in range(n):
            if not acc_idx[i]:
                continue
            for j in acc_idx[i]:
                for s in range(n):
                    if s != i:
                        eta[i, j, s] = model.add_var(
                            f"eta_t{i}_j{j}_t{s}", ub=float(accel_time[i][j] or 0)
                        )
            for s in range(n):
                if s != i:
                    Hd[i, s] = model.add_var(f"Hd_t{i}_t{s}", ub=float(sum_accel[i]))
            b[i] = model.add_var(f"b_t{i}", ub=float(b_cap[i]))
            for j in acc_idx[i]:
                for g in range(len(accel_grid[i])):
                    delta[i, j, g] = model.add_var(
                        f"delta_t{i}_j{j}_g{g}", ub=float(delta_cap[i])
                    )
                    sigma[i, j, g] = model.add_binary(f"sigma_t{i}_j{j}_g{g}")

    # ------------------------------------------------------------ mapping
    for i in range(n):
        model.add_row(f"c1_t{i}", [(x[i][k], 1.0) for k in range(m)], "==", 1.0)

    for i in range(n):
        for s in range(n):
            if s == i:
                continue
            for k in range(m):
                v = spk[i, s, k]
                model.add_row(
                    f"c2a_t{i}_t{s}_k{k}",
                    [(v, 1.0), (x[i][k], -1.0), (x[s][k], -1.0)],
                    ">=",
                    -1.0,
                )
                model.add_row(f"c2b_t{i}_t{s}_k{k}", [(v, 1.0), (x[i][k], -1.0)], "<=", 0.0)
                model.add_row(f"c2c_t{i}_t{s}_k{k}", [(v, 1.0), (x[s][k], -1.0)], "<=", 0.0)
            model.add_row(
                f"c2d_t{i}_t{s}",
                [(sp[i, s], 1.0)] + [(spk[i, s, k], -1.0) for k in range(m)],
                "==",
                0.0,
            )

    # ------------------------------------------------------------ priorities
    for i in range(n):
        model.add_row(f"c3a_t{i}", [(pr[i][p], 1.0) for p in range(n)], "==", 1.0)
    for p in range(n):
        model.add_row(f"c3b_p{p + 1}", [(pr[i][p], 1.0) for i in range(n)], "==", 1.0)
    for i in range(n):
        model.add_row(
            f"c4_t{i}",
            [(P[i], 1.0)] + [(pr[i][p], -float(p + 1)) for p in range(n)],
            "==",
            0.0,
        )
    for i in range(n):
        for s in range(i + 1, n):
            model.add_row(f"c5_t{i}_t{s}", [(hp[i, s], 1.0), (hp[s, i], 1.0)], "==", 1.0)
    for i in range(n):
        for s in range(n):
            if s == i:
                continue
            # hp[i,s] = 1  <=>  P_i > P_s (larger value means higher priority)
            model.add_row(
                f"c6a_t{i}_t{s}", [(P[s], 1.0), (P[i], -1.0), (hp[i, s], float(n))], ">=", 0.0
            )
            model.add_row(
                f"c6b_t{i}_t{s}", [(P[s], 1.0), (P[i], -1.0), (hp[i, s], float(n))], "<=", float(n)
            )

    # ------------------------------------------- per-segment CPU-side WCET
    for i, t in enumerate(tasks):
        for j in range(len(t.segments)):
            cap = float(seg_cap[i][j])
            if exec_cost[i][j] is not None:
                model.add_row(
                    f"c8a_t{i}_j{j}",
                    [(eseg[i][j], 1.0), (a[i][j], cap)]
                    + [(x[i][k], -float(exec_cost[i][j][k])) for k in range(m)],
                    ">=",
                    0.0,
                )
            if accf_cost[i][j] is not None:
                model.add_row(
                    f"c8b_t{i}_j{j}",
                    [(eseg[i][j], 1.0), (a[i][j], -cap)]
                    + [(x[i][k], -float(accf_cost[i][j][k])) for k in range(m)],
                    ">=",
                    -cap,
                )
        model.add_row(
            f"c9_t{i}",
            [(e[i], 1.0)] + [(eseg[i][j], -1.0) for j in range(len(t.segments))],
            ">=",
            0.0,
        )

    # ------------------------------------------------------- CPU interference
    for i in range(n):
        for s in range(n):
            if s == i:
                continue
            cap = float(cmax[i])
            # I[i,s] >= e_i - M*(2 - hp[i,s] - sp[i,s])
            model.add_row(
                f"c10_t{i}_t{s}",
                [(I[i, s], 1.0), (e[i], -1.0), (hp[i, s], -cap), (sp[i, s], -cap)],
                ">=",
                -2.0 * cap,
            )

    # ----------------------------------------------- checkpointed WCRT test
    for i in range(n):
        cap = float(rho_cap[i])
        for g, nu in enumerate(wcrt_grid[i]):
            terms = [(rho[i][g], 1.0), (e[i], -1.0), (s_var[i], -1.0)]
            for s in range(n):
                if s != i:
                    coef = _ceil_div(nu + jit[s], period[s])
                    terms.append((I[s, i], -float(coef)))
            model.add_row(f"c11a_t{i}_g{g}", terms, ">=", 0.0)
            model.add_row(
                f"c11b_t{i}_g{g}", [(rho[i][g], 1.0), (y[i][g], cap)], "<=", float(nu) + cap
            )
            model.add_row(
                f"c11c_t{i}_g{g}",
                [(R[i], 1.0), (rho[i][g], -1.0), (y[i][g], -cap)],
                ">=",
                -cap,
            )
        model.add_row(
            f"c11d_t{i}", [(y[i][g], 1.0) for g in range(len(wcrt_grid[i]))], "==", 1.0
        )
        model.add_row(
            f"c11e_t{i}",
            [(R[i], 1.0), (e[i], -1.0), (s_var[i], -1.0)]
            + [(I[s, i], -1.0) for s in range(n) if s != i],
            ">=",
            0.0,
        )
        model.add_row(f"c12_t{i}", [(R[i], 1.0)], "<=", float(deadline[i]))

    # ------------------------------------------------------- suspension bounds
    if policy == RR:
        for i in range(n):
            for j in acc_idx[i]:
                e_hw = float(accel_time[i][j] or 0)
                model.add_row(f"c13_t{i}_j{j}", [(la[i], 1.0), (a[i][j], -e_hw)], ">=", 0.0)
            for j in acc_idx[i]:
                e_hw = float(accel_time[i][j] or 0)
                m14 = e_hw + sum(max_accel[h] for h in range(n) if h != i)
                model.add_row(
                    f"c14_t{i}_j{j}",
                    [(sseg[i][j], 1.0), (a[i][j], -m14)]
                    + [(la[h], -1.0) for h in range(n) if h != i],
                    ">=",
                    e_hw - m14,
                )
    elif policy == NO_CONTENTION:
        for i in range(n):
            for j in acc_idx[i]:
                e_hw = float(accel_time[i][j] or 0)
                model.add_row(
                    f"c14_t{i}_j{j}", [(sseg[i][j], 1.0), (a[i][j], -e_hw)], ">=", 0.0
                )
    else:  # NPFP
        for i in range(n):
            if not acc_idx[i]:
                continue
            for s in range(n):
                if s == i:
                    continue
                for f in acc_idx[s]:
                    e_hw = float(accel_time[s][f] or 0)
                    model.add_row(
                        f"c16_t{i}_t{s}_j{f}",
                        [(b[i], 1.0), (a[s][f], -e_hw), (hp[i, s], -e_hw)],
                        ">=",
                        -e_hw,
                    )
                for j in acc_idx[i]:
                    e_hw = float(accel_time[i][j] or 0)
                    model.add_row(
                        f"c17a_t{i}_j{j}_t{s}",
                        [(eta[i, j, s], 1.0), (a[i][j], -e_hw), (hp[i, s], -e_hw)],
                        ">=",
                        -e_hw,
                    )
                model.add_row(
                    f"c17b_t{i}_t{s}",
                    [(Hd[i, s], 1.0)] + [(eta[i, j, s], -1.0) for j in acc_idx[i]],
                    ">=",
                    0.0,
                )
            dcap = float(delta_cap[i])
            for j in acc_idx[i]:
                e_hw = float(accel_time[i][j] or 0)
                m2 = e_hw + dcap
                for g, nu in enumerate(accel_grid[i]):
                    terms = [(delta[i, j, g], 1.0), (b[i], -1.0)]
                    for s in range(n):
                        if s != i and acc_idx[s]:
                            coef = _ceil_div(nu + ajit[s], period[s])
                            terms.append((Hd[s, i], -float(coef)))
                    model.add_row(f"c18a_t{i}_j{j}_g{g}", terms, ">=", 0.0)
                    model.add_row(
                        f"c18b_t{i}_j{j}_g{g}",
                        [(delta[i, j, g], 1.0), (sigma[i, j, g], dcap)],
                        "<=",
                        float(nu) + dcap,
                    )
                    model.add_row(
                        f"c18c_t{i}_j{j}_g{g}",
                        [(sseg[i][j], 1.0), (delta[i, j, g], -1.0), (sigma[i, j, g], -m2)],
                        ">=",
                        e_hw - m2,
                    )
                model.add_row(
                    f"c18d_t{i}_j{j}",
                    [(sigma[i, j, g], 1.0) for g in range(len(accel_grid[i]))]
                    + [(a[i][j], -1.0)],
                    "==",
                    0.0,
                )
                model.add_row(
                    f"c18e_t{i}_j{j}",
                    [(sseg[i][j], 1.0), (b[i], -1.0), (a[i][j], -m2)]
                    + [(Hd[s, i], -1.0) for s in range(n) if s != i and acc_idx[s]],
                    ">=",
                    e_hw - m2,
                )

    for i in range(n):
        if acc_idx[i]:
            label = "c15" if policy in (RR, NO_CONTENTION) else "c19"
            model.add_row(
                f"{label}_t{i}",
                [(s_var[i], 1.0)] + [(sseg[i][j], -1.0) for j in acc_idx[i]],
                ">=",
                0.0,
            )
        # Tasks without accelerable segments have s fixed to 0 by its bounds.

    # --------------------------------------------------------------- objective
    task_pos = {t.id: i for i, t in enumerate(tasks)}
    if objective in (MINMAX_LAT, MINSUM_LAT):
        L = []
        for ci, chain in enumerate(inst.chains):
            lv = model.add_var(f"L_ch{ci}", integer=True)
            L.append(lv)
            const = sum(period[task_pos[tid]] for tid in chain.tasks[1:])
            terms = [(lv, 1.0)]
            for tid in chain.tasks:
                terms.append((R[task_pos[tid]], -1.0))
            model.add_row(f"lat_ch{ci}", terms, ">=", float(const))
        if objective == MINMAX_LAT:
            lmax = model.add_var("Lmax", integer=True)
            for ci in range(len(inst.chains)):
                model.add_row(f"lmax_ch{ci}", [(lmax, 1.0), (L[ci], -1.0)], ">=", 0.0)
            model.set_objective([(lmax, 1.0)])
        else:
            model.set_objective([(lv, 1.0) for lv in L])
    elif objective == MINMAX_RT:
        rtmax = model.add_var("RTmax")
        for i in range(n):
            model.add_row(f"rt_t{i}", [(rtmax, float(deadline[i])), (R[i], -1.0)], ">=", 0.0)
        model.set_objective([(rtmax, 1.0)])
    else:  # MINSUM_RT
        model.set_objective([(R[i], 1.0 / deadline[i]) for i in range(n)])

    model.meta = {
        "policy": policy,
        "objective": objective,
        "tasks": [t.id for t in tasks],
        "cores": [c.id for c in cores],
        "chains": [c.id for c in inst.chains],
        "segments": {t.id: len(t.segments) for t in tasks},
        "accelerable": {t.id: list(acc_idx[i]) for i, t in enumerate(tasks)},
        "wcrt_grid": {t.id: list(wcrt_grid[i]) for i, t in enumerate(tasks)},
    }
    if policy == NPFP:
        model.meta["accel_grid"] = {t.id: list(accel_grid[i]) for i, t in enumerate(tasks)}
    return model
