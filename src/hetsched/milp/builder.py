"""Assemble the joint deployment MILP.

The program simultaneously decides task-to-core mapping, a global priority
order, and per-segment acceleration, subject to every task passing the
checkpoint-based schedulability test used by the ``conservative`` analysis
mode.  Demand is linearized by precomputing the interference multiplier
``ceil((v + J) / T)`` at every checkpoint ``v`` with assignment-independent
jitter constants; a binary per checkpoint picks the one that certifies the
response time.

Variable families (one LP column each, ``t{i}``/``k{k}``/``j{j}``/``g{g}``
are task, core, segment and checkpoint indices; the legend lives in
``model.meta``):

===========================  ====================================================
``x_t{i}_k{k}``              task i runs on core k
``spk/sp``                   linearized same-core indicators per task pair
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

The priorities are a linear order on ``hp`` alone (Grötschel, Jünger &
Reinelt, "A cutting plane algorithm for the linear ordering problem",
Oper. Res. 1984): ``c5`` orders every pair one way, and the triangle rows
``c6a``/``c6b`` (``hp_is + hp_su + hp_ui <= 2``, one row per direction of
each three-task cycle) exclude every cycle, because a tournament without a
cyclic triangle is transitive.  Every priority permutation satisfies them and
gives back its own ``hp``; the decoder reads task i's level as
``1 + #{s : hp_is = 1}``.  They replace ``n**2`` assignment binaries, a
level column per task and two big-M rows per ordered pair linking the levels
to ``hp``.

``R_t{i}``, ``L_ch{x}`` and ``Lmax`` are general integers.  Every term of the
checkpoint WCRT is a whole number of microseconds (costs, suspension caps,
multipliers, and the periods a chain adds), so once the binaries are fixed the
least feasible values are integral and no optimum is cut off.  Declaring them
continuous lets the solver accept drifted incumbents such as ``3342.999999``
that its own post-solve check then rejects as infeasible.

Two families of aggregated valid inequalities tighten the LP relaxation.  The
checkpoint rows tie ``R_t{i}`` to the analysis only through a big-M on each
``y`` binary, so without the cuts the relaxation is weak: the four min-max
solves of the benchmark's ``waters-optimize`` workload took 7,085
branch-and-bound nodes without them and take 4 with them.

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

Two more rows tighten the relaxation without cutting off a deployment:

* ``c10m_t{i}_t{s}``: ``I_{i,s} >= emin_i * (hp_{i,s} + sp_{i,s} - 1)``, the
  lower half of the McCormick envelope (McCormick, Math. Prog. 1976) that
  ``c10`` lacks; ``emin_i`` is :func:`~hetsched.analysis.min_cpu_wcet`.  The
  right-hand side is positive only when ``i`` outranks ``s`` on its core,
  and then ``c10`` already asks ``I_{i,s} >= e_i``, while ``c8``/``c9`` give
  ``e_i >= emin_i`` for every core and acceleration choice.
* Per-checkpoint big-Ms: checkpoint ``g`` of task ``i`` at ``v_g`` caps its
  demand at ``rc_g = cmax_i + s_cap_i + sum_s ceil((v_g + J_s) / T_s) *
  cmax_s``, which is ``c11a``'s right-hand side with every column at its
  upper bound, so the least feasible ``rho_{i,g}`` never exceeds it.  It
  bounds ``rho_{i,g}``, is the big-M of ``c11c``, and ``c11b`` reads
  ``rho_{i,g} + (rc_g - v_g) * y_{i,g} <= rc_g``: ``rho <= v_g`` when the
  checkpoint is chosen and ``rho <= rc_g`` otherwise, for either sign of
  ``rc_g - v_g``.  The grid ends at ``D_i``, where ``rc_g`` peaks.

``c10m`` pays on small instances: without it, the benchmark's
``small-oracle`` seeds 3 and 4 took 421 and 585 nodes instead of 410 and
425, and took longer.  CHANGES.md holds the timings behind these choices.

A smaller encoding with one symmetric ``sp`` column per unordered task pair
(the solver only needs ``sp >= x_ik + x_sk - 1``) halves the WATERS model,
953 to 485 columns under rr, but on top of these cuts it is weaker: those
four solves took 3,402 nodes instead of 4.

Every assignment-independent constant (costs and their bounds, accelerator
times, jitter bounds, checkpoint grids, interference multipliers, chain
offsets) is read from the instance's
:class:`~hetsched.analysis.CompiledInstance`, the view whose jitter bounds
and grids the ``conservative`` analysis reads.
"""

from __future__ import annotations

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
    CompiledInstance,
)
from hetsched.milp.ir import MilpModel
from hetsched.model import ImplType, ModelError, ProblemInstance


# Criterion 8's limit on every coefficient, variable bound and right-hand side
# of the encoding, enforced on the input by ``validate_instance``.  HiGHS
# rejects a matrix entry of 1e15 or more (its ``large_matrix_value``) as a
# model error.
COEFFICIENT_LIMIT = 2**40


# The caps below depend on the arbitration policy; every other constant of
# the encoding is a table of the instance's compiled view.


def _suspension_caps(ci: CompiledInstance, policy: str) -> list[tuple[int, ...]]:
    """Cap on the suspension of each accelerable segment (``sseg`` bounds,
    the big-M of rr's ``c14``): its accelerator time plus the longest wait
    the policy allows."""
    longest = [max(times, default=0) for times in ci.accel_time]
    everyone = sum(longest)
    out = []
    for i, times in enumerate(ci.accel_time):
        if policy == NO_CONTENTION:
            wait = 0
        elif policy == RR:
            wait = everyone - longest[i]
        else:
            wait = ci.deadline[i]
        out.append(tuple(e_hw + wait for e_hw in times))
    return out


def _demand_caps(ci: CompiledInstance, s_cap: list[int]) -> list[list[int]]:
    """Cap on each task's demand at each of its checkpoints (``rho`` bounds,
    ``c11b``/``c11c``): the ``c11a`` right-hand side with every column at its
    upper bound."""
    cmax = ci.cmax
    return [
        [cmax[i] + s_cap[i] + sum(c * cmax[s] for s, c in row) for row in rows]
        for i, rows in enumerate(ci.cpu_multipliers)
    ]


def _npfp_caps(ci: CompiledInstance) -> tuple[list[int], list[int]]:
    """Caps of npfp's blocking ``b`` and of its accelerator wait (``delta``
    bounds, the big-M of ``c18b``/``c18c``/``c18e``): the longest request of
    any other task, plus the backlog at the last accelerator checkpoint, the
    deadline, of every other task's requests."""
    times = ci.accel_time
    longest = [max(t, default=0) for t in times]
    b_cap = [max(longest[:i] + longest[i + 1 :], default=0) for i in range(len(times))]
    delta_cap = [
        b + sum(c * sum(times[s]) for s, c in rows[-1]) if rows else b
        for b, rows in zip(b_cap, ci.accel_multipliers)
    ]
    return b_cap, delta_cap


def encoding_magnitude(inst: ProblemInstance) -> int:
    """Largest magnitude among the coefficients, variable bounds and
    right-hand sides that :func:`build_milp` writes for ``inst`` under any
    policy and objective.

    Every checkpoint grid ends at the deadline ``D_i``, so each row family
    peaks there.  The candidates are the demand cap at ``D_i``, which covers
    ``c11b``/``c11c`` (``|rc_g - v_g|`` is at most ``max(rc_g, v_g)``),
    ``c13``/``c14`` and every ``rho``, ``sseg``, ``s`` and ``Hd`` bound;
    ``D_i`` itself, of the ``R`` bound and the ``rt`` rows; ``c10``'s
    ``2 * cmax_i``, which covers ``c8``, ``c10m`` and the ``e``/``I``
    bounds; npfp's ``max(D_i, e_hw) + delta_cap_i`` of
    ``c18b``/``c18c``/``c18e``, which covers ``c16``/``c17a``; the demand
    multipliers of ``c11a`` and ``c18a``; and the right-hand side 2 of the
    ``c6`` triangle rows.  A chain adds the largest value its ``L_ch`` can
    take: the periods its ``lat`` row adds plus the deadlines of its tasks.
    """
    ci = inst.compiled
    D = ci.deadline
    s_cap = [max(map(sum, caps)) for caps in zip(*(_suspension_caps(ci, p) for p in POLICIES))]
    rho_cap = _demand_caps(ci, s_cap)
    _, delta_cap = _npfp_caps(ci)
    out = 2
    for i, d in enumerate(D):
        cpu_mult = [c for _, c in ci.cpu_multipliers[i][-1]]
        out = max(out, rho_cap[i][-1], d, 2 * ci.cmax[i], *cpu_mult)
        if ci.accelerable[i]:
            accel_mult = [c for _, c in ci.accel_multipliers[i][-1]]
            out = max(out, max(d, *ci.accel_time[i]) + delta_cap[i], *accel_mult)
    for chain in inst.chains:
        deadlines = sum(D[ci.task_index[tid]] for tid in chain.tasks)
        out = max(out, ci.chain_offset(chain) + deadlines)
    return out


def envelope_violation(inst: ProblemInstance) -> str | None:
    """Why :func:`build_milp` would need a constant at or above
    :data:`COEFFICIENT_LIMIT` for ``inst``, or None if it would not."""
    magnitude = encoding_magnitude(inst)
    if magnitude < COEFFICIENT_LIMIT:
        return None
    return (
        f"time values too large: the deployment MILP would need a constant of "
        f"{magnitude}, at or above 2**40; express the times in a coarser unit"
    )


def build_milp(inst: ProblemInstance, policy: str, objective: str) -> MilpModel:
    """Build the deployment MILP for ``inst`` under an arbitration policy."""
    if policy not in POLICIES:
        raise ModelError(f"unknown policy {policy!r}")
    if objective not in OBJECTIVES:
        raise ModelError(f"unknown objective {objective!r}")
    ci = inst.compiled  # rejects a structurally invalid instance
    problem = envelope_violation(inst)
    if problem:
        raise ModelError("invalid instance: tasks: " + problem)
    if objective in (MINMAX_LAT, MINSUM_LAT) and not inst.chains:
        raise ModelError("latency objectives require at least one chain")

    tasks = list(inst.tasks)
    n = len(tasks)
    cores = list(inst.platform.cores)
    m = len(cores)
    acc_idx, accel, deadline = ci.accelerable, ci.accel_time, ci.deadline
    seg_cap, cmax, emin = ci.seg_cmax, ci.cmax, ci.min_cpu
    wcrt_grid = ci.cpu_grid
    ss_cap = _suspension_caps(ci, policy)
    s_cap = [sum(caps) for caps in ss_cap]
    rho_cap = _demand_caps(ci, s_cap)

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
        [model.add_var(f"rho_t{i}_g{g}", ub=float(rc)) for g, rc in enumerate(rho_cap[i])]
        for i in range(n)
    ]
    y = [
        [model.add_binary(f"y_t{i}_g{g}") for g in range(len(wcrt_grid[i]))] for i in range(n)
    ]
    R = [model.add_var(f"R_t{i}", ub=float(deadline[i]), integer=True) for i in range(n)]

    sseg = [
        {
            j: model.add_var(f"sseg_t{i}_j{j}", ub=float(cap))
            for j, cap in zip(acc_idx[i], ss_cap[i])
        }
        for i in range(n)
    ]
    s_var = [model.add_var(f"s_t{i}", ub=float(s_cap[i])) for i in range(n)]

    if policy == RR:
        la = [model.add_var(f"la_t{i}", ub=float(max(accel[i], default=0))) for i in range(n)]

    if policy == NPFP:
        b_cap, delta_cap = _npfp_caps(ci)
        accel_mult = ci.accel_multipliers
        eta: dict[tuple[int, int, int], int] = {}
        Hd: dict[tuple[int, int], int] = {}
        b: dict[int, int] = {}
        delta: dict[tuple[int, int, int], int] = {}
        sigma: dict[tuple[int, int, int], int] = {}
        for i in range(n):
            if not acc_idx[i]:
                continue
            for j, e_hw in zip(acc_idx[i], accel[i]):
                for s in range(n):
                    if s != i:
                        eta[i, j, s] = model.add_var(f"eta_t{i}_j{j}_t{s}", ub=float(e_hw))
            for s in range(n):
                if s != i:
                    Hd[i, s] = model.add_var(f"Hd_t{i}_t{s}", ub=float(sum(accel[i])))
            b[i] = model.add_var(f"b_t{i}", ub=float(b_cap[i]))
            for j in acc_idx[i]:
                for g in range(len(accel_mult[i])):
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
    # hp is a strict linear order: one direction per pair (c5) and no cycle
    # through three tasks (c6, one row per direction of the cycle).
    for i in range(n):
        for s in range(i + 1, n):
            model.add_row(f"c5_t{i}_t{s}", [(hp[i, s], 1.0), (hp[s, i], 1.0)], "==", 1.0)
    for i in range(n):
        for s in range(i + 1, n):
            for u in range(s + 1, n):
                model.add_row(
                    f"c6a_t{i}_t{s}_t{u}",
                    [(hp[i, s], 1.0), (hp[s, u], 1.0), (hp[u, i], 1.0)],
                    "<=",
                    2.0,
                )
                model.add_row(
                    f"c6b_t{i}_t{s}_t{u}",
                    [(hp[i, u], 1.0), (hp[u, s], 1.0), (hp[s, i], 1.0)],
                    "<=",
                    2.0,
                )

    # ------------------------------------------- per-segment CPU-side WCET
    ctypes = ci.core_type
    for i, t in enumerate(tasks):
        for j, seg in enumerate(t.segments):
            cap = float(seg_cap[i][j])
            if not seg.impl.must_accelerate:
                model.add_row(
                    f"c8a_t{i}_j{j}",
                    [(eseg[i][j], 1.0), (a[i][j], cap)]
                    + [(x[i][k], -float(seg.cpu_wcet(ct, False))) for k, ct in enumerate(ctypes)],
                    ">=",
                    0.0,
                )
            if seg.impl.may_accelerate:
                model.add_row(
                    f"c8b_t{i}_j{j}",
                    [(eseg[i][j], 1.0), (a[i][j], -cap)]
                    + [(x[i][k], -float(seg.cpu_wcet(ct, True))) for k, ct in enumerate(ctypes)],
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
            # I[i,s] >= emin_i * (hp[i,s] + sp[i,s] - 1)
            model.add_row(
                f"c10m_t{i}_t{s}",
                [(I[i, s], 1.0), (hp[i, s], -float(emin[i])), (sp[i, s], -float(emin[i]))],
                ">=",
                -float(emin[i]),
            )

    # ----------------------------------------------- checkpointed WCRT test
    for i in range(n):
        for g, (nu, row) in enumerate(zip(wcrt_grid[i], ci.cpu_multipliers[i])):
            cap = float(rho_cap[i][g])
            terms = [(rho[i][g], 1.0), (e[i], -1.0), (s_var[i], -1.0)]
            terms += [(I[s, i], -float(coef)) for s, coef in row]
            model.add_row(f"c11a_t{i}_g{g}", terms, ">=", 0.0)
            model.add_row(f"c11b_t{i}_g{g}", [(rho[i][g], 1.0), (y[i][g], cap - nu)], "<=", cap)
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

    # ------------------------------------------------------- suspension bounds
    if policy == RR:
        for i in range(n):
            for j, e_hw in zip(acc_idx[i], accel[i]):
                model.add_row(f"c13_t{i}_j{j}", [(la[i], 1.0), (a[i][j], -float(e_hw))], ">=", 0.0)
            for j, e_hw, m14 in zip(acc_idx[i], accel[i], map(float, ss_cap[i])):
                model.add_row(
                    f"c14_t{i}_j{j}",
                    [(sseg[i][j], 1.0), (a[i][j], -m14)]
                    + [(la[h], -1.0) for h in range(n) if h != i],
                    ">=",
                    e_hw - m14,
                )
    elif policy == NO_CONTENTION:
        for i in range(n):
            for j, e_hw in zip(acc_idx[i], accel[i]):
                model.add_row(
                    f"c14_t{i}_j{j}", [(sseg[i][j], 1.0), (a[i][j], -float(e_hw))], ">=", 0.0
                )
    else:  # NPFP
        for i in range(n):
            if not acc_idx[i]:
                continue
            for s in range(n):
                if s == i:
                    continue
                for f, e_hw in zip(acc_idx[s], map(float, accel[s])):
                    model.add_row(
                        f"c16_t{i}_t{s}_j{f}",
                        [(b[i], 1.0), (a[s][f], -e_hw), (hp[i, s], -e_hw)],
                        ">=",
                        -e_hw,
                    )
                for j, e_hw in zip(acc_idx[i], map(float, accel[i])):
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
            for j, e_hw in zip(acc_idx[i], map(float, accel[i])):
                m2 = e_hw + dcap
                for g, (nu, row) in enumerate(zip(ci.accel_grid(i), accel_mult[i])):
                    terms = [(delta[i, j, g], 1.0), (b[i], -1.0)]
                    terms += [(Hd[s, i], -float(coef)) for s, coef in row]
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
                    [(sigma[i, j, g], 1.0) for g in range(len(accel_mult[i]))]
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
    if objective in (MINMAX_LAT, MINSUM_LAT):
        L = []
        for ch, chain in enumerate(inst.chains):
            lv = model.add_var(f"L_ch{ch}", integer=True)
            L.append(lv)
            terms = [(lv, 1.0)] + [(R[ci.task_index[tid]], -1.0) for tid in chain.tasks]
            model.add_row(f"lat_ch{ch}", terms, ">=", float(ci.chain_offset(chain)))
        if objective == MINMAX_LAT:
            lmax = model.add_var("Lmax", integer=True)
            for ch, lv in enumerate(L):
                model.add_row(f"lmax_ch{ch}", [(lmax, 1.0), (lv, -1.0)], ">=", 0.0)
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
        "segments": {t.id: len(t.segments) for t in tasks},
        "accelerable": {t.id: list(acc_idx[i]) for i, t in enumerate(tasks)},
        "wcrt_grid": {t.id: list(wcrt_grid[i]) for i, t in enumerate(tasks)},
    }
    if policy == NPFP:
        model.meta["accel_grid"] = {t.id: list(ci.accel_grid(i)) for i, t in enumerate(tasks)}
    return model
