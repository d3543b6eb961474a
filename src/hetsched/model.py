"""Problem model: platform, tasks, segments, chains, and deployment assignments.

All times are integer microseconds.  Tasks are sporadic/periodic with
constrained deadlines (deadline <= period) and consist of an ordered list of
segments.  A segment either always runs on the CPU, always runs on the
hardware accelerator, or may run on either (the optimizer decides).  Running a
segment on the accelerator replaces its CPU execution with an offload phase on
the core, a processing phase on the accelerator (during which the task
self-suspends), and a finalization phase back on the core.
"""

from __future__ import annotations

import enum
import json
import math
from collections import abc
from dataclasses import dataclass, field, fields, is_dataclass, replace
from fractions import Fraction
from functools import cache, cached_property
from typing import TYPE_CHECKING, Iterable, Mapping, get_args, get_origin, get_type_hints

if TYPE_CHECKING:
    from hetsched.analysis import CompiledInstance


class ImplType(enum.Enum):
    """Where a segment is allowed to execute."""

    CPU = "cpu"
    HWA = "hwa"
    CPU_HWA = "cpu_hwa"

    @property
    def may_accelerate(self) -> bool:
        return self is not ImplType.CPU

    @property
    def must_accelerate(self) -> bool:
        return self is ImplType.HWA


@dataclass(frozen=True)
class Core:
    id: str
    type: str


@dataclass(frozen=True)
class PlatformSpec:
    """A heterogeneous multicore with an optional single accelerator."""

    core_types: tuple[str, ...]
    cores: tuple[Core, ...]
    accelerator: bool = True


# What a WCET table must be in a document, for the reader's error message.
_WCET_TABLE = {"expected": "an object of core-type -> integer"}


@dataclass(frozen=True)
class SegmentSpec:
    """One segment of a task.

    WCET tables are keyed by core type.  ``exec_us`` is the CPU-only
    execution budget; ``offload_us``/``finalize_us`` are the CPU-side costs
    around an accelerated run and ``accel_us`` the processing time on the
    accelerator itself.  Tables that do not apply to the segment's
    implementation type must be left empty.
    """

    impl: ImplType
    exec_us: Mapping[str, int] = field(default_factory=dict, metadata=_WCET_TABLE)
    offload_us: Mapping[str, int] = field(default_factory=dict, metadata=_WCET_TABLE)
    finalize_us: Mapping[str, int] = field(default_factory=dict, metadata=_WCET_TABLE)
    accel_us: int | None = None

    def __post_init__(self):
        # Normalize the mappings to plain dicts so equality and json
        # round-trips behave predictably.
        object.__setattr__(self, "exec_us", dict(self.exec_us))
        object.__setattr__(self, "offload_us", dict(self.offload_us))
        object.__setattr__(self, "finalize_us", dict(self.finalize_us))

    def cpu_wcet(self, core_type: str, accelerated: bool) -> int:
        """CPU-side budget of this segment on a core of ``core_type``."""
        if accelerated:
            return self.offload_us[core_type] + self.finalize_us[core_type]
        return self.exec_us[core_type]

    def cpu_costs(self, core_type: str) -> list[int]:
        """:meth:`cpu_wcet` under each placement the segment's type allows:
        on the CPU unless it must be accelerated, accelerated if it may be."""
        allowed = (not self.impl.must_accelerate, self.impl.may_accelerate)
        return [self.cpu_wcet(core_type, acc) for acc, ok in zip((False, True), allowed) if ok]


@dataclass(frozen=True)
class TaskSpec:
    id: str
    period_us: int
    deadline_us: int
    segments: tuple[SegmentSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))

    def accelerable_segments(self) -> list[int]:
        """Indices of segments the optimizer may (or must) accelerate."""
        return [j for j, s in enumerate(self.segments) if s.impl.may_accelerate]

    def forced_segments(self) -> list[int]:
        """Indices of segments that can only run on the accelerator."""
        return [j for j, s in enumerate(self.segments) if s.impl.must_accelerate]


@dataclass(frozen=True)
class ChainSpec:
    """A cause-effect chain: an ordered list of task ids."""

    id: str
    tasks: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))


@dataclass(frozen=True)
class ProblemInstance:
    platform: PlatformSpec
    tasks: tuple[TaskSpec, ...]
    chains: tuple[ChainSpec, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "tasks", tuple(self.tasks))
        object.__setattr__(self, "chains", tuple(self.chains))

    def task(self, task_id: str) -> TaskSpec:
        for t in self.tasks:
            if t.id == task_id:
                return t
        raise KeyError(task_id)

    @cached_property
    def compiled(self) -> CompiledInstance:
        """The index-based view that the analysis, the brute-force search and
        the MILP builder read; built on first use and kept with the instance."""
        from hetsched.analysis import CompiledInstance  # analysis imports this module

        return CompiledInstance(self)


@dataclass(frozen=True)
class Assignment:
    """A complete deployment decision.

    ``priority_of`` maps each task to a unique integer priority; a *larger*
    value means *higher* priority.  ``accelerated`` maps task id to the set of
    segment indices that run on the accelerator.
    """

    core_of: Mapping[str, str]
    priority_of: Mapping[str, int]
    accelerated: Mapping[str, frozenset[int]]

    def __post_init__(self):
        object.__setattr__(self, "core_of", dict(self.core_of))
        object.__setattr__(self, "priority_of", dict(self.priority_of))
        object.__setattr__(
            self,
            "accelerated",
            {t: frozenset(v) for t, v in self.accelerated.items()},
        )

    def accelerated_of(self, task_id: str) -> frozenset[int]:
        return self.accelerated.get(task_id, frozenset())


class ModelError(ValueError):
    """Raised for malformed documents or invalid operation arguments."""


@dataclass(frozen=True)
class Violation:
    """A single validation finding, addressed by a json-pointer-ish path."""

    path: str
    message: str

    def __str__(self) -> str:
        return f"{self.path}: {self.message}"


def raise_invalid(
    what: str, errors: list[Violation], error: type[ModelError] = ModelError
) -> None:
    """Raise ``error`` naming ``what`` and every violation, if there is one."""
    if errors:
        raise error(f"{what}: " + "; ".join(map(str, errors)))


# ---------------------------------------------------------------------------
# Validation
# ---------------------------------------------------------------------------


def _whole(v) -> bool:
    """An ``int`` and not a ``bool``: the only time values the routes take."""
    return isinstance(v, int) and not isinstance(v, bool)


def _check_wcet_table(
    table: Mapping[str, int], core_types: Iterable[str], path: str, out: list[Violation]
):
    types = set(core_types)
    for k, v in table.items():
        if k not in types:
            out.append(Violation(f"{path}.{k}", f"unknown core type {k!r}"))
        if not _whole(v) or v < 0:
            out.append(Violation(f"{path}.{k}", "WCET must be a non-negative integer"))
    missing = types - set(table)
    for k in sorted(missing):
        out.append(Violation(path, f"missing WCET for core type {k!r}"))


def validate_instance(inst: ProblemInstance) -> list[Violation]:
    """Check structural invariants and the numeric envelope; returns an empty
    list for a valid instance.

    Violations are returned as data (path + message) rather than raised so a
    caller can report all of them at once.
    """
    out = structural_violations(inst)
    if not out:
        # The numeric envelope is the MILP encoder's, so it lives with the encoder.
        from hetsched.milp.builder import envelope_violation

        problem = envelope_violation(inst)
        if problem:
            out.append(Violation("tasks", problem))
    return out


def structural_violations(inst: ProblemInstance) -> list[Violation]:
    """:func:`validate_instance` without the numeric envelope: the checks an
    instance must pass before any constant of it can be computed."""
    out: list[Violation] = []
    plat = inst.platform

    if not plat.core_types:
        out.append(Violation("platform.core_types", "at least one core type required"))
    if len(set(plat.core_types)) != len(plat.core_types):
        out.append(Violation("platform.core_types", "duplicate core type"))
    if not plat.cores:
        out.append(Violation("platform.cores", "at least one core required"))
    seen_cores: set[str] = set()
    for idx, core in enumerate(plat.cores):
        if core.id in seen_cores:
            out.append(Violation(f"platform.cores[{idx}]", f"duplicate core id {core.id!r}"))
        seen_cores.add(core.id)
        if core.type not in plat.core_types:
            out.append(
                Violation(f"platform.cores[{idx}].type", f"undeclared core type {core.type!r}")
            )

    if not inst.tasks:
        out.append(Violation("tasks", "at least one task required"))
    seen_tasks: set[str] = set()
    for ti, task in enumerate(inst.tasks):
        tpath = f"tasks[{ti}]"
        if task.id in seen_tasks:
            out.append(Violation(tpath, f"duplicate task id {task.id!r}"))
        seen_tasks.add(task.id)
        if not _whole(task.period_us):
            out.append(Violation(f"{tpath}.period_us", "period must be an integer"))
        elif task.period_us <= 0:
            out.append(Violation(f"{tpath}.period_us", "period must be positive"))
        if not _whole(task.deadline_us):
            out.append(Violation(f"{tpath}.deadline_us", "deadline must be an integer"))
        elif not (0 < task.deadline_us <= task.period_us):
            out.append(
                Violation(
                    f"{tpath}.deadline_us",
                    "deadline must satisfy 0 < deadline <= period",
                )
            )
        if not task.segments:
            out.append(Violation(f"{tpath}.segments", "task needs at least one segment"))
        for si, seg in enumerate(task.segments):
            spath = f"{tpath}.segments[{si}]"
            if not seg.impl.must_accelerate:
                _check_wcet_table(seg.exec_us, plat.core_types, f"{spath}.exec_us", out)
            elif seg.exec_us:
                out.append(
                    Violation(f"{spath}.exec_us", "accelerator-only segment cannot have exec_us")
                )
            if seg.impl.may_accelerate:
                if not plat.accelerator:
                    out.append(
                        Violation(spath, "platform has no accelerator but segment may use one")
                    )
                _check_wcet_table(seg.offload_us, plat.core_types, f"{spath}.offload_us", out)
                _check_wcet_table(seg.finalize_us, plat.core_types, f"{spath}.finalize_us", out)
                if not _whole(seg.accel_us) or seg.accel_us < 0:
                    out.append(
                        Violation(f"{spath}.accel_us", "accelerated WCET must be a non-negative integer")
                    )
            else:
                if seg.offload_us or seg.finalize_us or seg.accel_us is not None:
                    out.append(
                        Violation(spath, "cpu-only segment cannot have accelerator WCETs")
                    )

    seen_chains: set[str] = set()
    for ci, chain in enumerate(inst.chains):
        cpath = f"chains[{ci}]"
        if chain.id in seen_chains:
            out.append(Violation(cpath, f"duplicate chain id {chain.id!r}"))
        seen_chains.add(chain.id)
        if not chain.tasks:
            out.append(Violation(f"{cpath}.tasks", "chain must contain at least one task"))
        for pos, tid in enumerate(chain.tasks):
            if tid not in seen_tasks:
                out.append(Violation(f"{cpath}.tasks[{pos}]", f"unknown task id {tid!r}"))
    return out


def validate_assignment(inst: ProblemInstance, assign: Assignment) -> list[Violation]:
    """:meth:`~hetsched.analysis.CompiledInstance.assignment_violations` of the
    instance's compiled view, which rejects a structurally invalid instance."""
    return inst.compiled.assignment_violations(assign)


# ---------------------------------------------------------------------------
# JSON (de)serialization.  One reader walks the dataclasses' field types and
# one writer their values, so the classes above state the format.  Unknown
# keys are rejected everywhere so that typos in hand-written instance files
# fail loudly.
# ---------------------------------------------------------------------------

# The keys a document may leave out; every other field is required.
_OMITTABLE = frozenset({"chains", "exec_us", "offload_us", "finalize_us", "accel_us"})


def _loads(text: str):
    try:
        return json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:  # the latter: nesting too deep
        raise ModelError(f"invalid JSON: {exc}") from None


def _object(v, path: str) -> dict:
    if not isinstance(v, dict):
        raise ModelError(f"{path}: expected an object")
    return v


def _list(v, path: str) -> list:
    if not isinstance(v, list):
        raise ModelError(f"{path}: expected an array")
    return v


def _bool(v, path: str) -> bool:
    if not isinstance(v, bool):
        raise ModelError(f"{path}: expected true or false")
    return v


def _take(obj: dict, path: str, keys: dict[str, bool]) -> dict:
    """Pop declared keys from ``obj``; fail on leftovers or missing required ones."""
    data = {}
    o = dict(_object(obj, path))
    for key, required in keys.items():
        if key in o:
            data[key] = o.pop(key)
        elif required:
            raise ModelError(f"{path}: missing required key {key!r}")
    if o:
        raise ModelError(f"{path}: unknown keys {sorted(o)}")
    return data


def _int(v, path: str) -> int:
    if not _whole(v):
        raise ModelError(f"{path}: expected an integer")
    return v


def _str(v, path: str) -> str:
    if not isinstance(v, str):
        raise ModelError(f"{path}: expected a string")
    return v


_SCALARS = {int: _int, str: _str, bool: _bool}


@cache
def _schema(cls) -> dict[str, tuple]:
    """Each field of dataclass ``cls`` with its type, resolved on first use
    rather than at import, and what a mapping held in it must be."""
    hints = get_type_hints(cls)
    return {f.name: (hints[f.name], f.metadata.get("expected", "an object")) for f in fields(cls)}


def _read(tp, v, path: str, expected: str = "an object"):
    """Read the JSON value ``v`` as a ``tp``, walking a dataclass's field types.

    ``path`` names ``v`` in errors, and ``expected`` says what a mapping must
    be.  A dataclass is an object with exactly its fields as keys, of which
    only those in :data:`_OMITTABLE` may be left out.
    """
    if is_dataclass(tp):
        schema = _schema(tp)
        data = _take(v, path, {name: name not in _OMITTABLE for name in schema})
        return tp(
            **{
                name: _read(hint, data[name], name if path == "$" else f"{path}.{name}", what)
                for name, (hint, what) in schema.items()
                if name in data
            }
        )
    if tp in _SCALARS:
        return _SCALARS[tp](v, path)
    if isinstance(tp, enum.EnumMeta):
        try:
            return tp(v)
        except ValueError:
            raise ModelError(f"{path}: expected one of {'/'.join(m.value for m in tp)}") from None
    origin, args = get_origin(tp), get_args(tp)
    if origin is tuple:
        return tuple(_read(args[0], x, f"{path}[{k}]") for k, x in enumerate(_list(v, path)))
    if origin is frozenset:
        return frozenset(_read(args[0], x, path) for x in _list(v, path))
    if origin is abc.Mapping:
        if not isinstance(v, dict):
            raise ModelError(f"{path}: expected {expected}")
        return {str(k): _read(args[1], x, f"{path}.{k}") for k, x in v.items()}
    # ``X | None``, the one union the model uses
    return None if v is None else _read(args[0], v, path)


def _write(v):
    """The JSON value of ``v``; omittable keys holding nothing are left out."""
    if is_dataclass(v):
        items = ((f.name, getattr(v, f.name)) for f in fields(v))
        return {k: _write(x) for k, x in items if not (k in _OMITTABLE and x in (None, {}))}
    if isinstance(v, enum.Enum):
        return v.value
    if isinstance(v, tuple):
        return [_write(x) for x in v]
    if isinstance(v, frozenset):
        return sorted(v)
    if isinstance(v, dict):
        return {k: _write(x) for k, x in sorted(v.items())}
    return v


def instance_from_dict(doc: dict) -> ProblemInstance:
    return _read(ProblemInstance, doc, "$")


def instance_to_dict(inst: ProblemInstance) -> dict:
    return _write(inst)


def instance_from_json(text: str) -> ProblemInstance:
    return instance_from_dict(_loads(text))


def instance_to_json(inst: ProblemInstance) -> str:
    return json.dumps(instance_to_dict(inst), indent=2, sort_keys=True) + "\n"


def assignment_from_dict(doc: dict) -> Assignment:
    return _read(Assignment, doc, "$")


def assignment_to_dict(assign: Assignment) -> dict:
    return _write(assign)


def assignment_from_json(text: str) -> Assignment:
    return assignment_from_dict(_loads(text))


def assignment_to_json(assign: Assignment) -> str:
    return json.dumps(assignment_to_dict(assign), indent=2, sort_keys=True) + "\n"


# ---------------------------------------------------------------------------
# WCET scaling
# ---------------------------------------------------------------------------


def _as_fraction(factor) -> Fraction:
    if isinstance(factor, bool):  # an int that would read as the factor 0 or 1
        raise ModelError("unsupported scale factor type: bool")
    if isinstance(factor, Fraction):
        return factor
    if isinstance(factor, int):
        return Fraction(factor)
    if isinstance(factor, float):
        # Interpret the float through its shortest decimal representation so
        # that a CLI-style 0.8 means exactly 8/10 and 15 * 0.8 scales to 12,
        # not 13 (which naive binary-float ceiling would produce).
        factor = repr(factor)
    if not isinstance(factor, str):
        raise ModelError(f"unsupported scale factor type: {type(factor).__name__}")
    try:
        return Fraction(factor)
    except (ValueError, ZeroDivisionError):
        raise ModelError(f"invalid scale factor {factor!r}") from None


def scale_wcets(inst: ProblemInstance, factor) -> ProblemInstance:
    """Return a copy of ``inst`` with every WCET multiplied by ``factor``.

    Results are rounded *up* to whole microseconds, so analysis on the scaled
    instance stays sound with respect to the intended real-valued budgets.
    """
    f = _as_fraction(factor)
    if f <= 0:
        raise ModelError("scale factor must be positive")

    def scale(v: int) -> int:
        return math.ceil(v * f)

    def scale_table(tab: Mapping[str, int]) -> dict[str, int]:
        return {k: scale(v) for k, v in tab.items()}

    def scale_segment(s: SegmentSpec) -> SegmentSpec:
        return replace(
            s,
            exec_us=scale_table(s.exec_us),
            offload_us=scale_table(s.offload_us),
            finalize_us=scale_table(s.finalize_us),
            accel_us=None if s.accel_us is None else scale(s.accel_us),
        )

    tasks = [replace(t, segments=tuple(map(scale_segment, t.segments))) for t in inst.tasks]
    return replace(inst, tasks=tuple(tasks))


# ---------------------------------------------------------------------------
# Built-in benchmark: the WATERS 2019 automotive vision/control task set on a
# Jetson-TX2-like platform (4x A57 + 2x Denver cores and one GPU used as the
# shared accelerator).  Each task is a single segment; four of them have a GPU
# implementation.  WCETs are whole microseconds.
# ---------------------------------------------------------------------------

A57 = "a57"
DENVER = "denver"

# (id, period_us, cpu-only exec {a57, denver},
#  accelerated cpu-side cost {a57, denver} or None, gpu processing or None,
#  implementation type)
#
# Notes on the data:
#  * For segments with a GPU implementation the source material reports only
#    the *combined* CPU-side cost around an accelerated run; we book it on the
#    offload phase and leave finalization at zero (the analysis only ever uses
#    the sum).
#  * The planner runs at a 15 ms period.  A frequently reproduced 12 ms figure
#    for it is a typo: the task cannot execute in under 12.4 ms on any core,
#    which would make the whole set trivially infeasible, and the reference
#    end-to-end latencies for chains through the planner only cohere at 15 ms.
_WATERS_TASKS = [
    ("lidar_grabber", 33_000, {A57: 14_379, DENVER: 10_868}, None, None, ImplType.CPU),
    ("dasm", 5_000, {A57: 1_958, DENVER: 1_300}, None, None, ImplType.CPU),
    ("can_polling", 10_000, {A57: 632, DENVER: 600}, None, None, ImplType.CPU),
    ("ekf", 15_000, {A57: 5_011, DENVER: 4_430}, None, None, ImplType.CPU),
    ("planner", 15_000, {A57: 13_939, DENVER: 12_437}, None, None, ImplType.CPU),
    ("sfm", 33_000, {A57: 31_055, DENVER: 27_812}, {A57: 8_320, DENVER: 6_711}, 7_900, ImplType.CPU_HWA),
    ("localization", 400_000, {A57: 407_811, DENVER: 294_808}, {A57: 18_568, DENVER: 14_516}, 124_000, ImplType.CPU_HWA),
    ("lane_detection", 66_000, {A57: 53_732, DENVER: 42_238}, {A57: 8_667, DENVER: 7_626}, 27_333, ImplType.CPU_HWA),
    ("detection", 200_000, None, {A57: 4_958, DENVER: 4_086}, 116_000, ImplType.HWA),
]

_WATERS_CHAINS = [
    ("c1", ["detection", "planner", "dasm"]),
    ("c2", ["sfm", "planner", "dasm"]),
    ("c3", ["lane_detection", "planner", "dasm"]),
    ("c4", ["can_polling", "localization", "ekf", "planner", "dasm"]),
    ("c5", ["lidar_grabber", "localization", "ekf", "planner", "dasm"]),
    ("c6", ["lidar_grabber", "planner", "dasm"]),
    ("c7", ["can_polling", "ekf", "planner", "dasm"]),
    ("c8", ["can_polling", "planner", "dasm"]),
]

# Deployment reported alongside the benchmark for the round-robin accelerator
# with the min-max latency objective.  The priority column is recorded
# verbatim; its published description does not state which end is "high", but
# only the larger-is-higher reading yields a schedulable system (see
# waters_published_assignment).
WATERS_PUBLISHED_SOLUTION = {
    "lidar_grabber": {"prio": 8, "cpu": 5, "acc": False},
    "dasm": {"prio": 5, "cpu": 1, "acc": False},
    "can_polling": {"prio": 1, "cpu": 1, "acc": False},
    "ekf": {"prio": 3, "cpu": 0, "acc": False},
    "planner": {"prio": 2, "cpu": 2, "acc": False},
    "sfm": {"prio": 4, "cpu": 3, "acc": False},
    "localization": {"prio": 7, "cpu": 4, "acc": False},
    "lane_detection": {"prio": 6, "cpu": 5, "acc": False},
    "detection": {"prio": 0, "cpu": 0, "acc": True},
}


def builtin_waters() -> ProblemInstance:
    """The 9-task / 6-core / 1-accelerator automotive benchmark instance."""
    cores = tuple(
        [Core(id=f"a57_{k}", type=A57) for k in range(4)]
        + [Core(id=f"denver_{k}", type=DENVER) for k in range(2)]
    )
    platform = PlatformSpec(core_types=(A57, DENVER), cores=cores, accelerator=True)

    tasks = []
    for tid, period, exec_us, acc_us, gpu_us, impl in _WATERS_TASKS:
        seg = SegmentSpec(
            impl=impl,
            exec_us=exec_us or {},
            offload_us=acc_us or {},
            finalize_us=dict.fromkeys(acc_us or (), 0),
            accel_us=gpu_us,
        )
        tasks.append(TaskSpec(id=tid, period_us=period, deadline_us=period, segments=(seg,)))

    chains = tuple(ChainSpec(id=cid, tasks=tuple(ts)) for cid, ts in _WATERS_CHAINS)
    return ProblemInstance(platform=platform, tasks=tuple(tasks), chains=chains)


def waters_published_assignment() -> Assignment:
    """The benchmark's published round-robin/min-max-latency deployment.

    Core indices 0-3 are the A57s and 4-5 the Denvers.  Published priorities
    (0..8) are shifted to this package's 1..9 convention, keeping their order
    and reading larger values as higher priority.
    """
    core_ids = [f"a57_{k}" for k in range(4)] + [f"denver_{k}" for k in range(2)]
    core_of = {}
    priority_of = {}
    accelerated = {}
    for tid, row in WATERS_PUBLISHED_SOLUTION.items():
        core_of[tid] = core_ids[row["cpu"]]
        priority_of[tid] = row["prio"] + 1
        accelerated[tid] = frozenset({0}) if row["acc"] else frozenset()
    return Assignment(core_of=core_of, priority_of=priority_of, accelerated=accelerated)


def load_instance(ref: str) -> ProblemInstance:
    """Load an instance from a file path, or a builtin by ``builtin:`` name."""
    if ref.startswith("builtin:"):
        name = ref.split(":", 1)[1]
        if name == "waters":
            return builtin_waters()
        raise ModelError(f"unknown builtin instance {name!r}")
    with open(ref, "r", encoding="utf-8") as fh:
        return instance_from_json(fh.read())
