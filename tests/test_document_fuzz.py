"""Hostile instance and assignment documents through every subcommand.

Each example mutates one of two small valid documents, runs one subcommand
in-process and checks the input boundary's one invariant: a clean exit code,
at most one JSON document on stdout, no traceback, and a success only for
documents that validation accepts.
"""

import contextlib
import copy
import io
import json

import pytest
from helpers import assign, make_instance, make_task, seg_cpu, seg_opt
from hypothesis import given, settings
from hypothesis import strategies as st

from hetsched.analysis import OBJECTIVES, POLICIES
from hetsched.cli import main
from hetsched.model import (
    ChainSpec,
    ModelError,
    assignment_from_json,
    assignment_to_dict,
    instance_from_json,
    instance_to_dict,
    validate_assignment,
    validate_instance,
)

INSTANCE = instance_to_dict(
    make_instance(
        [make_task("t1", 10_000, [seg_cpu(4_000)]),
         make_task("t2", 20_000, [seg_opt(9_000, 1_000, 500, 4_000)])],
        chains=[ChainSpec(id="c", tasks=("t1", "t2"))],
    )
)
ASSIGNMENT = assignment_to_dict(assign({"t1": "c0", "t2": "c1"}, {"t1": 2, "t2": 1}, {"t2": {0}}))

# JSON text that no Python value dumps to, spliced in for its placeholder.
RAW = {"<1e400>": "1e400", "<-1e400>": "-1e400", "<deep>": "[" * 100_000 + "]" * 100_000}
VALUES = [
    1, 5, 0, -1, 20_000, 1.5, "x", True, False, None, [], {}, [1], {"a": 1},  # type swaps
    10**400, 2**40, float("nan"), float("inf"), *RAW,  # extreme numbers, deep nesting
    "t1", "t2", "c0", "ct", [[[[1]]]],  # ids that exist already, shallow nesting
]
ASSIGNMENT_COMMANDS = ("analyze", "simulate")


def _nodes(doc, path=()):
    yield path
    if isinstance(doc, (dict, list)):
        for key, child in doc.items() if isinstance(doc, dict) else enumerate(doc):
            yield from _nodes(child, path + (key,))


@st.composite
def mutated(draw, doc):
    """``doc`` after one or two edits, as JSON text."""
    doc = copy.deepcopy(doc)
    value = st.sampled_from(VALUES).map(copy.deepcopy)  # edits must not reach VALUES
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_nodes(doc))))
        if not path:
            doc = draw(value)
            break
        parent, key = doc, path[-1]
        for p in path[:-1]:
            parent = parent[p]
        grow = "duplicate" if isinstance(parent, list) else "unknown key"
        edit = draw(st.sampled_from(["replace", "delete", grow]))
        if edit == "replace":
            parent[key] = draw(value)
        elif edit == "delete":
            del parent[key]
        elif edit == "duplicate":
            parent.append(copy.deepcopy(parent[key]))
        else:
            parent["extra"] = 1
    text = json.dumps(doc)
    for placeholder, raw in RAW.items():
        text = text.replace(json.dumps(placeholder), raw)
    return text


def _accepted(reader, text):
    try:
        return reader(text)
    except ModelError:
        return None


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    data=st.data(),
    command=st.sampled_from(["validate", *ASSIGNMENT_COMMANDS, "optimize", "search"]),
    policy=st.sampled_from(sorted(POLICIES)),
    objective=st.sampled_from(OBJECTIVES),
)
def test_hostile_documents_exit_cleanly(workdir, data, command, policy, objective):
    docs = {"instance": INSTANCE, "assignment": ASSIGNMENT}
    mutable = sorted(docs) if command in ASSIGNMENT_COMMANDS else ["instance"]
    which = data.draw(st.sampled_from(mutable))
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    texts[which] = data.draw(mutated(docs[which]))
    for name, text in texts.items():
        (workdir / f"{name}.json").write_text(text)
    argv = [command, "--instance", str(workdir / "instance.json")]
    if command in ASSIGNMENT_COMMANDS:
        argv += ["--assignment", str(workdir / "assignment.json"), "--policy", policy]
    if command in ("optimize", "search"):
        argv += ["--policy", policy, "--objective", objective]
    argv += {"optimize": ["--time-limit", "1"], "simulate": ["--horizon", "20000"]}.get(command, [])

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)

    assert code in (0, 1, 2)
    if out.getvalue():
        json.loads(out.getvalue())
    assert "Traceback" not in err.getvalue()
    if code in (0, 2):
        inst = _accepted(instance_from_json, texts["instance"])
        assert inst is not None and not validate_instance(inst)
        if command in ASSIGNMENT_COMMANDS:
            asg = _accepted(assignment_from_json, texts["assignment"])
            assert asg is not None and not validate_assignment(inst, asg)
