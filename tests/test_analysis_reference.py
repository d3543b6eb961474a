"""Analysis results against a reference recorded from an earlier analysis.

``tests/data/analysis_reference.json`` holds, for every case below and every
policy and mode, each task's WCRT and suspension bound and each chain's
latency, as an earlier implementation of :func:`analyze` computed them.  Any
change to a result shows up as a mismatch.  Re-record it (only on purpose) with
``PYTHONPATH=src:tests python tests/test_analysis_reference.py > tests/data/analysis_reference.json``.
"""

import json
import random
import sys
from pathlib import Path

import pytest
from helpers import random_assignment, random_instance

from hetsched.analysis import MODES, POLICIES, analyze
from hetsched.model import builtin_waters, waters_published_assignment

REFERENCE = Path(__file__).parent / "data" / "analysis_reference.json"


def _reference_cases():
    cases = [("waters/published", builtin_waters(), waters_published_assignment())]
    rng = random.Random(2027)
    for k in range(60):
        inst = random_instance(rng, max_tasks=5, max_cores=3, max_accelerable=3, util=(0.3, 1.4))
        cases.append((f"random/{k}", inst, random_assignment(rng, inst)))
    return cases


def _digest(inst, asg) -> dict:
    """Per-task WCRT and suspension and per-chain latency under every policy
    and mode, keyed ``policy/mode``."""
    out = {}
    for policy in POLICIES:
        for mode in MODES:
            report = analyze(inst, asg, policy, mode=mode)
            out[f"{policy}/{mode}"] = {
                "wcrt_us": {t.task_id: t.wcrt_us for t in report.tasks},
                "suspension_us": {t.task_id: t.suspension_us for t in report.tasks},
                "chain_latency_us": dict(report.chain_latency_us),
            }
    return out


_CASES = _reference_cases()


@pytest.fixture(scope="module")
def reference():
    return json.loads(REFERENCE.read_text())


@pytest.mark.parametrize("name, inst, asg", _CASES, ids=[c[0] for c in _CASES])
def test_analysis_matches_reference(reference, name, inst, asg):
    assert _digest(inst, asg) == reference[name]


if __name__ == "__main__":
    recorded = {name: _digest(inst, asg) for name, inst, asg in _CASES}
    json.dump(recorded, sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
