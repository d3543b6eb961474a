"""Timing of program routes and, in a traced run, of the layers below them.

A :class:`Meter` holds one dictionary of sums per round.  The workloads call
every program route through :meth:`Meter.call`, which times it from outside;
those sums are the route totals.  A :class:`Tracer` wraps the public
entry points of the layers below the routes (builder, backend, HiGHS, decode,
verify, the analysis calls inside the brute-force search) by swapping module
attributes for the duration of a run.  It edits no source file, and the
untraced run never installs it.
"""

from __future__ import annotations

import functools
import time
from collections import defaultdict


class Meter:
    """Per-round sums of seconds and counts, keyed by metric name."""

    def __init__(self):
        self.rounds: list[dict[str, float]] = []

    def start_round(self) -> None:
        self.rounds.append(defaultdict(float))

    def add(self, key: str, value: float) -> None:
        self.rounds[-1][key] += value

    def call(self, keys: tuple[str, ...], fn, *args, **kwargs):
        """Run ``fn`` and add its wall time to every key in ``keys``."""
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            for key in keys:
                self.add(key, elapsed)


def _model_size(meter: Meter, model) -> None:
    stats = model.stats()
    meter.add("build.columns", stats["variables"])
    meter.add("build.binaries", stats["binaries"])
    meter.add("build.rows", stats["rows"])
    meter.add("build.nonzeros", stats["nonzeros"])


def _highs_nodes(meter: Meter, res) -> None:
    meter.add("highs.nodes", getattr(res, "mip_node_count", 0) or 0)
    meter.add("highs.calls", 1)


class Tracer:
    """Wraps layer entry points so that each call adds to a :class:`Meter`.

    Use as a context manager; leaving it restores every wrapped attribute.
    """

    def __init__(self, meter: Meter):
        import scipy.optimize

        import hetsched.bruteforce
        import hetsched.milp
        from hetsched.milp.backends import ScipyBackend

        self.meter = meter
        # (owner, attribute, span name, what to record from the result)
        self._targets = [
            (hetsched.milp, "build_milp", "build.s", _model_size),
            (ScipyBackend, "solve", "backend.s", None),
            (scipy.optimize, "milp", "highs.s", _highs_nodes),
            (hetsched.milp, "decode_assignment", "decode.s", None),
            (hetsched.milp, "verify_solution", "verify.s", None),
            (hetsched.bruteforce, "analyze", "search.analyze.s", None),
        ]
        self._saved: list[tuple[object, str, object]] = []

    def _wrap(self, fn, span: str, record):
        meter = self.meter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                meter.add(span, time.perf_counter() - start)
            if record is not None:
                record(meter, out)
            return out

        return wrapper

    def __enter__(self) -> "Tracer":
        for owner, attr, span, record in self._targets:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, span, record))
        return self

    def __exit__(self, *exc) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
