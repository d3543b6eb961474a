"""A small mixed-integer linear program container.

The builder fills it, the LP writer serializes it, and the solver backends
consume it.  The model is kept in the layout HiGHS takes, as parallel lists
that grow as the builder appends:

* columns: ``col_names``, ``col_lower``, ``col_upper`` (``math.inf`` when
  unbounded above) and ``integer``;
* rows, in compressed sparse row form: the terms of row ``r`` are
  ``col_index[row_start[r]:row_start[r + 1]]`` with coefficients
  ``coef[row_start[r]:row_start[r + 1]]``, and the row reads
  ``row_lower[r] <= terms <= row_upper[r]``; ``row_names`` labels it.

:meth:`MilpModel.add_row` is the only place that turns a sense (``<=``,
``>=``, ``==``) into row bounds.  Names exist for the LP file and for
decoding solutions.
"""

from __future__ import annotations

import math
from typing import Iterable


def _merge(terms: Iterable[tuple[int, float]]) -> dict[int, float]:
    """Sum the coefficients of repeated columns, in first-seen order,
    dropping terms given with a zero coefficient."""
    merged: dict[int, float] = {}
    for idx, coef in terms:
        if coef:
            merged[idx] = merged.get(idx, 0.0) + float(coef)
    return merged


class MilpModel:
    """A minimization MILP built incrementally with named rows and columns."""

    def __init__(self, name: str):
        self.name = name
        self.col_names: list[str] = []
        self.col_lower: list[float] = []
        self.col_upper: list[float] = []
        self.integer: list[bool] = []
        self.row_names: list[str] = []
        self.row_lower: list[float] = []
        self.row_upper: list[float] = []
        self.row_start: list[int] = [0]
        self.col_index: list[int] = []
        self.coef: list[float] = []
        self.objective: dict[int, float] = {}
        self.meta: dict = {}
        self._col_of: dict[str, int] = {}
        self._row_set: set[str] = set()

    # -- columns ------------------------------------------------------------

    def add_var(
        self, name: str, lb: float = 0.0, ub: float = math.inf, integer: bool = False
    ) -> int:
        if name in self._col_of:
            raise ValueError(f"duplicate variable {name!r}")
        idx = len(self.col_names)
        self._col_of[name] = idx
        self.col_names.append(name)
        self.col_lower.append(float(lb))
        self.col_upper.append(float(ub))
        self.integer.append(integer)
        return idx

    def add_binary(self, name: str, lb: float = 0.0, ub: float = 1.0) -> int:
        return self.add_var(name, lb=lb, ub=ub, integer=True)

    def var(self, name: str) -> int:
        return self._col_of[name]

    def has_var(self, name: str) -> bool:
        return name in self._col_of

    def is_binary(self, i: int) -> bool:
        return self.integer[i] and self.col_lower[i] >= 0.0 and self.col_upper[i] <= 1.0

    # -- rows and objective ---------------------------------------------------

    def add_row(
        self, name: str, terms: Iterable[tuple[int, float]], sense: str, rhs: float
    ) -> None:
        if sense not in ("<=", ">=", "=="):
            raise ValueError(f"bad sense {sense!r}")
        if name in self._row_set:
            raise ValueError(f"duplicate row {name!r}")
        self._row_set.add(name)
        merged = _merge(terms)
        self.row_names.append(name)
        self.row_lower.append(-math.inf if sense == "<=" else float(rhs))
        self.row_upper.append(math.inf if sense == ">=" else float(rhs))
        self.col_index.extend(merged)
        self.coef.extend(merged.values())
        self.row_start.append(len(self.col_index))

    def set_objective(self, terms: Iterable[tuple[int, float]]) -> None:
        self.objective = _merge(terms)

    # -- reporting -------------------------------------------------------------

    def stats(self) -> dict:
        return {
            "variables": len(self.col_names),
            "binaries": sum(map(self.is_binary, range(len(self.col_names)))),
            "integers": sum(self.integer),
            "rows": len(self.row_names),
            "nonzeros": len(self.coef),
        }
