"""Serialize a model to CPLEX-LP text (the dialect HiGHS, CBC, Gurobi and
CPLEX all read).  Output is deterministic: columns and rows appear in model
order, which the builder derives from the instance alone."""

from __future__ import annotations

import math

from hetsched.milp.ir import MilpModel


def _num(v: float) -> str:
    if v == int(v) and abs(v) < 1e15:
        return str(int(v))
    return repr(v)


def _expr(terms, names) -> str:
    parts: list[str] = []
    for idx, coef in terms:
        name = names[idx]
        if not parts:
            if coef == 1:
                parts.append(name)
            elif coef == -1:
                parts.append(f"- {name}")
            else:
                parts.append(f"{_num(coef)} {name}")
        else:
            sign = "+" if coef >= 0 else "-"
            mag = abs(coef)
            if mag == 1:
                parts.append(f"{sign} {name}")
            else:
                parts.append(f"{sign} {_num(mag)} {name}")
    return " ".join(parts)


def write_lp(model: MilpModel) -> str:
    if not model.objective:
        raise ValueError("model has no objective")
    names = model.col_names
    out: list[str] = [f"\\ {model.name}"]
    out.append("Minimize")
    out.append(" obj: " + _expr(sorted(model.objective.items()), names))
    out.append("Subject To")
    start, index, coef = model.row_start, model.col_index, model.coef
    for r, name in enumerate(model.row_names):
        terms = list(zip(index[start[r] : start[r + 1]], coef[start[r] : start[r + 1]]))
        if not terms:
            raise ValueError(f"row {name!r} has no terms")
        # add_row gives every row one finite side, or two equal ones.
        lower, upper = model.row_lower[r], model.row_upper[r]
        sense = "=" if lower == upper else "<=" if lower == -math.inf else ">="
        rhs = upper if sense == "<=" else lower
        out.append(f" {name}: {_expr(terms, names)} {sense} {_num(rhs)}")

    bounds: list[str] = []
    binaries: list[str] = []
    generals: list[str] = []
    for i, (name, lb, ub) in enumerate(zip(names, model.col_lower, model.col_upper)):
        if model.is_binary(i):
            binaries.append(f" {name}")
            # Only non-default binary bounds (fixed on/off) need a line.
            if lb > 0:
                bounds.append(f" {name} >= {_num(lb)}")
            if ub < 1:
                bounds.append(f" {name} <= {_num(ub)}")
            continue
        if model.integer[i]:
            generals.append(f" {name}")
        if lb == ub:
            bounds.append(f" {name} = {_num(lb)}")
            continue
        if lb != 0.0:
            bounds.append(f" {name} >= {_num(lb)}")
        if ub != math.inf:
            bounds.append(f" {name} <= {_num(ub)}")
    for header, lines in (("Bounds", bounds), ("Binary", binaries), ("General", generals)):
        if lines:
            out.append(header)
            out.extend(lines)
    out.append("End")
    return "\n".join(out) + "\n"


def write_lp_file(model: MilpModel, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(write_lp(model))
