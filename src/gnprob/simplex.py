"""Exact linear programming over the rationals.

A small dense two-phase simplex with Bland's rule, meant for the tiny
feasibility programs produced by the coherence checker (tens of
variables and rows). Bland's rule (lowest eligible index for both the
entering and the leaving variable) rules out cycling.

The tableau is fraction-free, in the integer-preserving style of Edmonds
(1967) and Bareiss, "Sylvester's identity and multistep integer-preserving
Gaussian elimination" (Math. Comp. 22, 1968). Each constraint row is
scaled to integers, and every entry is held as an integer numerator over
one positive common denominator D. A pivot is integer multiplies plus one
exact division by the previous D, with no gcd per entry; ratios and reduced
costs are compared by their integer numerators. Optima are therefore
decided exactly and the strict sign tests downstream need no tolerances.
Scaling a row rescales only its slack and artificial variables, never a
structural one, and the phase-1 costs are reweighted to match, so the
pivots are those of the same simplex run in Fraction arithmetic. A
caller's positive scaling of a structural column, of the objective or of
a row that needs no artificial variable keeps every sign and every ratio
order, so it leaves the pivots unchanged too.

Variables are implicitly nonnegative. Constraints are triples
``(coefficients, relation, rhs)`` with relation one of "<=", ">=", "==".
Numbers are ints, Fractions or ``'p/q'`` strings; floats are refused.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Optional, Sequence

from .algebra import as_fraction
from .errors import ValidationError

_ZERO = Fraction(0)

Constraint = tuple[Sequence, str, object]


@dataclass(frozen=True)
class LpResult:
    status: str  # "optimal" | "unbounded" | "infeasible"
    objective: Optional[Fraction]
    solution: Optional[tuple[Fraction, ...]]


def _integer_row(values) -> tuple[list[int], int]:
    """The values times the positive lcm of their denominators, and that
    lcm. A row whose values are all exactly of type int is returned as it
    is, with lcm 1. A value whose type is exactly int or Fraction passes as
    it is; anything else, a bool too, goes through ``as_fraction``."""
    if all(type(v) is int for v in values):
        return list(values), 1
    ratios = [
        (v if type(v) in (int, Fraction) else as_fraction(v)).as_integer_ratio()
        for v in values
    ]
    scale = lcm(*[d for _, d in ratios])
    return [num * (scale // d) for num, d in ratios], scale


class _Tableau:
    """Row r holds D times the row of the normalized (Fraction) tableau,
    so every basic column reads D in its own row and 0 elsewhere, and the
    basic variable of row r has the value rows[r][-1] / D."""

    def __init__(self, rows, basis, ncols):
        self.rows = rows            # list of int lists, last entry is the rhs
        self.basis = basis          # basic variable of each row
        self.ncols = ncols          # number of variable columns
        self.d = 1                  # common denominator, kept positive

    def pivot(self, row: int, col: int) -> None:
        rows = self.rows
        prow = rows[row]
        p = prow[col]
        d = self.d
        for r, line in enumerate(rows):
            if r != row:
                factor = line[col]
                if factor:
                    rows[r] = [(a * p - factor * b) // d for a, b in zip(line, prow)]
                elif p != d:
                    rows[r] = [a * p // d for a in line]
        if p < 0:
            self.rows = [[-a for a in line] for line in rows]
            p = -p
        self.d = p
        self.basis[row] = col

    def run(self, cost: list[int], banned: set[int]) -> str:
        """Maximize cost'x from the current basis. Returns "optimal" or
        "unbounded". ``cost`` has one integer entry per column and is
        first reduced against the current basis."""
        # z[j] = D * (cost[j] - cost_B . column_j), so only its sign is read.
        d = self.d
        z = [d * c for c in cost] + [0]
        for line, b in zip(self.rows, self.basis):
            cb = cost[b]
            if cb:
                z = [a - cb * v for a, v in zip(z, line)]
        while True:
            enter = -1
            for j in range(self.ncols):
                if z[j] > 0 and j not in banned:
                    enter = j
                    break
            if enter < 0:
                return "optimal"
            leave = -1
            for r, line in enumerate(self.rows):
                a = line[enter]
                # ratio line[-1] / a against the best num / den so far,
                # cross-multiplied: both denominators are positive
                if a > 0 and (
                    leave < 0
                    or line[-1] * den < num * a
                    or (line[-1] * den == num * a and self.basis[r] < self.basis[leave])
                ):
                    leave, num, den = r, line[-1], a
            if leave < 0:
                return "unbounded"
            d = self.d
            prow = self.rows[leave]
            p = prow[enter]
            self.pivot(leave, enter)
            factor = z[enter]
            z = [(a * p - factor * b) // d for a, b in zip(z, prow)]


def solve_lp(
    objective: Sequence, constraints: Sequence[Constraint], *, maximize: bool = True
) -> LpResult:
    """Solve max (or min) objective'x subject to the constraints, x >= 0."""
    cost, cost_scale = _integer_row(objective)
    if not maximize:
        cost = [-v for v in cost]
    n = len(cost)

    rows = []
    scales = []
    rels = []
    for coeffs, rel, b in constraints:
        row, scale = _integer_row([*coeffs, b])
        if len(row) != n + 1:
            raise ValidationError(f"constraint width {len(row) - 1} != {n} variables")
        if rel not in ("<=", ">=", "=="):
            raise ValidationError(f"unknown relation {rel!r}")
        if row[-1] < 0:
            row = [-v for v in row]
            rel = {"<=": ">=", ">=": "<=", "==": "=="}[rel]
        rows.append(row)
        scales.append(scale)
        rels.append(rel)
    m = len(rows)

    # Column layout: structural | slack/surplus | artificial.
    ncols = n
    slack_col = {}
    for i, rel in enumerate(rels):
        if rel in ("<=", ">="):
            slack_col[i] = ncols
            ncols += 1
    art_col = {}
    for i, rel in enumerate(rels):
        if rel in (">=", "=="):
            art_col[i] = ncols
            ncols += 1

    table = []
    basis = []
    for i in range(m):
        line = rows[i][:n] + [0] * (ncols - n) + rows[i][n:]
        if rels[i] == "<=":
            line[slack_col[i]] = 1
            basis.append(slack_col[i])
        elif rels[i] == ">=":
            line[slack_col[i]] = -1
            line[art_col[i]] = 1
            basis.append(art_col[i])
        else:
            line[art_col[i]] = 1
            basis.append(art_col[i])
        table.append(line)

    tab = _Tableau(table, basis, ncols)
    artificials = set(art_col.values())

    if artificials:
        # Row i was scaled by the lcm s_i of its denominators, which scales
        # its artificial by s_i too; the phase-1 cost -1 of the unscaled
        # artificial becomes -1/s_i, here times the positive lcm of the s_i.
        top = lcm(*(scales[i] for i in art_col))
        phase1 = [0] * ncols
        for i, j in art_col.items():
            phase1[j] = -(top // scales[i])
        status = tab.run(phase1, banned=set())
        if status != "optimal":
            raise AssertionError("phase 1 is always bounded")
        if any(tab.rows[r][-1] > 0 for r in range(m) if tab.basis[r] in artificials):
            return LpResult("infeasible", None, None)
        # Pivot leftover artificials out of the basis where possible;
        # a row with no eligible pivot is redundant and can be ignored
        # because its rhs is zero.
        for r in range(m):
            if tab.basis[r] in artificials:
                for j in range(ncols):
                    if j not in artificials and tab.rows[r][j] != 0:
                        tab.pivot(r, j)
                        break

    status = tab.run(cost + [0] * (ncols - n), banned=artificials)
    if status == "unbounded":
        return LpResult("unbounded", None, None)

    solution = [_ZERO] * n
    total = 0
    for line, b in zip(tab.rows, tab.basis):
        if b < n:
            solution[b] = Fraction(line[-1], tab.d)
            total += cost[b] * line[-1]
    value = Fraction(total, cost_scale * tab.d)
    if not maximize:
        value = -value
    return LpResult("optimal", value, tuple(solution))
